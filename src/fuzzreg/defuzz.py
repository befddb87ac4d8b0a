"""Center-of-gravity defuzzification."""

from __future__ import annotations

import numpy as np

from .errors import ZeroMass
from .membership import FuzzySet, Universe

_TINY = 5e-324


def cog_rows(
    universe: Universe, grades: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Center of gravity of every row of an ``(n, universe.n)`` grade matrix.

    Returns ``(mass, y)``: each row's grade sum, and its crisp value
    ``min + span * sum(t[i] * mu[i]) / sum(mu[i])``, where ``t`` are the
    universe's sample offsets in ``[0, 1]``: both sums stay within the
    grade range, so no magnitude of the universe overflows them. ``y`` is
    ``min`` where the mass is zero. ``scratch``, C-contiguous and of the
    grades' shape, receives the products. Each row is summed on its own
    (numpy's pairwise sum of a contiguous row), so a row's result does not
    depend on the other rows.
    """
    mass = grades.sum(axis=1)
    moment = np.multiply(grades, universe.offsets, out=scratch).sum(axis=1)
    # grades are >= 0, so a zero mass has a zero moment; the smallest
    # double is below every positive mass, so only those rows change
    y = np.divide(moment, np.maximum(mass, _TINY), out=moment)
    y *= universe.span
    y += universe.min
    # rounding must not push the result past the end samples
    np.maximum(y, universe.min, out=y)
    return mass, np.minimum(y, universe.max, out=y)


def defuzz_cog(fset: FuzzySet) -> float:
    """Crisp value of a fuzzy set: sum(x[i] * mu[i]) / sum(mu[i]).

    The discrete sums run over the universe's sample points, so resolution
    is controlled by the universe's sample count. Raises :class:`ZeroMass`
    when every grade is zero rather than silently inventing an answer.
    This is the computation :meth:`Regulator.evaluate` runs, so it
    reproduces a trace's output bit for bit from its aggregated set.
    """
    grades = fset.grades[None]
    mass, y = cog_rows(fset.universe, grades, np.empty_like(grades))
    if mass[0] == 0.0:
        raise ZeroMass("all grades are zero; no rule fired")
    return float(y[0])
