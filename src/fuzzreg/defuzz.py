"""Center-of-gravity defuzzification."""

from __future__ import annotations

import numpy as np

from .errors import ZeroMass
from .membership import FuzzySet, Universe, _instance

_TINY = 5e-324


def cog_rows(universe: Universe, mass: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Center of gravity of every row of an ``(n, universe.n)`` grade matrix.

    The caller passes each row's grade sum ``mass`` and ``products``, the
    rows times ``universe.offsets``, C-contiguous. The result is each row's
    crisp value ``min + span * sum(t[i] * mu[i]) / sum(mu[i])``, where ``t``
    are the universe's sample offsets in ``[0, 1]``: both sums stay within
    the grade range, so no magnitude of the universe overflows them. It is
    ``min`` where the mass is zero. Each row is summed on its own (numpy's
    pairwise sum of a contiguous row), so a row's result does not depend
    on the other rows.
    """
    moment = products.sum(axis=1)
    # grades are >= 0, so a zero mass has a zero moment; the smallest
    # double is below every positive mass, so only those rows change
    y = np.divide(moment, np.maximum(mass, _TINY), out=moment)
    y *= universe.span
    y += universe.min
    # Rounding may push the result past max, never below min: the ratio is
    # >= 0 (or -0.0), and rounding is monotone, so fl(r * span) >= 0 and
    # fl(min + fl(r * span)) >= fl(min + 0) = min.
    return np.minimum(y, universe.max, out=y)


def _cog_vector(universe: Universe, grades: np.ndarray) -> tuple[float, float]:
    """:func:`cog_rows` of one grade vector, as ``(mass, y)`` floats.

    The two sums are the same numpy pairwise sums; the rest repeats
    ``cog_rows``' operations in Python floats, which round alike, so the
    result is the same bit for bit without the fixed cost of one ufunc call
    per step. ``evaluate`` calls it once per input; ``evaluate_many`` keeps
    ``cog_rows``, where one call covers a whole chunk of rows.
    """
    mass = float(np.add.reduce(grades))
    moment = float(np.add.reduce(grades * universe.offsets))
    y = moment / max(mass, _TINY) * universe.span + universe.min
    # never below min, as cog_rows argues
    return mass, min(y, universe.max)


def defuzz_cog(fset: FuzzySet) -> float:
    """Crisp value of a fuzzy set: sum(x[i] * mu[i]) / sum(mu[i]).

    The discrete sums run over the universe's sample points, so resolution
    is controlled by the universe's sample count. Raises :class:`ZeroMass`
    when every grade is zero rather than silently inventing an answer.
    This is the computation :meth:`Regulator.evaluate` runs, so it
    reproduces a trace's output bit for bit from its aggregated set.
    """
    _instance(fset, FuzzySet, "defuzz_cog argument")
    mass, y = _cog_vector(fset.universe, fset.grades)
    if mass == 0.0:
        raise ZeroMass("all grades are zero")
    return y
