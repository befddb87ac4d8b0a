"""Center-of-gravity defuzzification."""

from __future__ import annotations

import numpy as np

from .errors import ZeroMass
from .membership import FuzzySet, Universe, _instance


def cog_rows(universe: Universe, mass: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Center of gravity of every row of an ``(n, universe.n)`` grade matrix.

    The caller passes each row's grade sum ``mass``, which must be positive,
    and ``products``, the rows times ``universe.offsets``, C-contiguous. The
    result is each row's crisp value ``min + span * sum(t[i] * mu[i]) /
    sum(mu[i])``, where ``t`` are the universe's sample offsets in
    ``[0, 1]``: both sums stay within the grade range, so no magnitude of
    the universe overflows them. Each row is summed on its own (numpy's
    pairwise sum of a contiguous row), so a row's result does not depend
    on the other rows.
    """
    moment = products.sum(axis=1)
    y = np.divide(moment, mass, out=moment)
    y *= universe.span
    y += universe.min
    # Rounding may push the result past max, never below min: the ratio is
    # >= 0 (or -0.0), and rounding is monotone, so fl(r * span) >= 0 and
    # fl(min + fl(r * span)) >= fl(min + 0) = min.
    return np.minimum(y, universe.max, out=y)


def _cog_vector(universe: Universe, grades: np.ndarray) -> float:
    """:func:`cog_rows` of one grade vector, as a float, or ``ZeroMass``
    when every grade is zero.

    The two sums are the same numpy pairwise sums; the rest repeats
    ``cog_rows``' operations in Python floats, which round alike, so the
    result is the same bit for bit without the fixed cost of one ufunc call
    per step. ``evaluate`` calls it once per input; ``evaluate_many`` keeps
    ``cog_rows``, where one call covers a whole chunk of rows.
    """
    mass = float(np.add.reduce(grades))
    if mass == 0.0:
        raise ZeroMass("all grades are zero")
    moment = float(np.add.reduce(grades * universe.offsets))
    # never below min, as cog_rows argues
    return min(moment / mass * universe.span + universe.min, universe.max)


def defuzz_cog(fset: FuzzySet) -> float:
    """Crisp value of a fuzzy set: sum(x[i] * mu[i]) / sum(mu[i]).

    The discrete sums run over the universe's sample points, so resolution
    is controlled by the universe's sample count. Raises :class:`ZeroMass`
    when every grade is zero rather than silently inventing an answer.
    This is the computation :meth:`Regulator.evaluate` runs, so it
    reproduces a trace's output bit for bit from its aggregated set.
    """
    _instance(fset, FuzzySet, "defuzz_cog argument")
    return _cog_vector(fset.universe, fset.grades)
