"""Independent oracles for the pipeline's stages, one per stage, written as
the definitions read: the tests of every module check against these."""

from fractions import Fraction


def max_min_oracle(r, ap):
    """Literal max-min composition: out[j] = max over i of min(ap[i], r[i][j])."""
    m, n = len(r), len(r[0])
    return [max(min(ap[i], r[i][j]) for i in range(m)) for j in range(n)]


def cog_oracle(points, grades):
    """Center of gravity, sum(p * g) / sum(g), in exact rational arithmetic
    and rounded once to the nearest float."""
    mass = sum(map(Fraction, grades))
    moment = sum(Fraction(p) * Fraction(g) for p, g in zip(points, grades))
    return float(moment / mass)
