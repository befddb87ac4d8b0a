"""Center-of-gravity defuzzification and its algebraic properties."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fuzzreg import (
    FuzzySet,
    Gaussian,
    LinguisticTerm,
    LinguisticVariable,
    Regulator,
    Rule,
    RuleBase,
    SShoulder,
    Trapezoidal,
    Triangular,
    Universe,
    ZeroMass,
    ZShoulder,
    defuzz_cog,
    discretize,
)
from fuzzreg.defuzz import _cog_vector, cog_rows
from oracles import cog_oracle


def _set(lo, hi, grades):
    return FuzzySet(Universe(lo, hi, len(grades)), grades)


class TestExamples:
    def test_uniform_grades_give_mean_of_points(self):
        assert defuzz_cog(_set(0, 2, [1.0, 1.0, 1.0])) == 1.0

    def test_all_mass_at_one_point(self):
        assert defuzz_cog(_set(0, 10, [1.0, 0.0])) == 0.0

    def test_skewed_mass(self):
        # (3*0.1 + 4*0.5 + 5*1.0) / (0.1 + 0.5 + 1.0) = 7.3 / 1.6
        fs = _set(1, 5, [0.0, 0.0, 0.1, 0.5, 1.0])
        assert defuzz_cog(fs) == pytest.approx(4.5625, rel=1e-12)

    def test_zero_mass_raises(self):
        # a bare set has no rules, so the message says only what it sees
        with pytest.raises(ZeroMass, match="^all grades are zero$"):
            defuzz_cog(_set(0, 1, [0.0, 0.0, 0.0]))


@st.composite
def massive_sets(draw):
    n = draw(st.integers(2, 300))
    lo = draw(st.floats(-100, 100, allow_nan=False))
    span = draw(st.floats(0.5, 200, allow_nan=False))
    grades = draw(
        st.lists(st.floats(0, 1), min_size=n, max_size=n).map(np.array)
    )
    assume(grades.sum() > 1e-6)
    return FuzzySet(Universe(lo, lo + span, n), grades)


class TestProperties:
    @given(fs=massive_sets())
    def test_matches_longhand_loop(self, fs):
        y = defuzz_cog(fs)
        assert y == pytest.approx(cog_oracle(fs.universe.points, fs.grades), rel=1e-12)

    @given(fs=massive_sets())
    def test_output_bounded_by_universe(self, fs):
        y = defuzz_cog(fs)
        assert fs.universe.min <= y <= fs.universe.max

    @given(fs=massive_sets(), c=st.floats(1e-3, 1.0, allow_nan=False))
    def test_scaling_grades_leaves_output_unchanged(self, fs, c):
        scaled = FuzzySet(fs.universe, fs.grades * c)
        assert defuzz_cog(scaled) == pytest.approx(defuzz_cog(fs), rel=1e-12)

    @given(fs=massive_sets(), d=st.floats(-100, 100, allow_nan=False))
    def test_shifting_points_shifts_output(self, fs, d):
        try:
            shifted_u = Universe(fs.universe.min + d, fs.universe.max + d, fs.universe.n)
        except Exception:
            assume(False)
        shifted = FuzzySet(shifted_u, fs.grades)
        y = defuzz_cog(fs) + d
        scale = max(1.0, abs(d), abs(fs.universe.min), abs(fs.universe.max))
        assert defuzz_cog(shifted) == pytest.approx(y, abs=1e-11 * scale)

    @given(fs=massive_sets())
    def test_symmetric_grades_give_midpoint(self, fs):
        sym = 0.5 * (fs.grades + fs.grades[::-1])
        if sym.sum() == 0.0:
            assume(False)
        y = defuzz_cog(FuzzySet(fs.universe, sym))
        span = fs.universe.max - fs.universe.min
        assert abs(y - fs.universe.midpoint) <= 1e-12 * span


def bits(*values):
    return np.array(values, dtype=float).tobytes()


@st.composite
def grade_vectors(draw, n):
    """Arbitrary grades, all zeros, or a single spike of any height."""
    kind = draw(st.sampled_from(["any", "zero", "spike"]))
    if kind == "any":
        return draw(arrays(float, n, elements=st.floats(0, 1)))
    grades = np.zeros(n)
    if kind == "spike":
        grades[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([1.0, 5e-324, 1e-300]) | st.floats(0, 1))
    return grades


# both ends at extreme magnitudes, tiny spans far from zero, one near
# zero, and -0.0 ends, where numpy and Python break a tie between zeros
# differently unless the universe stores them as 0.0
BOUNDS = [(0.0, 1.0), (0.0, 1e307), (-1e307, 1e307), (1e6, 1e6 + 0.5),
          (1.0, 1.0 + 1e-6), (1e-300, 3e-300), (-0.0, 1.0), (-3.5, -0.0)]


class TestOneVectorForm:
    """``defuzz_cog`` and ``evaluate`` use the one-vector form of COG and
    ``evaluate_many`` uses ``cog_rows``; they must agree bit for bit."""

    @given(bounds=st.sampled_from(BOUNDS), data=st.data())
    def test_equals_cog_rows_bit_for_bit(self, bounds, data):
        u = Universe(*bounds, data.draw(st.integers(2, 600)))
        grades = data.draw(grade_vectors(u.n))
        rows = grades[None]
        mass = rows.sum(axis=1)
        if mass[0] == 0.0:
            # cog_rows takes positive masses only
            with pytest.raises(ZeroMass, match="^all grades are zero$"):
                _cog_vector(u, grades)
            return
        y = cog_rows(u, mass, rows * u.offsets)
        assert bits(np.add.reduce(grades), _cog_vector(u, grades)) == bits(mass[0], y[0])

    @pytest.mark.parametrize("n", [8193, 65537])
    @pytest.mark.parametrize("bounds", BOUNDS)
    def test_equals_cog_rows_on_long_rows(self, n, bounds):
        u = Universe(*bounds, n)
        rows = np.random.default_rng(n).random((3, n))
        rows[1, : n // 2] = 0.0
        mass = rows.sum(axis=1)
        y = cog_rows(u, mass, rows * u.offsets)
        for i, grades in enumerate(rows):
            assert bits(np.add.reduce(grades), _cog_vector(u, grades)) == bits(mass[i], y[i])


def one_rule_regulator(universe, consequent):
    """One input term, fully on at 0.5, concluding ``consequent`` on
    ``universe``: the aggregate at 0.5 is the consequent's samples."""
    vin = LinguisticVariable("in", Universe(0, 1, 11), (LinguisticTerm("on", Triangular(0, 0.5, 1)),))
    vout = LinguisticVariable("out", universe, (LinguisticTerm("c", consequent),))
    return Regulator(RuleBase(vin, vout, (Rule(0, 0),)))


class TestEnds:
    """Center of gravity at the ends of the universe and at the bottom of
    the double range, in every form: ``evaluate``, ``evaluate_many``,
    ``defuzz_cog`` and ``cog_rows``."""

    @given(bounds=st.sampled_from(BOUNDS), zero=st.sampled_from([0.0, -0.0]), data=st.data())
    @settings(max_examples=300)
    def test_never_below_min_without_a_clamp(self, bounds, zero, data):
        # only max is clamped, and max > min, so the result is below min
        # exactly when the unclamped min + r * span is: r >= 0 and rounding
        # is monotone, so it never is, at any magnitude or sign of zero
        u = Universe(*bounds, data.draw(st.integers(2, 600)))
        grades = data.draw(grade_vectors(u.n))
        grades[grades == 0.0] = zero
        assume(grades.sum() > 0)
        rows = grades[None]
        assert cog_rows(u, rows.sum(axis=1), rows * u.offsets)[0] >= u.min
        assert _cog_vector(u, grades) >= u.min

    def test_rounding_past_max_is_clamped(self):
        # min + span rounds above max on this universe, so a set positive
        # at the last sample alone lands on max only through the clamp
        u = Universe(-6.486944333361304, 11.695460766780231, 11)
        assert u.min + u.span > u.max
        top = SShoulder(u.points[-2], u.max)
        assert discretize(top, u).grades.tolist() == [0.0] * 10 + [1.0]
        reg = one_rule_regulator(u, top)
        assert reg.evaluate(0.5).output == u.max
        assert reg.evaluate_many([0.5]).tolist() == [u.max]
        assert defuzz_cog(discretize(top, u)) == u.max

    def test_subnormal_mass(self):
        # every grade is subnormal and the mass about 1.7e-310, so the
        # divide must floor the mass below it. Subnormals keep only 37 to
        # 44 significant bits, so the result is a few thousand ulps from
        # the exact centroid; a floor of 1e-300 would give about 4e-12
        u = Universe(0, 1, 101)
        far = Gaussian(-37.8, 1.0)
        reg = one_rule_regulator(u, far)
        trace = reg.evaluate(0.5)
        grades = trace.aggregated.grades
        assert 0.0 < grades.sum() < 1e-300
        assert trace.output == pytest.approx(cog_oracle(u.points, grades), rel=1e-9)
        assert reg.evaluate_many([0.5]).tolist() == [trace.output]
        assert defuzz_cog(discretize(far, u)) == trace.output


def continuous_centroid(mf, lo, hi):
    """Centroid of a continuous piecewise-linear shape over [lo, hi],
    integrated exactly between its breakpoints."""
    xs = sorted({lo, hi} | {v for v in vars(mf).values() if lo < v < hi})
    mass = moment = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        g0, g1 = mf(x0), mf(x1)
        mass += (x1 - x0) * (g0 + g1) / 2
        moment += (x1 - x0) * (x0 * (2 * g0 + g1) + x1 * (g0 + 2 * g1)) / 6
    return moment / mass


class TestConvergence:
    """Discrete COG converges to the continuous centroid at O(1/n). A set
    cut by an end of the universe sits there with a whole sample's weight
    where the integral gives it half, which moves the centroid by a fraction
    of a step; inside the universe the error falls faster."""

    @pytest.mark.parametrize("mf", [
        Triangular(20.3, 45.1, 90.7),
        Triangular(-30.0, 17.3, 64.9),
        Trapezoidal(10.3, 30.7, 55.1, 80.9),
        Trapezoidal(-20.0, 12.3, 61.7, 140.0),
        ZShoulder(33.3, 71.1),
        SShoulder(12.1, 45.7),
    ])
    def test_error_bound_halves_as_samples_double(self, mf):
        want = continuous_centroid(mf, 0.0, 100.0)
        for k in range(7):  # 101 to 6 401 samples
            u = Universe(0.0, 100.0, 100 * 2**k + 1)
            step = u.span / (u.n - 1)
            assert abs(defuzz_cog(discretize(mf, u)) - want) <= step / 2
