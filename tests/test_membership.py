"""Membership shapes, universes, linguistic variables and fuzzification."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fuzzreg import (
    FuzzyRelation,
    FuzzySet,
    Gaussian,
    InvalidUniverse,
    LinguisticTerm,
    LinguisticVariable,
    NonFiniteInput,
    SShoulder,
    Trapezoidal,
    Triangular,
    Universe,
    ValidationError,
    ZShoulder,
    discretize,
    mf_parameters,
    reference_regulator,
    singleton_fuzzify,
)
from fuzzreg.membership import GAUSSIAN_REACH

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def membership_functions(draw):
    kind = draw(st.sampled_from(["tri", "trap", "gauss", "z", "s"]))
    if kind == "tri":
        a, b, c = sorted(draw(st.tuples(finite, finite, finite)))
        assume(a < c)
        return Triangular(a, b, c)
    if kind == "trap":
        a, b, c, d = sorted(draw(st.tuples(finite, finite, finite, finite)))
        assume(a < d)
        return Trapezoidal(a, b, c, d)
    if kind == "gauss":
        return Gaussian(draw(finite), draw(st.floats(min_value=1e-3, max_value=1e3)))
    a, b = sorted(draw(st.tuples(finite, finite)))
    assume(a < b)
    return (ZShoulder if kind == "z" else SShoulder)(a, b)


class TestUniverse:
    def test_uniform_points(self):
        u = Universe(0, 100, 5)
        assert u.points.tolist() == [0.0, 25.0, 50.0, 75.0, 100.0]

    def test_two_point_universe_is_just_the_endpoints(self):
        assert Universe(0, 1, 2).points.tolist() == [0.0, 1.0]

    def test_degenerate_range_rejected(self):
        with pytest.raises(InvalidUniverse):
            Universe(5, 5, 3)

    def test_inverted_range_rejected(self):
        with pytest.raises(InvalidUniverse):
            Universe(10, 0, 5)

    def test_too_few_samples_rejected(self):
        with pytest.raises(InvalidUniverse):
            Universe(0, 1, 1)

    @given(
        lo=st.floats(-1e6, 1e6, allow_nan=False),
        span=st.floats(1e-3, 1e6, allow_nan=False),
        n=st.integers(2, 500),
    )
    def test_spacing_is_uniform(self, lo, span, n):
        # construction rejects grids whose offset-to-span ratio breaks
        # uniformity, so every universe that exists satisfies the bound
        try:
            u = Universe(lo, lo + span, n)
        except InvalidUniverse:
            assume(False)
        diffs = np.diff(u.points)
        step = (u.max - u.min) / (n - 1)
        assert np.all(np.abs(diffs - step) <= 1e-9 * (u.max - u.min))
        assert u.points[0] == u.min and u.points[-1] == u.max

    def test_points_are_read_only(self):
        u = Universe(0, 1, 11)
        with pytest.raises(ValueError):
            u.points[0] = 7.0

    def test_equality_and_midpoint(self):
        assert Universe(0, 10, 5) == Universe(0.0, 10.0, 5)
        assert Universe(0, 10, 5) != Universe(0, 10, 6)
        assert Universe(0, 10, 5).midpoint == 5.0

    def test_clamp(self):
        u = Universe(-1, 1, 3)
        assert u.clamp(-5) == -1.0
        assert u.clamp(5) == 1.0
        assert u.clamp(0.25) == 0.25


class TestTriangular:
    def test_peak(self):
        assert Triangular(0, 5, 10)(5) == 1.0

    def test_linear_interpolation(self):
        assert Triangular(0, 5, 10)(2.5) == 0.5
        assert Triangular(0, 5, 10)(7.5) == 0.5

    def test_outside_support(self):
        mf = Triangular(0, 5, 10)
        assert mf(-1) == 0.0
        assert mf(0) == 0.0
        assert mf(10) == 0.0
        assert mf(11) == 0.0

    def test_degenerate_left_edge_jumps(self):
        mf = Triangular(0, 0, 10)
        assert mf(0) == 1.0
        assert mf(-1e-9) == 0.0
        assert mf(5) == 0.5

    def test_degenerate_right_edge_jumps(self):
        mf = Triangular(0, 10, 10)
        assert mf(10) == 1.0
        assert mf(10.5) == 0.0
        assert mf(5) == 0.5

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValidationError):
            Triangular(5, 2, 9)

    def test_zero_width_rejected(self):
        with pytest.raises(ValidationError):
            Triangular(1, 1, 1)

    def test_non_numeric_parameter_rejected(self):
        with pytest.raises(ValidationError):
            Triangular(0, "mid", 1)


class TestTrapezoidal:
    def test_plateau(self):
        mf = Trapezoidal(0, 2, 3, 5)
        assert mf(2) == 1.0
        assert mf(2.5) == 1.0
        assert mf(3) == 1.0

    def test_ramps(self):
        mf = Trapezoidal(0, 2, 3, 5)
        assert mf(1) == 0.5
        assert mf(4) == 0.5

    def test_outside_support(self):
        mf = Trapezoidal(0, 2, 3, 5)
        assert mf(0) == 0.0
        assert mf(5) == 0.0

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValidationError):
            Trapezoidal(3, 2, 4, 5)

    def test_zero_width_rejected(self):
        with pytest.raises(ValidationError):
            Trapezoidal(2, 2, 2, 2)


class TestGaussian:
    def test_peak_at_center(self):
        assert Gaussian(3.0, 2.0)(3.0) == 1.0

    def test_one_sigma(self):
        assert Gaussian(0.0, 1.0)(1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_far_tail_underflows_to_zero(self):
        assert Gaussian(0.0, 1.0)(1e6) == 0.0

    def test_support_ends_where_the_float_grade_is_zero(self):
        assert np.exp(-0.5 * 38.6**2) > 0.0
        assert np.exp(-0.5 * GAUSSIAN_REACH**2) == 0.0
        assert Gaussian(3.0, 2.0).support() == (3.0 - 2 * GAUSSIAN_REACH, 3.0 + 2 * GAUSSIAN_REACH)

    def test_support_of_a_huge_sigma_is_unbounded(self):
        assert Gaussian(0.0, 1e308).support() == (-math.inf, math.inf)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValidationError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValidationError):
            Gaussian(0.0, -1.0)


class TestShoulders:
    def test_z_saturates_left(self):
        mf = ZShoulder(2, 4)
        assert mf(-100) == 1.0
        assert mf(2) == 1.0
        assert mf(3) == 0.5
        assert mf(4) == 0.0
        assert mf(100) == 0.0

    def test_s_saturates_right(self):
        mf = SShoulder(2, 4)
        assert mf(-100) == 0.0
        assert mf(2) == 0.0
        assert mf(3) == 0.5
        assert mf(4) == 1.0
        assert mf(100) == 1.0

    def test_flat_shoulder_rejected(self):
        with pytest.raises(ValidationError):
            ZShoulder(2, 2)
        with pytest.raises(ValidationError):
            SShoulder(3, 1)


@given(mf=membership_functions(), x=st.floats(-1e6, 1e6, allow_nan=False))
def test_every_grade_lies_in_unit_interval(mf, x):
    assert 0.0 <= mf(x) <= 1.0


@given(data=st.data())
def test_triangular_monotone_up_then_down(data):
    a, b, c = sorted(data.draw(st.tuples(finite, finite, finite)))
    assume(a < b < c)
    tri = Triangular(a, b, c)
    xs = sorted(data.draw(st.lists(st.floats(a, b), min_size=2, max_size=10)))
    grades = [tri(x) for x in xs]
    assert all(g1 <= g2 for g1, g2 in zip(grades, grades[1:]))
    xs = sorted(data.draw(st.lists(st.floats(b, c), min_size=2, max_size=10)))
    grades = [tri(x) for x in xs]
    assert all(g1 >= g2 for g1, g2 in zip(grades, grades[1:]))


class TestFuzzySet:
    def test_length_must_match_universe(self):
        with pytest.raises(ValidationError):
            FuzzySet(Universe(0, 1, 5), [0.0, 1.0])

    def test_out_of_range_grades_rejected(self):
        with pytest.raises(ValidationError):
            FuzzySet(Universe(0, 1, 2), [0.0, 1.5])
        with pytest.raises(ValidationError):
            FuzzySet(Universe(0, 1, 2), [-0.1, 0.5])
        with pytest.raises(ValidationError):
            FuzzySet(Universe(0, 1, 2), [math.nan, 0.5])

    def test_grades_read_only(self):
        fs = FuzzySet(Universe(0, 1, 3), [0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            fs.grades[0] = 1.0

    def test_equality(self):
        u = Universe(0, 1, 3)
        assert FuzzySet(u, [0, 0.5, 1]) == FuzzySet(u, [0, 0.5, 1])
        assert FuzzySet(u, [0, 0.5, 1]) != FuzzySet(u, [0, 0.5, 0.9])
        assert FuzzySet(u, [0, 0.5, 1]) != FuzzySet(Universe(0, 2, 3), [0, 0.5, 1])

    def test_array_protocol(self):
        fs = FuzzySet(Universe(0, 1, 3), [0.0, 0.5, 1.0])
        assert np.asarray(fs).tolist() == [0.0, 0.5, 1.0]
        assert len(fs) == 3

    def test_array_is_a_writable_copy(self):
        fs = FuzzySet(Universe(0, 1, 3), [0.0, 0.5, 1.0])
        a = np.array(fs)
        assert a.flags.writeable and not np.shares_memory(a, fs.grades)
        a[0] = 1.0
        assert fs.grades.tolist() == [0.0, 0.5, 1.0]

    def test_asarray_shares_the_grades(self):
        fs = FuzzySet(Universe(0, 1, 3), [0.0, 0.5, 1.0])
        assert np.shares_memory(np.asarray(fs), fs.grades)

    def test_array_of_another_dtype(self):
        a = np.array(FuzzySet(Universe(0, 1, 3), [0.0, 0.5, 1.0]), dtype=np.float32)
        assert a.dtype == np.float32 and a.tolist() == [0.0, 0.5, 1.0]

    def test_array_without_copy_argument(self):
        # a direct call passes no copy: numpy copies only to convert
        fs = FuzzySet(Universe(0, 1, 3), [0.0, 0.5, 1.0])
        assert fs.__array__() is fs.grades
        assert fs.__array__(np.float32).dtype == np.float32


class TestLinguisticVariable:
    def _term(self, name, lo, mid, hi):
        return LinguisticTerm(name, Triangular(lo, mid, hi))

    def test_duplicate_term_names_rejected(self):
        with pytest.raises(ValidationError):
            LinguisticVariable(
                "v",
                Universe(0, 10, 5),
                (self._term("A", 0, 2, 4), self._term("A", 4, 6, 8)),
            )

    def test_needs_at_least_one_term(self):
        with pytest.raises(ValidationError):
            LinguisticVariable("v", Universe(0, 10, 5), ())

    def test_term_outside_universe_rejected(self):
        with pytest.raises(ValidationError):
            LinguisticVariable(
                "v", Universe(0, 10, 5), (self._term("far", 200, 250, 300),)
            )

    def test_gaussian_term_outside_universe_rejected(self):
        # every grade of this gaussian on [0, 10] is 0
        with pytest.raises(ValidationError, match="entirely outside the universe"):
            LinguisticVariable(
                "v", Universe(0, 10, 5), (LinguisticTerm("g", Gaussian(500.0, 1.0)),)
            )

    def test_empty_term_name_rejected(self):
        with pytest.raises(ValidationError):
            LinguisticTerm("", Triangular(0, 1, 2))

    def test_term_index(self):
        var = LinguisticVariable(
            "v", Universe(0, 10, 5), (self._term("A", 0, 2, 4), self._term("B", 4, 6, 8))
        )
        assert var.term_index("B") == 1
        with pytest.raises(ValidationError):
            var.term_index("XX")


class TestDiscretize:
    def test_triangle_at_sample_points(self):
        fs = discretize(Triangular(0, 50, 100), Universe(0, 100, 5))
        assert fs.grades.tolist() == [0.0, 0.5, 1.0, 0.5, 0.0]

    def test_trapezoid_at_sample_points(self):
        fs = discretize(Trapezoidal(0, 25, 75, 100), Universe(0, 100, 5))
        assert fs.grades.tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]

    def test_mf_outside_universe_gives_all_zeros(self):
        fs = discretize(Triangular(200, 250, 300), Universe(0, 100, 5))
        assert not fs.grades.any()

    def test_result_is_read_only_and_equals_the_checked_set(self):
        u = Universe(0, 100, 5)
        fs = discretize(Triangular(0, 50, 100), u)
        assert not fs.grades.flags.writeable and fs == FuzzySet(u, fs.grades)

    @given(mf=membership_functions(), n=st.integers(2, 60))
    def test_matches_pointwise_evaluation(self, mf, n):
        u = Universe(-1e3, 1e3, n)
        fs = discretize(mf, u)
        assert all(fs.grades[i] == mf(float(p)) for i, p in enumerate(u.points))


class TestSingletonFuzzify:
    def _var(self):
        return LinguisticVariable(
            "v",
            Universe(0, 100, 11),
            (
                LinguisticTerm("low", Triangular(0, 10, 40)),
                LinguisticTerm("mid", Triangular(20, 50, 80)),
                LinguisticTerm("high", Triangular(60, 90, 100)),
            ),
        )

    def test_peak_gives_unit_grade_at_that_term(self):
        assert singleton_fuzzify(50, self._var()).tolist() == [0.0, 1.0, 0.0]

    def test_gap_gives_all_zeros(self):
        var = LinguisticVariable(
            "v", Universe(0, 100, 11), (LinguisticTerm("mid", Triangular(40, 50, 60)),)
        )
        assert singleton_fuzzify(10, var).tolist() == [0.0]

    def test_reference_config_at_midpoint(self):
        var = reference_regulator().input_var
        assert singleton_fuzzify(50, var).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_non_finite_input_rejected(self):
        var = self._var()
        with pytest.raises(NonFiniteInput):
            singleton_fuzzify(math.nan, var)
        with pytest.raises(NonFiniteInput):
            singleton_fuzzify(math.inf, var)

    def test_out_of_range_input_clamps(self):
        var = self._var()
        assert singleton_fuzzify(-5, var).tolist() == singleton_fuzzify(0, var).tolist()
        assert singleton_fuzzify(900, var).tolist() == singleton_fuzzify(100, var).tolist()

    @given(x=st.floats(-50, 150, allow_nan=False), seed=st.integers(0, 2**16))
    def test_insensitive_to_term_order(self, x, seed):
        var = self._var()
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(var.terms))
        shuffled = LinguisticVariable(
            var.name, var.universe, tuple(var.terms[i] for i in perm)
        )
        base = singleton_fuzzify(x, var)
        assert singleton_fuzzify(x, shuffled).tolist() == base[perm].tolist()


SHAPES = [
    Triangular(0.0, 2.5, 5.0),
    Trapezoidal(0.0, 1.0, 3.0, 5.0),
    Gaussian(2.0, 0.7),
    ZShoulder(1.0, 4.0),
    SShoulder(1.0, 4.0),
]
COPIES = [
    lambda obj: pickle.loads(pickle.dumps(obj)),
    copy.deepcopy,
    copy.copy,
    dataclasses.replace,
]
COPY_IDS = ["pickle", "deepcopy", "copy", "replace"]
VALUES = [
    Universe(-1.0, 3.0, 9),
    FuzzySet(Universe(0.0, 1.0, 3), [0.0, 0.5, 1.0]),
    FuzzyRelation([[0.2, 1.0], [0.0, 0.5]]),
    reference_regulator().evaluate(30.0),
]


def fields_of(obj):
    """``obj``'s instance fields, a Universe's or FuzzySet's expanded in place."""
    for name, value in vars(obj).items():
        if isinstance(value, (Universe, FuzzySet)):
            yield from ((f"{name}.{inner}", v) for inner, v in fields_of(value))
        else:
            yield name, value


class TestCopies:
    """Copies of a shape or a regulator evaluate bit for bit like the
    original, and a shape's instance dict holds only its fields. Every
    value type is copied through its constructor, so its arrays stay
    read-only and a regulator's consequent sets stay views of its matrix."""

    @pytest.mark.parametrize("mf", SHAPES, ids=lambda mf: type(mf).__name__)
    @pytest.mark.parametrize("make_copy", COPIES, ids=COPY_IDS)
    def test_shape(self, mf, make_copy):
        twin = make_copy(mf)
        assert twin == mf and type(twin) is type(mf)
        assert list(vars(twin)) == [f.name for f in dataclasses.fields(mf)]
        assert mf_parameters(twin) == mf_parameters(mf)
        xs = np.linspace(-1.0, 6.0, 141)
        assert twin.sample(xs).tolist() == mf.sample(xs).tolist()
        assert [twin(x) for x in xs.tolist()] == [mf(x) for x in xs.tolist()]
        assert twin.support() == mf.support()

    def test_replace_moves_the_shape(self):
        mf = dataclasses.replace(Triangular(0.0, 1.0, 2.0), c=4.0)
        assert mf.support() == (0.0, 4.0)
        assert mf(3.0) == Triangular(0.0, 1.0, 4.0)(3.0) == 1 / 3

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    @pytest.mark.parametrize("make_copy", COPIES, ids=COPY_IDS)
    def test_value(self, value, make_copy):
        twin = make_copy(value)
        assert type(twin) is type(value)
        theirs, ours = dict(fields_of(value)), dict(fields_of(twin))
        assert list(ours) == list(theirs)
        arrays = [name for name, v in ours.items() if isinstance(v, np.ndarray)]
        assert arrays
        for name in arrays:
            assert ours[name].tolist() == theirs[name].tolist()
            assert not ours[name].flags.writeable, name
        assert {k: v for k, v in ours.items() if k not in arrays} == {
            k: v for k, v in theirs.items() if k not in arrays}

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    @pytest.mark.parametrize("make_copy", COPIES, ids=COPY_IDS)
    def test_value_equals_its_copy(self, value, make_copy):
        assert make_copy(value) == value

    @pytest.mark.parametrize("make_copy", COPIES, ids=COPY_IDS)
    def test_variable(self, make_copy):
        var = reference_regulator().input_var
        twin = make_copy(var)
        assert twin == var
        # the grading state is derived again, not copied
        assert twin._families is not var._families
        xs = np.linspace(-10.0, 110.0, 241)
        assert np.array_equal(twin._grade(xs), var._grade(xs))
        assert [twin._fuzzify(x) for x in xs.tolist()] == [var._fuzzify(x) for x in xs.tolist()]

    @pytest.mark.parametrize("make_copy", COPIES, ids=COPY_IDS)
    def test_regulator(self, make_copy):
        reg = reference_regulator()
        twin = make_copy(reg)
        assert twin == reg
        arrays = [twin._matrix, twin.output_universe.points, twin.output_universe.offsets]
        arrays += [fset.grades for fset in twin.consequent_sets]
        assert not any(a.flags.writeable for a in arrays)
        # the consequent sets stay views of the compiled matrix
        assert all(np.shares_memory(twin._matrix, s.grades) for s in twin.consequent_sets)
        xs = np.linspace(-10.0, 110.0, 241)
        assert twin.evaluate_many(xs).tolist() == reg.evaluate_many(xs).tolist()
        assert [twin.evaluate(x).output for x in xs.tolist()] == [
            reg.evaluate(x).output for x in xs.tolist()]
        for term in twin.input_var.terms + twin.output_var.terms:
            assert list(vars(term.mf)) == [f.name for f in dataclasses.fields(term.mf)]


class TestEquality:
    """The value types that hold arrays (FuzzySet, FuzzyRelation, EvalTrace)
    compare by their fields, arrays by value, and are not hashable."""

    def test_traces_of_one_input_are_equal(self):
        reg = reference_regulator()
        assert reg.evaluate(37.3) == reg.evaluate(37.3)
        assert reg.evaluate(37.3) != reg.evaluate(37.4)

    def test_traces_differing_in_one_field_are_not_equal(self):
        trace = reference_regulator().evaluate(37.3)
        assert dataclasses.replace(trace, zero_mass_fallback=True) != trace
        assert dataclasses.replace(trace, output=trace.output + 1.0) != trace

    def test_comparison_with_an_array_is_elementwise(self):
        # numpy reads the set through __array__, which ufuncs need too
        fset = FuzzySet(Universe(0, 1, 3), [0, 0.5, 1])
        arr = np.array([0, 0.5, 0.75])
        for result in (fset == arr, arr == fset):
            assert isinstance(result, np.ndarray) and result.tolist() == [True, True, False]
        assert np.maximum(fset, arr).tolist() == [0, 0.5, 1]
        assert (fset == [0, 0.5, 1]) is False

    @pytest.mark.parametrize("value", VALUES[1:], ids=lambda v: type(v).__name__)
    def test_not_hashable(self, value):
        with pytest.raises(TypeError):
            hash(value)

    @pytest.mark.parametrize("value", VALUES[1:3], ids=lambda v: type(v).__name__)
    @pytest.mark.parametrize("other", [None, "x", 0.5, object()],
                             ids=["None", "str", "float", "object"])
    def test_other_types_are_not_implemented(self, value, other):
        assert value.__eq__(other) is NotImplemented
        assert value != other
