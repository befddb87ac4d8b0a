"""Failures are FuzzyErrors with a useful message, sizes and inputs follow
one rule at every call site, and center of gravity stays exact at extreme
magnitudes."""

import copy
import dataclasses
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzreg import (
    DimensionMismatch,
    EvalTrace,
    FuzzyError,
    FuzzyRelation,
    FuzzySet,
    Gaussian,
    InvalidUniverse,
    LinguisticTerm,
    LinguisticVariable,
    MembershipFunction,
    NonFiniteInput,
    Regulator,
    Rule,
    RuleBase,
    SShoulder,
    Trapezoidal,
    Triangular,
    Universe,
    ValidationError,
    ZeroMassPolicy,
    ZShoulder,
    build_relation,
    cri,
    defuzz_cog,
    discretize,
    emit_mf_plot_data,
    emit_sweep_data,
    format_value,
    infer,
    load_config,
    mf_parameters,
    parse_config,
    reference_config_path,
    reference_regulator,
    serialize_config,
    singleton_fuzzify,
    union,
)
from fuzzreg.membership import MAX_CELLS, MAX_SAMPLES, _count

NOT_COUNTS = [math.inf, -math.inf, math.nan, 2.5, True, "7", None]


def parse_reference(old: str, numbers: list) -> Regulator:
    """The reference document, its first flow list ``old`` replaced by
    ``numbers`` written in YAML, parsed."""
    flow = yaml.safe_dump(numbers, default_flow_style=True).strip()
    return parse_config(reference_config_path().read_text().replace(old, flow, 1))


class TestCountValidator:
    """One validator checks every count; each call site gets a FuzzyError."""

    @pytest.mark.parametrize("steps", NOT_COUNTS + [1, 0, -3])
    def test_sweep_steps(self, steps):
        with pytest.raises(ValidationError, match="sweep steps"):
            reference_regulator().sweep(steps)

    @pytest.mark.parametrize("index", NOT_COUNTS + [-1])
    def test_rule_indices(self, index):
        with pytest.raises(ValidationError, match="rule antecedent"):
            Rule(index, 0)
        with pytest.raises(ValidationError, match="rule consequent"):
            Rule(0, index)

    @pytest.mark.parametrize("n", NOT_COUNTS + [1])
    def test_universe_sample_count(self, n):
        with pytest.raises(InvalidUniverse, match="sample count"):
            Universe(0, 1, n)

    @pytest.mark.parametrize("res", [v for v in NOT_COUNTS if v is not None] + [1])
    def test_output_resolution(self, res):
        with pytest.raises(ValidationError, match="output_resolution"):
            Regulator(reference_regulator().rulebase, output_resolution=res)

    @pytest.mark.parametrize("samples", NOT_COUNTS + [1])
    def test_plot_samples(self, samples):
        with pytest.raises(ValidationError, match="plot samples"):
            emit_mf_plot_data(reference_regulator().input_var, samples)

    def test_whole_floats_and_numpy_integers_are_counts(self):
        assert Universe(0, 1, 5.0).n == 5
        assert Universe(0, 1, np.int64(5)).n == 5
        assert Rule(np.int32(1), 2.0) == Rule(1, 2)
        assert len(reference_regulator().sweep(np.int64(3))) == 3

    def test_the_cap_is_a_count(self):
        assert MAX_SAMPLES >= 65537
        assert _count(MAX_SAMPLES, "samples", 2) == MAX_SAMPLES

    @pytest.mark.parametrize("call", [
        lambda n: Universe(0, 1, n),
        lambda n: Regulator(reference_regulator().rulebase, output_resolution=n),
        lambda n: reference_regulator().sweep(n),
        lambda n: emit_mf_plot_data(reference_regulator().input_var, n),
        lambda n: parse_config(serialize_config(reference_regulator()).replace(
            "samples: 101", f"samples: {n}", 1)),
        lambda n: parse_config(serialize_config(reference_regulator()).replace(
            "output_resolution: 101", f"output_resolution: {n}")),
    ], ids=["universe", "output_resolution", "sweep", "plot", "config_samples",
            "config_output_resolution"])
    def test_counts_past_the_cap_are_rejected_before_allocating(self, call):
        call(3)  # the call site allocates as usual below the cap
        tracemalloc.start()
        try:
            with pytest.raises((ValidationError, InvalidUniverse), match=str(MAX_SAMPLES)):
                call(MAX_SAMPLES + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one row of MAX_SAMPLES doubles would be 8 MiB
        assert peak < (1 << 20)

    @pytest.mark.parametrize("call", [
        lambda var, n: Regulator(RuleBase(reference_regulator().input_var, var, (Rule(0, 0),)),
                                 output_resolution=n),
        lambda var, n: emit_mf_plot_data(var, n),
        lambda var, n: parse_config(serialize_config(Regulator(RuleBase(
            reference_regulator().input_var, var, (Rule(0, 0),)), output_resolution=3)).replace(
            "output_resolution: 3", f"output_resolution: {n}")),
    ], ids=["output_resolution", "plot", "config_output_resolution"])
    def test_cells_past_the_cap_are_rejected_before_allocating(self, call):
        # 17 terms at MAX_SAMPLES each pass the count rule, but not MAX_CELLS
        var = LinguisticVariable("y", Universe(0, 17, 11), tuple(
            LinguisticTerm(f"t{i}", Triangular(i, i + 0.5, i + 1)) for i in range(17)))
        call(var, 3)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=(
                    rf"^(output_resolution|plot samples) {MAX_SAMPLES} x 17 terms "
                    rf"exceeds MAX_CELLS \({MAX_CELLS}\)")):
                call(var, MAX_SAMPLES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 17 rows of MAX_SAMPLES doubles would be 136 MiB
        assert peak < (1 << 20)
        assert 16 * MAX_SAMPLES <= MAX_CELLS < 17 * MAX_SAMPLES

    def test_every_error_is_a_fuzzy_error(self):
        for call in (
            lambda: reference_regulator().sweep(math.inf),
            lambda: Rule(math.nan, 0),
            lambda: Universe(0, 1, math.nan),
            lambda: Regulator(reference_regulator().rulebase, output_resolution=math.inf),
            lambda: emit_mf_plot_data(reference_regulator().input_var, math.inf),
        ):
            with pytest.raises(FuzzyError):
                call()


class TestExtremeMagnitudes:
    def test_cog_of_a_ramp_over_a_huge_universe(self):
        # grades rise linearly over [0, 1e307]: the centroid sits at
        # (2n - 1) / (3 (n - 1)) of the span, about 6.7e306, with no overflow
        n = 101
        y = defuzz_cog(FuzzySet(Universe(0, 1e307, n), np.linspace(0, 1, n)))
        assert y == pytest.approx(1e307 * ((2 * n - 1) / (3 * (n - 1))), rel=1e-14)

    def test_cog_near_the_largest_floats(self):
        u = Universe(1.7e308, 1.79e308, 3)
        assert defuzz_cog(FuzzySet(u, [0.0, 1.0, 0.0])) == u.points[1]
        u = Universe(-1.79e308, -1.7e308, 3)
        assert defuzz_cog(FuzzySet(u, [1.0, 0.0, 1.0])) == pytest.approx(-1.745e308, rel=1e-15)

    def test_regulator_over_a_huge_output_universe(self):
        vin = LinguisticVariable(
            "in", Universe(0, 1, 11),
            (LinguisticTerm("lo", ZShoulder(0, 1)), LinguisticTerm("hi", SShoulder(0, 1))),
        )
        vout = LinguisticVariable(
            "out", Universe(0, 1e307, 101),
            (LinguisticTerm("a", Triangular(0, 0, 5e306)), LinguisticTerm("b", Triangular(5e306, 1e307, 1e307))),
        )
        reg = Regulator(RuleBase(vin, vout, (Rule(0, 0), Rule(1, 1))))
        xs = np.linspace(0, 1, 11)
        ys = reg.evaluate_many(xs)
        assert ys.tolist() == [reg.evaluate(x).output for x in xs]
        assert np.all(np.isfinite(ys)) and ys[0] < 2e306 and ys[-1] > 8e306

    def test_midpoint_near_the_largest_floats(self):
        assert Universe(-1.79e308, -1.7e308, 3).midpoint == pytest.approx(-1.745e308, rel=1e-15)
        assert Universe(1.7e308, 1.79e308, 3).midpoint == pytest.approx(1.745e308, rel=1e-15)

    def test_universe_span_overflow_is_named(self):
        with pytest.raises(InvalidUniverse, match="span .* overflows"):
            Universe(-1e308, 1e308, 11)

    @pytest.mark.parametrize("make", [
        lambda lo, hi: Triangular(lo, 0, hi),
        lambda lo, hi: Trapezoidal(lo, 0, 0, hi),
        lambda lo, hi: ZShoulder(lo, hi),
        lambda lo, hi: SShoulder(lo, hi),
    ])
    def test_shape_width_overflow_is_rejected(self, make):
        # the four linear shapes share one rule: ascending parameters, the
        # first below the last, a finite width; messages name the type
        shape = type(make(0.0, 1.0)).__name__.lower()
        with pytest.raises(ValidationError, match=f"^{shape} parameters must satisfy a <= b"):
            make(1.0, -1.0)
        with pytest.raises(ValidationError, match=f"^{shape} support must have positive width"):
            make(0.0, 0.0)
        with pytest.raises(ValidationError, match=f"^{shape} support width .* overflows"):
            make(-1e308, 1e308)

    def test_negative_zero_bounds_are_stored_as_zero(self):
        # center of gravity clamps to the bounds, with numpy in cog_rows and
        # with Python floats for one vector, which break a 0.0/-0.0 tie apart
        u = Universe(-3.5, -0.0, 5)
        v = Universe(-0.0, 1.0, 5)
        assert math.copysign(1.0, u.max) == math.copysign(1.0, v.min) == 1.0

    def test_negative_zero_parameters_keep_vertical_edges(self):
        # 0.0 to -0.0 is a zero-width edge; left of it the grade is zero
        mf = Triangular(0.0, -0.0, 1.0)
        assert mf(-1e-300) == 0.0 and mf.sample([-1e-300]).tolist() == [0.0]


class TestUserDefinedShapes:
    """A subclass that defines only ``__call__`` and ``support`` still works,
    and grades outside [0, 1] are rejected, not used."""

    class Step(MembershipFunction):
        def __init__(self, at, high=1.0):
            self.at, self.high = at, high

        def __call__(self, x):
            return self.high if x >= self.at else 0.0

        def support(self):
            return (self.at, math.inf)

    def test_default_sample_grades_each_point(self):
        mf = self.Step(0.5)
        u = Universe(0, 1, 5)
        assert discretize(mf, u).grades.tolist() == [0, 0, 1, 1, 1]
        assert mf.sample(u.points).tolist() == [mf(x) for x in u.points.tolist()]

    def _regulator_with_step(self):
        ref = reference_regulator()
        out = ref.output_var
        vout = LinguisticVariable(out.name, out.universe,
                                  out.terms[:-1] + (LinguisticTerm("STEP", self.Step(0.9)),))
        return Regulator(RuleBase(ref.input_var, vout, ref.rulebase.rules))

    def test_regulator_compiles_a_user_defined_consequent(self):
        reg = self._regulator_with_step()
        assert reg.consequent_sets[-1] == discretize(self.Step(0.9), reg.output_universe)
        assert reg.evaluate_many([0.0, 50.0]).tolist() == [
            reg.evaluate(0.0).output, reg.evaluate(50.0).output]

    class Stamped(Step):
        """A step whose own ``sample`` grades every point ``high``."""

        def sample(self, xs):
            return np.full(np.shape(xs), self.high)

    # shapes whose grade from 0.5 up is not a number in [0, 1], and the
    # error each must raise in every path: the library grades a shape that
    # is not a built-in one through its __call__, never its own sample
    OUT_OF_RANGE, NOT_A_NUMBER = r"grades must lie in \[0, 1\]", "grade must be a number"
    bad_grades = pytest.mark.parametrize("cls, high, error", [
        (Step, 1.5, OUT_OF_RANGE), (Step, -0.5, OUT_OF_RANGE), (Step, math.nan, OUT_OF_RANGE),
        (Stamped, 1.5, OUT_OF_RANGE), (Step, "0.5", NOT_A_NUMBER), (Step, True, NOT_A_NUMBER),
        (Step, None, NOT_A_NUMBER), (Step, 1j, NOT_A_NUMBER),
    ], ids=["1.5", "-0.5", "nan", "own_sample_1.5", "str", "bool", "none", "complex"])

    @bad_grades
    def test_grades_outside_the_unit_interval_are_rejected(self, cls, high, error):
        with pytest.raises(ValidationError, match=error):
            discretize(cls(0.5, high), Universe(0, 1, 5))
        ref = reference_regulator()
        out = ref.output_var
        vout = LinguisticVariable(out.name, out.universe,
                                  (LinguisticTerm("BAD", cls(0.5, high)),) + out.terms[1:])
        with pytest.raises(ValidationError, match=error):
            Regulator(RuleBase(ref.input_var, vout, ref.rulebase.rules))

    @bad_grades
    def test_input_grades_outside_the_unit_interval_are_rejected(self, cls, high, error):
        ref = reference_regulator()
        vin = ref.input_var
        vin = LinguisticVariable(vin.name, vin.universe,
                                 (LinguisticTerm("BAD", cls(0.0, high)),) + vin.terms[1:])
        reg = Regulator(RuleBase(vin, ref.output_var, ref.rulebase.rules))
        for call in (lambda: singleton_fuzzify(50.0, vin), lambda: reg.evaluate(50.0),
                     lambda: reg.evaluate_many([50.0]), lambda: emit_mf_plot_data(vin, 5)):
            with pytest.raises(ValidationError, match=error):
                call()

    @pytest.mark.parametrize("x0, high", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), ("x", 1.0), (True, 1.0),
        (10**400, 1.0), (50.0, 1.5),
    ], ids=["nan", "inf", "-inf", "str", "bool", "huge_int", "grade_1.5"])
    def test_evaluate_and_singleton_fuzzify_fail_alike(self, x0, high):
        # both grade a crisp input by one rule, so they reject it in one way
        ref = reference_regulator()
        vin = ref.input_var
        vin = LinguisticVariable(vin.name, vin.universe,
                                 (LinguisticTerm("STEP", self.Step(0.0, high)),) + vin.terms[1:])
        reg = Regulator(RuleBase(vin, ref.output_var, ref.rulebase.rules))
        errors = []
        for call in (lambda: reg.evaluate(x0), lambda: singleton_fuzzify(x0, vin)):
            with pytest.raises(FuzzyError) as info:
                call()
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    def test_regulator_with_a_user_defined_shape_deep_copies(self):
        reg = self._regulator_with_step()
        twin = copy.deepcopy(reg)
        assert type(twin.output_var.terms[-1].mf) is self.Step
        assert twin.evaluate_many([0.0, 50.0]).tolist() == reg.evaluate_many([0.0, 50.0]).tolist()
        assert not twin._matrix.flags.writeable

    def test_a_subclass_of_a_built_in_shape_is_checked_too(self):
        # it may override __call__, so every path grades it through that
        class Overshoot(Triangular):
            def __call__(self, x):
                return 1.5

        ref = reference_regulator()
        vin = ref.input_var
        vin = LinguisticVariable(vin.name, vin.universe,
                                 (LinguisticTerm("BAD", Overshoot(0, 10, 20)),) + vin.terms[1:])
        reg = Regulator(RuleBase(vin, ref.output_var, ref.rulebase.rules))
        with pytest.raises(ValidationError, match=r"grades must lie in \[0, 1\]"):
            reg.evaluate(50.0)
        with pytest.raises(ValidationError, match=r"grades must lie in \[0, 1\]"):
            reg.evaluate_many([50.0])

    @pytest.mark.parametrize("ends", [("a", "b"), None, (5.0,), (math.nan, math.nan)],
                             ids=["strings", "none", "one_end", "nan"])
    def test_support_must_be_two_ordered_numbers(self, ends):
        class Odd(self.Step):
            def support(self):
                return ends

        universe = Universe(0, 1, 5)
        with pytest.raises(ValidationError, match="^term 'ODD' support must be two numbers"):
            LinguisticVariable("x", universe, (LinguisticTerm("ODD", Odd(0.5)),))

    def test_parameters_of_a_shape_that_is_not_a_dataclass_are_unknown(self):
        with pytest.raises(ValidationError, match="^Step is not a dataclass"):
            mf_parameters(self.Step(0.5))

    def test_serializing_a_user_defined_shape_names_the_term(self):
        with pytest.raises(ValidationError, match="term 'STEP': Step has no document type"):
            serialize_config(self._regulator_with_step())


class TestNumericInputs:
    """One rule for numbers from outside: a real number that is not a bool,
    numpy's integer and floating scalars included; each element of an
    array of inputs follows the same rule."""

    NOT_NUMBERS = ["5", True, np.True_, None, b"5", 1 + 2j, [5.0]]

    @pytest.mark.parametrize("x", NOT_NUMBERS)
    def test_evaluate_rejects_non_numbers(self, x):
        with pytest.raises(ValidationError, match="crisp input must be a number"):
            reference_regulator().evaluate(x)

    @pytest.mark.parametrize("x", NOT_NUMBERS)
    def test_singleton_fuzzify_rejects_non_numbers(self, x):
        with pytest.raises(ValidationError, match="crisp input must be a number"):
            singleton_fuzzify(x, reference_regulator().input_var)

    @pytest.mark.parametrize("xs", [["5"], [True, False], np.array([1 + 2j]),
                                    [None], [1.0, "2"], [1, [], 2], [[1.0], [2.0, 3.0]],
                                    [[[1.0]], 2.0], [True, 0.5], [0.5, np.True_],
                                    [np.zeros((2, 2)), np.zeros((2, 3))]])
    def test_evaluate_many_rejects_non_numeric_arrays(self, xs):
        with pytest.raises(ValidationError, match="^crisp input must be a number, got "):
            reference_regulator().evaluate_many(xs)

    @pytest.mark.parametrize("x", [37, np.int64(37), np.int8(37), np.uint16(37),
                                   np.float32(37.0), np.float64(37.0)])
    def test_evaluate_accepts_ints_and_numpy_scalars(self, x):
        ref = reference_regulator()
        trace = ref.evaluate(x)
        assert trace.input == 37.0 and type(trace.input) is float
        assert trace.output == ref.evaluate(37.0).output

    @pytest.mark.parametrize("xs", [[37, 80], np.array([37, 80], dtype=np.int32),
                                    np.array([37, 80], dtype=np.uint8),
                                    np.array([37, 80], dtype=np.float32), [Fraction(37), 80]])
    def test_evaluate_many_accepts_integer_and_float_arrays(self, xs):
        ref = reference_regulator()
        assert ref.evaluate_many(xs).tolist() == ref.evaluate_many([37.0, 80.0]).tolist()

    @pytest.mark.parametrize("x", NOT_NUMBERS + [math.nan, math.inf,
                                                 pytest.param(10**400, id="huge_int"),
                                                 Fraction(1, 2)])
    def test_evaluate_many_takes_each_input_as_evaluate_does(self, x):
        # an element of an array follows the rule of a single input exactly
        ref = reference_regulator()
        outcomes = []
        for call in (lambda: ref.evaluate(x).output, lambda: ref.evaluate_many([0.5, x])[1]):
            try:
                outcomes.append(call())
            except FuzzyError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_integers_too_large_for_a_double_are_not_finite(self):
        with pytest.raises(NonFiniteInput):
            reference_regulator().evaluate(10**400)
        with pytest.raises(NonFiniteInput):
            reference_regulator().evaluate(-(10**400))
        with pytest.raises(ValidationError, match="must be finite"):
            Triangular(0, 1, 10**400)

    def test_universe_bounds_follow_the_rule(self):
        assert Universe(np.float32(0.5), np.int64(2), 4) == Universe(0.5, 2.0, 4)
        for bad in ("0", True, None):
            with pytest.raises(ValidationError, match="universe min must be a number"):
                Universe(bad, 1.0, 4)

    def test_shape_parameters_accept_numpy_scalars(self):
        mf = Triangular(np.float32(0.5), np.int64(1), np.float64(2.0))
        assert mf == Triangular(0.5, 1.0, 2.0)
        assert all(type(v) is float for v in (mf.a, mf.b, mf.c))
        assert Gaussian(np.float16(1.0), np.float32(0.25)) == Gaussian(1.0, 0.25)

    @pytest.mark.parametrize("value", [True, np.False_, "1", None, 1 + 0j])
    def test_shape_parameters_reject_non_numbers(self, value):
        with pytest.raises(ValidationError, match="must be a number"):
            Triangular(value, 1.0, 2.0)


class TestCallerArrays:
    """Public constructors copy the caller's array: it stays writable, and
    writing to it does not change the object."""

    @pytest.mark.parametrize("make, stored", [
        (lambda a: FuzzySet(Universe(0, 1, 3), a), lambda obj: obj.grades),
        (lambda a: FuzzyRelation(a.reshape(1, 3)), lambda obj: obj.entries),
        (lambda a: EvalTrace(0.5, 0.5, a, FuzzySet(Universe(0, 1, 2), [0, 1]), 0.5),
         lambda obj: obj.activations),
    ], ids=["FuzzySet", "FuzzyRelation", "EvalTrace"])
    def test_caller_array_stays_writable(self, make, stored):
        a = np.array([0.1, 0.2, 0.3])
        obj = make(a)
        assert a.flags.writeable
        a[:] = 0.9
        assert stored(obj).ravel().tolist() == [0.1, 0.2, 0.3]
        with pytest.raises(ValueError):
            stored(obj)[0] = 0.5


class TestGradeRule:
    """The paper's API (cri, union, build_relation, infer) checks grades
    by the public constructors' rule: numbers in [0, 1], or a
    ValidationError, never a raw ValueError or a NaN result."""

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: cri([[0.5]], [7.0]), id="cri_activation_above_1"),
        pytest.param(lambda: cri([[0.5]], [math.nan]), id="cri_nan_activation"),
        pytest.param(lambda: cri([[0.5]], ["x"]), id="cri_string_activation"),
        pytest.param(lambda: cri([[0.5]], [10**400]), id="cri_huge_integer_activation"),
        pytest.param(lambda: cri([[0.5], [0.5, 0.2]], [1.0]), id="cri_ragged_relation"),
        pytest.param(lambda: cri([[1.5]], [1.0]), id="cri_relation_above_1"),
        pytest.param(lambda: union([2.0], [0.1]), id="union_above_1"),
        pytest.param(lambda: build_relation([0.5], [-0.1]), id="build_relation_below_0"),
        pytest.param(lambda: infer(reference_regulator().rulebase, [7.0, 0, 0, 0, 0],
                                   reference_regulator().consequent_sets),
                     id="infer_activation_above_1"),
        pytest.param(lambda: infer(reference_regulator().rulebase, [1, 0, 0, 0, 0],
                                   [np.zeros(101)] * 5),
                     id="infer_consequents_not_fuzzy_sets"),
        pytest.param(lambda: FuzzySet(Universe(0, 1, 2), ["a", "b"]), id="fuzzyset_strings"),
        pytest.param(lambda: FuzzySet(Universe(0, 1, 2), ["0.5", "1"]),
                     id="fuzzyset_numeric_strings"),
        pytest.param(lambda: FuzzyRelation([[0.5], [0.5, 0.2]]), id="fuzzyrelation_ragged"),
    ])
    def test_bad_grades_raise_validation_error(self, call):
        with pytest.raises(ValidationError):
            call()

    # what a caller might pass for grades or inputs: numbers of every kind
    # (NaN, infinities and an integer too large for a double among them),
    # strings, bools and None, in lists nested to any depth, ragged or not
    anything = st.recursive(
        st.one_of(st.floats(), st.integers(), st.just(10**400), st.booleans(),
                  st.text(max_size=3), st.none()),
        lambda children: st.lists(children, max_size=5),
        max_leaves=12,
    )
    CALLS = {
        "cri_relation": lambda v: cri(v, [1.0]),
        "cri_activation": lambda v: cri([[0.5]], v),
        "union": lambda v: union(v, v),
        "build_relation": lambda v: build_relation(v, v),
        "infer": lambda v, ref=reference_regulator(): infer(ref.rulebase, v, ref.consequent_sets),
        "FuzzySet": lambda v: FuzzySet(Universe(0, 1, 2), v),
        "FuzzyRelation": FuzzyRelation,
        "EvalTrace": lambda v: EvalTrace(0.5, 0.5, v, FuzzySet(Universe(0, 1, 2), [0, 1]), 0.5),
        "evaluate_many": reference_regulator().evaluate_many,
    }

    @settings(max_examples=500, deadline=None)
    @given(call=st.sampled_from(sorted(CALLS)), value=anything)
    def test_anything_gives_a_value_or_a_fuzzy_error(self, call, value):
        try:
            result = self.CALLS[call](value)
        except FuzzyError:
            return
        for name in ("grades", "entries", "activations"):
            result = getattr(result, name, result)
        assert not np.isnan(result).any()

    # objects of every class a public entry takes, each the wrong one for
    # most of the arguments below
    ref = reference_regulator()
    trace = ref.evaluate(30.0)
    OBJECTS = [ref, ref.rulebase, ref.input_var, ref.consequent_sets, ref.consequent_sets[0],
               ref.output_universe, Triangular(0, 1, 2), object(), "midpoint",
               ZeroMassPolicy.MIDPOINT, trace]
    OBJECT_CALLS = {
        "variable_universe": lambda v, t=ref.input_var.terms: LinguisticVariable("x", v, t),
        "variable_terms": lambda v, u=ref.output_universe: LinguisticVariable("x", u, v),
        "variable_term": lambda v, u=ref.output_universe: LinguisticVariable("x", u, (v,)),
        "RuleBase_input": lambda v, rb=ref.rulebase: RuleBase(v, rb.output_var, rb.rules),
        "RuleBase_output": lambda v, rb=ref.rulebase: RuleBase(rb.input_var, v, rb.rules),
        "RuleBase_rules": lambda v, rb=ref.rulebase: RuleBase(rb.input_var, rb.output_var, v),
        "RuleBase_rule": lambda v, rb=ref.rulebase: RuleBase(rb.input_var, rb.output_var, [v]),
        "serialize_config": serialize_config,
        "parse_config": parse_config,
        "load_config": load_config,
        "emit_sweep_data_pairs": emit_sweep_data,
        "format_value": format_value,
        "Triangular.sample": Triangular(0, 1, 2).sample,
        "Gaussian.sample": Gaussian(0, 1).sample,
        "FuzzySet": lambda v: FuzzySet(v, [0, 1]),
        "infer_rulebase": lambda v, ref=ref: infer(v, [1, 0, 0, 0, 0], ref.consequent_sets),
        "infer_consequents": lambda v, ref=ref: infer(ref.rulebase, [1, 0, 0, 0, 0], v),
        "defuzz_cog": defuzz_cog,
        "Regulator": Regulator,
        "emit_mf_plot_data": lambda v: emit_mf_plot_data(v, 3),
        "discretize_shape": lambda v: discretize(v, Universe(0, 1, 3)),
        "discretize_universe": lambda v: discretize(Triangular(0, 1, 2), v),
        "singleton_fuzzify": lambda v: singleton_fuzzify(0.5, v),
        "emit_sweep_data": lambda v: emit_sweep_data([(0.0, 1.0), v]),
        "LinguisticTerm_shape": lambda v: LinguisticTerm("x", v),
        "infer_consequent": lambda v, ref=ref: infer(
            ref.rulebase, [1, 0, 0, 0, 0], (v,) + ref.consequent_sets[1:]),
        "Regulator_zero_mass_policy": lambda v, rb=ref.rulebase: Regulator(
            rb, zero_mass_policy=v),
        "EvalTrace_input": lambda v, t=trace: dataclasses.replace(t, input=v),
        "EvalTrace_clamped_input": lambda v, t=trace: dataclasses.replace(t, clamped_input=v),
        "EvalTrace_aggregated": lambda v, t=trace: dataclasses.replace(t, aggregated=v),
        "EvalTrace_output": lambda v, t=trace: dataclasses.replace(t, output=v),
        "EvalTrace_zero_mass_fallback": lambda v, t=trace: dataclasses.replace(
            t, zero_mass_fallback=v),
    }

    @settings(max_examples=500, deadline=None)
    @given(call=st.sampled_from(sorted(OBJECT_CALLS)),
           value=st.one_of(anything, st.sampled_from(OBJECTS)))
    def test_any_object_argument_gives_a_value_or_a_fuzzy_error(self, call, value):
        try:
            self.OBJECT_CALLS[call](value)
        except FuzzyError:
            pass

    # every entry that takes a crisp number: what it raises for a number
    # that is not finite, and the field its message starts with
    NUMBER_CALLS = {
        "evaluate": (ref.evaluate, NonFiniteInput, "crisp input"),
        "evaluate_many": (lambda v, ref=ref: ref.evaluate_many([0.5, v]), NonFiniteInput,
                          "crisp input"),
        "singleton_fuzzify": (lambda v, var=ref.input_var: singleton_fuzzify(v, var),
                              NonFiniteInput, "crisp input"),
        "Universe.min": (lambda v: Universe(v, 1.0, 3), InvalidUniverse, "universe min"),
        "Universe.max": (lambda v: Universe(0.0, v, 3), InvalidUniverse, "universe max"),
        "Triangular.c": (lambda v: Triangular(0.0, 1.0, v), ValidationError, "Triangular.c"),
        "Trapezoidal.a": (lambda v: Trapezoidal(v, 1.0, 2.0, 3.0), ValidationError,
                          "Trapezoidal.a"),
        "Gaussian.sigma": (lambda v: Gaussian(0.0, v), ValidationError, "Gaussian.sigma"),
        "ZShoulder.b": (lambda v: ZShoulder(0.0, v), ValidationError, "ZShoulder.b"),
        "SShoulder.a": (lambda v: SShoulder(v, 1.0), ValidationError, "SShoulder.a"),
        "EvalTrace.input": (lambda v, t=trace: dataclasses.replace(t, input=v),
                            ValidationError, "trace input"),
        "EvalTrace.clamped_input": (lambda v, t=trace: dataclasses.replace(t, clamped_input=v),
                                    ValidationError, "trace clamped_input"),
        "EvalTrace.output": (lambda v, t=trace: dataclasses.replace(t, output=v),
                             ValidationError, "trace output"),
        "format_value": (format_value, ValidationError, "CSV value"),
        "emit_sweep_data": (lambda v: emit_sweep_data([(0.0, 1.0), (0.5, v)]), ValidationError,
                            "sweep pair 1"),
        "document_range": (lambda v: parse_reference("[0.0, 100.0]", [0.0, v]),
                           ValidationError, "input.range[1]"),
        "document_params": (lambda v: parse_reference("[0.0, 25.0]", [0.0, v]),
                            ValidationError, "input.terms[0].params[1]"),
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "huge_int"])
    @pytest.mark.parametrize("call", sorted(NUMBER_CALLS))
    def test_non_finite_number_names_its_field(self, call, value):
        run, error, field = self.NUMBER_CALLS[call]
        with pytest.raises(error, match=f"^{re.escape(field)} "):
            run(value)

    @pytest.mark.parametrize("call, message", [
        (lambda: LinguisticTerm("x", Universe(0, 1, 2)),
         "term 'x' shape must be MembershipFunction, got Universe"),
        (lambda ref=ref: infer(ref.rulebase, [1, 0, 0, 0, 0],
                               ref.consequent_sets[:4] + (np.zeros(101),)),
         "infer consequent set must be FuzzySet, got ndarray"),
        (lambda rb=ref.rulebase: Regulator(rb, zero_mass_policy="midpoint"),
         "regulator zero-mass policy must be ZeroMassPolicy, got str"),
        (lambda t=trace: dataclasses.replace(t, input="a"),
         "trace input must be a number, got 'a'"),
        (lambda t=trace: dataclasses.replace(t, clamped_input=None),
         "trace clamped_input must be a number, got None"),
        (lambda t=trace: dataclasses.replace(t, output=True),
         "trace output must be a number, got True"),
        (lambda t=trace: dataclasses.replace(t, aggregated=t.aggregated.grades),
         "trace aggregated set must be FuzzySet, got ndarray"),
        (lambda t=trace: dataclasses.replace(t, zero_mass_fallback=0),
         "trace zero_mass_fallback must be bool, got int"),
        (lambda t=trace: dataclasses.replace(t, zero_mass_fallback=np.float64(0.0)),
         "trace zero_mass_fallback must be bool, got float64"),
    ], ids=["term_shape", "infer_consequent", "zero_mass_policy", "trace_input",
            "trace_clamped_input", "trace_output", "trace_aggregated",
            "trace_zero_mass_fallback", "trace_zero_mass_fallback_numpy"])
    def test_object_of_the_wrong_class_is_named(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    def test_trace_of_plain_values_builds(self):
        fset = FuzzySet(Universe(0, 1, 2), [0, 1])
        trace = EvalTrace(np.float32(0.5), 1, [0.5], fset, np.float64(0.75))
        assert (trace.input, trace.clamped_input, trace.output) == (0.5, 1.0, 0.75)
        assert all(type(v) is float for v in (trace.input, trace.clamped_input, trace.output))
        assert trace.zero_mass_fallback is False
        for flag in (np.True_, np.False_):
            assert dataclasses.replace(trace, zero_mass_fallback=flag).zero_mass_fallback is bool(flag)

    def test_trace_activations_follow_the_grade_vector_rule(self):
        fset = FuzzySet(Universe(0, 1, 2), [0, 1])
        with pytest.raises(DimensionMismatch, match=r"^expected a grade vector, got shape \(1, 1\)$"):
            EvalTrace(0.5, 0.5, [[0.5]], fset, 0.5)
        with pytest.raises(ValidationError, match=r"^activations must lie in \[0, 1\]$"):
            EvalTrace(0.5, 0.5, [1.5], fset, 0.5)

    @pytest.mark.parametrize("pairs, index", [
        ([(1.0,)], 0), ([(0.0, 1.0), (1.0, "a")], 1), ([(0.0, 1.0), (2.0, 3.0), None], 2),
        ([(0.0, 1.0, 2.0)], 0), ([(0.0, 10**400)], 0),
        ([(True, 1.0)], 0), ([(np.True_, 1.0)], 0), ([(Decimal("1.5"), 2.0)], 0),
        ([(1.0, math.inf)], 0), ([(math.nan, 1.0)], 0),
    ])
    def test_sweep_pair_that_is_not_two_numbers_is_named(self, pairs, index):
        with pytest.raises(ValidationError, match=f"^sweep pair {index} must be two numbers"):
            emit_sweep_data(pairs)
