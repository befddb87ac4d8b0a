"""Failures are FuzzyErrors with a useful message, and center of gravity
stays exact at extreme magnitudes."""

import math

import numpy as np
import pytest

from fuzzreg import (
    FuzzyError,
    FuzzySet,
    InvalidUniverse,
    LinguisticTerm,
    LinguisticVariable,
    MembershipFunction,
    Regulator,
    Rule,
    RuleBase,
    SShoulder,
    Trapezoidal,
    Triangular,
    Universe,
    ValidationError,
    ZShoulder,
    defuzz_cog,
    discretize,
    emit_mf_plot_data,
    reference_regulator,
)

NOT_COUNTS = [math.inf, -math.inf, math.nan, 2.5, True, "7", None]


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
        lambda: Triangular(-1e308, 0, 1e308),
        lambda: Trapezoidal(-1e308, 0, 0, 1e308),
        lambda: ZShoulder(-1e308, 1e308),
        lambda: SShoulder(-1e308, 1e308),
    ])
    def test_shape_width_overflow_is_rejected(self, make):
        with pytest.raises(ValidationError, match="overflows"):
            make()

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

    def test_regulator_compiles_a_user_defined_consequent(self):
        ref = reference_regulator()
        out = ref.output_var
        vout = LinguisticVariable(out.name, out.universe,
                                  out.terms[:-1] + (LinguisticTerm("STEP", self.Step(0.9)),))
        reg = Regulator(RuleBase(ref.input_var, vout, ref.rulebase.rules))
        assert reg.consequent_sets[-1] == discretize(self.Step(0.9), reg.output_universe)
        assert reg.evaluate_many([0.0, 50.0]).tolist() == [
            reg.evaluate(0.0).output, reg.evaluate(50.0).output]

    @pytest.mark.parametrize("high", [1.5, -0.5, math.nan])
    def test_grades_outside_the_unit_interval_are_rejected(self, high):
        with pytest.raises(ValidationError, match=r"grades must lie in \[0, 1\]"):
            discretize(self.Step(0.5, high), Universe(0, 1, 5))
        ref = reference_regulator()
        out = ref.output_var
        vout = LinguisticVariable(out.name, out.universe,
                                  (LinguisticTerm("BAD", self.Step(0.5, high)),) + out.terms[1:])
        with pytest.raises(ValidationError, match=r"grades must lie in \[0, 1\]"):
            Regulator(RuleBase(ref.input_var, vout, ref.rulebase.rules))

    @pytest.mark.parametrize("high", [1.5, math.nan])
    def test_input_grades_outside_the_unit_interval_are_rejected(self, high):
        ref = reference_regulator()
        vin = ref.input_var
        vin = LinguisticVariable(vin.name, vin.universe,
                                 (LinguisticTerm("BAD", self.Step(0.0, high)),) + vin.terms[1:])
        reg = Regulator(RuleBase(vin, ref.output_var, ref.rulebase.rules))
        with pytest.raises(ValidationError, match=r"grades must lie in \[0, 1\]"):
            reg.evaluate(50.0)
        with pytest.raises(ValidationError, match=r"grades must lie in \[0, 1\]"):
            reg.evaluate_many([50.0])
