"""The assembled regulator: pipeline, trace, sweeps and the reference config."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzreg import (
    EvalTrace,
    FuzzySet,
    LinguisticTerm,
    LinguisticVariable,
    NonFiniteInput,
    Regulator,
    Rule,
    RuleBase,
    Triangular,
    Universe,
    ValidationError,
    ZeroMass,
    ZeroMassPolicy,
    defuzz_cog,
    discretize,
    infer,
    reference_regulator,
)
from oracles import cog_oracle


@pytest.fixture(scope="module")
def ref():
    return reference_regulator()


def gap_regulator(policy=ZeroMassPolicy.ERROR):
    """Input terms leave [25, 75] uncovered, so mid-range inputs fire nothing."""
    vin = LinguisticVariable(
        "in",
        Universe(0, 100, 11),
        (
            LinguisticTerm("low", Triangular(0, 0, 25)),
            LinguisticTerm("high", Triangular(75, 100, 100)),
        ),
    )
    vout = LinguisticVariable(
        "out",
        Universe(0, 1, 11),
        (
            LinguisticTerm("small", Triangular(0, 0.25, 0.5)),
            LinguisticTerm("big", Triangular(0.5, 0.75, 1)),
        ),
    )
    rb = RuleBase(vin, vout, (Rule(0, 1), Rule(1, 0)))
    return Regulator(rb, zero_mass_policy=policy)


class TestReferenceStructure:
    def test_rule_map(self, ref):
        in_names = ref.input_var.term_names
        out_names = ref.output_var.term_names
        mapping = {
            in_names[r.antecedent]: out_names[r.consequent] for r in ref.rulebase.rules
        }
        assert mapping == {
            "TFJ": "CVB",
            "TJ": "CB",
            "TM": "CM",
            "TI": "CS",
            "TFI": "CVS",
        }

    def test_rule_count(self, ref):
        assert len(ref.rulebase.rules) == 5

    def test_term_inventory(self, ref):
        assert ref.input_var.term_names == ("TFJ", "TJ", "TM", "TI", "TFI")
        assert ref.output_var.term_names == ("CVS", "CS", "CM", "CB", "CVB")

    def test_universes(self, ref):
        assert ref.input_var.universe == Universe(0, 100, 101)
        assert ref.output_var.universe == Universe(0, 1, 101)
        assert ref.output_resolution == 101


class TestEvaluate:
    def test_peak_input_recovers_consequent_centroid(self, ref):
        # at x=50 only TM fires, with grade 1, so the command is exactly
        # the centroid of the CM consequent set
        cm = ref.consequent_sets[2]
        assert ref.evaluate(50.0).output == defuzz_cog(cm)

    def test_cold_end_gives_biggest_command(self, ref):
        cvb = ref.consequent_sets[4]
        trace = ref.evaluate(0.0)
        assert trace.output == defuzz_cog(cvb)
        assert trace.output == pytest.approx(0.92, abs=1e-12)

    def test_hot_end_gives_smallest_command(self, ref):
        trace = ref.evaluate(100.0)
        assert trace.output == pytest.approx(0.08, abs=1e-12)

    def test_low_reading_blends_two_rules(self, ref):
        # frozen from a longhand run of the whole pipeline
        assert ref.evaluate(0.7).output == pytest.approx(0.9049882972498537, rel=1e-12)

    def test_pipeline_matches_longhand_oracle(self, ref):
        for x0 in (0.7, 13.0, 42.0, 61.5, 88.0):
            acts = [t.mf(x0) for t in ref.input_var.terms]
            agg = np.zeros(101)
            for rule in ref.rulebase.rules:
                cons = ref.consequent_sets[rule.consequent].grades
                agg = np.maximum(agg, np.minimum(acts[rule.antecedent], cons))
            expected = cog_oracle(ref.output_universe.points, agg)
            assert ref.evaluate(x0).output == pytest.approx(expected, rel=1e-12)

    def test_half_activations_blend_two_clipped_consequents(self, ref):
        # TFJ and TJ both at 0.5: the fuzzy command is the elementwise max
        # of the CVB and CB consequent sets, each clipped at 0.5
        out = infer(ref.rulebase, [0.5, 0.5, 0.0, 0.0, 0.0], ref.consequent_sets)
        cvb = ref.consequent_sets[4].grades
        cb = ref.consequent_sets[3].grades
        expected = np.maximum(np.minimum(0.5, cvb), np.minimum(0.5, cb))
        assert out.grades.tolist() == expected.tolist()

    def test_trace_records_every_stage(self, ref):
        trace = ref.evaluate(0.7)
        assert trace.input == 0.7
        assert trace.clamped_input == 0.7
        assert trace.activations.tolist() == pytest.approx(
            [0.972, 0.028, 0.0, 0.0, 0.0], abs=1e-15
        )
        assert trace.aggregated.universe == ref.output_universe
        assert trace.zero_mass_fallback is False

    def test_trace_consistency_bit_for_bit(self, ref):
        for x0 in (0.0, 0.7, 33.0, 75.0, 99.0):
            trace = ref.evaluate(x0)
            assert defuzz_cog(trace.aggregated) == trace.output

    @pytest.mark.parametrize("reg, x0", [
        (reference_regulator(), -5.0), (reference_regulator(), 0.7),
        (reference_regulator(), 61.5), (reference_regulator(), 250.0),
        (gap_regulator(ZeroMassPolicy.MIDPOINT), 50.0),
    ])
    def test_trace_is_read_only_and_equals_a_public_trace(self, reg, x0):
        trace = reg.evaluate(x0)
        for arr in (trace.activations, trace.aggregated.grades):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        public = EvalTrace(
            input=trace.input,
            clamped_input=trace.clamped_input,
            activations=trace.activations.tolist(),
            aggregated=FuzzySet(trace.aggregated.universe, trace.aggregated.grades.tolist()),
            output=trace.output,
            zero_mass_fallback=trace.zero_mass_fallback,
        )
        assert trace.activations.dtype == public.activations.dtype
        assert trace.activations.tolist() == public.activations.tolist()
        assert trace.aggregated == public.aggregated
        for name in ("input", "clamped_input", "output", "zero_mass_fallback"):
            assert getattr(trace, name) == getattr(public, name)
        assert type(trace.output) is float and type(trace.zero_mass_fallback) is bool

    @pytest.mark.parametrize("activations", [[0.5, 7.0], [-0.1, 0.5], [math.nan, 0.5]])
    def test_public_trace_rejects_activations_outside_unit_interval(self, activations):
        aggregated = FuzzySet(Universe(0, 1, 2), [0.0, 1.0])
        with pytest.raises(ValidationError, match="activations must lie in"):
            EvalTrace(1.0, 1.0, np.array(activations), aggregated, 1.0)

    def test_out_of_range_input_clamps(self, ref):
        assert ref.evaluate(-5.0).output == ref.evaluate(0.0).output
        assert ref.evaluate(-5.0).clamped_input == 0.0
        assert ref.evaluate(250.0).output == ref.evaluate(100.0).output

    def test_non_finite_input_rejected(self, ref):
        with pytest.raises(NonFiniteInput):
            ref.evaluate(math.nan)
        with pytest.raises(NonFiniteInput):
            ref.evaluate(-math.inf)

    @given(x0=st.floats(allow_nan=False, allow_infinity=False))
    def test_output_always_inside_output_universe(self, x0):
        trace = reference_regulator().evaluate(x0)
        assert 0.0 <= trace.output <= 1.0
        assert math.isfinite(trace.output)


class TestZeroMass:
    def test_error_policy_raises(self):
        reg = gap_regulator(ZeroMassPolicy.ERROR)
        with pytest.raises(ZeroMass):
            reg.evaluate(50.0)

    def test_midpoint_policy_flags_fallback(self):
        reg = gap_regulator(ZeroMassPolicy.MIDPOINT)
        trace = reg.evaluate(50.0)
        assert trace.output == 0.5
        assert trace.zero_mass_fallback is True
        assert not trace.aggregated.grades.any()

    def test_covered_inputs_unaffected_by_policy(self):
        out_err = gap_regulator(ZeroMassPolicy.ERROR).evaluate(10.0)
        out_mid = gap_regulator(ZeroMassPolicy.MIDPOINT).evaluate(10.0)
        assert out_err.output == out_mid.output
        assert out_mid.zero_mass_fallback is False

    def test_sweep_error_names_the_input(self):
        reg = gap_regulator(ZeroMassPolicy.ERROR)
        with pytest.raises(ZeroMass, match="50"):
            reg.sweep(3)

    def test_sweep_midpoint_fills_the_gap(self):
        reg = gap_regulator(ZeroMassPolicy.MIDPOINT)
        pairs = reg.sweep(3)
        assert pairs[1] == (50.0, 0.5)

    def test_error_says_no_rule_fired(self):
        reg = gap_regulator(ZeroMassPolicy.ERROR)
        with pytest.raises(ZeroMass, match="no rule fired"):
            reg.evaluate(50.0)
        with pytest.raises(ZeroMass, match="at input 50.0: .*no rule fired"):
            reg.evaluate_many([10.0, 50.0])

    def test_error_says_a_rule_fired_onto_a_consequent_between_samples(self):
        # the consequent lies between the samples 0.3 and 0.4, so its
        # compiled row is all zero although its rule fires
        vin = LinguisticVariable(
            "in", Universe(0, 1, 11), (LinguisticTerm("up", Triangular(0, 1, 1)),)
        )
        vout = LinguisticVariable(
            "out", Universe(0, 1, 11), (LinguisticTerm("thin", Triangular(0.31, 0.33, 0.35)),)
        )
        reg = Regulator(RuleBase(vin, vout, (Rule(0, 0),)))
        for call in (lambda: reg.evaluate(0.9), lambda: reg.evaluate_many([0.9])):
            with pytest.raises(ZeroMass, match="zero at every output sample") as info:
                call()
            assert "no rule fired" not in str(info.value)


class TestSweep:
    def test_two_steps_hit_the_endpoints(self, ref):
        pairs = ref.sweep(2)
        assert [x for x, _ in pairs] == [0.0, 100.0]

    def test_length_and_order(self, ref):
        pairs = ref.sweep(11)
        assert len(pairs) == 11
        xs = [x for x, _ in pairs]
        assert xs == sorted(xs)

    def test_agrees_with_fresh_evaluate(self, ref):
        for x, y in ref.sweep(7):
            assert ref.evaluate(x).output == y

    def test_reference_curve_non_increasing(self, ref):
        ys = [y for _, y in ref.sweep(101)]
        assert all(y2 <= y1 + 1e-9 for y1, y2 in zip(ys, ys[1:]))

    def test_too_few_steps_rejected(self, ref):
        with pytest.raises(ValidationError):
            ref.sweep(1)


class TestRegulatorConstruction:
    def test_output_resolution_defaults_to_output_samples(self, ref):
        reg = Regulator(ref.rulebase)
        assert reg.output_resolution == 101
        assert reg.output_universe.n == 101

    def test_custom_output_resolution_resamples_consequents(self, ref):
        reg = Regulator(ref.rulebase, output_resolution=51)
        assert reg.output_universe.n == 51
        assert all(len(c) == 51 for c in reg.consequent_sets)
        assert reg.evaluate(50.0).aggregated.universe.n == 51

    def test_resolution_below_two_rejected(self, ref):
        with pytest.raises(ValidationError):
            Regulator(ref.rulebase, output_resolution=1)

    def test_consequents_cached_in_term_order(self, ref):
        for term, cached in zip(ref.output_var.terms, ref.consequent_sets):
            assert cached == discretize(term.mf, ref.output_universe)

    def test_equality_and_replace(self, ref):
        assert reference_regulator() == ref
        relaxed = dataclasses.replace(ref, zero_mass_policy=ZeroMassPolicy.MIDPOINT)
        assert relaxed != ref
        assert relaxed.rulebase == ref.rulebase
