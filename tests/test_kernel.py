"""The compiled kernel: array forms of the shapes, evaluate_many and sweep
against per-point evaluate, chunking, evaluate's clip of the fired terms,
peak scratch memory, and sharing a regulator across threads.

Every comparison here is exact (``==``), not approximate: the scalar, batch
and sweep paths are meant to agree bit for bit. The sign of a zero grade is
the one thing ``==`` does not see, and nothing downstream depends on it.
"""

import contextlib
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuzzreg import (
    DimensionMismatch,
    Gaussian,
    LinguisticTerm,
    LinguisticVariable,
    NonFiniteInput,
    Regulator,
    Rule,
    RuleBase,
    SShoulder,
    Trapezoidal,
    Triangular,
    Universe,
    ZeroMass,
    ZeroMassPolicy,
    ZShoulder,
    ValidationError,
    defuzz_cog,
    discretize,
    emit_mf_plot_data,
    infer,
    reference_regulator,
    singleton_fuzzify,
)
from fuzzreg import membership as membership_module
from fuzzreg.membership import _SHAPE_CLASSES, MAX_SAMPLES
from fuzzreg.plotdata import _csv
from test_robustness import TestUserDefinedShapes as UserDefinedShapes

magnitudes = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
)


@st.composite
def shapes(draw, values=magnitudes):
    """Every family, with vertical edges and plateaus drawn on purpose.
    Widths that overflow are rejected at construction and not drawn."""
    kind = draw(st.sampled_from(["tri", "tri_left", "tri_right", "trap", "trap_edges",
                                 "gauss", "z", "s"]))
    if kind == "gauss":
        return Gaussian(draw(values), draw(st.floats(1e-3, 1e3)))
    if kind in ("z", "s"):
        a, b = sorted(draw(st.tuples(values, values)))
        assume(a < b and math.isfinite(b - a))
        return (ZShoulder if kind == "z" else SShoulder)(a, b)
    if kind.startswith("tri"):
        a, b, c = sorted(draw(st.tuples(values, values, values)))
        if kind == "tri_left":
            b = a
        elif kind == "tri_right":
            b = c
        assume(a < c and math.isfinite(c - a))
        return Triangular(a, b, c)
    a, b, c, d = sorted(draw(st.tuples(values, values, values, values)))
    if kind == "trap_edges":
        b, c = a, d
    assume(a < d and math.isfinite(d - a))
    return Trapezoidal(a, b, c, d)


def probe_points(mf, extra):
    """The shape's own parameters, their neighbours, and ``extra``."""
    params = [v for v in vars(mf).values() if isinstance(v, float)]
    near = [math.nextafter(p, s) for p in params for s in (-math.inf, math.inf)]
    xs = np.array(params + near + list(extra), dtype=float)
    return xs[np.isfinite(xs)]


class Halved(Triangular):
    """A triangle at half height that overrides only ``__call__``: the
    array paths must grade it by that, not by its corners."""

    def __call__(self, x):
        return 0.5 * super().__call__(x)


class TestArrayForms:
    @given(mf=shapes(), extra=st.lists(magnitudes, max_size=20))
    @settings(max_examples=400)
    def test_sample_equals_pointwise_call(self, mf, extra):
        xs = probe_points(mf, extra)
        assert mf.sample(xs).tolist() == [mf(float(x)) for x in xs]

    @given(mf=shapes(values=st.floats(-1e3, 1e3, allow_nan=False)), n=st.integers(2, 400))
    def test_sample_over_a_grid_equals_pointwise_call(self, mf, n):
        xs = np.linspace(-1.5e3, 1.5e3, n)
        assert mf.sample(xs).tolist() == [mf(float(x)) for x in xs]

    @given(mf=shapes(), extra=st.lists(magnitudes, max_size=20))
    def test_sample_grades_lie_in_unit_interval(self, mf, extra):
        g = mf.sample(probe_points(mf, extra))
        assert np.all((g >= 0.0) & (g <= 1.0))

    def test_vertical_edges(self):
        assert Triangular(0, 0, 1).sample([-1, 0, 0.5, 1]).tolist() == [0, 1, 0.5, 0]
        assert Triangular(0, 1, 1).sample([0, 0.5, 1, 2]).tolist() == [0, 0.5, 1, 0]
        assert Trapezoidal(0, 0, 1, 1).sample([-1, 0, 0.5, 1, 2]).tolist() == [0, 1, 1, 1, 0]

    def test_shoulders_saturate_on_their_open_side(self):
        assert ZShoulder(0, 1).sample([-1e308, 0, 0.25, 1, 1e308]).tolist() == [1, 1, 0.75, 0, 0]
        assert SShoulder(0, 1).sample([-1e308, 0, 0.25, 1, 1e308]).tolist() == [0, 0, 0.25, 1, 1]

    def test_gaussian_matches_numpy_exp_not_math_exp(self):
        # the scalar form must round as the array form does
        mf = Gaussian(0.3, 0.7)
        xs = np.linspace(-5, 5, 2001)
        assert mf.sample(xs).tolist() == [mf(float(x)) for x in xs]

    # the five built-in shapes, a subclass that overrides only __call__,
    # and a user-defined one
    EVERY_KIND = [Triangular(0, 1, 2), Trapezoidal(0, 1, 2, 3), Gaussian(1, 1), ZShoulder(0, 1),
                  SShoulder(0, 1), Halved(0, 1, 2), UserDefinedShapes.Step(1.0, 1.0)]

    @pytest.mark.parametrize("mf", EVERY_KIND, ids=lambda mf: type(mf).__name__)
    def test_sample_keeps_the_shape_of_its_points(self, mf):
        for x in (0.5, 1, np.float32(1.5)):
            grade = mf.sample(x)
            assert grade.shape == () and grade.tolist() == mf(float(x))
        xs = np.array([[0.0, 0.5], [1.5, 2.5]])
        assert mf.sample(xs).tolist() == [[mf(x) for x in row] for row in xs.tolist()]

    @pytest.mark.parametrize("mf", EVERY_KIND, ids=lambda mf: type(mf).__name__)
    @pytest.mark.parametrize("xs", [None, ["a"], [True], "1.0", [[1.0], [1.0, 2.0]], [10**400]])
    def test_sample_points_must_be_numbers(self, mf, xs):
        with pytest.raises(ValidationError, match="^sample point must be (a number|finite)"):
            mf.sample(xs)


class TestSupports:
    """Every grade just beyond a finite end of ``support()`` is 0, in the
    scalar and the array form, which is what the outside-the-universe
    check of a linguistic variable relies on."""

    gaussians = st.builds(Gaussian, magnitudes, st.floats(5e-324, sys.float_info.max))

    @given(mf=shapes() | gaussians)
    @settings(max_examples=400)
    def test_no_grade_beyond_the_support(self, mf):
        for end, away in zip(mf.support(), (-math.inf, math.inf)):
            if math.isfinite(end):
                x = math.nextafter(end, away)
                assert mf(x) == 0.0
                if math.isinf(x):  # not a sample point: sample takes finite numbers only
                    with pytest.raises(ValidationError, match="^sample point must be finite"):
                        mf.sample([x])
                else:
                    assert mf.sample([x]).tolist() == [0.0]


@st.composite
def regulators(draw, resolution=st.integers(2, 300)):
    """Small random controllers: mixed shapes, possibly coverage gaps,
    possibly several rules concluding the same output term."""
    lo = draw(st.floats(-1e3, 1e3, allow_nan=False))
    span = draw(st.floats(1.0, 1e3, allow_nan=False))
    in_u = Universe(lo, lo + span, draw(st.integers(2, 50)))
    out_u = Universe(0.0, draw(st.floats(0.5, 100.0)), draw(st.integers(2, 50)))

    def terms(u, k):
        near = st.floats(u.min - 0.2 * u.span, u.max + 0.2 * u.span, allow_nan=False)
        out = []
        for i in range(k):
            mf = draw(shapes(values=near))
            lo_, hi_ = mf.support()
            assume(hi_ >= u.min and lo_ <= u.max)
            out.append(LinguisticTerm(f"t{i}", mf))
        return tuple(out)

    vin = LinguisticVariable("in", in_u, terms(in_u, draw(st.integers(1, 6))))
    vout = LinguisticVariable("out", out_u, terms(out_u, draw(st.integers(1, 5))))
    antecedents = draw(st.lists(st.integers(0, len(vin.terms) - 1), min_size=1, unique=True))
    rules = tuple(Rule(a, draw(st.integers(0, len(vout.terms) - 1))) for a in antecedents)
    policy = draw(st.sampled_from(list(ZeroMassPolicy)))
    return Regulator(RuleBase(vin, vout, rules), output_resolution=draw(resolution),
                     zero_mass_policy=policy)


def per_point(reg, xs):
    """Outputs of evaluate, one call per input; None where it raises ZeroMass."""
    out = []
    for x in xs:
        try:
            out.append(reg.evaluate(float(x)).output)
        except ZeroMass:
            out.append(None)
    return out


def inputs_for(reg, data, max_size=60):
    u = reg.input_var.universe
    wide = st.floats(u.min - u.span, u.max + u.span, allow_nan=False)
    return np.array(data.draw(st.lists(wide, min_size=1, max_size=max_size)))


class TestEvaluateMany:
    @given(reg=regulators(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_evaluate_bit_for_bit(self, reg, data):
        xs = inputs_for(reg, data)
        want = per_point(reg, xs)
        if None in want:
            with pytest.raises(ZeroMass):
                reg.evaluate_many(xs)
        else:
            assert reg.evaluate_many(xs).tolist() == want

    @given(reg=regulators(), steps=st.integers(2, 80))
    @settings(max_examples=100, deadline=None)
    def test_sweep_equals_evaluate_bit_for_bit(self, reg, steps):
        u = reg.input_var.universe
        xs = np.linspace(u.min, u.max, steps)
        want = per_point(reg, xs)
        if None in want:
            with pytest.raises(ZeroMass):
                reg.sweep(steps)
        else:
            assert reg.sweep(steps) == list(zip(xs.tolist(), want))

    @given(reg=regulators(), data=st.data(), budget=st.integers(1, 700))
    @settings(max_examples=100, deadline=None)
    def test_any_chunk_size_gives_the_same_outputs(self, reg, data, budget):
        xs = inputs_for(reg, data, max_size=200)
        try:
            want = reg.evaluate_many(xs).tolist()
        except ZeroMass:
            assume(False)
        with chunk_budget(budget):
            assert reg.evaluate_many(xs).tolist() == want
            # evaluate does not chunk, so the budget must not matter
            assert per_point(reg, xs) == want

    def test_crosses_chunk_boundaries_at_small_resolution(self):
        reg = reference_regulator()
        rows = membership_module.CHUNK_ELEMENTS // reg.output_resolution
        xs = np.linspace(-10, 110, 3 * rows + 7)
        assert reg.evaluate_many(xs).tolist() == per_point(reg, xs)

    def test_crosses_chunk_boundaries_at_65537_samples(self):
        reg = Regulator(reference_regulator().rulebase, output_resolution=65537)
        assert membership_module.CHUNK_ELEMENTS // 65537 == 0  # one input per chunk
        xs = np.array([-3.0, 0.0, 12.5, 25.0, 37.2, 50.0, 63.0, 88.8, 100.0, 140.0])
        assert reg.evaluate_many(xs).tolist() == per_point(reg, xs)
        assert reg.sweep(9) == [(x, y) for x, y in zip(np.linspace(0, 100, 9).tolist(),
                                                        per_point(reg, np.linspace(0, 100, 9)))]

    def test_out_of_range_inputs_clamp(self):
        reg = reference_regulator()
        got = reg.evaluate_many([-1e300, -5.0, 0.0, 100.0, 250.0, 1e300]).tolist()
        assert got[0] == got[1] == got[2] == reg.evaluate(0.0).output
        assert got[3] == got[4] == got[5] == reg.evaluate(100.0).output

    def test_zero_mass_midpoint_fallback(self):
        reg = gap_regulator(ZeroMassPolicy.MIDPOINT)
        xs = np.linspace(0, 100, 21)
        got = reg.evaluate_many(xs).tolist()
        assert got == per_point(reg, xs)
        assert got[10] == 0.5 and reg.evaluate(50.0).zero_mass_fallback

    def test_zero_mass_error_names_the_first_empty_input(self):
        reg = gap_regulator(ZeroMassPolicy.ERROR)
        with pytest.raises(ZeroMass, match=r"at input 30\.0:"):
            reg.evaluate_many([10.0, 30.0, 40.0, 90.0])
        with pytest.raises(ZeroMass, match=r"at input 50\.0:"):
            reg.sweep(3)

    def test_rejects_non_finite_and_non_vector_inputs(self):
        reg = reference_regulator()
        with pytest.raises(NonFiniteInput, match="nan"):
            reg.evaluate_many([1.0, math.nan])
        with pytest.raises(NonFiniteInput, match="inf"):
            reg.evaluate_many([-math.inf])
        with pytest.raises(DimensionMismatch):
            reg.evaluate_many([[1.0, 2.0]])

    def test_empty_input_gives_empty_output(self):
        assert reference_regulator().evaluate_many([]).shape == (0,)

    def test_trace_output_reproduced_by_defuzz_cog(self):
        for res in (11, 101, 65537):
            reg = Regulator(reference_regulator().rulebase, output_resolution=res)
            for x in (0.0, 0.7, 33.0, 61.5, 100.0):
                trace = reg.evaluate(x)
                assert defuzz_cog(trace.aggregated) == trace.output


def gap_regulator(policy):
    vin = LinguisticVariable(
        "in", Universe(0, 100, 11),
        (LinguisticTerm("low", Triangular(0, 0, 25)), LinguisticTerm("high", Triangular(75, 100, 100))),
    )
    vout = LinguisticVariable(
        "out", Universe(0, 1, 11),
        (LinguisticTerm("small", Triangular(0, 0.25, 0.5)), LinguisticTerm("big", Triangular(0.5, 0.75, 1))),
    )
    return Regulator(RuleBase(vin, vout, (Rule(0, 1), Rule(1, 0))), zero_mass_policy=policy)


@contextlib.contextmanager
def chunk_budget(budget):
    """Run with another chunk budget, so that small inputs cross many chunks."""
    saved = membership_module.CHUNK_ELEMENTS
    membership_module.CHUNK_ELEMENTS = budget
    try:
        yield
    finally:
        membership_module.CHUNK_ELEMENTS = saved


class Squared(Triangular):
    """A triangle with squared grades whose class overrides ``sample`` too:
    the library grades it through ``__call__`` alone, never that override."""

    def __call__(self, x):
        g = super().__call__(x)
        return g * g

    def sample(self, xs):
        g = super().sample(xs)
        return g * g


class Plain(Triangular):
    """A subclass that overrides nothing: graded through ``__call__`` too."""


def graded(mf, xs):
    """``mf``'s grades at ``xs`` as the library takes them: a built-in
    shape's ``sample``, any other shape's ``__call__`` per point."""
    if type(mf) in _SHAPE_CLASSES:
        return mf.sample(xs)
    return np.array([mf(x) for x in xs.tolist()])


@st.composite
def input_shapes(draw):
    """Every family and three kinds of subclass, on [0, 10]: vertical edges,
    shoulders with their infinite corners, gaussians with tiny and large
    sigma, ``Squared``, ``Halved``, ``Plain`` and the user-defined ``Step``."""
    values = st.one_of(st.floats(-5, 15, allow_nan=False), st.sampled_from([0.0, 5.0, 10.0]))
    kind = draw(st.sampled_from(["tri", "tri_left", "tri_right", "trap", "trap_edges", "z", "s",
                                 "gauss", "squared", "halved", "plain", "step"]))
    if kind == "gauss":
        sigma = draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([5e-324, 1e-300, 1e300])))
        return Gaussian(draw(st.floats(-5, 15)), sigma)
    if kind == "step":
        return UserDefinedShapes.Step(draw(values), draw(st.sampled_from([1.0, 0.5])))
    if kind in ("z", "s"):
        a, b = sorted(draw(st.tuples(values, values)))
        assume(a < b)
        return (ZShoulder if kind == "z" else SShoulder)(a, b)
    if kind == "trap" or kind == "trap_edges":
        a, b, c, d = sorted(draw(st.tuples(values, values, values, values)))
        if kind == "trap_edges":
            b, c = a, d
        assume(a < d)
        return Trapezoidal(a, b, c, d)
    a, b, c = sorted(draw(st.tuples(values, values, values)))
    b = {"tri_left": a, "tri_right": c}.get(kind, b)
    assume(a < c)
    return {"squared": Squared, "halved": Halved, "plain": Plain}.get(kind, Triangular)(a, b, c)


def mixed_input_regulator(mfs):
    vin = LinguisticVariable("in", Universe(0, 10, 11),
                             tuple(LinguisticTerm(f"t{i}", mf) for i, mf in enumerate(mfs)))
    vout = LinguisticVariable("out", Universe(0, 1, 21), (
        LinguisticTerm("low", Triangular(0, 0.25, 0.5)),
        LinguisticTerm("high", Trapezoidal(0.4, 0.6, 0.8, 1)),
    ))
    rules = tuple(Rule(i, i % 2) for i in range(len(mfs)))
    return Regulator(RuleBase(vin, vout, rules), output_resolution=101,
                     zero_mass_policy=ZeroMassPolicy.MIDPOINT)


class TestStackedInputs:
    """``evaluate_many`` grades its inputs with one call per shape family;
    the block must equal each term's grades (``graded``) row for row."""

    @given(mfs=st.lists(input_shapes(), min_size=1, max_size=12), data=st.data(),
           budget=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_activations_equal_per_term_sampling(self, mfs, data, budget):
        for mf in mfs:
            lo, hi = mf.support()
            assume(hi >= 0.0 and lo <= 10.0)
        reg = mixed_input_regulator(mfs)
        corners = [v for mf in mfs for v in vars(mf).values() if isinstance(v, float)]
        near = [math.nextafter(p, s) for p in corners for s in (-math.inf, math.inf)]
        drawn = data.draw(st.lists(st.floats(-20, 30), max_size=30))
        xs = np.array(corners + near + drawn)
        want = np.array([graded(mf, xs) for mf in mfs])
        assert np.array_equal(reg.input_var._grade(xs), want)
        with chunk_budget(budget):  # blocks of a few points
            assert np.array_equal(reg.input_var._grade(xs), want)
        assert reg.evaluate_many(xs).tolist() == [reg.evaluate(x).output for x in xs.tolist()]

    @given(mfs=st.lists(input_shapes(), min_size=1, max_size=12), samples=st.integers(2, 300),
           budget=st.sampled_from([1, 7, 64, membership_module.CHUNK_ELEMENTS]))
    @settings(max_examples=100, deadline=None)
    def test_plot_columns_equal_per_term_sampling(self, mfs, samples, budget):
        for mf in mfs:
            lo, hi = mf.support()
            assume(hi >= 0.0 and lo <= 10.0)
        var = mixed_input_regulator(mfs).input_var
        xs = np.linspace(0, 10, samples)
        want = _csv(["x"] + list(var.term_names),
                    [np.column_stack([xs] + [graded(mf, xs) for mf in mfs]).tolist()])
        with chunk_budget(budget):
            assert emit_mf_plot_data(var, samples) == want

    def test_no_library_path_calls_a_user_defined_sample(self):
        calls = []

        class Recorded(Triangular):
            def sample(self, xs):
                calls.append(len(xs))
                return super().sample(xs)

        recorded = Recorded(3, 6, 10)
        reg = mixed_input_regulator([Triangular(0, 2, 5), recorded, Gaussian(5, 1)])
        xs = np.linspace(0, 10, 7)
        assert reg.input_var._grade(xs)[1].tolist() == [recorded(x) for x in xs.tolist()]
        reg.evaluate(5.0)
        reg.evaluate_many(xs)
        emit_mf_plot_data(reg.input_var, 7)
        vout = LinguisticVariable("out", Universe(0, 10, 11), (LinguisticTerm("r", recorded),))
        Regulator(RuleBase(reg.input_var, vout, (Rule(1, 0),)))
        discretize(recorded, Universe(0, 10, 11))
        assert calls == []
        squared = mixed_input_regulator([Squared(0, 5, 10)])
        assert squared.input_var._grade(np.linspace(0, 10, 5)).tolist() == [[0, 0.25, 1, 0.25, 0]]


class TestCompiledConsequents:
    @given(reg=regulators(resolution=st.integers(2, 3000)),
           budget=st.sampled_from([1, 5, 97, 700, membership_module.CHUNK_ELEMENTS]))
    @settings(max_examples=60, deadline=None)
    def test_consequent_sets_equal_discretize(self, reg, budget):
        # compiled again under the budget, so that small ones cross many
        # blocks of output samples
        with chunk_budget(budget):
            reg = Regulator(reg.rulebase, reg.output_resolution, reg.zero_mass_policy)
        for term, cached in zip(reg.output_var.terms, reg.consequent_sets):
            assert cached == discretize(term.mf, reg.output_universe)

    def test_compiling_needs_scratch_of_a_few_blocks(self):
        rulebase = reference_regulator().rulebase
        tracemalloc.start()
        try:
            reg = Regulator(rulebase, output_resolution=MAX_SAMPLES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        u = reg.output_universe
        kept = reg.consequent_sets[0].grades.base.nbytes + u.points.nbytes + u.offsets.nbytes
        # sampling one whole row of 2^20 points at a time needs 16 MiB
        # beyond what is kept: two ramp temporaries of 8 MiB each
        assert peak - kept < (4 << 20)

    def test_consequent_sets_are_read_only(self):
        cached = reference_regulator().consequent_sets[0]
        with pytest.raises(ValueError):
            cached.grades[0] = 0.5


def rule_regulator(in_mfs, out_count, consequents):
    """Input shapes on [0, 100], ``out_count`` triangles on [0, 1], the
    rule ``i -> consequents[i]`` for each input term, and the midpoint
    where no rule fires."""
    vin = LinguisticVariable("in", Universe(0, 100, 101),
                             tuple(LinguisticTerm(f"i{k}", mf) for k, mf in enumerate(in_mfs)))
    peaks = np.linspace(0, 1, out_count).tolist() if out_count > 1 else [0.5]
    vout = LinguisticVariable("out", Universe(0, 1, 101), tuple(
        LinguisticTerm(f"o{k}", Triangular(max(0.0, p - 0.3), p, min(1.0, p + 0.3)))
        for k, p in enumerate(peaks)
    ))
    rules = tuple(Rule(i, c) for i, c in enumerate(consequents))
    return Regulator(RuleBase(vin, vout, rules), zero_mass_policy=ZeroMassPolicy.MIDPOINT)


def per_rule_strengths(reg, activations):
    """Each output term's strength, one maximum per rule of the rule base."""
    strengths = np.zeros((len(reg.output_var.terms), activations.shape[1]))
    for rule in reg.rulebase.rules:
        np.maximum(strengths[rule.consequent], activations[rule.antecedent],
                   out=strengths[rule.consequent])
    return strengths


# (regulator, input, how many output terms fire there)
FIRING = {
    "none": (lambda: gap_regulator(ZeroMassPolicy.MIDPOINT), 50.0, 0),
    "one": (lambda: gap_regulator(ZeroMassPolicy.MIDPOINT), 10.0, 1),
    "one_term_of_two_rules": (lambda: rule_regulator(
        [Triangular(0, 0, 50), Triangular(0, 50, 100), Triangular(50, 100, 100)], 2, [0, 0, 1]),
        25.0, 1),
    "two": (reference_regulator, 37.3, 2),
    "three": (lambda: rule_regulator(
        [Triangular(0, 25, 75), Triangular(0, 50, 100), Triangular(25, 75, 100)], 3, [0, 1, 2]),
        50.0, 3),
    "gaussian": (lambda: rule_regulator(
        [Gaussian(c, 8.0) for c in np.linspace(0, 100, 7).tolist()], 7, range(7)), 37.3, 7),
}


class TestFiredTerms:
    """``evaluate`` clips only the terms that fire, one by one, however many
    do; the aggregate equals one dense clip of every term, bit for bit."""

    @pytest.mark.parametrize("case", list(FIRING))
    def test_aggregate_equals_the_dense_clip(self, case):
        make, x, fired = FIRING[case]
        reg = make()
        trace = reg.evaluate(x)
        strengths = per_rule_strengths(reg, trace.activations[:, None])[:, 0]
        assert np.count_nonzero(strengths) == fired
        dense = np.minimum(strengths[:, None], reg._matrix).max(axis=0)
        assert np.array_equal(trace.aggregated.grades, dense)
        assert trace.aggregated.grades.base is None  # owns its samples, not a view
        if fired:
            assert defuzz_cog(trace.aggregated) == trace.output
        else:
            assert trace.zero_mass_fallback and trace.output == reg.output_universe.midpoint
        xs = np.linspace(-10, 110, 121)
        assert reg.evaluate_many(xs).tolist() == [reg.evaluate(x).output for x in xs.tolist()]


class TestScratchMemory:
    """Peak memory, as ``tracemalloc`` sees it, of paths whose scratch was
    once several times what they return."""

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_evaluate_clips_only_the_fired_terms(self):
        reg = Regulator(reference_regulator().rulebase, output_resolution=65537)
        for x in (0.0, 12.0, 37.3, 100.0):
            reg.evaluate(x)
            # the aggregate and one row of scratch, 512 KiB each; the dense
            # clip of all five terms needed 3 MiB
            _, peak = self.peak(lambda: reg.evaluate(x))
            assert peak < 1.5 * (1 << 20)

    def test_plot_data_is_formatted_a_block_at_a_time(self):
        var = reference_regulator().input_var
        csv, peak = self.peak(lambda: emit_mf_plot_data(var, 1 << 18))
        # the whole table as Python floats and row strings took 13 times
        # the size of the CSV
        assert peak < 3 * len(csv)

    def test_universe_checks_its_grid_in_place(self):
        u, peak = self.peak(lambda: Universe(0, 1, MAX_SAMPLES))
        # points and offsets are kept, 8 MiB each; the check took 16 MiB more
        assert u.points.nbytes + u.offsets.nbytes == 16 << 20
        assert peak <= 24 << 20


class TestPaperPath:
    @given(reg=regulators(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_evaluate_aggregates_as_infer_does(self, reg, data):
        """The scalar and batch paths share the compiled rule pairs, so
        comparing them does not check the compilation; the paper's path
        does, clipping one consequent per rule of the rule base."""
        for x in inputs_for(reg, data, max_size=20).tolist():
            want = infer(reg.rulebase, singleton_fuzzify(x, reg.input_var), reg.consequent_sets)
            try:
                got = reg.evaluate(x).aggregated
            except ZeroMass:
                assert not want.grades.any()
            else:
                assert got == want


class TestSharedAcrossThreads:
    def test_threads_get_the_serial_results(self):
        ref = reference_regulator()
        regs = [ref, Regulator(ref.rulebase, output_resolution=65537)]
        xs = np.linspace(-5, 105, 300)

        def run(reg):
            return (reg.evaluate_many(xs).tolist(), reg.sweep(41),
                    [reg.evaluate(x).output for x in xs[::7]])

        serial = [run(reg) for reg in regs]
        start = threading.Barrier(8, timeout=60)

        def work(i):
            start.wait()
            return [run(regs[i % 2]) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-kernel
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, i) for i in range(8)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, runs in enumerate(results):
            assert all(r == serial[i % 2] for r in runs)
