"""The compiled kernel: array forms of the shapes, evaluate_many and sweep
against per-point evaluate, chunking, and sharing a regulator across threads.

Every comparison here is exact (``==``), not approximate: the scalar, batch
and sweep paths are meant to agree bit for bit. The sign of a zero grade is
the one thing ``==`` does not see, and nothing downstream depends on it.
"""

import contextlib
import math
import sys
import threading
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
    defuzz_cog,
    discretize,
    reference_regulator,
)
from fuzzreg import regulator as regulator_module

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
        rows = regulator_module.CHUNK_ELEMENTS // reg.output_resolution
        xs = np.linspace(-10, 110, 3 * rows + 7)
        assert reg.evaluate_many(xs).tolist() == per_point(reg, xs)

    def test_crosses_chunk_boundaries_at_65537_samples(self):
        reg = Regulator(reference_regulator().rulebase, output_resolution=65537)
        assert regulator_module.CHUNK_ELEMENTS // 65537 == 0  # one input per chunk
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
    saved = regulator_module.CHUNK_ELEMENTS
    regulator_module.CHUNK_ELEMENTS = budget
    try:
        yield
    finally:
        regulator_module.CHUNK_ELEMENTS = saved


class TestCompiledConsequents:
    @given(reg=regulators(resolution=st.integers(2, 3000)))
    @settings(max_examples=60, deadline=None)
    def test_consequent_sets_equal_discretize(self, reg):
        for term, cached in zip(reg.output_var.terms, reg.consequent_sets):
            assert cached == discretize(term.mf, reg.output_universe)

    def test_consequent_sets_are_read_only(self):
        cached = reference_regulator().consequent_sets[0]
        with pytest.raises(ValueError):
            cached.grades[0] = 0.5


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
