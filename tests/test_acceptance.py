"""Acceptance gate: every shipped guarantee, checked against independent
oracles at its stated tolerance. Each criterion prints one pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import functools
import time

import numpy as np
import pytest

from fuzzreg import (
    FuzzySet,
    LinguisticTerm,
    LinguisticVariable,
    Rule,
    RuleBase,
    Triangular,
    Universe,
    ValidationError,
    build_relation,
    cri,
    defuzz_cog,
    infer,
    load_config,
    parse_config,
    reference_config_path,
    reference_regulator,
    serialize_config,
    union,
)
from fuzzreg.cli import cli_main
from oracles import cog_oracle, max_min_oracle

RNG_SEED = 20260808


def criterion(num, text):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] FAIL: {text}")
                raise
            elapsed = time.perf_counter() - start
            print(f"\n[criterion {num}] PASS: {text} ({elapsed:.3f}s)")

        return wrapper

    return decorate


# ---------------------------------------------------------------- oracles --

def oracle_relation(a, b):
    return [[min(ai, bj) for bj in b] for ai in a]


# -------------------------------------------------------------- criteria --

@criterion(1, "worked relation example and its max-min composition")
def test_c1_worked_example():
    ap = [1.0, 0.5, 0.1, 0.0, 0.0]
    b = [0.0, 0.0, 0.1, 0.5, 1.0]
    printed = [
        [0.0, 0.0, 0.1, 0.5, 1.0],
        [0.0, 0.0, 0.1, 0.5, 0.5],
        [0.0, 0.0, 0.1, 0.1, 0.1],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ]
    r = build_relation(ap, b)
    assert np.round(r.entries, 1).tolist() == printed
    assert r.entries.tolist() == oracle_relation(ap, b)
    # index 3 works out to 0.5 = max(min(1,.5), min(.5,.5), min(.1,.1)),
    # a value easily mis-copied as 0.1 from the neighbouring column;
    # the composition is pinned to the longhand oracle
    composed = cri(r, ap)
    assert composed.tolist() == [0.0, 0.0, 0.1, 0.5, 1.0]
    assert composed.tolist() == max_min_oracle(printed, ap)


@criterion(2, "composition recovers the consequent for 1000 normal antecedents")
def test_c2_recovery():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(1000):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(2, 10))
        a = rng.uniform(0, 1, m)
        a[rng.integers(0, m)] = 1.0
        b = rng.uniform(0, 1, n)
        out = cri(build_relation(a, b), a)
        assert np.max(np.abs(out - b)) <= 1e-12


@criterion(3, "clipping shortcut equals the explicit relation path, 500 instances")
def test_c3_clip_vs_relation():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(500):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(2, 8))
        uin = Universe(0.0, 10.0, m)
        uout = Universe(0.0, 1.0, n)
        vin = LinguisticVariable(
            "in", uin, (LinguisticTerm("t", Triangular(0.0, 5.0, 10.0)),)
        )
        vout = LinguisticVariable(
            "out", uout, (LinguisticTerm("u", Triangular(0.0, 0.5, 1.0)),)
        )
        rulebase = RuleBase(vin, vout, (Rule(0, 0),))
        a = rng.uniform(0, 1, m)
        b = rng.uniform(0, 1, n)
        i0 = int(rng.integers(0, m))

        clipped = infer(rulebase, [a[i0]], (FuzzySet(uout, b),)).grades
        one_hot = np.zeros(m)
        one_hot[i0] = 1.0
        relation_path = cri(build_relation(a, b), one_hot)
        assert np.max(np.abs(clipped - relation_path)) <= 1e-12
        assert np.max(np.abs(clipped - max_min_oracle(oracle_relation(a, b), one_hot))) <= 1e-12


@criterion(4, "center of gravity matches the exact oracle and its algebra")
def test_c4_defuzz():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(1000):
        n = int(rng.integers(2, 200))
        lo = float(rng.uniform(-100, 100))
        span = float(rng.uniform(0.5, 200))
        u = Universe(lo, lo + span, n)
        g = rng.uniform(0, 1, n)
        g[rng.integers(0, n)] = max(g[rng.integers(0, n)], 0.5)
        fs = FuzzySet(u, g)

        y = defuzz_cog(fs)
        ref = cog_oracle(u.points, g)
        assert abs(y - ref) <= 1e-12 * max(1.0, abs(ref))
        # bounded
        assert u.min <= y <= u.max
        # scale invariant, 1e-12 relative
        c = float(rng.uniform(1e-3, 1.0))
        y_scaled = defuzz_cog(FuzzySet(u, g * c))
        assert abs(y_scaled - y) <= 1e-12 * max(1.0, abs(y))
        # translation equivariant, within float rounding of the shift
        d = float(rng.uniform(-50, 50))
        shifted = FuzzySet(Universe(lo + d, lo + span + d, n), g)
        scale = max(1.0, abs(d), abs(u.min), abs(u.max))
        assert abs(defuzz_cog(shifted) - (y + d)) <= 1e-11 * scale
        # symmetric grades land on the midpoint, 1e-12 of the span
        sym = 0.5 * (g + g[::-1])
        y_sym = defuzz_cog(FuzzySet(u, sym))
        assert abs(y_sym - u.midpoint) <= 1e-12 * span


@criterion(5, "each reference input peak recovers its consequent centroid")
def test_c5_peak_recovery():
    reg = reference_regulator()
    peaks = {"TFJ": 0.0, "TJ": 25.0, "TM": 50.0, "TI": 75.0, "TFI": 100.0}
    for rule in reg.rulebase.rules:
        term = reg.input_var.terms[rule.antecedent]
        cons = reg.consequent_sets[rule.consequent]
        expected = cog_oracle(cons.universe.points, cons.grades)
        assert reg.evaluate(peaks[term.name]).output == pytest.approx(
            expected, abs=1e-9
        )


@criterion(6, "reference response curve falls from the CVB to the CVS centroid")
def test_c6_response_curve():
    reg = reference_regulator()
    pairs = reg.sweep(101)
    ys = [y for _, y in pairs]
    assert all(y2 <= y1 + 1e-9 for y1, y2 in zip(ys, ys[1:]))
    cvb = reg.consequent_sets[4]
    cvs = reg.consequent_sets[0]
    assert ys[0] == pytest.approx(cog_oracle(cvb.universe.points, cvb.grades), abs=1e-9)
    assert ys[-1] == pytest.approx(cog_oracle(cvs.universe.points, cvs.grades), abs=1e-9)


@criterion(7, "config round-trip plus the declared validation diagnostics")
def test_c7_config_contract(tmp_path):
    # shipped file, built-in regulator and serialized form all agree
    reg = reference_regulator()
    assert load_config(reference_config_path()) == reg
    assert parse_config(serialize_config(reg)) == reg
    assert cli_main(["check", "--config", str(reference_config_path())]) == 0

    base = reference_config_path().read_text(encoding="utf-8")

    with pytest.raises(ValidationError, match="XX"):
        parse_config(base.replace("{if: TFJ, then: CVB}", "{if: XX, then: CVB}"))
    bad_rule = tmp_path / "bad_rule.yaml"
    bad_rule.write_text(base.replace("{if: TFJ, then: CVB}", "{if: XX, then: CVB}"))
    assert cli_main(["check", "--config", str(bad_rule)]) == 1

    broken = base.replace("params: [25.0, 50.0, 75.0]", "params: [5.0, 2.0, 9.0]")
    with pytest.raises(ValidationError, match="a <= b <= c"):
        parse_config(broken)
    bad_params = tmp_path / "bad_params.yaml"
    bad_params.write_text(broken)
    assert cli_main(["check", "--config", str(bad_params)]) == 1


@criterion(8, "union is a lattice join over 1000 random vectors")
def test_c8_union_lattice():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        a = rng.uniform(0, 1, n)
        b = rng.uniform(0, 1, n)
        c = rng.uniform(0, 1, n)
        zero = np.zeros(n)
        assert union(a, b).tolist() == union(b, a).tolist()
        assert union(union(a, b), c).tolist() == union(a, union(b, c)).tolist()
        assert union(a, a).tolist() == a.tolist()
        assert union(a, zero).tolist() == a.tolist()
