"""The three benchmark workloads.

Each workload is a closed loop with a single caller in one thread, because
fuzzreg is a library that a control loop calls synchronously: the next
operation starts when the previous one returns, so there is no queue.

A workload generates its inputs and the reference answers from the seed
before anything is timed, builds the program state in ``setup``, hands the
runner one callable per operation, and checks every result in ``record``
and ``finish``, outside the timed region. A result that disagrees with the
reference, an unexpected exception, or an invalid document rejected with the
wrong error class counts as a failed operation.

Program stages are always looked up through their modules (``config``,
``plotdata``, regulator methods) at call time, so the traced run's wrappers
see them.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import subprocess
import sys
import time

import numpy as np
import yaml

import generate
import oracle
import timing

from fuzzreg import config, errors, plotdata
from fuzzreg.defuzz import defuzz_cog


@dataclasses.dataclass(frozen=True)
class Sizes:
    signal_length: int = 65536
    sweep_resolutions: tuple[int, int] = generate.SWEEP_RESOLUTIONS
    sweep_steps: int = generate.SWEEP_STEPS
    import_spawns: int = 9
    setup_reps: int = 9
    cli_spawns: int = 9


FULL = Sizes()
# for the benchmark's own tests: every code path, in a fraction of a second
TINY = Sizes(signal_length=512, sweep_resolutions=(101, 257), sweep_steps=5,
             import_spawns=1, setup_reps=1, cli_spawns=1)

# one evaluate call in this many keeps its trace for the bit-for-bit check
BIT_SAMPLE_EVERY = 200


# Reference probes (see timing.py). Nominal times are from the reference
# machine at normal speed, rounded.
def _pipeline_probe() -> timing.Probes:
    """Work shaped like one evaluate call at 101 samples, 40 times."""
    return timing.Probes(timing.Probe(samples=101, rules=5, points=40, nominal_ns=680_000))


def _sweep_probe() -> timing.Probes:
    """Work shaped like swept points at each resolution: part 0 for
    ``SWEEP_RESOLUTIONS[0]``, part 1 for ``SWEEP_RESOLUTIONS[1]``."""
    return timing.Probes(timing.Probe(samples=2001, rules=9, points=10, nominal_ns=360_000),
                         timing.Probe(samples=65537, rules=11, points=1, nominal_ns=740_000))


class Workload:
    name = ""
    op = "operation"
    item = "operation"
    items_per_op = 1
    # per input, which part of the workload's probe scales its time
    probe_part: tuple[int, ...] = (0,)
    # capacity of the preallocated timing buffer; a run stops when it is full
    max_ops = 1 << 16

    def __init__(self, probe):
        self.inputs: list = []
        self.checked = 0
        self.failed = 0
        self.probe = probe

    def setup(self):
        """Program-side set-up before the first timed operation."""
        return None

    def make_call(self, state):
        raise NotImplementedError

    def record(self, i: int, result) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once after the loop."""

    @property
    def cycle(self) -> int:
        """Operations in one pass over the distinct inputs."""
        return len(self.inputs)

    def epilogue(self, env: dict) -> list[str]:
        """Untimed-loop extras that run after the loop; returns report lines."""
        return []

    def report(self, loop: timing.Loop) -> list[str]:
        """Workload-specific report lines, from the untraced loop."""
        return []

    def _count(self, ok: bool) -> None:
        self.checked += 1
        self.failed += not ok


def _tree_of(reg) -> dict:
    """The document tree a regulator stands for, read from its public
    attributes; compared with the generated tree to prove a round trip."""

    def var(v):
        return {
            "name": v.name,
            "range": [v.universe.min, v.universe.max],
            "samples": v.universe.n,
            "terms": [
                {"name": t.name, "type": type(t.mf).__name__.lower(),
                 "params": [float(getattr(t.mf, f.name)) for f in dataclasses.fields(t.mf)]}
                for t in v.terms
            ],
        }

    rb = reg.rulebase
    in_names, out_names = rb.input_var.term_names, rb.output_var.term_names
    return {
        "input": var(rb.input_var),
        "output": var(rb.output_var),
        "rules": [{"if": in_names[r.antecedent], "then": out_names[r.consequent]} for r in rb.rules],
        "zero_mass": getattr(reg.zero_mass_policy, "value", reg.zero_mass_policy),
        "output_resolution": reg.output_resolution,
    }


def _normalized(tree: dict) -> dict:
    def var(v):
        return {
            "name": v["name"],
            "range": [float(x) for x in v["range"]],
            "samples": v["samples"],
            "terms": [dict(t, params=[float(p) for p in t["params"]]) for t in v["terms"]],
        }

    return {
        "input": var(tree["input"]),
        "output": var(tree["output"]),
        "rules": [dict(r) for r in tree["rules"]],
        "zero_mass": tree.get("zero_mass", "error"),
        "output_resolution": tree.get("output_resolution") or tree["output"]["samples"],
    }


class ControlLoop(Workload):
    """The reference regulator, one ``evaluate`` call per tick of a seeded
    random-walk temperature signal."""

    name = "control_loop"
    op = item = "evaluate call"
    # every tick costs the same, so any run of ticks is a full mix
    cycle = 1
    # about 4 to 6 times the calls of a 20 s run at this commit
    max_ops = 1 << 21

    def __init__(self, seed: int, sizes: Sizes = FULL):
        super().__init__(_pipeline_probe())
        self.inputs = generate.temperature_signal(seed, sizes.signal_length)
        self.path = config.reference_config_path()
        tree = yaml.safe_load(self.path.read_text(encoding="utf-8"))
        self.ref = oracle.Controller(tree)
        [(self.expected, _)] = oracle.outputs_in_child([(tree, self.inputs)])
        self.tol = oracle.OUTPUT_TOL * self.ref.out_span
        rng = random.Random(seed)
        self.sampled = [rng.randrange(BIT_SAMPLE_EVERY) == 0 for _ in self.inputs]
        self.kept: list[tuple[int, object]] = []
        self.bit_checks = 0

    def setup(self):
        return config.load_config(self.path)

    def make_call(self, reg):
        return reg.evaluate

    def record(self, i, result):
        j = i % len(self.inputs)
        want = self.expected[j]
        ok = (not isinstance(result, BaseException) and want is not None
              and abs(result.output - want) <= self.tol)
        self._count(ok)
        if ok and i == j and self.sampled[j]:
            self.kept.append((j, result))

    def finish(self):
        # deeper checks on a seeded sample of traces; their outputs passed
        for j, trace in self.kept:
            self.failed += not self._trace_ok(j, trace)
            self.bit_checks += 1
        self.kept.clear()

    def _trace_ok(self, j: int, trace) -> bool:
        x = self.inputs[j]
        acts = self.ref.activations([x])
        agg = self.ref.aggregated(acts)[0]
        return (
            trace.input == x
            and trace.clamped_input == min(max(x, self.ref.in_lo), self.ref.in_hi)
            and np.allclose(trace.activations, acts[0], rtol=0, atol=oracle.GRADE_TOL)
            and np.allclose(trace.aggregated.grades, agg, rtol=0, atol=oracle.GRADE_TOL)
            and not trace.zero_mass_fallback
            # the README promises that re-running COG reproduces the output exactly
            and defuzz_cog(trace.aggregated) == trace.output
        )

    def report(self, loop):
        outside = sum(1 for x in self.inputs if not 0.0 <= x <= 100.0) / len(self.inputs)
        d = loop.scaled()
        return [
            f"eval_p99_us = {np.percentile(d, 99) / 1e3:.3f} us (n={len(d)})",
            f"signal: {len(self.inputs)} ticks, {100 * outside:.2f}% outside [0, 100]",
            f"bit-for-bit defuzz_cog(trace.aggregated) == trace.output: "
            f"{self.bit_checks} sampled traces checked",
        ]


class SweepHires(Workload):
    """Generated controllers swept with ``Regulator.sweep``, cycling through
    the slots of ``generate.SWEEP_SLOTS`` in order."""

    name = "sweep_hires"
    op = "sweep call"
    item = "swept point"
    probe_part = tuple(res_index for res_index, *_ in generate.SWEEP_SLOTS)

    def __init__(self, seed: int, sizes: Sizes = FULL):
        super().__init__(_sweep_probe())
        self.steps = self.items_per_op = sizes.sweep_steps
        self.trees = generate.sweep_documents(seed, sizes.sweep_resolutions)
        self.texts = [generate.render(tree) for tree in self.trees]
        self.refs = [oracle.Controller(tree) for tree in self.trees]
        self.xs = [np.linspace(ref.in_lo, ref.in_hi, self.steps) for ref in self.refs]
        answers = oracle.outputs_in_child(list(zip(self.trees, self.xs)))
        self.expected = [outputs for outputs, _ in answers]
        self.gap_points = sum(rows for _, rows in answers)
        self.inputs = list(range(len(self.trees)))

    def setup(self):
        return [config.parse_config(text) for text in self.texts]

    def make_call(self, regs):
        steps = self.steps
        return lambda slot: regs[slot].sweep(steps)

    def record(self, i, result):
        self._count(self._sweep_ok(i % len(self.inputs), result))

    def _sweep_ok(self, slot: int, result) -> bool:
        ref, want = self.refs[slot], self.expected[slot]
        if isinstance(result, errors.ZeroMass):
            # correct only where the reference says no rule fires
            return not ref.midpoint_policy and None in want
        if isinstance(result, BaseException) or len(result) != self.steps:
            return False
        x_tol = oracle.OUTPUT_TOL * (ref.in_hi - ref.in_lo)
        return all(
            abs(x - xw) <= x_tol and ref.output_matches(y, yw)
            for (x, y), xw, yw in zip(result, self.xs[slot].tolist(), want)
        )

    def report(self, loop):
        d = loop.scaled()
        per_slot = timing.class_ns(loop, d, len(self.inputs))
        slot = np.arange(len(d)) % len(self.inputs)
        res = np.array([ref.resolution for ref in self.refs])
        lines = []
        for r in sorted(set(res.tolist())):
            keep = res == r
            n = np.count_nonzero(keep[slot])
            lines.append(f"sweep_points_per_s[resolution={r}] = {timing.rate(per_slot[keep], self.steps):.1f} "
                         f"1/s (n={n * self.steps} points in {n} sweeps)")
        lines.append(f"reference: {self.gap_points} of {len(self.refs) * self.steps} distinct swept points "
                     f"fall in coverage gaps (zero mass, midpoint fallback)")
        lines += self.kernel_counts()
        return lines

    def kernel_counts(self) -> list[str]:
        """Per-point work of infer and COG, computed from array sizes (not
        measured): S output samples, R rules, 8-byte doubles."""
        lines = []
        for slot, ref in enumerate(self.refs):
            s, r = ref.resolution, len(ref.rules)
            lines.append(
                f"kernel (computed) slot={slot} S={s} R={r} consequents={len(ref.out_terms)}: "
                f"infer reads {8 * r * s} B + writes {8 * s} B, {2 * r * s} min/max ops; "
                f"cog reads {16 * s} B, {3 * s} flops; consequent matrix "
                f"{8 * len(ref.out_terms) * s / 2**20:.2f} MiB"
            )
        return lines


class ConfigRoundtrip(Workload):
    """Generated documents through parse, serialize, parse again, then the
    CSV emitters; the invalid ones must be rejected with the right error
    class and the offending path. Then ``fuzzreg eval`` is spawned one
    process at a time to time its cold start."""

    name = "config_roundtrip"
    op = "document round trip"
    item = "document"

    def __init__(self, seed: int, sizes: Sizes = FULL):
        super().__init__(_pipeline_probe())
        self.docs = generate.roundtrip_documents(seed)
        self.inputs = list(range(len(self.docs)))
        self.want = [self._expected(doc) for doc in self.docs]
        self.verified: dict[int, tuple[str, str, str]] = {}
        # preallocated like the loop's own timing buffer; wraps around when full
        self.parse_ns = np.ones(self.max_ops, dtype=np.float32)
        self.parses = 0
        self.invalid_seen = 0
        self.invalid_ok = 0
        self.cli_inputs = generate.cli_inputs(seed, sizes.cli_spawns)
        self.cli_ms: list[float] = []

    @staticmethod
    def _expected(doc: dict):
        if "expect" in doc:
            return None
        tree = doc["tree"]
        ref = oracle.Controller(tree)
        columns = {}
        for key in ("input", "output"):
            var = tree[key]
            lo, hi = (float(v) for v in var["range"])
            xs = np.linspace(lo, hi, generate.PLOT_SAMPLES)
            columns[key] = (
                ["x"] + [t["name"] for t in var["terms"]],
                [xs] + [oracle.grades(t["type"], t["params"], xs) for t in var["terms"]],
                [hi - lo] + [1.0] * len(var["terms"]),
            )
        xs = np.linspace(ref.in_lo, ref.in_hi, generate.CSV_STEPS)
        ys = np.array(ref.outputs(xs), dtype=float)
        columns["sweep"] = (["input", "output"], [xs, ys], [ref.in_hi - ref.in_lo, ref.out_span])
        return _normalized(tree), columns

    def make_call(self, state):
        return self.roundtrip

    def roundtrip(self, j: int):
        clock = time.perf_counter_ns
        t0 = clock()
        reg = config.parse_config(self.docs[j]["text"])
        self.parse_ns[self.parses % self.max_ops] = clock() - t0
        self.parses += 1
        reg2 = config.parse_config(config.serialize_config(reg))
        csv_in = plotdata.emit_mf_plot_data(reg2.input_var, generate.PLOT_SAMPLES)
        csv_out = plotdata.emit_mf_plot_data(reg2.output_var, generate.PLOT_SAMPLES)
        csv_sweep = plotdata.emit_sweep_data(reg2.sweep(generate.CSV_STEPS))
        return reg, reg2, (csv_in, csv_out, csv_sweep)

    def record(self, i, result):
        j = i % len(self.docs)
        doc = self.docs[j]
        if "expect" in doc:
            self.invalid_seen += 1
            ok = rejected_as_expected(result, *doc["expect"])
            self.invalid_ok += ok
        else:
            ok = self._roundtrip_ok(j, result)
        self._count(ok)

    def _roundtrip_ok(self, j: int, result) -> bool:
        if isinstance(result, BaseException):
            return False
        reg, reg2, csvs = result
        tree, columns = self.want[j]
        if not (reg2 == reg and _tree_of(reg) == tree):
            return False
        if self.verified.get(j) == csvs:
            return True
        ok = all(
            oracle.csv_matches(text, *columns[key])
            for text, key in zip(csvs, ("input", "output", "sweep"))
        )
        if ok:
            self.verified[j] = csvs
        return ok

    def report(self, loop):
        parse = self.parse_ns[:min(self.parses, self.max_ops)]
        ratio = self.invalid_ok / self.invalid_seen if self.invalid_seen else float("nan")
        return [
            f"parse_p50_ms = {np.percentile(parse, 50) / 1e6:.4f} ms (raw, n={len(parse)})",
            f"config.reject_ratio = {ratio:.4f} ({self.invalid_ok} of {self.invalid_seen} "
            f"invalid documents rejected with the expected class and path)",
        ]


    def epilogue(self, env):
        """Spawn ``fuzzreg eval`` on the reference file, one process at a
        time, and time each process from spawn to exit."""
        path = config.reference_config_path()
        ref = oracle.Controller(yaml.safe_load(path.read_text(encoding="utf-8")))
        for x, want in zip(self.cli_inputs, ref.outputs(self.cli_inputs)):
            cmd = [sys.executable, "-m", "fuzzreg.cli", "eval", "--config", str(path), f"--input={x!r}"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
            self.cli_ms.append((time.perf_counter() - t0) * 1e3)
            try:
                got = float(proc.stdout)
            except ValueError:
                got = math.nan
            self._count(proc.returncode == 0
                       and abs(got - want) <= oracle.CSV_REL_TOL * abs(want) + oracle.OUTPUT_TOL * ref.out_span)
        return [f"cli_cold_ms = {statistics.median(self.cli_ms):.2f} ms "
                f"(median process wall time of fuzzreg eval, n={len(self.cli_ms)})"]


def rejected_as_expected(result, cls_name: str, fragment: str) -> bool:
    """An invalid document must raise ``fuzzreg.errors.<cls_name>`` with a
    message that names the offending path."""
    cls = getattr(errors, cls_name)
    return isinstance(result, cls) and fragment in str(result)


WORKLOADS = {w.name: w for w in (ControlLoop, SweepHires, ConfigRoundtrip)}
