"""Run one fuzzreg benchmark workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload control_loop --seed 1 --seconds 10 --trace 0

Workloads: control_loop, sweep_hires, config_roundtrip (see README.md next
to this file). Human-readable report lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` they are the per-layer ones, from a traced replay of
the same operations, and the spans are written to ``bench/results/``.

The program under test is imported from ``src/`` of the working directory.
Without it the run exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

# Every workload runs in one thread: keep numpy's BLAS (np.dot in the COG)
# from starting a thread pool, here and in spawned processes.
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(SINGLE_THREAD)

import numpy as np  # noqa: E402  (after the thread settings above)

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# Child process: time `import fuzzreg`, between two runs of a pure-Python
# loop that gauge the machine's speed at that moment (fuzzreg's imports
# are not loaded yet, so the gauge cannot use numpy).
IMPORT_PROBE = """
import time
def gauge():
    t0 = time.perf_counter_ns()
    total = 0
    for k in range(20000):
        total += k
    return time.perf_counter_ns() - t0
before = gauge()
t0 = time.perf_counter()
import fuzzreg
seconds = time.perf_counter() - t0
print(seconds, before, gauge())
"""
# the gauge's time on the reference machine at normal speed
GAUGE_NOMINAL_NS = 690_000


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn_import(env: dict) -> tuple[float, float, float]:
    """One ``python -c "import fuzzreg"`` process: the import time it
    reports from inside, raw and scaled to normal speed by its gauge, and
    its wall time, scaled the same way; all in seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    wall = time.perf_counter() - t0
    seconds, before, after = (float(v) for v in proc.stdout.split())
    scale = GAUGE_NOMINAL_NS / (0.5 * (before + after))
    return seconds, seconds * scale, wall * scale


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def peak_rss_mib() -> float:
    """Peak resident memory of this process since it started, in MiB.

    Read from VmHWM, not from getrusage: the latter's maximum also counts
    the memory of the process that started this one, as it stood when it
    started it, so the caller's size would set a floor under the figure."""
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("bench: VmHWM not found in /proc/self/status")


def run_metadata() -> dict:
    import yaml

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = size
    return {
        "cpu": cpu,
        "caches_per_cpu0": caches,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
    }


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[list[str], dict]:
    import spans
    import timing
    import workloads

    sizes = sizes or workloads.FULL
    env = child_env()
    lines = [f"workload: {name}  seed: {seed}  seconds: {seconds}  trace: {int(trace)}",
             "meta: " + json.dumps(run_metadata(), sort_keys=True)]
    w = workloads.WORKLOADS[name](seed, sizes)

    # set-up, repeated: a fresh process importing fuzzreg, then the
    # workload's own set-up in this process
    import_raw, import_s, import_wall = np.median(
        [spawn_import(env) for _ in range(sizes.import_spawns)], axis=0)

    def one_setup():
        nonlocal state
        # drop the previous repetition's state first, so that only one copy
        # of it ever counts toward the process's peak memory
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = w.setup()
        return time.perf_counter() - t0

    state = None
    work_s, work_raw = timing.scaled_median(one_setup, sizes.setup_reps, w.probe)
    setup_s = import_s + work_s

    loop = timing.timed_loop(w, w.make_call(state), seconds=seconds / 2 if trace else seconds)
    peak_rss_mb = peak_rss_mib()
    ops = len(loop.durs)
    if trace:
        rec = spans.Recorder()
        with rec.installed():
            traced_state = w.setup()
            traced = timing.timed_loop(w, w.make_call(traced_state), count=ops, recorder=rec)
    w.finish()

    lines.append(f"machine: probe median {loop.slowdown():.3f} x nominal over {len(loop.probe_ns)} probes; "
                 f"times below are scaled to nominal speed unless marked raw")
    lines.append(f"setup_s = {setup_s:.4f} s (import in a fresh process {import_s:.4f} s, raw "
                 f"{import_raw:.4f} s, median of {sizes.import_spawns}; workload set-up {work_s:.4f} s, "
                 f"raw {work_raw:.4f} s, median of {sizes.setup_reps})")
    lines.append(f"cli.import_ms = {import_wall * 1e3:.2f} ms (process wall time, n={sizes.import_spawns})")
    lines += w.report(loop)
    lines += w.epilogue(env)

    attempted, failed = w.checked, w.failed
    error_rate = failed / attempted if attempted else 1.0
    lines.append(f"error_rate = {error_rate:.6g} ({failed} failed of {attempted} attempted; "
                 f"every output checked against the reference)")

    if not trace:
        metrics = timing.op_metrics(loop, w.cycle, w.items_per_op)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
        raw = np.percentile(loop.durs, [50, 90]) / 1e3
        raw_rate = timing.rate(timing.class_ns(loop, loop.durs, w.cycle), w.items_per_op)
        lines.append(f"op = one {w.op}; n={ops}; raw op_p50_us {raw[0]:.6g}, raw op_p90_us {raw[1]:.6g}, "
                     f"raw throughput_per_s {raw_rate:.6g}; throughput_per_s counts {w.item}s")
    else:
        summary = spans.Summary(rec, traced.scaled() / traced.durs, traced.first_scale())
        overhead = (timing.rate(timing.class_ns(loop, loop.scaled(), w.cycle), 1)
                    / timing.rate(timing.class_ns(traced, traced.scaled(), w.cycle), 1) - 1) * 100
        metrics = layer_metrics(summary, rec, ops, overhead, import_wall)
        lines += span_table(summary)
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"spans_{name}.npz"
        rec.save(out)
        lines.append(f"spans: {len(rec.name)} written to {out}")

    for key, (value, unit) in metrics.items():
        lines.append(f"{key} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def layer_metrics(s, rec, ops: int, overhead_pct: float, import_wall: float) -> dict:
    us, ms = 1e-3, 1e-6
    points = rec.points or 1
    return {
        "membership.singleton_fuzzify_us": (s.mean_ns("membership.singleton_fuzzify") * us, "us"),
        "membership.fuzzyset_new_us": (s.mean_ns("membership.FuzzySet", in_ops=True) * us, "us"),
        "membership.fuzzyset_new_calls_per_op": (s.calls("membership.FuzzySet", in_ops=True) / ops, "count"),
        "membership.discretize_ms": (s.mean_ns("membership.discretize") * ms, "ms"),
        "inference.infer_us": (s.mean_ns("inference.infer", self_only=True) * us, "us"),
        "inference.computed_bytes_per_point": (rec.computed_bytes / points, "bytes"),
        "defuzz.cog_us": (s.mean_ns("defuzz.defuzz_cog") * us, "us"),
        "regulator.construct_ms": (s.mean_ns("regulator.construct") * ms, "ms"),
        "regulator.trace_new_us": (s.mean_ns("regulator.EvalTrace") * us, "us"),
        "regulator.evaluate_self_us": (s.mean_ns("regulator.evaluate", self_only=True) * us, "us"),
        "regulator.evaluate_calls_per_op": (s.calls("regulator.evaluate", in_ops=True) / ops, "count"),
        "regulator.fallback_ratio": (rec.fallbacks / points, "ratio"),
        "config.yaml_load_ms": (s.mean_ns("config.yaml_load") * ms, "ms"),
        "config.validate_ms": (s.mean_ns("config.parse_config", self_only=True) * ms, "ms"),
        "cli.import_ms": (import_wall * 1e3, "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def span_table(s) -> list[str]:
    lines = ["span table (calls, mean duration us, mean self us, total self ms):"]
    for stage, calls, mean_dur, mean_self, total_self in s.table():
        lines.append(f"  {stage:32s} {calls:9d} {mean_dur / 1e3:12.3f} {mean_self / 1e3:12.3f} "
                     f"{total_self / 1e6:12.2f}")
    for label, stage in (("config.serialize_ms", "config.serialize_config"),
                         ("plotdata.mfplot_ms", "plotdata.emit_mf_plot_data"),
                         ("plotdata.sweep_csv_ms", "plotdata.emit_sweep_data")):
        calls = s.calls(stage)
        if calls:
            lines.append(f"{label} = {s.mean_ns(stage) / 1e6:.4f} ms (n={calls})")
    return lines


def main(argv=None, sizes=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["control_loop", "sweep_hires", "config_roundtrip"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fuzzreg" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'fuzzreg'} not found; run from the repository root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    main()
