"""Show that the gated figures follow the program, not the benchmark.

Each pair runs one workload twice, each run in a fresh process: once as the
program is, once with a known change injected into the program from outside.
The two runs of a pair alternate which goes first. Run from the repository
root:

    python3 bench/sensitivity.py --workload control_loop --inject alloc --seconds 5
    python3 bench/sensitivity.py --workload sweep_hires --inject slow --seconds 10 --pairs 3

``--inject alloc``: the first ``Regulator.evaluate`` call allocates 5 MiB,
writes it and keeps it, as a cache would; ``peak_rss_mb`` should rise by
about 5 MiB.

``--inject slow``: every ``Regulator.evaluate`` call (``parse_config`` on
``config_roundtrip``) first runs a fixed pure-Python loop of ``SPIN``
iterations. The scaled ``op_p50_us`` and ``throughput_per_s`` should then
move by the same ratio as the raw median and the raw throughput.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys

import run  # first: it holds numpy to one thread

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

ALLOC_MIB = 5
# loop iterations added per call, by the function that is slowed down
SPIN = {"evaluate": 2_000, "parse_config": 400_000}


def inject(kind: str, workload: str) -> None:
    from fuzzreg import config
    from fuzzreg.regulator import Regulator

    if kind == "alloc":
        evaluate = Regulator.evaluate
        held = []

        def evaluate_and_keep(self, x):
            if not held:
                held.append(np.ones(ALLOC_MIB << 17))  # written, so resident
            return evaluate(self, x)

        Regulator.evaluate = evaluate_and_keep
    elif kind == "slow":
        def spun(fn):
            spin = SPIN[fn.__name__]

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for _ in range(spin):
                    pass
                return fn(*args, **kwargs)
            return wrapper

        if workload == "config_roundtrip":
            config.parse_config = spun(config.parse_config)
        else:
            Regulator.evaluate = spun(Regulator.evaluate)


def run_child(workload: str, kind: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """One benchmark run in a fresh process, with ``kind`` injected (or
    ``none``); its gated metrics and the raw figures of its report."""
    cmd = [sys.executable, __file__, "--child", "--workload", workload, "--inject", kind,
           "--seed", str(seed), "--seconds", str(seconds)] + ["--tiny"] * tiny
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    figures = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    raw = next(line for line in lines if line.startswith("op = one"))
    for part in raw.split(";")[2].split(","):
        name, value = part.split()[-2:]
        figures[name.replace("op_", "raw_op_").replace("throughput", "raw_throughput")] = float(value)
    return figures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inject", required=True, choices=["none", "alloc", "slow"])
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=2)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        inject(args.inject, args.workload)
        run.main(["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", "0"],
                 sizes=workloads.TINY if args.tiny else None)
        return

    names = ("peak_rss_mb", "op_p50_us", "raw_op_p50_us", "throughput_per_s", "raw_throughput_per_s")
    ratios = {name: [] for name in names}
    print(f"{args.workload}, inject {args.inject}: figures as is -> injected")
    for k in range(args.pairs):
        order = ("none", args.inject) if k % 2 == 0 else (args.inject, "none")
        got = {kind: run_child(args.workload, kind, args.seed + k, args.seconds) for kind in order}
        base, changed = got["none"], got[args.inject]
        print(f"pair {k}: " + "; ".join(f"{n} {base[n]:.6g} -> {changed[n]:.6g}" for n in names))
        for name in names:
            ratios[name].append(changed[name] / base[name])
    print("median ratio injected / as is: "
          + "; ".join(f"{n} {statistics.median(r):.3f}" for n, r in ratios.items()))


if __name__ == "__main__":
    main()
