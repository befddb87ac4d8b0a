"""Timing on a shared machine.

The machine the benchmark was built on switches, at intervals from a
fraction of a second to about a minute, between its normal speed and a
contended phase in which all code runs about 1.6 to 1.7 times slower,
whatever the program does. Whole runs can fall into either phase, so no
filter over one run's operations can remove it.

So the closed loop also times a fixed reference probe, every
``PROBE_EVERY_NS`` of wall time and between operations only. The probe is
benchmark-owned code that does the same kind of work as the workload's
operations (small or large clip-and-max passes, a sum and a dot product, an
allocation) but never calls fuzzreg. Each operation's time is then scaled by
``nominal / probe``, the probe's nominal time on the reference machine at
normal speed over the mean of the probes on either side of the operation.
Scaled times read as microseconds on that machine at normal speed; a change
in the program moves them, a change in the machine's load mostly does not.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

PROBE_EVERY_NS = 20_000_000
# enough operations in one probe window for ten beyond its 90th percentile
WINDOW_OPS = 100


@dataclasses.dataclass(frozen=True)
class _Result:
    output: float
    grades: np.ndarray


class Probe:
    """Clip-and-max over ``rules`` consequents of ``samples`` points, then a
    sum, a dot product and a frozen-dataclass allocation, ``points`` times.

    The arrays it works in are allocated once, here: a probe that allocated
    them per call would run at a speed set by the allocator's state, which
    the program's own allocations change (at 65 537 samples, whether each
    call maps fresh pages or reuses freed heap).

    ``nominal_ns`` is its time on the reference machine (Xeon, 2 vCPUs,
    Python 3.11, numpy 2.4) at normal speed (see README.md for how it was
    taken).
    """

    def __init__(self, samples: int, rules: int, points: int, nominal_ns: float):
        rng = np.random.default_rng(0)
        self.cons = rng.random((rules, samples))
        self.xs = np.linspace(0.0, 1.0, samples)
        self.agg = np.zeros(samples)
        self.clipped = np.zeros(samples)
        self.points = points
        self.nominal_ns = nominal_ns

    def __call__(self) -> int:
        t0 = time.perf_counter_ns()
        rules = len(self.cons)
        agg, clipped = self.agg, self.clipped
        for k in range(self.points):
            acts = np.array([((k * 7 + j * 3) % 11) / 10 for j in range(rules)])
            agg.fill(0.0)
            for j in range(rules):
                np.minimum(acts[j], self.cons[j], out=clipped)
                np.maximum(agg, clipped, out=agg)
            if not (agg.min() >= 0.0 and agg.max() <= 1.0):
                raise AssertionError("probe grades out of range")
            mass = float(np.sum(agg))
            _Result(float(np.dot(self.xs, agg)) / mass if mass else 0.0, agg)
        return time.perf_counter_ns() - t0


class Probes:
    """The probes of one workload, timed one after the other. A workload
    whose operations differ in kind (``sweep_hires``) has one probe per kind
    and says which probe scales which operation."""

    def __init__(self, *probes: Probe):
        self.probes = probes
        self.nominal_ns = np.array([p.nominal_ns for p in probes], dtype=float)

    def __call__(self) -> list[int]:
        return [p() for p in self.probes]


@dataclasses.dataclass
class Loop:
    durs: np.ndarray        # ns per operation, in order (float32, 7 significant digits)
    probe_at: np.ndarray    # probe k ran just before operation probe_at[k]
    probe_ns: np.ndarray    # one row per probe, one column per probe part
    nominal_ns: np.ndarray  # per probe part
    part: np.ndarray        # per input (op index modulo its length): which part scales it

    def scaled(self) -> np.ndarray:
        """Per-operation times scaled to the reference machine's normal
        speed by the probes on either side of each operation."""
        local = 0.5 * (self.probe_ns[:-1] + self.probe_ns[1:])
        factor = self.nominal_ns[None, :] / local
        window = np.repeat(np.arange(len(local)), np.diff(self.probe_at))
        part = self.part[np.arange(len(self.durs)) % len(self.part)]
        return self.durs * factor[window, part]

    def first_scale(self) -> float:
        """Scale factor of the first probe, for work done just before the loop."""
        return float(self.nominal_ns.sum() / self.probe_ns[0].sum())

    def slowdown(self) -> float:
        """Median probe time over nominal: how contended the machine was."""
        return float(np.median(self.probe_ns.sum(axis=1)) / self.nominal_ns.sum())


def timed_loop(workload, call, *, seconds: float | None = None, count: int | None = None,
               recorder=None) -> Loop:
    """Closed loop: time each call alone, hand its result to the workload's
    checker outside the timed region, and stop after ``seconds`` of wall
    time, ``count`` operations or ``workload.max_ops`` operations, whichever
    comes first.

    Operation times go into a buffer of ``workload.max_ops`` entries that is
    allocated and touched before the loop starts, so the loop's own memory
    does not grow with the number of operations and cannot move the
    process's peak memory."""
    clock = time.perf_counter_ns
    probe = workload.probe
    inputs = workload.inputs
    n = len(inputs)
    limit = workload.max_ops if count is None else min(count, workload.max_ops)
    buf = np.ones(limit, dtype=np.float32)
    durs = memoryview(buf)
    probe_at, probe_ns = array("q", [0]), [probe()]
    last_probe = clock()
    deadline = last_probe + int(seconds * 1e9) if seconds is not None else None
    i = 0
    while i < limit:
        arg = inputs[i % n]
        if recorder is not None:
            recorder.current_op = i
        t0 = clock()
        try:
            result = call(arg)
        except Exception as exc:  # the workload's checker counts it as failed
            result = exc
        t1 = clock()
        durs[i] = t1 - t0
        workload.record(i, result)
        i += 1
        if t1 - last_probe >= PROBE_EVERY_NS:
            probe_at.append(i)
            probe_ns.append(probe())
            last_probe = clock()
        if deadline is not None and t1 >= deadline:
            break
    if probe_at[-1] != i:
        probe_at.append(i)
        probe_ns.append(probe())
    return Loop(buf[:i], np.frombuffer(probe_at, dtype=np.int64).copy(),
                np.array(probe_ns, dtype=float), probe.nominal_ns,
                np.asarray(workload.probe_part, dtype=np.int64))


def scaled_median(fn, reps: int, probe) -> tuple[float, float]:
    """Call ``fn`` (which returns its own duration in seconds) ``reps``
    times between probes; the median of the scaled and of the raw
    durations."""
    scaled, raw = [], []
    for _ in range(reps):
        before = sum(probe())
        seconds = fn()
        after = sum(probe())
        raw.append(seconds)
        scaled.append(seconds * probe.nominal_ns.sum() / (0.5 * (before + after)))
    return float(np.median(scaled)), float(np.median(raw))


def class_ns(loop: Loop, durs: np.ndarray, cycle: int) -> np.ndarray:
    """Typical time of each distinct input (op index modulo ``cycle``): the
    median, over the probe windows in which the input ran, of its mean time
    in that window. A window of many short operations keeps their
    garbage-collection pauses in its mean; the median over windows drops a
    window that a burst of machine load slowed. NaN for inputs a short run
    never reached."""
    windows = len(loop.probe_at) - 1
    window = np.repeat(np.arange(windows), np.diff(loop.probe_at))
    key = window * cycle + np.arange(len(durs)) % cycle
    total = np.bincount(key, weights=durs, minlength=windows * cycle)
    count = np.bincount(key, minlength=windows * cycle)
    means = np.full(windows * cycle, np.nan)
    np.divide(total, count, out=means, where=count > 0)
    means = means.reshape(windows, cycle)
    out = np.full(cycle, np.nan)
    ran = (count > 0).reshape(windows, cycle).any(axis=0)
    out[ran] = np.nanmedian(means[:, ran], axis=0)
    return out


def rate(times_ns: np.ndarray, items_per_op: int) -> float:
    """Items per second over one pass through the inputs with these typical
    times; inputs a short run never reached (NaN) are left out."""
    ran = ~np.isnan(times_ns)
    return items_per_op * np.count_nonzero(ran) / (times_ns[ran].sum() / 1e9)


def percentiles(loop: Loop, durs: np.ndarray, qs=(50, 90)) -> np.ndarray:
    """Percentiles of scaled operation times. When operations are short, so
    that probe windows hold at least ``WINDOW_OPS`` of them, each window's
    percentiles come first and the median over windows is reported: a window
    in which the machine's speed changed between its two probes then cannot
    move the tail. Otherwise the operations are pooled."""
    sizes = np.diff(loop.probe_at)
    if np.count_nonzero(sizes >= WINDOW_OPS) < 3:
        return np.percentile(durs, qs)
    per_window = [np.percentile(durs[start:start + size], qs)
                  for start, size in zip(loop.probe_at[:-1], sizes) if size >= WINDOW_OPS]
    return np.median(per_window, axis=0)


def op_metrics(loop: Loop, cycle: int, items_per_op: int) -> dict:
    """op_p50_us, op_p90_us and throughput_per_s from scaled times."""
    durs = loop.scaled()
    p50, p90 = percentiles(loop, durs)
    return {
        "op_p50_us": (float(p50) / 1e3, "us"),
        "op_p90_us": (float(p90) / 1e3, "us"),
        "throughput_per_s": (rate(class_ns(loop, durs, cycle), items_per_op), "1/s"),
    }
