"""Span tracing from outside the program.

While a ``Recorder`` is installed, the public per-stage functions of fuzzreg
are replaced by wrappers that record one span per call: name, start, end,
parent span, op id and whether the call raised. Spans stay in flat in-memory
arrays and are written out once, when the run ends. Nothing under ``src/``
changes; the original attributes are put back on exit.

A stage that a later version of the program no longer has (or no longer
calls through the patched name) simply records no spans.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

# (span name, module path, attribute path). Functions are patched in the
# namespace their caller looks them up in: the pipeline stages where
# ``regulator`` calls them, the construction steps on their classes.
STAGES = (
    ("config.parse_config", "fuzzreg.config", "parse_config"),
    ("config.yaml_load", "yaml", "safe_load"),
    ("config.serialize_config", "fuzzreg.config", "serialize_config"),
    ("regulator.construct", "fuzzreg.regulator", "Regulator.__init__"),
    ("regulator.sweep", "fuzzreg.regulator", "Regulator.sweep"),
    ("regulator.evaluate", "fuzzreg.regulator", "Regulator.evaluate"),
    ("regulator.EvalTrace", "fuzzreg.regulator", "EvalTrace.__init__"),
    ("membership.singleton_fuzzify", "fuzzreg.regulator", "singleton_fuzzify"),
    ("membership.discretize", "fuzzreg.regulator", "discretize"),
    ("membership.FuzzySet", "fuzzreg.membership", "FuzzySet.__init__"),
    ("inference.infer", "fuzzreg.regulator", "infer"),
    ("defuzz.defuzz_cog", "fuzzreg.regulator", "defuzz_cog"),
    ("plotdata.emit_mf_plot_data", "fuzzreg.plotdata", "emit_mf_plot_data"),
    ("plotdata.emit_sweep_data", "fuzzreg.plotdata", "emit_sweep_data"),
)


class Recorder:
    def __init__(self):
        self.names = [name for name, _, _ in STAGES]
        self.name = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self._stack: list[int] = []
        self.current_op = -1
        # counts taken at the evaluate boundary
        self.points = 0
        self.fallbacks = 0
        self.computed_bytes = 0

    def _wrap(self, name_id: int, fn, on_evaluate: bool):
        clock = time.perf_counter_ns
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0)
            self.raised.append(1)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                self.raised[idx] = 0
                return result
            finally:
                self.end[idx] = clock()
                stack.pop()
                if on_evaluate and not self.raised[idx]:
                    self._count_point(args[0], result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_point(self, reg, trace) -> None:
        # minimal traffic of clip-and-max at this point: every rule reads its
        # consequent (S doubles), the aggregate (S doubles) is written once
        self.points += 1
        self.fallbacks += bool(getattr(trace, "zero_mass_fallback", False))
        samples = reg.output_resolution
        self.computed_bytes += 8 * samples * (len(reg.rulebase.rules) + 1)

    @contextlib.contextmanager
    def installed(self):
        """Patch every stage that exists, and restore all of them on exit."""
        import importlib

        saved = []
        try:
            for name_id, (name, module, attr_path) in enumerate(STAGES):
                owner = importlib.import_module(module)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(name_id, original, name == "regulator.evaluate"))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class Summary:
    """Per-stage call counts, durations and self times of recorded spans.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap, since the program is single-threaded.
    Times are scaled to the reference machine's normal speed: a span inside
    op k by ``op_scale[k]``, a set-up span by ``setup_scale``.
    """

    def __init__(self, rec: Recorder, op_scale: np.ndarray, setup_scale: float):
        cols = rec.arrays()
        self.names = rec.names
        self.name = cols["name"]
        self.op = cols["op"]
        self.ok = cols["raised"] == 0
        scale = np.where(self.op >= 0, op_scale[np.maximum(self.op, 0)], setup_scale)
        self.dur = (cols["end_ns"] - cols["start_ns"]) * scale
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur))
        self.self_time = self.dur - child

    def _mask(self, stage: str, *, in_ops: bool = False, ok_only: bool = True) -> np.ndarray:
        mask = self.name == self.names.index(stage)
        if ok_only:
            mask &= self.ok
        if in_ops:
            mask &= self.op >= 0
        return mask

    def calls(self, stage: str, **kw) -> int:
        return int(np.count_nonzero(self._mask(stage, **kw)))

    def mean_ns(self, stage: str, *, self_only: bool = False, **kw) -> float:
        """Mean duration (or self time) per call that returned normally; 0.0
        when the stage never ran."""
        mask = self._mask(stage, **kw)
        if not mask.any():
            return 0.0
        values = self.self_time if self_only else self.dur
        return float(values[mask].mean())

    def table(self) -> list[tuple[str, int, float, float, float]]:
        """(stage, calls, mean duration ns, mean self ns, total self ns)."""
        rows = []
        for stage in self.names:
            mask = self._mask(stage, ok_only=False)
            n = int(np.count_nonzero(mask))
            if n:
                rows.append((stage, n, float(self.dur[mask].mean()),
                             float(self.self_time[mask].mean()), float(self.self_time[mask].sum())))
        return rows
