"""Independent reference for the benchmark's correctness gate.

Nothing here imports fuzzreg. A controller is read from its document tree
(the dict ``yaml.safe_load`` returns for a controller file); each shape is
evaluated from its parameters as the format defines it, each rule clips its
consequent at the antecedent grade, the clipped sets are combined with max,
and the centre of gravity is taken with ``math.fsum``, which is exact up to
the final division.

Reference outputs over many inputs are computed in a separate Python process
(``outputs_in_child``), so that the arrays they need never count toward the
peak memory of the process that runs the program.
"""

from __future__ import annotations

import functools
import math
import pickle
import subprocess
import sys

import numpy as np

# An output agrees with the reference when it lies within this share of the
# output universe's width. Float sums in a different order differ by about
# samples x 1e-16 of the width; a real defect moves the output far more.
OUTPUT_TOL = 1e-9
# Grades and activations lie in [0, 1]; they agree within this absolute gap.
GRADE_TOL = 1e-12
# Six significant digits, as written by the CSV emitters.
CSV_REL_TOL = 1e-5


def grades(kind: str, params, x: np.ndarray) -> np.ndarray:
    """Membership grades of ``x`` in one shape, from its parameters.

    Triangle (a, b, c): 1 at x == b, 0 outside (a, c), linear in between;
    an edge with a == b or b == c is a vertical jump at the peak.
    Trapezoid (a, b, c, d): 1 on [b, c], 0 outside (a, d), linear between.
    Gaussian (centre, sigma): exp(-z^2 / 2), z = (x - centre) / sigma.
    Z-shoulder (a, b): 1 up to a, 0 from b, linear between; S-shoulder the
    mirror image.
    """
    x = np.asarray(x, dtype=float)
    p = [float(v) for v in params]
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "triangular":
            a, b, c = p
            return np.select(
                [x == b, (x <= a) | (x >= c), x < b],
                [1.0, 0.0, (x - a) / (b - a)],
                (c - x) / (c - b),
            )
        if kind == "trapezoidal":
            a, b, c, d = p
            return np.select(
                [(b <= x) & (x <= c), (x <= a) | (x >= d), x < b],
                [1.0, 0.0, (x - a) / (b - a)],
                (d - x) / (d - c),
            )
        if kind == "gaussian":
            centre, sigma = p
            z = (x - centre) / sigma
            return np.exp(-0.5 * z * z)
        if kind == "zshoulder":
            a, b = p
            return np.select([x <= a, x >= b], [1.0, 0.0], (b - x) / (b - a))
        if kind == "sshoulder":
            a, b = p
            return np.select([x <= a, x >= b], [0.0, 1.0], (x - a) / (b - a))
    raise ValueError(f"unknown shape {kind!r}")


class Controller:
    """Reference evaluation of one controller document tree."""

    def __init__(self, tree: dict):
        inp, out = tree["input"], tree["output"]
        self.in_lo, self.in_hi = (float(v) for v in inp["range"])
        self.out_lo, self.out_hi = (float(v) for v in out["range"])
        self.in_terms = [(t["type"], t["params"]) for t in inp["terms"]]
        self.out_terms = [(t["type"], t["params"]) for t in out["terms"]]
        in_names = [t["name"] for t in inp["terms"]]
        out_names = [t["name"] for t in out["terms"]]
        self.rules = [(in_names.index(r["if"]), out_names.index(r["then"])) for r in tree["rules"]]
        self.resolution = int(tree.get("output_resolution") or out["samples"])
        self.midpoint_policy = tree.get("zero_mass", "error") == "midpoint"
        self.zero_mass_rows = 0

    # Built on first use: at high resolution these arrays take megabytes.
    @functools.cached_property
    def points(self) -> np.ndarray:
        return np.linspace(self.out_lo, self.out_hi, self.resolution)

    @functools.cached_property
    def consequents(self) -> list[np.ndarray]:
        return [grades(kind, params, self.points) for kind, params in self.out_terms]

    @property
    def out_span(self) -> float:
        return self.out_hi - self.out_lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.out_lo + self.out_hi)

    def activations(self, xs) -> np.ndarray:
        """One row per input, one column per input term, after clamping."""
        xc = np.clip(np.asarray(xs, dtype=float), self.in_lo, self.in_hi)
        return np.stack([grades(kind, params, xc) for kind, params in self.in_terms], axis=1)

    def aggregated(self, acts: np.ndarray) -> np.ndarray:
        """Clip-and-max over the rule base for a block of activation rows."""
        agg = np.zeros((acts.shape[0], self.resolution))
        for ant, cons in self.rules:
            np.maximum(agg, np.minimum(acts[:, ant, None], self.consequents[cons][None, :]), out=agg)
        return agg

    def cog(self, row: np.ndarray) -> float | None:
        """Centre of gravity, or None when no rule fired."""
        mass = math.fsum(row.tolist())
        if mass == 0.0:
            return None
        y = math.fsum((row * self.points).tolist()) / mass
        return min(max(y, self.out_lo), self.out_hi)

    def outputs(self, xs) -> list[float | None]:
        """Crisp output per input; the midpoint where no rule fires under the
        midpoint policy, None where the error policy must raise."""
        xs = np.asarray(xs, dtype=float)
        block = max(1, (1 << 19) // self.resolution)
        result = []
        for start in range(0, len(xs), block):
            agg = self.aggregated(self.activations(xs[start:start + block]))
            for row in agg:
                y = self.cog(row)
                if y is None:
                    self.zero_mass_rows += 1
                    if self.midpoint_policy:
                        y = self.midpoint
                result.append(y)
        return result

    def output_matches(self, got: float, want: float | None) -> bool:
        return want is not None and abs(got - want) <= OUTPUT_TOL * self.out_span


def outputs_in_child(jobs: list[tuple[dict, list[float]]]) -> list[tuple[list, int]]:
    """``Controller(tree).outputs(xs)`` and its zero-mass row count for each
    (tree, xs) job, computed in a fresh Python process that this one waits
    for."""
    proc = subprocess.run([sys.executable, __file__], input=pickle.dumps(jobs),
                          capture_output=True, timeout=170, check=True)
    return pickle.loads(proc.stdout)


def _serve() -> None:
    results = []
    for tree, xs in pickle.load(sys.stdin.buffer):
        ref = Controller(tree)
        results.append((ref.outputs(xs), ref.zero_mass_rows))
    pickle.dump(results, sys.stdout.buffer)


def csv_matches(text: str, header: list[str], columns: list[np.ndarray], scales: list[float]) -> bool:
    """True when a CSV has exactly this header and every cell agrees with the
    reference column to six significant digits (relative to ``scale`` for
    values near zero)."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != ",".join(header):
        return False
    rows = lines[1:-1]
    if len(rows) != len(columns[0]):
        return False
    try:
        table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    except ValueError:
        return False
    if table.shape[1] != len(columns):
        return False
    for j, (want, scale) in enumerate(zip(columns, scales)):
        tol = CSV_REL_TOL * np.abs(want) + OUTPUT_TOL * scale
        if not np.all(np.abs(table[:, j] - want) <= tol):
            return False
    return True


if __name__ == "__main__":
    _serve()
