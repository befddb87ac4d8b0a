"""Seeded input generators for the fuzzreg benchmark.

Every generator is a pure function of its seed: the same seed gives the same
signal and the same documents, byte for byte.

The *mix* of input properties a workload varies (term counts, output
resolution relative to the L2 cache, share of controllers with coverage gaps,
share of invalid documents, YAML style) is fixed by the slot tables below.
The seed draws the instances that fill the slots: shapes, breakpoints, rule
mapping, names and magnitudes. Runs with different seeds therefore do the
same amount of work on different data, which keeps the run-to-run spread of
the timings small.

Magnitudes: universe widths are drawn log-uniformly from 1e-2 to 1e5 and
universe centres lie within three widths of zero, so every coordinate is
below 1e6 in magnitude. Centre of gravity at extreme magnitudes (a universe
of [0, 1e307] overflows) is a known defect tracked as ROADMAP item 3 and is
outside the generated range on purpose, not filtered out after the fact.
"""

from __future__ import annotations

import math
import random

import numpy as np

# control_loop: readings walk inside [-2, 102]; the regulator's universe is
# [0, 100], so a few percent of readings exercise the clamp path.
SIGNAL_LOW, SIGNAL_HIGH = -2.0, 102.0
SIGNAL_STEP_SIGMA = 1.5

# sweep_hires: (output resolution index, input terms, output terms, gaps).
# Index 0 is the in-cache resolution, index 1 the out-of-cache one. At 2001
# samples the consequent matrix is at most 15 x 2001 x 8 B = 235 KiB, well
# inside one core's L2 (2 MiB on the reference Xeon); at 65537 samples 9 to
# 13 consequents take 4.5 to 6.5 MiB, more than the L2 of both cores together. Seven slots put the median sweep in
# the middle of one slot's timings rather than between two slots.
SWEEP_RESOLUTIONS = (2001, 65537)
SWEEP_SLOTS = (
    (0, 3, 4, False),
    (0, 6, 7, True),
    (0, 9, 5, False),
    (0, 12, 13, False),
    (0, 15, 15, False),
    (1, 5, 9, True),
    (1, 11, 13, False),
)
SWEEP_STEPS = 41

# config_roundtrip: 45 documents, 5 of them invalid (one of each kind), so
# the median and the 90th percentile fall inside one document's timings.
ROUNDTRIP_DOCS = 45
INVALID_SLOTS = {
    4: "triangle_order",
    13: "unknown_then",
    22: "unknown_type",
    31: "yaml_syntax",
    40: "resolution",
}
PLOT_SAMPLES = 101
CSV_STEPS = 11

_VARIABLE_NAMES = (
    "Temperature", "Pressure", "Level", "Flow", "Speed", "Humidity",
    "Valve", "Heater", "Pump", "Fan", "Damper", "Command",
)
_LETTERS = "ABCDEFGHJKLMPRSTUVWX"


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"fuzzreg-bench:{purpose}:{seed}")


def _sig(value: float) -> float:
    """Round to 6 significant digits, so documents carry short numbers that
    survive a YAML round trip unchanged. Rounding is monotone, so it keeps
    the order of breakpoints."""
    return float(f"{value:.6g}")


def temperature_signal(seed: int, length: int) -> list[float]:
    """Reflected Gaussian random walk over [SIGNAL_LOW, SIGNAL_HIGH]."""
    rng = np.random.default_rng([seed, 1])
    steps = rng.normal(0.0, SIGNAL_STEP_SIGMA, length)
    x = rng.uniform(20.0, 80.0)
    out = []
    for step in steps.tolist():
        x += step
        # fold back into range; a single fold suffices since |step| << span
        if x < SIGNAL_LOW:
            x = 2 * SIGNAL_LOW - x
        elif x > SIGNAL_HIGH:
            x = 2 * SIGNAL_HIGH - x
        out.append(x)
    return out


def _universe(rng: random.Random) -> tuple[float, float]:
    width = 10 ** rng.uniform(-2.0, 5.0)
    centre = rng.uniform(-3.0, 3.0) * width
    lo = _sig(centre - width / 2)
    hi = _sig(lo + width)
    return lo, hi


def _peaks(rng: random.Random, lo: float, hi: float, n: int, jitter: float) -> list[float]:
    spacing = (hi - lo) / (n - 1)
    inner = [_sig(lo + spacing * (i + rng.uniform(-jitter, jitter))) for i in range(1, n - 1)]
    return [lo] + inner + [hi]


def _covering_terms(rng: random.Random, p: list[float]) -> list[tuple[str, list[float]]]:
    """Mixed shapes whose supports overlap, so every point of [p[0], p[-1]]
    has a term with a positive grade. Term i reaches the peaks of both its
    neighbours; a degenerate (vertical) edge only ever faces left, where the
    neighbour's sloped side covers the gap."""
    n = len(p)
    terms = []
    for i in range(n):
        left = p[i - 1] if i > 0 else None
        right = p[i + 1] if i < n - 1 else None
        near = min(p[i] - left if left is not None else math.inf,
                   right - p[i] if right is not None else math.inf)
        sigma = _sig(near * rng.uniform(0.3, 0.7))
        delta = near * rng.uniform(0.1, 0.4)
        if i == 0:
            kind = rng.choice(("zshoulder", "triangular", "trapezoidal", "gaussian"))
            params = {
                "zshoulder": [p[0], right],
                "triangular": [p[0], p[0], right],
                "trapezoidal": [p[0], p[0], _sig(p[0] + delta), right],
                "gaussian": [p[0], sigma],
            }[kind]
        elif i == n - 1:
            kind = rng.choice(("sshoulder", "triangular", "trapezoidal", "gaussian"))
            params = {
                "sshoulder": [left, p[i]],
                "triangular": [left, p[i], p[i]],
                "trapezoidal": [left, _sig(p[i] - delta), p[i], p[i]],
                "gaussian": [p[i], sigma],
            }[kind]
        else:
            kind = rng.choice(("triangular", "triangular", "trapezoidal", "gaussian"))
            if kind == "triangular":
                a = p[i] if rng.random() < 0.25 else left
                params = [a, p[i], right]
            elif kind == "trapezoidal":
                params = [left, _sig(p[i] - delta), _sig(p[i] + delta), right]
            else:
                params = [p[i], sigma]
        terms.append((kind, params))
    return terms


def _gapped_terms(rng: random.Random, p: list[float]) -> list[tuple[str, list[float]]]:
    """Narrow shapes on evenly spaced peaks: half-widths of 0.25 to 0.42
    spacings leave an uncovered interval between every pair of neighbours,
    where no rule fires. No gaussians, since those never reach zero."""
    n = len(p)
    spacing = (p[-1] - p[0]) / (n - 1)
    terms = []
    for i in range(n):
        w = spacing * rng.uniform(0.25, 0.42)
        if i == 0:
            kind = rng.choice(("zshoulder", "triangular"))
            params = [p[0], _sig(p[0] + w)] if kind == "zshoulder" else [p[0], p[0], _sig(p[0] + w)]
        elif i == n - 1:
            kind = rng.choice(("sshoulder", "triangular"))
            params = [_sig(p[i] - w), p[i]] if kind == "sshoulder" else [_sig(p[i] - w), p[i], p[i]]
        else:
            kind = rng.choice(("triangular", "trapezoidal"))
            if kind == "triangular":
                params = [_sig(p[i] - w), p[i], _sig(p[i] + w)]
            else:
                params = [_sig(p[i] - w), _sig(p[i] - w / 3), _sig(p[i] + w / 3), _sig(p[i] + w)]
        terms.append((kind, params))
    return terms


def _variable(rng: random.Random, name: str, n_terms: int, samples: int, gaps: bool) -> dict:
    lo, hi = _universe(rng)
    prefix = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(1, 3)))
    if gaps:
        shapes = _gapped_terms(rng, _peaks(rng, lo, hi, n_terms, 0.0))
    else:
        shapes = _covering_terms(rng, _peaks(rng, lo, hi, n_terms, 0.2))
    return {
        "name": name,
        "range": [lo, hi],
        "samples": samples,
        "terms": [
            {"name": f"{prefix}{i}", "type": kind, "params": [_sig(v) for v in params]}
            for i, (kind, params) in enumerate(shapes)
        ],
    }


def controller(rng: random.Random, n_in: int, n_out: int, *, gaps: bool,
               in_samples: int = 101, out_samples: int = 101) -> dict:
    """A controller document tree, as ``yaml.safe_load`` would return it.
    Every input term drives exactly one rule, so the rule count is ``n_in``."""
    in_name, out_name = rng.sample(_VARIABLE_NAMES, 2)
    inp = _variable(rng, in_name, n_in, in_samples, gaps)
    out = _variable(rng, out_name, n_out, out_samples, False)
    out_names = [t["name"] for t in out["terms"]]
    rules = [{"if": t["name"], "then": rng.choice(out_names)} for t in inp["terms"]]
    tree = {"input": inp, "output": out, "rules": rules}
    if gaps:
        tree["zero_mass"] = "midpoint"
    return tree


def sweep_documents(seed: int, resolutions=SWEEP_RESOLUTIONS) -> list[dict]:
    """One controller tree per SWEEP_SLOTS entry, in slot order."""
    rng = _rng(seed, "sweep")
    trees = []
    for res_index, n_in, n_out, gaps in SWEEP_SLOTS:
        tree = controller(rng, n_in, n_out, gaps=gaps)
        tree["output_resolution"] = resolutions[res_index]
        trees.append(tree)
    return trees


def _num(value: float) -> str:
    # PyYAML reads "1e-05" as a string; a float needs a '.' in its mantissa.
    text = repr(float(value))
    if "e" in text and "." not in text:
        text = text.replace("e", ".0e")
    return text


def _flow_list(values) -> str:
    return "[" + ", ".join(_num(v) for v in values) + "]"


def render(tree: dict, style: str = "flow") -> str:
    """YAML text of a document tree. ``flow`` writes one term per line like
    the shipped reference file; ``block`` writes one key per line like
    ``serialize_config`` does."""
    lines = []
    for key in ("input", "output"):
        var = tree[key]
        lines += [f"{key}:", f"  name: {var['name']}", f"  range: {_flow_list(var['range'])}",
                  f"  samples: {var['samples']}", "  terms:"]
        for term in var["terms"]:
            params = _flow_list(term["params"])
            if style == "flow":
                lines.append(f"    - {{name: {term['name']}, type: {term['type']}, params: {params}}}")
            else:
                lines += [f"    - name: {term['name']}", f"      type: {term['type']}",
                          f"      params: {params}"]
    lines.append("rules:")
    for rule in tree["rules"]:
        if style == "flow":
            lines.append(f"  - {{if: {rule['if']}, then: {rule['then']}}}")
        else:
            lines += [f"  - if: {rule['if']}", f"    then: {rule['then']}"]
    for key in ("defuzzification", "zero_mass", "output_resolution"):
        if key in tree:
            lines.append(f"{key}: {tree[key]}")
    return "\n".join(lines) + "\n"


def _invalid(rng: random.Random, tree: dict, kind: str, style: str) -> tuple[str, str, str]:
    """Break one valid tree in one way. Returns (text, expected error class
    name, text the error message must contain)."""
    if kind == "triangle_order":
        k = rng.randrange(len(tree["input"]["terms"]))
        lo, hi = tree["input"]["range"]
        a, b, c = _sig(lo + 0.6 * (hi - lo)), _sig(lo + 0.5 * (hi - lo)), _sig(lo + 0.4 * (hi - lo))
        tree["input"]["terms"][k] = dict(tree["input"]["terms"][k], type="triangular", params=[a, b, c])
        return render(tree, style), "ValidationError", f"input.terms[{k}].params"
    if kind == "unknown_then":
        k = rng.randrange(len(tree["rules"]))
        tree["rules"][k] = dict(tree["rules"][k], then="Undefined")
        return render(tree, style), "ValidationError", f"rules[{k}].then"
    if kind == "unknown_type":
        k = rng.randrange(len(tree["output"]["terms"]))
        tree["output"]["terms"][k] = dict(tree["output"]["terms"][k], type="sigmoid")
        return render(tree, style), "ValidationError", f"output.terms[{k}].type"
    if kind == "yaml_syntax":
        text = render(tree, style)
        lines = text.split("\n")
        candidates = [i for i, line in enumerate(lines) if "params: [" in line]
        i = rng.choice(candidates)
        lines[i] = lines[i].replace("]", "", 1)
        return "\n".join(lines), "ParseError", "controller document"
    if kind == "resolution":
        tree["output_resolution"] = 1
        return render(tree, style), "ValidationError", "output_resolution"
    raise ValueError(f"unknown invalid-document kind {kind!r}")


def roundtrip_documents(seed: int) -> list[dict]:
    """Documents for config_roundtrip, in slot order. Each entry has
    ``text``, ``style`` and either ``tree`` (valid) or ``expect`` (invalid:
    error class name and required message fragment)."""
    rng = _rng(seed, "roundtrip")
    docs = []
    for j in range(ROUNDTRIP_DOCS):
        n_in = 3 + j % 10
        n_out = 3 + (3 * j) % 10
        gaps = j % 5 == 2
        style = "flow" if j % 2 else "block"
        tree = controller(rng, n_in, n_out, gaps=gaps, in_samples=(51, 101, 201)[j % 3])
        if j % 2 == 0:
            tree["defuzzification"] = "cog"
        if not gaps and j % 3 == 0:
            tree["zero_mass"] = "error"
        resolution = (None, 101, 251)[j % 3]
        if resolution is not None:
            tree["output_resolution"] = resolution
        if j in INVALID_SLOTS:
            text, cls, fragment = _invalid(rng, tree, INVALID_SLOTS[j], style)
            docs.append({"text": text, "style": style, "expect": (cls, fragment)})
        else:
            docs.append({"text": render(tree, style), "style": style, "tree": tree})
    return docs


def cli_inputs(seed: int, count: int) -> list[float]:
    """Crisp inputs for the spawned ``fuzzreg eval`` processes."""
    rng = _rng(seed, "cli")
    return [round(rng.uniform(SIGNAL_LOW, SIGNAL_HIGH), 3) for _ in range(count)]
