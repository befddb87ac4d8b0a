"""Plain-text plot data: membership curves and response sweeps as CSV."""

from __future__ import annotations

import numpy as np

from .membership import LinguisticVariable, _count


# six significant digits, locale-independent, '.' decimal separator
_FORMAT = "%.6g"


def format_value(v: float) -> str:
    """One CSV value, printed with ``_FORMAT``."""
    return _FORMAT % float(v)


def emit_mf_plot_data(var: LinguisticVariable, samples: int) -> str:
    """CSV of every term's membership curve sampled across the universe.

    Header is ``x,<term1>,...,<termk>``; one row per sample point.
    """
    samples = _count(samples, "plot samples", 2)
    xs = np.linspace(var.universe.min, var.universe.max, samples)
    table = np.column_stack([xs] + [term.mf.sample(xs) for term in var.terms])
    # one %-format per row is faster than format_value per value
    row = ",".join([_FORMAT] * table.shape[1]) + "\n"
    header = ",".join(["x"] + [term.name for term in var.terms]) + "\n"
    return header + "".join(map(row.__mod__, map(tuple, table.tolist())))


def emit_sweep_data(pairs) -> str:
    """CSV of (input, output) response pairs with an ``input,output`` header."""
    lines = ["input,output"]
    for x, y in pairs:
        lines.append(f"{format_value(x)},{format_value(y)}")
    return "\n".join(lines) + "\n"
