"""Plain-text plot data: membership curves and response sweeps as CSV."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import ValidationError
from .membership import LinguisticVariable, _check_cells, _count, _instance, _real


# six significant digits, locale-independent, '.' decimal separator
_FORMAT = "%.6g"


def format_value(v: float) -> str:
    """One CSV value, a finite real number (``membership._real``), printed
    with ``_FORMAT``."""
    return _FORMAT % _real(v, "CSV value")


def emit_mf_plot_data(var: LinguisticVariable, samples: int) -> str:
    """CSV of every term's membership curve sampled across the universe.

    Header is ``x,<term1>,...,<termk>``; one row per sample point.
    """
    _instance(var, LinguisticVariable, "plot variable")
    samples = _count(samples, "plot samples", 2)
    _check_cells(len(var.terms), samples, "plot samples")
    xs = np.linspace(var.universe.min, var.universe.max, samples)
    # graded and formatted one of the variable's grading blocks at a time:
    # the whole table as Python floats, lists and row strings took about
    # 13 times the size of the CSV
    blocks = (
        np.vstack((xs[cols], var._grade(xs[cols]))).T.tolist() for cols in var._blocks(samples)
    )
    return _csv(["x"] + [term.name for term in var.terms], blocks)


def emit_sweep_data(pairs) -> str:
    """CSV of (input, output) pairs, each two finite numbers, under an ``input,output`` header."""
    rows = []
    for i, pair in enumerate(_instance(pairs, Iterable, "sweep pairs")):
        try:
            x, y = pair
            rows.append((_real(x, "sweep input"), _real(y, "sweep output")))
        except (TypeError, ValueError):  # not a pair, or not of finite numbers
            raise ValidationError(f"sweep pair {i} must be two numbers, got {pair!r}") from None
    return _csv(["input", "output"], [rows])


def _csv(header: list[str], blocks) -> str:
    """``header`` and the rows of each of ``blocks`` as CSV lines, values
    printed with ``_FORMAT``; a block's rows are let go once it is printed."""
    # one %-format per row is faster than format_value per value
    row = ",".join([_FORMAT] * len(header)) + "\n"
    lines = [",".join(header) + "\n"]
    lines += ("".join(map(row.__mod__, map(tuple, rows))) for rows in blocks)
    return "".join(lines)
