"""Command line driver.

Subcommands::

    eval    --config F --input X [--trace] [--zero-mass P]   crisp command
    sweep   --config F --steps N [--out FILE] [--zero-mass P] response CSV
    mfplot  --config F --var NAME --samples N [--out FILE]    term curves CSV
    infer   --relation FILE --ap FILE                          raw composition
    check   --config F                                         validate only

Exit codes: 0 success, 1 config or input-file problem, 2 runtime inference
error (for instance zero mass), 64 usage error. Diagnostics go to stderr,
data to stdout or the --out file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .errors import FuzzyError, ParseError, ValidationError
from .inference import FuzzyRelation, cri
from .plotdata import emit_mf_plot_data, emit_sweep_data, format_value
from .regulator import ZeroMassPolicy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_regulator(args):
    reg = load_config(args.config)
    if getattr(args, "zero_mass", None):
        reg = dataclasses.replace(
            reg, zero_mass_policy=ZeroMassPolicy(args.zero_mass)
        )
    return reg


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_csv(path: str, what: str) -> np.ndarray:
    """A headerless numeric CSV file as a 2-D array, or a ``what`` error."""
    try:
        return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: not a numeric CSV {what} ({exc})") from None


def _cmd_eval(args) -> int:
    reg = _load_regulator(args)
    trace = reg.evaluate(args.input)
    if args.trace:
        names = reg.input_var.term_names
        acts = ",".join(
            f"{n}={format_value(g)}" for n, g in zip(names, trace.activations)
        )
        agg = ",".join(format_value(g) for g in trace.aggregated.grades)
        print(f"input: {format_value(trace.input)}")
        print(f"clamped_input: {format_value(trace.clamped_input)}")
        print(f"activations: {acts}")
        print(f"aggregated: {agg}")
        print(f"zero_mass_fallback: {str(trace.zero_mass_fallback).lower()}")
        print(f"output: {format_value(trace.output)}")
    else:
        print(format_value(trace.output))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    reg = _load_regulator(args)
    _write(emit_sweep_data(reg.sweep(args.steps)), args.out)
    return EXIT_OK


def _cmd_mfplot(args) -> int:
    reg = _load_regulator(args)
    for var in (reg.input_var, reg.output_var):
        if var.name == args.var:
            _write(emit_mf_plot_data(var, args.samples), args.out)
            return EXIT_OK
    raise ValidationError(
        f"unknown variable {args.var!r}; config defines "
        f"{reg.input_var.name!r} and {reg.output_var.name!r}"
    )


def _cmd_infer(args) -> int:
    relation = FuzzyRelation(_load_csv(args.relation, "matrix"))
    ap = _load_csv(args.ap, "vector")
    if 1 not in ap.shape:
        raise ParseError(f"{args.ap}: expected a single CSV row or column")
    out = cri(relation, ap.reshape(-1))
    print(",".join(format_value(g) for g in out))
    return EXIT_OK


def _cmd_check(args) -> int:
    load_config(args.config)
    print(f"ok: {args.config}")
    return EXIT_OK


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="controller definition file")


def _add_zero_mass(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--zero-mass",
        choices=[policy.value for policy in ZeroMassPolicy],
        help="override the config's zero-mass policy",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzreg", description="SISO Mamdani fuzzy regulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="compute the crisp command for one input")
    _add_config(p)
    p.add_argument("--input", type=float, required=True, help="crisp input value")
    p.add_argument("--trace", action="store_true", help="print every pipeline stage")
    _add_zero_mass(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="response curve over the input universe")
    _add_config(p)
    p.add_argument("--steps", type=int, required=True, help="number of inputs (>= 2)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_zero_mass(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("mfplot", help="membership curves of one variable as CSV")
    _add_config(p)
    p.add_argument("--var", required=True, help="variable name from the config")
    p.add_argument("--samples", type=int, required=True, help="sample count (>= 2)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_mfplot)

    p = sub.add_parser("infer", help="max-min composition of a relation CSV with a grade vector CSV")
    p.add_argument("--relation", required=True, help="matrix file, one CSV row per matrix row")
    p.add_argument("--ap", required=True, help="grade vector file, single CSV row or column")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("check", help="validate a controller file")
    _add_config(p)
    p.set_defaults(func=_cmd_check)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"fuzzreg: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FuzzyError as exc:
        print(f"fuzzreg: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
