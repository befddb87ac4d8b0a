"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import generate
import oracle
import run
import sensitivity
import workloads
from fuzzreg import errors
from fuzzreg.regulator import Regulator

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "SRC", ROOT / "src")


def _result(capsys, workload: str, trace: int) -> tuple[dict, str]:
    result = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.3",
                       "--trace", str(trace)], sizes=workloads.TINY)
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1]) == result
    return result, out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(capsys, workload, trace):
    result, out = _result(capsys, workload, trace)
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name in names:
        assert f"{name} = " in out
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "error_rate = 0 " in out


def test_perturbed_output_is_caught(capsys, monkeypatch):
    evaluate = Regulator.evaluate

    def off_by_a_little(self, x):
        trace = evaluate(self, x)
        # 1e-7 of the output span: far inside any plotting precision, but
        # a hundred times the oracle's tolerance
        span = self.output_universe.max - self.output_universe.min
        return dataclasses.replace(trace, output=trace.output + 1e-7 * span)

    monkeypatch.setattr(Regulator, "evaluate", off_by_a_little)
    result, out = _result(capsys, "control_loop", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "error_rate = 1 " in out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_program_allocation_moves_peak_rss(workload):
    # the benchmark's own memory (reference answers, timing buffers) must
    # not hide a program-side allocation made during the timed loop
    base, grown = (sensitivity.run_child(workload, kind, seed=5, seconds=0.3, tiny=True)
                   for kind in ("none", "alloc"))
    assert grown["peak_rss_mb"] - base["peak_rss_mb"] >= 0.8 * sensitivity.ALLOC_MIB


def test_wrong_error_class_counts_as_failed():
    w = workloads.ConfigRoundtrip(5, workloads.TINY)
    slot = next(j for j, doc in enumerate(w.docs) if "expect" in doc)
    cls, path = w.docs[slot]["expect"]
    wrong = errors.ParseError if cls == "ValidationError" else errors.ValidationError
    w.record(slot, wrong(f"{path}: broken"))
    assert (w.checked, w.failed) == (1, 1)
    w.record(slot, ValueError(f"{path}: broken"))
    assert (w.checked, w.failed) == (2, 2)
    w.record(slot, getattr(errors, cls)("no path in this message"))
    assert (w.checked, w.failed) == (3, 3)
    w.record(slot, getattr(errors, cls)(f"{path}: broken"))
    assert (w.checked, w.failed) == (4, 3)
    assert w.invalid_ok == 1


def test_same_seed_same_inputs():
    assert generate.temperature_signal(9, 2000) == generate.temperature_signal(9, 2000)
    assert generate.temperature_signal(9, 2000) != generate.temperature_signal(10, 2000)
    assert generate.sweep_documents(9) == generate.sweep_documents(9)
    assert generate.sweep_documents(9) != generate.sweep_documents(10)
    texts = [d["text"] for d in generate.roundtrip_documents(9)]
    assert texts == [d["text"] for d in generate.roundtrip_documents(9)]
    assert texts != [d["text"] for d in generate.roundtrip_documents(10)]
    assert generate.cli_inputs(9, 5) == generate.cli_inputs(9, 5)


def test_invalid_share_and_kinds():
    docs = generate.roundtrip_documents(3)
    invalid = [d for d in docs if "expect" in d]
    assert len(invalid) == len(generate.INVALID_SLOTS) == 5
    assert {d["expect"][0] for d in invalid} == {"ValidationError", "ParseError"}


def test_oracle_shares_no_program_code():
    source = Path(oracle.__file__).read_text()
    assert "import fuzzreg" not in source and "from fuzzreg" not in source


def test_gapped_controllers_have_gaps_and_covered_ones_do_not():
    for tree in generate.sweep_documents(4, resolutions=(257, 257)):
        ref = oracle.Controller(tree)
        ref.outputs([ref.in_lo + (ref.in_hi - ref.in_lo) * k / 400 for k in range(401)])
        assert (ref.zero_mass_rows > 0) == (tree.get("zero_mass") == "midpoint")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "control_loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
