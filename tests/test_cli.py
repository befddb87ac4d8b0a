"""Command line surface: subcommands, data streams and exit codes."""

import numpy as np
import pytest

from fuzzreg import reference_config_path
from fuzzreg.cli import cli_main

REF = str(reference_config_path())

GAP_CONFIG = """
input:
  name: x
  range: [0.0, 100.0]
  samples: 11
  terms:
    - {name: low, type: triangular, params: [0.0, 0.0, 25.0]}
    - {name: high, type: triangular, params: [75.0, 100.0, 100.0]}
output:
  name: y
  range: [0.0, 1.0]
  samples: 11
  terms:
    - {name: small, type: triangular, params: [0.0, 0.25, 0.5]}
    - {name: big, type: triangular, params: [0.5, 0.75, 1.0]}
rules:
  - {if: low, then: big}
  - {if: high, then: small}
"""

WORKED_RELATION = (
    "0,0,0.1,0.5,1\n"
    "0,0,0.1,0.5,0.5\n"
    "0,0,0.1,0.1,0.1\n"
    "0,0,0,0,0\n"
    "0,0,0,0,0\n"
)
WORKED_AP = "1,0.5,0.1,0,0\n"


@pytest.fixture
def gap_config(tmp_path):
    path = tmp_path / "gap.yaml"
    path.write_text(GAP_CONFIG)
    return str(path)


@pytest.fixture
def worked_files(tmp_path):
    rel = tmp_path / "relation.csv"
    rel.write_text(WORKED_RELATION)
    ap = tmp_path / "ap.csv"
    ap.write_text(WORKED_AP)
    return str(rel), str(ap)


class TestEval:
    def test_midpoint_input(self, capsys):
        assert cli_main(["eval", "--config", REF, "--input", "50"]) == 0
        assert capsys.readouterr().out == "0.5\n"

    def test_clamping_matches_edge(self, capsys):
        assert cli_main(["eval", "--config", REF, "--input", "-5"]) == 0
        low = capsys.readouterr().out
        assert cli_main(["eval", "--config", REF, "--input", "0"]) == 0
        assert capsys.readouterr().out == low

    def test_trace_lists_stages(self, capsys):
        assert cli_main(["eval", "--config", REF, "--input", "0.7", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "activations: TFJ=0.972,TJ=0.028" in out
        assert "aggregated:" in out
        assert "clamped_input: 0.7" in out
        assert out.strip().endswith("output: 0.904988")

    def test_zero_mass_exits_2(self, gap_config, capsys):
        assert cli_main(["eval", "--config", gap_config, "--input", "50"]) == 2
        err = capsys.readouterr().err
        assert "error" in err

    def test_zero_mass_midpoint_override(self, gap_config, capsys):
        code = cli_main(
            ["eval", "--config", gap_config, "--input", "50", "--zero-mass", "midpoint"]
        )
        assert code == 0
        assert capsys.readouterr().out == "0.5\n"

    def test_non_finite_input_exits_2(self, capsys):
        assert cli_main(["eval", "--config", REF, "--input", "nan"]) == 2
        capsys.readouterr()

    def test_deterministic_output(self, capsys):
        cli_main(["eval", "--config", REF, "--input", "0.7", "--trace"])
        first = capsys.readouterr().out
        cli_main(["eval", "--config", REF, "--input", "0.7", "--trace"])
        assert capsys.readouterr().out == first


class TestSweep:
    def test_writes_csv_file(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = cli_main(["sweep", "--config", REF, "--steps", "5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "input,output"
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "0"
        assert lines[-1].split(",")[0] == "100"

    def test_stdout_by_default(self, capsys):
        assert cli_main(["sweep", "--config", REF, "--steps", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "input,output"
        assert len(lines) == 4

    def test_bad_steps_exits_1(self, capsys):
        assert cli_main(["sweep", "--config", REF, "--steps", "1"]) == 1
        capsys.readouterr()

    def test_zero_mass_gap_exits_2(self, gap_config, capsys):
        assert cli_main(["sweep", "--config", gap_config, "--steps", "3"]) == 2
        assert "50" in capsys.readouterr().err


class TestMfplot:
    def test_shape_and_header(self, capsys):
        code = cli_main(["mfplot", "--config", REF, "--var", "Temperature", "--samples", "101"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,TFJ,TJ,TM,TI,TFI"
        assert len(lines) == 102

    def test_grades_stay_in_unit_interval(self, capsys):
        cli_main(["mfplot", "--config", REF, "--var", "Command", "--samples", "51"])
        lines = capsys.readouterr().out.splitlines()[1:]
        for line in lines:
            values = [float(v) for v in line.split(",")]
            assert all(0.0 <= v <= 1.0 for v in values[1:])

    def test_peak_rows_reach_one(self, capsys):
        cli_main(["mfplot", "--config", REF, "--var", "Temperature", "--samples", "101"])
        lines = capsys.readouterr().out.splitlines()
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        for x, column in (("0", 0), ("25", 1), ("50", 2), ("75", 3), ("100", 4)):
            assert float(rows[x][column]) == 1.0

    def test_unknown_variable_exits_1(self, capsys):
        code = cli_main(["mfplot", "--config", REF, "--var", "Pressure", "--samples", "11"])
        assert code == 1
        assert "Pressure" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        cli_main(["mfplot", "--config", REF, "--var", "Command", "--samples", "21"])
        first = capsys.readouterr().out
        cli_main(["mfplot", "--config", REF, "--var", "Command", "--samples", "21"])
        assert capsys.readouterr().out == first


class TestInfer:
    def test_worked_example(self, worked_files, capsys):
        rel, ap = worked_files
        assert cli_main(["infer", "--relation", rel, "--ap", ap]) == 0
        out = capsys.readouterr().out.strip()
        assert [float(v) for v in out.split(",")] == [0.0, 0.0, 0.1, 0.5, 1.0]

    def test_matches_library_cri(self, worked_files, capsys):
        from fuzzreg import cri

        rel, ap = worked_files
        cli_main(["infer", "--relation", rel, "--ap", ap])
        out = [float(v) for v in capsys.readouterr().out.strip().split(",")]
        expected = cri(
            np.array([row.split(",") for row in WORKED_RELATION.splitlines()], float),
            np.array(WORKED_AP.strip().split(","), float),
        )
        assert out == expected.tolist()

    def test_ap_as_a_row_or_a_column(self, tmp_path, worked_files, capsys):
        rel, ap = worked_files
        column = tmp_path / "column.csv"
        column.write_text(WORKED_AP.replace(",", "\n"))
        assert cli_main(["infer", "--relation", rel, "--ap", ap]) == 0
        row_out = capsys.readouterr().out
        assert cli_main(["infer", "--relation", rel, "--ap", str(column)]) == 0
        assert capsys.readouterr().out == row_out

    def test_ap_matrix_exits_1(self, tmp_path, worked_files, capsys):
        rel, _ = worked_files
        square = tmp_path / "square.csv"
        square.write_text("1,0\n0,1\n")
        assert cli_main(["infer", "--relation", rel, "--ap", str(square)]) == 1
        assert "expected a single CSV row or column" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, tmp_path, worked_files, capsys):
        rel, _ = worked_files
        short = tmp_path / "short.csv"
        short.write_text("1,0\n")
        assert cli_main(["infer", "--relation", rel, "--ap", str(short)]) == 2
        capsys.readouterr()

    def test_bad_csv_exits_1(self, tmp_path, worked_files, capsys):
        _, ap = worked_files
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,three\n")
        assert cli_main(["infer", "--relation", str(bad), "--ap", ap]) == 1
        capsys.readouterr()

    def test_out_of_range_grades_exit_1(self, tmp_path, worked_files, capsys):
        rel, _ = worked_files
        hot = tmp_path / "hot.csv"
        hot.write_text("2,0,0,0,0\n")
        assert cli_main(["infer", "--relation", rel, "--ap", str(hot)]) == 1
        capsys.readouterr()


class TestCheck:
    def test_reference_config_is_valid(self, capsys):
        assert cli_main(["check", "--config", REF]) == 0
        capsys.readouterr()

    def test_broken_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(GAP_CONFIG.replace("triangular", "wedge"))
        assert cli_main(["check", "--config", str(bad)]) == 1
        assert "wedge" in capsys.readouterr().err

    def test_degenerate_output_resolution_exits_1(self, tmp_path, capsys):
        # a million samples over a 1e-12 range are spaced below one ulp
        text = GAP_CONFIG + "output_resolution: 1000000\n"
        for old, new in [
            ("range: [0.0, 1.0]\n  samples: 11", "range: [1.0, 1.000000000001]\n  samples: 2"),
            ("triangular, params: [0.0, 0.25, 0.5]", "zshoulder, params: [1.0, 1.000000000001]"),
            ("triangular, params: [0.5, 0.75, 1.0]", "sshoulder, params: [1.0, 1.000000000001]"),
        ]:
            assert old in text
            text = text.replace(old, new)
        bad = tmp_path / "narrow.yaml"
        bad.write_text(text)
        assert cli_main(["check", "--config", str(bad)]) == 1
        assert "output_resolution: sample spacing underflows" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert cli_main(["check", "--config", str(tmp_path / "nope.yaml")]) == 1
        capsys.readouterr()

    def test_non_utf8_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "latin1.yaml"
        bad.write_bytes(GAP_CONFIG.replace("name: x", "name: caf\xe9").encode("latin-1"))
        assert cli_main(["check", "--config", str(bad)]) == 1
        assert "not UTF-8" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli_main([]) == 64
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 64
        capsys.readouterr()

    def test_missing_required_option(self, capsys):
        assert cli_main(["eval", "--config", REF]) == 64
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "eval" in capsys.readouterr().out
