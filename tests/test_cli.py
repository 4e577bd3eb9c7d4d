import json
import math

import pytest

from expseries.cli import main
from expseries.control import control_from_document
from expseries.heat import report_from_document


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSeriesCommands:
    def test_eval(self, capsys):
        code, out = run(capsys, "series", "eval", "--terms", "[[1,0]]", "--t", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"value": 1.0, "errorBound": 0.0}

    def test_expand_single_exponential(self, capsys):
        code, out = run(
            capsys, "series", "expand", "--terms", "[[1,1]]", "--tau", "1", "--order", "3"
        )
        assert code == 0
        doc = json.loads(out)
        e1 = math.exp(-1.0)
        assert doc["coeffs"] == pytest.approx([e1, -e1, e1 / 2, -e1 / 6])
        assert doc["center"] == 1.0

    def test_remainder_sweep_enclosure(self, capsys):
        code, out = run(
            capsys,
            "series",
            "remainder",
            "--terms",
            "[[1,1]]",
            "--tau",
            "1",
            "--t",
            "1.5",
            "--nmax",
            "20",
            "--no-header",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 20
        for _, _, measured, certified in rows:
            assert float(measured) <= float(certified) + 1e-14

    def test_eval_negative_t_with_tail_is_validation_error(self, tmp_path, capsys):
        doc = {
            "terms": [[0.5, 1.0]],
            "tail": {"sumBound": 0.5, "lambdaFloor": 2.0, "weightedBounds": {"0": 0.5}},
        }
        path = tmp_path / "series.json"
        path.write_text(json.dumps(doc))
        code = main(["series", "eval", "--series", str(path), "--t", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "certified tail" in err

    def test_missing_series_is_validation_error(self, capsys):
        code = main(["series", "eval", "--t", "1"])
        assert code == 2

    def test_missing_file_is_io_error(self, capsys):
        code = main(["series", "eval", "--series", "/nonexistent/s.json", "--t", "1"])
        assert code == 1


class TestControlCommands:
    def test_analyze_half_interval(self, capsys):
        code, out = run(
            capsys, "control", "analyze", "--a", "0", "--b", "1/2", "--jmax", "12"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "not-controllable"
        assert doc["blockedPrefix"] == [4, 8, 12]
        assert doc["modulusCharacterization"] == [{"modulus": 4, "residues": [0]}]
        report_from_document(doc)

    def test_analyze_irrational_endpoints(self, capsys):
        code, out = run(
            capsys, "control", "analyze", "--a", "1/4+1/100*sqrt2", "--b", "3/4"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "controllable"

    def test_analyze_endpoints_closer_than_a_double(self, capsys):
        code, out = run(
            capsys, "control", "analyze", "--a=-1+1*sqrt2", "--b", "38613965/93222358"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "controllable"

    @pytest.mark.parametrize(
        "command", [["analyze"], ["observability", "--y", "phi1", "--T", "1", "--samples", "3"]]
    )
    def test_endpoint_starting_with_minus_as_separate_value(self, capsys, command):
        pair = ["--b", "38613965/93222358"]
        code, out = run(capsys, "control", *command, "--a", "-1+1*sqrt2", *pair)
        assert code == 0
        assert (code, out) == run(capsys, "control", *command, "--a=-1+1*sqrt2", *pair)
        if command == ["analyze"]:
            assert json.loads(out)["verdict"] == "controllable"

    def test_negative_number_endpoint_keeps_its_header(self, capsys):
        code, out = run(
            capsys, "control", "observability", "--a", "-0", "--b", "1", "--y", "phi1", "--T", "1"
        )
        assert code == 0
        assert "# command: control observability --a -0 --b 1 " in out

    def test_synthesize_then_simulate(self, tmp_path, capsys):
        ctrl = tmp_path / "control.json"
        code = main(
            [
                "control",
                "synthesize",
                "--target",
                "phi1->0",
                "--a",
                "0",
                "--b",
                "1",
                "--T",
                "1",
                "--N",
                "1",
                "--out",
                str(ctrl),
            ]
        )
        assert code == 0
        doc = json.loads(ctrl.read_text())
        assert doc["predictedError"] < 1e-8
        control_from_document(doc)

        traj = tmp_path / "traj.csv"
        code = main(
            [
                "control",
                "simulate",
                "--control",
                str(ctrl),
                "--a",
                "0",
                "--b",
                "1",
                "--z0",
                "phi1",
                "--z1",
                "0",
                "--out",
                str(traj),
            ]
        )
        assert code == 0
        last = traj.read_text().strip().splitlines()[-1]
        label, value = last.split(",")
        assert label == "terminalError"
        assert float(value) < 1e-8

    def test_blocked_mode_is_domain_error(self, capsys):
        code = main(
            [
                "control",
                "synthesize",
                "--target",
                "phi4->0",
                "--a",
                "0",
                "--b",
                "1/2",
                "--T",
                "1",
                "--N",
                "4",
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "mode 4" in err

    def test_observability_verdict_row(self, capsys):
        code, out = run(
            capsys,
            "control",
            "observability",
            "--a",
            "0",
            "--b",
            "1/2",
            "--y",
            "phi4",
            "--T",
            "1",
            "--no-header",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "identicallyZero,true"

    @pytest.mark.parametrize(
        "command",
        [
            ["observability", "--y", "phi1", "--tol", "nan"],
            ["synthesize", "--target", "phi1->0", "--N", "1", "--eps", "nan"],
        ],
    )
    def test_nan_tolerance_is_validation_error(self, capsys, command):
        code = main(["control", *command, "--a", "0", "--b", "1/2", "--T", "1"])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_bad_exact_string_is_validation_error(self, capsys):
        code = main(["control", "analyze", "--a", "zero", "--b", "1"])
        assert code == 2


class TestDeterminismAndConfig:
    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = [
            "series",
            "remainder",
            "--terms",
            "[[1,1],[0.5,2]]",
            "--tau",
            "1",
            "--t",
            "1.4",
            "--nmax",
            "15",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_emitted_documents_reparse(self, capsys):
        code, out = run(capsys, "control", "analyze", "--a", "3/10", "--b", "7/10")
        assert code == 0
        doc = json.loads(out)
        report = report_from_document(doc)
        from expseries.heat import report_to_document

        assert report_to_document(report) == doc

    def test_config_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jmax": 8}))
        code, out = run(
            capsys,
            "control",
            "analyze",
            "--a",
            "0",
            "--b",
            "1/2",
            "--jmax",
            "999",
            "--config",
            str(cfg),
        )
        assert code == 0
        assert json.loads(out)["jMax"] == 8

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery": 1}))
        code = main(
            ["control", "analyze", "--a", "0", "--b", "1/2", "--config", str(cfg)]
        )
        assert code == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["series", "eval"]) == 2  # --t missing
        assert main(["nonsense"]) == 2

    def test_provenance_header_present_by_default(self, capsys):
        code, out = run(
            capsys,
            "control",
            "observability",
            "--a",
            "0",
            "--b",
            "1",
            "--y",
            "phi1",
            "--T",
            "1",
        )
        assert code == 0
        assert out.startswith("# expseries")
