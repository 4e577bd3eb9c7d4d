import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from expseries.cli import _attach_endpoints, _control_from_document, build_parser, main
from expseries.control import SpectralState
from expseries.exact import ExactReal
from expseries.heat import Actuator, blocked_set, coupling_coefficient
from expseries.simulate import propagate

from test_heat import overlap_is_zero

SRC = Path(__file__).resolve().parents[1] / "src"
# Two terms whose sum overflows a double for small t.
HUGE = "[[1e308,1],[1e308,2]]"


def cancelling_pair(a: str, b: str) -> str:
    """y_100 = 1e-3 / beta_100 and y_101 = -1e-3 / beta_101 as a JSON state:
    two unblocked modes whose sensor outputs cancel at t = 0."""
    act = Actuator.from_strings(a, b)
    coeffs = [0.0] * 101
    coeffs[99] = 1e-3 / coupling_coefficient(act, 100)
    coeffs[100] = -1e-3 / coupling_coefficient(act, 101)
    return json.dumps(coeffs)


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

    def test_tailed_remainder_counts_the_tail(self, tmp_path, capsys):
        # A tail term (1, 1.5) fits this model and moves the series by e^{-1.5} at t = 1.
        path = tmp_path / "series.json"
        path.write_text('{"terms": [[1, 1]], "tail": {"sumBound": 1, "lambdaFloor": 1}}')
        argv = ["--series", str(path), "--t", "1"]
        code, out = run(capsys, "series", "remainder", *argv, "--tau", "1", "--nmax", "3")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert all(float(certified) >= math.exp(-1.5) for *_, certified in rows)
        code, out = run(capsys, "series", "eval", *argv)
        assert code == 0
        error_bound = re.search(r'"errorBound": ([^,\s}]+)', out).group(1)
        # At t = tau the envelope is 0, so both print the same tail bound.
        assert {certified for *_, certified in rows} == {error_bound}

    def test_eval_negative_t_with_tail_is_validation_error(self, tmp_path, capsys):
        doc = {
            "terms": [[0.5, 1.0]],
            "tail": {"sumBound": 0.5, "lambdaFloor": 2.0},
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

    def test_coefficient_beyond_double_range_is_validation_error(self, capsys):
        code = main(["series", "eval", "--terms", '[["1e999", 1]]', "--t", "1"])
        assert code == 2
        assert "coefficient overflows a double" in capsys.readouterr().err

    # Each runs in a subprocess, so that stderr holds all the command prints.
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--terms", "[[1,-1000]]", "--t", "1"],
            ["eval", "--terms", "[[1e308,-1],[1e308,-2]]", "--t", "1"],
            ["eval", "--terms", HUGE, "--t", "0.0001"],
            ["expand", "--terms", HUGE, "--tau", "0.0001", "--order", "3"],
            ["remainder", "--terms", HUGE, "--tau", "0.0001", "--t", "0.0002", "--nmax", "3"],
        ],
        ids=["eval-inf", "eval-inf-sum", "eval-fsum", "expand-fsum", "remainder-fsum"],
    )
    def test_overflowing_result_is_domain_error(self, argv):
        result = subprocess.run(
            [sys.executable, "-m", "expseries.cli", "series", *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "argv, stderr",
        [
            (
                ["eval", "--terms", "[[1,-1000]]", "--t", "1"],
                "error: the series value at t=1.0 overflows a double\n",
            ),
            (
                ["expand", "--terms", "[[1e300,100]]", "--tau", "0.0001", "--order", "120"],
                "error: the expansion around tau=0.0001 to order 120 overflows a double\n",
            ),
            (
                # The terms overflow to opposite infinities, which fsum cannot add.
                ["eval", "--terms", "[[1,-1000],[-1,-1001]]", "--t", "1"],
                "error: the series value at t=1.0 overflows a double\n",
            ),
            (
                # Its partial sums would add opposite infinities (fsum's error, exit 2).
                ["remainder", "--terms", "[[1e300,100]]", "--tau", "0.0001", "--t", "0.00015",
                 "--nmax", "120"],
                "error: the remainder table around tau=0.0001 at t=0.00015 overflows a double\n",
            ),
        ],
        ids=["eval", "expand", "eval-opposite-infinities", "remainder-of-overflowing-expansion"],
    )
    def test_overflow_is_one_error_line_naming_the_input(self, argv, stderr):
        result = subprocess.run(
            [sys.executable, "-m", "expseries.cli", "series", *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == (3, "", stderr)

    def test_exponent_overflow_that_underflows_is_no_error(self, capsys):
        # lambda * t overflows to -inf, and exp(-inf) is the true value's 0.
        code, out = run(capsys, "series", "eval", "--terms", "[[1,1e300]]", "--t", "1e10")
        assert (code, json.loads(out)) == (0, {"value": 0.0, "errorBound": 0.0})

    @pytest.mark.parametrize(
        "terms, tau, t",
        [("[[1,1]]", "1", "1e200"), ("[[1,1e300]]", "1e10", "3e10")],
        ids=["powers-overflow", "after-harmless-overflow"],
    )
    def test_remainder_outside_the_disc_names_the_range(self, capsys, terms, tau, t):
        # The first would sum opposite infinities of (t - tau)^n; in the
        # second, lambda * tau overflows harmlessly before the range is known.
        argv = ["series", "remainder", "--terms", terms, "--tau", tau, "--t", t, "--nmax", "5"]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: t must lie in (0, 2*tau) = (0, ")


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
        assert doc["jMax"] == 12

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

    def test_analyze_endpoints_closer_than_a_double_with_pi(self, capsys):
        # pi - 3 exceeds 0.141592653589793 by 2.4e-16.
        code, out = run(capsys, "control", "analyze", "--a", "0.141592653589793", "--b=-3+1*pi")
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
        assert _control_from_document(doc).coeffs == tuple(doc["coeffs"])

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

    def test_unblocked_mode_with_overlap_rounding_to_zero_is_conditioning_error(self, capsys):
        # Mode 1 is not blocked, but omega is 1e-400 wide: its overlap
        # underflows to 0.0 in double precision.
        tiny = "1/1" + "0" * 400
        code = main(["control", "synthesize", "--target", "phi3->0", "--a", "0",
                     "--b", tiny, "--T", "1", "--N", "3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            f"error: mode 1 is not blocked, but the overlap of actuator "
            f"omega=(0, {tiny}) with phi_1 rounds to 0.0 in double precision\n"
        )

    def test_narrow_unblocked_mode_is_steered(self, capsys):
        # beta_3 is about -2.96e-24: tiny, but a double like any other.
        a, b = "1/3", "333333333334/1000000000000"
        code, out = run(capsys, "control", "synthesize", "--target", "phi3->0",
                        "--a", a, "--b", b, "--T", "1", "--N", "3")
        assert code == 0
        control = _control_from_document(json.loads(out))
        trajectory = propagate(SpectralState((0.0, 0.0, 1.0)), control,
                               Actuator.from_strings(a, b), 1.0)
        # Free decay alone leaves exp(-9 pi^2) = 3.6e-39 in mode 3.
        assert abs(trajectory.states[-1][2]) <= 1e-12 * math.exp(-9 * math.pi**2)

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
        "a, b, y",
        [
            # The output peaks at 7.3e-6 between the first two nodes of a
            # 129-node sampled test.
            ("0", "1/10*sqrt2", cancelling_pair("0", "1/10*sqrt2")),
            # Mode 3 is not blocked; its overlap is about -2.96e-24.
            ("1/3", "333333333334/1000000000000", "[0,0,1]"),
            # An output far below any absolute tolerance.
            ("0", "1", "[1e-300]"),
        ],
        ids=["cancelling-pair", "overlap-rounding-to-zero", "tiny-state"],
    )
    def test_observable_state_is_not_identically_zero(self, capsys, a, b, y):
        code, out = run(capsys, "control", "observability", "--a", a, "--b", b, "--y", y,
                        "--T", "1", "--no-header")
        assert code == 0
        assert out.splitlines()[-1] == "identicallyZero,false"

    def test_overflowing_sensor_output_is_domain_error(self):
        # Each term is finite; their sum at t = 0 is not.
        result = subprocess.run(
            [sys.executable, "-m", "expseries.cli", "control", "observability", "--a", "0",
             "--b", "1", "--y", "[1.7e308,0,1.7e308]", "--T", "1", "--samples", "2"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            3, "", "error: the sensor output on [0, 1.0] overflows a double\n"
        )

    def test_overflowing_trajectory_is_domain_error(self, tmp_path):
        # e^{nu (T - t)} with nu = 1000 overflows, and the states become inf and NaN.
        control = tmp_path / "c.json"
        control.write_text('{"kind":"lumped","T":1,"exponents":[1e3],"coeffs":[1e300]}')
        out = tmp_path / "sim.csv"
        result = subprocess.run(
            [sys.executable, "-m", "expseries.cli", "control", "simulate", "--control",
             str(control), "--a", "0", "--b", "1", "--z0", "phi1", "--z1", "0", "--steps", "16",
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            3, "", "error: the trajectory on [0, 1.0] overflows a double\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, stderr",
        [
            (
                "--target [1e200,0,0]->0 --a 0 --b 1 --T 1 --N 1",
                "error: the control for [1e200,0,0]->0 on [0, 1.0] overflows a double\n",
            ),
            (
                "--target [1,0,1e200]->0 --a 0 --b 1 --T 1 --N 1",
                "error: the control for [1,0,1e200]->0 on [0, 1.0] overflows a double\n",
            ),
            (
                "--kind distributed --target [1e200,0,0]->0 --a 0 --b 1/2 --T 0.001 --N 2",
                "error: the control for [1e200,0,0]->0 on [0, 0.001] overflows a double\n",
            ),
        ],
        ids=["energy", "predicted-error", "distributed"],
    )
    def test_overflowing_control_is_domain_error(self, tmp_path, options, stderr):
        # The energy, the predicted error or both overflow: no document holds Infinity.
        out = tmp_path / "c.json"
        result = subprocess.run(
            [sys.executable, "-m", "expseries.cli", "control", "synthesize",
             *shlex.split(options), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == (3, "", stderr)
        assert not out.exists()

    @settings(deadline=None, max_examples=40)
    @given(
        z0=st.lists(st.sampled_from(["0", "1", "1e100", "-1e200", "1e300", "1.7e308"]),
                    min_size=1, max_size=3),
        kind=st.sampled_from([["--b", "1", "--T", "1"], ["--kind", "distributed", "--b", "1/2",
                                                       "--T", "0.001"]]),
        n_modes=st.sampled_from(["1", "2"]),
    )
    def test_every_written_control_is_json_that_simulate_reads(self, tmp_path_factory, z0,
                                                               kind, n_modes):
        # Synthesis overflows (exit 3, nothing written) or writes RFC 8259 JSON, with
        # no Infinity, that simulate reads; simulate may still overflow (exit 3).
        z0 = f"[{','.join(z0)}]"
        ctrl = tmp_path_factory.mktemp("roundtrip") / "c.json"
        code = main(["control", "synthesize", "--target", f"{z0}->0", "--a", "0", *kind,
                     "--N", n_modes, "--out", str(ctrl)])
        assert code in (0, 3)
        assert ctrl.exists() == (code == 0)
        if code == 0:

            def refuse(constant):
                raise AssertionError(f"{constant} is not RFC 8259 JSON")

            json.loads(ctrl.read_text(), parse_constant=refuse)
            b = kind[kind.index("--b") + 1]
            simulated = main(["control", "simulate", "--control", str(ctrl), "--a", "0", "--b", b,
                              "--z0", z0, "--z1", "0", "--no-header"])
            assert simulated in (0, 3)

    @settings(deadline=None)
    @given(data=st.data())
    def test_verdict_is_every_nonzero_coordinate_blocked(self, data):
        den = st.integers(1, 24)
        qa, qb = data.draw(den), data.draw(den)
        a = Fraction(data.draw(st.integers(0, qa - 1)), qa)
        b = Fraction(data.draw(st.integers(1, qb)), qb)
        assume(a < b)
        act = Actuator(ExactReal(a), ExactReal(b))
        # Sparse states, drawn mostly on blocked modes so both verdicts occur.
        n = data.draw(st.integers(1, 16))
        blocked = [j for j in range(1, n + 1) if overlap_is_zero(act, j)]
        support = data.draw(st.sets(st.sampled_from(range(1, n + 1)), max_size=2))
        if blocked:
            support |= data.draw(st.sets(st.sampled_from(blocked), max_size=3))
        coeffs = [data.draw(st.sampled_from([1.0, -2.5, 1e-300])) if j in support else 0.0
                  for j in range(1, n + 1)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["control", "observability", "--a", str(a), "--b", str(b), "--y",
                         json.dumps(coeffs), "--T", "1", "--samples", "2", "--no-header"])
        expected = all(overlap_is_zero(act, j) for j in support)
        assert code == 0
        assert out.getvalue().splitlines()[-1] == f"identicallyZero,{str(expected).lower()}"

    @pytest.mark.parametrize(
        "command",
        [
            ["observability", "--y", "phi1", "--T", "nan"],
            ["synthesize", "--target", "phi1->0", "--N", "1", "--T", "1", "--reg", "nan"],
        ],
    )
    def test_nan_tolerance_is_validation_error(self, capsys, command):
        code = main(["control", *command, "--a", "0", "--b", "1/2"])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_bool_state_coefficient_is_validation_error(self, capsys):
        code = main(
            ["control", "observability", "--a", "0", "--b", "1/2", "--y", "[true, false, 1]", "--T", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must be a number, got a bool" in captured.err

    def test_bad_exact_string_is_validation_error(self, capsys):
        code = main(["control", "analyze", "--a", "zero", "--b", "1"])
        assert code == 2

    @pytest.mark.parametrize(
        "a, b, text",
        [
            ("1/0", "1", "1/0"),
            ("0", "1/2+1/0*sqrt2", "1/2+1/0*sqrt2"),
            ("0", "1/0*sqrt2", "1/0*sqrt2"),
        ],
        ids=["rational", "irrational-part", "irrational-only"],
    )
    def test_zero_denominator_is_validation_error(self, capsys, a, b, text):
        code = main(["control", "analyze", "--a", a, "--b", b])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: cannot parse exact number: {text!r}\n"

    @pytest.mark.parametrize("kind", [[], ["--kind", "distributed"]])
    @pytest.mark.parametrize("jmax", [["--jmax", "-5"], ["--jmax=-5"], ["--jmax", "0"]])
    def test_nonpositive_jmax_is_validation_error(self, capsys, kind, jmax):
        code = main(["control", "analyze", "--a", "0", "--b", "1/2", *kind, *jmax])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "j_max must be at least 1" in captured.err

    @pytest.mark.parametrize("field, value", [("exponents", [math.nan]), ("T", math.nan)])
    def test_nonfinite_control_document_is_validation_error(
        self, tmp_path, capsys, field, value
    ):
        doc = {"kind": "lumped", "T": 1.0, "exponents": [-1.0], "coeffs": [0.5]}
        doc[field] = value
        path = tmp_path / "control.json"
        path.write_text(json.dumps(doc))  # json writes NaN, and json.loads reads it
        code = main(
            ["control", "simulate", "--control", str(path), "--a", "0", "--b", "1",
             "--z0", "phi1", "--z1", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must be" in captured.err


SERIES_DOC = {
    "terms": [[1, 1], [0.5, 2]],
    "tail": {"sumBound": 0.125, "lambdaFloor": 3},
}
CONTROL_DOC = {"kind": "lumped", "T": 1.0, "exponents": [-1.0], "coeffs": [0.5]}
SIMULATE = ["control", "simulate", "--a", "0", "--b", "1/2", "--z0", "phi1", "--steps", "4"]
MISSING = object()  # as a value in a change, deletes the key
DOCUMENT = ""  # as a field of ``mutated``, the whole document


def edited(base: dict, change: dict) -> dict:
    return {key: value for key, value in {**base, **change}.items() if value is not MISSING}

# Small numbers, so that a document's structure is under test and not overflow.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from((0.5, -0.25, 1.5))
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def mutated(base: dict, fields, data):
    """``base`` with each field of a nonempty subset of ``fields`` deleted or
    given a random JSON value; ``kind`` also draws the two control classes.

    The field ``DOCUMENT`` replaces the whole document with a non-object.
    ``sumBound`` and ``lambdaFloor`` sit inside ``tail``, so they must come
    before ``tail``, and ``DOCUMENT`` comes last.
    """
    doc = json.loads(json.dumps(base))
    chosen = data.draw(st.sets(st.sampled_from(fields), min_size=1))
    for field in (f for f in fields if f in chosen):
        if field == DOCUMENT:
            return data.draw(json_values.filter(lambda value: not isinstance(value, dict)))
        values = json_values | st.just(MISSING)
        if field == "kind":
            values = st.sampled_from(["lumped", "distributed"]) | values
        parent = doc["tail"] if field in ("sumBound", "lambdaFloor") else doc
        value = data.draw(values)
        if value is MISSING:
            del parent[field]
        else:
            parent[field] = value
    return doc


class TestDocumentShapes:
    @given(data=st.data())
    def test_random_series_fields_never_escape_main(self, tmp_path_factory, data):
        doc = mutated(SERIES_DOC, ("sumBound", "lambdaFloor", "terms", "tail", DOCUMENT), data)
        path = tmp_path_factory.mktemp("series") / "series.json"
        path.write_text(json.dumps(doc))
        assert main(["series", "eval", "--t", "1", "--series", str(path)]) in (0, 2, 3)

    @given(data=st.data())
    def test_random_control_fields_never_escape_main(self, tmp_path_factory, data):
        doc = mutated(CONTROL_DOC, ("kind", "T", "exponents", "coeffs", DOCUMENT), data)
        path = tmp_path_factory.mktemp("control") / "control.json"
        path.write_text(json.dumps(doc))
        assert main([*SIMULATE, "--control", str(path)]) in (0, 2, 3)

    @pytest.mark.parametrize("terms", ['["12"]', "[[1,2,3]]", "[[1]]", "12", '{"1": 2}'])
    def test_term_that_is_not_a_pair_is_validation_error(self, capsys, terms):
        code = main(["series", "eval", "--terms", terms, "--t", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: 'terms' must be")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"terms": ["1"]}, "error: 'terms' must be"),
            ({"tail": [1, 2]}, "error: 'tail' must be"),
            ({"tail": {**SERIES_DOC["tail"], "sumBound": [1]}}, "error: sumBound must be a number"),
            ({"terms": MISSING}, "error: series document lacks 'terms'"),
            ({"tail": {"lambdaFloor": 3}}, "error: 'tail' lacks 'sumBound'"),
            ({"tail": {"sumBound": 0.125}}, "error: 'tail' lacks 'lambdaFloor'"),
        ],
    )
    def test_series_document_of_wrong_shape_is_validation_error(
        self, tmp_path, capsys, change, message
    ):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(edited(SERIES_DOC, change)))
        code = main(["series", "eval", "--t", "1", "--series", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(message)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"exponents": "98", "coeffs": "12"}, "error: control 'exponents' must be a JSON array"),
            ({"coeffs": [True]}, "error: control coefficient must be a number, got a bool"),
            ({"T": True}, "error: T must be a number, got a bool"),
            ({"energy": "abc"}, "error: energy does not parse as decimal or rational"),
            ({"momentResidual": [1, 2]}, "error: momentResidual must be a number"),
            ({"gramCondition": True}, "error: gramCondition must be a number, got a bool"),
            ({"energy": math.inf}, "error: energy must be finite"),
            ({"kind": MISSING}, "error: control document lacks 'kind'"),
            ({"T": MISSING}, "error: control document lacks 'T'"),
            ({"coeffs": MISSING}, "error: control document lacks 'coeffs'"),
        ],
    )
    def test_control_document_of_wrong_shape_is_validation_error(
        self, tmp_path, capsys, change, message
    ):
        path = tmp_path / "control.json"
        path.write_text(json.dumps(edited(CONTROL_DOC, change)))
        code = main([*SIMULATE, "--control", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(message)

    @pytest.mark.parametrize(
        "document, base, command",
        [
            ("series", SERIES_DOC, ["series", "eval", "--t", "1", "--series"]),
            ("control", CONTROL_DOC, [*SIMULATE, "--control"]),
        ],
        ids=["series", "control"],
    )
    def test_document_that_is_not_an_object_is_validation_error(
        self, tmp_path, capsys, document, base, command
    ):
        path = tmp_path / "document.json"
        path.write_text(json.dumps([base]))
        code = main([*command, str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {document} document must be a JSON object\n"

    def test_absent_control_diagnostics_read_as_none(self):
        control = _control_from_document(CONTROL_DOC)
        assert (control.moment_residual, control.energy, control.gram_condition) == (None,) * 3

    @pytest.mark.parametrize("jmax, expected", [([], 256), (["--jmax", "300"], 300)])
    def test_distributed_report_names_the_requested_modes(self, capsys, jmax, expected):
        code, out = run(
            capsys, "control", "analyze", "--kind", "distributed", "--a", "0", "--b", "1/2", *jmax
        )
        assert (code, json.loads(out)["jMax"]) == (0, expected)

    def test_distributed_synthesis_takes_regularization(self, capsys):
        argv = ["control", "synthesize", "--kind", "distributed", "--a", "3/10", "--b", "7/10",
                "--T", "1", "--N", "2", "--target", "phi1->0"]
        code, plain = run(capsys, *argv)
        assert (code, run(capsys, *argv, "--reg", "0")) == (0, (0, plain))
        code, damped = run(capsys, *argv, "--reg", "5")
        assert code == 0 and damped != plain
        plain, damped = json.loads(plain), json.loads(damped)
        assert damped["energy"] < plain["energy"]
        assert damped["momentResidual"] > plain["momentResidual"]
        assert damped["gramCondition"] == plain["gramCondition"]

    def test_narrow_distributed_actuator_is_controllable(self, capsys):
        code, out = run(
            capsys, "control", "analyze", "--kind", "distributed",
            "--a", "1/2", "--b", "5000001/10000000",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "controllable"


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

    @pytest.mark.parametrize("spelling", ["--out={}", "--ou={}", "--ou {}", "--o {}"])
    def test_output_path_is_not_echoed(self, tmp_path, spelling):
        # Every spelling of --out drops the path from the provenance header.
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["control", "observability", "--a", "0", "--b", "1/2", "--y", "phi4", "--T", "1"]
        assert main(argv + spelling.format(out1).split()) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[1] == "# command: " + " ".join(argv)

    def test_emitted_documents_reparse(self, capsys):
        code, out = run(capsys, "control", "analyze", "--a", "3/10", "--b", "7/10")
        assert code == 0
        report = blocked_set(Actuator.from_strings("3/10", "7/10"), 256)
        assert json.loads(out) == {
            "verdict": report.verdict,
            "blockedPrefix": list(report.blocked_prefix),
            "modulusCharacterization": [{"modulus": m, "residues": [0]} for m in report.moduli],
            "jMax": report.j_max,
            "subspace": report.subspace,
        }

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


class TestOptions:
    """Every option a subcommand takes is one that can change its output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "eval", "--terms", "[[1,1]]", "--t", "1", "--no-header"],
            ["series", "expand", "--terms", "[[1,1]]", "--tau", "1", "--order", "2", "--no-header"],
            ["control", "analyze", "--a", "0", "--b", "1", "--no-header"],
            ["control", "synthesize", "--target", "phi1->0", "--a", "0", "--b", "1",
             "--T", "1", "--N", "1", "--no-header"],
            [*SIMULATE, "--control", "control.json", "--kind", "lumped"],
            [*SIMULATE, "--control", "control.json", "--T", "1"],
            ["control", "observability", "--a", "0", "--b", "1", "--y", "phi1", "--T", "1",
             "--kind", "lumped"],
            ["control", "synthesize", "--target", "phi1->0", "--a", "0", "--b", "1",
             "--T", "1", "--N", "1", "--eps", "1e-6"],
            ["control", "observability", "--a", "0", "--b", "1", "--y", "phi1", "--T", "1",
             "--tol", "1e-9"],
            ["control", "synthesize", "--target", "phi1->0", "--a", "0", "--b", "1",
             "--T", "1", "--N", "1", "--z0", "phi1"],
            ["control", "synthesize", "--target", "phi1->0", "--a", "0", "--b", "1",
             "--T", "1", "--N", "1", "--z1", "0"],
        ],
        ids=["eval-no-header", "expand-no-header", "analyze-no-header",
             "synthesize-no-header", "simulate-kind", "simulate-T", "observability-kind",
             "synthesize-eps", "observability-tol", "synthesize-z0", "synthesize-z1"],
    )
    def test_removed_option_is_usage_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "unrecognized arguments" in captured.err

    def test_option_count(self):
        # Adding an option must change these numbers, in plain sight in its diff.
        counts = {
            " ".join(path): sum(1 for a in sub._actions if a.option_strings and a.dest != "help")
            for path, sub in SUBCOMMANDS.items()
        }
        assert counts == {
            "series eval": 4, "series expand": 5, "series remainder": 7,
            "control analyze": 5, "control synthesize": 8, "control simulate": 8,
            "control observability": 7,
        }
        assert sum(counts.values()) == 44

    def test_every_subcommand_has_a_readme_command(self):
        assert {tuple(argv[:2]) for argv in README_COMMANDS} == set(SUBCOMMANDS)

    def test_handlers_read_every_option_on_the_readme_commands(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        unread = {}
        # In order: simulate reads the control.json that synthesize writes.
        for argv in README_COMMANDS:
            argv = _attach_endpoints(argv)
            args = ReadRecorder(**vars(build_parser().parse_args(argv)))
            args.handler(args, argv)
            subcommand = SUBCOMMANDS[tuple(argv[:2])]
            options = {a.dest for a in subcommand._actions if a.option_strings} - {"help"}
            missing = options - args._read
            if missing:
                unread[" ".join(argv)] = sorted(missing)
        capsys.readouterr()
        assert unread == {}


class ReadRecorder(argparse.Namespace):
    """A parsed namespace that notes the name of each attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.__dict__["_read"] = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def leaf_parsers(parser, path=()):
    """``(path, parser)`` for each subcommand, such as ``("series", "eval")``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_parsers(sub, (*path, name))
            return
    yield path, parser


SUBCOMMANDS = dict(leaf_parsers(build_parser()))
README_COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(
        r"^```sh\n(.*?)^```",
        (SRC.parent / "README.md").read_text(encoding="utf-8"),
        flags=re.M | re.S,
    )
    for line in block.splitlines()
    if line.startswith("expseries ")
]
