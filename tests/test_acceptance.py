"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math

import numpy as np
import pytest

from expseries.cli import main as cli_main
from expseries.control import (
    BlockedModeError,
    ControlFunction,
    SpectralState,
    synthesize_lumped,
)
from expseries.heat import (
    Actuator,
    ControllabilityReport,
    blocked_set,
    coupling_coefficient,
)
from expseries.series import DirichletSeries, evaluate
from expseries.simulate import (
    project_onto_v,
    propagate,
    verify_control,
)
from expseries.taylor import expand, partial_sums, remainder_bound
from expseries.uniqueness import SampledSignal, is_identically_zero, peel_leading

from conftest import random_series, well_scaled_series
from test_heat import closed_form_overlap, overlap_is_zero, random_rational_actuator
from test_simulate import sensor_series


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion} PASS: {message}")


def test_criterion_01_taylor_soundness():
    # 25 random series (<= 40 terms, lambda in [0.1, 100]), tau in {0.3, 1, 3},
    # t sampled in (0.05 tau, 1.95 tau), n in 1..30: measured remainder never
    # exceeds the certificate (1e-14 absolute slack).
    rng = np.random.default_rng(101)
    checks = 0
    worst = -math.inf
    for _ in range(25):
        s = random_series(rng, max_terms=40, lam_range=(0.1, 100.0))
        for tau in (0.3, 1.0, 3.0):
            expansion = expand(s, tau, 30)
            for t in rng.uniform(0.05 * tau, 1.95 * tau, size=5):
                truth = evaluate(s, float(t)).value
                partials = partial_sums(expansion, float(t))
                for n in range(1, 31):
                    measured = abs(truth - partials[n])
                    bound = remainder_bound(expansion, n, float(t)).bound
                    assert measured <= bound + 1e-14
                    worst = max(worst, measured - bound)
                    checks += 1
    report(1, f"{checks} enclosure checks, worst margin {worst:.3e} <= 1e-14")


def test_criterion_02_stirling_decay_rate():
    # sup_n a_n tau^n sqrt(2 pi n) <= S0 (1 + 1e-12) over the same corpus.
    rng = np.random.default_rng(101)
    worst_ratio = 0.0
    for _ in range(25):
        s = random_series(rng, max_terms=40, lam_range=(0.1, 100.0))
        for tau in (0.3, 1.0, 3.0):
            expansion = expand(s, tau, 30)
            s0 = expansion.sum_abs_alpha
            for n in range(1, 31):
                scaled = expansion.coeff_bounds[n] * tau**n * math.sqrt(2 * math.pi * n)
                assert scaled <= s0 * (1.0 + 1e-12)
                worst_ratio = max(worst_ratio, scaled / s0)
    report(2, f"sup a_n tau^n sqrt(2 pi n) / S0 = {worst_ratio:.6f} <= 1 + 1e-12")


def test_criterion_03_coefficient_correctness():
    # b_1, b_2 against central finite differences, step 1e-4, rel error < 1e-5.
    rng = np.random.default_rng(202)
    h = 1e-4
    worst = 0.0
    for _ in range(10):
        s = well_scaled_series(rng)
        tau = 1.0
        expansion = expand(s, tau, 2)
        f = lambda t: evaluate(s, t).value
        d1 = (f(tau + h) - f(tau - h)) / (2 * h)
        d2 = (f(tau + h) - 2 * f(tau) + f(tau - h)) / h**2
        e1 = abs(expansion.coeffs[1] - d1) / abs(d1)
        e2 = abs(expansion.coeffs[2] - d2 / 2) / abs(d2 / 2)
        assert e1 < 1e-5 and e2 < 1e-5
        worst = max(worst, e1, e2)
    report(3, f"10 series, worst relative error {worst:.3e} < 1e-5")


def test_criterion_05_vanishing_and_peeling():
    # Zero series vanish; live heat modes do not; peeling recovers synthetic
    # coefficients at gap 1 with noise 1e-6 to 1e-4 absolute.
    zero = DirichletSeries([(0.0, (j * math.pi) ** 2) for j in range(1, 7)])
    assert is_identically_zero(zero, 1.0, 1e-12)

    act = Actuator.from_strings("0", "1")
    live = 0
    for j in range(1, 9):
        beta = coupling_coefficient(act, j)
        if beta == 0.0:
            continue
        single = DirichletSeries([(beta, (j * math.pi) ** 2)])
        assert not is_identically_zero(single, 1.0, 1e-9)
        live += 1

    rng = np.random.default_rng(404)
    lams = [1.0, 2.0, 3.0]
    alphas = [1.2, -0.7, 0.5]
    t = np.linspace(0.0, 6.0, 400)
    values = sum(a * np.exp(-l * t) for a, l in zip(alphas, lams))
    values = values + rng.standard_normal(len(t)) * 1e-6
    signal = SampledSignal(t.tolist(), values.tolist(), 6.0)
    result = peel_leading(signal, lams, 3)
    errors = [abs(a_est - a) for (a_est, _), a in zip(result.recovered, alphas)]
    assert max(errors) < 1e-4
    report(
        5,
        f"zero verdict true, {live} live modes false, peel max error "
        f"{max(errors):.2e} < 1e-4 at noise 1e-6",
    )


def test_criterion_06_mod_four_law(capsys):
    act = Actuator.from_strings("0", "1/2")
    for j in range(1, 10_001):
        assert overlap_is_zero(act, j) == (j % 4 == 0)

    code = cli_main(["control", "analyze", "--a", "0", "--b", "1/2", "--jmax", "12"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["modulusCharacterization"] == [{"modulus": 4, "residues": [0]}]
    with capsys.disabled():
        report(6, "j <= 10^4 exact iff j = 0 (mod 4); CLI emits modulus 4, residue {0}")


def test_criterion_07_case_one_verdict():
    irrational = Actuator.from_strings("1/4+1/100*sqrt2", "3/4")
    rep = blocked_set(irrational, 256)
    assert rep.verdict == "controllable"
    assert rep.blocked_prefix == ()

    rng = np.random.default_rng(505)
    disagreements = 0
    for _ in range(20):
        act = random_rational_actuator(rng)
        for j in range(1, 257):
            exact_zero = overlap_is_zero(act, j)
            float_zero = abs(closed_form_overlap(act, j)) < 1e-12
            disagreements += exact_zero != float_zero
    assert disagreements == 0
    report(7, "irrational actuator: I empty up to 256; 20 rational actuators: 0 disagreements")


def test_criterion_08_moment_method_steering():
    # Kill the first six modes of z0 = sum phi_j / j with omega = (0, 1).
    # Even modes are blocked (zero overlap): the request is projected onto
    # the controllable subspace; their tiny free decay is part of the
    # terminal error. The verification simulates twice the synthesis modes,
    # so spillover into modes 7..12 is included in the reported error.
    act = Actuator.from_strings("0", "1")
    z0 = SpectralState(tuple(1.0 / j for j in range(1, 7)))
    z1 = SpectralState.zero(6)
    rep = blocked_set(act, 6)
    control, predicted = synthesize_lumped(
        project_onto_v(z0, rep), project_onto_v(z1, rep), act, 1.0, 6, 1e-6
    )
    trajectory = verify_control(z0, z1, control, act, 1.0)
    assert trajectory.n_modes == 12
    assert trajectory.terminal_error < 1e-6
    assert control.gram_condition is not None
    report(
        8,
        f"terminalError {trajectory.terminal_error:.3e} < 1e-6 over 12 modes "
        f"(predicted {predicted:.3e}, Gram condition {control.gram_condition:.3e})",
    )


def test_criterion_09_observability_duality():
    act = Actuator.from_strings("0", "1/2")
    rep = blocked_set(act, 64)
    for j in range(1, 65):
        series = sensor_series(SpectralState.unit_mode(j), act)
        vanishes = is_identically_zero(series, 1.0, 1e-15)
        assert vanishes == rep.is_blocked(j)

    # Unprojected request hits the blocked mode; the projected one succeeds.
    z0 = SpectralState(tuple(1.0 / j for j in range(1, 7)))
    z1 = SpectralState.zero(6)
    with pytest.raises(BlockedModeError):
        synthesize_lumped(z0, z1, act, 1.0, 6, 1e-6)
    control, _ = synthesize_lumped(
        project_onto_v(z0, rep), project_onto_v(z1, rep), act, 1.0, 6, 1e-6
    )
    assert control.coeffs  # a usable control came back
    report(9, "signal vanishes iff mode blocked (j <= 64); projection unblocks synthesis")


def test_criterion_10_determinism_and_round_trip(tmp_path, capsys):
    # Byte-identical reruns for a JSON emitter and a CSV emitter.
    ctrl_args = [
        "control", "synthesize", "--target", "phi1->0",
        "--a", "0", "--b", "1", "--T", "1", "--N", "1",
    ]
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert cli_main(ctrl_args + ["--out", str(c1)]) == 0
    assert cli_main(ctrl_args + ["--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()

    sim_args = [
        "control", "simulate", "--control", str(c1),
        "--a", "0", "--b", "1", "--z0", "phi1", "--z1", "0",
    ]
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert cli_main(sim_args + ["--out", str(t1)]) == 0
    assert cli_main(sim_args + ["--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()

    # Lossless re-parse of every emitted document kind: each one, parsed
    # here, equals the object the library returns for the same request.
    actuator = Actuator.from_strings("0", "1")
    z0, z1 = SpectralState.unit_mode(1), SpectralState.zero(1)
    control, predicted = synthesize_lumped(z0, z1, actuator, 1.0, 1, 1e-6)
    doc = json.loads(c1.read_text())
    assert doc.pop("predictedError") == predicted < 1e-8
    assert ControlFunction(
        doc["kind"], doc["T"], tuple(doc["exponents"]), tuple(doc["coeffs"]),
        doc["momentResidual"], doc["energy"], doc["gramCondition"],
    ) == control

    trajectory = propagate(z0, control, actuator, 1.0, target=z1)
    header, *rows, (label, error) = [
        line.split(",") for line in t1.read_text().splitlines() if not line.startswith("#")
    ]
    table = np.array(rows, dtype=float)
    assert header == ["t", "z_1"]
    assert np.array_equal(table[:, 0], trajectory.times)
    assert np.array_equal(table[:, 1:], trajectory.states)
    assert (label, float(error)) == ("terminalError", trajectory.terminal_error)

    assert cli_main(["control", "analyze", "--a", "0", "--b", "1/2", "--jmax", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(m["residues"] == [0] for m in doc["modulusCharacterization"])
    moduli = tuple(m["modulus"] for m in doc["modulusCharacterization"])
    assert ControllabilityReport(
        doc["verdict"], tuple(doc["blockedPrefix"]), moduli, doc["jMax"], doc["subspace"]
    ) == blocked_set(Actuator.from_strings("0", "1/2"), 12)
    with capsys.disabled():
        report(10, "reruns byte-identical; control, trajectory, report docs re-parse losslessly")
