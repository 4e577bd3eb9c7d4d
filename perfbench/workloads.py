"""Seeded task lists, task bodies and correctness gates of the four workloads.

Every workload builds one fixed task list from its seed. Sizes are drawn
from continuous ranges by stratified sampling (one draw per equal-width
stratum, in shuffled order), so two seeds give nearly the same size
distribution and the median never lands in a gap between size clusters.
Task kinds are interleaved round-robin, so drift of the host hits every kind
alike. ``materialize`` builds a task's full inputs just before it runs,
``run`` is the timed body, and ``check`` and ``observe`` run outside the
timed span.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from expseries import cli, control, heat, series, simulate, taylor, uniqueness
from expseries.control import SpectralState

from common import child_env
from tracer import NO_TRACER

ORDER = 30
EPS = 1e-6
MIN_TIMED_TASKS = 100


@dataclass
class Task:
    index: int
    kind: str
    params: dict = field(default_factory=dict)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63, zlib.crc32(workload.encode())])


def stratified(rng, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """``n`` draws from [lo, hi), exactly one per equal-width stratum, shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    if log:
        return [float(math.exp(math.log(lo) + x * (math.log(hi) - math.log(lo)))) for x in u]
    return [float(lo + x * (hi - lo)) for x in u]


def interleave(pattern: list[str], per_kind: dict[str, list[dict]]) -> list[Task]:
    """Round-robin over ``pattern`` until every kind's parameter list is used."""
    cursors = {kind: iter(items) for kind, items in per_kind.items()}
    tasks: list[Task] = []
    total = sum(len(items) for items in per_kind.values())
    while len(tasks) < total:
        for kind in pattern:
            params = next(cursors[kind], None)
            if params is not None:
                tasks.append(Task(len(tasks), kind, params))
    return tasks


def random_terms(rng, n_terms: int, mass: float, lam_lo: float = 0.1, lam_hi: float = 100.0):
    """Distinct exponents in (lam_lo, lam_hi], coefficients of total mass ``mass``."""
    lams = np.unique(rng.uniform(lam_lo, lam_hi, size=n_terms))
    while len(lams) < n_terms:  # pragma: no cover - measure-zero event
        lams = np.unique(np.concatenate([lams, rng.uniform(lam_lo, lam_hi, n_terms - len(lams))]))
    alphas = rng.standard_normal(n_terms)
    alphas *= mass / np.sum(np.abs(alphas))
    return list(zip(alphas.tolist(), lams.tolist()))


class Workload:
    """Defaults shared by the workloads.

    Each subclass sets ``name``, ``kinds``, ``counts`` (tasks of each kind in
    the base list) and ``base_seconds``, the nominal time of the base list on
    a 2-core x86 VM; ``scale`` turns ``--seconds`` into a multiple of the
    base counts, and ``make_tasks(seed, scale)`` draws that many tasks.
    """

    name: str
    kinds: tuple[str, ...]
    counts: dict[str, int]
    base_seconds: float
    # Whose peak resident memory ``peak_rss_mb`` reports.
    rusage_who = resource.RUSAGE_SELF

    @property
    def pattern(self) -> list[str]:
        return list(self.kinds)

    def scale(self, seconds: float, traced: bool) -> int:
        """Size of a run's task list, fixed by ``seconds``, never by the host's speed.

        Each task runs once, so a longer run sees more distinct inputs and its
        median lands among more of them. An untraced run has at least
        ``MIN_TIMED_TASKS`` tasks, so that its p90 has ten samples beyond it
        even where that takes longer than ``seconds`` (cli). A traced run times
        every task twice, so it gets half as many and reports no percentiles.
        """
        if traced:
            return max(1, round(seconds / (2 * self.base_seconds)))
        base = sum(self.counts.values())
        return max(round(seconds / self.base_seconds), math.ceil(MIN_TIMED_TASKS / base))

    def prepare(self, tasks: list[Task]) -> None:
        """Set-up beyond the task list; nothing by default."""

    def cold_tasks(self, tasks: list[Task]) -> list[Task]:
        """Tasks whose first, cold call belongs to set-up: one of each kind."""
        return first_of_each_kind(tasks, 1)

    def materialize(self, task: Task) -> Task:
        """The task with its full inputs, built outside the timed span."""
        return task

    def observe(self, task: Task, out, health, tracer) -> None:
        """Health figures of the traced run, gathered off the clock."""


def first_of_each_kind(tasks: list[Task], per_kind: int) -> list[Task]:
    seen: dict[str, int] = {}
    chosen = []
    for task in tasks:
        if seen.get(task.kind, 0) < per_kind:
            seen[task.kind] = seen.get(task.kind, 0) + 1
            chosen.append(task)
    return chosen


# ---------------------------------------------------------------------------
# Exact actuator endpoints, with the benchmark's own copy of the blocking rule
# ---------------------------------------------------------------------------


def _exact_text(rat: Fraction, irr: Fraction) -> str:
    if irr == 0:
        return str(rat)
    return f"{rat}+{irr}*sqrt2"


def random_endpoints(rng, style: str) -> dict:
    """Endpoints ``a = ra + ia*sqrt2 < b = rb + ib*sqrt2`` in [0, 1].

    ``rational``: both rational, so both combinations a -+ b block modes.
    ``mixed``: a carries sqrt2 and b is rational, so nothing is blocked.
    ``shared``: both carry the same sqrt2 part, so only a - b blocks modes.
    """
    q = int(rng.integers(3, 13))
    if style == "rational":
        p1 = int(rng.integers(0, q - 1))
        p2 = int(rng.integers(p1 + 1, q + 1))
        ra, ia, rb, ib = Fraction(p1, q), Fraction(0), Fraction(p2, q), Fraction(0)
    elif style == "mixed":
        ra = Fraction(int(rng.integers(0, q // 2 + 1)), 2 * q)
        ia = Fraction(1, int(rng.integers(20, 61)))
        rb = Fraction(int(rng.integers(q // 2 + 1, q + 1)), q)
        ib = Fraction(0)
    else:
        irr = Fraction(1, int(rng.integers(20, 61)))
        top = q - 1  # keeps b <= (q-1)/q + sqrt2/20 < 1
        p1 = int(rng.integers(0, top))
        p2 = int(rng.integers(p1 + 1, top + 1))
        ra, ia, rb, ib = Fraction(p1, q), irr, Fraction(p2, q), irr
    return {
        "a": _exact_text(ra, ia),
        "b": _exact_text(rb, ib),
        "parts": (ra, ia, rb, ib),
    }


def expected_moduli(parts) -> list[int]:
    """Blocked residue classes: j is blocked iff j*(a-b) or j*(a+b) is an even integer."""
    ra, ia, rb, ib = parts
    moduli = set()
    for rat, irr in ((ra - rb, ia - ib), (ra + rb, ia + ib)):
        if irr == 0:
            moduli.add(rat.denominator if rat.numerator % 2 == 0 else 2 * rat.denominator)
    return sorted(moduli)


STYLES = ("rational", "mixed", "shared")


# ---------------------------------------------------------------------------
# certify: series + taylor, with the vanishing test on the same series
# ---------------------------------------------------------------------------


class Certify(Workload):
    name = "certify"
    kinds = ("plain", "tailed")
    counts = {"plain": 48, "tailed": 48}
    base_seconds = 5.3

    def make_tasks(self, seed: int, scale: int = 1) -> list[Task]:
        """Sizes and points only; ``materialize`` draws the terms from ``seed``."""
        rng = rng_for(self.name, seed)
        per_kind = {}
        for kind in self.kinds:
            n = self.counts[kind] * scale
            sizes = stratified(rng, n, 500, 8000, log=True)
            taus = stratified(rng, n, 0.3, 3.0, log=True)
            items = []
            for n_terms, tau in zip(sizes, taus):
                mass = float(rng.uniform(1.0, 8.0))
                tail = None
                if kind == "tailed":
                    tail = (mass * float(rng.uniform(1e-6, 1e-3)), 100.0)
                items.append(
                    {
                        "seed": int(rng.integers(2**63)),
                        "n_terms": int(n_terms),
                        "mass": mass,
                        "tail": tail,
                        "tau": tau,
                        "ts": [tau * float(x) for x in rng.uniform(0.05, 1.95, size=3)],
                        "t_tol": tau * (1.0 + float(rng.choice([-1, 1]) * rng.uniform(0.1, 0.45))),
                        "tol": 1e-10 * mass,
                        "zero_tol": 2.0 * (mass + (tail[0] if tail else 0.0)),
                    }
                )
            per_kind[kind] = items
        return interleave(list(self.kinds), per_kind)

    def materialize(self, task: Task) -> Task:
        p = task.params
        terms = random_terms(np.random.default_rng(p["seed"]), p["n_terms"], p["mass"])
        return Task(task.index, task.kind, {**p, "terms": terms})

    def run(self, task: Task, tracer=NO_TRACER):
        p = task.params
        tail = series.TailModel(*p["tail"]) if p["tail"] else None
        with tracer.span("series.construct"):
            s = series.DirichletSeries(p["terms"], tail)
        e = taylor.expand(s, p["tau"], ORDER)
        sums, bounds, horner = [], [], []
        for t in p["ts"]:
            sums.append(taylor.partial_sums(e, t))
            bounds.append([taylor.remainder_bound(e, n, t).bound for n in range(1, ORDER + 1)])
            horner.append(taylor.evaluate_via_expansion(e, t))
        n_tol = taylor.order_for_tolerance(e, p["t_tol"], p["tol"])
        zero = uniqueness.is_identically_zero(s, 2.0 * p["tau"], p["zero_tol"], nodes=33)
        return {"series": s, "expansion": e, "sums": sums, "bounds": bounds,
                "horner": horner, "n_tol": n_tol, "zero": zero}

    def check(self, task: Task, out) -> str | None:
        p = task.params
        s, e = out["series"], out["expansion"]
        if len(e.coeffs) != ORDER + 1:
            return f"expansion has {len(e.coeffs)} coefficients, expected {ORDER + 1}"
        if e.coeffs[0] != series.evaluate(s, p["tau"]).value:
            return "b_0 differs from evaluate(series, tau)"
        # Independent log-space recomputation of the top coefficient.
        alphas = np.array([a for a, _ in p["terms"]])
        lams = np.array([l for _, l in p["terms"]])
        mags = np.exp(-lams * p["tau"] + ORDER * np.log(lams) - math.lgamma(ORDER + 1))
        signed = alphas * mags * (-1.0) ** ORDER
        if abs(e.coeffs[ORDER] - math.fsum(signed.tolist())) > 1e-12 * float(np.sum(np.abs(signed))):
            return "top Taylor coefficient disagrees with the log-space sum"
        n = out["n_tol"]
        if not 1 <= n <= ORDER:
            return f"order_for_tolerance gave {n}, outside 1..{ORDER}"
        if taylor.remainder_bound(e, n, p["t_tol"]).bound > p["tol"]:
            return "order_for_tolerance misses its tolerance"
        if n > 1 and taylor.remainder_bound(e, n - 1, p["t_tol"]).bound <= p["tol"]:
            return "order_for_tolerance is not the smallest certified order"
        for t, h in zip(p["ts"], out["horner"]):
            if abs(h.value - series.evaluate(s, t).value) > h.error_bound + 1e-14:
                return f"Horner value at t={t!r} outside its certificate"
        if out["zero"] is not True:
            return "is_identically_zero rejected a series bounded by its mass"
        return None

    def observe(self, task: Task, out, health, tracer) -> None:
        # The 40-digit reference is slow, so only every 8th task.
        if task.index % 8 == 0:
            health.add("taylor.cert_violations", self.cert_violations(task, out))

    def cert_violations(self, task: Task, out) -> int:
        """Partial sums outside their certificate against a 40-digit reference."""
        import mpmath  # only the traced run needs it; keeps it out of set-up

        mp = mpmath.mp
        count = 0
        with mpmath.workdps(40):
            for t, sums, bounds in zip(task.params["ts"], out["sums"], out["bounds"]):
                mt = mp.mpf(t)
                truth = mp.fsum(mp.mpf(a) * mp.exp(-mp.mpf(l) * mt) for a, l in task.params["terms"])
                for n in range(1, ORDER + 1):
                    if abs(truth - mp.mpf(float(sums[n]))) > mp.mpf(bounds[n - 1]):
                        count += 1
        return count


# ---------------------------------------------------------------------------
# steer: exact blocked sets, synthesis and independent simulation
# ---------------------------------------------------------------------------


class CountingControl:
    """A plain callable ``u(s)`` for the quadrature path; counts its calls."""

    def __init__(self, closed_form) -> None:
        self.closed_form = closed_form
        self.calls = 0

    def __call__(self, s):
        self.calls += 1
        return self.closed_form.profile(s)


class Steer(Workload):
    name = "steer"
    kinds = ("closed", "callable")
    pattern = ["closed", "closed", "closed", "callable"]
    counts = {"closed": 72, "callable": 24}
    base_seconds = 9.3

    def make_tasks(self, seed: int, scale: int = 1) -> list[Task]:
        rng = rng_for(self.name, seed)
        per_kind = {}
        for kind in self.kinds:
            items = []
            # Endpoint style changes the cost of the exact arithmetic, so each
            # style gets its own stratified sizes and every seed the same mix.
            for style in STYLES:
                n = self.counts[kind] * scale // len(STYLES)
                jmaxes = stratified(rng, n, 512, 4096, log=True)
                modes = stratified(rng, n, 3, 9)
                for jmax, n_modes in zip(jmaxes, modes):
                    n_modes = int(n_modes)
                    signs = rng.choice([-1.0, 1.0], size=n_modes)
                    items.append(
                        {
                            **random_endpoints(rng, style),
                            "jmax": int(jmax),
                            "n_modes": n_modes,
                            "z0": (signs * rng.uniform(0.2, 1.0, size=n_modes)).tolist(),
                            "horizon": 1.0,
                        }
                    )
            per_kind[kind] = [items[i] for i in rng.permutation(len(items))]
        return interleave(self.pattern, per_kind)

    def run(self, task: Task, tracer=NO_TRACER):
        p = task.params
        actuator = heat.Actuator.from_strings(p["a"], p["b"])
        report = heat.blocked_set(actuator, p["jmax"])
        z0 = simulate.project_onto_v(SpectralState(p["z0"]), report)
        z1 = SpectralState.zero(p["n_modes"])
        ctrl, _ = control.synthesize_lumped(z0, z1, actuator, p["horizon"], p["n_modes"], EPS)
        trajectory = simulate.verify_control(z0, z1, ctrl, actuator, p["horizon"])
        out = {"report": report, "control": ctrl, "trajectory": trajectory}
        if task.kind == "callable":
            u = CountingControl(ctrl)
            out["quadrature"] = simulate.propagate(z0, u, actuator, p["horizon"], target=z1)
            out["integrand_evals"] = u.calls
        return out

    def check(self, task: Task, out) -> str | None:
        p = task.params
        moduli = expected_moduli(p["parts"])
        report = out["report"]
        expected_prefix = tuple(
            j for j in range(1, p["jmax"] + 1) if any(j % m == 0 for m in moduli)
        )
        verdict = heat.VERDICT_NOT_CONTROLLABLE if moduli else heat.VERDICT_CONTROLLABLE
        if report.verdict != verdict or report.blocked_prefix != expected_prefix:
            return "blocked set or verdict differs from the residue-class rule"
        n = p["n_modes"]
        final = out["trajectory"].states[-1]
        retained = [j for j in range(1, n + 1) if not any(j % m == 0 for m in moduli)]
        miss = max((abs(float(final[j - 1])) for j in retained), default=0.0)
        if miss > EPS:
            return f"terminal miss {miss:.3e} on retained modes exceeds eps"
        if "quadrature" in out:
            closed = out["trajectory"].states[:, :n]
            gap = float(np.max(np.abs(out["quadrature"].states - closed)))
            if gap > 1e-8:
                return f"quadrature propagation differs from closed form by {gap:.3e}"
        return None

    def observe(self, task: Task, out, health, tracer) -> None:
        ctrl = out["control"]
        health.max("control.gram_condition_max", ctrl.gram_condition or 0.0)
        health.max("control.moment_residual_max", ctrl.moment_residual or 0.0)
        spill = np.linalg.norm(out["trajectory"].states[-1][task.params["n_modes"]:])
        health.max("simulate.spillover_max", spill)
        if "integrand_evals" in out:
            health.sample("simulate.integrand_evals", out["integrand_evals"])


# ---------------------------------------------------------------------------
# identify: observability signals and coefficient peeling
# ---------------------------------------------------------------------------


class Identify(Workload):
    name = "identify"
    kinds = ("full", "partial")
    pattern = ["full", "full", "full", "partial"]
    counts = {"full": 108, "partial": 36}
    modes = 4
    base_seconds = 8.5
    # Partial extraction of two modes diverges today (estimates near 1e100),
    # so timed partial tasks extract one mode; the traced run tries two
    # modes off the clock on this many partial tasks and reports how many miss.
    two_mode_trials = 6

    def __init__(self) -> None:
        self._two_mode_left = self.two_mode_trials

    def make_tasks(self, seed: int, scale: int = 1) -> list[Task]:
        rng = rng_for(self.name, seed)
        lams = [heat.decay_exponent(j) for j in range(1, self.modes + 1)]
        per_kind = {}
        for kind in self.kinds:
            n = self.counts[kind] * scale
            horizons = stratified(rng, n, 0.6, 1.0)
            samples = stratified(rng, n, 240, 361)
            noises = stratified(rng, n, 1e-9, 3e-9, log=True)
            items = []
            for horizon, n_samples, noise in zip(horizons, samples, noises):
                signs = rng.choice([-1.0, 1.0], size=self.modes)
                items.append(
                    {
                        # Endpoints that block no mode: a blocked mode would
                        # change the peel's cost and make task costs cluster.
                        **random_endpoints(rng, "mixed"),
                        "y": (signs * rng.uniform(0.5, 1.5, size=self.modes)).tolist(),
                        "horizon": horizon,
                        "noise": (noise * rng.standard_normal(int(n_samples))).tolist(),
                        "lams": lams,
                        "count": self.modes if kind == "full" else 1,
                    }
                )
            per_kind[kind] = items
        return interleave(self.pattern, per_kind)

    def run(self, task: Task, tracer=NO_TRACER):
        p = task.params
        actuator = heat.Actuator.from_strings(p["a"], p["b"])
        signal = simulate.observability_signal(
            SpectralState(p["y"]), actuator, p["horizon"], len(p["noise"])
        )
        noisy = uniqueness.SampledSignal(
            signal.times, (signal.value_array + np.array(p["noise"])).tolist(), p["horizon"]
        )
        return {"actuator": actuator, "signal": noisy,
                "peel": uniqueness.peel_leading(noisy, p["lams"], p["count"])}

    def truth(self, task: Task, actuator) -> list[float]:
        return [
            heat.coupling_coefficient(actuator, j) * y for j, y in enumerate(task.params["y"], 1)
        ]

    def check(self, task: Task, out) -> str | None:
        return self.peel_error(task, out["actuator"], out["peel"], task.kind == "full")

    def peel_error(self, task: Task, actuator, peel, full: bool) -> str | None:
        truth = self.truth(task, actuator)
        got = [a for a, _ in peel.recovered]
        err = max(abs(g - t) for g, t in zip(got, truth))
        limit = 1e-4 if full else 0.1 * math.fsum(abs(t) for t in truth)
        if not err <= limit:
            return f"peeled coefficients off by {err:.3e} (limit {limit:.1e})"
        return None

    def observe(self, task: Task, out, health, tracer) -> None:
        if task.kind == "full":
            health.max("uniqueness.peel_err_vs_lstsq", self.lstsq_gap(task, out))
        elif self._two_mode_left > 0:
            self._two_mode_left -= 1
            try:
                peel = uniqueness.peel_leading(out["signal"], task.params["lams"], 2)
                missed = self.peel_error(task, out["actuator"], peel, False) is not None
            except (ValueError, ArithmeticError):
                missed = True
            health.flag("uniqueness.partial2_miss_frac", missed)

    def lstsq_gap(self, task: Task, out) -> float:
        p = task.params
        signal = out["signal"]
        design = np.exp(-np.outer(signal.time_array, p["lams"][: p["count"]]))
        ref = np.linalg.lstsq(design, signal.value_array, rcond=None)[0]
        got = np.array([a for a, _ in out["peel"].recovered])
        return float(np.max(np.abs(got - ref)))


# ---------------------------------------------------------------------------
# cli: one subprocess per task
# ---------------------------------------------------------------------------


def run_in_process(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8")


class Cli(Workload):
    name = "cli"
    kinds = ("eval", "expand", "remainder", "analyze", "synthesize", "simulate",
             "observability", "blocked")
    counts = {kind: 1 for kind in kinds}
    base_seconds = 2.4
    # The CLI runs in subprocesses; the harness process is not what users run.
    rusage_who = resource.RUSAGE_CHILDREN

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.expected: dict[str, tuple[int, bytes]] = {}

    def make_tasks(self, seed: int, scale: int = 1) -> list[Task]:
        """One argv per kind, repeated ``scale`` times in kind order.

        Start-up dominates every task, so fresh inputs per repeat would
        change nothing but the set-up's reference runs.
        """
        rng = rng_for(self.name, seed)
        terms = [json.dumps(random_terms(rng, int(n), float(rng.uniform(1.0, 8.0))))
                 for n in stratified(rng, 3, 5, 41)]
        tau = float(rng.uniform(0.3, 3.0))
        ends = [random_endpoints(rng, style) for style in STYLES]
        act = ["--a", ends[1]["a"], "--b", ends[1]["b"]]
        path = str(Path(os.path.relpath(self.workdir, self.root)) / "control.json")
        m = int(rng.integers(2, 5))
        argvs = [
            ["series", "eval", "--terms", terms[0], "--t", repr(float(rng.uniform(0.1, 3.0)))],
            ["series", "expand", "--terms", terms[1], "--tau", repr(tau),
             "--order", str(int(rng.integers(10, 31)))],
            ["series", "remainder", "--terms", terms[2], "--tau", repr(tau),
             "--t", repr(tau * float(rng.uniform(0.1, 1.9))), "--nmax", str(int(rng.integers(10, 31)))],
            ["control", "analyze", "--a", ends[0]["a"], "--b", ends[0]["b"]],
            ["control", "synthesize", "--target", "phi1->0", *act, "--T", "1",
             "--N", str(int(rng.integers(1, 4))), "--out", path],
            ["control", "simulate", "--control", path, *act, "--z0", "phi1", "--z1", "0"],
            ["control", "observability", "--a", ends[2]["a"], "--b", ends[2]["b"],
             "--y", f"phi{int(rng.integers(1, 7))}", "--T", repr(float(rng.uniform(0.5, 1.5))),
             "--samples", str(int(rng.integers(33, 66)))],
            # Mode 2m is blocked for omega = (0, 1/m): the request must exit 3.
            ["control", "synthesize", "--target", f"phi{2 * m}->0", "--a", "0", "--b", f"1/{m}",
             "--T", "1", "--N", str(2 * m)],
        ]
        base = list(zip(self.kinds, argvs))
        return [Task(i, kind, {"argv": argv}) for i, (kind, argv) in enumerate(base * scale)]

    def out_path(self, task: Task) -> Path | None:
        argv = task.params["argv"]
        return self.root / argv[argv.index("--out") + 1] if "--out" in argv else None

    def prepare(self, tasks: list[Task]) -> None:
        """Reference outputs through in-process ``cli.main``, in kind order.

        These are the cold calls of every kind in this process.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        for task in first_of_each_kind(tasks, 1):
            code, stdout = run_in_process(task.params["argv"])
            path = self.out_path(task)
            self.expected[task.kind] = (code, path.read_bytes() if path else stdout)

    def cold_tasks(self, tasks: list[Task]) -> list[Task]:
        """One subprocess stands for the rest, all of which start cold anyway."""
        return tasks[:1]

    def run(self, task: Task, tracer=NO_TRACER):
        path = self.out_path(task)
        if path is not None:
            path.unlink(missing_ok=True)  # the subprocess must write it afresh
        proc = subprocess.run(
            [sys.executable, "-m", "expseries.cli", *task.params["argv"]],
            cwd=self.root, env=self.env, capture_output=True, check=False,
        )
        return {"code": proc.returncode, "bytes": path.read_bytes() if path else proc.stdout}

    def check(self, task: Task, out) -> str | None:
        want_code = 3 if task.kind == "blocked" else 0
        code, data = self.expected[task.kind]
        if code != want_code or out["code"] != want_code:
            return f"exit codes {out['code']} (subprocess) / {code} (in process), expected {want_code}"
        if out["bytes"] != data:
            return "subprocess output differs from the in-process cli.main output"
        return None

    def observe(self, task: Task, out, health, tracer) -> None:
        health.sample("cli.out_bytes", len(out["bytes"]))
        with tracer.span("cli.main"):
            run_in_process(task.params["argv"])
        if task.kind == self.kinds[0]:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import expseries.cli"],
                           cwd=self.root, env=self.env, check=True)
            health.sample("cli.startup_ms", (time.perf_counter() - start) * 1e3)


def make_workload(name: str, root: Path, workdir: Path):
    if name == "cli":
        return Cli(root, workdir)
    return {"certify": Certify, "steer": Steer, "identify": Identify}[name]()

