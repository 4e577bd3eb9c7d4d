"""Command-line front end: structured JSON/CSV in, deterministic files out.

Exit codes: 0 success, 1 I/O failure, 2 validation failure, 3 domain error
(blocked mode or conditioning). Outputs never contain timestamps; CSV files
carry a provenance comment header unless --no-header is given, so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import __version__
from . import control as control_mod
from . import heat, series, simulate, taylor, uniqueness
from .control import BlockedModeError, ConditioningError, SpectralState


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _load_series(args) -> series.DirichletSeries:
    if getattr(args, "series", None):
        text = Path(args.series).read_text(encoding="utf-8")
        return series.loads(text)
    if getattr(args, "terms", None):
        return series.from_document({"terms": json.loads(args.terms), "tail": None})
    raise ValueError("provide a series via --series FILE or --terms JSON")


def _parse_state(text: str, min_modes: int = 1) -> SpectralState:
    text = text.strip()
    if text == "0":
        return SpectralState.zero(max(1, min_modes))
    match = re.fullmatch(r"phi(\d+)", text)
    if match:
        return SpectralState.unit_mode(int(match.group(1)), min_modes)
    if text.startswith("["):
        coeffs = json.loads(text)
        return SpectralState([float(c) for c in coeffs])
    raise ValueError(f"cannot parse state {text!r}: use 0, phiN, or a JSON list")


def _actuator(args, default_kind: str = "lumped") -> heat.Actuator:
    kind = getattr(args, "kind", None) or default_kind
    return heat.Actuator.from_strings(args.a, args.b, kind)


# argparse already reads these as values; anything else that starts with "-"
# it reads as an option.
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _attach_endpoints(argv: list[str]) -> list[str]:
    # An exact endpoint such as -1+1*sqrt2 after --a/--b is joined into the
    # --a=VALUE form, so argparse takes it as the value and both spellings
    # give the same bytes.
    joined: list[str] = []
    for token in argv:
        if (
            joined
            and joined[-1] in ("--a", "--b")
            and token.startswith("-")
            and not token.startswith("--")
            and not _NEGATIVE_NUMBER.fullmatch(token)
        ):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _echoable(argv: list[str]) -> list[str]:
    # The output destination is not part of the computation; dropping it keeps
    # runs writing to different paths byte-identical.
    kept: list[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--out":
            skip = True
            continue
        kept.append(token)
    return kept


def _emit(args, text: str, argv: list[str], is_csv: bool) -> None:
    if is_csv and not getattr(args, "no_header", False):
        header = f"# expseries {__version__}\n# command: {' '.join(_echoable(argv))}\n"
        text = header + text
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# series subcommands
# ---------------------------------------------------------------------------


def _cmd_series_eval(args, argv) -> None:
    s = _load_series(args)
    result = series.evaluate(s, args.t)
    _emit(args, _dump_json({"value": result.value, "errorBound": result.error_bound}), argv, False)


def _cmd_series_expand(args, argv) -> None:
    s = _load_series(args)
    expansion = taylor.expand(s, args.tau, args.order)
    _emit(args, _dump_json(taylor.to_document(expansion)), argv, False)


def _cmd_series_remainder(args, argv) -> None:
    s = _load_series(args)
    if args.nmax < 1:
        raise ValueError("--nmax must be at least 1")
    expansion = taylor.expand(s, args.tau, args.nmax)
    exact_value = series.evaluate(s, args.t).value
    partials = taylor.partial_sums(expansion, args.t)
    lines = ["n,t,measured,certified"]
    for n in range(1, args.nmax + 1):
        measured = float(abs(exact_value - partials[n]))
        certified = taylor.remainder_bound(expansion, n, args.t).bound
        lines.append(f"{n},{args.t!r},{measured!r},{certified!r}")
    _emit(args, "\n".join(lines) + "\n", argv, True)


# ---------------------------------------------------------------------------
# control subcommands
# ---------------------------------------------------------------------------


def _cmd_control_analyze(args, argv) -> None:
    actuator = _actuator(args)
    if actuator.kind == "distributed":
        report = heat.distributed_controllability(actuator, j_check=min(args.jmax, 64))
    else:
        report = heat.blocked_set(actuator, args.jmax)
    _emit(args, _dump_json(heat.report_to_document(report)), argv, False)


def _resolve_states(args) -> tuple[SpectralState, SpectralState]:
    if args.target:
        pieces = args.target.split("->")
        if len(pieces) != 2:
            raise ValueError("--target must look like 'phi1->0'")
        z0 = _parse_state(pieces[0], args.N)
        z1 = _parse_state(pieces[1], args.N)
        return z0, z1
    if args.z0 is None or args.z1 is None:
        raise ValueError("provide --target or both --z0 and --z1")
    return _parse_state(args.z0, args.N), _parse_state(args.z1, args.N)


def _cmd_control_synthesize(args, argv) -> None:
    actuator = _actuator(args)
    z0, z1 = _resolve_states(args)
    if actuator.kind == "distributed":
        control, predicted = control_mod.synthesize_distributed(
            z0, z1, actuator, args.T, args.N, args.eps
        )
    else:
        control, predicted = control_mod.synthesize_lumped(
            z0, z1, actuator, args.T, args.N, args.eps, args.reg
        )
    doc = control_mod.control_to_document(control)
    doc["predictedError"] = predicted
    _emit(args, _dump_json(doc), argv, False)


def _cmd_control_simulate(args, argv) -> None:
    doc = json.loads(Path(args.control).read_text(encoding="utf-8"))
    control = control_mod.control_from_document(doc)
    actuator = _actuator(args, default_kind=control.kind)
    horizon = args.T if args.T is not None else control.horizon
    z0 = _parse_state(args.z0, len(control.coeffs) or 1)
    target = _parse_state(args.z1, z0.n_modes) if args.z1 else None
    trajectory = simulate.propagate(
        z0, control, actuator, horizon, steps=args.steps, target=target
    )
    _emit(args, simulate.trajectory_to_csv(trajectory), argv, True)


def _cmd_control_observability(args, argv) -> None:
    actuator = _actuator(args)
    y = _parse_state(args.y)
    signal = simulate.observability_signal(y, actuator, args.T, args.samples)
    verdict = uniqueness.is_identically_zero(
        simulate.observability_series(y, actuator), args.T, args.tol
    )
    text = uniqueness.signal_to_csv(signal)
    text += f"identicallyZero,{'true' if verdict else 'false'}\n"
    _emit(args, text, argv, True)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expseries",
        description="Certified exponential-sum expansions and heat-equation control",
    )
    parser.add_argument("--version", action="version", version=f"expseries {__version__}")
    top = parser.add_subparsers(dest="group", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument(
        "--no-header", action="store_true", help="omit provenance comments in CSV output"
    )
    common.add_argument("--config", help="JSON file whose entries override the flags")

    series_parent = argparse.ArgumentParser(add_help=False)
    series_parent.add_argument("--series", help="path to a series document")
    series_parent.add_argument("--terms", help="inline JSON term list [[alpha, lambda], ...]")

    sp = top.add_parser("series", help="evaluate and expand exponential sums")
    sp_sub = sp.add_subparsers(dest="command", required=True)

    p_eval = sp_sub.add_parser("eval", parents=[common, series_parent])
    p_eval.add_argument("--t", type=float, required=True)
    p_eval.set_defaults(handler=_cmd_series_eval)

    p_expand = sp_sub.add_parser("expand", parents=[common, series_parent])
    p_expand.add_argument("--tau", type=float, required=True)
    p_expand.add_argument("--order", type=int, required=True)
    p_expand.set_defaults(handler=_cmd_series_expand)

    p_rem = sp_sub.add_parser("remainder", parents=[common, series_parent])
    p_rem.add_argument("--tau", type=float, required=True)
    p_rem.add_argument("--t", type=float, required=True)
    p_rem.add_argument("--nmax", type=int, default=20)
    p_rem.set_defaults(handler=_cmd_series_remainder)

    actuator_parent = argparse.ArgumentParser(add_help=False)
    actuator_parent.add_argument("--a", required=True, help="left endpoint (exact grammar)")
    actuator_parent.add_argument("--b", required=True, help="right endpoint (exact grammar)")
    actuator_parent.add_argument("--kind", choices=["lumped", "distributed"])

    cp = top.add_parser("control", help="controllability analysis and synthesis")
    cp_sub = cp.add_subparsers(dest="command", required=True)

    p_an = cp_sub.add_parser("analyze", parents=[common, actuator_parent])
    p_an.add_argument("--jmax", type=int, default=256)
    p_an.set_defaults(handler=_cmd_control_analyze)

    p_syn = cp_sub.add_parser("synthesize", parents=[common, actuator_parent])
    p_syn.add_argument("--T", type=float, required=True)
    p_syn.add_argument("--N", type=int, required=True)
    p_syn.add_argument("--eps", type=float, default=1e-6)
    p_syn.add_argument("--reg", type=float, default=0.0)
    p_syn.add_argument("--target", help="shorthand 'phi1->0'")
    p_syn.add_argument("--z0", help="state: 0, phiN, or JSON list")
    p_syn.add_argument("--z1", help="state: 0, phiN, or JSON list")
    p_syn.set_defaults(handler=_cmd_control_synthesize)

    p_sim = cp_sub.add_parser("simulate", parents=[common, actuator_parent])
    p_sim.add_argument("--control", required=True, help="path to a control document")
    p_sim.add_argument("--z0", required=True, help="state: 0, phiN, or JSON list")
    p_sim.add_argument("--z1", help="target state (adds terminalError row)")
    p_sim.add_argument("--T", type=float)
    p_sim.add_argument("--steps", type=int, default=64)
    p_sim.set_defaults(handler=_cmd_control_simulate)

    p_obs = cp_sub.add_parser("observability", parents=[common, actuator_parent])
    p_obs.add_argument("--y", required=True, help="state: 0, phiN, or JSON list")
    p_obs.add_argument("--T", type=float, required=True)
    p_obs.add_argument("--samples", type=int, default=65)
    p_obs.add_argument("--tol", type=float, default=1e-9)
    p_obs.set_defaults(handler=_cmd_control_observability)

    return parser


def _apply_config(args) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    overrides = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(overrides, dict):
        raise ValueError("config document must be a JSON object")
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"config key {key!r} does not match any flag")
        setattr(args, attr, value)


def main(argv=None) -> int:
    argv = _attach_endpoints(list(sys.argv[1:]) if argv is None else list(argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        _apply_config(args)
        args.handler(args, argv)
    except (BlockedModeError, ConditioningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
