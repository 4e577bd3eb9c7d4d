"""Command-line front end, and the one module that reads or writes files.

Every format lives here: series documents (JSON, read), expansion and
controllability documents (JSON, written), control documents (JSON, written
and read back by ``simulate``), and the remainder, trajectory and signal
tables (CSV, written). The library modules only compute.

A series document is a JSON object. ``terms`` lists ``[coefficient,
exponent]`` pairs; an optional ``tail`` object gives ``sumBound`` and
``lambdaFloor`` (see :class:`expseries.series.TailModel`). Each number is a
JSON number or a decimal or rational string such as "1/3". Other keys, at
either level, are ignored.

Exit codes: 0 success, 1 I/O failure, 2 validation failure, 3 domain error
(blocked mode, conditioning, or a non-finite or overflowing result). Outputs
never contain timestamps; the CSV commands (``series remainder``, ``control
simulate``, ``control observability``) write a provenance comment header
unless --no-header is given, so identical invocations produce byte-identical
files. Each subcommand imports only the library modules it uses and takes
only options that can change its output: ``control simulate`` reads the
control class and horizon from the control document. ``control
observability`` decides ``identicallyZero`` from the exact blocked set.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import contextmanager
from pathlib import Path

from . import BlockedModeError, ConditioningError, __version__


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv(header: str, rows, *footer: str) -> str:
    """One line per row, each field written by ``repr``, between fixed lines.

    No field ever needs quoting: numbers carry no comma, quote or newline.
    """
    lines = [header, *(",".join(map(repr, row)) for row in rows), *footer]
    return "\n".join(lines) + "\n"


def _parse_number(raw: object, name: str) -> float:
    """Accept JSON numbers plus decimal or rational strings such as "1/3"."""
    from .series import _require_finite
    if isinstance(raw, bool):
        raise ValueError(f"{name} must be a number, got a bool")
    if isinstance(raw, (int, float)):
        return _require_finite(raw, name)
    if isinstance(raw, str):
        from fractions import Fraction
        try:
            return _require_finite(float(Fraction(raw.strip())), name)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{name} does not parse as decimal or rational: {raw!r}") from exc
        except OverflowError as exc:
            raise ValueError(f"{name} overflows a double: {raw!r}") from exc
    raise ValueError(f"{name} must be a number or numeric string")


def _field(doc, key: str, document: str):
    """``doc[key]``, or a ``ValueError`` that names the document and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{document} must be a JSON object")
    if key not in doc:
        raise ValueError(f"{document} lacks '{key}'")
    return doc[key]


def _series_from_document(doc) -> series.DirichletSeries:
    from . import series
    terms = _field(doc, "terms", "series document")
    if not isinstance(terms, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in terms
    ):
        raise ValueError("'terms' must be a JSON array of [coefficient, exponent] arrays")
    terms = [
        (_parse_number(alpha, "coefficient"), _parse_number(lam, "exponent"))
        for alpha, lam in terms
    ]
    tail = doc.get("tail")
    if tail is not None:
        tail = series.TailModel(
            _parse_number(_field(tail, "sumBound", "'tail'"), "sumBound"),
            _parse_number(_field(tail, "lambdaFloor", "'tail'"), "lambdaFloor"),
        )
    return series.DirichletSeries(terms, tail)


def _load_series(args) -> series.DirichletSeries:
    if args.series:
        doc = json.loads(Path(args.series).read_text(encoding="utf-8"))
    elif args.terms:
        doc = {"terms": json.loads(args.terms)}
    else:
        raise ValueError("provide a series via --series FILE or --terms JSON")
    return _series_from_document(doc)


def _control_document(control: ControlFunction) -> dict:
    return {
        "kind": control.kind,
        "T": control.horizon,
        "exponents": list(control.exponents),
        "coeffs": list(control.coeffs),
        "momentResidual": control.moment_residual,
        "energy": control.energy,
        "gramCondition": control.gram_condition,
    }


def _numbers(doc: dict, key: str, name: str) -> tuple[float, ...]:
    values = _field(doc, key, "control document")
    if not isinstance(values, list):
        raise ValueError(f"control '{key}' must be a JSON array")
    return tuple(_parse_number(x, name) for x in values)


def _optional_number(doc: dict, key: str) -> float | None:
    return None if doc.get(key) is None else _parse_number(doc[key], key)


def _control_from_document(doc) -> ControlFunction:
    from .control import ControlFunction
    return ControlFunction(
        kind=str(_field(doc, "kind", "control document")),
        horizon=_parse_number(_field(doc, "T", "control document"), "T"),
        exponents=_numbers(doc, "exponents", "control exponent"),
        coeffs=_numbers(doc, "coeffs", "control coefficient"),
        moment_residual=_optional_number(doc, "momentResidual"),
        energy=_optional_number(doc, "energy"),
        gram_condition=_optional_number(doc, "gramCondition"),
    )


def _parse_state(text: str, min_modes: int = 1) -> SpectralState:
    from .control import SpectralState
    text = text.strip()
    if text == "0":
        return SpectralState.zero(max(1, min_modes))
    match = re.fullmatch(r"phi(\d+)", text)
    if match:
        return SpectralState.unit_mode(int(match.group(1)), min_modes)
    if text.startswith("["):
        coeffs = json.loads(text)
        return SpectralState([_parse_number(c, "state coefficient") for c in coeffs])
    raise ValueError(f"cannot parse state {text!r}: use 0, phiN, or a JSON list")


def _actuator(args) -> heat.Actuator:
    from . import heat
    return heat.Actuator.from_strings(args.a, args.b)


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
    # The output destination is not part of the computation. Dropping it in
    # every spelling argparse accepts (--out PATH, --out=PATH, and a prefix
    # such as --ou) keeps runs writing to different paths byte-identical.
    kept: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        flag, joined, _ = token.partition("=")
        if len(flag) < 3 or not "--out".startswith(flag):
            kept.append(token)
        elif not joined:
            next(tokens, None)
    return kept


def _emit(args, text: str, argv: list[str], is_csv: bool) -> None:
    if is_csv and not args.no_header:
        header = f"# expseries {__version__}\n# command: {' '.join(_echoable(argv))}\n"
        text = header + text
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# series subcommands
# ---------------------------------------------------------------------------


@contextmanager
def _overflow_names(what: str):
    """Report any overflow in the body as one ``OverflowError`` naming ``what``.

    ``math``, ``fsum``, ``evaluate`` and ``expand`` raise it with messages
    about themselves. numpy goes on with inf, or with 0 where an overflowed
    exponent underflows, so here it only notes each overflow, and other bodies
    check what they will write with ``_finite``; after a noted overflow, the
    ``ValueError`` that ``fsum`` raises on opposite infinities is that overflow too.
    """
    import numpy as np
    overflowed = []
    try:
        with np.errstate(over="call", invalid="ignore", call=lambda *_: overflowed.append(1)):
            yield
    except (OverflowError, ValueError) as exc:
        if isinstance(exc, ValueError) and not overflowed:
            raise
        raise OverflowError(f"{what} overflows a double") from None


def _finite(*values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise OverflowError


def _cmd_series_eval(args, argv) -> None:
    from . import series
    s = _load_series(args)
    with _overflow_names(f"the series value at t={args.t!r}"):
        result = series.evaluate(s, args.t)
    _emit(args, _dump_json({"value": result.value, "errorBound": result.error_bound}), argv, False)


def _cmd_series_expand(args, argv) -> None:
    from . import taylor
    s = _load_series(args)
    with _overflow_names(f"the expansion around tau={args.tau!r} to order {args.order}"):
        expansion = taylor.expand(s, args.tau, args.order)
    doc = {
        "center": expansion.center,
        "coeffs": list(expansion.coeffs),
        "bounds": list(expansion.coeff_bounds),
        "sumAbsAlpha": expansion.sum_abs_alpha,
    }
    _emit(args, _dump_json(doc), argv, False)


def _cmd_series_remainder(args, argv) -> None:
    from . import series, taylor
    s = _load_series(args)
    if args.nmax < 1:
        raise ValueError("--nmax must be at least 1")
    what = f"the remainder table around tau={args.tau!r} at t={args.t!r}"
    with _overflow_names(what):
        expansion = taylor.expand(s, args.tau, args.nmax)
    # Outside (0, 2*tau) the powers of t - tau overflow. Checked between the
    # blocks, a range error is never reported as an overflow noted in expand.
    taylor._radius_ratio(expansion, args.t)
    with _overflow_names(what):
        exact_value = series.evaluate(s, args.t).value
        partials = taylor.partial_sums(expansion, args.t)
        rows = [
            (n, args.t, float(abs(exact_value - p)), taylor.remainder_bound(expansion, n, args.t).bound)
            for n, p in enumerate(partials[1:], 1)
        ]
        _finite(*(value for row in rows for value in row[2:]))
    _emit(args, _csv("n,t,measured,certified", rows), argv, True)


# ---------------------------------------------------------------------------
# control subcommands
# ---------------------------------------------------------------------------


def _cmd_control_analyze(args, argv) -> None:
    from . import heat
    actuator = _actuator(args)
    if args.kind == "distributed":
        report = heat.distributed_controllability(actuator, j_check=args.jmax)
    else:
        report = heat.blocked_set(actuator, args.jmax)
    doc = {
        "verdict": report.verdict,
        "blockedPrefix": list(report.blocked_prefix),
        "modulusCharacterization": [{"modulus": m, "residues": [0]} for m in report.moduli],
        "jMax": report.j_max,
        "subspace": report.subspace,
    }
    _emit(args, _dump_json(doc), argv, False)


def _cmd_control_synthesize(args, argv) -> None:
    from .control import synthesize_distributed, synthesize_lumped
    actuator = _actuator(args)
    pieces = args.target.split("->")
    if len(pieces) != 2:
        raise ValueError("--target must look like 'phi1->0'")
    z0, z1 = (_parse_state(piece, args.N) for piece in pieces)
    synthesize = synthesize_distributed if args.kind == "distributed" else synthesize_lumped
    control, predicted = synthesize(z0, z1, actuator, args.T, args.N, regularization=args.reg)
    doc = _control_document(control)
    doc["predictedError"] = predicted
    _emit(args, _dump_json(doc), argv, False)


def _cmd_control_simulate(args, argv) -> None:
    from . import simulate
    control = _control_from_document(json.loads(Path(args.control).read_text(encoding="utf-8")))
    z0 = _parse_state(args.z0, len(control.coeffs) or 1)
    target = _parse_state(args.z1, z0.n_modes) if args.z1 else None
    with _overflow_names(f"the trajectory on [0, {control.horizon!r}]"):
        trajectory = simulate.propagate(
            z0, control, _actuator(args), control.horizon, steps=args.steps, target=target
        )
        _finite(*trajectory.states.flat, trajectory.terminal_error or 0.0)
    header = ",".join(["t"] + [f"z_{j}" for j in range(1, trajectory.n_modes + 1)])
    rows = ([t, *z] for t, z in zip(trajectory.times.tolist(), trajectory.states.tolist()))
    footer = []
    if trajectory.terminal_error is not None:
        footer.append(f"terminalError,{trajectory.terminal_error!r}")
    _emit(args, _csv(header, rows, *footer), argv, True)


def _cmd_control_observability(args, argv) -> None:
    from . import heat, simulate
    actuator = _actuator(args)
    y = _parse_state(args.y)
    with _overflow_names(f"the sensor output on [0, {args.T!r}]"):
        signal = simulate.observability_signal(y, actuator, args.T, args.samples)
    observable = any(simulate.project_onto_v(y, heat.blocked_set(actuator, y.n_modes)).coeffs)
    footer = f"identicallyZero,{'false' if observable else 'true'}"
    _emit(args, _csv("t,value", zip(signal.times, signal.values), footer), argv, True)


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

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--out", help="write output to this path instead of stdout")
    csv_parent = argparse.ArgumentParser(add_help=False, parents=[out_parent])
    csv_parent.add_argument("--no-header", action="store_true", help="omit provenance comments")

    series_parent = argparse.ArgumentParser(add_help=False)
    series_parent.add_argument("--series", help="path to a series document")
    series_parent.add_argument("--terms", help="inline JSON term list [[alpha, lambda], ...]")

    sp = top.add_parser("series", help="evaluate and expand exponential sums")
    sp_sub = sp.add_subparsers(dest="command", required=True)

    p_eval = sp_sub.add_parser("eval", parents=[out_parent, series_parent])
    p_eval.add_argument("--t", type=float, required=True)
    p_eval.set_defaults(handler=_cmd_series_eval)

    p_expand = sp_sub.add_parser("expand", parents=[out_parent, series_parent])
    p_expand.add_argument("--tau", type=float, required=True)
    p_expand.add_argument("--order", type=int, required=True)
    p_expand.set_defaults(handler=_cmd_series_expand)

    p_rem = sp_sub.add_parser("remainder", parents=[csv_parent, series_parent])
    p_rem.add_argument("--tau", type=float, required=True)
    p_rem.add_argument("--t", type=float, required=True)
    p_rem.add_argument("--nmax", type=int, default=20)
    p_rem.set_defaults(handler=_cmd_series_remainder)

    actuator_parent = argparse.ArgumentParser(add_help=False)
    actuator_parent.add_argument("--a", required=True, help="left endpoint (exact grammar)")
    actuator_parent.add_argument("--b", required=True, help="right endpoint (exact grammar)")
    kind_parent = argparse.ArgumentParser(add_help=False)
    kind_parent.add_argument("--kind", choices=["lumped", "distributed"], default="lumped")

    cp = top.add_parser("control", help="controllability analysis and synthesis")
    cp_sub = cp.add_subparsers(dest="command", required=True)

    p_an = cp_sub.add_parser("analyze", parents=[out_parent, actuator_parent, kind_parent])
    p_an.add_argument("--jmax", type=int, default=256)
    p_an.set_defaults(handler=_cmd_control_analyze)

    p_syn = cp_sub.add_parser("synthesize", parents=[out_parent, actuator_parent, kind_parent])
    p_syn.add_argument("--T", type=float, required=True)
    p_syn.add_argument("--N", type=int, required=True)
    p_syn.add_argument("--reg", type=float, default=0.0)
    p_syn.add_argument("--target", required=True, help="states 'z0->z1', such as 'phi1->0'")
    p_syn.set_defaults(handler=_cmd_control_synthesize)

    p_sim = cp_sub.add_parser("simulate", parents=[csv_parent, actuator_parent])
    p_sim.add_argument("--control", required=True, help="path to a control document")
    p_sim.add_argument("--z0", required=True, help="state: 0, phiN, or JSON list")
    p_sim.add_argument("--z1", help="target state (adds terminalError row)")
    p_sim.add_argument("--steps", type=int, default=64)
    p_sim.set_defaults(handler=_cmd_control_simulate)

    p_obs = cp_sub.add_parser("observability", parents=[csv_parent, actuator_parent])
    p_obs.add_argument("--y", required=True, help="state: 0, phiN, or JSON list")
    p_obs.add_argument("--T", type=float, required=True)
    p_obs.add_argument("--samples", type=int, default=65)
    p_obs.set_defaults(handler=_cmd_control_observability)

    return parser


def main(argv=None) -> int:
    argv = _attach_endpoints(list(sys.argv[1:]) if argv is None else list(argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        args.handler(args, argv)
    except (BlockedModeError, ConditioningError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
