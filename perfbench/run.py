"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Each run starts fresh interpreters (``child.py``) with ``PYTHONPATH`` set to
``src`` and single-threaded BLAS. The first ``SETUP_REPEATS - 1`` children
only set up, so that set-up is timed several times; the last one goes on to
the timed tasks, whose number ``--seconds`` fixes. The client is a closed
loop with one task in flight.

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones. Human-readable
lines, including the failure fraction and the host calibration, come first;
the JSON object is always the last line. Any harness error exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import end_to_end  # noqa: E402
from common import WORKLOAD_NAMES, child_env  # noqa: E402

SETUP_REPEATS = 5
DEADLINE_S = 170.0


def run_child(root: Path, args, setup_only: bool, timeout: float) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, result["ready_monotonic"] - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "expseries" / "__init__.py").is_file():
        print(f"error: no expseries sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    try:
        for i in range(SETUP_REPEATS):
            last = i == SETUP_REPEATS - 1
            result, setup_s = run_child(root, args, not last, deadline - time.monotonic())
            setups.append(setup_s)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for failure in result["failures"]:
        print(f"FAILED {args.workload} {failure}", file=sys.stderr)
    durations = result["durations_ms"]
    print(f"{args.workload}: seed {args.seed}, {result['tasks']} tasks, "
          f"{len(durations)} timed untraced, failed_frac "
          f"{result['failed'] / result['attempted']:.4f} ({result['failed']}/{result['attempted']})")
    print(f"{args.workload}: task p50 {statistics.median(durations):.3f} ms; host calibration "
          f"{result['calib_before_ms']:.3f} ms before, {result['calib_during_ms']:.3f} ms during, "
          f"{result['calib_after_ms']:.3f} ms after; set-up runs "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")

    if args.trace:
        values = result["per_layer"]
        wanted = spec["per_layer"]
        print(f"{args.workload}: spans written to {result['trace_file']}")
    else:
        values = end_to_end(durations, setups, result["peak_rss_mb"])
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json {names}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"  {args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
