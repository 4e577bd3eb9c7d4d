"""Print the exit code and output hashes of a fixed set of CLI and demo runs.

Diffing the output of two checkouts shows which runs changed their bytes:

    python tools/cli_bytes.py --root OLD > old.txt
    python tools/cli_bytes.py > new.txt
    diff old.txt new.txt

Each run prints one line: its exit code, the sha256 of its output (the
``--out`` file when the argv names one, else stdout), the sha256 of stderr,
and the argv. The runs are the README's ``expseries`` commands, the perfbench
cli argvs at seeds 7-11 (from ``perfbench/workloads.py`` of the checkout),
the short-horizon and overflow argvs below, and the four demos. Each run is
a fresh ``python -m expseries.cli`` (or demo) subprocess with ``PYTHONPATH``
set to the checkout's ``src``. A group's runs share a scratch directory as
their working directory, so a control file written by one run is read by the
next.
Only the standard library is used here; the workloads module needs numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# Results that overflow a double: the overflow cases of tests/test_cli.py, a
# zero coefficient on an overflowing exponential, and control documents whose
# energy or predicted error would overflow. "c.json" is written by the
# synthesize run just before it is read.
OVERFLOW = [
    "series eval --terms [[1,-1000]] --t 1",
    "series eval --terms [[1e308,-1],[1e308,-2]] --t 1",
    "series eval --terms [[1e308,1],[1e308,2]] --t 0.0001",
    "series eval --terms [[1,-1000],[-1,-1001]] --t 1",
    "series eval --terms [[0,-1000]] --t 1",
    "series eval --terms [[0,-1000],[1,1]] --t 1",
    "series expand --terms [[1e308,1],[1e308,2]] --tau 0.0001 --order 3",
    "series expand --terms [[1e300,100]] --tau 0.0001 --order 120",
    "series remainder --terms [[1e308,1],[1e308,2]] --tau 0.0001 --t 0.0002 --nmax 3",
    "series remainder --terms [[1e300,100]] --tau 0.0001 --t 0.00015 --nmax 120",
    "series remainder --terms [[1,1]] --tau 1 --t 1e200 --nmax 5",
    "series remainder --terms [[1,1e300]] --tau 1e10 --t 3e10 --nmax 5",
    "series eval --terms [[1,1e300]] --t 1e10",
    "control observability --a 0 --b 1 --y [1.7e308,0,1.7e308] --T 1 --samples 2",
    "control synthesize --target [1e200,0,0]->0 --a 0 --b 1 --T 1 --N 1 --out c.json",
    "control simulate --control c.json --a 0 --b 1 --z0 [1e200,0,0] --z1 0",
    "control synthesize --target [1,0,1e200]->0 --a 0 --b 1 --T 1 --N 1 --out c.json",
    "control synthesize --kind distributed --target [1e200,0,0]->0 --a 0 --b 1/2 --T 0.001 "
    "--N 2 --out c.json",
    "control synthesize --target phi1->0 --a 0 --b 1 --T 1 --N 1 --out c.json",
    "control simulate --control c.json --a 0 --b 1 --z0 phi1 --z1 0",
    "control simulate --control c.json --a 0 --b 1 --z0 [1e200] --z1 0",
]
# Short horizons, where np.expm1 and math.expm1 disagree on a few Gram entries:
# a lumped and a distributed control, each simulated after it is written.
SHORT = [
    "control synthesize --target phi1->0 --a 0 --b 1/3 --T 0.01 --N 3 --out s.json",
    "control simulate --control s.json --a 0 --b 1/3 --z0 phi1 --z1 0",
    "control synthesize --kind distributed --target phi1->0 --a 0 --b 1/2 --T 0.01 --N 4 "
    "--out s.json",
    "control simulate --control s.json --a 0 --b 1/2 --z0 phi1 --z1 0",
]
# A control whose exponential overflows on the time grid.
OVERFLOWING_CONTROL = '{"kind":"lumped","T":1,"exponents":[1e3],"coeffs":[1e300]}'


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(root: Path, cwd: Path, argv: list[str], label: str, out_name: str | None = None) -> str:
    """One run's line: exit code, output hash, stderr hash, ``label``."""
    out = cwd / out_name if out_name else None
    if out is not None:
        out.unlink(missing_ok=True)
    proc = subprocess.run(
        argv, cwd=cwd, capture_output=True, check=False,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    data = out.read_bytes() if out is not None and out.exists() else proc.stdout
    return f"{proc.returncode} {sha(data)} {sha(proc.stderr)} {label}"


def cli(root: Path, cwd: Path, argv: list[str]) -> str:
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    return run(root, cwd, [sys.executable, "-m", "expseries.cli", *argv], shlex.join(argv), out)


def readme_argvs(root: Path) -> list[list[str]]:
    readme = (root / "README.md").read_text(encoding="utf-8")
    return [
        shlex.split(line)[1:]
        for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        for line in block.splitlines()
        if line.startswith("expseries ")
    ]


def workload_argvs(root: Path, work: Path, seeds: range) -> list[list[str]]:
    """The cli workload's argvs; its control file lands in ``work/cli``."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    workload = workloads.make_workload("cli", work, work / "cli")
    (work / "cli").mkdir(exist_ok=True)
    return [task.params["argv"] for seed in seeds for task in workload.make_tasks(seed, 1)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to run (default: the one holding this script)")
    root = parser.parse_args(argv).root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        groups = {
            name: Path(tmp) / name for name in ("readme", "workload", "short", "overflow", "demos")
        }
        for path in groups.values():
            path.mkdir()
        for args in readme_argvs(root):
            print(cli(root, groups["readme"], args))
        for args in workload_argvs(root, groups["workload"], range(7, 12)):
            print(cli(root, groups["workload"], args))
        for line in SHORT:
            print(cli(root, groups["short"], shlex.split(line)))
        (groups["overflow"] / "big.json").write_text(OVERFLOWING_CONTROL, encoding="utf-8")
        for line in OVERFLOW:
            print(cli(root, groups["overflow"], shlex.split(line)))
        print(cli(root, groups["overflow"], shlex.split(
            "control simulate --control big.json --a 0 --b 1 --z0 phi1 --z1 0 --steps 16")))
        for demo in sorted((root / "demos").glob("*.py")):
            print(run(root, groups["demos"], [sys.executable, str(demo)], f"demos/{demo.name}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
