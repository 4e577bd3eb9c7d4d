"""Print every statement of src/expseries that real traffic does not reach.

The traffic is the README's Python quick start and ``expseries`` commands,
the four demos, and the task bodies of one seed of each perfbench workload
(``run`` of every task of the base list; for ``cli``, whose bodies start
subprocesses, the same argvs through ``cli.main`` in process). Run from
anywhere, with numpy installed:

    python tools/traffic.py [--seed 7]

Each unreached statement prints as ``path:line: source``, followed by one
count per file. Docstrings and ``global`` declarations are not statements
here; a statement counts as reached when any line of its own (its header,
for compound statements) runs. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import re
import runpy
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "expseries"


def statements(path: Path) -> dict[int, range]:
    """Each statement's first line, mapped to the lines that are its own."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    skipped = {n.body[0] for n in ast.walk(tree) if isinstance(n, scopes) and ast.get_docstring(n)}
    own = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if node in skipped:  # docstrings
            continue
        children = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        own[node.lineno] = range(node.lineno, min(children, default=node.end_lineno + 1))
    return own


def readme_traffic() -> None:
    from expseries.cli import main

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S):
        exec(compile(block, "README.md", "exec"), {})
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.splitlines():
            if line.startswith("expseries "):
                main(shlex.split(line)[1:])


def demo_traffic() -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def workload_traffic(seed: int, workdir: Path) -> None:
    import workloads

    for name in ("certify", "steer", "identify", "cli"):
        workload = workloads.make_workload(name, ROOT, workdir / name)
        tasks = workload.make_tasks(seed, 1)
        if name == "cli":
            os.chdir(ROOT)  # its argvs name files relative to the root
            workload.prepare(tasks)
            continue
        for task in tasks:
            workload.run(workload.materialize(task))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="perfbench seed (default 7)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    prefix = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    home = os.getcwd()
    with (
        tempfile.TemporaryDirectory() as tmp,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        os.chdir(tmp)  # the README commands and the demos write files here
        sys.settrace(trace)
        try:
            readme_traffic()
            demo_traffic()
            workload_traffic(args.seed, Path(tmp))
        finally:
            sys.settrace(None)
            os.chdir(home)

    total = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        missed = [first for first, own in sorted(statements(path).items())
                  if not any((str(path), line) in hits for line in own)]
        for first in missed:
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
        counts.append(f"{path.relative_to(ROOT)}: {len(missed)} of {len(statements(path))}")
        total += len(missed)
    print(*counts, f"unreached statements: {total}", sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
