"""What each entry point imports, and the lazily loaded package surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import expseries
from expseries import control, heat

SRC = Path(__file__).resolve().parents[1] / "src"

# The last line a probe prints lists every module loaded by then, also when
# the statement exits.
PROBE = """\
import atexit, sys
atexit.register(lambda: print("\\n" + " ".join(sys.modules)))
{}
"""


def cli_call(*argv: str) -> str:
    return f"from expseries.cli import main; sys.exit(main({list(argv)!r}))"


ANALYZE = ("control", "analyze", "--a", "0", "--b", "1/3")
BLOCKED = ("control", "synthesize", "--target", "phi4->0", "--a", "0", "--b", "1/2")
UNUSED_BY_EVAL = {
    "expseries.control",
    "expseries.exact",
    "expseries.heat",
    "expseries.simulate",
    "expseries.taylor",
    "expseries.uniqueness",
    "fractions",
}


@pytest.mark.parametrize(
    "statement, unloaded, code",
    [
        # The quadrature nodes are built on first use, not at import.
        pytest.param("import expseries.cli", {"numpy.polynomial"}, 0, id="cli-numpy.polynomial"),
        pytest.param("import expseries", {"numpy"}, 0, id="package"),
        pytest.param("import expseries.cli", {"numpy"}, 0, id="cli"),
        pytest.param(cli_call("--version"), {"numpy"}, 0, id="version"),
        pytest.param(cli_call(*ANALYZE), {"numpy"}, 0, id="analyze-lumped"),
        pytest.param(
            cli_call(*ANALYZE, "--kind", "distributed"), {"numpy"}, 0, id="analyze-distributed"
        ),
        pytest.param(
            cli_call("series", "eval", "--terms", "[[1,1]]", "--t", "1"),
            UNUSED_BY_EVAL,
            0,
            id="series-eval",
        ),
        pytest.param(cli_call(*BLOCKED, "--T", "1", "--N", "4"), set(), 3, id="blocked"),
    ],
)
def test_entry_point_leaves_modules_unloaded(statement, unloaded, code):
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(statement)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == code, result.stderr
    assert result.stderr == "" if code == 0 else result.stderr.startswith("error: ")
    loaded = set(result.stdout.splitlines()[-1].split())
    assert "expseries" in loaded
    assert not unloaded & loaded


def test_every_export_is_the_object_its_module_defines():
    assert expseries.Actuator is heat.Actuator
    for name in expseries.__all__:
        value = getattr(expseries, name)
        if name != "__version__":
            assert value is getattr(importlib.import_module(value.__module__), name)


def test_dir_lists_every_export():
    assert set(expseries.__all__) <= set(dir(expseries))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="NoSuchName"):
        expseries.NoSuchName
    assert not hasattr(expseries, "evaluate")


def test_control_raises_the_package_exceptions():
    assert control.BlockedModeError is expseries.BlockedModeError
    assert control.ConditioningError is expseries.ConditioningError
