"""Names and the child environment shared by the runner and the workloads."""

from __future__ import annotations

import os
from pathlib import Path

WORKLOAD_NAMES = ("certify", "steer", "identify", "cli")


def child_env(root: Path) -> dict[str, str]:
    """Environment of every benchmark child and every CLI subprocess."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env
