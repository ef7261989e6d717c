"""Process set-up shared by the benchmark's entry scripts.

Call ``prepare()`` before anything imports numpy: BLAS/OpenMP read their
thread counts once, at load time.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare() -> None:
    """Pin every BLAS/OpenMP pool to one thread and put the package source
    first on the import path, so the benchmark measures the checkout's code."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
