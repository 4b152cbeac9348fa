"""Shared set-up for the benchmark scripts: thread pinning and the import
of the `histspec` package from the checkout's own `src/` directory."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")  # corpus files and span dumps
HERE = os.path.dirname(os.path.abspath(__file__))
N8_TABLE = os.path.join(HERE, "n8_thm2_table.json")
HIST_TABLE = os.path.join(HERE, "hist_search_table.json")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no `src/histspec` package to benchmark."""


def pin_threads():
    """Pin BLAS and OpenMP pools to one thread; call before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_histspec():
    """Import `histspec` from this checkout's `src/`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "histspec", "__init__.py")):
        raise MissingProgram(f"no histspec package under {SRC}")
    sys.path.insert(0, SRC)
    import histspec

    if not os.path.abspath(histspec.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"histspec imported from {histspec.__file__}, not {SRC}")
    return histspec
