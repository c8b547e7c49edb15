"""Process set-up shared by the benchmark entry point and its self-tests.

`prepare` pins the BLAS thread pools, which OpenBLAS reads once when numpy
first loads, and then imports pcvstream from this checkout's `src`
directory, refusing any other copy. It must run before numpy is imported.
"""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS thread was the steadier setting on a 2-CPU host, and it keeps
# float results independent of the core count.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin BLAS threads and import pcvstream from ./src; exits non-zero
    when the sources are missing. Safe to call twice."""
    pinned = all(os.environ.get(v) == str(BLAS_THREADS) for v in _THREAD_VARS)
    if "numpy" in sys.modules and not pinned:
        raise RuntimeError("prepare() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "pcvstream" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pcvstream sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("pcvstream")
    if Path(module.__file__).resolve().parent != SRC / "pcvstream":
        sys.exit(f"perfbench: imported pcvstream from {module.__file__}, "
                 f"not from {SRC}")
    return module


def host_info() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }
