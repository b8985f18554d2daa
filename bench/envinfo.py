"""Process environment of the benchmark: BLAS pinning, source tree, versions.

This module imports nothing heavy, so an entry script can pin the BLAS
thread pools before numpy is loaded.  OpenBLAS reads its thread count
once, when the library initialises; setting the variables afterwards has
no effect.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A default OpenBLAS pool on a 2-core machine made one frame-integration
# pass swing between 4.0 s and 6.2 s; one thread kept it within 4%.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool of this process and its children to one thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Import normalflat from this checkout's ``src``, or exit with code 2.

    The benchmark measures the code next to it; an installed copy of the
    package must never stand in for a missing source tree.
    """
    if not (SRC / "normalflat" / "__init__.py").is_file():
        print(f"bench: no normalflat source tree under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import normalflat

    if Path(normalflat.__file__).resolve().parent != SRC / "normalflat":
        print(f"bench: normalflat imported from {normalflat.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def os_thread_count() -> int:
    """Threads of this process, read from /proc (1 when BLAS is pinned)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return -1


def describe() -> dict:
    """Versions and settings that a reader needs to compare two runs."""
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "os_threads": os_thread_count(),
        "nproc": len(os.sched_getaffinity(0)),
    }
