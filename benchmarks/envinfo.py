"""The machine and library facts every benchmark result is recorded with.

A speed figure means little without the core count and the BLAS thread
count, so each result carries both. threadpoolctl is not a dependency, so
the OpenBLAS thread count is asked from the loaded library itself through
ctypes: every OpenBLAS build exports ``openblas_get_num_threads``, under the
``scipy_openblas_`` prefix and ``64_`` suffix in the wheels numpy and scipy
ship.
"""

from __future__ import annotations

import ctypes
import os
import platform

BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")
_SYMBOL_FORMS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                 ("openblas_", "64_"), ("openblas_", ""))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _query(lib: ctypes.CDLL, stem: str, restype):
    for prefix, suffix in _SYMBOL_FORMS:
        fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_libraries() -> list[dict]:
    """Vendor, build string and effective thread count of each loaded OpenBLAS."""
    out = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            out.append({"library": os.path.basename(path), "error": str(exc)})
            continue
        config = _query(lib, "get_config", ctypes.c_char_p)
        core = _query(lib, "get_corename", ctypes.c_char_p)
        out.append({"library": os.path.basename(path), "vendor": "OpenBLAS",
                    "config": config.decode() if config else None,
                    "core": core.decode() if core else None,
                    "threads": _query(lib, "get_num_threads", ctypes.c_int)})
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's own BLAS, if it has one)

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
    }
