"""OpenBLAS thread control through ctypes, without threadpoolctl.

The sweep's pool workers hold their BLAS to one thread so parallel workers
do not compete for the cores. ``_helper`` holds the caller's there from the
fork of the helper process that runs the second half of a split batch, which
inherits the one thread, until the helper stops.
"""

from __future__ import annotations

import ctypes
from functools import cache

# (prefix, suffix) around the OpenBLAS function names in the builds numpy
# and scipy ship, then in a plain system build
_OPENBLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                     ("openblas_", "64_"), ("openblas_", ""))


@cache
def openblas_functions(stem: str, restype, *argtypes) -> tuple:
    """Function ``openblas_<stem>`` of every OpenBLAS mapped into this
    process, typed for ctypes; empty when none is loaded. Looked up once per
    process: numpy loads its OpenBLAS on import."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, list(argtypes)
                out.append(fn)
                break
    return tuple(out)


def threads() -> list[int]:
    """The thread count of every loaded OpenBLAS, in ``openblas_functions``
    order."""
    return [get() for get in openblas_functions("get_num_threads", ctypes.c_int)]


def set_threads(counts: list[int]) -> None:
    """Set every loaded OpenBLAS to its entry of ``counts``."""
    for set_one, n in zip(openblas_functions("set_num_threads", None, ctypes.c_int), counts):
        set_one(n)
