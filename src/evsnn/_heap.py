"""The C allocator setting shared by the event layers and the network.

Training, inference and a data epoch all free tens of megabytes of arrays
that the next sample or step allocates again; trimmed back to the kernel,
that memory is page-faulted in once more every time.
"""

from __future__ import annotations

import ctypes
from functools import cache

# glibc mallopt parameter: free bytes kept at the top of the heap on trim
M_TOP_PAD = -2


@cache
def keep_heap() -> bool:
    """Once per process, ask the C allocator to keep 64 MiB of freed memory
    at the top of the heap instead of trimming it back to the kernel. Does
    nothing where libc has no ``mallopt`` (macOS, Windows); returns whether
    the setting took."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    return bool(mallopt(M_TOP_PAD, 64 << 20))
