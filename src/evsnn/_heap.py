"""The C allocator settings shared by the event layers and the network.

Training, inference and a data epoch all free tens of megabytes of arrays
that the next sample or step allocates again; trimmed back to the kernel,
that memory is page-faulted in once more every time.
"""

from __future__ import annotations

import ctypes
from functools import cache

# glibc mallopt parameters
M_TOP_PAD = -2  # free bytes kept at the top of the heap on trim
M_MMAP_THRESHOLD = -3  # smallest request served by its own mmap
M_ARENA_MAX = -8  # most arenas the threads of a process allocate from


@cache
def keep_heap() -> bool:
    """Once per process, ask the C allocator to keep 64 MiB of freed memory
    at the top of the heap instead of trimming it back to the kernel. Does
    nothing where libc has no ``mallopt`` (macOS, Windows); returns whether
    every setting took.

    Setting the top pad stops glibc from raising its mmap threshold as large
    blocks are freed, so the threshold is pinned at glibc's 64-bit maximum,
    32 MiB; below it no array is mmapped and faulted in again on each
    allocation. One arena makes ``forward``'s helper thread allocate from
    the same padded heap."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    return all([mallopt(M_TOP_PAD, 64 << 20), mallopt(M_MMAP_THRESHOLD, 32 << 20),
                mallopt(M_ARENA_MAX, 1)])
