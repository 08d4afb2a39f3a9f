"""One helper process per Python process, which runs a function on arrays
beside the caller.

``beside`` runs a function on both halves of a split batch, the second here
while the caller runs the first (two processes do not share an interpreter
lock, so both cores work), or in the caller after the first where no helper
can be had, reached and kept through the job; it always returns both results.

The helper is a daemonic process forked on first use where this process's
OpenBLAS runs two or more threads. The fork drops the caller's OpenBLAS to
one thread, which the helper inherits, until the helper stops (at two, the
two processes' BLAS threads would compete for the cores). The arrays it
works on travel through an anonymous shared mapping made before the fork;
only a small job message and the function's result go through the pipe. A
call that needs more room than the mapping has forks a new helper with a
larger one. Callers from several threads take turns. A helper that died is
forked again. A forked child forgets its parent's helper, with the counts
from before its fork, and forks its own. ``stop`` stops the helper, killing
one that does not leave within ``_JOIN_S``, and gives the caller its counts
back; it runs at interpreter exit before multiprocessing's exit handler,
which would join the helper with no timeout. ``usage`` asks a live helper
for its resource usage and never forks one.
"""

from __future__ import annotations

import atexit
import mmap
import multiprocessing
import multiprocessing.process
import multiprocessing.util  # registers its exit handler before ``stop`` is, to run after it
import os
import resource
import signal
import threading
from typing import Callable

import numpy as np

from . import _blas

_ALIGN = 64           # byte alignment of each array in the shared mapping
_MIN_SIZE = 1 << 20   # the smallest mapping; larger ones are powers of two
_JOIN_S = 5.0         # how long ``stop`` waits for the helper to leave


class _Helper:
    """The helper process, its pipe end, its mapping and the caller's thread counts."""

    def __init__(self, size: int, threads: list[int]):
        self.size, self.threads = size, threads
        self.shared = mmap.mmap(-1, size)  # MAP_SHARED | MAP_ANONYMOUS
        fork = multiprocessing.get_context("fork")
        self.conn, child_end = fork.Pipe()
        self.process = fork.Process(target=_serve, args=(child_end, self.conn, self.shared),
                                    name="evsnn-helper", daemon=True)
        try:
            self.process.start()
        finally:
            child_end.close()


_current: _Helper | None = None
_turns = threading.Lock()


def _layout(arrays: dict[str, np.ndarray]) -> tuple[dict, int]:
    """Where each array goes in the mapping, as (shape, dtype, offset,
    strides) by name, and the bytes they need. Each keeps its memory order
    of axes, packed."""
    layout, end = {}, 0
    for name, a in arrays.items():
        strides, step = [0] * a.ndim, a.itemsize
        for axis in sorted(range(a.ndim), key=lambda i: abs(a.strides[i])):
            strides[axis], step = step, step * a.shape[axis]
        offset = -(-end // _ALIGN) * _ALIGN
        layout[name] = (a.shape, a.dtype.str, offset, tuple(strides))
        end = offset + a.nbytes
    return layout, end


def _views(shared: mmap.mmap, layout: dict) -> dict[str, np.ndarray]:
    return {name: np.ndarray(shape, dtype, shared, offset, strides)
            for name, (shape, dtype, offset, strides) in layout.items()}


def _serve(conn, caller_end, shared: mmap.mmap) -> None:
    """The helper's loop: run each job the caller sends and send back
    (True, result) or (False, the exception), until the caller sends None
    or goes away."""
    caller_end.close()  # so the caller's exit reads as the end of the pipe here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            return
        fn, args, layout, err = job
        try:
            with np.errstate(**err):
                reply = (True, fn(_views(shared, layout), *args))
        except Exception as exc:  # raised in the caller
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception:  # a reply that does not pickle, or the caller gone:
            return         # the caller finds the pipe closed and runs the work itself


def _handed(fn: Callable, there: dict[str, np.ndarray], args: tuple) -> _Helper | None:
    """This process's live helper, forked if need be with room for ``there``,
    sent the job fn(there, *args) on copies of ``there`` in its mapping; None
    where OpenBLAS runs fewer than two threads (no second core to give, or no
    OpenBLAS found) or the fork or the send fails."""
    global _current
    layout, size = _layout(there)
    if _current is not None and (_current.size < size or not _current.process.is_alive()):
        _stop()
    if _current is None:
        threads = _blas.threads()
        if max(threads, default=1) < 2:
            return None
        _blas.set_threads([1] * len(threads))
        try:
            _current = _Helper(max(_MIN_SIZE, 1 << (size - 1).bit_length()), threads)
        except OSError:
            _blas.set_threads(threads)
            return None
    for name, view in _views(_current.shared, layout).items():
        view[...] = there[name]
    return _sent(fn, args, layout)


def _sent(fn: Callable, args: tuple, layout: dict) -> _Helper | None:
    """This process's live helper, sent the job fn(arrays, *args) on the
    arrays ``layout`` places in its mapping; None, with it stopped, where the
    send fails."""
    try:
        _current.conn.send((fn, args, layout, np.geterr()))
    except OSError:  # the helper is gone
        _stop()
        return None
    return _current


def beside(fn: Callable, here: dict, there: dict, *args) -> tuple:
    """(fn(here, *args), fn(there, *args)): the only code that decides where
    the second runs. Where a helper can be had, reached and kept through the
    job, the second runs there on copies of ``there`` in the shared mapping,
    under the caller's ``np.geterr()``, while the first runs here, and an
    exception of either is raised once both have finished, the first's
    first; else the second runs here after the first."""
    with _turns:  # held only while a job is in the helper's hands
        helper = _handed(fn, there, args)
        if helper is not None:
            try:
                first = fn(here, *args)
            finally:
                reply = _reply(helper)
    if helper is None:
        first, reply = fn(here, *args), None
    if reply is None:  # no helper took the job, or it died in it
        return first, fn(there, *args)
    ok, second = reply
    if not ok:
        raise second
    return first, second


def _reply(helper: _Helper):
    """The helper's reply to the job sent; None, with the helper stopped,
    where it cannot be read."""
    try:
        return helper.conn.recv()
    except Exception:  # EOF, a broken pipe or a reply that does not unpickle
        _stop()
        return None
    except BaseException:  # interrupted while the helper works: its state is unknown
        _stop()
        raise


def usage() -> resource.struct_rusage | None:
    """The live helper's ``getrusage(RUSAGE_SELF)``, asked for through one
    job; None where no helper lives (none is forked) or it does not answer."""
    with _turns:
        helper = _current and _sent(_own_usage, (), {})
        reply = _reply(helper) if helper is not None else None
    return reply[1] if reply is not None and reply[0] else None


def _own_usage(arrays: dict) -> resource.struct_rusage:
    return resource.getrusage(resource.RUSAGE_SELF)


def stop() -> None:
    """Stop and join this process's helper, if it has one, giving back the
    thread counts its fork took; the next call forks a new one."""
    with _turns:
        _stop()


def threads() -> list[int]:
    """This process's OpenBLAS thread counts: while a helper lives, those
    from before its fork; else ``_blas.threads()``."""
    helper = _current
    return _blas.threads() if helper is None else list(helper.threads)


def _stop() -> None:
    global _current
    helper, _current = _current, None
    if helper is None:
        return
    _blas.set_threads(helper.threads)
    try:
        helper.conn.send(None)
    except OSError:
        pass
    helper.process.join(_JOIN_S)
    if helper.process.is_alive():
        helper.process.kill()
        helper.process.join()
    helper.conn.close()
    helper.process.close()


def _forget() -> None:
    """In a forked child: drop the parent's helper without stopping it, take
    back its thread counts, and renew the lock another thread may have held."""
    global _current, _turns
    _turns = threading.Lock()
    if _current is not None:
        # else multiprocessing would SIGTERM the parent's helper at this child's exit
        multiprocessing.process._children.discard(_current.process)
        _current.conn.close()
        _blas.set_threads(_current.threads)
        _current = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
atexit.register(stop)  # handlers run last registered first
