"""One helper process per Python process, which runs a function on arrays
beside the caller.

``nn.network`` runs the second half of a split batch here while the caller
runs the first: two processes do not share an interpreter lock, so the
Python work around each layer's numpy calls runs on both cores at once.

The helper is a daemonic process forked on first use. The arrays it works on
travel through an anonymous shared mapping made before the fork; only a
small job message and the function's result go through the pipe. A call
that needs more room than the mapping has forks a new helper with a larger
one. Callers from several threads take turns. A helper that died is forked
again; a call that cannot reach the helper returns None, and the caller runs
the work itself. A forked child forgets its parent's helper and forks its
own. At interpreter exit multiprocessing stops and joins the helper, as it
does every daemonic process; ``stop`` does the same at any time.
"""

from __future__ import annotations

import mmap
import multiprocessing
import multiprocessing.process
import os
import signal
import threading
from typing import Callable

import numpy as np

from . import _blas

_ALIGN = 64           # byte alignment of each array in the shared mapping
_MIN_SIZE = 1 << 20   # the smallest mapping; larger ones are powers of two
_JOIN_S = 5.0         # how long ``stop`` waits for the helper to leave


class _Helper:
    """The helper process, its pipe end and the mapping it reads."""

    def __init__(self, size: int):
        self.size = size
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
    _blas.set_threads([1] * len(_blas.threads()))
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


def _ready(size: int) -> _Helper | None:
    """This process's live helper with at least ``size`` bytes of mapping,
    forked if there is none; None if it cannot be forked."""
    global _current
    if _current is not None and (_current.size < size or not _current.process.is_alive()):
        _stop()
    if _current is None:
        try:
            _current = _Helper(max(_MIN_SIZE, 1 << (size - 1).bit_length()))
        except OSError:
            return None
    return _current


def beside(main: Callable, fn: Callable, arrays: dict[str, np.ndarray], *args):
    """(main(), fn(arrays, *args)): main runs here while this process's
    helper runs fn on copies of ``arrays`` in the shared mapping, under the
    caller's ``np.geterr()``. Both run with OpenBLAS at one thread (at two,
    its threads would compete with the two processes for the cores); the
    caller's thread counts are restored on return. Once both have finished,
    an exception of either is raised here, main's first. Returns None where
    this process's OpenBLAS runs fewer than two threads (no second core to
    give, or no OpenBLAS found), having run neither, or where the helper
    cannot be reached; main's result, if it ran, is then dropped."""
    with _turns:
        threads = _blas.threads()
        if max(threads, default=1) < 2:
            return None
        layout, size = _layout(arrays)
        _blas.set_threads([1] * len(threads))
        try:
            helper = _ready(size)
            if helper is None:
                return None
            for name, view in _views(helper.shared, layout).items():
                view[...] = arrays[name]
            try:
                helper.conn.send((fn, args, layout, np.geterr()))
            except OSError:  # the helper is gone
                _stop()
                return None
            try:
                first = main()
            finally:
                reply = _reply(helper)
        finally:
            _blas.set_threads(threads)
        if reply is None:
            return None
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


def stop() -> None:
    """Stop and join this process's helper, if it has one; the next call
    forks a new one."""
    with _turns:
        _stop()


def _stop() -> None:
    global _current
    helper, _current = _current, None
    if helper is None:
        return
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
    """In a forked child: drop the parent's helper without stopping it, and
    renew the lock another thread may have held at the fork."""
    global _current, _turns
    _turns = threading.Lock()
    if _current is not None:
        # else multiprocessing would SIGTERM the parent's helper at this child's exit
        multiprocessing.process._children.discard(_current.process)
        _current.conn.close()
        _current = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
