"""Shared stream builders and hypothesis strategies."""

from __future__ import annotations

import functools
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from evsnn import _helper
from evsnn.events import EventStream


def make_stream(x, y, t, p, width=8, height=8, t_start=0, t_end=100, label=None):
    return EventStream(x=np.asarray(x), y=np.asarray(y), t=np.asarray(t),
                       p=np.asarray(p), width=width, height=height,
                       t_start=t_start, t_end=t_end, label=label)


def random_stream(rng: np.random.Generator, n: int = 200, width: int = 12,
                  height: int = 10, t_start: int = 0, t_end: int = 1000,
                  label=None) -> EventStream:
    t = np.sort(rng.integers(t_start, t_end, n))
    return EventStream(
        x=rng.integers(0, width, n), y=rng.integers(0, height, n), t=t,
        p=rng.integers(0, 2, n) * 2 - 1, width=width, height=height,
        t_start=t_start, t_end=t_end, label=label)


def binsafe_stream(rng: np.random.Generator, time_bins: int, n: int = 200,
                   width: int = 12, height: int = 10, bin_width: int = 50,
                   ) -> EventStream:
    """Stream whose timestamps sit strictly inside their bins (offsets in
    [1, bin_width-2]), so time reversal maps bin b to bin T-1-b exactly."""
    assert bin_width >= 4
    t_end = time_bins * bin_width
    bins = rng.integers(0, time_bins, n)
    offs = rng.integers(1, bin_width - 1, n)
    t = np.sort(bins * bin_width + offs)
    return EventStream(
        x=rng.integers(0, width, n), y=rng.integers(0, height, n), t=t,
        p=rng.integers(0, 2, n) * 2 - 1, width=width, height=height,
        t_start=0, t_end=t_end)


@st.composite
def stream_strategy(draw, max_events: int = 60, max_side: int = 16,
                    max_duration: int = 500):
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    t_start = draw(st.integers(0, 1000))
    duration = draw(st.integers(1, max_duration))
    t_end = t_start + duration
    n = draw(st.integers(0, max_events))
    xs = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, height - 1), min_size=n, max_size=n))
    ts = sorted(draw(st.lists(st.integers(t_start, t_end - 1),
                              min_size=n, max_size=n)))
    ps = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return make_stream(xs, ys, ts, ps, width=width, height=height,
                       t_start=t_start, t_end=t_end)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_helper_across_patches(request):
    """A test that monkeypatches starts and ends without a helper process:
    the helper is a fork, so one forked while a patch of ``nn.network`` is
    active keeps the patch after the test has undone it. The stop at the end
    runs before the patches are undone, so a faked ``_blas`` gets back the
    faked thread counts it gave the helper's fork."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    request.getfixturevalue("monkeypatch")  # set up first, so undone after this fixture
    _helper.stop()
    yield
    _helper.stop()


def logging_pids(monkeypatch, module, name: str, log: Path) -> None:
    """Wraps ``module.<name>`` so each call appends its process id to
    ``log``. The wrapper pickles by the wrapped function's name, so a helper
    process forked after the patch runs it too."""
    real = getattr(module, name)

    @functools.wraps(real)
    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(module, name, logged)
