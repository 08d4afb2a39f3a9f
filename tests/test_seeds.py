"""Golden seed derivations: each seed path of a run, pinned by the
``generate_state`` output of the SeedSequence it builds. numpy specifies
SeedSequence's hashing independently of platform and version; it promises
no such thing for ``Generator`` draws, so no draw is pinned here. A changed
derivation changes the bytes of every run that uses it, which a run compared
with itself (criterion 7) cannot see. SeedSequence pads its entropy with
zeros, so [0], [0, 0] and [0, 0, 0] hash alike: several paths' first pins
below agree."""

import numpy as np
import pytest

from evsnn.augment import RngStream
from evsnn.bench import derive_seed, kfold_split
from evsnn.nn import init_params, sew_tiny
from evsnn.nn.train import _epoch_rngs


@pytest.fixture
def seeded(monkeypatch):
    """The state of the SeedSequence the next ``np.random.default_rng`` call
    is given, as a function of no arguments."""
    given, default_rng = [], np.random.default_rng

    def recording(seed):
        given.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)

    def state():
        (seq,) = given
        given.clear()
        return seq.generate_state(2).tolist()

    return state


@pytest.mark.parametrize("seed,epoch,shuffle,augment", [
    (0, 0, [2968811710, 3677149159], 3831201730),
    (7, 3, [3466196061, 1178487100], 1060801321),
])
def test_epoch_children(seeded, seed, epoch, shuffle, augment):
    _, aug_seed = _epoch_rngs(seed, epoch)
    assert seeded() == shuffle
    assert aug_seed == augment


@pytest.mark.parametrize("sample,transform,want", [
    (0, 1, [2574907132, 2712705908]),
    (5, 2, [995524180, 4036637632]),
    (17, 0, [2318200923, 2949282488]),
])
def test_transform_split(seeded, sample, transform, want):
    RngStream(1234, sample).split(transform)
    assert seeded() == want


def test_fold_seeds():
    # (param, train, shuffled-eval) seeds of folds 0 and 9 of seed 2023
    assert [derive_seed(2023, fold, j) for fold in (0, 9) for j in (0, 1, 2)] == [
        1385607087, 120779271, 4192529572, 2744454069, 1609237330, 1096669556]


def test_sweep_cell_seeds():
    assert [derive_seed(seed, mask) for seed, mask in [(0, 0), (0, 31), (5, 17)]] == [
        2968811710, 3478692713, 2481524307]


@pytest.mark.parametrize("seed,want", [(0, [2968811710, 3677149159]),
                                       (3, [1576890651, 2902887791])])
def test_kfold_split_sequence(seeded, seed, want):
    kfold_split(40, 10, seed)
    assert seeded() == want


@pytest.mark.parametrize("seed,want", [(0, [2968811710, 3677149159]),
                                       (11, [1926383459, 914257217])])
def test_init_params_sequence(seeded, seed, want):
    init_params(sew_tiny(4), seed)
    assert seeded() == want
