"""Acceptance suite: one test per shipped guarantee, in order.

Each test prints a single "[criterion N] PASS/FAIL" line before asserting
(run with -s to see the lines on a passing run). The full-scale 10-fold
training run is shared between criteria 5 and 8 through a module fixture;
everything else is self-contained and fast.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

from evsnn import _helper, synth
from evsnn.augment import (
    COMMON_EDAS,
    crop,
    eventdrop,
    hflip,
    mirror,
    polflip,
    reverse,
)
from evsnn.bench import (
    derive_seed,
    run_cv,
    spec_for_mask,
    sweep_common_eda,
)
from evsnn.cli import main
from evsnn.energy import (
    EnergyConstants,
    estimate,
    estimate_from_traces,
    flops_ann,
)
from evsnn.events import validate, voxelize
from evsnn.nn import (
    IF,
    SEW,
    Accumulator,
    Classifier,
    Conv2d,
    GlobalPool,
    NetworkConfig,
    SynapticLayer,
    backward,
    forward,
    if_step,
    init_params,
)
from evsnn.nn.network import config_to_json, sew_tiny
from evsnn.nn.surrogate import arctan_surrogate, arctan_surrogate_grad
from evsnn.nn.train import TrainSettings, cross_entropy, train, voxelize_set
from evsnn.regress import eda_design, eda_regression, student_t_sf2

from conftest import binsafe_stream, random_stream

# Winner of the reduced-fidelity screening sweep over all 32 common-EDA
# combinations (k=2 folds, 8 epochs, 25 samples/class, cell seeds
# derive_seed(11, mask)): crop+hflip at mean 0.78, ahead of no-EDA at 0.67.
# Every reverse-containing combination scored <= 0.58 (the ring pair is
# temporally directed, so time reversal relabels it).
BEST_MASK = 3


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")


def tuples(stream):
    return list(zip(stream.x.tolist(), stream.y.tolist(),
                    stream.t.tolist(), stream.p.tolist()))


def streams_equal(a, b) -> bool:
    return (np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
            and np.array_equal(a.t, b.t) and np.array_equal(a.p, b.p))


# ---------------------------------------------------------------------------
# criterion 1: surrogate exactness and BPTT vs central differences


def fd_check(config, params, x, labels, eps=1e-5):
    """Max norm-relative error between BPTT and central differences."""
    def loss():
        logits, _ = forward(config, params, x, mode="relaxed")
        return cross_entropy(logits, labels)

    _, trace = forward(config, params, x, mode="relaxed")
    grads = backward(config, params, trace, labels)
    worst = 0.0
    for name, w in params.items():
        fd = np.zeros_like(w)
        flat, fdf = w.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss()
            flat[i] = keep - eps
            dn = loss()
            flat[i] = keep
            fdf[i] = (up - dn) / (2 * eps)
        denom = max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, np.linalg.norm(grads[name] - fd) / denom)
    return worst


def test_criterion_1_surrogate_and_gradients():
    t0 = time.monotonic()
    exact = arctan_surrogate(0.0) == 0.5 and arctan_surrogate_grad(0.0) == 1.0

    config = NetworkConfig(
        time_steps=4, height=8, width=8,
        layers=(Conv2d(2, 3, k=3, stride=2, padding=1), IF(),
                Conv2d(3, 4, k=3, stride=2, padding=1), IF(),
                SEW(4), GlobalPool(), IF(),
                Accumulator(4), Classifier(2)))
    params = init_params(config, 7, dtype=np.float64)
    rng = np.random.default_rng(11)
    x = (rng.random((2, 4, 2, 8, 8)) < 0.35).astype(np.float64)
    worst = fd_check(config, params, x, np.array([0, 1]))
    elapsed = time.monotonic() - t0

    ok = exact and worst < 1e-4 and elapsed < 10.0
    report(1, ok, f"surrogate exact at 0; relaxed-mode gradients vs central "
                  f"differences rel err {worst:.2e} (< 1e-4); "
                  f"{elapsed:.1f}s (< 10s)")
    assert exact
    assert worst < 1e-4
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: IF hand traces and charge conservation vs brute force


def brute_force_if(inputs, theta=1.0, u0=0.0):
    """Reference simulator: plain Python floats, no vectorization."""
    u, spikes = u0, []
    for i in inputs:
        v = u + i
        if v >= theta:
            spikes.append(1.0)
            u = v - theta
        else:
            spikes.append(0.0)
            u = v
    return spikes, u


def run_if(inputs, theta=1.0, u0=0.0):
    u = np.asarray(u0, dtype=np.float64)
    spikes = []
    for i in inputs:
        s, u = if_step(u, i, theta=theta)
        spikes.append(float(s))
    return spikes, float(u)


def test_criterion_2_if_dynamics():
    # hand case 1: single suprathreshold step
    s, u = if_step(0.0, 1.5, theta=1.0)
    hand1 = s == 1.0 and u == 0.5
    # hand case 2: 0.4 + 0.4 + 0.4 charges past theta on the third step
    spikes, u = run_if([0.4, 0.4, 0.4])
    hand2 = spikes == [0.0, 0.0, 1.0] and math.isclose(u, 0.2, abs_tol=1e-12)
    # hand case 3: zero input forever
    spikes, u = run_if([0.0] * 50)
    hand3 = spikes == [0.0] * 50 and u == 0.0

    # 10,000 random scalar traces vs the brute-force simulator; inputs on a
    # 1/8 grid keep every float op exact, so comparisons and the charge
    # identity theta*spikes + U_final = U_0 + total input hold with ==
    rng = np.random.default_rng(20240815)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 30))
        inputs = (rng.integers(-8, 24, size=n) / 8.0).tolist()
        u0 = float(rng.integers(0, 8)) / 8.0
        got_s, got_u = run_if(inputs, u0=u0)
        want_s, want_u = brute_force_if(inputs, u0=u0)
        if got_s != want_s or got_u != want_u:
            mismatches += 1
        if sum(got_s) + got_u != u0 + sum(inputs):
            mismatches += 1

    ok = hand1 and hand2 and hand3 and mismatches == 0
    report(2, ok, f"3 hand traces exact; 10,000 random traces match the "
                  f"brute-force simulator with {mismatches} mismatches")
    assert hand1 and hand2 and hand3
    assert mismatches == 0


# ---------------------------------------------------------------------------
# criterion 3: augmentation involutions, frame oracles, postconditions


def test_criterion_3_eda_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    bad = []

    for i in range(1000):
        s = random_stream(rng, n=int(rng.integers(0, 250)),
                          width=int(rng.integers(2, 16)),
                          height=int(rng.integers(2, 16)),
                          t_end=int(rng.integers(10, 2000)))
        for name, fn in (("hflip", hflip), ("polflip", polflip),
                         ("reverse", reverse)):
            out = fn(s)
            if not streams_equal(fn(out), s) or validate(out) != []:
                bad.append(f"{name} involution #{i}")
        # frame oracles: width flip and polarity-channel swap
        v = voxelize(s, 5)
        if not np.array_equal(voxelize(hflip(s), 5), v[..., ::-1]):
            bad.append(f"hflip frame oracle #{i}")
        if not np.array_equal(voxelize(polflip(s), 5), v[:, ::-1]):
            bad.append(f"polflip frame oracle #{i}")
        # time reversal maps bin b to T-1-b only when no event sits on a
        # bin edge, so it gets its own bin-safe stream
        r = binsafe_stream(rng, time_bins=6, n=int(rng.integers(0, 250)))
        if not np.array_equal(voxelize(reverse(r), 6), voxelize(r, 6)[::-1]):
            bad.append(f"reverse frame oracle #{i}")

    bases = [random_stream(rng, n=300, width=w, height=h, t_end=1500)
             for w, h in ((12, 10), (9, 9), (16, 4), (5, 13))]
    for k in range(1000):
        s = bases[k % len(bases)]
        out = eventdrop(s, np.random.default_rng(k))
        if (validate(out) != [] or out.n > s.n
                or Counter(tuples(out)) - Counter(tuples(s))):
            bad.append(f"eventdrop draw {k}")
        out = crop(s, np.random.default_rng(k))
        if (validate(out) != [] or out.n > s.n
                or (out.width, out.height) != (s.width, s.height)
                or Counter(out.t.tolist()) - Counter(s.t.tolist())):
            bad.append(f"crop draw {k}")
        out = mirror(s, np.random.default_rng(k))
        flipped = sorted(zip((out.width - 1 - out.x).tolist(), out.y.tolist(),
                             out.t.tolist(), out.p.tolist()))
        if validate(out) != [] or flipped != sorted(tuples(out)):
            bad.append(f"mirror draw {k}")

    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60.0
    report(3, ok, f"involutions + frame oracles on 1000 streams, "
                  f"eventdrop/crop/mirror on 1000 draws: "
                  f"{len(bad)} failures; {elapsed:.1f}s (< 60s)")
    assert not bad, bad[:5]
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 4: energy model exact cases plus the measured ratio


def test_criterion_4_energy_model():
    conv = SynapticLayer(name="c", op="conv", k=3, out_h=4, out_w=4,
                         c_in=2, c_out=8)
    fc = SynapticLayer(name="fc", op="linear", k=1, out_h=1, out_w=1,
                       c_in=512, c_out=7)
    unit = SynapticLayer(name="u", op="conv", k=1, out_h=1, out_w=1,
                         c_in=1, c_out=1)
    flops_ok = (flops_ann(conv), flops_ann(fc), flops_ann(unit)) == (2304, 3584, 1)

    # identical layer lists at Rs = 1 everywhere: ratio is E_MAC/E_AC exactly
    from evsnn.energy import LayerStats
    stats = [LayerStats(lay, float(lay.c_in), lay.c_in) for lay in (conv, fc)]
    matched = estimate(stats, [conv, fc], samples=1)
    ratio_ok = abs(matched.ratio - 4.6 / 0.9) < 1e-12

    # two-layer ledger: conv at Rs=0.5, linear at Rs=0.25
    stats = [LayerStats(conv, 0.5 * conv.c_in, conv.c_in),
             LayerStats(fc, 0.25 * fc.c_in, fc.c_in)]
    ledger = estimate(stats, [conv, fc], samples=2)
    ledger_ok = (abs(ledger.e_snn_pj - 1843.2) < 1e-9
                 and abs(ledger.e_ann_pj - 27084.8) < 1e-9)

    c = EnergyConstants()
    const_ok = ((c.e_mult, c.e_add, c.e_mac, c.e_ac) == (3.7, 0.9, 4.6, 0.9)
                and abs(c.e_mac - (c.e_mult + c.e_add)) < 1e-12)

    # measured ratio on a briefly trained model, informational only: the
    # published band comes from full-scale runs that are out of reach here
    streams = synth.generate_dataset(synth.SynthParams(), 12, seed=5)
    labels = np.array([s.label for s in streams])
    config = sew_tiny(4, theta=0.5)
    idx = np.arange(48)
    np.random.default_rng(3).shuffle(idx)
    tr, va = idx[:40], idx[40:]
    val_tensors = voxelize_set([streams[i] for i in va], config.time_steps)
    fit = train(config, init_params(config, 1),
                [streams[i] for i in tr], labels[tr],
                val_tensors, labels[va],
                TrainSettings(epochs=6, batch_size=16, lr=0.002, seed=0))
    _, trace = forward(config, fit.params,
                       np.stack(val_tensors).astype(np.float64), record=False)
    measured = estimate_from_traces(config, [trace])
    band = measured.to_json_dict()["reference_band"]["position"]

    ok = flops_ok and ratio_ok and ledger_ok and const_ok
    report(4, ok, f"FLOP cases (2304, 3584, 1) exact; matched ratio 4.6/0.9; "
                  f"two-layer ledger exact; constants verified; measured "
                  f"sew-tiny ratio {measured.ratio:.1f}x is {band} the "
                  f"47.42x-65.39x reference band (informational)")
    assert flops_ok and ratio_ok and ledger_ok and const_ok


# ---------------------------------------------------------------------------
# criteria 5 and 8 share one full-scale 10-fold run


@pytest.fixture(scope="module")
def full_run():
    streams = synth.generate_dataset(synth.SynthParams(), 100, seed=0)
    labels = np.array([s.label for s in streams])
    config = sew_tiny(4, theta=0.5)
    settings = TrainSettings(epochs=50, batch_size=16, lr=0.002, seed=0)
    aug = spec_for_mask(BEST_MASK, seed=derive_seed(11, BEST_MASK))

    t0 = time.monotonic()
    spiking = run_cv(streams, labels, config, settings, augment=aug,
                     kind="spiking", k=10, split_seed=0,
                     base_seed=derive_seed(11, BEST_MASK),
                     eval_shuffled_bins=True)
    wall = time.monotonic() - t0
    dense = run_cv(streams, labels, config, settings, augment=aug,
                   kind="dense", k=10, split_seed=0,
                   base_seed=derive_seed(11, BEST_MASK))
    return spiking, dense, wall


def test_criterion_5_end_to_end_learning(full_run):
    spiking, dense, wall = full_run
    epochs = max(f["epochs_run"] for f in spiking.per_fold)
    ok = spiking.mean_acc >= 0.90 and epochs <= 50 and wall <= 900.0
    threads = _helper.threads()
    report(5, ok, f"10-fold mean accuracy {spiking.mean_acc:.3f} (>= 0.90) "
                  f"with crop+hflip, <= {epochs} epochs/fold (<= 50), "
                  f"{wall:.0f}s (<= 900s) in one process at OpenBLAS threads "
                  f"{threads or 'unknown'} (one while a split batch's helper "
                  f"lives); dense baseline "
                  f"{dense.mean_acc:.3f} under the identical protocol")
    assert spiking.mean_acc >= 0.90
    assert epochs <= 50
    assert wall <= 900.0


# ---------------------------------------------------------------------------
# criterion 6: sweep record counts, OLS recovery, t tail, Monte Carlo


def test_criterion_6_sweep_and_regression():
    rng = np.random.default_rng(0)
    streams = [random_stream(rng, n=60, width=8, height=8, t_end=400)
               for _ in range(20)]
    labels = np.arange(20) % 2
    config = NetworkConfig(time_steps=2, height=8, width=8,
                           layers=(Accumulator(128), Classifier(2)))
    settings = TrainSettings(epochs=1, batch_size=8, lr=0.3, seed=0)
    smoke = sweep_common_eda(streams, labels, config, settings,
                             k=2, split_seed=3, sweep_seed=11)
    full = sweep_common_eda(streams, labels, config, settings,
                            k=10, split_seed=3, sweep_seed=11)
    counts_ok = len(smoke.records) == 64 and len(full.records) == 320

    # noiseless injection: QR recovers the coefficients to float precision
    masks = np.repeat(np.arange(32), 10)
    beta = np.array([0.62, 0.05, 0.0, -0.04, 0.0, 0.01])
    fit = eda_regression(masks, eda_design(masks, COMMON_EDAS) @ beta,
                         COMMON_EDAS)
    recover_ok = np.allclose(fit.coef, beta, atol=1e-12)

    # two-sided tail for t=2, df=314 vs direct numerical integration
    p = float(student_t_sf2(np.array(2.0), 314))
    df = 314
    norm = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) \
        / math.sqrt(df * math.pi)
    tail, _ = quad(lambda u: norm * (1 + u * u / df) ** (-(df + 1) / 2),
                   2.0, np.inf)
    p_ok = 0.046 <= p <= 0.047 and abs(p - 2 * tail) < 1e-10

    # 500 noisy sweeps: each injected coefficient lands within 3 SE of its
    # target; pooled per-coefficient hit rate must clear 99%
    beta = np.array([0.5, 0.05, -0.03, 0.0, 0.0, 0.02])
    x = eda_design(masks, COMMON_EDAS)
    mc_rng = np.random.default_rng(20240817)
    hits, trials = 0, 500
    for _ in range(trials):
        y = x @ beta + mc_rng.normal(0.0, 0.02, len(masks))
        rep = eda_regression(masks, y, COMMON_EDAS)
        hits += int((np.abs(rep.coef[1:] - beta[1:]) <= 3 * rep.se[1:]).sum())
    rate = hits / (5 * trials)
    mc_ok = rate >= 0.99

    ok = counts_ok and recover_ok and p_ok and mc_ok
    report(6, ok, f"sweep records {len(smoke.records)}/{len(full.records)} "
                  f"(64/320); noiseless recovery exact; p(t=2, df=314)={p:.5f} "
                  f"in [0.046, 0.047] and matches quadrature; Monte-Carlo "
                  f"recovery rate {rate:.4f} (>= 0.99)")
    assert counts_ok and recover_ok and p_ok and mc_ok


# ---------------------------------------------------------------------------
# criterion 7: byte-identical reruns for every artifact-writing command


def test_criterion_7_determinism(tmp_path):
    def synth_args(out):
        return ["synth", "--classes", "2", "--samples-per-class", "3",
                "--width", "16", "--height", "16", "--duration", "50000",
                "--events", "400", "--out", str(out), "--seed", "1"]

    def tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    checked, diffs = 0, []

    # synth into two directories
    assert main(synth_args(tmp_path / "a")) == 0
    assert main(synth_args(tmp_path / "b")) == 0
    ta, tb = tree(tmp_path / "a"), tree(tmp_path / "b")
    checked += len(ta)
    if ta != tb:
        diffs.append("synth")

    ds = tmp_path / "a" / "manifest.json"
    src = sorted((tmp_path / "a").glob("*.evt"))[0]

    # voxelize and augment write single artifacts
    for args, name in (
            (["voxelize", str(src), "--time-steps", "4", "--out",
              str(tmp_path / "v.npy")], "voxelize"),
            (["augment", str(src), str(tmp_path / "g.evt"),
              "--pipeline", "hflip,crop", "--seed", "3"], "augment")):
        out = tmp_path / ("v.npy" if name == "voxelize" else "g.evt")
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        checked += 1
        if out.read_bytes() != first:
            diffs.append(name)

    conv_net = NetworkConfig(
        time_steps=2, height=16, width=16,
        layers=(Conv2d(2, 4, k=3, stride=2, padding=1), IF(),
                GlobalPool(), Accumulator(4), Classifier(2)))
    exp = {"dataset": str(ds), "network": config_to_json(conv_net),
           "train": {"epochs": 2, "batch_size": 8, "lr": 0.1},
           "folds": {"k": 3, "seed": 0}, "seed": 6,
           "out_dir": str(tmp_path / "run")}
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(exp))

    pass_net = NetworkConfig(time_steps=2, height=16, width=16,
                             layers=(Accumulator(512), Classifier(2)))
    sweep_exp = dict(exp, network=config_to_json(pass_net),
                     train={"epochs": 1, "batch_size": 8, "lr": 0.3},
                     folds={"k": 2, "seed": 0},
                     out_dir=str(tmp_path / "sweep_run"))
    sweep_cfg = tmp_path / "sweep_exp.json"
    sweep_cfg.write_text(json.dumps(sweep_exp))

    # each command runs twice into the same out_dir; everything except the
    # wall-clock ledger sidecar must come back byte-identical
    flows = [("train", ["train", "--config", str(cfg)], tmp_path / "run"),
             ("eval", ["eval", "--config", str(cfg)], tmp_path / "run"),
             ("energy", ["energy", "--config", str(cfg), "--samples", "2"],
              tmp_path / "run"),
             ("sweep", ["sweep", "--config", str(sweep_cfg)],
              tmp_path / "sweep_run"),
             ("regress", ["regress", "--config", str(sweep_cfg)],
              tmp_path / "sweep_run")]
    for name, args, out_dir in flows:
        assert main(args) == 0, name
        before = {k: v for k, v in tree(out_dir).items()
                  if not k.endswith(".runledger.json")}
        assert main(args) == 0, name
        after = {k: v for k, v in tree(out_dir).items()
                 if not k.endswith(".runledger.json")}
        checked += len(before)
        if before != after:
            diffs.append(name)

    ok = not diffs
    report(7, ok, f"{checked} artifacts byte-identical across reruns of "
                  f"synth/voxelize/augment/train/eval/energy/sweep/regress "
                  f"(timing sidecars excluded); differing: {diffs or 'none'}")
    assert not diffs, diffs


# ---------------------------------------------------------------------------
# criterion 8: time order must carry signal


def test_criterion_8_temporal_signal(full_run):
    spiking, _, _ = full_run
    ordered = spiking.mean_acc
    shuffled = spiking.shuffled_mean_acc
    ok = ordered > shuffled
    report(8, ok, f"10-fold mean accuracy {ordered:.3f} on ordered bins vs "
                  f"{shuffled:.3f} on shuffled bins (strict inequality)")
    assert ordered > shuffled
