"""The benchmark workloads: what each sets up, times and checks.

Every workload makes its inputs from the run seed alone and hands the
program only the generated inputs. A workload's timed part is a loop of
units; each unit is one call pattern a user of the package makes, sized in
samples so throughput compares across workloads. See README.md for why each
workload exists and which layer metrics should move it.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np

from checks import Check
from evsnn import augment, bench, energy, events, evio, regress, synth
from evsnn.nn import network
from evsnn.nn import train as nn_train

BATCH = 16


def derive(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def weight_names(params: dict) -> dict[int, str]:
    """id(weight array) -> checkpoint tensor name ("03.sew.conv1")."""
    return {id(v): k[:-len(".weight")] for k, v in params.items() if k.endswith(".weight")}


class Workload:
    name = ""
    model_checks = True     # run the conv reference and finite-difference checks
    warmup_units = 1
    min_units = 1

    def setup(self, seed: int, workdir) -> SimpleNamespace:
        raise NotImplementedError

    def unit(self, st, index: int):
        raise NotImplementedError

    def check(self, st, index: int, out) -> list[Check]:
        return []

    def finish(self, st) -> tuple[list[Check], dict[str, float]]:
        return [], {}


class Train(Workload):
    """One train() epoch over 32 default synthetic streams (two B=16 steps of
    crop+hflip, voxelize, spiking forward, BPTT, SGD) plus its per-epoch
    validation on 4 pre-voxelized streams, about criterion 5's 9:1 ratio."""

    name = "train"

    def setup(self, seed, workdir):
        streams = synth.generate_dataset(synth.SynthParams(), 9, derive(seed, 0))
        val = streams[::9]
        fit = [s for j, s in enumerate(streams) if j % 9]
        config = network.sew_tiny(4, theta=0.5)
        params = network.init_params(config, derive(seed, 1))
        return SimpleNamespace(
            seed=seed, config=config, params=params, streams=fit,
            labels=np.array([s.label for s in fit]),
            val_tensors=nn_train.voxelize_set(val, config.time_steps),
            val_labels=np.array([s.label for s in val]),
            augment=bench.spec_for_mask(3, seed=derive(seed, 2)),
            unit_samples=len(fit), weights=weight_names(params))

    def unit(self, st, index):
        settings = nn_train.TrainSettings(epochs=1, batch_size=BATCH, lr=0.002,
                                          early_stop_acc=None,
                                          seed=derive(st.seed, 3, index))
        return nn_train.train(st.config, st.params, st.streams, st.labels,
                              st.val_tensors, st.val_labels, settings,
                              augment=st.augment)

    def check(self, st, index, result):
        losses = [row["loss"] for row in result.history]
        ok = (len(losses) == 1 and bool(np.isfinite(losses).all())
              and 0.0 <= result.best_val_acc <= 1.0)
        return [Check("finite_loss", ok, f"losses {losses}, val acc {result.best_val_acc}")]


class Infer(Workload):
    """forward(mode="spike", record=False) on 16-sample batches of 64
    pre-voxelized held-out streams with fixed init parameters, as
    ``evsnn energy`` runs it; ends with argmax accuracy and one energy
    estimate over the first pass."""

    name = "infer"
    min_units = 100         # so p90 has at least ten batches beyond it
    samples = 64

    def setup(self, seed, workdir):
        streams = synth.generate_dataset(synth.SynthParams(), self.samples // 4,
                                         derive(seed, 0))
        config = network.sew_tiny(4, theta=0.5)
        params = network.init_params(config, derive(seed, 1))
        return SimpleNamespace(
            config=config, params=params,
            tensors=nn_train.voxelize_set(streams, config.time_steps),
            labels=np.array([s.label for s in streams]), first={},
            unit_samples=BATCH, weights=weight_names(params))

    def unit(self, st, index):
        j = index % (len(st.tensors) // BATCH)
        batch = st.tensors[j * BATCH:(j + 1) * BATCH]
        return j, network.forward(st.config, st.params, batch, mode="spike",
                                  record=False)

    def check(self, st, index, out):
        j, (logits, trace) = out
        if j not in st.first:
            st.first[j] = (logits, trace)
            ok = logits.shape == (BATCH, 4) and bool(np.isfinite(logits).all())
            return [Check("finite_logits", ok, f"shape {logits.shape}")]
        return [Check("deterministic_logits", np.array_equal(logits, st.first[j][0]),
                      f"batch {j} differs from its first pass")]

    def finish(self, st):
        order = sorted(st.first)
        logits = np.concatenate([st.first[j][0] for j in order])
        labels = np.concatenate([st.labels[j * BATCH:(j + 1) * BATCH] for j in order])
        acc = float((np.argmax(logits, axis=1) == labels).mean())
        report = energy.estimate_from_traces(st.config, [st.first[j][1] for j in order])
        snn = sum(r["energy_pj"] for r in report.rows)
        ann = sum(r["energy_pj"] for r in report.ann_rows)
        recorded, _ = network.forward(st.config, st.params, st.tensors[:BATCH],
                                      mode="spike", record=True)
        conv = [r for r in report.rows if r["op"] == "conv"]
        checks = [
            Check("accuracy_in_range", 0.0 <= acc <= 1.0, f"accuracy {acc}"),
            Check("energy_rows_sum", bool(np.isclose(snn, report.e_snn_pj, rtol=1e-12))
                  and bool(np.isclose(ann, report.e_ann_pj, rtol=1e-12)),
                  f"snn rows {snn} vs {report.e_snn_pj}, ann rows {ann} vs {report.e_ann_pj}"),
            Check("record_parity", np.array_equal(recorded, st.first[0][0]),
                  "record=True logits differ from record=False"),
        ]
        # flops_snn counts input spikes over all T steps; the dense convs the
        # numpy path runs do flops_ann MACs on every step
        dense = st.config.time_steps * sum(r["flops_ann"] for r in conv)
        return checks, {"energy.synop_ratio": sum(r["flops_snn"] for r in conv) / dense}


DENSE = synth.SynthParams(
    width=128, height=128, events_per_sample=50_000, edge_sigma=1.4,
    ring_r_lo=12.0, ring_r_hi=48.0, ring_half_thickness=5.0, bar_margin=16.0,
    bar_half_thickness=5.0, center_jitter=6.0, static_radius=24.0)


class Data(Workload):
    """One epoch of data handling over 16 event-dense EVT1 files (128x128,
    ~50k events each): load, all seven augmentations at p=0.5 with a
    per-epoch seed, voxelize at T=6, per sample as train() applies them."""

    name = "data"
    model_checks = False
    time_steps = 6

    def setup(self, seed, workdir):
        out = workdir / "data"
        synth.write_dataset(out, DENSE, BATCH // 4, derive(seed, 0))
        kinds = augment.COMMON_EDAS + augment.SPECIFIC_EDAS
        spec = augment.AugmentSpec(tuple(augment.TransformSpec(k, 0.5) for k in kinds))
        return SimpleNamespace(seed=seed, manifest=out / "manifest.json", spec=spec,
                               unit_samples=BATCH, weights={})

    def unit(self, st, index):
        manifest = evio.load_manifest(st.manifest)
        streams, labels = bench.load_dataset(manifest)
        spec = st.spec.with_seed(derive(st.seed, 1, index))
        out = []
        for j, stream in enumerate(streams):
            stream = augment.apply_pipeline(stream, spec, sample_index=j)
            out.append((stream, events.voxelize(stream, self.time_steps)))
        return labels, out

    def check(self, st, index, result):
        labels, out = result
        want = (self.time_steps, 2, DENSE.height, DENSE.width)
        bad_streams = sum(bool(events.validate(s)) for s, _ in out)
        bad_tensors = sum(v.shape != want or v.dtype != np.uint8 or int(v.max()) > 1
                          for _, v in out)
        return [Check("augmented_valid", bad_streams == 0 and len(out) == BATCH == len(labels),
                      f"{bad_streams} invalid of {len(out)}"),
                Check("binary_voxels", bad_tensors == 0, f"{bad_tensors} bad of {len(out)}")]


SMALL = synth.SynthParams(
    width=32, height=32, events_per_sample=750, edge_sigma=0.35,
    ring_r_lo=3.0, ring_r_hi=12.0, ring_half_thickness=1.25, bar_margin=4.0,
    bar_half_thickness=1.25, center_jitter=1.5, static_radius=6.0)


class Sweep(Workload):
    """bench.sweep_common_eda over all 32 masks (sew_tiny at 32x32, k=2,
    one epoch on 16 streams, jobs = nproc) then regress.eda_regression.
    Runs with the BLAS threading the user's environment gives."""

    name = "sweep"
    warmup_units = 0
    k = 2

    def setup(self, seed, workdir):
        streams = synth.generate_dataset(SMALL, 4, derive(seed, 0))
        config = network.sew_tiny(4, height=SMALL.height, width=SMALL.width, theta=0.5)
        settings = nn_train.TrainSettings(epochs=1, batch_size=BATCH, lr=0.002,
                                          early_stop_acc=None)
        fit = len(streams) - len(streams) // self.k
        return SimpleNamespace(seed=seed, streams=streams, config=config,
                               labels=np.array([s.label for s in streams]),
                               settings=settings, jobs=os.cpu_count() or 1,
                               cells=32 * self.k, unit_samples=32 * self.k * fit,
                               weights={})

    def unit(self, st, index):
        result = bench.sweep_common_eda(
            st.streams, st.labels, st.config, st.settings, k=self.k,
            split_seed=derive(st.seed, 1), sweep_seed=derive(st.seed, 2, index),
            jobs=st.jobs)
        masks, acc = result.arrays("spiking")
        return result, regress.eda_regression(masks, acc, result.eda_names)

    def check(self, st, index, out):
        result, report = out
        acc = np.array([r["accuracy"] for r in result.records])
        return [Check("sweep_records", len(acc) == st.cells
                      and bool(((acc >= 0) & (acc <= 1)).all()),
                      f"{len(acc)} records"),
                Check("regression_finite", report.n == st.cells
                      and bool(np.isfinite(report.coef).all()), f"n={report.n}")]


WORKLOADS = {w.name: w for w in (Train(), Infer(), Data(), Sweep())}
