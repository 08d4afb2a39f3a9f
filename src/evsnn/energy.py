"""Spike-rate / FLOPs / 45nm-CMOS energy accounting.

A dense network pays one multiply-accumulate (4.6 pJ) per FLOP; a spiking
layer only accumulates (0.9 pJ), and only when an input spike arrives, so its
operation count is the dense count scaled by the spike rate of its input
tensor. Rates are measured over all time-steps (a neuron firing every step
for T=6 contributes 6), which makes the single-step FLOP formula times the
rate equal the true all-step accumulate count.

Accounting rules, fixed here and labeled in reports:
  - each weighted layer is charged with its INPUT tensor's spike rate
    (output-rate charging is selectable); the first layer's input is the
    event tensor itself;
  - the accumulator head sees binary features and is rate-charged like any
    spiking layer; the classifier runs once on the real-valued accumulated
    vector and is charged one dense pass at the MAC cost (rs None marks it);
  - a layer whose input is a conv's real-valued output (a conv fed by a
    conv, as the network's config says) has no input spikes: it is charged
    one dense pass per time step at the MAC cost, rs None, unless output
    charging gives it its output site's spikes;
  - pooling, thresholds, and residual junctions are free.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Literal

import numpy as np

from ._schema import bounded
from .nn.network import ForwardTrace, NetworkConfig, SynapticLayer, synaptic_layers

PJ_PER_MJ = 1e9
Charging = Literal["input", "output"]  # whose spike rate a layer is charged with


@dataclass(frozen=True)
class EnergyConstants:
    """45nm CMOS op costs in pJ; the MAC identity is asserted on load."""

    e_mult: float = 3.7
    e_add: float = 0.9
    e_mac: float = 4.6
    e_ac: float = 0.9

    def __post_init__(self):
        if abs(self.e_mac - (self.e_mult + self.e_add)) > 1e-12:
            raise ValueError(
                f"E_MAC {self.e_mac} != E_MULT {self.e_mult} + E_ADD {self.e_add}")


@dataclass(frozen=True)
class LayerStats:
    """One weighted layer plus its measured input activity.

    spikes is the per-sample total over all time-steps (batch-averaged);
    None marks a layer charged as ``passes`` dense passes: the classifier
    head once, a layer fed by a conv's real-valued output once per step.
    """

    layer: SynapticLayer
    spikes: float | None
    neurons: int
    passes: int = 1

    def __post_init__(self):
        if self.neurons <= 0:
            raise ValueError(f"{self.layer.name}: neuron count must be positive")
        if self.spikes is not None and self.spikes < 0:
            raise ValueError(f"{self.layer.name}: negative spike count")


def spike_rate(stats: LayerStats) -> float:
    if stats.spikes is None:
        raise ValueError(f"{stats.layer.name} is dense-charged; no spike rate")
    return stats.spikes / stats.neurons


def flops_ann(layer: SynapticLayer) -> int:
    """k^2 * O^2 * C_in * C_out for convs (O_h*O_w when non-square, see
    report note), C_in * C_out for linears."""
    return layer.macs


def flops_snn(layer: SynapticLayer, rs: float) -> float:
    if rs < 0:
        raise ValueError(f"{layer.name}: negative spike rate {rs}")
    return flops_ann(layer) * rs


BAND_LOW, BAND_HIGH = 47.42, 65.39  # published full-scale efficiency band


@dataclass
class EnergyReport:
    constants: EnergyConstants
    charging: Charging
    samples: int
    rows: list[dict]           # per spiking layer: name, op, flops_ann, rs, flops_snn, energy_pj
    ann_rows: list[dict]       # per dense-reference layer: name, op, flops_ann, energy_pj
    e_ann_pj: float
    e_snn_pj: float
    notes: list[str] = field(default_factory=list)

    @property
    def ratio(self) -> float:
        return float("inf") if self.e_snn_pj == 0 else self.e_ann_pj / self.e_snn_pj

    @property
    def band(self) -> str:
        """Where the ratio lies against the published band: below, within or above."""
        return "below" if self.ratio < BAND_LOW else "above" if self.ratio > BAND_HIGH else "within"

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "constants_pj": asdict(self.constants),
            "charging": self.charging,
            "samples": self.samples,
            "snn_layers": self.rows,
            "ann_layers": self.ann_rows,
            "e_ann_pj": self.e_ann_pj,
            "e_snn_pj": self.e_snn_pj,
            "e_ann_mj": self.e_ann_pj / PJ_PER_MJ,
            "e_snn_mj": self.e_snn_pj / PJ_PER_MJ,
            "ratio": None if self.e_snn_pj == 0 else self.ratio,
            "ratio_infinite": self.e_snn_pj == 0,
            "reference_band": {"low": BAND_LOW, "high": BAND_HIGH,
                               "position": self.band},
            "notes": self.notes,
        }


def estimate(snn_stats: list[LayerStats], ann_layers: list[SynapticLayer],
             samples: int, constants: EnergyConstants = EnergyConstants(),
             charging: Charging = "input") -> EnergyReport:
    """Totals and per-layer breakdown from measured stats.

    snn_stats carry batch-averaged input activity for the spiking side;
    ann_layers describe the dense reference whose cost is trace-independent.
    """
    if samples < 1:
        raise ValueError("energy estimate needs at least one sample")
    rows = []
    e_snn = 0.0
    notes = ["pooling/threshold/junction costs excluded",
             f"charging rule: {charging} spike rate"]
    for st in snn_stats:
        fa = flops_ann(st.layer)
        if st.spikes is None:
            e = fa * st.passes * constants.e_mac
            row = {"name": st.layer.name, "op": st.layer.op, "flops_ann": fa,
                   "rs": None, "flops_snn": float(fa * st.passes), "energy_pj": e,
                   "charged": ("dense pass at E_MAC" if st.passes == 1
                               else f"{st.passes} dense passes at E_MAC")}
            if st.layer.real_input:
                notes.append(f"{st.layer.name}: real-valued input (a conv's output) "
                             f"charged {st.passes} dense passes at E_MAC")
        else:
            rs = spike_rate(st)
            fs = flops_snn(st.layer, rs)
            e = fs * constants.e_ac
            row = {"name": st.layer.name, "op": st.layer.op, "flops_ann": fa,
                   "rs": rs, "flops_snn": fs, "energy_pj": e,
                   "charged": "E_AC x input rate"}
        if st.layer.out_h != st.layer.out_w:
            notes.append(f"{st.layer.name}: non-square output map, "
                         "FLOPs use O_h*O_w")
        e_snn += e
        rows.append(row)
    ann_rows = []
    e_ann = 0.0
    for layer in ann_layers:
        fa = flops_ann(layer)
        e = fa * constants.e_mac
        e_ann += e
        ann_rows.append({"name": layer.name, "op": layer.op, "flops_ann": fa,
                         "energy_pj": e})
    if any(st.spikes is None for st in snn_stats):
        notes.append("classifier head charged once at E_MAC (real-valued input)")
    return EnergyReport(constants=constants, charging=charging, samples=samples,
                        rows=rows, ann_rows=ann_rows, e_ann_pj=e_ann,
                        e_snn_pj=e_snn, notes=notes)


def stats_from_traces(config: NetworkConfig, traces: list[ForwardTrace],
                      charging: Charging = "input") -> tuple[list[LayerStats], int]:
    """Batch-average each layer's input activity over a set of spike-mode traces."""
    if not traces:
        raise ValueError("empty sample set")
    bounded(stats_from_traces, {"charging": charging}, "", ValueError)
    if any(tr.mode != "spike" for tr in traces):
        raise ValueError("energy is estimated from spike-mode traces only")
    layers = synaptic_layers(config, kind="spiking")
    samples = sum(tr.batch for tr in traces)
    stats = []
    for layer in layers:
        if layer.name.endswith(".cls"):
            stats.append(LayerStats(layer, None, layer.c_in))
            continue
        if charging == "output" and layer.out_site is not None:
            total = sum(tr.spike_counts[layer.out_site] for tr in traces)
            neurons = traces[0].site_sizes[layer.out_site]
        elif layer.real_input:
            stats.append(LayerStats(layer, None, layer.c_in, config.time_steps))
            continue
        else:
            total = sum(tr.synaptic_inputs[layer.name][0] for tr in traces)
            neurons = traces[0].synaptic_inputs[layer.name][1]
        stats.append(LayerStats(layer, total / samples, neurons))
    return stats, samples


def estimate_from_traces(config: NetworkConfig, traces: list[ForwardTrace],
                         constants: EnergyConstants = EnergyConstants(),
                         charging: Charging = "input") -> EnergyReport:
    """Convenience wrapper: spiking stats from traces, dense reference from
    the time-folded twin of the same config."""
    stats, samples = stats_from_traces(config, traces, charging)
    ann_layers = synaptic_layers(config, kind="dense")
    return estimate(stats, ann_layers, samples, constants, charging)


def format_text(report: EnergyReport) -> str:
    """Aligned table mirroring the published columns (mJ totals, ratio)."""
    c = report.constants
    lines = [
        "energy constants (45nm CMOS):",
        f"  E_MULT = {c.e_mult} pJ",
        f"  E_ADD  = {c.e_add} pJ",
        f"  E_MAC  = {c.e_mac} pJ",
        f"  E_AC   = {c.e_ac} pJ",
        "",
        f"{'layer':<16s} {'op':<6s} {'FLOPs_ANN':>12s} {'Rs':>9s} "
        f"{'FLOPs_SNN':>14s} {'E (pJ)':>14s}",
    ]
    for row in report.rows:
        rs = "-" if row["rs"] is None else f"{row['rs']:.4f}"
        lines.append(f"{row['name']:<16s} {row['op']:<6s} {row['flops_ann']:>12d} "
                     f"{rs:>9s} {row['flops_snn']:>14.1f} {row['energy_pj']:>14.2f}")
    ratio = "inf" if report.e_snn_pj == 0 else f"{report.ratio:.2f}x"
    lines += [
        "",
        f"samples averaged: {report.samples}",
        f"E_ANN = {report.e_ann_pj / PJ_PER_MJ:.9f} mJ  "
        f"({report.e_ann_pj:.1f} pJ, dense reference, trace-independent)",
        f"E_SNN = {report.e_snn_pj / PJ_PER_MJ:.9f} mJ  ({report.e_snn_pj:.1f} pJ)",
        f"ratio E_ANN/E_SNN = {ratio}",
        f"reference full-scale band {BAND_LOW}x-{BAND_HIGH}x: measured ratio is "
        f"{report.band} the band (informational; absolute published totals are not "
        "reproducible from the per-layer formula)",
    ]
    lines += [f"note: {n}" for n in report.notes]
    return "\n".join(lines) + "\n"
