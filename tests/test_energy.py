"""Energy model: FLOP formulas, spike rates, totals, charging rules."""

import numpy as np
import pytest

from evsnn import _blas, _helper
from evsnn.energy import (
    BAND_HIGH,
    BAND_LOW,
    EnergyConstants,
    LayerStats,
    estimate,
    estimate_from_traces,
    flops_ann,
    flops_snn,
    format_text,
    spike_rate,
    stats_from_traces,
)
from evsnn.nn import (
    IF,
    SEW,
    Accumulator,
    AvgPool,
    Classifier,
    Conv2d,
    GlobalPool,
    NetworkConfig,
    SynapticLayer,
    forward,
    init_params,
    sew_tiny,
    synaptic_layers,
)

from test_network import NETS


def conv_layer(name="c0", k=3, o=4, c_in=2, c_out=8, out_site=None):
    return SynapticLayer(name=name, op="conv", k=k, out_h=o, out_w=o,
                         c_in=c_in, c_out=c_out, out_site=out_site)


def linear_layer(name="fc", c_in=512, c_out=7):
    return SynapticLayer(name=name, op="linear", k=1, out_h=1, out_w=1,
                         c_in=c_in, c_out=c_out)


class TestConstants:
    def test_defaults(self):
        c = EnergyConstants()
        assert (c.e_mult, c.e_add, c.e_mac, c.e_ac) == (3.7, 0.9, 4.6, 0.9)

    def test_mac_identity_enforced(self):
        EnergyConstants(e_mult=2.0, e_add=1.0, e_mac=3.0, e_ac=0.5)
        with pytest.raises(ValueError, match="E_MAC"):
            EnergyConstants(e_mac=4.7)


class TestFlops:
    def test_conv_hand_case(self):
        assert flops_ann(conv_layer(k=3, o=4, c_in=2, c_out=8)) == 2304

    def test_linear_hand_case(self):
        assert flops_ann(linear_layer(c_in=512, c_out=7)) == 3584

    def test_unit_conv(self):
        assert flops_ann(conv_layer(k=1, o=1, c_in=1, c_out=1)) == 1

    def test_non_square(self):
        layer = SynapticLayer(name="c", op="conv", k=3, out_h=4, out_w=6,
                              c_in=2, c_out=8)
        assert flops_ann(layer) == 9 * 24 * 16

    def test_snn_scaling(self):
        layer = conv_layer()
        assert flops_snn(layer, 0.0) == 0
        assert flops_snn(layer, 1.0) == flops_ann(layer)
        assert flops_snn(conv_layer(k=3, o=4, c_in=2, c_out=8), 0.25) == 576

    def test_negative_rate(self):
        with pytest.raises(ValueError, match="negative"):
            flops_snn(conv_layer(), -0.1)


class TestSpikeRate:
    def test_zero(self):
        assert spike_rate(LayerStats(conv_layer(), 0.0, 100)) == 0.0

    def test_every_step(self):
        # every neuron fires once per step for T=6
        assert spike_rate(LayerStats(conv_layer(), 600.0, 100)) == 6.0

    def test_recount_oracle(self, rng):
        spikes = (rng.random((6, 40)) < 0.3).astype(float)
        st = LayerStats(conv_layer(), float(spikes.sum()), 40)
        assert spike_rate(st) == spikes.sum() / 40

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LayerStats(conv_layer(), 1.0, 0)
        with pytest.raises(ValueError, match="negative"):
            LayerStats(conv_layer(), -1.0, 10)
        with pytest.raises(ValueError, match="dense-charged"):
            spike_rate(LayerStats(conv_layer(), None, 10))


class TestEstimate:
    def test_matched_rate_one_gives_constant_ratio(self):
        # all Rs = 1 on identical layer lists: the ratio is E_MAC/E_AC exactly
        layers = [conv_layer("a"), conv_layer("b", k=1, o=2, c_in=8, c_out=4),
                  linear_layer()]
        stats = [LayerStats(lay, float(lay.c_in), lay.c_in) for lay in layers]
        report = estimate(stats, layers, samples=1)
        np.testing.assert_allclose(report.ratio, 4.6 / 0.9, rtol=1e-12)

    def test_all_silent_is_flagged_infinite(self):
        layers = [conv_layer()]
        stats = [LayerStats(layers[0], 0.0, 10)]
        report = estimate(stats, layers, samples=1)
        assert report.e_snn_pj == 0
        assert report.ratio == float("inf")
        doc = report.to_json_dict()
        assert doc["ratio"] is None
        assert doc["ratio_infinite"] is True

    def test_two_layer_hand_ledger(self):
        # conv 2304 FLOPs at Rs=0.5 and linear 3584 at Rs=0.25:
        #   E_SNN = (1152 + 896) * 0.9 = 1843.2 pJ
        #   E_ANN = (2304 + 3584) * 4.6 = 27084.8 pJ
        conv = conv_layer()
        fc = linear_layer()
        stats = [LayerStats(conv, 0.5 * conv.c_in, conv.c_in),
                 LayerStats(fc, 0.25 * fc.c_in, fc.c_in)]
        report = estimate(stats, [conv, fc], samples=2)
        np.testing.assert_allclose(report.e_snn_pj, 1843.2, rtol=1e-12)
        np.testing.assert_allclose(report.e_ann_pj, 27084.8, rtol=1e-12)
        np.testing.assert_allclose(report.ratio, 27084.8 / 1843.2, rtol=1e-12)
        assert report.rows[0]["flops_snn"] == 1152
        assert report.rows[1]["flops_snn"] == 896

    def test_totals_equal_row_sums(self, rng):
        layers = [conv_layer(f"c{i}", k=3, o=int(rng.integers(1, 5)),
                             c_in=int(rng.integers(1, 6)),
                             c_out=int(rng.integers(1, 6)))
                  for i in range(5)]
        stats = [LayerStats(lay, float(rng.uniform(0, 3) * lay.c_in), lay.c_in)
                 for lay in layers]
        report = estimate(stats, layers, samples=3)
        np.testing.assert_allclose(report.e_snn_pj,
                                   sum(r["energy_pj"] for r in report.rows))
        np.testing.assert_allclose(report.e_ann_pj,
                                   sum(r["energy_pj"] for r in report.ann_rows))

    def test_monotone_in_rate(self):
        conv = conv_layer()
        base = estimate([LayerStats(conv, 10.0, conv.c_in)], [conv], 1)
        for spikes in (12.0, 20.0, 200.0):
            more = estimate([LayerStats(conv, spikes, conv.c_in)], [conv], 1)
            assert more.e_snn_pj >= base.e_snn_pj
            base = more

    def test_linear_in_concatenation(self, rng):
        layers = [conv_layer(f"c{i}") for i in range(4)]
        stats = [LayerStats(lay, float(rng.uniform(0, 2) * lay.c_in), lay.c_in)
                 for lay in layers]
        whole = estimate(stats, layers, 1)
        part_a = estimate(stats[:2], layers[:2], 1)
        part_b = estimate(stats[2:], layers[2:], 1)
        np.testing.assert_allclose(whole.e_snn_pj,
                                   part_a.e_snn_pj + part_b.e_snn_pj, rtol=1e-12)
        np.testing.assert_allclose(whole.e_ann_pj,
                                   part_a.e_ann_pj + part_b.e_ann_pj, rtol=1e-12)

    def test_matched_ratio_identity(self, rng):
        # E_ANN/E_SNN == (E_MAC/E_AC) * (sum FLOPs / sum FLOPs*Rs)
        layers = [conv_layer(f"c{i}", o=int(rng.integers(1, 6))) for i in range(6)]
        rates = rng.uniform(0.01, 4.0, size=6)
        stats = [LayerStats(lay, float(r * lay.c_in), lay.c_in)
                 for lay, r in zip(layers, rates)]
        report = estimate(stats, layers, 1)
        fa = np.array([flops_ann(lay) for lay in layers], dtype=float)
        want = (4.6 / 0.9) * fa.sum() / (fa * rates).sum()
        np.testing.assert_allclose(report.ratio, want, rtol=1e-12)

    def test_dense_charged_row(self):
        conv = conv_layer()
        fc = linear_layer("head.cls")
        stats = [LayerStats(conv, 5.0, conv.c_in), LayerStats(fc, None, fc.c_in)]
        report = estimate(stats, [conv, fc], 1)
        row = report.rows[1]
        assert row["rs"] is None
        assert row["energy_pj"] == flops_ann(fc) * 4.6
        assert any("classifier head" in n for n in report.notes)

    def test_empty_sample_set(self):
        with pytest.raises(ValueError, match="at least one sample"):
            estimate([], [], samples=0)

    def test_non_square_note(self):
        lay = SynapticLayer(name="c", op="conv", k=3, out_h=2, out_w=4,
                            c_in=1, c_out=1)
        report = estimate([LayerStats(lay, 1.0, 1)], [lay], 1)
        assert any("non-square" in n for n in report.notes)


def trace_setup(rng, batch=3):
    config = NetworkConfig(
        time_steps=3, height=8, width=8,
        layers=(Conv2d(2, 4, k=3, stride=2, padding=1), IF(),
                SEW(4), GlobalPool(), IF(), Accumulator(4), Classifier(2)))
    params = init_params(config, seed=1)
    x = (rng.random((batch, 3, 2, 8, 8)) < 0.4).astype(np.uint8)
    _, trace = forward(config, params, x)
    return config, trace, x


class TestTraceStats:
    def test_input_charging_uses_event_density(self, rng):
        config, trace, x = trace_setup(rng)
        stats, samples = stats_from_traces(config, [trace])
        assert samples == 3
        first = stats[0]
        assert first.layer.name == "00.conv"
        # charged by the event tensor itself, averaged per sample
        assert first.spikes == x.sum() / 3
        assert first.neurons == 2 * 8 * 8

    def test_classifier_marked_dense(self, rng):
        config, trace, _ = trace_setup(rng)
        stats, _ = stats_from_traces(config, [trace])
        assert stats[-1].layer.name.endswith(".cls")
        assert stats[-1].spikes is None

    def test_accumulator_charged_by_features(self, rng):
        config, trace, _ = trace_setup(rng)
        stats, _ = stats_from_traces(config, [trace])
        acc = [st for st in stats if st.layer.name.endswith(".acc")][0]
        assert acc.spikes == trace.features.sum() / 3
        assert acc.neurons == 4

    def test_output_charging_uses_spike_counts(self, rng):
        config, trace, _ = trace_setup(rng)
        stats, _ = stats_from_traces(config, [trace], charging="output")
        first = stats[0]
        assert first.layer.out_site == "01"
        assert first.spikes == trace.spike_counts["01"] / 3

    def test_output_charging_counts_output_neurons(self, rng):
        # sew_tiny's plain convs are strided: each one's neuron count is
        # C_out * OH * OW of its output, not the size of its input
        config = sew_tiny(4, height=32, width=32, theta=0.5)
        x = (rng.random((2, 6, 2, 32, 32)) < 0.1).astype(np.uint8)
        _, trace = forward(config, init_params(config, 1), x)
        stats, _ = stats_from_traces(config, [trace], charging="output")
        neurons = {st.layer.name: st.neurons for st in stats if st.layer.op == "conv"}
        assert {name: neurons[name] for name in ("00.conv", "04.conv", "07.conv")} == {
            "00.conv": 16 * 16 * 16, "04.conv": 32 * 4 * 4, "07.conv": 64 * 2 * 2}
        assert all(st.neurons == st.layer.c_out * st.layer.out_h * st.layer.out_w
                   for st in stats if st.layer.op == "conv")

    def test_charging_must_be_known(self, rng):
        config, trace, _ = trace_setup(rng)
        with pytest.raises(ValueError, match="charging"):
            stats_from_traces(config, [trace], charging="both")

    def test_empty_traces(self, rng):
        config, _, _ = trace_setup(rng)
        with pytest.raises(ValueError, match="empty"):
            stats_from_traces(config, [])

    def test_multi_trace_averaging(self, rng):
        config, trace, _ = trace_setup(rng, batch=2)
        _, trace2, _ = trace_setup(rng, batch=4)
        report = estimate_from_traces(config, [trace, trace2])
        assert report.samples == 6
        single = estimate_from_traces(config, [trace])
        assert single.samples == 2

    def test_dense_reference_counts_folded_input(self, rng):
        config, trace, _ = trace_setup(rng)
        ann = synaptic_layers(config, kind="dense")
        # first dense conv takes 2*T input channels
        assert ann[0].c_in == 6
        spk = synaptic_layers(config, kind="spiking")
        assert spk[0].c_in == 2
        # same spatial footprint otherwise
        assert ann[0].out_h == spk[0].out_h


class TestConvFedConv:
    """A layer whose input is a conv's real-valued output has no input
    spikes. The config marks it, not the sign of its input sum, and it is
    charged T dense passes at E_MAC."""

    @staticmethod
    def config():
        # conv -> AvgPool -> IF, then 03.conv feeding 04.conv with no site between
        return NetworkConfig(time_steps=2, height=16, width=16, layers=(
            Conv2d(2, 8), AvgPool(2), IF(), Conv2d(8, 8, k=3, stride=2, padding=1, bias=False),
            Conv2d(8, 12, k=1, padding=0), IF(), SEW(12, k=1, bias=False), GlobalPool(), IF(),
            Accumulator(12), Classifier(3)))

    def test_listing_marks_real_inputs(self):
        assert {lay.name: lay.real_input for lay in synaptic_layers(self.config())} == {
            "00.conv": False, "03.conv": False, "04.conv": True, "06.sew.conv1": False,
            "06.sew.conv2": False, "09.acc": False, "10.cls": False}
        # a SEW fed straight by a conv, and features that are a conv's output
        config = NetworkConfig(time_steps=2, height=8, width=8, layers=(
            Conv2d(2, 4), SEW(4), AvgPool(2), Conv2d(4, 4), GlobalPool(),
            Accumulator(4), Classifier(2)))
        assert {lay.name: lay.real_input for lay in synaptic_layers(config)} == {
            "00.conv": False, "01.sew.conv1": True, "01.sew.conv2": False, "03.conv": True,
            "05.acc": True, "06.cls": False}

    @pytest.mark.parametrize("mode", ["spike", "relaxed", "dense"])
    def test_charged_dense_passes(self, rng, mode):
        config = self.config()
        params = init_params(config, 1, kind="dense" if mode == "dense" else "spiking")
        # 03.conv's output, 04.conv's input, is <= 0 wherever its input fires
        params["03.conv.weight"] = -np.abs(params["03.conv.weight"])
        x = (rng.random((8, 2, 2, 16, 16)) < 0.1).astype(np.uint8)
        _, trace = forward(config, params, x, mode=mode, record=False)
        assert "04.conv" not in trace.synaptic_inputs
        if mode != "spike":  # the ledger reads spike-mode traces only
            with pytest.raises(ValueError, match="spike-mode"):
                estimate_from_traces(config, [trace])
            return
        report = estimate_from_traces(config, [trace])
        rows = {row["name"]: row for row in report.rows}
        row = rows.pop("04.conv")
        assert row["rs"] is None and row["flops_snn"] == 2 * row["flops_ann"]
        assert row["energy_pj"] == 2 * row["flops_ann"] * 4.6
        assert row["charged"] == "2 dense passes at E_MAC"
        assert rows.pop("10.cls")["charged"] == "dense pass at E_MAC"
        assert all(row["rs"] is not None for row in rows.values())
        assert "04.conv: real-valued input (a conv's output) charged 2 dense passes " \
               "at E_MAC" in report.notes
        # output charging gives 04.conv the spikes of the site it feeds
        output = estimate_from_traces(config, [trace], charging="output")
        row = next(row for row in output.rows if row["name"] == "04.conv")
        assert row["rs"] == trace.spike_counts["05"] / 8 / trace.site_sizes["05"]


def sew_fed_by_conv():
    """A SEW fed straight by a conv, and features that are a conv's output."""
    return NetworkConfig(time_steps=2, height=8, width=8, layers=(
        Conv2d(2, 4), SEW(4), AvgPool(2), Conv2d(4, 4), GlobalPool(),
        Accumulator(4), Classifier(2)))


class TestCounterRule:
    """A trace holds a counter exactly where ``stats_from_traces`` reads one:
    in spike mode, the input sum of every layer but the classifier whose
    input is not a conv's real-valued output; in no other mode."""

    CONFIGS = {**NETS, "conv_fed_conv": TestConvFedConv.config,
               "sew_fed_by_conv": sew_fed_by_conv}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("mode", ["spike", "relaxed", "dense"])
    def test_counters_where_the_ledger_reads(self, rng, name, mode):
        config = self.CONFIGS[name]()
        kind = "dense" if mode == "dense" else "spiking"
        x = (rng.random((3, config.time_steps, 2, config.height, config.width))
             < 0.2).astype(np.uint8)
        _, trace = forward(config, init_params(config, 1, kind=kind), x, mode=mode)
        if mode != "spike":
            assert trace.spike_counts == trace.site_sizes == trace.synaptic_inputs == {}
            with pytest.raises(ValueError, match="spike-mode"):
                estimate_from_traces(config, [trace])
            return
        assert list(trace.synaptic_inputs) == [
            lay.name for lay in synaptic_layers(config)[:-1] if not lay.real_input]
        sites = {lay.out_site for lay in synaptic_layers(config)} - {None}
        assert sites <= set(trace.spike_counts) == set(trace.site_sizes)
        for charging in ("input", "output"):
            estimate_from_traces(config, [trace], charging=charging)


class TestFormatText:
    def test_constants_block_verbatim(self, rng):
        config, trace, _ = trace_setup(rng)
        text = format_text(estimate_from_traces(config, [trace]))
        for line in ("E_MULT = 3.7 pJ", "E_ADD  = 0.9 pJ",
                     "E_MAC  = 4.6 pJ", "E_AC   = 0.9 pJ"):
            assert line in text

    def test_band_note_present(self, rng):
        config, trace, _ = trace_setup(rng)
        text = format_text(estimate_from_traces(config, [trace]))
        assert f"{BAND_LOW}x-{BAND_HIGH}x" in text
        assert any(word in text for word in ("below", "within", "above"))

    def test_infinite_ratio_rendering(self):
        lay = conv_layer()
        report = estimate([LayerStats(lay, 0.0, 10)], [lay], 1)
        assert "ratio E_ANN/E_SNN = inf" in format_text(report)

    def test_band_position_fields(self):
        lay = conv_layer()

        def ratio_of(rs):
            return estimate([LayerStats(lay, rs * lay.c_in, lay.c_in)],
                            [lay], 1).to_json_dict()["reference_band"]["position"]

        # Rs chosen to land under, inside, and over the published band:
        # ratio = (4.6/0.9)/Rs
        assert ratio_of(1.0) == "below"        # 5.1x
        assert ratio_of(0.1) == "within"       # 51.1x
        assert ratio_of(0.05) == "above"       # 102.2x

    @pytest.mark.parametrize("rs, position", [(1.0, "below"), (0.1, "within"), (0.05, "above"),
                                              (0.0, "above")])
    def test_text_and_json_name_one_position(self, rs, position):
        lay = conv_layer()
        report = estimate([LayerStats(lay, rs * lay.c_in, lay.c_in)], [lay], 1)
        assert report.band == position
        assert report.to_json_dict()["reference_band"]["position"] == position
        assert f"measured ratio is {position} the band" in format_text(report)


def test_report_equal_split_and_whole(rng, monkeypatch):
    # forward(record=False) splits a 16-sample sew_tiny batch in a process
    # whose OpenBLAS runs two threads; the report must not see it
    config = sew_tiny(4, theta=0.5)
    params = init_params(config, seed=1)
    x = (rng.random((16, 6, 2, 64, 64)) < 0.05).astype(np.uint8)
    reports, set_calls = [], []
    monkeypatch.setattr(_blas, "set_threads", set_calls.append)
    for threads in (2, 1):
        _helper.stop()
        monkeypatch.setattr(_blas, "threads", lambda: [threads])
        _, trace = forward(config, params, x, record=False)
        reports.append(estimate_from_traces(config, [trace]).to_json_dict())
    # the first run split and forked the helper, whose stop gave the count
    # back; the second did not split
    assert set_calls == [[1], [2]]
    assert reports[0] == reports[1]
