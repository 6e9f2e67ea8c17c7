"""Measurement layer: error metrics, BER Monte-Carlo, latency, sweeps."""

import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import fxlink as fx
from fxlink import autoencoder as ae
from fxlink import metrics as mx

Q16 = fx.make_qformat(16, 3)


# ---------------------------------------------------------------------------
# relative RMS / EVM
# ---------------------------------------------------------------------------

def test_relative_rms_basics():
    v = np.ones(16)
    assert mx.relative_rms(v, v) == 0.0
    assert mx.relative_rms(v, v * 1.01) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mx.relative_rms(np.zeros(4), np.ones(4))


def test_relative_rms_scale_invariant():
    rng = np.random.default_rng(0)
    ref = rng.normal(size=256)
    test = ref + rng.normal(scale=0.01, size=256)
    a = mx.relative_rms(ref, test)
    b = mx.relative_rms(ref * 7.5, test * 7.5)
    assert a == pytest.approx(b)


def test_evm_basics():
    sym = np.array([1 + 1j, -1 + 0.5j, 0.2 - 1j])
    assert mx.evm(sym, sym) == 0.0
    assert mx.evm(sym, sym * 1.01) == pytest.approx(1.0)
    assert mx.evm(3 * sym, 3 * sym * 1.01) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mx.evm(np.zeros(3, dtype=complex), sym)


def test_evm_fixed_vs_float_under_one_percent(awgn_model):
    # implementation-error EVM: same noiseless link through both engines
    qm = fx.quantize_model(awgn_model, Q16)
    rng = np.random.default_rng(40)
    bits = rng.integers(0, 2, size=(2000, 32))
    chan = fx.ChannelRealization(np.ones((2000, 16), dtype=complex), np.inf)
    _, tf = ae.end_to_end(awgn_model, bits, chan,
                          np.random.default_rng(41), engine="float")
    _, tq = ae.end_to_end(qm, bits, chan,
                          np.random.default_rng(41), engine="fixed")
    assert mx.evm(tf["rx_symbols"], tq["rx_symbols"]) < 1.0


# ---------------------------------------------------------------------------
# per-layer error report
# ---------------------------------------------------------------------------

def test_layer_report_32bit_tiny(awgn_model):
    q32 = fx.make_qformat(32, 3)
    rep = mx.layer_error_report(awgn_model, q32, 300,
                                np.random.default_rng(1))
    assert len(rep.rel_rms_pct) == 5
    assert all(v < 1e-3 for v in rep.rel_rms_pct)


def test_layer_report_decreases_with_width(awgn_model):
    reports = {}
    for bits in (8, 16, 24):
        q = fx.make_qformat(bits, 3)
        reports[bits] = mx.layer_error_report(awgn_model, q, 500,
                                              np.random.default_rng(2))
    for narrow, wide in ((8, 16), (16, 24)):
        for lo, hi in zip(reports[wide].rel_rms_pct,
                          reports[narrow].rel_rms_pct):
            assert lo <= hi


def test_layer_report_metadata(awgn_model):
    rep = mx.layer_error_report(awgn_model, Q16, 200,
                                np.random.default_rng(3))
    assert rep.bit_width == 16
    assert rep.n_samples == 200
    assert rep.first_layer == rep.rel_rms_pct[0]
    assert rep.final_layer == rep.rel_rms_pct[-1]


def test_layer_report_rejects_qmodel_at_another_format(awgn_model):
    q8 = fx.make_qformat(8, 3)
    with pytest.raises(ValueError, match="Q16.3.*Q8.3"):
        mx.layer_error_report(awgn_model, q8, 100, np.random.default_rng(3),
                              fx.quantize_model(awgn_model, Q16))
    with pytest.raises(ValueError, match="Q16.3"):
        mx.layer_error_report(awgn_model, Q16, 100, np.random.default_rng(3),
                              awgn_model)


@pytest.mark.parametrize("n", [0, -1])
def test_layer_report_rejects_empty(awgn_model, n):
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="n_samples"):
        mx.layer_error_report(awgn_model, Q16, n, rng)
    # nothing was drawn
    assert rng.integers(0, 2**62) == \
        np.random.default_rng(4).integers(0, 2**62)


@pytest.mark.parametrize("bits", [16, 32])     # one-GEMM and limb regimes
def test_layer_report_matches_full_batch_link(awgn_model, bits):
    # the definition the chunked report must keep: both codecs over the
    # noiseless unit-gain link on the whole batch at once, tap by tap
    q = fx.make_qformat(bits, 3)
    qm = fx.quantize_model(awgn_model, q)
    for n in (1, 511, 512, 513, 1300):
        rng = np.random.default_rng([5, n])
        rep = mx.layer_error_report(awgn_model, q, n, rng, qm)

        ref_rng = np.random.default_rng([5, n])
        x0 = ae.random_block(n, awgn_model.ofdm, ref_rng).reals
        unit = fx.ChannelRealization(np.ones(16, dtype=complex), np.inf)
        _, tf = ae._link(awgn_model, x0, unit, ref_rng, equalize=False)
        _, tq = ae._link(qm, x0, unit, ref_rng, equalize=False)
        want = [mx.relative_rms(f, t.values) for f, t in
                zip(tf["encoder_layers"] + tf["decoder_layers"],
                    tq["encoder_layers"] + tq["decoder_layers"])]
        np.testing.assert_allclose(rep.rel_rms_pct, want, rtol=1e-12,
                                   atol=0)
        # the caller's stream moves exactly as far as random_block's draw
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


def test_layer_report_memory_bounded(ofdm16):
    # 10240 blocks: the full-batch taps alone would be 10 MB each
    model = ae.build_model(ofdm16, 128, 5)
    qm = fx.quantize_model(model, Q16)
    tracemalloc.start()
    try:
        mx.layer_error_report(model, Q16, 10240, np.random.default_rng(6),
                              qm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dead_layer_reads_nan_and_the_sweep_keeps_its_row(tmp_path, ofdm16):
    codec = ae.build_model(ofdm16, 8, 4)
    hidden, output = codec.decoder.layers
    hidden.w[...], hidden.b[...] = 0.0, 0.0     # a dead decoder layer
    output.b[...] = 0.3
    rep = mx.layer_error_report(codec, Q16, 200, np.random.default_rng(10))
    assert np.isnan(rep.rel_rms_pct[2])
    assert np.isfinite(np.delete(rep.rel_rms_pct, 2)).all()
    out = tmp_path / "layer_error.csv"
    mx.write_layer_error_csv(out, [rep])
    with open(out, newline="") as fh:
        assert [row[3] for row in csv.reader(fh)][3] == "nan"

    spec = mx.SweepSpec(
        axis="hidden_nodes", values=[8], seeds=[0], ofdm=ofdm16,
        n_layers=4, train=tiny_train_cfg(), channel="awgn", equalize=False,
        rms_samples=200, ber_min_bits=10_000, ber_max_bits=20_000)
    out = tmp_path / "sweep.csv"
    with mock.patch.object(ae, "train",
                           return_value=ae.TrainResult(codec, [0.0])):
        assert mx.write_sweep_csv(
            out, mx.run_sweep(spec, np.random.default_rng(12345))) == 1
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert [row[:3] for row in table[1:]] == [["hidden_nodes", "8", "0"]]
    assert np.isfinite(float(table[1][3]))


# ---------------------------------------------------------------------------
# BER sweeps
# ---------------------------------------------------------------------------

def test_ber_noiseless_is_zero(awgn_model):
    curve = mx.ber_sweep(awgn_model, "float", "awgn", [np.inf], 20_000,
                         2_000_000, np.random.default_rng(4))
    assert curve.points[0].ber == 0.0
    assert curve.points[0].bits >= 20_000


def test_ber_reproducible(awgn_model):
    a = mx.ber_sweep(awgn_model, "float", "rayleigh", [20.0], 20_000,
                     2_000_000, np.random.default_rng(5))
    b = mx.ber_sweep(awgn_model, "float", "rayleigh", [20.0], 20_000,
                     2_000_000, np.random.default_rng(5))
    assert a.points[0].ber == b.points[0].ber
    assert a.points[0].bits == b.points[0].bits


def test_ber_monotone_in_snr(awgn_model):
    curve = mx.ber_sweep(awgn_model, "float", "awgn", [4.0, 8.0, 12.0],
                         30_000, 2_000_000, np.random.default_rng(6))
    pts = curve.points
    for lo, hi in zip(pts[1:], pts[:-1]):
        slack = 2.0 * np.sqrt(max(hi.ber, 1e-9) / hi.bits)
        assert lo.ber <= hi.ber + slack


def test_ber_uncoded_reference_vs_theory():
    # Eb/N0 = 4 dB -> symbol SNR 7.01 dB on the unit-power 4-QAM chain
    ebn0 = 4.0
    curve = mx.ber_sweep(None, "float", "awgn",
                         [mx.ebn0_to_symbol_snr_db(ebn0)],
                         400_000, 4_000_000, np.random.default_rng(7))
    assert curve.points[0].ber == pytest.approx(
        mx.qpsk_awgn_ber_theory(ebn0), rel=0.10)


def test_ber_uncoded_equalize_flag():
    # without ZF, a Rayleigh gain's random phase scrambles the 4-QAM
    # decisions; over AWGN (h = 1) ZF changes nothing
    def point(channel, snr_db, eq):
        return mx.ber_sweep(None, "float", channel, [snr_db], 50_000,
                            50_000, np.random.default_rng(3),
                            equalize=eq).points[0]
    zf, no_zf = point("rayleigh", 30.0, True), point("rayleigh", 30.0, False)
    assert no_zf.ber > 0.4 and no_zf.ber > 100 * zf.ber
    awgn_zf = point("awgn", 7.0, True)
    assert awgn_zf.errors > 100
    assert point("awgn", 7.0, False) == awgn_zf


def test_ber_min_bits_guard(awgn_model):
    with pytest.raises(ValueError):
        mx.ber_sweep(awgn_model, "float", "awgn", [10.0], 5000, 2_000_000,
                     np.random.default_rng(0))


def test_ber_rejects_nan_snr():
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="SNR points"):
            mx.ber_sweep(None, "uncoded", "awgn", [10.0, bad], 100_000,
                         2_000_000, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------

def test_latency_cycle_examples():
    cfg = fx.OfdmConfig(sample_rate=1e6)
    est = mx.estimate_latency([512, 512], 512, 4, 100e6, cfg)
    layer = est.layers[0]
    assert layer.macs == 512 * 512
    assert layer.cycles == 516
    assert layer.time_us == pytest.approx(5.16)
    assert est.symbol_duration_us == pytest.approx(20.0)
    assert layer.ok

    est1 = mx.estimate_latency([512, 512], 1, 4, 100e6, cfg)
    assert est1.layers[0].cycles == 262_148
    assert est1.layers[0].time_us == pytest.approx(2621.48)
    assert not est1.layers[0].ok


def test_latency_mac_counts_exact():
    cfg = fx.OfdmConfig()
    dims = [32, 512, 512, 32, 512, 32]
    est = mx.estimate_latency(dims, 512, 4, 100e6, cfg)
    for layer, (din, dout) in zip(est.layers, zip(dims[:-1], dims[1:])):
        assert layer.macs == din * dout


def test_latency_invalid_params():
    cfg = fx.OfdmConfig()
    with pytest.raises(ValueError):
        mx.estimate_latency([32, 32], 0, 4, 100e6, cfg)
    with pytest.raises(ValueError):
        mx.estimate_latency([32], 4, 4, 100e6, cfg)


def test_stack_dims(awgn_model):
    dims = mx.stack_dims(awgn_model)
    assert dims == [32, 64, 64, 32, 64, 32]


# ---------------------------------------------------------------------------
# structure sweep
# ---------------------------------------------------------------------------

def tiny_train_cfg():
    return fx.TrainConfig(epochs=2, batches_per_epoch=20, seed=0)


def test_sweep_bit_width_rows(tmp_path, ofdm16):
    out = tmp_path / "sweep.csv"
    spec = mx.SweepSpec(
        axis="bit_width", values=[8, 16, 24], seeds=[0], ofdm=ofdm16,
        hidden_nodes=16, n_layers=3, train=tiny_train_cfg(),
        channel="awgn", equalize=False, rms_samples=300,
        ber_min_bits=10_000, ber_max_bits=20_000)
    rows = list(mx.run_sweep(spec, np.random.default_rng(12345)))
    assert mx.write_sweep_csv(out, rows) == 3
    rms = [r.final_rms_pct for r in rows]
    assert rms[0] > rms[1] > rms[2]
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == mx.CSV_SCHEMAS["sweep.csv"]
    assert len(table) == 4


def test_sweep_trains_one_model_per_seed(tmp_path, ofdm16):
    spec = mx.SweepSpec(
        axis="bit_width", values=[8, 16], seeds=[0, 1], ofdm=ofdm16,
        hidden_nodes=16, n_layers=2, train=tiny_train_cfg(),
        channel="awgn", equalize=False, rms_samples=200,
        ber_min_bits=10_000, ber_max_bits=20_000)
    with mock.patch.object(ae, "train", wraps=ae.train) as train:
        rows = list(mx.run_sweep(spec, np.random.default_rng(12345)))
    assert len(rows) == 4
    # one trained model per seed, shared across widths
    assert train.call_count == 2


def test_sweep_csv_keeps_rows_before_a_failure(tmp_path, ofdm16):
    spec = mx.SweepSpec(
        axis="hidden_nodes", values=[8, 12], seeds=[0], ofdm=ofdm16,
        n_layers=2, train=tiny_train_cfg(), channel="awgn", equalize=False,
        rms_samples=200, ber_min_bits=10_000, ber_max_bits=20_000)
    first = ae.train(ae.build_model(ofdm16, 8, 2, seed=0), spec.train,
                     "awgn", False)
    out = tmp_path / "sweep.csv"
    with mock.patch.object(ae, "train",
                           side_effect=[first, RuntimeError("killed")]):
        with pytest.raises(RuntimeError, match="killed"):
            mx.write_sweep_csv(out, mx.run_sweep(
                spec, np.random.default_rng(12345)))
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == mx.CSV_SCHEMAS["sweep.csv"]
    assert [row[:3] for row in table[1:]] == [["hidden_nodes", "8", "0"]]


def test_sweep_rejects_bad_spec(ofdm16):
    with pytest.raises(ValueError):
        mx.SweepSpec(axis="nonsense", values=[1], seeds=[0])
    with pytest.raises(ValueError):
        mx.SweepSpec(axis="bit_width", values=[], seeds=[0])
    with pytest.raises(ValueError):
        mx.SweepSpec(axis="bit_width", values=[8], seeds=[])
    with pytest.raises(ValueError, match="channel kind"):
        mx.SweepSpec(axis="bit_width", values=[8], seeds=[0],
                     channel="rician")
    # every axis value is checked before run_sweep trains for any
    for axis, values in (("n_layers", [2, 1]), ("hidden_nodes", [4, 0]),
                         ("bit_width", [8, 40])):
        with pytest.raises(ValueError):
            mx.SweepSpec(axis=axis, values=values, seeds=[0])
    with pytest.raises(ValueError, match="hidden node"):
        mx.SweepSpec(axis="bit_width", values=[8], seeds=[0], hidden_nodes=0)
    # the base model too, on the axis that replaces its shape
    with pytest.raises(ValueError, match="base model"):
        mx.SweepSpec(axis="hidden_nodes", values=[8], seeds=[0],
                     hidden_nodes=0)
    with pytest.raises(ValueError, match="base model"):
        mx.SweepSpec(axis="n_layers", values=[3], seeds=[0], n_layers=1)
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="ref_snr_db"):
            mx.SweepSpec(axis="bit_width", values=[8], seeds=[0],
                         ref_snr_db=bad)
    mx.SweepSpec(axis="bit_width", values=[8], seeds=[0],
                 ref_snr_db=np.inf)             # a noiseless link


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def test_csv_writers_schemas(tmp_path, awgn_model):
    rep = mx.layer_error_report(awgn_model, Q16, 100,
                                np.random.default_rng(8))
    p1 = tmp_path / "layer_error.csv"
    mx.write_layer_error_csv(p1, [rep])
    rows = list(csv.reader(open(p1, newline="")))
    assert rows[0] == mx.CSV_SCHEMAS["layer_error.csv"]
    assert len(rows) == 1 + 5

    curve = mx.ber_sweep(awgn_model, "float", "awgn", [np.inf], 10_000,
                         2_000_000, np.random.default_rng(9))
    p2 = tmp_path / "ber.csv"
    mx.write_ber_csv(p2, [curve])
    rows = list(csv.reader(open(p2, newline="")))
    assert rows[0] == mx.CSV_SCHEMAS["ber.csv"]

    est = mx.estimate_latency([32, 16], 8, 2, 50e6, fx.OfdmConfig())
    p3 = tmp_path / "latency.csv"
    mx.write_latency_csv(p3, est)
    rows = list(csv.reader(open(p3, newline="")))
    assert rows[0] == mx.CSV_SCHEMAS["latency.csv"]
