"""End-to-end codec: shapes, normalization, training, chain gradients."""

import numpy as np
import pytest

import fxlink as fx
from fxlink import autoencoder as ae
from fxlink import neuralnet as nn
from fxlink import ofdmlink as ofdm


def noiseless_link(model, x):
    """The float link over unit gains, without noise or ZF: decoder output
    and taps."""
    chan = fx.ChannelRealization(np.ones(model.ofdm.n_subcarriers,
                                         dtype=complex), np.inf)
    return ae._link(model, x, chan, np.random.default_rng(0), equalize=False)


def test_build_model_rejects_empty_shapes(ofdm16):
    with pytest.raises(ValueError, match="layer per side"):
        ae.build_model(ofdm16, 16, 1)
    with pytest.raises(ValueError, match="hidden node"):
        ae.build_model(ofdm16, 0, 3)


def test_encode_unit_power(ofdm16):
    model = ae.build_model(ofdm16, 32, 5, seed=2)
    rng = np.random.default_rng(0)
    batch = ae.random_block(64, ofdm16, rng).reals
    out = noiseless_link(model, batch)[1]["encoded"]
    power = 2.0 * np.mean(out ** 2)   # per complex sample
    assert abs(power - 1.0) <= 1e-6


def test_encode_changes_with_training(ofdm16, awgn_model):
    fresh = ae.build_model(ofdm16, 64, 5, seed=1)
    rng = np.random.default_rng(1)
    x = ae.random_block(4, ofdm16, rng).reals
    assert not np.allclose(noiseless_link(fresh, x)[1]["encoded"],
                           noiseless_link(awgn_model, x)[1]["encoded"])


def test_decode_shapes_and_finiteness(ofdm16):
    model = ae.build_model(ofdm16, 16, 3, seed=3)
    out, _ = nn.forward_float(model.decoder, np.zeros(32))
    assert out.shape == (32,)
    assert np.all(np.isfinite(out))


def test_trained_noiseless_reconstruction(awgn_model, ofdm16):
    rng = np.random.default_rng(9)
    blk = ae.random_block(500, ofdm16, rng)
    r_hat, _ = noiseless_link(awgn_model, blk.reals)
    assert np.mean((r_hat - blk.reals) ** 2) < 1e-2


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_training_reduces_loss(ofdm16):
    model = ae.build_model(ofdm16, 32, 5, seed=3)
    cfg = fx.TrainConfig(epochs=10, batches_per_epoch=50, seed=3,
                         snr_range_db=(20.0, 20.0))  # degenerate range ok
    hist = ae.train(model, cfg, channel="awgn").loss_history
    assert all(np.isfinite(h) for h in hist)
    assert hist[-1] < hist[0]


def test_training_deterministic(ofdm16):
    model = ae.build_model(ofdm16, 16, 3, seed=4)
    cfg = fx.TrainConfig(epochs=3, batches_per_epoch=20, seed=4)
    a = ae.train(model, cfg, channel="rayleigh")
    b = ae.train(model, cfg, channel="rayleigh")
    assert np.array_equal(a.model.encoder.params, b.model.encoder.params)
    assert np.array_equal(a.model.decoder.params, b.model.decoder.params)
    assert a.loss_history == b.loss_history


def test_training_does_not_mutate_input(ofdm16):
    model = ae.build_model(ofdm16, 16, 3, seed=5)
    w0 = model.encoder.layers[0].w.copy()
    cfg = fx.TrainConfig(epochs=1, batches_per_epoch=5, seed=5)
    ae.train(model, cfg, channel="awgn")
    assert np.array_equal(model.encoder.layers[0].w, w0)


def test_loss_window_trend(ofdm16):
    # epoch-averaged loss non-increasing over every 10-epoch window
    good = 0
    for seed in range(10):
        model = ae.build_model(ofdm16, 32, 5, seed=seed)
        cfg = fx.TrainConfig(epochs=15, batches_per_epoch=50, seed=seed)
        hist = ae.train(model, cfg, channel="awgn").loss_history
        good += all(hist[i + 10] <= hist[i] for i in range(len(hist) - 10))
    assert good >= 9


# ---------------------------------------------------------------------------
# chain gradient vs finite differences (through channel + noise draw)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("equalize,singular_gains",
                         [(True, False), (False, False), (True, True),
                          (False, True)],
                         ids=["zf", "no_zf", "zf_singular", "no_zf_singular"])
def test_chain_gradient_matches_finite_differences(equalize, singular_gains):
    cfg = fx.OfdmConfig(n_subcarriers=4, cp_len=1)
    model = ae.build_model(cfg, 8, 5, seed=3)
    rng = np.random.default_rng(0)
    x0 = ae.random_block(3, cfg, rng).reals
    h = fx.draw_channel("rayleigh", (3, 4), 20.0, rng).h
    if singular_gains:
        # both below ZF's singular threshold: ZF zeroes their outputs
        h[1, 2] = 0.0
        h[2, 0] = 1e-9
    # 23 dB: noise of about 0.05 rms per component
    chan = fx.ChannelRealization(h, 23.0)

    def loss_and_grads():
        # the same noise draw at every evaluation
        return ae.chain_loss_and_grads(model, x0, chan,
                                       np.random.default_rng(2), equalize)

    _, enc_g, dec_g = loss_and_grads()
    # every weight and bias array with its gradient, each a view into
    # the flat vectors
    params, grads = [], []
    for net, g in ((model.encoder, enc_g), (model.decoder, dec_g)):
        for layer, (gw, gb) in zip(net.layers, nn.layer_views(g, net.dims)):
            params += [layer.w, layer.b]
            grads += [gw, gb]
    rng2 = np.random.default_rng(1)
    step = 1e-6
    worst = 0.0
    for p, g in zip(params, grads):
        for _ in range(5):
            idx = tuple(rng2.integers(0, s) for s in p.shape)
            old = p[idx]
            p[idx] = old + step
            lp, _, _ = loss_and_grads()
            p[idx] = old - step
            lm, _, _ = loss_and_grads()
            p[idx] = old
            fd = (lp - lm) / (2 * step)
            if max(abs(fd), abs(g[idx])) > 1e-9:
                worst = max(worst, abs(fd - g[idx])
                            / max(abs(fd), abs(g[idx])))
    assert worst < 1e-3


# ---------------------------------------------------------------------------
# end-to-end chain
# ---------------------------------------------------------------------------

def test_end_to_end_noiseless_identity(awgn_model, ofdm16):
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, size=(200, 32))
    chan = fx.ChannelRealization(np.ones((200, 16), dtype=complex), np.inf)
    out, taps = ae.end_to_end(awgn_model, bits, chan, rng, engine="float")
    assert np.array_equal(out, bits)
    assert len(taps["encoder_layers"]) == awgn_model.encoder.depth
    assert len(taps["decoder_layers"]) == awgn_model.decoder.depth


def test_end_to_end_single_block(awgn_model, ofdm16):
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, size=32)
    chan = fx.ChannelRealization(np.ones(16, dtype=complex), np.inf)
    out, _ = ae.end_to_end(awgn_model, bits, chan, rng)
    assert out.shape == (32,)
    assert np.array_equal(out, bits)


def test_end_to_end_fixed_taps_are_fixed_tensors(awgn_model, ofdm16):
    qm = fx.quantize_model(awgn_model, fx.make_qformat(16, 3))
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2, size=(8, 32))
    chan = fx.draw_channel("rayleigh", (8, 16), 30.0, rng)
    out, taps = ae.end_to_end(qm, bits, chan, rng, engine="fixed")
    assert out.shape == bits.shape
    from fxlink.fixedpoint import FixedTensor
    assert all(isinstance(t, FixedTensor) for t in taps["encoder_layers"])
    assert all(isinstance(t, FixedTensor) for t in taps["decoder_layers"])


def test_end_to_end_engine_model_mismatch(awgn_model):
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2, size=(4, 32))
    chan = fx.draw_channel("rayleigh", (4, 16), 20.0, rng)
    qm = fx.quantize_model(awgn_model, fx.make_qformat(16, 3))
    # engine=None runs the model's own engine: same bits and taps as naming it
    for model, engine in ((awgn_model, "float"), (qm, "fixed")):
        named, t_named = ae.end_to_end(model, bits, chan,
                                       np.random.default_rng(7), engine)
        own, t_own = ae.end_to_end(model, bits, chan,
                                   np.random.default_rng(7))
        assert np.array_equal(named, own)
        assert np.array_equal(t_named["rx_symbols"], t_own["rx_symbols"])
        for side in ("encoder_layers", "decoder_layers"):
            for a, b in zip(t_named[side], t_own[side], strict=True):
                assert np.array_equal(getattr(a, "raw", a),
                                      getattr(b, "raw", b))
    with pytest.raises(ValueError):
        ae.end_to_end(awgn_model, bits, chan, rng, engine="fixed")
    with pytest.raises(ValueError):
        ae.end_to_end(qm, bits, chan, rng, engine="float")
    with pytest.raises(ValueError):
        ae.end_to_end(awgn_model, bits, chan, rng, engine="warp")


def test_end_to_end_rejects_gain_length_before_drawing(awgn_model):
    rng = np.random.default_rng(18)
    bits = np.zeros((4, 32), dtype=np.int64)
    chan = fx.ChannelRealization(np.ones((4, 8), dtype=complex), 10.0)
    with pytest.raises(ValueError, match="gain length 8 != 16"):
        ae.end_to_end(awgn_model, bits, chan, rng)
    assert rng.integers(0, 2**62) == \
        np.random.default_rng(18).integers(0, 2**62)


def test_end_to_end_channel_is_apply_channel(awgn_model):
    # the codec's link runs the uncoded chain's channel stage: same gains,
    # same noise draw, bit for bit
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2, size=(6, 32))
    chan = fx.draw_channel("rayleigh", (6, 16), 10.0, rng)
    qm = fx.quantize_model(awgn_model, fx.make_qformat(16, 3))
    for model in (awgn_model, qm):
        _, taps = ae.end_to_end(model, bits, chan, np.random.default_rng(20),
                                equalize=False)
        want = ofdm.apply_channel(ofdm.to_complex(taps["encoded"]), chan,
                                  np.random.default_rng(20))
        assert np.array_equal(taps["dec_input"], ofdm.to_reals(want))


def test_model_rejects_mixed_formats(awgn_model):
    q16, q8 = fx.make_qformat(16, 3), fx.make_qformat(8, 3)
    enc16 = fx.quantize_model(awgn_model, q16).encoder
    for decoder, names in (
            (fx.quantize_model(awgn_model, q8).decoder, "Q16.3.*Q8.3"),
            (awgn_model.decoder, "Q16.3.*float64")):
        with pytest.raises(ValueError, match=names):
            ae.AutoencoderModel(enc16, decoder, awgn_model.ofdm)
    with pytest.raises(ValueError, match="float64.*Q16.3"):
        ae.AutoencoderModel(awgn_model.encoder,
                            fx.quantize_model(awgn_model, q16).decoder,
                            awgn_model.ofdm)


def test_fixed_32bit_matches_float_decisions(awgn_model, ofdm16):
    q32 = fx.make_qformat(32, 3)
    qm = fx.quantize_model(awgn_model, q32)
    rng = np.random.default_rng(15)
    bits = rng.integers(0, 2, size=(500, 32))
    chan = fx.draw_channel("rayleigh", (500, 16), 25.0, rng)
    out_f, _ = ae.end_to_end(awgn_model, bits, chan,
                             np.random.default_rng(99), engine="float")
    out_q, _ = ae.end_to_end(qm, bits, chan,
                             np.random.default_rng(99), engine="fixed")
    assert np.array_equal(out_f, out_q)


# ---------------------------------------------------------------------------
# range calibration
# ---------------------------------------------------------------------------

def test_calibration_preserves_function_and_bounds_taps(ofdm16):
    model = ae.build_model(ofdm16, 32, 5, seed=6)
    cfg = fx.TrainConfig(epochs=8, batches_per_epoch=50, seed=6)
    trained = ae.train(model, cfg, channel="rayleigh").model  # calibrated
    rng = np.random.default_rng(16)
    x = ae.random_block(300, ofdm16, rng).reals
    _, enc_taps = nn.forward_float(trained.encoder, x)
    assert all(np.abs(t).max() <= 8.0 for t in enc_taps)
    # scaling a relu layer by 2 and the next layer's weights by 1/2 keeps
    # the function; recalibrating moves the parameters, not the output
    scaled = ae.AutoencoderModel(trained.encoder.copy(),
                                 trained.decoder.copy(), trained.ofdm)
    first, second = scaled.encoder.layers[:2]
    first.w[...] *= 2.0
    first.b[...] *= 2.0
    second.w[...] *= 0.5
    recal = ae.calibrate_ranges(scaled, np.random.default_rng(17))
    assert not np.allclose(recal.encoder.params, scaled.encoder.params)
    y1, _ = noiseless_link(trained, x)
    y2, _ = noiseless_link(recal, x)
    assert np.allclose(y1, y2, atol=1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises(ofdm16):
    # Adam with an absurd step size reaches a NaN loss in epoch 1
    model = ae.build_model(ofdm16, 16, 3, seed=7)
    cfg = fx.TrainConfig(learning_rate=1e100, epochs=5,
                         batches_per_epoch=50, seed=7)
    with pytest.raises(ae.TrainingDiverged):
        ae.train(model, cfg, channel="awgn")


def test_symbol_block_consistency(ofdm16):
    rng = np.random.default_rng(18)
    blk = ae.random_block(5, ofdm16, rng)
    assert blk.bits.shape == (5, 32)
    assert blk.symbols.shape == (5, 16)
    assert np.array_equal(ofdm.qam4_demodulate(blk.symbols), blk.bits)
