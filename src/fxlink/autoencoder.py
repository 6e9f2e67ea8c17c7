"""Neural encoder/decoder wrapped around the OFDM chain.

The chain runs on interleaved reals: N complex symbols are the 2N float64
values [re0, im0, re1, im1, ...] that both networks read and write, and
ofdmlink.to_complex/to_reals reinterpret that memory as symbols for the
channel and ZF, without a copy.  The transmit side modulates bits to 4-QAM
symbols, feeds their reals to the encoder network and normalizes the
encoded block to unit average power per complex sample.  The channel
stage is ofdmlink.apply_channel, the one the uncoded reference chain
(metrics.ber_sweep with model=None) runs too; it acts per subcarrier
(y_k = h_k x_k + noise), so the unitary IFFT -> CP -> CP removal -> FFT
round trip of an OFDM symbol is the identity and is not run.  The receive
side optionally zero-forces the known gains and runs the decoder network;
decisions are per-axis signs of its output.

Training, range calibration and inference all run this one chain
(_link); the layer-error report (metrics.layer_error_report) runs its
networks and normalization on the noiseless unit-gain link, where the
channel is the identity.
Training runs the chain in float with fresh channel gains and noise per
sample; gradients treat the gains and the noise draw as constants and
propagate through the (linear) channel and ZF via their adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neuralnet as nn
from . import ofdmlink as ofdm
from .neuralnet import FCNet, QuantizedNet, TrainConfig
from .ofdmlink import OfdmConfig


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class SymbolBlock:
    """One information block: source bits and their modulated symbols."""

    bits: np.ndarray
    symbols: np.ndarray

    @property
    def reals(self) -> np.ndarray:
        return ofdm.to_reals(self.symbols)


@dataclass
class AutoencoderModel:
    """Encoder/decoder pair around the OFDM link: float64 FCNets, or
    QuantizedNets on one Q-format grid (paramdelivery.quantize_model).
    fmt and engine say which, and the link runs that forward pass; a pair
    on two formats, float and fixed included, raises ValueError."""

    encoder: FCNet | QuantizedNet
    decoder: FCNet | QuantizedNet
    ofdm: OfdmConfig

    def __post_init__(self):
        d = 2 * self.ofdm.n_subcarriers
        for side, net in (("encoder", self.encoder),
                          ("decoder", self.decoder)):
            if net.dims[0] != d or net.dims[-1] != d:
                raise ValueError(
                    f"{side} must map {d} -> {d}, got {net.dims}")
        if self.encoder.fmt != self.decoder.fmt:
            raise ValueError(f"encoder at {self.encoder.fmt or 'float64'} "
                             "and decoder at "
                             f"{self.decoder.fmt or 'float64'} differ")

    @property
    def fmt(self):                  # the networks' QFormat; None for float
        return self.encoder.fmt

    @property
    def engine(self) -> str:
        return "float" if self.fmt is None else "fixed"


def build_model(ofdm_cfg: OfdmConfig, hidden_nodes: int = 128,
                total_layers: int = 5, seed: int = 0) -> AutoencoderModel:
    """Encoder+decoder pair totaling `total_layers` weight layers, each
    side mapping the block's 2N reals to 2N reals.

    Layers split as evenly as possible, encoder taking the extra one.
    A 1-weight-layer net is a plain affine map (no hidden nodes).
    """
    if total_layers < 2:
        raise ValueError("need at least one layer per side")
    if hidden_nodes < 1:
        raise ValueError("need at least one hidden node")
    n_enc = (total_layers + 1) // 2
    n_dec = total_layers - n_enc
    d = 2 * ofdm_cfg.n_subcarriers
    encoder = nn.init_he([d] + [hidden_nodes] * (n_enc - 1) + [d], seed=seed)
    decoder = nn.init_he([d] + [hidden_nodes] * (n_dec - 1) + [d],
                         seed=seed + 1)
    return AutoencoderModel(encoder, decoder, ofdm_cfg)


def random_block(n_blocks: int, ofdm_cfg: OfdmConfig,
                 rng: np.random.Generator) -> SymbolBlock:
    bits = rng.integers(0, 2, size=(n_blocks, ofdm_cfg.bits_per_block))
    return SymbolBlock(bits, ofdm.qam4_modulate(bits))


def _complex_power(x: np.ndarray) -> float:
    # interleaved reals: power per complex sample = 2 * mean(element^2);
    # np.add.reduce is the pairwise sum np.mean runs, without its wrapper
    return 2.0 * float(np.add.reduce(x * x, axis=None) / x.size)


def normalize_power(x: np.ndarray):
    """Scale a batch so its average power per complex sample is 1."""
    s = np.sqrt(_complex_power(x))
    if s == 0.0:
        raise ValueError("cannot normalize an all-zero batch")
    return x / s, s


# ---------------------------------------------------------------------------
# The link: one forward for training and inference
# ---------------------------------------------------------------------------

def _link(model, x0, chan, rng, equalize):
    """Encoder -> normalize_power -> ofdmlink.apply_channel -> optional ZF
    -> decoder, per subcarrier.

    The channel stage is the uncoded reference chain's: the realization
    chan's gains and noise, drawn from rng after the encoder, which draws
    nothing.  The networks run nn.forward_float for a float model and
    nn.forward_fixed for a quantized one.  Returns (decoder_out, taps).
    """
    # looked up on the module per call, so a wrapper installed there sees it
    fwd = nn.forward_float if model.fmt is None else nn.forward_fixed
    enc_out, enc_layers = fwd(model.encoder, x0)
    encoded, scale = normalize_power(enc_out)
    rx_freq = ofdm.apply_channel(ofdm.to_complex(encoded), chan, rng)
    if equalize:
        rx_freq = ofdm.equalize_zf(rx_freq, chan.h)
    dec_in = ofdm.to_reals(rx_freq)
    dec_out, dec_layers = fwd(model.decoder, dec_in)
    taps = {
        "encoded": encoded, "power_scale": scale, "dec_input": dec_in,
        "encoder_layers": enc_layers, "decoder_layers": dec_layers,
    }
    return dec_out, taps


def end_to_end(model, bits: np.ndarray,
               realization: ofdm.ChannelRealization,
               rng: np.random.Generator, engine: str | None = None,
               equalize: bool = True):
    """Run the full chain on a batch of bit blocks.

    The engine follows the model: 'float' for a float codec, 'fixed' for
    one from paramdelivery.quantize_model, whose networks run on the
    integer datapath while the non-network blocks (normalization, channel,
    ZF) stay float.  engine=None takes the model's; any other value must
    name it, or ValueError is raised.

    Returns (decoded_bits, taps); taps holds the tx/rx symbols, the encoded
    block, the decoder input and both networks' per-layer outputs.
    """
    if engine not in (None, model.engine):
        raise ValueError(f"engine {engine!r} does not run a "
                         f"{model.engine} model")

    bits = np.asarray(bits)
    single = bits.ndim == 1
    if single:
        bits = bits[None, :]
    if bits.shape[-1] != model.ofdm.bits_per_block:
        raise ValueError(
            f"expected {model.ofdm.bits_per_block} bits per block")
    tx_symbols = ofdm.qam4_modulate(bits)
    dec_out, taps = _link(model, ofdm.to_reals(tx_symbols), realization, rng,
                          equalize)
    rx_symbols = ofdm.to_complex(dec_out)
    decoded = ofdm.qam4_demodulate(rx_symbols)
    taps.update(tx_symbols=tx_symbols, rx_symbols=rx_symbols)
    if single:
        decoded = decoded[0]
    return decoded, taps


# ---------------------------------------------------------------------------
# Training (float only; quantization happens after delivery)
# ---------------------------------------------------------------------------

def chain_loss_and_grads(model, x0, chan, rng, equalize=True):
    """Loss and exact parameter gradients through the whole link.

    The gains chan.h and the noise drawn from rng are treated as
    constants, so this matches finite differences of the loss at fixed
    gains and noise (an rng in the same state for every evaluation).
    Returns (loss, enc_grads, dec_grads), each laid out like its params.
    """
    r_hat, taps = _link(model, x0, chan, rng, equalize)
    diff = r_hat - x0
    batch_loss = float(np.mean(diff ** 2))
    dec_grads, g_dec_in = nn._backward_from(
        model.decoder, taps["dec_input"], taps["decoder_layers"],
        2.0 * diff / diff.size)
    # real-interleaved gradient -> complex convention (d/dRe + j d/dIm)
    g_c = ofdm.to_complex(g_dec_in)
    h_conj = np.conj(chan.h)
    if equalize:                        # adjoint of y/h is ZF by conj(h)
        g_c = ofdm.equalize_zf(g_c, h_conj)
    g_encoded = ofdm.to_reals(h_conj * g_c)     # channel y = h*x + eps

    # adjoint of x/s with s = sqrt(c * sum(x^2)), c = 2/size
    enc_out = taps["encoder_layers"][-1]
    s = taps["power_scale"]
    c = 2.0 / enc_out.size
    g_enc_out = g_encoded / s \
        - enc_out * (c * np.sum(g_encoded * enc_out) / s ** 3)
    enc_grads, _ = nn._backward_from(model.encoder, x0,
                                     taps["encoder_layers"], g_enc_out)
    return batch_loss, enc_grads, dec_grads


def calibrate_ranges(model: AutoencoderModel,
                     rng: np.random.Generator) -> AutoencoderModel:
    """Rebalance per-layer scales so activations fit a fixed-point range.

    Relu is positively homogeneous, so scaling a layer's (W, b) by g and
    the next layer's W by 1/g leaves the network function unchanged; the
    power normalization absorbs the encoder's output scale.  Each hidden
    tap is scaled so its 99.9th |activation| percentile over 2000 random
    blocks sits at 4 (percentile rather than max: wider layers would
    otherwise be governed by their outliers), keeping the fixed-point
    datapath clear of saturation without touching what the float network
    computes.  The decoder's final layer is left alone (its output is the
    reconstruction).
    """
    model = AutoencoderModel(model.encoder.copy(), model.decoder.copy(),
                             model.ofdm)
    block = random_block(2000, model.ofdm, rng)

    def rebalance(net, taps, skip_last):
        g_prev = 1.0
        for i, layer in enumerate(net.layers):
            if skip_last and i == len(net.layers) - 1:
                g = 1.0
            else:
                peak = float(np.percentile(np.abs(taps[i]), 99.9))
                g = 4.0 / peak if peak > 0 else 1.0
            layer.w[...] *= g / g_prev
            layer.b[...] *= g
            g_prev = g

    rebalance(model.encoder, nn.forward_float(model.encoder, block.reals)[1],
              skip_last=False)
    # the decoder's taps on the noiseless unit-gain link, drawing nothing
    unit = ofdm.draw_channel("awgn", model.ofdm.n_subcarriers, np.inf, rng)
    _, taps = _link(model, block.reals, unit, rng, False)
    rebalance(model.decoder, taps["decoder_layers"], skip_last=True)
    return model


@dataclass
class TrainResult:
    model: AutoencoderModel
    loss_history: list[float]


def train(model: AutoencoderModel, cfg: TrainConfig, channel: str = "awgn",
          equalize: bool | None = None,
          rng: np.random.Generator | None = None) -> TrainResult:
    """Joint training of encoder and decoder with the channel in the loop.

    Each batch draws fresh bits, gains, per-block SNR uniform over
    cfg.snr_range_db, and noise.  Deterministic for a given cfg.seed when
    no explicit rng is supplied.  Raises TrainingDiverged on NaN loss.
    The returned model has been range-calibrated (see calibrate_ranges)
    so it is ready for fixed-point delivery.
    """
    if equalize is None:
        equalize = channel == "rayleigh"
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    model = AutoencoderModel(model.encoder.copy(), model.decoder.copy(),
                             model.ofdm)
    enc_state = dec_state = None
    history = []
    n_tx = model.ofdm.n_subcarriers
    lo, hi = cfg.snr_range_db
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for _ in range(cfg.batches_per_epoch):
            block = random_block(cfg.batch_size, model.ofdm, rng)
            x0 = block.reals
            h = ofdm.draw_channel(channel, (cfg.batch_size, n_tx), 0.0,
                                  rng).h
            snr = rng.uniform(lo, hi, size=(cfg.batch_size, 1))
            batch_loss, enc_g, dec_g = chain_loss_and_grads(
                model, x0, ofdm.ChannelRealization(h, snr), rng, equalize)
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"loss became {batch_loss} at epoch {len(history) + 1}")
            enc_state = nn.optimizer_step(model.encoder.params, enc_g,
                                          enc_state, cfg)
            dec_state = nn.optimizer_step(model.decoder.params, dec_g,
                                          dec_state, cfg)
            epoch_loss += batch_loss
        history.append(epoch_loss / cfg.batches_per_epoch)
    return TrainResult(calibrate_ranges(model, rng), history)
