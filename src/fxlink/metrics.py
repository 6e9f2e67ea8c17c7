"""Measurements on the trained link: implementation error, BER, latency.

Implementation error is reported as relative RMS in percent (error RMS
normalized by reference-signal RMS), tracked per network layer so the
accumulation through the stack is visible.  BER curves come from early-
stopping Monte-Carlo over the end-to-end chain.  The latency model is a
time-multiplexed MAC array per layer: ceil(in*out/P) + D cycles, checked
against one OFDM symbol duration.
"""

from __future__ import annotations

import csv
import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import autoencoder as ae
from . import neuralnet as nn
from . import ofdmlink as ofdm
from .autoencoder import AutoencoderModel
from .fixedpoint import QFormat, make_qformat
from .neuralnet import TrainConfig
from .ofdmlink import OfdmConfig
from .paramdelivery import quantize_model

CSV_SCHEMAS = {
    "layer_error.csv": ["model_id", "bit_width", "layer_idx", "rel_rms_pct",
                        "n_samples"],
    "ber.csv": ["model_id", "engine", "channel", "snr_db", "ber", "bits",
                "errors"],
    "sweep.csv": ["axis", "value", "seed", "final_rms_pct", "ber_ref"],
    "latency.csv": ["layer_idx", "macs", "cycles", "time_us", "budget_us",
                    "pass"],
    "loss.csv": ["epoch", "loss"],
    # the `fxlink report` tables fig5.csv, fig6a.csv and fig6b.csv
    "fig*.csv": ["value", "mean_final_rms_pct", "mean_ber_ref", "n_seeds"],
}


def relative_rms(ref: np.ndarray, test: np.ndarray) -> float:
    """100 * rms(test - ref) / rms(ref); scale-invariant error measure."""
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.shape != test.shape or ref.size == 0:
        raise ValueError(f"shape mismatch {ref.shape} vs {test.shape}")
    ref_rms = np.sqrt(np.mean(ref ** 2))
    if ref_rms == 0.0:
        raise ValueError("reference signal is identically zero")
    return 100.0 * float(np.sqrt(np.mean((test - ref) ** 2)) / ref_rms)


def evm(ref_symbols: np.ndarray, test_symbols: np.ndarray) -> float:
    """Error vector magnitude in percent over complex symbols: the
    relative RMS of their interleaved re/im reals."""
    return relative_rms(ofdm.to_reals(ref_symbols),
                        ofdm.to_reals(test_symbols))


# ---------------------------------------------------------------------------
# Per-layer implementation error
# ---------------------------------------------------------------------------

@dataclass
class LayerErrorReport:
    rel_rms_pct: list[float]      # encoder layers then decoder layers;
                                  # NaN where the float tap is all zeros
    bit_width: int
    int_bits: int
    model_id: str
    n_samples: int

    @property
    def first_layer(self) -> float:
        return self.rel_rms_pct[0]

    @property
    def final_layer(self) -> float:
        return self.rel_rms_pct[-1]


def model_id(model) -> str:
    """Stack dims and rate, plus the Q-format of a quantized model."""
    mid = "fc" + "-".join(str(d) for d in stack_dims(model)) \
        + f"_r{model.rate:g}"
    if model.fmt is not None:
        mid += f"_{model.fmt}"
    return mid


def layer_error_report(model: AutoencoderModel, q: QFormat, n_samples: int,
                       rng: np.random.Generator,
                       qmodel: AutoencoderModel | None = None
                       ) -> LayerErrorReport:
    """Float vs fixed per-layer relative RMS on shared random blocks.

    model is the float codec and qmodel its quantization at q
    (quantize_model(model, q) when None); a qmodel at another format
    raises ValueError, so the report names the format it measured.  The
    same modulated blocks run through both, each on its own engine, over a
    noiseless unit-gain link without ZF, so the decoder sees the
    normalized encoder output in both cases; each layer tap is compared.
    A tap whose float reference is identically zero (a dead layer) has no
    relative error and reads NaN.

    The networks run on even chunks of at most _MC_CHUNK_BLOCKS blocks and
    only each tap's sums of ref^2 and (test - ref)^2 are kept, so memory
    beyond the blocks themselves and the [n, encoded_dim] encoder outputs
    is bounded by one chunk's taps.  The power scale is still one per
    engine over the whole batch, as the link applies it, and that link is
    the identity here, so the decoders run straight on the normalized
    encoder outputs.  Every tap then equals the one the link computes on
    the full batch: chunks are even because a few-row remainder would
    take the BLAS's small-matrix path, whose float sums round differently.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if qmodel is None:
        qmodel = quantize_model(model, q)
    if qmodel.fmt != q:
        raise ValueError(f"qmodel is at {qmodel.fmt}, not {q}")
    x0 = ae.random_block(n_samples, model.ofdm, rng).reals
    n_enc = len(model.encoder.layers)
    ref_ss = np.zeros(n_enc + len(model.decoder.layers))
    err_ss = np.zeros_like(ref_ss)
    n_chunks = -(-n_samples // _MC_CHUNK_BLOCKS)
    edges = [n_samples * i // n_chunks for i in range(n_chunks + 1)]

    def run(f_net, q_net, f_in, q_in, k0):
        """Both nets chunk by chunk, summing into taps k0...; returns
        their outputs."""
        f_out = np.empty((n_samples, f_net.dims[-1]))
        q_out = np.empty_like(f_out)
        for rows in map(slice, edges[:-1], edges[1:]):
            f_out[rows], f_taps = nn.forward_float(f_net, f_in[rows])
            q_out[rows], q_taps = nn.forward_fixed(q_net, q_in[rows])
            for k, (f, t) in enumerate(zip(f_taps, q_taps), k0):
                d = t.raw * t.fmt.step - f      # exact, as t.values is
                ref_ss[k] += np.vdot(f, f)
                err_ss[k] += np.vdot(d, d)
        return f_out, q_out

    f_enc, q_enc = run(model.encoder, qmodel.encoder, x0, x0, 0)
    f_enc, _ = ae.normalize_power(f_enc)
    q_enc, _ = ae.normalize_power(q_enc)
    run(model.decoder, qmodel.decoder, f_enc, q_enc, n_enc)
    errors = np.divide(100.0 * np.sqrt(err_ss), np.sqrt(ref_ss),
                       out=np.full_like(ref_ss, np.nan), where=ref_ss > 0)
    return LayerErrorReport(errors.tolist(), q.total_bits, q.int_bits,
                            model_id(model), n_samples)


# ---------------------------------------------------------------------------
# BER Monte-Carlo
# ---------------------------------------------------------------------------

@dataclass
class BerPoint:
    snr_db: float
    ber: float
    bits: int
    errors: int


@dataclass
class BerCurve:
    points: list[BerPoint]
    channel: str
    engine: str
    model_id: str


_MC_CHUNK_BLOCKS = 512
_MC_TARGET_ERRORS = 100


def check_ber_budget(min_bits: int, max_bits: int) -> None:
    """The Monte-Carlo budget rule: at least 10,000 bits per point, and a
    cap no lower than that."""
    if not 10_000 <= min_bits <= max_bits:
        raise ValueError(f"need 10,000 <= min_bits <= max_bits per point, "
                         f"got {min_bits} and {max_bits}")


def ber_sweep(model, engine: str, channel: str, snr_list,
              min_bits: int = 100_000, max_bits: int = 2_000_000,
              rng: np.random.Generator | None = None, seed: int = 0,
              equalize: bool = True) -> BerCurve:
    """Monte-Carlo BER over the end-to-end chain.

    Each SNR point accumulates blocks until at least 100 bit errors have
    been seen and min_bits simulated, or max_bits is reached.  model=None
    runs the uncoded reference chain: 4-QAM straight onto the subcarriers,
    no networks.  equalize selects ZF before the decoder, or before the
    4-QAM decisions of the uncoded chain.
    """
    check_ber_budget(min_bits, max_bits)
    if rng is None:
        rng = np.random.default_rng(seed)
    uncoded = model is None
    if uncoded:
        cfg = OfdmConfig()
        mid = "uncoded"
        n_tx = cfg.n_subcarriers
    else:
        cfg = model.ofdm
        mid = model_id(model)
        n_tx = model.n_tx_subcarriers
    points = []
    for snr_db in snr_list:
        bits_done = 0
        errors = 0
        while bits_done < max_bits and (errors < _MC_TARGET_ERRORS
                                        or bits_done < min_bits):
            n_blocks = min(_MC_CHUNK_BLOCKS,
                           (max_bits - bits_done) // cfg.bits_per_block)
            n_blocks = max(n_blocks, 1)
            chan = ofdm.draw_channel(channel, (n_blocks, n_tx), snr_db, rng)
            tx_bits = rng.integers(0, 2, size=(n_blocks, cfg.bits_per_block))
            if uncoded:
                rx_bits = _uncoded_chain(tx_bits, chan, rng, equalize)
            else:
                rx_bits, _ = ae.end_to_end(model, tx_bits, chan, rng,
                                           engine=engine, equalize=equalize)
            errors += int(np.sum(rx_bits != tx_bits))
            bits_done += tx_bits.size
        points.append(BerPoint(float(snr_db), errors / bits_done, bits_done,
                               errors))
    return BerCurve(points, channel, engine, mid)


def _uncoded_chain(tx_bits, chan, rng, equalize):
    """Plain 4-QAM OFDM without the neural codec, ZF optional."""
    rx_freq = ofdm.apply_channel(ofdm.qam4_modulate(tx_bits), chan, rng)
    if equalize:
        rx_freq = ofdm.equalize_zf(rx_freq, chan.h)
    return ofdm.qam4_demodulate(rx_freq)


def qpsk_awgn_ber_theory(ebn0_db: float) -> float:
    """Closed-form uncoded QPSK bit error rate, Q(sqrt(2*snr)).

    The argument is per-bit SNR (Eb/N0); 4-QAM carries 2 bits per unit-
    power symbol, so symbol SNR is 3.01 dB above this value.
    """
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return 0.5 * math.erfc(math.sqrt(2.0 * ebn0) / math.sqrt(2.0))


def ebn0_to_symbol_snr_db(ebn0_db: float, bits_per_symbol: int = 2) -> float:
    return ebn0_db + 10.0 * math.log10(bits_per_symbol)


# ---------------------------------------------------------------------------
# Latency budget
# ---------------------------------------------------------------------------

@dataclass
class LayerLatency:
    layer_idx: int
    in_dim: int
    out_dim: int
    macs: int
    cycles: int
    time_us: float
    ok: bool


@dataclass
class LatencyEstimate:
    layers: list[LayerLatency]
    symbol_duration_us: float

    @property
    def all_pass(self) -> bool:
        return all(l.ok for l in self.layers)


def estimate_latency(dims, parallel_macs: int, pipeline_depth: int,
                     f_clk: float, ofdm_cfg: OfdmConfig) -> LatencyEstimate:
    """Cycle-exact latency of each dense layer on a MAC array.

    cycles = ceil(in*out / P) + D; a layer passes when its time at f_clk
    is under one OFDM symbol duration (N + CP samples).  The pass check
    cross-multiplies integers so no floating-point rounding is involved.
    """
    if parallel_macs < 1 or pipeline_depth < 0 or f_clk <= 0:
        raise ValueError("need parallel_macs >= 1, pipeline_depth >= 0, "
                         "f_clk > 0")
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError("dims needs at least one layer and no dim below 1")
    n_samples = ofdm_cfg.n_subcarriers + ofdm_cfg.cp_len
    layers = []
    for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        macs = din * dout
        cycles = -(-macs // parallel_macs) + pipeline_depth
        time_us = cycles / f_clk * 1e6
        ok = cycles * ofdm_cfg.sample_rate < n_samples * f_clk
        layers.append(LayerLatency(i, din, dout, macs, cycles, time_us, ok))
    return LatencyEstimate(layers, ofdm_cfg.symbol_duration * 1e6)


def stack_dims(model) -> list[int]:
    """Dimension chain of the full encoder+decoder pipeline (float or
    quantized model)."""
    return model.encoder.dims + model.decoder.dims[1:]


# ---------------------------------------------------------------------------
# Structure sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("bit_width", "hidden_nodes", "n_layers")


@dataclass
class SweepSpec:
    axis: str
    values: list
    seeds: list[int]
    ofdm: OfdmConfig = field(default_factory=OfdmConfig)
    hidden_nodes: int = 128
    n_layers: int = 5
    rate: float = 1.0
    train: TrainConfig = field(default_factory=TrainConfig)
    channel: str = "rayleigh"
    equalize: bool = True
    qformat: QFormat = field(default_factory=lambda: make_qformat(16, 3))
    ref_snr_db: float = 30.0
    rms_samples: int = 2000
    ber_min_bits: int = 100_000
    ber_max_bits: int = 1_000_000

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}")
        if not self.values:
            raise ValueError("values must be non-empty")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.channel not in ofdm.CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.channel!r}")
        ae.encoded_dim(self.ofdm, self.rate)        # checks the rate
        check_ber_budget(self.ber_min_bits, self.ber_max_bits)
        if self.rms_samples < 1:
            raise ValueError("rms_samples must be at least 1")
        # the base model and every point, before run_sweep trains for any
        shapes = [("the base model", self.hidden_nodes, self.n_layers)] + [
            (f"{self.axis} = {v}", *self._point(v)[:2]) for v in self.values]
        for where, hidden, layers in shapes:
            if hidden < 1 or layers < 2:
                raise ValueError(f"{where}: a model needs at least one "
                                 "hidden node and one layer per side")

    def _point(self, value) -> tuple[int, int, QFormat]:
        """(hidden_nodes, n_layers, qformat) of the model at one axis value."""
        if self.axis == "hidden_nodes":
            return int(value), self.n_layers, self.qformat
        if self.axis == "n_layers":
            return self.hidden_nodes, int(value), self.qformat
        return (self.hidden_nodes, self.n_layers,
                make_qformat(int(value), self.qformat.int_bits))


@dataclass
class SweepRow:
    axis: str
    value: object
    seed: int
    final_rms_pct: float
    ber_ref: float


def run_sweep(spec: SweepSpec, rng: np.random.Generator
              ) -> Iterator[SweepRow]:
    """Yield one row per (axis value, seed) as it finishes: final-layer
    RMS + BER at the reference SNR, each point drawing its layer-error
    and BER streams from rng.

    bit_width sweeps reuse a single trained model per seed and vary the
    Q-format (fixed-engine BER); hidden_nodes and n_layers train one model
    per value and report float-engine BER.  write_sweep_csv writes the
    rows to sweep.csv as they come.
    """
    @functools.cache
    def trained(hidden: int, layers: int, seed: int) -> AutoencoderModel:
        model = ae.build_model(spec.ofdm, hidden, layers, spec.rate,
                               seed=seed)
        return ae.train(model, replace(spec.train, seed=seed), spec.channel,
                        spec.equalize).model

    for value in spec.values:
        for seed in spec.seeds:
            hidden, layers, q = spec._point(value)
            model = trained(hidden, layers, seed)
            qmodel = quantize_model(model, q)
            report = layer_error_report(
                model, q, spec.rms_samples,
                np.random.default_rng(rng.integers(2 ** 63)), qmodel)
            ber_model = qmodel if spec.axis == "bit_width" else model
            curve = ber_sweep(
                ber_model, ber_model.engine, spec.channel,
                [spec.ref_snr_db], spec.ber_min_bits, spec.ber_max_bits,
                np.random.default_rng(rng.integers(2 ** 63)),
                equalize=spec.equalize)
            yield SweepRow(spec.axis, value, seed, report.final_layer,
                           curve.points[0].ber)


# ---------------------------------------------------------------------------
# CSV writers (stable column order per CSV_SCHEMAS)
# ---------------------------------------------------------------------------

def write_csv(path, schema: str, rows: Iterable) -> int:
    """Write CSV_SCHEMAS[schema] as the header, then each row, flushed as
    it is written, so a run cut short leaves every finished row on disk.
    Returns the number of rows."""
    n = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_SCHEMAS[schema])
        for n, row in enumerate(rows, 1):
            w.writerow(row)
            fh.flush()
    return n


def write_layer_error_csv(path, reports: list[LayerErrorReport]) -> int:
    return write_csv(path, "layer_error.csv", (
        [rep.model_id, rep.bit_width, idx, f"{val:.10g}", rep.n_samples]
        for rep in reports for idx, val in enumerate(rep.rel_rms_pct)))


def write_ber_csv(path, curves: list[BerCurve]) -> int:
    return write_csv(path, "ber.csv", (
        [c.model_id, c.engine, c.channel, f"{p.snr_db:.10g}",
         f"{p.ber:.10g}", p.bits, p.errors]
        for c in curves for p in c.points))


def write_latency_csv(path, est: LatencyEstimate) -> int:
    return write_csv(path, "latency.csv", (
        [l.layer_idx, l.macs, l.cycles, f"{l.time_us:.10g}",
         f"{est.symbol_duration_us:.10g}", int(l.ok)] for l in est.layers))


def write_sweep_csv(path, rows: Iterable[SweepRow]) -> int:
    return write_csv(path, "sweep.csv", (
        [r.axis, r.value, r.seed, f"{r.final_rms_pct:.10g}",
         f"{r.ber_ref:.10g}"] for r in rows))
