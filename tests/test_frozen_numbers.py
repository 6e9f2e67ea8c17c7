"""Numbers the library must keep producing, frozen as sha256 digests and
counts.

Only what is exact on any IEEE-754 machine with this numpy is frozen:

* the He-initialized 128x5 codec (rng draws only, no BLAS);
* its quantized raws and saturated_params at six Q-formats;
* every forward_fixed tap, at batch 1 and at batch 7, for Gaussian and for
  saturating inputs;
* fixed-engine and uncoded ber_sweep bits and errors at 10 and 30 dB, with
  and without ZF, on every channel kind;
* the decoded bits and rx_symbols of fixed-engine end_to_end run one block
  at a time on Rayleigh and AWGN at 10 dB, and of one noiseless batch;
* the bytes of save_model, and of latency.csv for C8's dims;
* every setting `fxlink train` and `fxlink sweep` resolve from the
  checked-in configs and from an empty INI file.

Float training depends on the BLAS, so only the CLI's tiny runs are
frozen with it: the loss.csv, payload and `training` header of `fxlink
train` and the sweep.csv of `fxlink sweep`, with and without --seed.
These hold for one BLAS and thread count; the rest holds on any machine.
A change that moves a value on purpose updates it here, and `python
tests/test_frozen_numbers.py` prints the current table to paste in.
"""

import hashlib
import inspect
import os
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import fxlink as fx
from fxlink import autoencoder as ae
from fxlink import cli
from fxlink import metrics as mx
from fxlink import neuralnet as nn
from test_cli import SWEEP_CONFIG, TINY_CONFIG

FORMATS = [fx.make_qformat(t, i) for t, i in
           ((8, 0), (8, 3), (16, 3), (24, 3), (32, 3), (32, 29))]
BER_FORMATS = [fx.make_qformat(t, 3) for t in (16, 24, 32)]
SNRS_DB = (10.0, 30.0)
BER_BITS = 512 * 32                 # one Monte-Carlo chunk per point
LATENCY_DIMS = [32, 512, 512, 32, 512, 32]
STREAM_FORMATS = [fx.make_qformat(t, 3) for t in (16, 32)]
STREAM_BLOCKS = 64
STREAM_SNR_DB = 10.0
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def he_codec():
    return ae.build_model(fx.OfdmConfig(), 128, 5, seed=0)


def codec_values(model):
    out = {"he.params": digest(model.encoder.params, model.decoder.params)}
    for q in FORMATS:
        qm = fx.quantize_model(model, q)
        out[f"raws.{q}"] = digest(*[a.raw for net in (qm.encoder, qm.decoder)
                                    for l in net.layers for a in (l.w, l.b)])
        out[f"saturated.{q}"] = (qm.encoder.saturated_params
                                 + qm.decoder.saturated_params)
    return out


def tap_values(model):
    out = {}
    rng = np.random.default_rng(2024)
    inputs = {}
    for net in ("encoder", "decoder"):
        n_in = getattr(model, net).dims[0]
        inputs[net, "gauss"] = rng.normal(size=(7, n_in))
        inputs[net, "sat"] = rng.choice([-1.0, 1.0], (7, n_in)) * 2.0 ** 40
    for q in FORMATS:
        qm = fx.quantize_model(model, q)
        for kind in ("gauss", "sat"):
            for batch in (1, 7):
                taps = []
                for net in ("encoder", "decoder"):
                    x = inputs[net, kind]
                    _, per_layer = nn.forward_fixed(
                        getattr(qm, net), x[0] if batch == 1 else x)
                    taps += [t.raw for t in per_layer]
                out[f"taps.{q}.{kind}.b{batch}"] = digest(*taps)
    return out


def ber_values(model):
    out = {}
    engines = [("uncoded", None)] + [(str(q), fx.quantize_model(model, q))
                                     for q in BER_FORMATS]
    for name, m in engines:
        for channel in fx.CHANNEL_KINDS:
            for eq in (True, False):
                curve = mx.ber_sweep(m, "float" if m is None else "fixed",
                                     channel, SNRS_DB, BER_BITS, BER_BITS,
                                     np.random.default_rng(7), equalize=eq)
                out[f"ber.{name}.{channel}.zf{int(eq)}"] = tuple(
                    v for p in curve.points for v in (p.bits, p.errors))
    return out


def stream_values(model):
    out = {}
    n_sc = model.ofdm.n_subcarriers

    def draw(channel, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(STREAM_BLOCKS, 2 * n_sc))
        h = fx.draw_channel(channel, (STREAM_BLOCKS, n_sc), STREAM_SNR_DB,
                            rng).h
        return bits, h, rng

    for q in STREAM_FORMATS:
        qm = fx.quantize_model(model, q)
        for channel in ("rayleigh", "awgn"):
            bits, h, rng = draw(channel, 5)
            decoded, rx = [], []
            for b, g in zip(bits, h):
                d, taps = ae.end_to_end(
                    qm, b, fx.ChannelRealization(g, STREAM_SNR_DB), rng,
                    engine="fixed")
                decoded.append(d)
                rx.append(taps["rx_symbols"])
            out[f"stream.{q}.{channel}"] = digest(np.stack(decoded),
                                                  np.stack(rx))
        bits, h, rng = draw("rayleigh", 6)
        d, taps = ae.end_to_end(qm, bits, fx.ChannelRealization(h, np.inf),
                                rng, engine="fixed")
        out[f"stream.{q}.noiseless_batch"] = digest(d, taps["rx_symbols"])
    return out


def file_values(model, tmp_path):
    fx.save_model(model, tmp_path / "he.fxl")
    est = mx.estimate_latency(LATENCY_DIMS, 512, 4, 100e6, fx.OfdmConfig())
    mx.write_latency_csv(tmp_path / "latency.csv", est)
    return {name: hashlib.sha256((tmp_path / name).read_bytes())
            .hexdigest()[:16] for name in ("he.fxl", "latency.csv")}


class Resolved(Exception):
    """Raised in place of the work a CLI command hands its settings to."""


def bound(fn, call) -> dict:
    args = inspect.signature(fn).bind(*call.args, **call.kwargs)
    args.apply_defaults()
    return args.arguments


def flat(prefix, tree) -> dict:
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(flat(f"{prefix}.{key}", value))
        else:
            out[f"{prefix}.{key}"] = value
    return out


def first_draw(rng) -> int:
    return int(rng.integers(2 ** 63))


def config_values(tmp_path):
    """What `train` passes to build_model and train, and what `sweep`
    passes to run_sweep, for each checked-in config and an empty one."""
    (tmp_path / "empty.ini").write_text("")
    inis = sorted(CONFIGS.glob("*.ini")) + [tmp_path / "empty.ini"]
    out = {}
    cwd = os.getcwd()
    os.chdir(tmp_path)                  # relative [output] dirs land here
    try:
        for ini in inis:
            with mock.patch.object(ae, "build_model",
                                   wraps=ae.build_model) as build, \
                    mock.patch.object(ae, "train",
                                      side_effect=Resolved) as train, \
                    mock.patch.object(mx, "run_sweep",
                                      side_effect=Resolved) as sweep:
                for command in ("train", "sweep"):
                    with pytest.raises(Resolved):
                        cli.main([command, "--config", str(ini)])
            b = bound(ae.build_model, build.call_args)
            t = bound(ae.train, train.call_args)
            s = bound(mx.run_sweep, sweep.call_args)
            out.update(flat(f"config.{ini.stem}", {
                "train": {"ofdm": asdict(b["ofdm_cfg"]),
                          "hidden_nodes": b["hidden_nodes"],
                          "total_layers": b["total_layers"],
                          "model_seed": b["seed"],
                          "cfg": asdict(t["cfg"]), "channel": t["channel"],
                          "equalize": t["equalize"],
                          "rng": first_draw(t["rng"])},
                "sweep": {**asdict(s["spec"]), "rng": first_draw(s["rng"])},
            }))
    finally:
        os.chdir(cwd)
    return out


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def cli_run_values(tmp_path):
    """Outputs of `fxlink train` and `fxlink sweep` on test_cli's tiny
    configs, with the config's seed and with --seed."""
    out = {}
    for command, text, seed in (("train", TINY_CONFIG, 5),
                                ("sweep", SWEEP_CONFIG, 4)):
        for argv in ([], ["--seed", str(seed)]):
            tag = f"cli.{command}.{'seed' + str(seed) if argv else 'cfg'}"
            run_dir = tmp_path / tag
            run_dir.mkdir()
            ini = run_dir / "run.ini"
            ini.write_text(text.format(out=run_dir))
            assert cli.main([command, "--config", str(ini)] + argv) == 0
            if command == "sweep":
                out[f"{tag}.sweep.csv"] = sha(run_dir / "sweep.csv")
                continue
            header = fx.load_artifact(run_dir / "model.fxl").header
            out[f"{tag}.loss.csv"] = sha(run_dir / "loss.csv")
            out[f"{tag}.payload_sha256"] = header["payload_sha256"][:16]
            out.update(flat(f"{tag}.training", header["training"]))
    return out


FROZEN = {
    'he.params': 'fae61bc77e74836e',
    'raws.Q8.0': '2d7ef8828afd00ba',
    'saturated.Q8.0': 0,
    'raws.Q8.3': 'b7e3fc34eafdc0e2',
    'saturated.Q8.3': 0,
    'raws.Q16.3': '5eabe624d93c9c49',
    'saturated.Q16.3': 0,
    'raws.Q24.3': '18a9b2c26d077549',
    'saturated.Q24.3': 0,
    'raws.Q32.3': 'eb33f6ef6af4ec64',
    'saturated.Q32.3': 0,
    'raws.Q32.29': 'f1684d422b552ef9',
    'saturated.Q32.29': 0,
    'taps.Q8.0.gauss.b1': 'c2c2e0707b67a8cf',
    'taps.Q8.0.gauss.b7': '65a1eb91f880e5b5',
    'taps.Q8.0.sat.b1': 'f4d1f60aff37b518',
    'taps.Q8.0.sat.b7': 'fba75f2355dcc0f7',
    'taps.Q8.3.gauss.b1': '62aa6a688c2755f9',
    'taps.Q8.3.gauss.b7': 'b3fd602085a620ed',
    'taps.Q8.3.sat.b1': '2081593689bdd5e0',
    'taps.Q8.3.sat.b7': 'd8ac9384c0234277',
    'taps.Q16.3.gauss.b1': '0d466c6fa3be9e1a',
    'taps.Q16.3.gauss.b7': 'ea1b4ea2d5fd3649',
    'taps.Q16.3.sat.b1': '825b42d9d026506d',
    'taps.Q16.3.sat.b7': 'aa4b5995df7f2d47',
    'taps.Q24.3.gauss.b1': '768a3513672a7e77',
    'taps.Q24.3.gauss.b7': '69877496cbbd21c1',
    'taps.Q24.3.sat.b1': 'e92a70b074ac32de',
    'taps.Q24.3.sat.b7': '63644b96d5997674',
    'taps.Q32.3.gauss.b1': '980f5ef5f2eb8459',
    'taps.Q32.3.gauss.b7': '937526c7a8590a7a',
    'taps.Q32.3.sat.b1': 'cbd19cef2722c1a6',
    'taps.Q32.3.sat.b7': '28fe0411cc1e916b',
    'taps.Q32.29.gauss.b1': 'e586c12d9f37f47e',
    'taps.Q32.29.gauss.b7': 'ff21b0e0d85b943d',
    'taps.Q32.29.sat.b1': '30b2553853cfa860',
    'taps.Q32.29.sat.b7': 'bab85b757a34b21c',
    'ber.uncoded.awgn.zf1': (16384, 15, 16384, 0),
    'ber.uncoded.awgn.zf0': (16384, 15, 16384, 0),
    'ber.uncoded.rayleigh.zf1': (16384, 733, 16384, 13),
    'ber.uncoded.rayleigh.zf0': (16384, 8281, 16384, 8102),
    'ber.uncoded.rayleigh_block.zf1': (16384, 887, 16384, 8),
    'ber.uncoded.rayleigh_block.zf0': (16384, 9059, 16384, 8092),
    'ber.Q16.3.awgn.zf1': (16384, 8144, 16384, 7968),
    'ber.Q16.3.awgn.zf0': (16384, 8144, 16384, 7968),
    'ber.Q16.3.rayleigh.zf1': (16384, 8061, 16384, 8101),
    'ber.Q16.3.rayleigh.zf0': (16384, 8116, 16384, 8111),
    'ber.Q16.3.rayleigh_block.zf1': (16384, 8031, 16384, 8110),
    'ber.Q16.3.rayleigh_block.zf0': (16384, 8193, 16384, 8235),
    'ber.Q24.3.awgn.zf1': (16384, 8144, 16384, 7965),
    'ber.Q24.3.awgn.zf0': (16384, 8144, 16384, 7965),
    'ber.Q24.3.rayleigh.zf1': (16384, 8060, 16384, 8103),
    'ber.Q24.3.rayleigh.zf0': (16384, 8117, 16384, 8112),
    'ber.Q24.3.rayleigh_block.zf1': (16384, 8032, 16384, 8111),
    'ber.Q24.3.rayleigh_block.zf0': (16384, 8193, 16384, 8235),
    'ber.Q32.3.awgn.zf1': (16384, 8144, 16384, 7965),
    'ber.Q32.3.awgn.zf0': (16384, 8144, 16384, 7965),
    'ber.Q32.3.rayleigh.zf1': (16384, 8060, 16384, 8103),
    'ber.Q32.3.rayleigh.zf0': (16384, 8117, 16384, 8112),
    'ber.Q32.3.rayleigh_block.zf1': (16384, 8032, 16384, 8111),
    'ber.Q32.3.rayleigh_block.zf0': (16384, 8193, 16384, 8235),
    'stream.Q16.3.rayleigh': '5ce80448810c35c1',
    'stream.Q16.3.awgn': 'cb62d952c5faf6c9',
    'stream.Q16.3.noiseless_batch': '9243981572823a35',
    'stream.Q32.3.rayleigh': 'cfd840fb8b6ae75a',
    'stream.Q32.3.awgn': '8a20d04488e8d5ba',
    'stream.Q32.3.noiseless_batch': '9dd993b393facef5',
    'he.fxl': '02c052ee78f26e1a',
    'latency.csv': 'b16524797a5897a2',
    'config.reference.train.ofdm.n_subcarriers': 16,
    'config.reference.train.ofdm.cp_len': 4,
    'config.reference.train.ofdm.sample_rate': 1000000.0,
    'config.reference.train.hidden_nodes': 128,
    'config.reference.train.total_layers': 5,
    'config.reference.train.model_seed': 0,
    'config.reference.train.cfg.learning_rate': 0.001,
    'config.reference.train.cfg.batch_size': 64,
    'config.reference.train.cfg.epochs': 100,
    'config.reference.train.cfg.batches_per_epoch': 200,
    'config.reference.train.cfg.seed': 0,
    'config.reference.train.cfg.snr_range_db': (5.0, 25.0),
    'config.reference.train.channel': 'rayleigh',
    'config.reference.train.equalize': True,
    'config.reference.train.rng': 8697063857760222071,
    'config.reference.sweep.axis': 'bit_width',
    'config.reference.sweep.values': [8, 16, 24],
    'config.reference.sweep.seeds': [0],
    'config.reference.sweep.ofdm.n_subcarriers': 16,
    'config.reference.sweep.ofdm.cp_len': 4,
    'config.reference.sweep.ofdm.sample_rate': 1000000.0,
    'config.reference.sweep.hidden_nodes': 128,
    'config.reference.sweep.n_layers': 5,
    'config.reference.sweep.train.learning_rate': 0.001,
    'config.reference.sweep.train.batch_size': 64,
    'config.reference.sweep.train.epochs': 100,
    'config.reference.sweep.train.batches_per_epoch': 200,
    'config.reference.sweep.train.seed': 0,
    'config.reference.sweep.train.snr_range_db': (5.0, 25.0),
    'config.reference.sweep.channel': 'rayleigh',
    'config.reference.sweep.equalize': True,
    'config.reference.sweep.qformat.total_bits': 16,
    'config.reference.sweep.qformat.int_bits': 3,
    'config.reference.sweep.qformat.frac_bits': 12,
    'config.reference.sweep.ref_snr_db': 30.0,
    'config.reference.sweep.rms_samples': 2000,
    'config.reference.sweep.ber_min_bits': 100000,
    'config.reference.sweep.ber_max_bits': 1000000,
    'config.reference.sweep.rng': 7731686665370224177,
    'config.sweep_bitwidth.train.ofdm.n_subcarriers': 16,
    'config.sweep_bitwidth.train.ofdm.cp_len': 4,
    'config.sweep_bitwidth.train.ofdm.sample_rate': 1000000.0,
    'config.sweep_bitwidth.train.hidden_nodes': 128,
    'config.sweep_bitwidth.train.total_layers': 5,
    'config.sweep_bitwidth.train.model_seed': 0,
    'config.sweep_bitwidth.train.cfg.learning_rate': 0.001,
    'config.sweep_bitwidth.train.cfg.batch_size': 64,
    'config.sweep_bitwidth.train.cfg.epochs': 60,
    'config.sweep_bitwidth.train.cfg.batches_per_epoch': 200,
    'config.sweep_bitwidth.train.cfg.seed': 0,
    'config.sweep_bitwidth.train.cfg.snr_range_db': (5.0, 25.0),
    'config.sweep_bitwidth.train.channel': 'rayleigh',
    'config.sweep_bitwidth.train.equalize': True,
    'config.sweep_bitwidth.train.rng': 8697063857760222071,
    'config.sweep_bitwidth.sweep.axis': 'bit_width',
    'config.sweep_bitwidth.sweep.values': [8, 16, 24],
    'config.sweep_bitwidth.sweep.seeds': [0, 1, 2],
    'config.sweep_bitwidth.sweep.ofdm.n_subcarriers': 16,
    'config.sweep_bitwidth.sweep.ofdm.cp_len': 4,
    'config.sweep_bitwidth.sweep.ofdm.sample_rate': 1000000.0,
    'config.sweep_bitwidth.sweep.hidden_nodes': 128,
    'config.sweep_bitwidth.sweep.n_layers': 5,
    'config.sweep_bitwidth.sweep.train.learning_rate': 0.001,
    'config.sweep_bitwidth.sweep.train.batch_size': 64,
    'config.sweep_bitwidth.sweep.train.epochs': 60,
    'config.sweep_bitwidth.sweep.train.batches_per_epoch': 200,
    'config.sweep_bitwidth.sweep.train.seed': 0,
    'config.sweep_bitwidth.sweep.train.snr_range_db': (5.0, 25.0),
    'config.sweep_bitwidth.sweep.channel': 'rayleigh',
    'config.sweep_bitwidth.sweep.equalize': True,
    'config.sweep_bitwidth.sweep.qformat.total_bits': 16,
    'config.sweep_bitwidth.sweep.qformat.int_bits': 3,
    'config.sweep_bitwidth.sweep.qformat.frac_bits': 12,
    'config.sweep_bitwidth.sweep.ref_snr_db': 30.0,
    'config.sweep_bitwidth.sweep.rms_samples': 2000,
    'config.sweep_bitwidth.sweep.ber_min_bits': 100000,
    'config.sweep_bitwidth.sweep.ber_max_bits': 400000,
    'config.sweep_bitwidth.sweep.rng': 7731686665370224177,
    'config.empty.train.ofdm.n_subcarriers': 16,
    'config.empty.train.ofdm.cp_len': 4,
    'config.empty.train.ofdm.sample_rate': 1000000.0,
    'config.empty.train.hidden_nodes': 128,
    'config.empty.train.total_layers': 5,
    'config.empty.train.model_seed': 0,
    'config.empty.train.cfg.learning_rate': 0.001,
    'config.empty.train.cfg.batch_size': 64,
    'config.empty.train.cfg.epochs': 100,
    'config.empty.train.cfg.batches_per_epoch': 200,
    'config.empty.train.cfg.seed': 0,
    'config.empty.train.cfg.snr_range_db': (5.0, 25.0),
    'config.empty.train.channel': 'rayleigh',
    'config.empty.train.equalize': True,
    'config.empty.train.rng': 8697063857760222071,
    'config.empty.sweep.axis': 'bit_width',
    'config.empty.sweep.values': [8, 16, 24],
    'config.empty.sweep.seeds': [0],
    'config.empty.sweep.ofdm.n_subcarriers': 16,
    'config.empty.sweep.ofdm.cp_len': 4,
    'config.empty.sweep.ofdm.sample_rate': 1000000.0,
    'config.empty.sweep.hidden_nodes': 128,
    'config.empty.sweep.n_layers': 5,
    'config.empty.sweep.train.learning_rate': 0.001,
    'config.empty.sweep.train.batch_size': 64,
    'config.empty.sweep.train.epochs': 100,
    'config.empty.sweep.train.batches_per_epoch': 200,
    'config.empty.sweep.train.seed': 0,
    'config.empty.sweep.train.snr_range_db': (5.0, 25.0),
    'config.empty.sweep.channel': 'rayleigh',
    'config.empty.sweep.equalize': True,
    'config.empty.sweep.qformat.total_bits': 16,
    'config.empty.sweep.qformat.int_bits': 3,
    'config.empty.sweep.qformat.frac_bits': 12,
    'config.empty.sweep.ref_snr_db': 30.0,
    'config.empty.sweep.rms_samples': 2000,
    'config.empty.sweep.ber_min_bits': 100000,
    'config.empty.sweep.ber_max_bits': 1000000,
    'config.empty.sweep.rng': 7731686665370224177,
    'cli.train.cfg.loss.csv': '17fcb4a2e9f1b6ec',
    'cli.train.cfg.payload_sha256': '06b73697eee1e395',
    'cli.train.cfg.training.channel': 'awgn',
    'cli.train.cfg.training.equalize': False,
    'cli.train.cfg.training.seed': 3,
    'cli.train.cfg.training.epochs': 2,
    'cli.train.cfg.training.learning_rate': 0.001,
    'cli.train.cfg.training.batch_size': 64,
    'cli.train.cfg.training.batches_per_epoch': 10,
    'cli.train.cfg.training.snr_range_db': [5.0, 25.0],
    'cli.train.cfg.training.final_loss': 1.297019157496838,
    'cli.train.seed5.loss.csv': 'fcff19355c7e9b54',
    'cli.train.seed5.payload_sha256': '6e3dab5f10b550dc',
    'cli.train.seed5.training.channel': 'awgn',
    'cli.train.seed5.training.equalize': False,
    'cli.train.seed5.training.seed': 5,
    'cli.train.seed5.training.epochs': 2,
    'cli.train.seed5.training.learning_rate': 0.001,
    'cli.train.seed5.training.batch_size': 64,
    'cli.train.seed5.training.batches_per_epoch': 10,
    'cli.train.seed5.training.snr_range_db': [5.0, 25.0],
    'cli.train.seed5.training.final_loss': 1.2286026080630243,
    'cli.sweep.cfg.sweep.csv': '591f0d769e292e56',
    'cli.sweep.seed4.sweep.csv': '07ba1b9c0dc5ceed',
}


@pytest.fixture(scope="module")
def model():
    return he_codec()


def check(values, typed=False):
    want = {k: FROZEN[k] for k in values}
    assert values == want
    if typed:                           # 1 == 1.0 == True above
        assert ({k: type(v) for k, v in values.items()}
                == {k: type(v) for k, v in want.items()})


def test_he_codec_and_quantized_raws(model):
    check(codec_values(model))


def test_forward_fixed_taps(model):
    check(tap_values(model))


def test_ber_counts(model):
    check(ber_values(model))


def test_batch1_stream(model):
    check(stream_values(model))


def test_artifact_and_latency_bytes(model, tmp_path):
    check(file_values(model, tmp_path))


def test_cli_resolved_config(tmp_path):
    check(config_values(tmp_path), typed=True)


def test_cli_train_and_sweep_outputs(tmp_path):
    check(cli_run_values(tmp_path), typed=True)


if __name__ == "__main__":
    import contextlib
    import sys
    import tempfile

    m = he_codec()
    with tempfile.TemporaryDirectory() as d, \
            contextlib.redirect_stdout(sys.stderr):   # the CLI's messages
        d = Path(d)
        for sub in ("files", "configs", "runs"):
            (d / sub).mkdir()
        table = {**codec_values(m), **tap_values(m), **ber_values(m),
                 **stream_values(m), **file_values(m, d / "files"),
                 **config_values(d / "configs"),
                 **cli_run_values(d / "runs")}
    for k, v in table.items():
        print(f"    {k!r}: {v!r},")
