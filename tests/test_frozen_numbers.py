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
* the bytes of save_model, and of latency.csv for C8's dims.

Float training depends on the BLAS and is left out.  A change that moves a
value on purpose updates it here, and `python tests/test_frozen_numbers.py`
prints the current table to paste in.
"""

import hashlib

import numpy as np
import pytest

import fxlink as fx
from fxlink import autoencoder as ae
from fxlink import metrics as mx
from fxlink import neuralnet as nn

FORMATS = [fx.make_qformat(t, i) for t, i in
           ((8, 0), (8, 3), (16, 3), (24, 3), (32, 3), (32, 29))]
BER_FORMATS = [fx.make_qformat(t, 3) for t in (16, 24, 32)]
SNRS_DB = (10.0, 30.0)
BER_BITS = 512 * 32                 # one Monte-Carlo chunk per point
LATENCY_DIMS = [32, 512, 512, 32, 512, 32]
STREAM_FORMATS = [fx.make_qformat(t, 3) for t in (16, 32)]
STREAM_BLOCKS = 64
STREAM_SNR_DB = 10.0


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
        out[f"saturated.{q}"] = qm.saturated_params
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
                                     seed=7, equalize=eq)
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
}


@pytest.fixture(scope="module")
def model():
    return he_codec()


def check(values):
    want = {k: FROZEN[k] for k in values}
    assert values == want


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


if __name__ == "__main__":
    import pathlib
    import tempfile

    m = he_codec()
    with tempfile.TemporaryDirectory() as d:
        table = {**codec_values(m), **tap_values(m), **ber_values(m),
                 **stream_values(m),
                 **file_values(m, pathlib.Path(d))}
    for k, v in table.items():
        print(f"    {k!r}: {v!r},")
