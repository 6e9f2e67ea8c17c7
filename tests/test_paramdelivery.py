"""Artifact file format: round trips, corruption detection, quantization."""

import hashlib
import json

import numpy as np
import pytest

import fxlink as fx
from fxlink import autoencoder as ae
from fxlink.neuralnet import DenseLayer, FCNet, n_params
from fxlink.paramdelivery import (MAGIC, ArtifactError, ChecksumMismatch,
                                  ModelArtifact, UnsupportedVersion,
                                  load_artifact, load_model, quantize_model,
                                  save_model)

Q16 = fx.make_qformat(16, 3)


def fresh_model(seed=0, hidden=24, layers=5):
    return ae.build_model(fx.OfdmConfig(), hidden, layers, seed=seed)


# A small valid artifact to mutate: 8 -> 8 -> 8 encoder, 8 -> 8 decoder
_SMALL = ModelArtifact.from_model(
    ae.build_model(fx.OfdmConfig(n_subcarriers=4, cp_len=1), 8, 3, seed=0))
BASE_HEADER = _SMALL.header
BASE_PAYLOAD = _SMALL.payload.astype("<f8").tobytes()


def head_text(header: dict) -> bytes:
    return "".join(f"{k}: {json.dumps(v)}\n"
                   for k, v in sorted(header.items())).encode()


def seal(head: bytes, payload: bytes) -> bytes:
    """An artifact file of header lines and payload, both hashes fresh."""
    digest = hashlib.sha256(payload).hexdigest()
    body = MAGIC + f'payload_sha256: "{digest}"\n'.encode() + head \
        + b"\n" + payload
    return body + hashlib.sha256(body).digest()


NAN = np.array(np.nan, dtype="<f8").tobytes()
INF = np.array(np.inf, dtype="<f8").tobytes()

# Each case maps (header, payload) to the (header lines, payload) of a
# malformed artifact whose hashes are then re-sealed.
MALFORMED = {
    "payload_not_whole_values": lambda h, p: (head_text(h), p[:-3]),
    "no_encoder_dims": lambda h, p: (
        head_text({k: v for k, v in h.items() if k != "encoder_dims"}), p),
    "dims_as_string": lambda h, p: (
        head_text({**h, "encoder_dims": "8,8,8"}), p),
    "negative_dims": lambda h, p: (
        head_text({**h, "encoder_dims": [8, -8, 8]}), p),
    "huge_dims": lambda h, p: (
        head_text({**h, "decoder_dims": [8, 2 ** 62]}), p),
    "bad_json": lambda h, p: (head_text(h) + b"rate: {\n", p),
    "deep_json": lambda h, p: (
        head_text(h) + b"training: " + b"[" * 10 ** 5 + b"]" * 10 ** 5
        + b"\n", p),
    "non_ascii_header": lambda h, p: (
        head_text(h) + b'modulation: "qam\xe9"\n', p),
    "no_n_subcarriers": lambda h, p: (
        head_text({k: v for k, v in h.items() if k != "n_subcarriers"}), p),
    "rate_as_string": lambda h, p: (head_text({**h, "rate": "1"}), p),
    "unknown_activation": lambda h, p: (
        head_text({**h, "encoder_activations": ["relu", "tanh"]}), p),
    "rate_does_not_fit_dims": lambda h, p: (head_text({**h, "rate": 0.5}), p),
    # 8 -> 16 holds as many values as 8 -> 8 -> 8, but 16 != 8
    "dims_chain_broken": lambda h, p: (
        head_text({**h, "encoder_dims": [8, 16],
                   "encoder_activations": ["linear"]}), p),
    "qformat_as_string": lambda h, p: (head_text({**h, "qformat": "abc"}), p),
    "qformat_as_list": lambda h, p: (head_text({**h, "qformat": [16, 3]}), p),
    "qformat_no_int_bits": lambda h, p: (
        head_text({**h, "qformat": {"total_bits": 16}}), p),
    "qformat_float_bits": lambda h, p: (
        head_text({**h, "qformat": {"total_bits": 16.0, "int_bits": 3}}), p),
    "qformat_99_bits": lambda h, p: (
        head_text({**h, "qformat": {"total_bits": 99, "int_bits": 3}}), p),
    "empty_payload": lambda h, p: (head_text(h), b""),
    "nan_payload_value": lambda h, p: (head_text(h), p[:8] + NAN + p[16:]),
    "inf_payload_value": lambda h, p: (head_text(h), p[:-8] + INF),
    # He weights are not multiples of Q16.3's step
    "payload_off_declared_grid": lambda h, p: (
        head_text({**h, "qformat": {"total_bits": 16, "int_bits": 3}}), p),
}


def test_save_load_roundtrip_bit_exact(tmp_path):
    model = fresh_model(3)
    path = tmp_path / "m.fxl"
    save_model(model, path, training={"note": "unit"})
    assert load_artifact(path).header["qformat"] is None
    loaded = load_model(path)
    for la, lb in zip(model.encoder.layers + model.decoder.layers,
                      loaded.encoder.layers + loaded.decoder.layers):
        assert np.array_equal(la.w, lb.w)
        assert np.array_equal(la.b, lb.b)
        assert la.activation == lb.activation
    assert loaded.ofdm == model.ofdm
    assert loaded.rate == model.rate


def test_save_is_byte_deterministic(tmp_path):
    model = fresh_model(4)
    a, b = tmp_path / "a.fxl", tmp_path / "b.fxl"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_corrupted_payload_byte_detected(tmp_path):
    model = fresh_model(5)
    path = tmp_path / "m.fxl"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF    # flip a payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        load_artifact(path)


def test_header_dim_mismatch_detected(tmp_path):
    model = fresh_model(6)
    path = tmp_path / "m.fxl"
    save_model(model, path)
    raw = path.read_bytes()
    # hand-edit a dimension, then re-seal both hashes so only the
    # dims/payload inconsistency remains
    import hashlib
    import json
    body = raw[:-32]
    sep = body.find(b"\n\n", 8)
    header_lines = body[8:sep].decode().split("\n")
    edited = []
    for line in header_lines:
        key, _, value = line.partition(": ")
        if key == "encoder_dims":
            dims = json.loads(value)
            dims[1] += 1
            value = json.dumps(dims)
        edited.append(f"{key}: {value}")
    new_body = b"FXLINK1\n" + ("\n".join(edited) + "\n\n").encode() \
        + body[sep + 2:]
    path.write_bytes(new_body + hashlib.sha256(new_body).digest())
    with pytest.raises(ArtifactError):
        load_artifact(path)


def test_bad_magic_and_version(tmp_path):
    import hashlib
    path = tmp_path / "m.fxl"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ArtifactError):
        load_artifact(path)
    model = fresh_model(7)
    save_model(model, path)
    body = path.read_bytes()[:-32].replace(b"version: 1", b"version: 99")
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(UnsupportedVersion):
        load_artifact(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_artifact(tmp_path / "nope.fxl")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact_raises_artifact_error(tmp_path, case):
    path = tmp_path / "m.fxl"
    path.write_bytes(seal(head_text(BASE_HEADER), BASE_PAYLOAD))
    load_artifact(path).to_model()      # the re-sealed original is valid
    path.write_bytes(seal(*MALFORMED[case](BASE_HEADER, BASE_PAYLOAD)))
    with pytest.raises(ArtifactError):
        load_artifact(path).to_model()


# ---------------------------------------------------------------------------
# payload layout
# ---------------------------------------------------------------------------

def test_payload_is_encoder_then_decoder_params():
    model = fresh_model(15)
    payload = ModelArtifact.from_model(model).payload
    assert np.array_equal(payload, np.concatenate([model.encoder.params,
                                                   model.decoder.params]))
    # the FORMAT.md order, layer by layer
    want = np.concatenate([a.ravel() for net in (model.encoder,
                                                 model.decoder)
                           for l in net.layers for a in (l.w, l.b)])
    assert np.array_equal(payload, want)


def test_layer_write_reaches_params_and_payload():
    model = fresh_model(16)
    layer = model.decoder.layers[1]
    layer.w[2, 3] = 0.625
    layer.b[1] = -1.5
    dims = model.decoder.dims
    at_w = n_params(dims[:2]) + 2 * dims[1] + 3
    at_b = n_params(dims[:3]) - dims[2] + 1
    assert model.decoder.params[at_w] == 0.625
    assert model.decoder.params[at_b] == -1.5
    payload = ModelArtifact.from_model(model).payload
    n_enc = model.encoder.params.size
    assert payload[n_enc + at_w] == 0.625
    assert payload[n_enc + at_b] == -1.5


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_quantize_on_grid_model_unchanged():
    model = fresh_model(8)
    for net in (model.encoder, model.decoder):
        net.params[...] = fx.quantize(net.params, Q16).values
    qm = quantize_model(model, Q16)
    # one codec type: the quantized codec is an AutoencoderModel too
    assert isinstance(qm, ae.AutoencoderModel)
    assert qm.fmt == Q16 and qm.engine == "fixed"
    assert model.fmt is None and model.engine == "float"
    assert qm.encoder.saturated_params + qm.decoder.saturated_params == 0
    for ql, fl in zip(qm.encoder.layers, model.encoder.layers):
        assert np.array_equal(ql.w.values, fl.w)


def test_quantize_saturation_reported():
    model = fresh_model(9)
    model.encoder.layers[0].w[0, 0] = 9.3
    qm = quantize_model(model, Q16)
    assert qm.encoder.saturated_params + qm.decoder.saturated_params >= 1
    assert qm.encoder.layers[0].w.values[0, 0] == 7.999755859375


def snap(qnet):
    """The float network of a quantized one's grid values."""
    return FCNet([DenseLayer(l.w.values, l.b.values, l.activation)
                  for l in qnet.layers])


def save_on_q16_grid(model, path):
    """Write model as an artifact whose header declares Q16's grid."""
    art = ModelArtifact.from_model(model)
    head = head_text({**art.header, "qformat": {"total_bits": 16,
                                                "int_bits": 3}})
    path.write_bytes(seal(head, art.payload.astype("<f8").tobytes()))


def test_quantize_idempotent(tmp_path):
    model = fresh_model(10)
    qm = quantize_model(model, Q16)
    back = ae.AutoencoderModel(snap(qm.encoder), snap(qm.decoder),
                               model.ofdm, model.rate)
    qm2 = quantize_model(back, Q16)
    assert qm2.encoder.saturated_params + qm2.decoder.saturated_params == 0
    for a, b in zip(qm.encoder.layers, qm2.encoder.layers):
        assert np.array_equal(a.w.raw, b.w.raw)
        assert np.array_equal(a.b.raw, b.b.raw)
    path = tmp_path / "m.fxl"
    save_on_q16_grid(back, path)
    load_artifact(path)
    back.encoder.layers[0].w[0, 0] = 16.0   # a multiple of the step, too big
    save_on_q16_grid(back, path)
    with pytest.raises(ArtifactError, match="declared Q16.3 grid: 1$"):
        load_artifact(path)


def test_no_saturation_when_params_in_range():
    model = fresh_model(11)
    peak = max(float(np.abs(arr).max())
               for net in (model.encoder, model.decoder)
               for layer in net.layers for arr in (layer.w, layer.b))
    assert peak < Q16.max_value
    qm = quantize_model(model, Q16)
    assert qm.encoder.saturated_params + qm.decoder.saturated_params == 0


def test_quantize_32bit_forward_close_to_float(awgn_model):
    q32 = fx.make_qformat(32, 3)
    qm = quantize_model(awgn_model, q32)
    rng = np.random.default_rng(20)
    x = ae.random_block(100, awgn_model.ofdm, rng).reals
    from fxlink.neuralnet import forward_fixed, forward_float
    yf, _ = forward_float(awgn_model.encoder, x)
    yq, _ = forward_fixed(qm.encoder, x)
    rel = np.sqrt(np.mean((yq - yf) ** 2) / np.mean(yf ** 2))
    assert rel <= 1e-5


# ---------------------------------------------------------------------------
# declared grid
# ---------------------------------------------------------------------------

def test_load_rejects_values_off_declared_grid(tmp_path):
    model = fresh_model(13)
    qm = quantize_model(model, Q16)
    snapped = ae.AutoencoderModel(snap(qm.encoder), snap(qm.decoder),
                                  model.ofdm, model.rate)
    path = tmp_path / "m.fxl"
    save_on_q16_grid(snapped, path)
    assert load_artifact(path).header["qformat"] == {"total_bits": 16,
                                                     "int_bits": 3}

    snapped.encoder.params[7] += Q16.step / 3   # off the step
    snapped.encoder.params[8] = -16.0           # on the step, below range
    save_on_q16_grid(snapped, path)
    with pytest.raises(ArtifactError, match="declared Q16.3 grid: 2$"):
        load_artifact(path)


def n_off_grid(values: np.ndarray, q) -> int:
    """The grid rule spelled out: how many values are not exactly on q's
    grid and in its range."""
    raw = np.rint(values * q.scale)
    return int(np.sum((raw * q.step != values) | (raw < q.raw_min)
                      | (raw > q.raw_max)))


@pytest.mark.parametrize("bits, int_bits", [(8, 0), (16, 3), (32, 29)])
def test_declared_grid_edge_cases_follow_the_rule(tmp_path, bits, int_bits):
    q = fx.make_qformat(bits, int_bits)
    lo, hi, step = q.min_value, q.max_value, q.step
    edges = [lo - step / 2, hi + step / 2, lo - step, hi + step, lo, hi,
             0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, step / 2]
    head = head_text({**BASE_HEADER, "qformat": {"total_bits": bits,
                                                 "int_bits": int_bits}})
    path = tmp_path / "m.fxl"
    for values in [[v] for v in edges] + [edges]:
        payload = np.zeros(_SMALL.payload.size)
        payload[:len(values)] = values
        path.write_bytes(seal(head, payload.astype("<f8").tobytes()))
        n_off = n_off_grid(payload, q)
        if n_off:
            with pytest.raises(ArtifactError,
                               match=f"declared {q} grid: {n_off}$"):
                load_artifact(path)
        else:
            assert load_artifact(path).payload.tobytes() == payload.tobytes()
    assert n_off == 9
