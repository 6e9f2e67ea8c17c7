"""Parameter delivery: the payload shipped from training to endpoints.

A model artifact is a single file carrying everything an inference device
needs: architecture, link configuration, an optional declared Q-format
grid, and the float64 weights.  Weights are stored losslessly so one
artifact serves every bit-width study; quantization happens on load.  See
FORMAT.md for the byte-level layout.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autoencoder import AutoencoderModel
from .fixedpoint import BitAllocationError, QFormat, make_qformat, quantize
from .neuralnet import (FCNet, DenseLayer, layer_views, n_params,
                        quantize_net)
from .ofdmlink import OfdmConfig

MAGIC = b"FXLINK1\n"
VERSION = 1
_HASH_LEN = 32


class ArtifactError(ValueError):
    """Malformed or inconsistent artifact file."""


class ChecksumMismatch(ArtifactError):
    """Stored hash does not match file contents."""


class UnsupportedVersion(ArtifactError):
    pass


@dataclass
class ModelArtifact:
    header: dict
    payload: np.ndarray  # flat float64, little-endian on disk

    @classmethod
    def from_model(cls, model: AutoencoderModel,
                   training: dict | None = None) -> "ModelArtifact":
        header = {
            "version": VERSION,
            "encoder_dims": model.encoder.dims,
            "decoder_dims": model.decoder.dims,
            "encoder_activations": [l.activation for l in
                                    model.encoder.layers],
            "decoder_activations": [l.activation for l in
                                    model.decoder.layers],
            "rate": 1.0,
            "n_subcarriers": model.ofdm.n_subcarriers,
            "cp_len": model.ofdm.cp_len,
            "modulation": "qam4",
            "sample_rate": model.ofdm.sample_rate,
            "qformat": None,
            "training": training or {},
        }
        return cls(header, np.concatenate([model.encoder.params,
                                           model.decoder.params]))

    def to_model(self) -> AutoencoderModel:
        """The codec the artifact describes; ArtifactError if it is none."""
        h = self.header
        n_enc = n_params(h["encoder_dims"])

        def net(side, params):
            return FCNet([DenseLayer(w, b, act) for (w, b), act in
                          zip(layer_views(params, h[f"{side}_dims"]),
                              h[f"{side}_activations"])])

        try:
            if h["rate"] != 1.0 or h["modulation"] != "qam4":
                raise ValueError(f"rate {h['rate']!r} on {h['modulation']!r}"
                                 " is not the codec's rate 1.0 on qam4")
            return AutoencoderModel(
                net("encoder", self.payload[:n_enc]),
                net("decoder", self.payload[n_enc:]),
                OfdmConfig(h["n_subcarriers"], h["cp_len"],
                           h["sample_rate"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # every value here comes from the header
            raise ArtifactError(f"header describes no valid model: {exc!r}") \
                from exc


def _encode_header(header: dict) -> bytes:
    lines = [f"{k}: {json.dumps(header[k])}" for k in sorted(header)]
    return ("\n".join(lines) + "\n\n").encode("ascii")


def _decode_header(raw: bytes) -> dict:
    header = {}
    try:
        for line in raw.decode("ascii").strip("\n").split("\n"):
            key, sep, value = line.partition(": ")
            if not sep:
                raise ArtifactError(f"malformed header line {line!r}")
            if key in header:
                raise ArtifactError(f"header key {key!r} appears twice")
            header[key] = json.loads(value)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ArtifactError(f"malformed header: {exc}") from exc
    return header


def _header_qformat(h: dict) -> QFormat | None:
    """Header h's qformat: None, or a dict of two ints make_qformat takes."""
    q = h.get("qformat")
    if q is None:
        return None
    if not (type(q) is dict and q.keys() == {"total_bits", "int_bits"}
            and all(type(v) is int for v in q.values())):
        raise ArtifactError(f"qformat {q!r} is not null or "
                            '{"total_bits": int, "int_bits": int}')
    try:
        return make_qformat(q["total_bits"], q["int_bits"])
    except BitAllocationError as exc:
        raise ArtifactError(f"qformat {q!r}: {exc}") from exc


def _header_problems(h: dict, n_bytes: int) -> list[str]:
    """What keeps header h from describing a payload of n_bytes: dims
    that are not two or more positive ints with one activation per weight
    layer, a broken chain, the wrong payload size."""
    for side in ("encoder", "decoder"):
        dims, acts = h.get(f"{side}_dims"), h.get(f"{side}_activations")
        if not (type(dims) is list and len(dims) >= 2
                and all(type(d) is int and d > 0 for d in dims)
                and type(acts) is list and len(acts) == len(dims) - 1):
            return [f"{side}_dims/activations missing or mistyped"]
    bad = []
    enc, dec = h["encoder_dims"], h["decoder_dims"]
    if enc[-1] != dec[0]:
        bad.append("encoder output dim != decoder input dim")
    n = 8 * (n_params(enc) + n_params(dec))
    if n_bytes != n:
        bad.append(f"payload holds {n_bytes} bytes, dims require {n}")
    return bad


def save_model(model: AutoencoderModel, path,
               training: dict | None = None) -> ModelArtifact:
    """Serialize a model; returns the artifact that was written."""
    artifact = ModelArtifact.from_model(model, training)
    payload_bytes = artifact.payload.astype("<f8").tobytes()
    artifact.header["payload_sha256"] = hashlib.sha256(
        payload_bytes).hexdigest()
    body = MAGIC + _encode_header(artifact.header) + payload_bytes
    Path(path).write_bytes(body + hashlib.sha256(body).digest())
    return artifact


def load_artifact(path) -> ModelArtifact:
    """Read an artifact file and check its framing, both hashes, header
    and payload size, that the payload is finite, and that it lies on the
    grid of a declared qformat.  to_model checks that it builds a codec."""
    blob = Path(path).read_bytes()
    if not blob.startswith(MAGIC):
        raise ArtifactError("bad magic; not a model artifact")
    if len(blob) < len(MAGIC) + _HASH_LEN:
        raise ArtifactError("truncated artifact")
    body, file_hash = blob[:-_HASH_LEN], blob[-_HASH_LEN:]
    if hashlib.sha256(body).digest() != file_hash:
        raise ChecksumMismatch("whole-file hash mismatch")
    sep = body.find(b"\n\n", len(MAGIC))
    if sep < 0:
        raise ArtifactError("missing header terminator")
    header = _decode_header(body[len(MAGIC):sep + 1])
    if header.get("version") != VERSION:
        raise UnsupportedVersion(
            f"artifact version {header.get('version')!r}; supported: "
            f"{VERSION}")
    payload_bytes = body[sep + 2:]
    if header.get("payload_sha256") != hashlib.sha256(
            payload_bytes).hexdigest():
        raise ChecksumMismatch("payload hash mismatch")
    q = _header_qformat(header)
    problems = _header_problems(header, len(payload_bytes))
    if problems:
        raise ArtifactError("; ".join(problems))
    payload = np.frombuffer(payload_bytes, dtype="<f8").astype(np.float64)
    if not np.isfinite(payload).all():
        raise ArtifactError("payload holds NaN or inf")
    if q is not None and (n_off := np.count_nonzero(
            quantize(payload, q).values != payload)):
        raise ArtifactError(f"payload values off the declared {q} grid: "
                            f"{n_off}")
    return ModelArtifact(header, payload)


def load_model(path) -> AutoencoderModel:
    return load_artifact(path).to_model()


def quantize_model(model: AutoencoderModel, q: QFormat) -> AutoencoderModel:
    """The codec with every weight and bias snapped onto q's grid: two
    QuantizedNets, each counting its saturated parameters (not fatal)."""
    return AutoencoderModel(quantize_net(model.encoder, q),
                            quantize_net(model.decoder, q),
                            model.ofdm)
