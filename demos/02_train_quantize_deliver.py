#!/usr/bin/env python3
"""Train at the learning center, deliver parameters, verify at the endpoint.

Trains a small encoder/decoder pair over an equalized Rayleigh channel,
writes the weights to a checksummed artifact file, and reloads it at the
endpoint, where `load_artifact` is the verification: it rejects a file
whose hashes, header, payload size or values break FORMAT.md.  Then it
quantizes the parameters at several widths the way an inference device
would.
"""

import tempfile
from pathlib import Path

import numpy as np

import fxlink as fx
from fxlink import autoencoder as ae

ofdm = fx.OfdmConfig()
print("link:", ofdm.n_subcarriers, "subcarriers, CP", ofdm.cp_len,
      f", {ofdm.bits_per_block} bits per block")

print("\ntraining a 5-layer, 64-node codec on equalized Rayleigh ...")
model = ae.build_model(ofdm, hidden_nodes=64, total_layers=5, seed=0)
cfg = fx.TrainConfig(epochs=40, batches_per_epoch=100, seed=0,
                     snr_range_db=(5.0, 25.0))
result = ae.train(model, cfg, channel="rayleigh", equalize=True)
print(f"epoch loss: {result.loss_history[0]:.4f} -> "
      f"{result.loss_history[-1]:.4f} over {cfg.epochs} epochs")

with tempfile.TemporaryDirectory(prefix="fxlink_demo_") as workdir:
    path = Path(workdir) / "model.fxl"
    fx.save_model(result.model, path, training={"channel": "rayleigh"})
    print(f"\nwrote {path} ({path.stat().st_size} bytes)")

    artifact = fx.load_artifact(path)   # raises ArtifactError if malformed
    loaded = artifact.to_model()
print("verified on load: both hashes, header and payload "
      f"(sha256 {artifact.header['payload_sha256'][:16]}...)")

same = all(np.array_equal(a.params, b.params) for a, b in (
    (result.model.encoder, loaded.encoder),
    (result.model.decoder, loaded.decoder)))
print("round trip bit-exact:", same)

print("\nquantizing the delivered parameters:")
print(f"{'format':>8} {'saturated':>10} {'max |w|':>10}")
for bits in (8, 16, 24):
    q = fx.make_qformat(bits, 3)
    qm = fx.quantize_model(loaded, q)
    peak = max(float(np.abs(l.w.values).max())
               for l in qm.encoder.layers + qm.decoder.layers)
    saturated = qm.encoder.saturated_params + qm.decoder.saturated_params
    print(f"{str(q):>8} {saturated:>10} {peak:>10.3f}")

print("\nThe artifact stores float64 weights, so one delivery serves every "
      "bit-width study; the endpoint quantizes on load.")
