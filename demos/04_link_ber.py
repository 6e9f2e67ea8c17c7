#!/usr/bin/env python3
"""Link-level BER: float vs fixed-point codec over fading channels.

Three measurements on one trained codec:
  * uncoded 4-QAM/OFDM baseline with zero-forcing (no networks)
  * the trained codec in float and in Q16.3 fixed point (Rayleigh + ZF)
  * the depth effect on a flat-fading block channel with no equalizer,
    where an affine 2-layer codec cannot infer the channel but a 5-layer
    one can
"""

import numpy as np

import fxlink as fx
from fxlink import autoencoder as ae
from fxlink import metrics as mx

ofdm = fx.OfdmConfig()
snrs = [20.0, 25.0, 30.0]

print("training the 5-layer reference codec (128 nodes) ...")
model = ae.build_model(ofdm, hidden_nodes=128, total_layers=5, seed=0)
cfg = fx.TrainConfig(epochs=60, batches_per_epoch=200, seed=0,
                     snr_range_db=(5.0, 25.0))
model = ae.train(model, cfg, channel="rayleigh", equalize=True).model
qmodel = fx.quantize_model(model, fx.make_qformat(16, 3))

uncoded = mx.ber_sweep(None, "float", "rayleigh", snrs, 100_000, 2_000_000,
                       np.random.default_rng(1))
flt = mx.ber_sweep(model, "float", "rayleigh", snrs, 100_000, 2_000_000,
                   np.random.default_rng(2))
fxd = mx.ber_sweep(qmodel, "fixed", "rayleigh", snrs, 100_000, 2_000_000,
                   np.random.default_rng(2))

print(f"\nRayleigh + ZF {'SNR':>6} {'uncoded':>12} {'float':>12} "
      f"{'fixed Q16.3':>12}")
for pu, pf, pq in zip(uncoded.points, flt.points, fxd.points):
    print(f"{'':>13}{pu.snr_db:>5.0f} {pu.ber:>12.3e} {pf.ber:>12.3e} "
          f"{pq.ber:>12.3e}")
print("16-bit quantization costs almost nothing at the link level.")

print("\ntraining 2-layer and 5-layer codecs on flat block fading "
      "(no equalizer) ...")
print(f"{'layers':>7} {'BER@25':>12} {'BER@30':>12}")
for layers in (2, 5):
    m = ae.build_model(ofdm, hidden_nodes=128, total_layers=layers, seed=1)
    c = fx.TrainConfig(epochs=60, batches_per_epoch=200, seed=1,
                       snr_range_db=(5.0, 25.0))
    m = ae.train(m, c, channel="rayleigh_block", equalize=False).model
    curve = mx.ber_sweep(m, "float", "rayleigh_block", [25.0, 30.0],
                         100_000, 2_000_000, np.random.default_rng(3),
                         equalize=False)
    print(f"{layers:>7} {curve.points[0].ber:>12.3e} "
          f"{curve.points[1].ber:>12.3e}")
print("Without channel knowledge the affine codec is at chance; depth "
      "buys an implicit channel estimator.")
