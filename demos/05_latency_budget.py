#!/usr/bin/env python3
"""Per-layer MAC-array latency against the OFDM symbol duration.

Each dense layer needs in*out multiply-accumulates.  With P parallel MAC
units and a D-stage pipeline a layer takes ceil(in*out/P) + D cycles; for
real-time operation every layer must finish inside one OFDM symbol
((N + CP) / sample_rate).  Cycle counts are exact integers.
"""

import fxlink as fx
from fxlink import metrics as mx

ofdm = fx.OfdmConfig(n_subcarriers=16, cp_len=4, sample_rate=1e6)
dims = [32, 512, 512, 32, 512, 32]   # encoder 3 layers + decoder 2 layers
f_clk = 100e6

print(f"stack dims: {dims}")
print(f"clock {f_clk/1e6:g} MHz, OFDM symbol "
      f"{ofdm.symbol_duration * 1e6:g} us "
      f"({ofdm.n_subcarriers}+{ofdm.cp_len} samples at "
      f"{ofdm.sample_rate/1e6:g} MHz)\n")

for P in (512, 64, 1):
    est = mx.estimate_latency(dims, P, 4, f_clk, ofdm)
    print(f"P = {P} parallel MACs:")
    print(f"  {'layer':>6} {'macs':>8} {'cycles':>8} {'time':>10} {'ok':>5}")
    for l in est.layers:
        print(f"  {l.in_dim:>3}x{l.out_dim:<4} {l.macs:>8} {l.cycles:>8} "
              f"{l.time_us:>8.2f}us {'PASS' if l.ok else 'FAIL':>5}")
    print(f"  -> {'meets' if est.all_pass else 'MISSES'} the real-time "
          "budget\n")

print("A 512-wide MAC array retires the 512x512 layer in 516 cycles "
      "(5.16 us), well inside the 20 us symbol; a serial MAC would need "
      "2.62 ms.")
