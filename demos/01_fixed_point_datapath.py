#!/usr/bin/env python3
"""Tour of the fixed-point datapath: grids, saturation, MAC behavior.

Walks through what a signed Q-format does to real numbers, why the MAC
pipeline accumulates at full width before the single requantization, and
how quantization noise scales with the step size.
"""

import numpy as np

import fxlink as fx

print("=" * 64)
print("Q-format basics")
print("=" * 64)

for bits in (8, 16, 24):
    q = fx.make_qformat(bits, 3)
    print(f"{q}: step {q.step:.3g}, range [{q.min_value}, {q.max_value}]")

q16 = fx.make_qformat(16, 3)
print()
for x, note in ((0.1, ""), (10.0, " (saturated)"), (-10.0, " (saturated)")):
    f = fx.quantize(x, q16)
    print(f"quantize({x}) -> {f.values} = {f.raw}/{q16.scale}{note}")

print("\n" + "=" * 64)
print("Multiply and accumulate")
print("=" * 64)

# a one-element MAC is a single multiply, requantized once
a = fx.quantize([0.1], q16)
prod = fx.fx_dot(a, a, fx.quantize(0.0, q16), q16)
print(f"{a.values[0]} * {a.values[0]} -> {prod.values} "
      f"(exact: {a.values[0] * a.values[0]})")

# sum of eight 1.0*1.0 products is exactly 8.0 in the wide accumulator;
# only the final requantization saturates to the format maximum
ones = fx.quantize(np.ones(8), q16)
out = fx.fx_dot(ones, ones, fx.quantize(0.0, q16), q16)
print(f"dot([1]*8, [1]*8) -> {out.values} (accumulator held 8.0, "
      "requantize saturated)")

rng = np.random.default_rng(0)
x = fx.quantize(rng.uniform(-0.5, 0.5, 64), q16)
w = fx.quantize(rng.uniform(-0.5, 0.5, 64), q16)
b = fx.quantize(0.25, q16)
got = fx.fx_dot(x, w, b, q16)
ref = float(x.values @ w.values + b.values)
print(f"random length-64 MAC: fixed {got.values:+.8f} vs float {ref:+.8f} "
      f"(|diff| = {abs(got.values - ref):.2e}, one rounding of {q16.step:.2e})")

print("\n" + "=" * 64)
print("Quantization noise vs step size (uniform inputs on [-1, 1])")
print("=" * 64)

x = rng.uniform(-1.0, 1.0, 100_000)
print(f"{'format':>8} {'step':>12} {'rms error':>12} {'step/sqrt(12)':>14}")
for frac in (4, 8, 12, 16):
    q = fx.make_qformat(frac + 4, 3)
    err = fx.quantize(x, q).values - x
    print(f"{str(q):>8} {q.step:>12.3e} {np.sqrt(np.mean(err**2)):>12.3e} "
          f"{q.step / np.sqrt(12):>14.3e}")
print("\nEach halving of the step halves the error: the 8b vs 16b gap is "
      f"2^8 = {2**8}x.")
