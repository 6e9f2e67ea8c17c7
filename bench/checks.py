"""Output checks for the benchmark, counted as operations attempted/failed.

The fixed-point oracle here is written independently of
``fxlink.fixedpoint``: it works on Python integers, rounds with ``divmod``
rather than shifts and masks, and saturates with ``min``/``max``.
"""

from __future__ import annotations

import math
import statistics
import sys

import numpy as np

from fxlink import fixedpoint, neuralnet


class Checks:
    """Counts checked operations; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.tally(1, int(not ok), message)

    def tally(self, attempted: int, failed: int, message: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(message)

    def report(self) -> None:
        for m in self.messages:
            print(f"check failed: {m}", file=sys.stderr)


def mac_row_oracle(x_row, w, b, total_bits: int, frac_bits: int,
                   relu: bool) -> list[int]:
    """One fx_linear output row: exact accumulate, half-even, saturate."""
    lo, hi = -(1 << (total_bits - 1)), (1 << (total_bits - 1)) - 1
    scale = 1 << frac_bits
    xs = [int(v) for v in x_row]
    out = []
    for w_row, bias in zip(w.tolist(), b.tolist()):
        acc = sum(xi * wi for xi, wi in zip(xs, w_row)) + bias * scale
        q, r = divmod(acc, scale)
        if 2 * r > scale or (2 * r == scale and q % 2 == 1):
            q += 1
        q = min(max(q, lo), hi)
        out.append(max(q, 0) if relu else q)
    return out


def check_fx_linear(checks: Checks, qnet, x: np.ndarray,
                    rng: np.random.Generator, rows: int, tag: str) -> None:
    """Sampled rows of a fixed forward pass against the oracle.

    Two kinds of rows per layer: rows of the production forward pass on
    real inputs (the taps ``forward_fixed`` returns), and rows of a direct
    ``fx_linear`` call on inputs at the format's raw extremes, which drive
    the accumulator to saturation.
    """
    fmt = qnet.fmt
    _, taps = neuralnet.forward_fixed(qnet, x)
    inputs = [fixedpoint.quantize(x, fmt).raw] + [t.raw for t in taps[:-1]]
    extremes = np.array([fmt.raw_min, fmt.raw_max], dtype=np.int64)
    for li, (layer, xin, tap) in enumerate(zip(qnet.layers, inputs, taps)):
        relu = layer.activation == "relu"
        for r in rng.choice(len(xin), size=min(rows, len(xin)),
                            replace=False):
            want = mac_row_oracle(xin[r], layer.w.raw, layer.b.raw,
                                  fmt.total_bits, fmt.frac_bits, relu)
            checks.expect(tap.raw[r].tolist() == want,
                          f"{tag} layer {li} row {r}: fx_linear differs "
                          "from the integer oracle")
        x_ext = rng.choice(extremes, size=(rows, xin.shape[1]))
        got = fixedpoint.fx_linear(fixedpoint.FixedTensor(x_ext, fmt),
                                   layer.w, layer.b, fmt).raw
        for r in range(rows):
            want = mac_row_oracle(x_ext[r], layer.w.raw, layer.b.raw,
                                  fmt.total_bits, fmt.frac_bits, False)
            checks.expect(got[r].tolist() == want,
                          f"{tag} layer {li} extreme row {r}: fx_linear "
                          "differs from the integer oracle")


def check_ber_points(checks: Checks, curve, budget: int, tag: str) -> None:
    for p in curve.points:
        checks.expect(p.bits == budget and 0 <= p.errors <= p.bits,
                      f"{tag} @ {p.snr_db} dB: bits={p.bits} (budget "
                      f"{budget}), errors={p.errors}")


def check_loss_histories(checks: Checks, histories, epochs: int) -> None:
    """Every epoch loss finite; the median last epoch below the median first.

    Under equalized Rayleigh, ZF divides the noise by |h|, and 1/|h|^2 has
    no finite mean, so single epoch means are heavy-tailed: one deep fade
    can lift one call's last epoch above its first.  The decrease is
    therefore checked on the medians over the run's calls.
    """
    for h in histories:
        checks.expect(len(h) == epochs and all(math.isfinite(v) for v in h),
                      f"train: loss history {h} is not {epochs} finite "
                      "values")
    first = statistics.median(h[0] for h in histories)
    last = statistics.median(h[-1] for h in histories)
    checks.expect(last < first, f"train: median last-epoch loss {last:.4g} "
                  f"is not below the median first-epoch loss {first:.4g}")
