"""Signed fixed-point arithmetic emulating a hardware MAC datapath.

Values are stored as raw two's-complement integers with an implicit binary
point: real value = raw * 2**(-frac_bits).  All operations saturate on
overflow and round half to even, matching common DSP synthesis defaults.
Dot products accumulate at full precision (no intermediate rounding) and
requantize exactly once, the way a pipelined MAC array does.

The MAC array (`fx_linear`) runs on float64 BLAS and stays bit-exact.  A
float64 holds every integer up to 2**53, and a product of two t-bit raws is
at most 2**(2t-2) in magnitude.  Where (n_in + 1) * 2**(2t-2) <= 2**53, one
GEMM on the raw integers forms only such integers, bias included.  Wider
accumulators split the weights into limbs whose GEMMs each stay below 2**53
and recombine them in int64: the error-free splitting of Ozaki, Ogita,
Oishi & Rump, "Error-free transformations of matrix multiplication by using
fast routines of matrix multiplication and its applications" (Numer.
Algorithms, 2012).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class BitAllocationError(ValueError):
    """Requested bit split leaves no room for sign/fraction."""


class FormatMismatchError(ValueError):
    """Operands carry different Q-formats."""


@dataclass(frozen=True)
class QFormat:
    """Signed Q-format descriptor: 1 sign bit + int_bits + frac_bits."""

    total_bits: int
    int_bits: int
    frac_bits: int = field(init=False)

    def __post_init__(self):
        if not 8 <= self.total_bits <= 32:
            raise BitAllocationError(
                f"total_bits must be in [8, 32], got {self.total_bits}")
        if self.int_bits < 0:
            raise BitAllocationError(
                f"int_bits must be >= 0, got {self.int_bits}")
        frac = self.total_bits - 1 - self.int_bits
        if frac < 1:
            raise BitAllocationError(
                f"Q{self.total_bits}.{self.int_bits} leaves {frac} fraction "
                "bits; need at least 1")
        object.__setattr__(self, "frac_bits", frac)

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def step(self) -> float:
        return 2.0 ** (-self.frac_bits)

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return float(-(1 << self.int_bits))

    @property
    def max_value(self) -> float:
        return self.raw_max * self.step

    def __repr__(self) -> str:
        return f"Q{self.total_bits}.{self.int_bits}"


def make_qformat(total_bits: int, int_bits: int = 3) -> QFormat:
    """Build a QFormat; frac_bits = total_bits - 1 - int_bits."""
    return QFormat(total_bits, int_bits)


@dataclass(frozen=True)
class FixedScalar:
    raw: int
    fmt: QFormat

    @property
    def value(self) -> float:
        return self.raw * self.fmt.step

    def __repr__(self) -> str:
        return f"FixedScalar({self.value} = {self.raw}/{self.fmt.scale}, {self.fmt})"


@dataclass(frozen=True)
class FixedTensor:
    """Array of raw integers sharing one Q-format."""

    raw: np.ndarray
    fmt: QFormat

    @property
    def shape(self):
        return self.raw.shape

    @property
    def values(self) -> np.ndarray:
        return self.raw.astype(np.float64) * self.fmt.step


def quantize(x, q: QFormat):
    """Quantize a real scalar or array onto the format's grid.

    Rounds half to even, saturates to the representable range.  Returns a
    FixedScalar for scalar input, a FixedTensor otherwise.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantize requires finite input")
    # Scaling by a power of two is exact in float64, so np.rint applies the
    # half-even rule to the mathematically exact scaled value.
    raw = np.rint(arr * q.scale)
    raw = np.clip(raw, q.raw_min, q.raw_max).astype(np.int64)
    if arr.ndim == 0:
        return FixedScalar(int(raw), q)
    return FixedTensor(raw, q)


def dequantize(f):
    """Exact real value of a FixedScalar (float) or FixedTensor (ndarray)."""
    if isinstance(f, FixedScalar):
        return f.value
    return f.values


def saturation_count(x, q: QFormat) -> int:
    """How many elements of x fall outside q's representable range."""
    arr = np.asarray(x, dtype=np.float64)
    scaled = np.rint(arr * q.scale)
    return int(np.sum((scaled < q.raw_min) | (scaled > q.raw_max)))


def _check_fmt(a, b):
    if a.fmt != b.fmt:
        raise FormatMismatchError(f"{a.fmt} vs {b.fmt}")


def _saturate(raw: int, q: QFormat) -> int:
    return min(max(int(raw), q.raw_min), q.raw_max)


def _round_half_even(hi, lo, k: int):
    """hi + lo / 2**k rounded half to even, for 0 <= lo < 2**k and k >= 1.

    Works on Python ints and integer ndarrays.  lo + 2**(k-1) - 1 reaches
    2**k exactly when lo is above half; adding the parity of hi breaks the
    tie at lo == half towards even.
    """
    return hi + ((lo + ((hi & 1) + ((1 << (k - 1)) - 1))) >> k)


def fx_add(a: FixedScalar, b: FixedScalar) -> FixedScalar:
    """Saturating datapath adder; operands must share a format."""
    _check_fmt(a, b)
    return FixedScalar(_saturate(a.raw + b.raw, a.fmt), a.fmt)


def fx_mul(a: FixedScalar, b: FixedScalar) -> FixedScalar:
    """Multiply: exact double-width product, one requantize, saturate."""
    _check_fmt(a, b)
    prod = a.raw * b.raw  # carries 2*frac_bits of fraction
    f = a.fmt.frac_bits
    # floor shift: the remainder is non-negative whatever the sign
    raw = _round_half_even(prod >> f, prod & ((1 << f) - 1), f)
    return FixedScalar(_saturate(raw, a.fmt), a.fmt)


def fx_dot(a: FixedTensor, w: FixedTensor, bias: FixedScalar,
           q: QFormat) -> FixedScalar:
    """One hardware MAC pipeline: full-width accumulate, requantize once.

    A one-row call of `fx_linear`: the bias joins at accumulator precision
    and a single round/saturate produces the result.
    """
    if a.raw.ndim != 1 or w.raw.ndim != 1:
        raise ValueError("fx_dot expects 1-D tensors")
    out = fx_linear(a, FixedTensor(w.raw[None, :], w.fmt),
                    FixedTensor(np.array([bias.raw]), bias.fmt), q)
    return FixedScalar(int(out.raw[0]), q)


def fx_linear(x: FixedTensor, w: FixedTensor, b: FixedTensor,
              q: QFormat) -> FixedTensor:
    """Batched MAC array: rows of x against rows of w, plus bias.

    x: [n, in] (or [in]); w: [out, in]; b: [out].  Each output is one MAC
    pipeline: the exact accumulator x.w + b * 2**f, divided by 2**f,
    rounded half to even and saturated.  With t = total_bits,
    f = frac_bits and |raw| <= 2**(t-1), it is computed by float64 GEMMs
    on the raw integers, each exact because no value it forms exceeds
    2**53 in magnitude:

    * One GEMM when (n_in + 1) * 2**(2t-2) <= 2**53 (Q16 up to n_in =
      2**23 - 1).  Every partial sum, the bias b * 2**f included, is an
      integer within 2**53; the scale by 2**-f is exact and np.rint rounds
      the exact quotient half to even.
    * Limbs otherwise.  With L = (n_in - 1).bit_length(), so n_in <= 2**L,
      the weights split into unsigned limbs of k = 52 - (t-1) - L bits and
      a signed top limb within 2**k in magnitude; each limb GEMM sums n_in
      products of at most 2**(t-1+k), so it stays within 2**52.  The
      limbs recombine in int64 as hi * 2**f + lo with 0 <= lo < 2**f:
      limbs below the binary point split into a floor part for hi and a
      remainder for lo, lo carries into hi, and the half-even rounding
      reads lo.  Limbs at bit s >= f and above form the top word
      x.(w >> s) by Horner's rule.  In units of 2**s, the lower limbs and
      the bias add less than 2**(L+t-1) + 2**(t-1), so a top word of
      magnitude 2**(L+t+1) or more saturates the result with its own sign
      whatever they add.  Clamping the top word to that magnitude before
      each shift keeps it inside int64 and saturates it the same way.

    Raises ValueError when no limb of k >= 1 bits exists, that is for
    n_in > 2**(52-t) (2**20 at 32 bits).
    """
    if x.fmt != q or w.fmt != q or b.fmt != q:
        raise FormatMismatchError("all operands must be in the target format")
    xr = x.raw
    single = xr.ndim == 1
    if single:
        xr = xr[None, :]
    if w.raw.ndim != 2 or xr.shape[1] != w.raw.shape[1]:
        raise ValueError(
            f"shape mismatch: x {x.raw.shape} vs w {w.raw.shape}")
    if b.raw.shape != (w.raw.shape[0],):
        raise ValueError(f"bias shape {b.raw.shape} vs out {w.raw.shape[0]}")
    n_in = xr.shape[1]
    xf = xr.astype(np.float64)
    if (n_in + 1) << (2 * q.total_bits - 2) <= 1 << 53:
        acc = xf @ w.raw.T.astype(np.float64)
        acc += b.raw << q.frac_bits
        acc *= q.step
        np.rint(acc, out=acc)
        raw = np.clip(acc, q.raw_min, q.raw_max, out=acc)
    else:
        raw = _limb_mac(xf, w.raw, b.raw, q)
    raw = raw.astype(np.int64, copy=False)
    if single:
        raw = raw[0]
    return FixedTensor(raw, q)


def _limb_mac(xf: np.ndarray, w: np.ndarray, b: np.ndarray, q: QFormat):
    """The limb regime of fx_linear; returns saturated int64 raws."""
    t, f = q.total_bits, q.frac_bits
    n_bits = (xf.shape[1] - 1).bit_length()
    k = 52 - (t - 1) - n_bits
    if k < 1:
        raise ValueError(
            f"{q} cannot accumulate {xf.shape[1]} products exactly in "
            "float64 limbs")
    shifts = range(0, t - 1, k)
    cap = 1 << (n_bits + t + 1)
    hi, lo, top = b.astype(np.int64), 0, None
    for s in reversed(shifts):
        limb = w >> s if s == shifts[-1] else (w >> s) & ((1 << k) - 1)
        p = (xf @ limb.T.astype(np.float64)).astype(np.int64)
        if s >= f:
            top = p if top is None else (np.clip(top, -cap, cap) << k) + p
            top_shift = s - f
        else:
            hi = hi + (p >> (f - s))
            p &= (1 << (f - s)) - 1
            p <<= s
            lo = lo + p
    if top is not None:
        hi += np.clip(top, -cap, cap) << top_shift
    hi += lo >> f
    lo &= (1 << f) - 1
    raw = _round_half_even(hi, lo, f)
    return np.clip(raw, q.raw_min, q.raw_max, out=raw)


def relu_raw(t: FixedTensor) -> FixedTensor:
    """ReLU on raw integers; exact because zero lies on every grid."""
    return FixedTensor(np.maximum(t.raw, 0), t.fmt)
