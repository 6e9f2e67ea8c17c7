"""Signed fixed-point arithmetic emulating a hardware MAC datapath.

Values are stored as raw two's-complement integers with an implicit binary
point: real value = raw * 2**(-frac_bits).  All operations saturate on
overflow and round half to even, matching common DSP synthesis defaults.
Dot products accumulate at full precision (no intermediate rounding) and
requantize exactly once, the way a pipelined MAC array does.

The MAC array runs on float64 BLAS and stays bit-exact.  It is
weight-stationary: a `MacArray` loads a layer's operands once (the float64
GEMM operands of the weights, the bias at accumulator scale and the clamp
bounds), and each call runs only the MAC pass on its input.  ReLU is fused
into the saturating clamp.  `fx_linear` loads, then calls.

A float64 holds every integer up to 2**53, and a product of two t-bit raws
is at most 2**(2t-2) in magnitude.  Where (n_in + 1) * 2**(2t-2) <= 2**53,
one GEMM on the raw integers forms only such integers, bias included.
Wider accumulators split the weights into limbs whose GEMMs each stay below
2**53 and recombine them in int64: the error-free splitting of Ozaki, Ogita,
Oishi & Rump, "Error-free transformations of matrix multiplication by using
fast routines of matrix multiplication and its applications" (Numer.
Algorithms, 2012).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

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
    if not np.isfinite(arr).all():
        raise ValueError("quantize requires finite input")
    # Scaling by a power of two is exact in float64, so np.rint applies the
    # half-even rule to the mathematically exact scaled value.
    raw = np.rint(arr * q.scale)
    if arr.ndim == 0:
        return FixedScalar(_saturate(raw, q), q)
    # ndarray.clip skips np.clip's Python wrapper
    return FixedTensor(raw.clip(q.raw_min, q.raw_max, out=raw)
                       .astype(np.int64), q)


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

    x: [n, in] (or [in]); w: [out, in]; b: [out].  Loads the operands into
    a MacArray and runs one MAC pass on x; MacArray describes the
    arithmetic.  A network layer loads its MacArray once, when it is
    quantized, and calls it on every input instead.
    """
    return MacArray(w, b, q)(x)


@dataclass(frozen=True, eq=False, slots=True)
class MacArray:
    """A MAC array with its operands loaded: weight-stationary, like the
    hardware, so each call runs only the MAC pass on its input.

    Built from w: [out, in], b: [out] and their format.  Loading converts
    w to the float64 GEMM operands described below, puts the bias at
    accumulator scale and fixes the clamp bounds [lo, raw_max]: lo is
    raw_min, or 0 with relu=True.  ReLU fused into the clamp is exact,
    relu(sat(a)) = clamp(a, 0, raw_max), because 0 lies on every grid;
    Jacob et al. (arXiv 1712.05877) fold activations into the output clamp
    of the integer GEMM the same way.

    Calling it on x: [n, in] (or [in]) gives, per output, one MAC
    pipeline: the exact accumulator x.w + b * 2**f, divided by 2**f,
    rounded half to even and clamped.  With t = total_bits,
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
      The loaded limbs take (t-1)/k times the memory of w in float64.

    Raises ValueError when no limb of k >= 1 bits exists, that is for
    n_in > 2**(52-t) (2**20 at 32 bits).
    """

    w: InitVar[FixedTensor]
    b: InitVar[FixedTensor]
    fmt: QFormat
    relu: bool = False
    shape: tuple = field(init=False)         # (out, in) of w
    # (lo, raw_max) in the accumulator's dtype, which ndarray.clip reads
    # fastest
    bounds: tuple = field(init=False)
    # one-GEMM regime: w.T in float64 and b * 2**f; limbs is empty
    wt: np.ndarray | None = field(init=False, repr=False)
    # limb regime: (s, float64 limb.T) from the top limb down, b as int64
    # (the accumulator's high word) and the top word's clamp cap
    limbs: tuple = field(init=False, repr=False)
    bias: np.ndarray = field(init=False, repr=False)
    k: int = field(init=False)
    cap: np.int64 = field(init=False)

    def __post_init__(self, w: FixedTensor, b: FixedTensor):
        q = self.fmt
        if w.fmt != q or b.fmt != q:
            raise FormatMismatchError(
                "all operands must be in the target format")
        if w.raw.ndim != 2:
            raise ValueError(f"weights must be [out, in], got {w.raw.shape}")
        if b.raw.shape != (w.raw.shape[0],):
            raise ValueError(
                f"bias shape {b.raw.shape} vs out {w.raw.shape[0]}")
        t, f = q.total_bits, q.frac_bits
        n_in = w.raw.shape[1]
        wt, limbs, k, cap = None, (), 0, 0
        if (n_in + 1) << (2 * t - 2) <= 1 << 53:
            acc_type = np.float64
            wt = w.raw.T.astype(np.float64)
            bias = b.raw * float(1 << f)        # exact: within 2**53
        else:
            acc_type = np.int64
            bias = b.raw.astype(np.int64)
            n_bits = (n_in - 1).bit_length()
            k = 52 - (t - 1) - n_bits
            if k < 1:
                raise ValueError(f"{q} cannot accumulate {n_in} products "
                                 "exactly in float64 limbs")
            cap = np.int64(1 << (n_bits + t + 1))
            shifts = range(0, t - 1, k)
            limbs = tuple(
                (s, (w.raw >> s if s == shifts[-1]
                     else (w.raw >> s) & ((1 << k) - 1)).T.astype(np.float64))
                for s in reversed(shifts))
        lo = 0 if self.relu else q.raw_min
        for name, value in (("shape", w.raw.shape), ("wt", wt),
                            ("limbs", limbs), ("bias", bias), ("k", k),
                            ("cap", cap),
                            ("bounds", (acc_type(lo), acc_type(q.raw_max)))):
            object.__setattr__(self, name, value)

    def __call__(self, x: FixedTensor) -> FixedTensor:
        """One MAC pass over x: [n, in] or [in]; same shape out, [.., out]."""
        q = self.fmt
        if x.fmt != q:
            raise FormatMismatchError(
                "all operands must be in the target format")
        if x.raw.ndim not in (1, 2) or x.raw.shape[-1] != self.shape[1]:
            raise ValueError(
                f"shape mismatch: x {x.raw.shape} vs w {self.shape}")
        if self.wt is not None:
            # x in float64 is freed right after the GEMM, and the int64
            # result below can reuse its memory
            acc = x.raw.astype(np.float64) @ self.wt
            acc += self.bias
            acc *= q.step
            np.rint(acc, out=acc)
        else:
            acc = self._limb_pass(x.raw.astype(np.float64))
        acc.clip(*self.bounds, out=acc)
        return FixedTensor(acc.astype(np.int64, copy=False), q)

    def _limb_pass(self, xf: np.ndarray) -> np.ndarray:
        """The limb regime up to the clamp; returns rounded int64 raws."""
        f, k, cap = self.fmt.frac_bits, self.k, self.cap
        hi, lo, top = self.bias, 0, None
        for s, limb in self.limbs:
            p = (xf @ limb).astype(np.int64)
            if s >= f:
                top = p if top is None else \
                    (top.clip(-cap, cap, out=top) << k) + p
                top_shift = s - f
            else:
                hi = hi + (p >> (f - s))
                p &= (1 << (f - s)) - 1
                p <<= s
                lo = lo + p
        # the bottom limb (s = 0 < f) has rebound hi to a fresh array
        if top is not None:
            hi += top.clip(-cap, cap, out=top) << top_shift
        hi += lo >> f
        lo &= (1 << f) - 1
        return _round_half_even(hi, lo, f)
