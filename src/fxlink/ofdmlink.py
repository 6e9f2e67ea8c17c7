"""Baseband OFDM link components around the neural codec.

4-QAM Gray mapping, unitary IFFT/FFT (1/sqrt(N) both ways), cyclic prefix
handling, flat per-subcarrier channels (AWGN and Rayleigh with CN(0,1)
gains), and zero-forcing equalization.

Conventions:
  * signal power is unit per complex sample; noise variance per complex
    sample is 10**(-snr_db/10), split evenly between I and Q
  * complex blocks enter the real-valued networks as interleaved
    re/im pairs (2N reals for N subcarriers); to_reals and to_complex
    return views of their input's memory, not copies, so writing to the
    result writes the input
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_QAM4_LEVELS = np.array([_INV_SQRT2, -_INV_SQRT2])     # indexed by the bit
ZF_SINGULAR_THRESHOLD = 1e-6


@dataclass(frozen=True)
class OfdmConfig:
    n_subcarriers: int = 16
    cp_len: int = 4
    modulation: str = "qam4"
    sample_rate: float = 1e6

    def __post_init__(self):
        n = self.n_subcarriers
        if n < 2 or n & (n - 1):
            raise ValueError(f"n_subcarriers must be a power of two, got {n}")
        if not 0 <= self.cp_len < n:
            raise ValueError("cp_len must satisfy 0 <= cp_len < n_subcarriers")
        if self.modulation != "qam4":
            raise ValueError(f"unsupported modulation {self.modulation!r}")

    @property
    def bits_per_block(self) -> int:
        return 2 * self.n_subcarriers

    @property
    def symbol_duration(self) -> float:
        """Time of one OFDM symbol including CP, in seconds."""
        return (self.n_subcarriers + self.cp_len) / self.sample_rate


@dataclass
class ChannelRealization:
    """Per-subcarrier complex gains plus the operating SNR.

    h has unit average power by construction: CN(0,1) per gain for
    Rayleigh, all-ones for AWGN.  h may be [n_sc] or [blocks, n_sc].
    snr_db = inf means noiseless.
    """

    h: np.ndarray
    snr_db: float

    @property
    def noise_variance(self) -> float:
        # snr_db = inf gives exactly 0.0
        return 10.0 ** (-self.snr_db / 10.0)


CHANNEL_KINDS = ("awgn", "rayleigh", "rayleigh_block")


def draw_channel(kind: str, shape, snr_db: float,
                 rng: np.random.Generator) -> ChannelRealization:
    """Draw per-subcarrier gains for one or more OFDM symbols.

    'awgn': h = 1.  'rayleigh': iid CN(0,1) per subcarrier.
    'rayleigh_block': one CN(0,1) gain per OFDM symbol shared by all its
    subcarriers (flat fading across the whole block).
    """
    if kind == "awgn":
        return ChannelRealization(np.ones(shape, dtype=complex), snr_db)
    if kind == "rayleigh":
        h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * _INV_SQRT2
        return ChannelRealization(h, snr_db)
    if kind == "rayleigh_block":
        if np.ndim(shape) == 0 or len(shape) == 1:
            per = ()
        else:
            per = tuple(shape[:-1]) + (1,)
        g = (rng.standard_normal(per) + 1j * rng.standard_normal(per)) \
            * _INV_SQRT2
        return ChannelRealization(np.broadcast_to(g, shape).copy(), snr_db)
    raise ValueError(f"unknown channel kind {kind!r}; one of {CHANNEL_KINDS}")


def qam4_modulate(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped 4-QAM: bit pair (b_I, b_Q), 0 -> +1/sqrt2, 1 -> -1/sqrt2.

    bits: [..., 2k] -> symbols [..., k], unit power per symbol.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] % 2:
        raise ValueError("bit count must be even for 4-QAM")
    # integer indices: bool bits would index the level table as a mask
    return to_complex(_QAM4_LEVELS[bits.astype(np.intp, copy=False)])


def qam4_demodulate(symbols: np.ndarray) -> np.ndarray:
    """Per-axis sign decision (minimum distance for 4-QAM)."""
    return (to_reals(symbols) < 0).astype(np.int64)


def _check_pow2(n: int):
    if n < 1 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")


def fft(x: np.ndarray) -> np.ndarray:
    """Unitary DFT over the last axis (1/sqrt(N) scaling)."""
    x = np.asarray(x)
    _check_pow2(x.shape[-1])
    return np.fft.fft(x, norm="ortho")


def ifft(x: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT over the last axis."""
    x = np.asarray(x)
    _check_pow2(x.shape[-1])
    return np.fft.ifft(x, norm="ortho")


def add_cp(x: np.ndarray, cp_len: int) -> np.ndarray:
    """Prepend the last cp_len samples (cyclic prefix)."""
    x = np.asarray(x)
    if not 0 <= cp_len < x.shape[-1]:
        raise ValueError("cp_len must be < block length")
    if cp_len == 0:
        return x.copy()
    return np.concatenate([x[..., -cp_len:], x], axis=-1)


def remove_cp(y: np.ndarray, cp_len: int) -> np.ndarray:
    """Drop the first cp_len samples."""
    y = np.asarray(y)
    if not 0 <= cp_len < y.shape[-1]:
        raise ValueError("cp_len must be < block length")
    return y[..., cp_len:]


def draw_noise(shape, variance, rng: np.random.Generator):
    """Complex AWGN of `variance` per complex sample, split evenly between
    I and Q; None when the variance is 0 (noiseless).

    variance may be an array broadcasting against shape, e.g. one value
    per block.
    """
    if not np.count_nonzero(variance):
        return None
    # one draw of the real normals, then the imaginary ones, as
    # standard_normal(shape) twice would give them
    re, im = rng.standard_normal((2,) + tuple(shape))
    noise = np.empty(re.shape, dtype=np.complex128)
    noise.real, noise.imag = re, im
    noise *= np.sqrt(variance / 2.0)
    return noise


def apply_channel(freq_symbols: np.ndarray, realization: ChannelRealization,
                  rng: np.random.Generator) -> np.ndarray:
    """y_k = h_k * x_k + eps_k with complex AWGN of the configured variance."""
    x = np.asarray(freq_symbols)
    h = realization.h
    if h.shape[-1] != x.shape[-1]:
        raise ValueError(f"gain length {h.shape[-1]} != {x.shape[-1]}")
    y = h * x
    noise = draw_noise(x.shape, realization.noise_variance, rng)
    return y if noise is None else y + noise


def equalize_zf(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Zero-forcing: x_hat = y / h, zeroed on subcarriers whose |h| is
    below ZF_SINGULAR_THRESHOLD."""
    y = np.asarray(y)
    h = np.asarray(h)
    singular = np.abs(h) < ZF_SINGULAR_THRESHOLD
    if not singular.any():
        return y / h
    return np.where(singular, 0.0, y / np.where(singular, 1.0, h))


def to_complex(reals: np.ndarray) -> np.ndarray:
    """Interleaved [re0, im0, re1, im1, ...] -> complex vector, as a view
    that aliases reals when reals is a C-contiguous float64 array."""
    reals = np.ascontiguousarray(reals, dtype=np.float64)
    if reals.shape[-1] % 2:
        raise ValueError("interleaved length must be even")
    return reals.view(np.complex128)


def to_reals(z: np.ndarray) -> np.ndarray:
    """Complex vector -> interleaved re/im reals, as a view that aliases
    z when z is a C-contiguous complex128 array."""
    return np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)
