"""Property tests: the OFDM primitives against their textbook formulas.

qam4_modulate, qam4_demodulate, to_complex/to_reals and equalize_zf
reinterpret or index memory instead of computing arithmetic, so each is
checked bit for bit against the formula it stands for, on any leading
shape and on non-contiguous input.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from fxlink.ofdmlink import (ZF_SINGULAR_THRESHOLD, equalize_zf,  # noqa: E402
                             qam4_demodulate, qam4_modulate, to_complex,
                             to_reals)

LEADING = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
FLOATS = st.floats(-1e6, 1e6, allow_subnormal=False) | st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300])


def same(a, b):
    """Equal values, dtype and shape, with the sign of zero compared."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
            and np.array_equal(a, b))


@st.composite
def reals_arrays(draw, even=True):
    """float64 arrays [..., n] with n even (or odd), possibly a strided
    view."""
    lead = draw(LEADING)
    n = 2 * draw(st.integers(0, 5)) + (0 if even else 1)
    step = draw(st.integers(1, 2))
    full = draw(hnp.arrays(np.float64, lead + (n * step,), elements=FLOATS))
    return full[..., ::step]


@st.composite
def complex_arrays(draw):
    """complex128 arrays [..., k], C-contiguous or a strided view."""
    r = draw(reals_arrays())
    z = np.empty(r.shape[:-1] + (r.shape[-1] // 2,), dtype=np.complex128)
    z.real, z.imag = r[..., 0::2], r[..., 1::2]
    if draw(st.booleans()) and z.ndim >= 2:
        return z.swapaxes(-1, -2)
    return z[..., ::draw(st.integers(1, 2))]


# ---------------------------------------------------------------------------
# 4-QAM
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(lead=LEADING, k=st.integers(0, 6), data=st.data(),
       dtype=st.sampled_from([np.int64, np.int32, np.uint8, bool]))
def test_modulate_matches_gray_formula(lead, k, data, dtype):
    bits = data.draw(hnp.arrays(dtype, lead + (2 * k,),
                                elements=st.integers(0, 1)))
    sym = qam4_modulate(bits)
    b = bits.astype(np.int64)
    assert sym.dtype == np.complex128 and sym.shape == lead + (k,)
    assert np.array_equal(sym.real, (1 - 2 * b[..., 0::2]) / np.sqrt(2))
    assert np.array_equal(sym.imag, (1 - 2 * b[..., 1::2]) / np.sqrt(2))


@settings(max_examples=50, deadline=None)
@given(lead=LEADING, k=st.integers(0, 6),
       dtype=st.sampled_from([np.int64, bool]))
def test_modulate_rejects_odd_length(lead, k, dtype):
    with pytest.raises(ValueError):
        qam4_modulate(np.zeros(lead + (2 * k + 1,), dtype=dtype))


@settings(max_examples=200, deadline=None)
@given(complex_arrays())
def test_demodulate_matches_sign_rule(z):
    bits = qam4_demodulate(z)
    want = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=np.int64)
    want[..., 0::2] = z.real < 0
    want[..., 1::2] = z.imag < 0
    assert same(bits, want)


@settings(max_examples=100, deadline=None)
@given(reals_arrays())
def test_demodulate_real_input_has_zero_imag(x):
    # a real-valued symbol has imag 0, so every Q bit decides 0
    bits = qam4_demodulate(x)
    assert bits.dtype == np.int64
    assert bits.shape == x.shape[:-1] + (2 * x.shape[-1],)
    assert np.array_equal(bits[..., 0::2], (x < 0).astype(np.int64))
    assert not bits[..., 1::2].any()


def test_demodulate_signed_zero_decides_zero():
    z = np.array([0.0 + 0.0j, -0.0 - 0.0j, complex(-0.0, 0.0)])
    assert np.signbit(z.real).tolist() == [False, True, True]
    assert not qam4_demodulate(z).any()


# ---------------------------------------------------------------------------
# interleaving
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(reals_arrays())
def test_to_complex_matches_pairs_and_round_trips(r):
    z = to_complex(r)
    assert z.dtype == np.complex128 and z.shape == r.shape[:-1] + (
        r.shape[-1] // 2,)
    assert same(z.real, r[..., 0::2]) and same(z.imag, r[..., 1::2])
    assert same(to_reals(z), np.ascontiguousarray(r))


@settings(max_examples=200, deadline=None)
@given(complex_arrays())
def test_to_reals_matches_interleave_and_round_trips(z):
    r = to_reals(z)
    assert r.dtype == np.float64 and r.shape == z.shape[:-1] + (
        2 * z.shape[-1],)
    assert same(r[..., 0::2], z.real) and same(r[..., 1::2], z.imag)
    assert same(to_complex(r), np.ascontiguousarray(z))


@settings(max_examples=50, deadline=None)
@given(reals_arrays(even=False))
def test_to_complex_rejects_odd_length(r):
    with pytest.raises(ValueError):
        to_complex(r)


def test_views_alias_contiguous_input():
    # documented: a C-contiguous input of the matching dtype is not copied
    r = np.arange(8.0).reshape(2, 4)
    z = to_complex(r)
    assert np.shares_memory(z, r)
    z[1, 0] = 9.0 - 1.0j
    assert r[1, :2].tolist() == [9.0, -1.0]
    assert np.shares_memory(to_reals(z), r)
    # a strided or other-dtype input is first made contiguous
    assert not np.shares_memory(to_complex(r[:, ::-1]), r)
    assert not np.shares_memory(to_reals(r), r)


# ---------------------------------------------------------------------------
# zero-forcing
# ---------------------------------------------------------------------------

@st.composite
def zf_cases(draw):
    lead = draw(LEADING)
    k = draw(st.integers(1, 6))
    step = draw(st.integers(1, 2))
    y = draw(hnp.arrays(np.complex128, lead + (k * step,),
                        elements=st.complex_numbers(
                            max_magnitude=1e6, allow_nan=False)))[..., ::step]
    h = draw(hnp.arrays(np.complex128,
                        draw(st.sampled_from([(k,), lead + (k,)])),
                        elements=st.complex_numbers(
                            min_magnitude=1e-3, max_magnitude=1e3,
                            allow_nan=False)))
    if h.size and draw(st.booleans()):
        # singular gains: exactly zero, tiny, and either side of the
        # threshold
        tiny = st.sampled_from([0.0, 1e-9, 1e-9j,
                                0.999 * ZF_SINGULAR_THRESHOLD,
                                ZF_SINGULAR_THRESHOLD])
        flat = h.reshape(-1)
        for i in draw(st.lists(st.integers(0, h.size - 1), min_size=1,
                               max_size=h.size)):
            flat[i] = draw(tiny)
    return y, h


@settings(max_examples=300, deadline=None)
@given(zf_cases())
def test_zf_matches_masked_formula(case):
    y, h = case
    singular = np.abs(h) < ZF_SINGULAR_THRESHOLD
    want = np.where(singular, 0.0, y / np.where(singular, 1.0, h))
    assert same(equalize_zf(y, h), want)
