"""Fixed-point datapath vs an independent arbitrary-precision oracle."""

from fractions import Fraction

import numpy as np
import pytest

from fxlink.fixedpoint import (BitAllocationError, FixedTensor,
                               FormatMismatchError, fx_dot, fx_linear,
                               make_qformat, quantize)

Q16 = make_qformat(16, 3)
Q8 = make_qformat(8, 3)


# ---------------------------------------------------------------------------
# oracle: pure-Python reference implementation, kept independent of fxlink
# ---------------------------------------------------------------------------

def oracle_round_half_even(x: Fraction) -> int:
    lo = x.numerator // x.denominator
    rem = x - lo
    if rem > Fraction(1, 2):
        return lo + 1
    if rem < Fraction(1, 2):
        return lo
    return lo + (lo % 2)


def oracle_quantize_raw(x: float, total_bits: int, frac_bits: int) -> int:
    raw = oracle_round_half_even(Fraction(x) * (1 << frac_bits))
    lo, hi = -(1 << (total_bits - 1)), (1 << (total_bits - 1)) - 1
    return min(max(raw, lo), hi)


def oracle_dot_raw(a_raw, w_raw, bias_raw, total_bits, frac_bits) -> int:
    acc = int(bias_raw) * (1 << frac_bits)
    for ai, wi in zip(a_raw, w_raw):
        acc += int(ai) * int(wi)
    raw = oracle_round_half_even(Fraction(acc, 1 << frac_bits))
    lo, hi = -(1 << (total_bits - 1)), (1 << (total_bits - 1)) - 1
    return min(max(raw, lo), hi)


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------

def test_qformat_split():
    q = make_qformat(16, 3)
    assert q.frac_bits == 12
    assert q.step == 2.0 ** -12
    q8 = make_qformat(8, 3)
    assert q8.frac_bits == 4
    assert q8.step == 0.0625


def test_qformat_range():
    assert Q16.min_value == -8.0
    assert Q16.max_value == 32767 / 4096


@pytest.mark.parametrize("total,ints", [(8, 7), (7, 3), (33, 3), (16, -1)])
def test_qformat_invalid(total, ints):
    with pytest.raises(BitAllocationError):
        make_qformat(total, ints)


# ---------------------------------------------------------------------------
# quantize and the real value of a raw
# ---------------------------------------------------------------------------

def test_quantize_examples():
    assert quantize(0.0, Q16).raw == 0
    s = quantize(0.1, Q16)
    assert s.raw == 410 and s.values == 0.10009765625 and s.shape == ()
    assert quantize(10.0, Q16).values == 7.999755859375
    assert quantize(-10.0, Q16).values == -8.0


def test_dequantize_examples():
    assert FixedTensor(np.array(4096), Q16).values == 1.0
    assert FixedTensor(np.array(-32768), Q16).values == -8.0


def test_tensor_equality_compares_values():
    a = quantize([1.0, 2.0], Q16)
    assert a == quantize([1.0, 2.0], Q16)
    assert a != quantize([1.0, 2.5], Q16)               # a different raw
    assert a != quantize([1.0, 2.0], make_qformat(16, 4))   # a format
    with pytest.raises(TypeError):                      # still unhashable
        hash(a)


def test_quantize_matches_oracle():
    rng = np.random.default_rng(0)
    for q in (Q8, Q16, make_qformat(24, 3), make_qformat(32, 3)):
        xs = rng.uniform(-12.0, 12.0, size=500)
        # exact grid points and half-step ties
        xs = np.concatenate(
            [xs, rng.integers(q.raw_min, q.raw_max, 200) * q.step,
             (rng.integers(q.raw_min, q.raw_max - 1, 200) + 0.5) * q.step])
        for x in xs:
            assert quantize(float(x), q).raw == \
                oracle_quantize_raw(float(x), q.total_bits, q.frac_bits)


def test_quantize_roundtrip_error_bound():
    rng = np.random.default_rng(1)
    xs = rng.uniform(Q16.min_value, Q16.max_value, size=5000)
    vals = quantize(xs, Q16).values
    assert np.all(np.abs(vals - xs) <= Q16.step / 2 + 1e-15)


def test_quantize_idempotent_on_grid():
    rng = np.random.default_rng(2)
    raw = rng.integers(Q16.raw_min, Q16.raw_max + 1, size=1000)
    t = FixedTensor(raw, Q16)
    again = quantize(t.values, Q16)
    assert np.array_equal(again.raw, raw)


def test_quantize_saturates_everywhere_outside():
    for x in (8.0, 9.3, 1e6, 1e12):
        assert quantize(x, Q16).raw == Q16.raw_max
    for x in (-8.0001, -25.0, -1e9):
        assert quantize(x, Q16).raw == Q16.raw_min


def test_quantize_rejects_non_finite():
    with pytest.raises(ValueError):
        quantize(float("nan"), Q16)
    with pytest.raises(ValueError):
        quantize(np.array([1.0, np.inf]), Q16)


def test_rms_error_scales_with_step():
    # uniform quantization noise rms = step / sqrt(12)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, size=200_000)
    for frac in range(4, 17):
        q = make_qformat(frac + 4, 3)
        assert q.frac_bits == frac
        err = quantize(x, q).values - x
        expected = q.step / np.sqrt(12.0)
        assert np.sqrt(np.mean(err ** 2)) == pytest.approx(expected, rel=0.05)


# ---------------------------------------------------------------------------
# MAC pipeline
# ---------------------------------------------------------------------------

def test_dot_cancellation():
    a = quantize(np.array([0.5, 0.5]), Q16)
    w = quantize(np.array([1.0, -1.0]), Q16)
    out = fx_dot(a, w, quantize(0.0, Q16), Q16)
    assert out.raw == 0


def test_dot_saturates_only_at_requantize():
    a = quantize(np.ones(8), Q16)
    w = quantize(np.ones(8), Q16)
    out = fx_dot(a, w, quantize(0.0, Q16), Q16)
    assert out.values == 7.999755859375


def test_dot_matches_bigint_oracle():
    # bit-exact on 10^4 random cases per tested format
    rng = np.random.default_rng(5)
    formats = [Q8, Q16, make_qformat(24, 3), make_qformat(32, 3),
               make_qformat(12, 5)]
    for q in formats:
        for k in range(10_000):
            n = int(rng.integers(1, 80 if k % 10 == 0 else 40))
            a_raw = rng.integers(q.raw_min, q.raw_max + 1, size=n)
            w_raw = rng.integers(q.raw_min, q.raw_max + 1, size=n)
            b_raw = int(rng.integers(q.raw_min, q.raw_max + 1))
            got = fx_dot(FixedTensor(a_raw, q), FixedTensor(w_raw, q),
                         FixedTensor(np.array(b_raw), q), q)
            want = oracle_dot_raw(a_raw, w_raw, b_raw, q.total_bits,
                                  q.frac_bits)
            assert got.raw == want


def test_dot_exact_when_result_representable():
    # on-grid inputs whose exact result fits are reproduced exactly
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 32))
        a = quantize(rng.uniform(-0.4, 0.4, n), Q16)
        w = quantize(rng.uniform(-0.4, 0.4, n), Q16)
        b = quantize(float(rng.uniform(-0.5, 0.5)), Q16)
        exact = float(a.values @ w.values + b.values)
        if abs(exact) > Q16.max_value:
            continue
        got = fx_dot(a, w, b, Q16)
        # 2*frac product grid: exact iff value*scale^2 integral, always here
        assert got.values == pytest.approx(exact, abs=Q16.step / 2)


def test_dot_length_and_format_errors():
    a = quantize(np.ones(4), Q16)
    w = quantize(np.ones(5), Q16)
    with pytest.raises(ValueError):
        fx_dot(a, w, quantize(0.0, Q16), Q16)
    w8 = quantize(np.ones(4), Q8)
    with pytest.raises(FormatMismatchError):
        fx_dot(a, w8, quantize(0.0, Q16), Q16)


@pytest.mark.parametrize("total_bits", [8, 16, 24, 32])
def test_linear_matches_scalar_dot(total_bits):
    # batched MAC array must agree with the oracle element by element,
    # including the weight-limb path at 32 bits
    q = make_qformat(total_bits, 3)
    rng = np.random.default_rng(total_bits)
    x_raw = rng.integers(q.raw_min, q.raw_max + 1, size=(6, 33))
    w_raw = rng.integers(q.raw_min, q.raw_max + 1, size=(9, 33))
    b_raw = rng.integers(q.raw_min, q.raw_max + 1, size=9)
    out = fx_linear(FixedTensor(x_raw, q), FixedTensor(w_raw, q),
                    FixedTensor(b_raw, q), q)
    for i in range(6):
        for j in range(9):
            assert out.raw[i, j] == oracle_dot_raw(
                x_raw[i], w_raw[j], b_raw[j], q.total_bits, q.frac_bits)


def test_linear_extremes_every_int_bits():
    # with few fraction bits the accumulator over 2**f reaches far past
    # int64 (Q32.29 at 128 inputs: ~2**67) and must still saturate right
    rng = np.random.default_rng(7)
    for total_bits in (24, 32):
        for int_bits in range(total_bits - 1):
            q = make_qformat(total_bits, int_bits)
            pool = np.array([q.raw_min, q.raw_min + 1, q.raw_max - 1,
                             q.raw_max])
            x_raw = rng.choice(pool, size=(4, 128))
            w_raw = rng.choice(pool, size=(12, 128))
            b_raw = rng.choice(pool, size=12)
            # x = raw_min against w = -1: the limbs above the binary point
            # form a top word of -128 * raw_min, and the all-ones lower
            # limbs cancel it down to 128 * 2**(t-1-f)
            x_raw[0], w_raw[0] = q.raw_min, -1
            out = fx_linear(FixedTensor(x_raw, q), FixedTensor(w_raw, q),
                            FixedTensor(b_raw, q), q)
            for i in range(4):
                for j in range(12):
                    assert out.raw[i, j] == oracle_dot_raw(
                        x_raw[i], w_raw[j], int(b_raw[j]), total_bits,
                        q.frac_bits), (q, i, j)


def test_linear_limb_width_limit():
    # at 32 bits, 2**20 products still leave 1-bit weight limbs; one more
    # leaves none, and there is no other exact path.  At Q32.29 the top
    # word spans 29 limbs and reaches ~2**80 before it saturates.
    n = 1 << 20
    for int_bits in (3, 29):
        q = make_qformat(32, int_bits)
        x = np.full((1, n), q.raw_min)
        w = np.stack([np.full(n, q.raw_min), np.full(n, q.raw_max),
                      np.tile([q.raw_max, q.raw_min], n // 2)])
        out = fx_linear(FixedTensor(x, q), FixedTensor(w, q),
                        FixedTensor(np.array([0, 0, 3]), q), q)
        assert out.raw[0, 0] == q.raw_max
        assert out.raw[0, 1] == q.raw_min
        assert out.raw[0, 2] == oracle_dot_raw(x[0], w[2], 3, 32,
                                               q.frac_bits)
    x1 = FixedTensor(np.zeros(n + 1, dtype=np.int64), q)
    w1 = FixedTensor(np.zeros((1, n + 1), dtype=np.int64), q)
    with pytest.raises(ValueError):
        fx_linear(x1, w1, FixedTensor(np.zeros(1, dtype=np.int64), q), q)
