"""Property tests: the MAC array against the arbitrary-precision oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fxlink.fixedpoint import (FixedTensor, fx_linear,  # noqa: E402
                               make_qformat)
from test_fixedpoint import oracle_dot_raw  # noqa: E402


def one_gemm_max_n_in(total_bits: int) -> int:
    """Largest n_in with (n_in + 1) * 2**(2t-2) <= 2**53; -1 if none."""
    return ((1 << 53) >> (2 * total_bits - 2)) - 1


@st.composite
def mac_cases(draw):
    # the edge formats get extra weight: 8 and 32 bits, and int_bits from
    # 0 (most fraction bits) to t-2 (the fewest, one)
    t = draw(st.sampled_from([8, 32]) | st.integers(8, 32))
    q = make_qformat(t, draw(st.sampled_from([0, t - 3, t - 2])
                             | st.integers(0, t - 2)))
    edge = one_gemm_max_n_in(t)
    near = [n for n in (edge, edge + 1) if 1 <= n <= 1024]
    sizes = st.integers(1, 1024)
    n_in = draw(st.sampled_from(near) | sizes if near else sizes)
    rows, outs = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from(["uniform", "extremes", "cancel"]))
    if values == "uniform":
        x = rng.integers(q.raw_min, q.raw_max + 1, size=(rows, n_in))
        w = rng.integers(q.raw_min, q.raw_max + 1, size=(outs, n_in))
    elif values == "extremes":
        pool = np.array([q.raw_min, q.raw_min + 1, -1, 0, 1, q.raw_max - 1,
                         q.raw_max])
        x = rng.choice(pool, size=(rows, n_in))
        w = rng.choice(pool, size=(outs, n_in))
    else:
        # partial sums near n_in * 2**(2t-2) that cancel to a small result
        x = np.full((rows, n_in), q.raw_max)
        w = np.where(np.arange(n_in) < n_in // 2, q.raw_max, -q.raw_max)
        w = np.tile(w, (outs, 1))
    b = rng.integers(q.raw_min, q.raw_max + 1, size=outs)
    tie = draw(st.booleans())
    if tie:
        # last column chosen so that x[0].w[j] sits exactly on a half LSB
        x[0, -1] = 1
        head = [sum(int(a) * int(c) for a, c in zip(x[0, :-1], wj[:-1]))
                for wj in w]
        w[:, -1] = [((1 << (q.frac_bits - 1)) - h) % (1 << q.frac_bits)
                    for h in head]
    return q, x, w, b, tie


@settings(max_examples=300, deadline=None)
@given(mac_cases())
def test_linear_matches_oracle(case):
    q, x, w, b, tie = case
    out = fx_linear(FixedTensor(x, q), FixedTensor(w, q),
                    FixedTensor(b, q), q).raw
    for j in range(w.shape[0]):
        if tie:
            acc = sum(int(a) * int(c) for a, c in zip(x[0], w[j]))
            assert acc % q.scale == q.scale // 2
        for i in range(x.shape[0]):
            assert out[i, j] == oracle_dot_raw(x[i], w[j], int(b[j]),
                                               q.total_bits, q.frac_bits)
