"""Property tests: the MAC array and the fixed forward pass against the
arbitrary-precision oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import fxlink as fx  # noqa: E402
from fxlink import autoencoder as ae  # noqa: E402
from fxlink.fixedpoint import (FixedTensor, MacArray,  # noqa: E402
                               fx_linear, make_qformat)
from fxlink.neuralnet import (DenseLayer, FCNet, forward_fixed,  # noqa: E402
                              quantize_net)
from test_fixedpoint import oracle_dot_raw, oracle_quantize_raw  # noqa: E402


def one_gemm_max_n_in(total_bits: int) -> int:
    """Largest n_in with (n_in + 1) * 2**(2t-2) <= 2**53; -1 if none."""
    return ((1 << 53) >> (2 * total_bits - 2)) - 1


def near_bound_min_n_in(total_bits: int) -> int:
    """Fewest inputs whose weights, each below 2**(t-1) in magnitude, can
    carry a row L1 norm of 2**(54-t) + 1."""
    return -(-((1 << (54 - total_bits)) + 1)
             // ((1 << (total_bits - 1)) - 1))


def near_bound(rng, q, rows, n_in, outs):
    """Rows whose one-GEMM bound 2**(t-1) * ||w_j||_1 + |b_j| * 2**f lands
    just below, at or just above 2**53, with inputs that drive every
    accumulator to its bound ('reach'), through partial sums near it to a
    small result ('cancel'), or at random raw extremes."""
    t, f = q.total_bits, q.frac_bits
    big = q.raw_max                 # a magnitude either sign can take
    w = np.empty((outs, n_in), dtype=np.int64)
    b = np.empty(outs, dtype=np.int64)
    for j in range(outs):
        bias = int(rng.integers(0, min(big, 1 << (52 - f)) + 1))
        if rng.random() < 0.5:
            # |b| * 2**f a multiple of 2**(t-1), so the bound can hit 2**53
            bias &= -(1 << q.int_bits)
        l1 = (((1 << 53) - (bias << f)) >> (t - 1)) + int(rng.integers(-1, 2))
        mags = np.full(n_in, l1 // n_in)
        mags[:l1 % n_in] += 1
        # move weight between random pairs: same L1, each still <= big
        perm = rng.permutation(n_in)
        src, dst = perm[:n_in // 2], perm[n_in // 2:2 * (n_in // 2)]
        d = rng.integers(0, np.minimum(mags[src], big - mags[dst]) + 1)
        mags[src] -= d
        mags[dst] += d
        w[j], b[j] = mags, bias
    pattern = rng.choice(["reach", "cancel", "extremes"])
    if pattern == "reach":
        # raw_min against positive weights and negative biases: every
        # accumulator is minus its row's bound
        b = -b
        x = np.full((rows, n_in), q.raw_min)
    elif pattern == "cancel":
        w[:, n_in // 2:] *= -1
        b *= rng.choice([-1, 1], outs)
        x = np.full((rows, n_in), q.raw_min)
    else:
        w *= rng.choice([-1, 1], w.shape)
        b *= rng.choice([-1, 1], outs)
        x = rng.choice([q.raw_min, q.raw_max], (rows, n_in))
    return x, w, b


@st.composite
def mac_cases(draw):
    values = draw(st.sampled_from(["uniform", "extremes", "cancel",
                                   "near_bound"]))
    # the edge formats get extra weight: 8 and 32 bits, and int_bits from
    # 0 (most fraction bits) to t-2 (the fewest, one).  A row near the
    # one-GEMM bound needs t >= 23 within 1024 inputs.
    if values == "near_bound":
        t = draw(st.sampled_from([23, 32]) | st.integers(23, 32))
    else:
        t = draw(st.sampled_from([8, 32]) | st.integers(8, 32))
    q = make_qformat(t, draw(st.sampled_from([0, t - 3, t - 2])
                             | st.integers(0, t - 2)))
    edge = one_gemm_max_n_in(t)
    near = [n for n in (edge, edge + 1) if 1 <= n <= 1024]
    sizes = st.integers(1, 1024)
    if values == "near_bound":
        n_in = draw(st.integers(near_bound_min_n_in(t), 1024))
    else:
        n_in = draw(st.sampled_from(near) | sizes if near else sizes)
    rows, outs = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if values == "uniform":
        x = rng.integers(q.raw_min, q.raw_max + 1, size=(rows, n_in))
        w = rng.integers(q.raw_min, q.raw_max + 1, size=(outs, n_in))
    elif values == "extremes":
        pool = np.array([q.raw_min, q.raw_min + 1, -1, 0, 1, q.raw_max - 1,
                         q.raw_max])
        x = rng.choice(pool, size=(rows, n_in))
        w = rng.choice(pool, size=(outs, n_in))
    elif values == "cancel":
        # partial sums near n_in * 2**(2t-2) that cancel to a small result
        x = np.full((rows, n_in), q.raw_max)
        w = np.where(np.arange(n_in) < n_in // 2, q.raw_max, -q.raw_max)
        w = np.tile(w, (outs, 1))
    else:
        x, w, b = near_bound(rng, q, rows, n_in, outs)
        return q, x, w, b, False
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


# near_bound takes about a quarter of mac_cases' draws; 400 examples leave
# the uniform, extremes and cancel kinds about 300 between them
@settings(max_examples=400, deadline=None)
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


def row_l1_max(w, shift: int) -> int:
    return max(sum(abs(int(v) >> shift) for v in wj) for wj in w)


@settings(max_examples=300, deadline=None)
@given(mac_cases())
def test_mac_regime_sized_by_row_l1(case):
    # one GEMM exactly when 2**(t-1) * ||w_j||_1 + |b_j| * 2**f <= 2**53 for
    # every row; otherwise k-bit limbs under the lowest top limb s that
    # keeps 2**(t-1) * max_j ||(w >> s)_j||_1 within 2**53.  The array
    # loaded here and the one fx_linear loads per call agree.
    q, x, w, b, _ = case
    t, f = q.total_bits, q.frac_bits
    mac = MacArray(FixedTensor(w, q), FixedTensor(b, q))
    bound = max((sum(abs(int(v)) for v in wj) << (t - 1))
                + (abs(int(bj)) << f) for wj, bj in zip(w, b))
    if bound <= 1 << 53:
        assert mac.wt is not None and mac.limbs == ()
    else:
        k = 52 - (t - 1) - (w.shape[1] - 1).bit_length()
        top = next(s for s in range(0, t - 1, k)
                   if row_l1_max(w, s) << (t - 1) <= 1 << 53)
        assert mac.wt is None
        assert [s for s, _ in mac.limbs] == list(range(top, -1, -k))
    once = fx_linear(FixedTensor(x, q), FixedTensor(w, q), FixedTensor(b, q),
                     q)
    assert np.array_equal(mac(FixedTensor(x, q)).raw, once.raw)


def assert_codec_regimes(model):
    # one GEMM per layer at Q24.3 and at most two limbs per layer at Q32.3
    def macs(t):
        qm = fx.quantize_model(model, fx.make_qformat(t, 3))
        return [l for net in (qm.encoder, qm.decoder) for l in net.layers]

    assert all(mac.wt is not None for mac in macs(24))
    assert all(len(mac.limbs) <= 2 for mac in macs(32))


def test_bench_codec_regimes():
    # the benchmark's short-schedule 128x5 codec
    model = ae.build_model(fx.OfdmConfig(), 128, 5, seed=0)
    cfg = fx.TrainConfig(seed=0, batch_size=64, epochs=4, batches_per_epoch=50)
    assert_codec_regimes(ae.train(model, cfg, channel="rayleigh").model)


def test_reference_codec_regimes(ref_model):
    # the full-schedule reference codec of configs/reference.ini
    assert_codec_regimes(ref_model)


@st.composite
def net_cases(draw):
    # with 1 to 9 inputs a layer is one GEMM up to t = 25 and weight limbs
    # from t = 28; at 26 and 27 the input count decides
    t = draw(st.sampled_from([8, 16, 24, 26, 27, 32]) | st.integers(8, 32))
    q = make_qformat(t, draw(st.sampled_from([0, t - 2])
                             | st.integers(0, t - 2)))
    dims = draw(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    acts = draw(st.lists(st.sampled_from(["relu", "linear"]),
                         min_size=len(dims) - 1, max_size=len(dims) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # scales up to 4x the format's range saturate parameters and taps
    scale = 2.0 ** draw(st.integers(-3, q.int_bits + 2))
    net = FCNet([DenseLayer(rng.normal(0, scale, (dout, din)),
                            rng.normal(0, scale, dout), act)
                 for din, dout, act in zip(dims, dims[1:], acts)])
    rows = draw(st.sampled_from([None, 1, 5]))      # None: one vector
    x = rng.normal(0, scale, dims[0] if rows is None else (rows, dims[0]))
    return q, net, x


@settings(max_examples=200, deadline=None)
@given(net_cases())
def test_forward_fixed_taps_match_oracle(case):
    # each tap is the Python-int MAC of the oracle's previous tap, rounded
    # half to even, saturated, then relu'd
    q, net, x = case
    t, f = q.total_bits, q.frac_bits
    qnet = quantize_net(net, q)
    _, taps = forward_fixed(qnet, x)
    a = [[oracle_quantize_raw(v, t, f) for v in row]
         for row in np.atleast_2d(x)]
    for layer, tap in zip(qnet.layers, taps):
        relu = layer.activation == "relu"
        a = [[max(y, 0) if relu else y
              for y in (oracle_dot_raw(row, wj, bj, t, f)
                        for wj, bj in zip(layer.w.raw, layer.b.raw))]
             for row in a]
        assert tap.fmt == q and tap.raw.shape == x.shape[:-1] + (len(a[0]),)
        assert np.atleast_2d(tap.raw).tolist() == a
