"""Network forward/backward checks against finite-difference oracles."""

import dataclasses

import numpy as np
import pytest

from fxlink.fixedpoint import FixedTensor, fx_linear, make_qformat, quantize
from fxlink.neuralnet import (DenseLayer, FCNet, TrainConfig, _backward_from,
                              forward_fixed, forward_float, init_he,
                              optimizer_step, quantize_net)

Q16 = make_qformat(16, 3)


def identity_net(n, activation="linear"):
    return FCNet([DenseLayer(np.eye(n), np.zeros(n), activation)])


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_deterministic():
    a = init_he([32, 512, 32], seed=7)
    b = init_he([32, 512, 32], seed=7)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b)


def test_init_variance_matches_he():
    net = init_he([512, 512, 512], seed=0)
    for layer in net.layers:
        assert np.var(layer.w) == pytest.approx(2.0 / 512, rel=0.1)
        assert np.all(layer.b == 0.0)


def test_init_rejects_single_dim():
    with pytest.raises(ValueError):
        init_he([32], seed=0)


# ---------------------------------------------------------------------------
# float forward
# ---------------------------------------------------------------------------

def test_forward_identity():
    net = identity_net(4)
    x = np.array([0.3, -1.2, 5.0, 0.0])
    y, taps = forward_float(net, x)
    assert np.array_equal(y, x)
    assert len(taps) == 1


def test_forward_relu():
    net = identity_net(2, activation="relu")
    y, _ = forward_float(net, np.array([-1.0, 2.0]))
    assert np.array_equal(y, [0.0, 2.0])


def test_forward_tap_count_and_batch():
    net = init_he([8, 16, 16, 8], seed=1)
    x = np.random.default_rng(0).normal(size=(5, 8))
    y, taps = forward_float(net, x)
    assert len(taps) == net.depth == 3
    assert y.shape == (5, 8)
    # batch rows independent (BLAS batch/single paths may differ by ulps)
    y0, _ = forward_float(net, x[0])
    assert np.allclose(y, np.stack([forward_float(net, r)[0] for r in x]),
                       rtol=0, atol=1e-12)
    assert np.allclose(y[0], y0, rtol=0, atol=1e-12)


def test_forward_dim_mismatch():
    # the first layer's matmul, or the first MacArray, rejects the width
    net = init_he([8, 4], seed=0)
    for fwd, n in ((forward_float, net),
                   (forward_fixed, quantize_net(net, Q16))):
        for x in (np.zeros(5), np.zeros((3, 5))):
            with pytest.raises(ValueError):
                fwd(n, x)


# ---------------------------------------------------------------------------
# gradients vs central differences
# ---------------------------------------------------------------------------

def backward(net, x, target):
    """(MSE loss, its gradient laid out like net.params) by forward_float
    and the production backprop, _backward_from; vectors run as one-row
    batches."""
    x, target = np.atleast_2d(x), np.atleast_2d(target)
    y, per_layer = forward_float(net, x)
    diff = y - target
    grads, _ = _backward_from(net, x, per_layer, 2.0 * diff / diff.size)
    return float(np.mean(diff ** 2)), grads


def central_diff_grads(net, x, target, h=1e-5):
    flat = net.params
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        lp, _ = backward(net, x, target)
        flat[i] = old - h
        lm, _ = backward(net, x, target)
        flat[i] = old
        grads[i] = (lp - lm) / (2 * h)
    return grads


def test_zero_loss_zero_gradient():
    net = init_he([3, 5, 3], seed=2)
    x = np.array([0.1, -0.4, 0.7])
    y, _ = forward_float(net, x)
    loss, grads = backward(net, x, y)
    assert loss == 0.0
    assert np.all(grads == 0.0)


def test_linear_1x1_hand_gradient():
    w = 1.7
    net = FCNet([DenseLayer(np.array([[w]]), np.zeros(1), "linear")])
    x, t = np.array([0.6]), np.array([2.0])
    _, grads = backward(net, x, t)
    # flat layout: W[0, 0], then b[0]
    assert grads[0] == pytest.approx(2 * (w * x[0] - t[0]) * x[0])


def sample_away_from_kinks(net, rng, margin=1e-3, tries=100):
    """Input whose pre-activations all clear the relu kink by `margin`.

    Central differences are only a valid oracle where the function is
    smooth; zero biases make dead-relu chains sit exactly on the kink.
    """
    for _ in range(tries):
        x = rng.normal(size=net.layers[0].in_dim)
        a, pre = x, []
        for layer in net.layers:
            pre.append(a @ layer.w.T + layer.b)
            a = np.maximum(pre[-1], 0.0) if layer.activation == "relu" \
                else pre[-1]
        if min(float(np.min(np.abs(z))) for z in pre) > margin:
            return x
    return None


def test_gradcheck_100_random_nets():
    # acceptance oracle: rel err < 1e-4 on 100 small nets
    rng = np.random.default_rng(3)
    worst = 0.0
    checked = 0
    k = 0
    while checked < 100:
        k += 1
        n_layers = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 9)) for _ in range(n_layers + 1)]
        net = init_he(dims, seed=k)
        x = sample_away_from_kinks(net, rng)
        if x is None:
            continue
        target = rng.normal(size=dims[-1])
        _, grads = backward(net, x, target)
        fd = central_diff_grads(net, x, target)
        denom = np.maximum(np.maximum(np.abs(grads), np.abs(fd)), 1e-6)
        worst = max(worst, float(np.max(np.abs(grads - fd) / denom)))
        checked += 1
    assert worst < 1e-4


def test_backward_batch_matches_sum_of_samples():
    net = init_he([4, 6, 4], seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 4))
    t = rng.normal(size=(3, 4))
    _, batch_grads = backward(net, x, t)
    acc = np.zeros_like(net.params)
    for i in range(3):
        _, g = backward(net, x[i:i + 1], t[i:i + 1])
        acc += g / 3.0
    assert np.allclose(batch_grads, acc, atol=1e-12)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_sgd_rule():
    cfg = TrainConfig(learning_rate=0.1, optimizer="sgd")
    p = np.array([1.0])
    optimizer_step(p, np.array([2.0]), None, cfg)
    assert p[0] == pytest.approx(0.8)


def test_sgd_zero_gradient_no_change():
    cfg = TrainConfig(learning_rate=0.5, optimizer="sgd")
    p = np.array([3.0, -1.0])
    optimizer_step(p, np.zeros(2), None, cfg)
    assert np.array_equal(p, [3.0, -1.0])


def test_adam_first_step_magnitude():
    # bias-corrected first step is ~lr regardless of gradient scale
    cfg = TrainConfig(learning_rate=0.01, optimizer="adam")
    for c in (2.0, 1e-3, 500.0):
        p = np.array([1.0])
        optimizer_step(p, np.array([c]), None, cfg)
        step = 1.0 - p[0]
        assert step == pytest.approx(cfg.learning_rate * c / (c + 1e-8),
                                     rel=1e-9)


def test_optimizer_shape_mismatch():
    cfg = TrainConfig(optimizer="sgd")
    with pytest.raises(ValueError):
        optimizer_step(np.zeros(2), np.zeros(3), None, cfg)


# ---------------------------------------------------------------------------
# one flat parameter vector per network
# ---------------------------------------------------------------------------

def test_layer_rebinding_raises():
    # rebinding would detach the layer from net.params
    net = init_he([3, 4, 2], seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.layers[0].w = np.zeros((4, 3))


def test_copy_shares_no_memory():
    net = init_he([3, 4, 2], seed=0)
    dup = net.copy()
    assert np.array_equal(dup.params, net.params)
    for a in [dup.params] + [x for l in dup.layers for x in (l.w, l.b)]:
        assert not np.shares_memory(a, net.params)


# ---------------------------------------------------------------------------
# fixed-point forward
# ---------------------------------------------------------------------------

def test_fixed_identity_on_grid():
    qnet = quantize_net(identity_net(4), Q16)
    x = np.array([0.5, -0.25, 1.0, 0.125])  # all on the Q16.3 grid
    y, taps = forward_fixed(qnet, x)
    assert np.array_equal(y, x)
    assert len(taps) == 1


def test_fixed_32bit_close_to_float():
    q32 = make_qformat(32, 3)
    rng = np.random.default_rng(7)
    net = init_he([16, 32, 32, 16], seed=9)
    x = rng.uniform(-0.7, 0.7, size=(50, 16))
    y_float, _ = forward_float(net, x)
    y_fixed, _ = forward_fixed(quantize_net(net, q32), x)
    rel = np.sqrt(np.mean((y_fixed - y_float) ** 2)
                  / np.mean(y_float ** 2))
    assert rel <= 1e-5


def test_relu_on_raw_equals_relu_then_quantize():
    # an identity relu layer applies relu in its fused saturating clamp
    rng = np.random.default_rng(8)
    x = rng.uniform(-3, 3, size=(250, 4))
    _, (tap,) = forward_fixed(quantize_net(identity_net(4, "relu"), Q16), x)
    b = quantize(np.maximum(x, 0.0), Q16)
    assert np.array_equal(tap.values, b.values)
    assert np.array_equal(tap.raw, b.raw)


@pytest.mark.parametrize("bits", [16, 32])      # one GEMM, weight limbs
def test_fx_linear_equals_loaded_layer(bits):
    q = make_qformat(bits, 3)
    rng = np.random.default_rng(bits)
    net = init_he([12, 9, 5], seed=bits)
    qnet = quantize_net(net, q)
    for x in (rng.uniform(-2, 2, size=12), rng.uniform(-2, 2, size=(7, 12))):
        a = quantize(x, q)
        for layer in qnet.layers:
            want = fx_linear(a, layer.w, layer.b, q).raw
            if layer.activation == "relu":
                want = np.maximum(want, 0)
            got = layer(a)
            assert got.fmt == q and np.array_equal(got.raw, want)
            a = got


def test_quantized_raw_is_read_only():
    # each layer loaded its MAC operands from these raws when it was built
    qnet = quantize_net(init_he([3, 4, 2], seed=0), Q16)
    with pytest.raises(ValueError):
        qnet.layers[0].w.raw[0, 0] = 1
    with pytest.raises(ValueError):
        qnet.layers[1].b.raw[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        qnet.layers[0].w = FixedTensor(np.zeros((4, 3), np.int64), Q16)


def test_per_layer_taps_align_between_engines():
    net = init_he([8, 12, 12, 8], seed=10)
    qnet = quantize_net(net, Q16)
    x = np.random.default_rng(11).uniform(-0.5, 0.5, size=(4, 8))
    _, f_taps = forward_float(net, x)
    _, q_taps = forward_fixed(qnet, x)
    assert len(f_taps) == len(q_taps)
    for f, qt in zip(f_taps, q_taps):
        assert f.shape == qt.raw.shape
