"""Minimal fully-connected network with two inference datapaths.

The float path (64-bit throughout) is what the learning side trains and
what serves as the reference for implementation-error measurements.  The
fixed path evaluates the same network on quantized weights with one MAC
accumulation + requantization per neuron, mirroring a hardware layer:
each quantized layer loads its MAC operands once, when it is built, and
fuses its ReLU into the saturating clamp.
Both paths expose every layer's post-activation output so the error
introduced by the fixed datapath can be tracked layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import (FixedTensor, MacArray, QFormat, quantize,
                         saturation_count)

ACTIVATIONS = ("relu", "linear")


def n_params(dims: list[int]) -> int:
    """Length of the flat parameter vector of a dense stack with dims."""
    return sum(din * dout + dout for din, dout in zip(dims[:-1], dims[1:]))


def layer_views(params: np.ndarray, dims: list[int]):
    """Per-layer (W, b) views of a flat parameter vector laid out like the
    .fxl payload: per layer, W row-major [out, in], then b [out]."""
    if params.shape != (n_params(dims),):
        raise ValueError(f"{params.size} parameters do not fit dims {dims}")
    views, pos = [], 0
    for din, dout in zip(dims[:-1], dims[1:]):
        end = pos + din * dout
        views.append((params[pos:end].reshape(dout, din),
                      params[end:end + dout]))
        pos = end + dout
    return views


@dataclass(frozen=True)
class DenseLayer:
    w: np.ndarray           # [out, in]
    b: np.ndarray           # [out]
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w.shape[0]


class FCNet:
    """Dense stack; each layer's w and b are views into one flat float64
    vector, params.  FCNet(layers) copies the arrays into a new one."""

    fmt = None                      # float64: on no Q-format grid

    def __init__(self, layers: list[DenseLayer]):
        dims = [layers[0].in_dim] + [l.out_dim for l in layers]
        self.params = np.empty(n_params(dims))
        self.layers = []
        for (w, b), l in zip(layer_views(self.params, dims), layers):
            w[...], b[...] = l.w, l.b
            self.layers.append(DenseLayer(w, b, l.activation))

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].in_dim] + [l.out_dim for l in self.layers]

    def copy(self) -> "FCNet":
        return FCNet(self.layers)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 20
    batches_per_epoch: int = 100
    seed: int = 0
    snr_range_db: tuple[float, float] = (5.0, 25.0)

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if min(self.batch_size, self.epochs, self.batches_per_epoch) < 1:
            raise ValueError("batch_size, epochs and batches_per_epoch must "
                             "be at least 1")
        lo, hi = self.snr_range_db
        if not -np.inf < lo <= hi < np.inf:
            raise ValueError("snr_range_db must be a finite lo <= hi")


def init_he(dims: list[int], seed: int = 0) -> FCNet:
    """He-initialized network: W ~ N(0, 2/fan_in), zero biases.

    Relu on every layer but the last, linear output.  Deterministic for a
    given seed.
    """
    if len(dims) < 2:
        raise ValueError("dims needs an input and an output size")
    activations = ["relu"] * (len(dims) - 2) + ["linear"]
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out, act in zip(dims[:-1], dims[1:], activations):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        layers.append(DenseLayer(w, np.zeros(fan_out), act))
    return FCNet(layers)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else z


def forward_float(net: FCNet, x: np.ndarray):
    """Float64 forward pass.

    x may be a vector [in] or a batch [n, in].  Returns (y, per_layer)
    where per_layer[i] is layer i's post-activation output.
    """
    x = np.asarray(x, dtype=np.float64)
    per_layer = []
    a = x
    for layer in net.layers:
        a = _act(a @ layer.w.T + layer.b, layer.activation)
        per_layer.append(a)
    return a, per_layer


def _backward_from(net: FCNet, x: np.ndarray, per_layer, g_out: np.ndarray):
    """Backprop an upstream gradient through the net.

    x is a batch of network inputs [n, in], per_layer the post-activation
    outputs that forward_float returned for it and g_out [n, out]; relu'(z)
    is exactly (a > 0) for a = relu(z), so no pre-activations are needed.
    Returns (grads, g_in): the parameter gradient summed over the batch as
    one flat vector laid out like net.params, and the gradient w.r.t. the
    network input.
    """
    grads = np.empty_like(net.params)
    views = layer_views(grads, net.dims)
    g = g_out
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        gw, gb = views[i]
        gz = g * (per_layer[i] > 0) if layer.activation == "relu" else g
        a_prev = per_layer[i - 1] if i else x
        np.matmul(gz.T, a_prev, out=gw)
        gz.sum(axis=0, out=gb)
        g = gz @ layer.w
    return grads, g


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def optimizer_step(params, grads, state, cfg: TrainConfig):
    """One in-place Adam update of a flat vector (net.params); returns state.

    Adam uses beta1=0.9, beta2=0.999, eps=1e-8 with bias correction and
    creates its state when state is None.
    """
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch {params.shape} vs {grads.shape}")
    lr = cfg.learning_rate
    b1, b2, eps = 0.9, 0.999, 1e-8
    if state is None:
        state = AdamState(np.zeros_like(params), np.zeros_like(params))
    state.t += 1
    state.m = b1 * state.m + (1 - b1) * grads
    state.v = b2 * state.v + (1 - b2) * grads * grads
    m_hat = state.m / (1 - b1 ** state.t)
    v_hat = state.v / (1 - b2 ** state.t)
    params -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


@dataclass
class QuantizedNet:
    """FCNet with every parameter on a Q-format grid, stored as raw ints.
    Its format is its layers' (quantize_net puts them on one grid)."""

    layers: list[MacArray]
    saturated_params: int = 0

    @property
    def fmt(self) -> QFormat:
        return self.layers[0].w.fmt

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].w.raw.shape[1]] + \
            [l.w.raw.shape[0] for l in self.layers]


def quantize_net(net: FCNet, fmt: QFormat) -> QuantizedNet:
    """Snap every weight and bias of a float net onto fmt's grid: one
    MacArray per layer, which is the quantized layer.

    The raws are read-only: the layers' loaded MAC operands are copies, so
    a write to a raw would leave them stale.
    """
    q = quantize(net.params, fmt)
    q.raw.flags.writeable = False
    layers = [MacArray(FixedTensor(w, fmt), FixedTensor(b, fmt), l.activation)
              for (w, b), l in zip(layer_views(q.raw, net.dims), net.layers)]
    return QuantizedNet(layers, saturation_count(net.params, fmt))


def forward_fixed(qnet: QuantizedNet, x: np.ndarray):
    """Fixed-point forward pass on the quantized datapath.

    The input is quantized once; each layer is one call of the MacArray
    it is, whose saturating clamp also applies the layer's relu (exact,
    since 0 lies on every grid).  Returns (y, per_layer) where y is the
    dequantized output (vector or batch, matching x) and per_layer is the
    list of FixedTensor taps.
    """
    a = quantize(x, qnet.fmt)
    per_layer = []
    for layer in qnet.layers:
        a = layer(a)
        per_layer.append(a)
    return a.values, per_layer
