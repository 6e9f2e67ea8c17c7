"""Minimal fully-connected network with two inference datapaths.

The float path (64-bit throughout) is what the learning side trains and
what serves as the reference for implementation-error measurements.  The
fixed path evaluates the same network on quantized weights with one MAC
accumulation + requantization per neuron, mirroring a hardware layer.
Both paths expose every layer's post-activation output so the error
introduced by the fixed datapath can be tracked layer by layer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import (FixedTensor, QFormat, fx_linear, quantize, relu_raw,
                         saturation_count)

ACTIVATIONS = ("relu", "linear")


@dataclass
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


@dataclass
class FCNet:
    layers: list[DenseLayer]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].in_dim] + [l.out_dim for l in self.layers]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for l in self.layers:
            out.extend([l.w, l.b])
        return out

    def set_parameters(self, params: list[np.ndarray]) -> None:
        it = iter(params)
        for l in self.layers:
            l.w = next(it)
            l.b = next(it)

    def copy(self) -> "FCNet":
        return copy.deepcopy(self)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 20
    batches_per_epoch: int = 100
    optimizer: str = "adam"
    seed: int = 0
    snr_range_db: tuple[float, float] = (5.0, 25.0)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        lo, hi = self.snr_range_db
        if hi < lo:
            raise ValueError("snr_range_db must be non-empty")


def init_he(dims: list[int], activations: list[str] | None = None,
            seed: int = 0) -> FCNet:
    """He-initialized network: W ~ N(0, 2/fan_in), zero biases.

    Default activation plan is relu on every layer but the last, linear
    output.  Deterministic for a given seed.
    """
    if len(dims) < 2:
        raise ValueError("dims needs an input and an output size")
    if activations is None:
        activations = ["relu"] * (len(dims) - 2) + ["linear"]
    if len(activations) != len(dims) - 1:
        raise ValueError("one activation per weight layer required")
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
    if x.shape[-1] != net.layers[0].in_dim:
        raise ValueError(
            f"input dim {x.shape[-1]} != layer dim {net.layers[0].in_dim}")
    per_layer = []
    a = x
    for layer in net.layers:
        a = _act(a @ layer.w.T + layer.b, layer.activation)
        per_layer.append(a)
    return a, per_layer


def _backward_from(net: FCNet, x: np.ndarray, per_layer, g_out: np.ndarray):
    """Backprop an upstream gradient through the net.

    x is the network input and per_layer the post-activation outputs that
    forward_float returned for it; relu'(z) is exactly (a > 0) for
    a = relu(z), so no pre-activations are needed.  Returns (grads, g_in):
    per-parameter gradients in parameters() order and the gradient w.r.t.
    the network input.
    """
    grads = [None] * (2 * len(net.layers))
    g = g_out
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        gz = g * (per_layer[i] > 0) if layer.activation == "relu" else g
        a_prev = per_layer[i - 1] if i else x
        if gz.ndim == 1:
            grads[2 * i] = np.outer(gz, a_prev)
            grads[2 * i + 1] = gz.copy()
        else:
            grads[2 * i] = gz.T @ a_prev
            grads[2 * i + 1] = gz.sum(axis=0)
        g = gz @ layer.w
    return grads, g


def backward(net: FCNet, x: np.ndarray, target: np.ndarray,
             loss_kind: str = "mse"):
    """Analytic gradients of the loss w.r.t. every weight and bias.

    Returns (loss, grads) with grads in parameters() order.
    """
    if loss_kind != "mse":
        raise ValueError(f"unknown loss {loss_kind!r}")
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    y, per_layer = forward_float(net, x)
    if y.shape != target.shape:
        raise ValueError(f"target shape {target.shape} != output {y.shape}")
    diff = y - target
    loss = float(np.mean(diff ** 2))
    g_out = 2.0 * diff / diff.size
    grads, _ = _backward_from(net, x, per_layer, g_out)
    return loss, grads


@dataclass
class AdamState:
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0


def optimizer_step(params, grads, state, cfg: TrainConfig):
    """One optimizer update; returns (new_params, state).

    Adam uses beta1=0.9, beta2=0.999, eps=1e-8 with bias correction;
    'sgd' is the plain rule p - lr*g.
    """
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
    lr = cfg.learning_rate
    if cfg.optimizer == "sgd":
        return [p - lr * g for p, g in zip(params, grads)], state
    b1, b2, eps = 0.9, 0.999, 1e-8
    if state is None or not state.m:
        state = AdamState([np.zeros_like(p) for p in params],
                          [np.zeros_like(p) for p in params], 0)
    state.t += 1
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        m_hat = state.m[i] / (1 - b1 ** state.t)
        v_hat = state.v[i] / (1 - b2 ** state.t)
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
    return out, state


@dataclass
class QuantizedLayer:
    w: FixedTensor
    b: FixedTensor
    activation: str


@dataclass
class QuantizedNet:
    """FCNet with every parameter on a Q-format grid, stored as raw ints."""

    layers: list[QuantizedLayer]
    fmt: QFormat
    saturated_params: int = 0

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].w.raw.shape[1]] + \
            [l.w.raw.shape[0] for l in self.layers]

    def to_float(self) -> FCNet:
        return FCNet([DenseLayer(l.w.values, l.b.values, l.activation)
                      for l in self.layers])


def quantize_net(net: FCNet, fmt: QFormat) -> QuantizedNet:
    """Snap every weight and bias of a float net onto fmt's grid."""
    layers = []
    n_sat = 0
    for l in net.layers:
        n_sat += saturation_count(l.w, fmt) + saturation_count(l.b, fmt)
        layers.append(QuantizedLayer(quantize(l.w, fmt), quantize(l.b, fmt),
                                     l.activation))
    return QuantizedNet(layers, fmt, n_sat)


def forward_fixed(qnet: QuantizedNet, x: np.ndarray):
    """Fixed-point forward pass on the quantized datapath.

    The input is quantized once; each layer is one fx_linear MAC pass and
    relu acts directly on raw integers.  Returns (y, per_layer) where y is
    the dequantized output (vector or batch, matching x) and per_layer is
    the list of FixedTensor taps.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != qnet.layers[0].w.raw.shape[1]:
        raise ValueError(
            f"input dim {x.shape[-1]} != layer dim "
            f"{qnet.layers[0].w.raw.shape[1]}")
    a = quantize(x, qnet.fmt)
    per_layer = []
    for layer in qnet.layers:
        a = fx_linear(a, layer.w, layer.b, qnet.fmt)
        if layer.activation == "relu":
            a = relu_raw(a)
        per_layer.append(a)
    return a.values, per_layer
