"""Neural-network layers with manual forward/backward passes.

The EDDL-substitute: enough of a deep-learning library to train the
paper's AF architecture — two 1-D convolutional layers with 32 filters
and a final dense layer with 32 neurons (§III-D) — on NumPy.

Convolutions operate on (batch, channels, length) tensors and use
``sliding_window_view`` + one GEMM per pass (the im2col approach), so
the heavy lifting stays inside BLAS.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.initializers import glorot_uniform, he_normal


class Layer:
    """Base layer: forward/backward plus parameter access."""

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def params(self) -> list[np.ndarray]:
        return []

    @property
    def grads(self) -> list[np.ndarray]:
        return []

    def config(self) -> dict:
        return {"type": type(self).__name__}


class Conv1D(Layer):
    """1-D valid convolution (cross-correlation) over the length axis.

    Input (N, C_in, L) -> output (N, C_out, L - k + 1).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, rng: np.random.Generator | None = None):
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan_in = in_channels * kernel_size
        self.w = he_normal((out_channels, in_channels, kernel_size), fan_in, rng)
        self.b = np.zeros(out_channels)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cols: np.ndarray | None = None
        self._in_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv1D expects (N, {self.in_channels}, L); got {x.shape}"
            )
        if x.shape[2] < self.kernel_size:
            raise ValueError("input shorter than kernel")
        # (N, C, L_out, k)
        windows = sliding_window_view(x, self.kernel_size, axis=2)
        n, c, l_out, k = windows.shape
        cols = windows.transpose(0, 2, 1, 3).reshape(n * l_out, c * k)
        w_flat = self.w.reshape(self.out_channels, c * k)
        out = cols @ w_flat.T + self.b
        if training:
            self._cols = cols
            self._in_shape = x.shape
        return out.reshape(n, l_out, self.out_channels).transpose(0, 2, 1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c_out, l_out = grad.shape
        g = grad.transpose(0, 2, 1).reshape(n * l_out, c_out)
        assert self._cols is not None, "backward before forward"
        w_flat = self.w.reshape(c_out, -1)
        self.dw = (g.T @ self._cols).reshape(self.w.shape) / n
        self.db = g.sum(axis=0) / n
        dcols = g @ w_flat  # (n*l_out, c_in*k)
        # col2im: scatter-add each window back onto the input axis
        _, c_in, l_in = self._in_shape
        dcols = dcols.reshape(n, l_out, c_in, self.kernel_size)
        dx = np.zeros(self._in_shape)
        for off in range(self.kernel_size):
            dx[:, :, off : off + l_out] += dcols[:, :, :, off].transpose(0, 2, 1)
        return dx

    @property
    def params(self):
        return [self.w, self.b]

    @property
    def grads(self):
        return [self.dw, self.db]

    def config(self) -> dict:
        return {
            "type": "Conv1D",
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_size": self.kernel_size,
        }


class MaxPool1D(Layer):
    """Non-overlapping max pooling; truncates a trailing remainder."""

    def __init__(self, pool_size: int = 2):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._argmax: np.ndarray | None = None
        self._in_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, l = x.shape
        p = self.pool_size
        l_out = l // p
        if l_out == 0:
            raise ValueError(f"length {l} shorter than pool size {p}")
        trimmed = x[:, :, : l_out * p].reshape(n, c, l_out, p)
        if training:
            self._argmax = trimmed.argmax(axis=3)
            self._in_shape = x.shape
        return trimmed.max(axis=3)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._argmax is not None
        n, c, l_out = grad.shape
        p = self.pool_size
        dx = np.zeros(self._in_shape)
        flat = dx[:, :, : l_out * p].reshape(n, c, l_out, p)
        ni, ci, li = np.indices((n, c, l_out))
        flat[ni, ci, li, self._argmax] = grad
        return dx

    def config(self) -> dict:
        return {"type": "MaxPool1D", "pool_size": self.pool_size}


class ReLU(Layer):
    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._mask = x > 0
            return x * self._mask
        return np.maximum(x, 0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return grad * self._mask

    def config(self) -> dict:
        return {"type": "ReLU"}


class Flatten(Layer):
    def __init__(self):
        self._in_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._in_shape = x.shape
        return x.reshape(len(x), -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._in_shape is not None
        return grad.reshape(self._in_shape)

    def config(self) -> dict:
        return {"type": "Flatten"}


class Dense(Layer):
    """Fully-connected layer: (N, in) -> (N, out)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.w = glorot_uniform((in_features, out_features), in_features, out_features, rng)
        self.b = np.zeros(out_features)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expects (N, {self.in_features}); got {x.shape}"
            )
        if training:
            self._x = x
        return x @ self.w + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None
        n = len(grad)
        self.dw = self._x.T @ grad / n
        self.db = grad.sum(axis=0) / n
        return grad @ self.w.T

    @property
    def params(self):
        return [self.w, self.b]

    @property
    def grads(self):
        return [self.dw, self.db]

    def config(self) -> dict:
        return {
            "type": "Dense",
            "in_features": self.in_features,
            "out_features": self.out_features,
        }


_LAYER_TYPES = {
    "Conv1D": lambda cfg, rng: Conv1D(cfg["in_channels"], cfg["out_channels"], cfg["kernel_size"], rng),
    "MaxPool1D": lambda cfg, rng: MaxPool1D(cfg["pool_size"]),
    "ReLU": lambda cfg, rng: ReLU(),
    "Flatten": lambda cfg, rng: Flatten(),
    "Dense": lambda cfg, rng: Dense(cfg["in_features"], cfg["out_features"], rng),
}


def layer_from_config(cfg: dict, rng: np.random.Generator | None = None) -> Layer:
    """Rebuild a layer from its :meth:`Layer.config` dict."""
    try:
        factory = _LAYER_TYPES[cfg["type"]]
    except KeyError:
        raise ValueError(f"unknown layer type {cfg.get('type')!r}") from None
    return factory(cfg, rng or np.random.default_rng(0))
