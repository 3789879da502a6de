"""Small neural building blocks shared by the encoder and the decoder.

Every layer owns named `Tensor` parameters and exposes them through
`params()`; parents namespace the names with dots. Initialization draws
from a caller-supplied numpy Generator so model construction is fully
deterministic under a seed.
"""

from __future__ import annotations

import numpy as np

from . import numcore as nc
from .numcore import Tensor


def _init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))


class Linear:
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int, bias: bool = True, zero_init: bool = False):
        w = np.zeros((d_in, d_out)) if zero_init else _init_weight(rng, d_in, d_out)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return nc.linear(x, self.w, self.b)

    def params(self) -> dict[str, Tensor]:
        out = {"w": self.w}
        if self.b is not None:
            out["b"] = self.b
        return out


class Mlp:
    """Two-layer perceptron with ReLU in between."""

    def __init__(self, rng, d_in: int, d_hidden: int, d_out: int):
        self.fc0 = Linear(rng, d_in, d_hidden)
        self.fc1 = Linear(rng, d_hidden, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc1(nc.relu(self.fc0(x)))

    def params(self) -> dict[str, Tensor]:
        return _prefix({"fc0": self.fc0, "fc1": self.fc1})


class ReluLinear:
    """Single linear layer followed by ReLU."""

    def __init__(self, rng, d_in: int, d_out: int):
        self.fc = Linear(rng, d_in, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return nc.relu(self.fc(x))

    def params(self) -> dict[str, Tensor]:
        return _prefix({"fc": self.fc})


class GruCell:
    """Standard gated recurrent cell (update gate, reset gate, candidate).

    A step is one `nc.gru_cell` tape node over three fused tensors: the
    input weights `wx` (d_in, 3h), their bias `bx` (3h) and the bias-free
    hidden weights `wh` (h, 3h), each holding the z, r and n gates' columns
    in that order.
    """

    def __init__(self, rng, d_in: int, d_hidden: int):
        self.wx = Tensor(np.empty((d_in, 3 * d_hidden)), requires_grad=True)
        self.bx = Tensor(np.zeros(3 * d_hidden), requires_grad=True)
        self.wh = Tensor(np.empty((d_hidden, 3 * d_hidden)), requires_grad=True)
        # drawn gate by gate (input, then hidden weights), so the initial
        # weights are those of six separate per-gate projections
        for g in range(3):
            gate = slice(g * d_hidden, (g + 1) * d_hidden)
            self.wx.data[:, gate] = _init_weight(rng, d_in, d_hidden)
            self.wh.data[:, gate] = _init_weight(rng, d_hidden, d_hidden)

    def __call__(self, h: Tensor, x: Tensor) -> Tensor:
        return nc.gru_cell(h, x, self.wx, self.bx, self.wh)

    def params(self) -> dict[str, Tensor]:
        return {"wx": self.wx, "bx": self.bx, "wh": self.wh}


class MultiHeadSelfAttention:
    """Masked multi-head self-attention over stacks of node embeddings.

    The input is (P, T, d): P graphs of T nodes each, attended to
    independently. One bias-free (d, 3d) projection `wqkv` gives every
    head's queries, keys and values; its columns hold the H query heads,
    then the H key heads, then the H value heads, d_k = d / H columns each.
    All heads then attend as one (P, H, T, T) batch.

    The mask is (T, T), shared by all P graphs, or (P, T, T), one per
    graph, with entries in {1, NEG_INF}; masked score entries are replaced
    by the sentinel before the softmax so their post-softmax weight is
    exactly zero. While `capture` is a list, each call appends the
    post-softmax (T, T) weight matrix of every head of every graph to it,
    graph by graph.
    """

    def __init__(self, rng, d_model: int, n_heads: int):
        if d_model % n_heads != 0:
            from .errors import ConfigError

            raise ConfigError(f"n_heads {n_heads} must divide model width {d_model}")
        self.n_heads = n_heads
        self.d_k = d_model // n_heads
        self.wqkv = Tensor(np.empty((d_model, 3 * d_model)), requires_grad=True)
        # drawn head by head in the fused column order, so the initial
        # weights are those of 3 * n_heads separate (d, d_k) projections
        for i in range(3 * n_heads):
            self.wqkv.data[:, i * self.d_k : (i + 1) * self.d_k] = _init_weight(rng, d_model, self.d_k)
        self.wo = Linear(rng, d_model, d_model, bias=False)
        self.capture: list[np.ndarray] | None = None

    def __call__(self, x: Tensor, mask: np.ndarray | None) -> Tensor:
        p, t, d = x.shape
        qkv = nc.reshape(nc.linear(x, self.wqkv), (p, t, 3, self.n_heads, self.d_k))
        qkv = nc.permute(qkv, (2, 0, 3, 1, 4))  # (3, P, H, T, d_k)
        q, k, v = (nc.index(qkv, i) for i in range(3))
        scores = nc.mul(nc.bmm(q, nc.transpose(k)), 1.0 / np.sqrt(self.d_k))
        if mask is not None:
            scores = nc.apply_mask(scores, mask)
        weights = nc.softmax_lastdim(scores)
        if self.capture is not None:
            self.capture.extend(weights.data.reshape(-1, t, t))
        heads = nc.permute(nc.bmm(weights, v), (0, 2, 1, 3))  # (P, T, H, d_k)
        return self.wo(nc.reshape(heads, (p, t, d)))

    def params(self) -> dict[str, Tensor]:
        return {"wqkv": self.wqkv, **{f"wo.{k}": v for k, v in self.wo.params().items()}}


class TransformerBlock:
    """One attention + feed-forward block with plain residual connections,
    over (P, T, d) stacks of node embeddings.

    Residual branches start small (0.25x init) so the stream stays near its
    input scale; there is no normalization layer to absorb drift otherwise.
    """

    def __init__(self, rng, d_model: int, n_heads: int):
        self.attn = MultiHeadSelfAttention(rng, d_model, n_heads)
        self.attn.wo.w.data *= 0.25
        self.ffn = Mlp(rng, d_model, 2 * d_model, d_model)
        self.ffn.fc1.w.data *= 0.25

    def __call__(self, x: Tensor, mask: np.ndarray | None) -> Tensor:
        x = nc.add(x, self.attn(x, mask))
        return nc.add(x, self.ffn(x))

    def params(self) -> dict[str, Tensor]:
        return _prefix({"attn": self.attn, "ffn": self.ffn})


def _prefix(children: dict[str, object]) -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    for name, child in children.items():
        for k, v in child.params().items():
            out[f"{name}.{k}"] = v
    return out
