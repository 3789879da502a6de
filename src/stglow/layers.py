"""Small neural building blocks shared by the encoder and the decoder.

Every layer subclasses `Layer`, whose one `params()` lists parameters from
the layer's attributes in the order they were set: each `Tensor` with
`requires_grad` under the attribute's name, and each `Layer`'s own
parameters under `<attribute>.`. Attributes that are None, that hold
anything else (plain-array caches such as `InvertibleLinear._inv_t`), or
whose names start with `_` are skipped. Training and checkpoints see
exactly the listed parameters. `cast(dtype)` walks the same attributes to
build an untaped copy that computes in another dtype. Initialization draws
from a caller-supplied numpy Generator so model construction is fully
deterministic under a seed.
"""

from __future__ import annotations

import copy

import numpy as np

from . import numcore as nc
from .errors import ConfigError
from .numcore import Tensor


class Layer:
    """Defines only `params()`: `bench/spans` patches subclasses' `__init__`/`__call__` and weak-keys instances."""

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, val in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(val, Tensor) and val.requires_grad:
                out[name] = val
            elif isinstance(val, Layer):
                out.update({f"{name}.{k}": v for k, v in val.params().items()})
        return out

    def cast(self, dtype) -> "Layer":
        """A shallow copy for untaped passes in `dtype`: each parameter that
        `params()` would list by attribute is a `dtype` copy, each `Layer`
        attribute is cast likewise, and every other attribute is shared."""
        out = copy.copy(self)
        for name, val in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(val, Tensor) and val.requires_grad:
                setattr(out, name, nc.cast(val, dtype))
            elif isinstance(val, Layer):
                setattr(out, name, val.cast(dtype))
        return out


def _init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))


class Linear(Layer):
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int, bias: bool = True, zero_init: bool = False):
        w = np.zeros((d_in, d_out)) if zero_init else _init_weight(rng, d_in, d_out)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return nc.linear(x, self.w, self.b)


class Mlp(Layer):
    """Two-layer perceptron with ReLU in between."""

    def __init__(self, rng, d_in: int, d_hidden: int, d_out: int):
        self.fc0 = Linear(rng, d_in, d_hidden)
        self.fc1 = Linear(rng, d_hidden, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc1(nc.relu(self.fc0(x)))


class ReluLinear(Layer):
    """Single linear layer followed by ReLU."""

    def __init__(self, rng, d_in: int, d_out: int):
        self.fc = Linear(rng, d_in, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return nc.relu(self.fc(x))


class GruCell(Layer):
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


class MultiHeadSelfAttention(Layer):
    """Masked multi-head self-attention over stacks of node embeddings.

    The input is (P, T, d): P graphs of T nodes each, attended to
    independently. One bias-free (d, 3d) projection `wqkv` gives every
    head's queries, keys and values; its columns hold the H query heads,
    then the H key heads, then the H value heads, d_k = d / H columns each.
    A call is the projection, its (P, T, 3, H, d_k) reshape, one
    `nc.attention` node over every head of every graph, and `wo`. The mask
    is (T, T), shared by all P graphs, or (P, T, T), one per graph.

    By default every node queries, and the output is (P, T, d). With
    `rows`, a (P,) int array, only node `rows[p]` of graph p queries, keys
    and values still coming from every node, and the output is the (P, 1, d)
    stack of the rows an all-rows call would give (up to rounding).

    While `capture` is a list, each call appends every head's post-softmax
    weights to it, graph by graph: (T, T) maps, or with `rows` (1, T) rows.
    """

    def __init__(self, rng, d_model: int, n_heads: int):
        if d_model % n_heads != 0:
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

    def __call__(self, x: Tensor, mask: np.ndarray | None, rows: np.ndarray | None = None) -> Tensor:
        p, t, d = x.shape
        qkv = nc.reshape(nc.linear(x, self.wqkv), (p, t, 3, self.n_heads, self.d_k))
        heads = nc.attention(qkv, mask, rows, self.capture)  # (P, T_q, H, d_k)
        return self.wo(nc.reshape(heads, (p, heads.shape[1], d)))


class TransformerBlock(Layer):
    """One attention + feed-forward block with plain residual connections,
    over (P, T, d) stacks of node embeddings.

    Residual branches start small (0.25x init) so the stream stays near its
    input scale; there is no normalization layer to absorb drift otherwise.
    With `rows`, a (P,) int array, only node `rows[p]` of graph p is
    computed past the attention's keys and values, and the result is (P, d).
    Those rows run as a (P, 1, d) stack, so each is multiplied as a single
    row whatever P is, and a graph's bits do not depend on its batch.
    """

    def __init__(self, rng, d_model: int, n_heads: int):
        self.attn = MultiHeadSelfAttention(rng, d_model, n_heads)
        self.attn.wo.w.data *= 0.25
        self.ffn = Mlp(rng, d_model, 2 * d_model, d_model)
        self.ffn.fc1.w.data *= 0.25

    def __call__(self, x: Tensor, mask: np.ndarray | None, rows: np.ndarray | None = None) -> Tensor:
        attended = self.attn(x, mask, rows)
        if rows is not None:
            x = nc.index(x, (np.arange(x.shape[0])[:, None], rows[:, None]))  # (P, 1, d)
        x = nc.add(x, attended)
        x = nc.add(x, self.ffn(x))
        return x if rows is None else nc.reshape(x, (x.shape[0], x.shape[2]))
