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


def _init_weight(rng: np.random.Generator, fan_in: int, fan_out: int, scale: float | None = None) -> np.ndarray:
    std = scale if scale is not None else (1.0 / np.sqrt(fan_in))
    return rng.normal(0.0, std, size=(fan_in, fan_out))


class Linear:
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int, bias: bool = True, zero_init: bool = False):
        w = np.zeros((d_in, d_out)) if zero_init else _init_weight(rng, d_in, d_out)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = nc.matmul(x, self.w)
        if self.b is not None:
            out = nc.add(out, self.b)
        return out

    def params(self) -> dict[str, Tensor]:
        out = {"w": self.w}
        if self.b is not None:
            out["b"] = self.b
        return out


class Mlp:
    """Two-layer perceptron with ReLU in between."""

    def __init__(self, rng, d_in: int, d_hidden: int, d_out: int, zero_init_out: bool = False):
        self.fc0 = Linear(rng, d_in, d_hidden)
        self.fc1 = Linear(rng, d_hidden, d_out, zero_init=zero_init_out)

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
    """Standard gated recurrent cell (update gate, reset gate, candidate)."""

    def __init__(self, rng, d_in: int, d_hidden: int):
        self.wxz = Linear(rng, d_in, d_hidden)
        self.whz = Linear(rng, d_hidden, d_hidden, bias=False)
        self.wxr = Linear(rng, d_in, d_hidden)
        self.whr = Linear(rng, d_hidden, d_hidden, bias=False)
        self.wxn = Linear(rng, d_in, d_hidden)
        self.whn = Linear(rng, d_hidden, d_hidden, bias=False)

    def __call__(self, h: Tensor, x: Tensor) -> Tensor:
        z = nc.sigmoid(nc.add(self.wxz(x), self.whz(h)))
        r = nc.sigmoid(nc.add(self.wxr(x), self.whr(h)))
        n = nc.tanh(nc.add(self.wxn(x), self.whn(nc.mul(r, h))))
        one_minus_z = nc.sub(1.0, z)
        return nc.add(nc.mul(one_minus_z, n), nc.mul(z, h))

    def params(self) -> dict[str, Tensor]:
        return _prefix(
            {"wxz": self.wxz, "whz": self.whz, "wxr": self.wxr, "whr": self.whr, "wxn": self.wxn, "whn": self.whn}
        )


class MultiHeadSelfAttention:
    """Masked multi-head self-attention over row-stacked node embeddings.

    The mask is a plain float array with entries in {1, NEG_INF}; masked
    score entries are replaced by the sentinel before the softmax so their
    post-softmax weight is exactly zero. While `capture` is a list, each
    call appends every head's post-softmax weight matrix to it.
    """

    def __init__(self, rng, d_model: int, n_heads: int):
        if d_model % n_heads != 0:
            from .errors import ConfigError

            raise ConfigError(f"n_heads {n_heads} must divide model width {d_model}")
        self.n_heads = n_heads
        self.d_k = d_model // n_heads
        self.wq = [Linear(rng, d_model, self.d_k, bias=False) for _ in range(n_heads)]
        self.wk = [Linear(rng, d_model, self.d_k, bias=False) for _ in range(n_heads)]
        self.wv = [Linear(rng, d_model, self.d_k, bias=False) for _ in range(n_heads)]
        self.wo = Linear(rng, d_model, d_model, bias=False)
        self.capture: list[np.ndarray] | None = None

    def __call__(self, x: Tensor, mask: np.ndarray | None) -> Tensor:
        heads = []
        for h in range(self.n_heads):
            q = self.wq[h](x)
            k = self.wk[h](x)
            v = self.wv[h](x)
            scores = nc.mul(nc.matmul(q, nc.transpose(k)), 1.0 / np.sqrt(self.d_k))
            if mask is not None:
                scores = nc.apply_mask(scores, mask)
            weights = nc.softmax_lastdim(scores)
            if self.capture is not None:
                self.capture.append(weights.data)
            heads.append(nc.matmul(weights, v))
        return self.wo(nc.concat_lastdim(heads))

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for h in range(self.n_heads):
            for tag, lin in (("wq", self.wq[h]), ("wk", self.wk[h]), ("wv", self.wv[h])):
                for k, v in lin.params().items():
                    out[f"h{h}.{tag}.{k}"] = v
        for k, v in self.wo.params().items():
            out[f"wo.{k}"] = v
        return out


class TransformerBlock:
    """One attention + feed-forward block with plain residual connections.

    Residual branches start small (0.25x init) so the stream stays near its
    input scale; there is no normalization layer to absorb drift otherwise.
    """

    def __init__(self, rng, d_model: int, n_heads: int, ffn_mult: int = 2):
        self.attn = MultiHeadSelfAttention(rng, d_model, n_heads)
        self.attn.wo.w.data *= 0.25
        self.ffn = Mlp(rng, d_model, ffn_mult * d_model, d_model)
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
