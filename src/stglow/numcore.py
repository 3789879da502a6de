"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything learned in this package runs on the `Tensor` type below. Values
are numpy float64 arrays; gradients are recorded on an explicit `Tape` that
is rebuilt for every training step (define-by-run). Ops executed while no
tape is active behave like plain numpy and record nothing.

The ops keep their inputs' dtype, so an untaped pass over `cast` tensors
runs in float32. Training uses this in one place only: the pass that picks
each pedestrian's best-of-K winners, whose values are read by an argmin
alone. Parameters, the loss, gradients, Adam and forecasts are float64.

Attention masks use `NEG_INF`, a finite most-negative-float sentinel, so
that tensors never carry actual infinities; `attention`, the one masked
softmax, treats entries equal to the sentinel as masked and gives them a
weight of exactly 0.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateMaskError,
    ShapeError,
    SingularMatrixError,
)

# Finite sentinel standing in for -inf inside mask matrices and scores.
NEG_INF = float(np.finfo(np.float64).min)


class Tape:
    """Append-only record of executed ops; reverse order is the backward order."""

    __slots__ = ("nodes", "__weakref__")

    def __init__(self):
        self.nodes: list[_Node] = []


class _Node:
    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out: "Tensor", inputs: tuple["Tensor", ...], vjp: Callable):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


_active_tape: Tape | None = None


@contextmanager
def record():
    """Activate a fresh tape for the duration of the block and yield it."""
    global _active_tape
    prev = _active_tape
    tape = Tape()
    _active_tape = tape
    try:
        yield tape
    finally:
        _active_tape = prev


@contextmanager
def no_grad():
    """Suspend taping inside the block (cheap eval / data-dependent init)."""
    global _active_tape
    prev = _active_tape
    _active_tape = None
    try:
        yield
    finally:
        _active_tape = prev


def active_tape() -> Tape | None:
    return _active_tape


class Tensor:
    """A dense array, optionally participating in the active tape.

    `Tensor(data)` is always float64; `cast` builds the untaped float32
    copies of the winner-selection pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "is_leaf")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.is_leaf = True

    @classmethod
    def _from_op(cls, data: np.ndarray) -> "Tensor":
        t = cls.__new__(cls)
        t.data = data
        t.grad = None
        t.requires_grad = False
        t.is_leaf = True
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def cast(x, dtype) -> Tensor:
    """An untaped tensor holding a `dtype` copy of `x`, an array or a `Tensor`."""
    return Tensor._from_op(np.array(x.data if isinstance(x, Tensor) else x, dtype=dtype))


def _register(out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    out = Tensor._from_op(out_data)
    tape = _active_tape
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.is_leaf = False
        tape.nodes.append(_Node(out, inputs, vjp))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` of every reachable leaf.

    Traverses the tape once, in reverse append order. `loss` must be scalar.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    if loss.is_leaf:
        if loss.requires_grad:
            loss.grad = np.ones_like(loss.data) if loss.grad is None else loss.grad + 1.0
        return
    for node in reversed(tape.nodes):
        g_out = adjoint.pop(id(node.out), None)
        if g_out is None:
            continue
        grads = node.vjp(g_out)
        for inp, g in zip(node.inputs, grads):
            if g is None or not inp.requires_grad:
                continue
            if inp.is_leaf:  # copied once, so no VJP output is ever written to
                if inp.grad is None:
                    inp.grad = g.copy()
                else:
                    inp.grad += g
            else:
                prev = adjoint.get(id(inp))
                adjoint[id(inp)] = g if prev is None else prev + g


# ---------------------------------------------------------------------------
# elementwise and broadcasting ops
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` back down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _register(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _register(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _register(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _register(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _register(-a.data, (a,), lambda g: (-g,))


def relu(a: Tensor) -> Tensor:
    """max(a, 0); a NaN stays NaN, so non-finite checks downstream see it."""

    def vjp(g):
        return (g * (a.data > 0),)

    return _register(np.maximum(a.data, 0.0), (a,), vjp)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _register(out, (a,), vjp)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return _register(out, (a,), vjp)


def log(a: Tensor) -> Tensor:
    def vjp(g):
        return (g / a.data,)

    return _register(np.log(a.data), (a,), vjp)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    inside = (a.data >= lo) & (a.data <= hi)

    def vjp(g):
        return (g * inside,)

    return _register(np.clip(a.data, lo, hi), (a,), vjp)


def abs_(a: Tensor) -> Tensor:
    sign = np.sign(a.data)

    def vjp(g):
        return (g * sign,)

    return _register(np.abs(a.data), (a,), vjp)


# ---------------------------------------------------------------------------
# reductions and reshaping
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    def vjp(g):
        return (np.full(a.data.shape, float(g)),)

    return _register(np.asarray(a.data.sum()), (a,), vjp)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def vjp(g):
        return (np.full(a.data.shape, float(g) / n),)

    return _register(np.asarray(a.data.mean()), (a,), vjp)


def sum_lastdim(a: Tensor) -> Tensor:
    """Sum over the trailing axis: (..., C) -> (...)."""

    def vjp(g):
        return (np.repeat(np.expand_dims(g, -1), a.data.shape[-1], axis=-1),)

    return _register(a.data.sum(axis=-1), (a,), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape

    def vjp(g):
        return (g.reshape(old),)

    return _register(a.data.reshape(shape), (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Join tensors along `axis`; the gradient is split back into the parts."""
    parts = tuple(parts)
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _register(np.concatenate([p.data for p in parts], axis=axis), parts, vjp)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _register(out, (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """`x @ w (+ b)` over the last axis of a (..., d) input, as one tape node
    that keeps no intermediate.

    Bit-identical to `add(matmul(x, w), b)`, whose tape would also hold
    the product before the bias is added. A stacked input is multiplied one
    (T, d) item at a time, so each item's rows match an unstacked call's.
    """
    if x.ndim < 2 or w.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear shapes incompatible: {x.data.shape} x {w.data.shape}")
    out = x.data @ w.data
    if b is None:
        inputs = (x, w)
    else:
        out += b.data
        inputs = (x, w, b)

    def vjp(g):
        # one product over all rows; gradients need not match per-item bits
        d_in, d_out = w.data.shape
        g2 = g.reshape(-1, d_out)
        grads = ((g2 @ w.data.T).reshape(x.data.shape), x.data.reshape(-1, d_in).T @ g2)
        return grads if b is None else grads + (_unbroadcast(g, b.data.shape),)

    return _register(out, inputs, vjp)


def gru_cell(h: Tensor, x: Tensor, wx: Tensor, bx: Tensor, wh: Tensor) -> Tensor:
    """One GRU step as one tape node. `wx` (d_in, 3h), `bx` (3h) and `wh`
    (h, 3h) hold the columns of the update (z), reset (r) and candidate (n)
    gates, in that order:

        z = σ(x wx_z + bx_z + h wh_z)     r = σ(x wx_r + bx_r + h wh_r)
        n = tanh(x wx_n + bx_n + (r ⊙ h) wh_n)     h' = (1 − z) ⊙ n + z ⊙ h

    Each gate is computed from its own column slices, as the unfused ops
    do, and in place in their order of operations, so h' is bit-identical
    to theirs and no temporary is wider than h. The backward pass keeps
    only z, r and n.
    """
    hd, xd = h.data, x.data
    k = hd.shape[-1]
    (wxz, wxr, wxn), (bxz, bxr, bxn), (whz, whr, whn) = (
        (p.data[..., :k], p.data[..., k : 2 * k], p.data[..., 2 * k :]) for p in (wx, bx, wh)
    )

    def pre_activation(w_x, b_x, h_in, w_h):  # (x w_x + b_x) + h_in w_h
        a = xd @ w_x
        a += b_x
        a += h_in @ w_h
        return a

    def sigmoid_(a):
        np.negative(a, out=a)
        with np.errstate(over="ignore"):  # exp -> inf gives the gate's exact limit, 0
            np.exp(a, out=a)
        a += 1.0
        return np.divide(1.0, a, out=a)

    z = sigmoid_(pre_activation(wxz, bxz, hd, whz))
    r = sigmoid_(pre_activation(wxr, bxr, hd, whr))
    rh = r * hd
    n = pre_activation(wxn, bxn, rh, whn)
    np.tanh(n, out=n)
    out = np.subtract(1.0, z)
    out *= n
    out += np.multiply(z, hd, out=rh)  # r ⊙ h is spent

    def vjp(g):
        a_n = g * (1.0 - z) * (1.0 - n * n)
        g_rh = a_n @ whn.T
        a_r = g_rh * hd * r * (1.0 - r)
        a_z = (g * hd - g * n) * z * (1.0 - z)
        a = np.concatenate([a_z, a_r, a_n], axis=1)
        g_h = g * z + g_rh * r + a_z @ whz.T + a_r @ whr.T
        g_wh = np.concatenate([hd.T @ a_z, hd.T @ a_r, (r * hd).T @ a_n], axis=1)
        return g_h, a @ wx.data.T, xd.T @ a, _unbroadcast(a, bx.data.shape), g_wh

    return _register(out, (h, x, wx, bx, wh), vjp)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes; the result is a C-contiguous copy."""

    def vjp(g):
        return (np.swapaxes(g, -1, -2),)

    return _register(np.ascontiguousarray(np.swapaxes(a.data, -1, -2)), (a,), vjp)


def index(a: Tensor, key) -> Tensor:
    """`a[key]` for any numpy index: a view for basic indexing, as `reshape`
    returns one, else a copy. The gradient of a basic key is assigned into
    place; an array key's is scattered with `np.add.at`, so entries picked
    more than once accumulate."""
    # a key of ints, slices, Ellipsis and None picks no entry twice
    parts = key if isinstance(key, tuple) else (key,)
    basic = all(k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice)) for k in parts)

    def vjp(g):
        full = np.zeros_like(a.data)
        if basic:
            full[key] = g
        else:
            np.add.at(full, key, g)
        return (full,)

    return _register(a.data[key], (a,), vjp)


def logabsdet(w: Tensor, inv_t: np.ndarray) -> Tensor:
    """log|det W| as a taped scalar, given its gradient `inv_t` = W^-T from
    `inverse`, which also judges whether W is singular."""
    _, val = np.linalg.slogdet(w.data)
    return _register(np.asarray(val), (w,), lambda g: (float(g) * inv_t,))


def inverse(w: np.ndarray) -> np.ndarray:
    """Untaped W^-1 via LAPACK; raises if W is singular, i.e. if LAPACK
    fails or the 1-norm condition number ||W|| ||W^-1|| is not finite or
    exceeds 1e12. The test is scale-free: c·W passes whenever W does."""
    try:
        inv = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is singular") from None
    cond = float(np.linalg.norm(w, 1)) * float(np.linalg.norm(inv, 1))
    if not cond <= 1e12:  # also catches a NaN
        raise SingularMatrixError(f"matrix is numerically singular (condition number {cond:.3g})")
    return inv


def solve(y: Tensor, w: Tensor, inv_t: np.ndarray) -> Tensor:
    """`y @ W^-T`, the rows x with W x = y, as one tape node, given `inv_t` =
    W^-T from `inverse`; W's gradient is read off `inv_t` and the output."""
    out = y.data @ inv_t

    def vjp(g):
        g_y = g @ inv_t.T
        return g_y, -(g_y.T @ out)

    return _register(out, (y, w), vjp)


# ---------------------------------------------------------------------------
# attention and norms
# ---------------------------------------------------------------------------


def attention(qkv: Tensor, mask: np.ndarray | None, rows: np.ndarray | None = None, capture: list | None = None) -> Tensor:
    """Masked multi-head scaled dot-product attention of P graphs as one tape
    node over `qkv`, (P, T, 3, H, d_k): a fused projection reshaped so that
    [p, t, 0 | 1 | 2] are node t's queries, keys and values. Every node
    queries, giving (P, T, H, d_k), or with `rows`, a (P,) int array, node
    `rows[p]` of graph p alone, giving (P, 1, H, d_k). Query rows are
    gathered and values read in place; keys are copied a head at a time to
    the (P, d_k, T) layout the score products have always read, as BLAS
    picks its kernel by layout and a strided view would move the last bits.

    `mask`, (T, T) or one (T, T) per graph with entries in {1, NEG_INF}, is
    cut to the query rows: masked keys get weight 0 exactly, and a query
    row with every key masked raises `DegenerateMaskError`. A `capture`
    list gets the weights graph by graph, head by head, as (T_q, T) maps.
    The backward pass writes one gradient of qkv's shape.
    """
    if qkv.ndim != 5 or qkv.shape[2] != 3:
        raise ShapeError(f"attention needs (P, T, 3, H, d_k) queries, keys and values, got {qkv.shape}")
    a = qkv.data
    p, t, _, h, d_k = a.shape
    at = np.s_[:, :] if rows is None else np.s_[np.arange(p), rows, None]  # the (P, T_q) query nodes
    q = a[:, :, 0][at].transpose(0, 2, 1, 3)  # (P, H, T_q, d_k)
    v = a[:, :, 2].transpose(0, 2, 1, 3)  # (P, H, T, d_k)

    def keys(head):  # (P, d_k, T)
        return np.ascontiguousarray(a[:, :, 1, head].transpose(0, 2, 1))

    t_q, scale = q.shape[2], 1.0 / np.sqrt(d_k)
    w = np.empty((p, h, t_q, t))
    for i in range(h):
        np.matmul(q[:, i], keys(i), out=w[:, i])
    w *= scale
    if mask is not None:
        if mask.shape not in ((t, t), (p, t, t)):
            raise ShapeError(f"mask shape {mask.shape} is neither ({t}, {t}) nor ({p}, {t}, {t})")
        blocked = np.broadcast_to(mask == NEG_INF, (p, t, t))[at]
        if np.any(blocked.all(axis=-1)):
            raise DegenerateMaskError("attention query row with every key masked")
        np.copyto(w, -np.inf, where=blocked[:, None])  # for every head; exp(-inf) == 0
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    if capture is not None:
        capture.extend(w.reshape(-1, t_q, t))
    out = np.empty((p, t_q, h, d_k))
    np.matmul(w, v, out=out.transpose(0, 2, 1, 3))

    def vjp(g):
        g = g.transpose(0, 2, 1, 3)  # (P, H, T_q, d_k)
        grad = np.zeros_like(a)
        np.matmul(np.swapaxes(w, -1, -2), g, out=grad[:, :, 2].transpose(0, 2, 1, 3))
        g_s = g @ np.swapaxes(v, -1, -2)  # through the softmax to the scores
        g_s -= (g_s * w).sum(axis=-1, keepdims=True)
        g_s *= w
        g_s *= scale
        grad[:, :, 1] = (np.swapaxes(q, -1, -2) @ g_s).transpose(0, 3, 1, 2)
        for i in range(h):
            grad[:, :, 0][at + (i,)] = g_s[:, i] @ np.swapaxes(keys(i), -1, -2)  # (P, T_q, d_k)
        return (grad,)

    return _register(out, (qkv,), vjp)


def euclid_rows(a: Tensor) -> Tensor:
    """Per-row Euclidean norm: (B, d) -> (B,). Subgradient 0 at a zero row."""
    norms = np.sqrt((a.data * a.data).sum(axis=-1))

    def vjp(g):
        denom = np.where(norms > 0.0, norms, 1.0)
        scale = np.where(norms > 0.0, g / denom, 0.0)
        return (a.data * scale[..., None],)

    return _register(norms, (a,), vjp)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


ADAM_SLICE = 32768  # elements per slice of `adam_step`: 256 KB of float64


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """One in-place Adam update with decoupled weight decay; t is 1-based.

    The arrays are updated in slices of `ADAM_SLICE` elements, so a slice
    stays in cache through all of its passes, with two work buffers of one
    slice made once per call: the step, from m̂ on, and one scratch. On each
    slice the textbook expressions' operations run in their order, so the
    bits are theirs. `param`, `m` and `v` must be C-contiguous.
    """
    if param.shape != grad.shape or param.shape != m.shape or param.shape != v.shape:
        raise ShapeError(
            f"adam_step shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"m {m.shape}, v {v.shape}"
        )
    if not (param.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
        raise ContractError("adam_step updates param, m and v in place and needs them C-contiguous")
    b1, b2 = betas
    flat = [a.reshape(-1) for a in (param, grad, m, v)]
    n = param.size
    scratch_buf, step_buf = (np.empty(min(n, ADAM_SLICE), dtype=param.dtype) for _ in range(2))
    for lo in range(0, n, ADAM_SLICE):
        p, g, m_, v_ = (a[lo : lo + ADAM_SLICE] for a in flat)
        scratch, step = scratch_buf[: p.size], step_buf[: p.size]
        m_ *= b1
        m_ += np.multiply(g, 1.0 - b1, out=scratch)
        v_ *= b2
        v_ += np.multiply(np.multiply(g, 1.0 - b2, out=scratch), g, out=scratch)
        np.divide(m_, 1.0 - b1**t, out=step)  # m̂, then lr·m̂ / (√v̂ + eps)
        step *= lr
        np.sqrt(np.divide(v_, 1.0 - b2**t, out=scratch), out=scratch)
        scratch += eps
        step /= scratch
        p -= step
        if weight_decay != 0.0:
            p -= np.multiply(p, lr * weight_decay, out=scratch)


class Adam:
    """Adam with decoupled weight decay over a named parameter dict."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = dict(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            adam_step(
                p.data,
                p.grad,
                self.m[name],
                self.v[name],
                self.t,
                self.lr,
                self.betas,
                self.eps,
                self.weight_decay,
            )

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in sorted(self.params):
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        """Adopt `arrays`, named as by `state_arrays`, as the moments: they are
        not copied, and each step updates them in place."""
        own = self.state_arrays()
        if set(arrays) != set(own) or any(arrays[k].shape != v.shape for k, v in own.items()):
            raise ShapeError("optimizer state does not match the parameters")
        self.t = t
        for name in self.params:
            self.m[name] = arrays[f"m.{name}"]
            self.v[name] = arrays[f"v.{name}"]
