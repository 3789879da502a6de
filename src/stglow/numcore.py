"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything learned in this package runs on the `Tensor` type below. Values
are numpy float64 arrays; gradients are recorded on an explicit `Tape` that
is rebuilt for every training step (define-by-run). Ops executed while no
tape is active behave like plain numpy and record nothing.

Masked attention uses `NEG_INF`, a finite most-negative-float sentinel, so
that tensors never carry actual infinities; `softmax_lastdim` treats entries
equal to the sentinel as masked and maps them to exactly 0.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

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

    __slots__ = ("nodes",)

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
    """A dense float64 array, optionally participating in the active tape."""

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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
            if inp.is_leaf:
                inp.grad = g.copy() if inp.grad is None else inp.grad + g
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
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _register(np.where(mask, a.data, 0.0), (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _register(out, (a,), vjp)


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


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / out,)

    return _register(out, (a,), vjp)


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


def concat_lastdim(parts: Sequence[Tensor]) -> Tensor:
    parts = tuple(parts)
    sizes = [p.data.shape[-1] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=-1))

    return _register(np.concatenate([p.data for p in parts], axis=-1), parts, vjp)


def slice_lastdim(a: Tensor, start: int, stop: int) -> Tensor:
    def vjp(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return _register(a.data[..., start:stop].copy(), (a,), vjp)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = tuple(parts)
    sizes = [p.data.shape[0] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=0))

    return _register(np.concatenate([p.data for p in parts], axis=0), parts, vjp)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def vjp(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _register(a.data[start:stop].copy(), (a,), vjp)


def repeat_rows(a: Tensor, k: int) -> Tensor:
    """Repeat each row k times: (B, ...) -> (B*k, ...)."""
    b = a.data.shape[0]

    def vjp(g):
        return (g.reshape((b, k) + a.data.shape[1:]).sum(axis=1),)

    return _register(np.repeat(a.data, k, axis=0), (a,), vjp)


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


def transpose(a: Tensor) -> Tensor:
    def vjp(g):
        return (g.T,)

    return _register(a.data.T.copy(), (a,), vjp)


def _checked_logabsdet(a: np.ndarray) -> float:
    """log|det a| via LAPACK; raises if `a` is numerically singular."""
    sign, val = np.linalg.slogdet(a)
    if sign == 0.0 or val < math.log(1e-12):
        raise SingularMatrixError(f"matrix is numerically singular (log|det| = {val:.3g})")
    return float(val)


def logabsdet(w: Tensor) -> Tensor:
    """log|det W| as a taped scalar; raises if W is numerically singular.

    W^-T, the gradient, is only formed when the backward pass asks for it.
    """
    val = _checked_logabsdet(w.data)

    def vjp(g):
        return (float(g) * np.linalg.inv(w.data).T,)

    return _register(np.asarray(val), (w,), vjp)


def inverse(w: Tensor) -> Tensor:
    """Taped matrix inverse via LAPACK; raises if W is numerically singular."""
    _checked_logabsdet(w.data)
    inv = np.linalg.inv(w.data)

    def vjp(g):
        return (-inv.T @ g @ inv.T,)

    return _register(inv, (w,), vjp)


# ---------------------------------------------------------------------------
# masked softmax and norms
# ---------------------------------------------------------------------------


def apply_mask(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Replace score entries wherever `mask == NEG_INF`; keep the rest."""
    if scores.data.shape != mask.shape:
        raise ShapeError(f"mask shape {mask.shape} != scores shape {scores.data.shape}")
    keep = mask != NEG_INF

    def vjp(g):
        return (g * keep,)

    return _register(np.where(keep, scores.data, NEG_INF), (scores,), vjp)


def softmax_lastdim(a: Tensor) -> Tensor:
    """Row softmax where entries equal to NEG_INF are masked to exactly 0."""
    x = a.data
    masked = x == NEG_INF
    if np.any(masked.all(axis=-1)):
        raise DegenerateMaskError("softmax slice with every entry masked")
    safe = np.where(masked, -np.inf, x)
    m = np.max(np.where(masked, -np.inf, x), axis=-1, keepdims=True)
    e = np.exp(safe - m)  # masked entries become exp(-inf) == 0 exactly
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _register(out, (a,), vjp)


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
    """One in-place Adam update with decoupled weight decay; t is 1-based."""
    if param.shape != grad.shape or param.shape != m.shape or param.shape != v.shape:
        raise ShapeError(
            f"adam_step shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"m {m.shape}, v {v.shape}"
        )
    b1, b2 = betas
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    if weight_decay != 0.0:
        param -= lr * weight_decay * param


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
        self.t = t
        for name in self.params:
            self.m[name] = arrays[f"m.{name}"].copy()
            self.v[name] = arrays[f"v.{name}"].copy()
