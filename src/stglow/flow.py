"""Conditional invertible flow over motion-behavior vectors.

Each step of flow applies a per-channel pattern normalization, an
invertible channel-mixing linear map, and an affine coupling layer whose
scale/shift network is conditioned on the social-context vector. Forward
maps behavior vectors to a standard-normal base; reverse evolves base
samples back into behavior vectors. Both directions are exact inverses and
the per-sample log-determinant is accumulated analytically, so the
negative log-likelihood is exact.
"""

from __future__ import annotations

import math

import numpy as np

from . import numcore as nc
from .errors import (
    ConfigError,
    ContractError,
    DegenerateChannelError,
    FlowNumericsError,
)
from .layers import Layer, Linear
from .numcore import Tensor

LOG_SCALE_BOUND = 5.0  # coupling log-scales are clamped to +-this


class PatternNorm(Layer):
    """Per-channel affine map y = s * x + b, built as the identity (s=1, b=0).

    `init_from_data` sets scale and bias from a batch so that outputs have
    zero mean and unit variance per channel jointly over the sample axis;
    training does this once, before its first step (Glow's actnorm). Both
    are ordinary parameters before and after.
    """

    def __init__(self, channels: int):
        self.channels = channels
        self.s = Tensor(np.ones(channels), requires_grad=True)
        self.b = Tensor(np.zeros(channels), requires_grad=True)

    def init_from_data(self, batch: np.ndarray) -> None:
        if batch.ndim != 2 or batch.shape[0] < 2:
            raise ContractError("pattern norm init needs a (B>=2, C) batch")
        std = batch.std(axis=0)
        if np.any(std < 1e-8):
            bad = int(np.argmin(std))
            raise DegenerateChannelError(f"channel {bad} has std {std[bad]:.3g} < 1e-8")
        self.s.data[:] = 1.0 / std
        self.b.data[:] = -batch.mean(axis=0) / std

    def forward(self, x: Tensor, _st: Tensor | None = None) -> tuple[Tensor, Tensor]:
        y = nc.add(nc.mul(x, self.s), self.b)
        logdet = nc.sum_all(nc.log(nc.abs_(self.s)))
        return y, logdet

    def reverse(self, y: Tensor, _st: Tensor | None = None, _rows: np.ndarray | None = None) -> Tensor:
        return nc.div(nc.sub(y, self.b), self.s)


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Orthogonal matrix with determinant +1 from a QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class InvertibleLinear(Layer):
    """Dense channel-mixing map, initialized as a rotation (log-det zero).

    `_inverse_t` forms W^-T once per state of W, a plain array that the
    log-det's gradient and every reverse pass, taped or not, read; each op
    tapes its own node around it. The key is a copy of W compared in full,
    so an in-place update (Adam, checkpoint loads, tests) invalidates it. A
    miss assigns new arrays: a live tape's VJPs may hold the old ones.
    """

    def __init__(self, rng: np.random.Generator, channels: int):
        self.channels = channels
        self.w = Tensor(random_rotation(rng, channels), requires_grad=True)
        self._inv_t: np.ndarray | None = None
        self._inv_of: np.ndarray | None = None

    def _inverse_t(self) -> np.ndarray:
        """W^-T, C-contiguous; raises `SingularMatrixError` if W is singular."""
        if self._inv_of is None or not np.array_equal(self._inv_of, self.w.data):
            self._inv_t = np.ascontiguousarray(nc.inverse(self.w.data).T)
            self._inv_of = self.w.data.copy()
        return self._inv_t

    def forward(self, x: Tensor, _st: Tensor | None = None) -> tuple[Tensor, Tensor]:
        return nc.matmul(x, nc.transpose(self.w)), nc.logabsdet(self.w, self._inverse_t())

    def reverse(self, y: Tensor, _st: Tensor | None = None, _rows: np.ndarray | None = None) -> Tensor:
        return nc.solve(y, self.w, self._inverse_t())

    def cast(self, dtype) -> "InvertibleLinear":
        """A copy whose W^-T is this one's, formed in float64, then cast: a
        copy never inverts. Its key is its own W, which nothing updates."""
        out = super().cast(dtype)
        out._inv_t = self._inverse_t().astype(dtype)
        out._inv_of = out.w.data
        return out


class AffineCoupling(Layer):
    """Scale/shift of the second half-channels, conditioned on context.

    The first half passes through unchanged and, with the social-context
    vector, drives a small network whose zero-initialized output layer
    makes the layer start as the identity. Its first layer `fc0` acts on
    [first half, context] as two products: `fc0`'s conditioning rows and
    its bias project each row of `st` once, and the projection is added to
    the product of the first half with `fc0`'s other rows. With `rows`,
    row i of the input is conditioned on row `rows[i]` of `st`, the
    projection gathered by `rows`.
    """

    def __init__(self, rng: np.random.Generator, channels: int, cond_dim: int):
        if channels % 2 != 0:
            raise ConfigError(f"coupling needs an even channel count, got {channels}")
        self.half = channels // 2
        self.fc0 = Linear(rng, self.half + cond_dim, 2 * channels)
        self.fc1 = Linear(rng, 2 * channels, channels, zero_init=True)

    def _scale_shift(self, xa: Tensor, st: Tensor, rows: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        w, half = self.fc0.w, self.half
        cond = nc.linear(st, nc.index(w, np.s_[half:]), self.fc0.b)
        if rows is not None:
            cond = nc.index(cond, rows)
        out = self.fc1(nc.relu(nc.add(nc.linear(xa, nc.index(w, np.s_[:half])), cond)))
        log_s = nc.clamp(nc.index(out, np.s_[..., : self.half]), -LOG_SCALE_BOUND, LOG_SCALE_BOUND)
        t = nc.index(out, np.s_[..., self.half :])
        return log_s, t

    def forward(self, x: Tensor, st: Tensor) -> tuple[Tensor, Tensor]:
        xa, xb = nc.index(x, np.s_[..., : self.half]), nc.index(x, np.s_[..., self.half :])
        log_s, t = self._scale_shift(xa, st)
        yb = nc.add(nc.mul(nc.exp(log_s), xb), t)
        return nc.concat([xa, yb], -1), nc.sum_lastdim(log_s)

    def reverse(self, y: Tensor, st: Tensor, rows: np.ndarray | None = None) -> Tensor:
        ya, yb = nc.index(y, np.s_[..., : self.half]), nc.index(y, np.s_[..., self.half :])
        log_s, t = self._scale_shift(ya, st, rows)
        xb = nc.div(nc.sub(yb, t), nc.exp(log_s))
        return nc.concat([ya, xb], -1)


class FactorOut:
    """Marker op diverting the trailing channels straight to the base."""

    def __init__(self, width_in: int, out_channels: int):
        self.keep = width_in - out_channels


class FlowStack(Layer):
    """Ordered invertible steps with per-sample log-det accounting."""

    def __init__(
        self,
        rng: np.random.Generator,
        channels: int,
        cond_dim: int,
        n_steps: int = 16,
        use_pattern_norm: bool = True,
        factor_out: bool = False,
        factor_out_every: int = 4,
        factor_out_channels: int = 64,
    ):
        self.channels = channels
        self.ops: list = []
        self._part_widths: list[int] = []
        width = channels
        for step in range(n_steps):
            if width % 2 != 0:
                raise ConfigError(f"flow width became odd ({width}) at step {step}")
            if use_pattern_norm:
                self.ops.append(PatternNorm(width))
            self.ops.append(InvertibleLinear(rng, width))
            self.ops.append(AffineCoupling(rng, width, cond_dim))
            last = step == n_steps - 1
            if factor_out and not last and (step + 1) % factor_out_every == 0:
                if width - factor_out_channels < 2:
                    raise ConfigError(
                        f"factor-out would leave {width - factor_out_channels} channels at step {step}"
                    )
                self.ops.append(FactorOut(width, factor_out_channels))
                self._part_widths.append(factor_out_channels)
                width -= factor_out_channels
        self._part_widths.append(width)

    def initialize(self, mb: np.ndarray, st: np.ndarray) -> None:
        """Set every pattern norm from data, in flow order: each whitens what
        the steps before it make of `mb` under conditioning `st`. Any earlier
        values are overwritten."""
        with nc.no_grad():
            x = Tensor(np.asarray(mb, dtype=np.float64))
            stt = Tensor(np.asarray(st, dtype=np.float64))
            for op in self.ops:
                if isinstance(op, FactorOut):
                    x = nc.index(x, np.s_[..., : op.keep])
                    continue
                if isinstance(op, PatternNorm):
                    op.init_from_data(x.data)
                x, _ = op.forward(x, stt)

    def forward(self, mb: Tensor, st: Tensor) -> tuple[Tensor, Tensor]:
        """(z, per-sample log-det); z concatenates factored parts in order."""
        b = mb.data.shape[0]
        logdet = Tensor(np.zeros(b))
        parts: list[Tensor] = []
        x = mb
        for idx, op in enumerate(self.ops):
            if isinstance(op, FactorOut):
                parts.append(nc.index(x, np.s_[..., op.keep :]))
                x = nc.index(x, np.s_[..., : op.keep])
                continue
            x, ld = op.forward(x, st)
            if not np.all(np.isfinite(x.data)) or not np.all(np.isfinite(ld.data)):
                raise FlowNumericsError("non-finite activation in forward pass", step=idx)
            logdet = nc.add(logdet, ld)
        parts.append(x)
        z = parts[0] if len(parts) == 1 else nc.concat(parts, -1)
        return z, logdet

    def reverse(self, z: Tensor, st: Tensor, rows: np.ndarray | None = None) -> Tensor:
        """Exact inverse of `forward` for the same conditioning.

        With `rows`, row i of `z` is conditioned on row `rows[i]` of `st`,
        as if `st` were `nc.index(st, rows)`, but each coupling projects a
        row of `st` once however many rows of `z` it conditions.
        """
        offsets = np.cumsum([0] + self._part_widths)
        chunks = [nc.index(z, np.s_[..., int(offsets[i]) : int(offsets[i + 1])]) for i in range(len(self._part_widths))]
        x = chunks.pop()
        for idx in range(len(self.ops) - 1, -1, -1):
            op = self.ops[idx]
            if isinstance(op, FactorOut):
                x = nc.concat([x, chunks.pop()], -1)
                continue
            x = op.reverse(x, st, rows)
            if not np.all(np.isfinite(x.data)):
                raise FlowNumericsError("non-finite activation in reverse pass", step=idx)
        return x

    def cast(self, dtype) -> "FlowStack":
        """The ops cast in order; a `FactorOut`, which holds no parameters, is shared."""
        out = super().cast(dtype)
        out.ops = [op.cast(dtype) if isinstance(op, Layer) else op for op in self.ops]
        return out

    def params(self) -> dict[str, Tensor]:
        """Op i's parameters under `op{i:02d}.{pn|lin|coup}.`, ops with none not counted:
        the names of checkpoint version 5."""
        kinds = {PatternNorm: "pn", InvertibleLinear: "lin", AffineCoupling: "coup"}
        steps = [op for op in self.ops if not isinstance(op, FactorOut)]
        return {f"op{i:02d}.{kinds[type(op)]}.{k}": v for i, op in enumerate(steps) for k, v in op.params().items()}


def nll_loss(mb: Tensor, st: Tensor, stack: FlowStack) -> Tensor:
    """Mean negative log-likelihood of behavior vectors under the flow,
    with a standard-normal base."""
    z, logdet = stack.forward(mb, st)
    log_base = nc.add(nc.mul(nc.sum_lastdim(nc.mul(z, z)), -0.5), -0.5 * stack.channels * math.log(2.0 * math.pi))
    ll = nc.add(log_base, logdet)
    if not np.all(np.isfinite(ll.data)):
        raise FlowNumericsError("non-finite log-likelihood", step=len(stack.ops) - 1)
    return nc.neg(nc.mean_all(ll))


def sample_behaviors(
    st: Tensor,
    stack: FlowStack,
    k: int,
    sigma: float,
    rngs: list[np.random.Generator],
) -> tuple[Tensor, np.ndarray]:
    """Evolve base draws into behavior vectors, k per conditioning row.

    Returns (behaviors, z) where behaviors has shape (B*k, C) with row
    b*k + j holding sample j for conditioning row b (a (B, k, C) layout
    flattened along the first axis), and z holds the raw base draws.
    Row b's (k, C) block is drawn from `rngs[b]`, rows in order, so one
    generator passed B times, `[rng] * B`, draws one (B, k, C) block.
    z is float64 whatever the pass; the flow evolves it in `st`'s dtype.
    """
    if k < 1:
        raise ContractError("need at least one sample")
    b = st.data.shape[0]
    if len(rngs) != b:
        raise ContractError(f"need one generator per conditioning row, got {len(rngs)} for {b} rows")
    z = base_draws(stack.channels, k, sigma, rngs)
    return stack.reverse(nc.cast(z, st.data.dtype), st, np.arange(b * k) // k), z


def base_draws(channels: int, k: int, sigma: float, rngs: list[np.random.Generator]) -> np.ndarray:
    """(len(rngs) * k, channels) float64 draws from N(0, sigma^2), as
    `sample_behaviors` takes them: row b's (k, channels) block from
    `rngs[b]`. At sigma 0 they are zeros and no generator is read."""
    if sigma == 0.0:
        return np.zeros((len(rngs) * k, channels))
    return np.concatenate([rng.standard_normal((k, channels)) for rng in rngs]) * sigma
