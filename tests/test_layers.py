import numpy as np
import pytest

from stglow import numcore as nc
from stglow.layers import GruCell, Layer, Linear, MultiHeadSelfAttention


def unfused_linear(lin: Linear, x):
    out = nc.matmul(x, lin.w)
    return out if lin.b is None else nc.add(out, lin.b)


def sigmoid(t):
    return nc.div(1.0, nc.add(1.0, nc.exp(nc.neg(t))))


def unfused_gru(cell: GruCell, h, x):
    """The GRU step as separate index/matmul/add/exp/div/tanh/mul ops on
    per-gate column slices of the fused tensors: the reference the fused
    `nc.gru_cell` must reproduce."""
    k = cell.wh.shape[0]

    def gate(i, inp, w, b=None):
        cols = slice(i * k, (i + 1) * k)
        out = nc.matmul(inp, nc.index(w, (slice(None), cols)))
        return out if b is None else nc.add(out, nc.index(b, cols))

    z = sigmoid(nc.add(gate(0, x, cell.wx, cell.bx), gate(0, h, cell.wh)))
    r = sigmoid(nc.add(gate(1, x, cell.wx, cell.bx), gate(1, h, cell.wh)))
    n = nc.tanh(nc.add(gate(2, x, cell.wx, cell.bx), gate(2, nc.mul(r, h), cell.wh)))
    return nc.add(nc.mul(nc.sub(1.0, z), n), nc.mul(z, h))


def run(forward, leaves: dict[str, nc.Tensor]):
    """Loss, output and leaf gradients of `forward()` under one tape."""
    for t in leaves.values():
        t.grad = None
    with nc.record() as tape:
        out = forward()
        loss = nc.sum_all(nc.tanh(out))
    nc.backward(loss, tape)
    return loss.data.copy(), out.data.copy(), {k: t.grad.copy() for k, t in leaves.items()}


def rolled(step, h, x, steps: int):
    for _ in range(steps):
        h = step(h, x)
    return h


class TestFusedLinear:
    def test_bit_identical_to_matmul_add(self):
        rng = np.random.default_rng(1)
        for bias in (True, False):
            lin = Linear(rng, 5, 7, bias=bias)
            x = nc.Tensor(rng.normal(size=(6, 5)), requires_grad=True)
            leaves = {**lin.params(), "x": x}
            fused = run(lambda: lin(x), leaves)
            old = run(lambda: unfused_linear(lin, x), leaves)
            assert fused[0].tobytes() == old[0].tobytes()
            assert fused[1].tobytes() == old[1].tobytes()
            for k in leaves:
                assert fused[2][k].tobytes() == old[2][k].tobytes(), k

    def test_one_tape_node_per_call(self):
        rng = np.random.default_rng(2)
        for bias in (True, False):
            lin = Linear(rng, 3, 4, bias=bias)
            with nc.record() as tape:
                lin(nc.Tensor(rng.normal(size=(2, 3))))
            assert len(tape.nodes) == 1


class TestFusedGru:
    def test_matches_unfused_ops(self):
        # forward bit-identical; gradients sum the same terms in another order
        rng = np.random.default_rng(3)
        cell = GruCell(rng, 6, 8)
        h0 = nc.Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        x = nc.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        leaves = {**cell.params(), "h0": h0, "x": x}
        fused = run(lambda: rolled(cell, h0, x, 3), leaves)
        old = run(lambda: rolled(lambda h, xx: unfused_gru(cell, h, xx), h0, x, 3), leaves)
        assert fused[0].tobytes() == old[0].tobytes()
        assert fused[1].tobytes() == old[1].tobytes()
        for k in leaves:
            assert np.max(np.abs(fused[2][k] - old[2][k])) <= 1e-12 * np.max(np.abs(old[2][k])), k

    def test_initial_weights_are_the_per_gate_draws(self):
        # six per-gate projections drawn in the order z, r, n, input before hidden
        rng = np.random.default_rng(35)
        draws = {}
        for gate in "zrn":
            draws["x" + gate] = rng.normal(0.0, 1.0 / np.sqrt(3), size=(3, 4))
            draws["h" + gate] = rng.normal(0.0, 1.0 / np.sqrt(4), size=(4, 4))
        cell = GruCell(np.random.default_rng(35), 3, 4)
        assert sorted(cell.params()) == ["bx", "wh", "wx"]
        assert np.array_equal(cell.wx.data, np.concatenate([draws["x" + g] for g in "zrn"], axis=1))
        assert np.array_equal(cell.wh.data, np.concatenate([draws["h" + g] for g in "zrn"], axis=1))
        assert np.array_equal(cell.bx.data, np.zeros(12))

    def test_one_tape_node_per_call(self):
        rng = np.random.default_rng(4)
        cell = GruCell(rng, 3, 4)
        with nc.record() as tape:
            cell(nc.Tensor(np.zeros((2, 4))), nc.Tensor(rng.normal(size=(2, 3))))
        assert len(tape.nodes) == 1


def attention_oracle(x: np.ndarray, mask, wq, wk, wv, wo) -> tuple[np.ndarray, list[np.ndarray]]:
    """Masked multi-head attention in plain numpy, one graph and one head at a
    time, from per-head (d, d_k) projections; returns output and weights."""
    out, maps = [], []
    for p in range(x.shape[0]):
        heads = []
        for h in range(len(wq)):
            q, k, v = x[p] @ wq[h], x[p] @ wk[h], x[p] @ wv[h]
            scores = q @ k.T / np.sqrt(q.shape[1])
            if mask is not None:
                m = mask if mask.ndim == 2 else mask[p]
                scores = np.where(m == nc.NEG_INF, -np.inf, scores)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            maps.append(e / e.sum(axis=1, keepdims=True))
            heads.append(maps[-1] @ v)
        out.append(np.concatenate(heads, axis=1) @ wo)
    return np.stack(out), maps


class TestFusedAttention:
    D, H = 12, 3

    def oracle_weights(self, seed: int):
        """The per-head projections drawn from the same stream as the layer's init."""
        rng = np.random.default_rng(seed)
        d_k = self.D // self.H
        draws = [rng.normal(0.0, 1.0 / np.sqrt(self.D), size=(self.D, d_k)) for _ in range(3 * self.H)]
        wo = rng.normal(0.0, 1.0 / np.sqrt(self.D), size=(self.D, self.D))
        return draws[: self.H], draws[self.H : 2 * self.H], draws[2 * self.H :], wo

    def masks(self, rng, p: int, t: int):
        causal = np.where(np.tril(np.ones((t, t))) == 1.0, 1.0, nc.NEG_INF)
        per_graph = np.where(rng.random((p, t, t)) < 0.6, 1.0, nc.NEG_INF)
        per_graph[:, np.arange(t), np.arange(t)] = 1.0  # every row keeps itself
        return {"none": None, "shared": causal, "per_graph": per_graph}

    def test_initial_weights_are_the_per_head_draws(self):
        wq, wk, wv, wo = self.oracle_weights(seed=31)
        attn = MultiHeadSelfAttention(np.random.default_rng(31), self.D, self.H)
        assert sorted(attn.params()) == ["wo.w", "wqkv"]
        assert np.array_equal(attn.wqkv.data, np.concatenate(wq + wk + wv, axis=1))
        assert np.array_equal(attn.wo.w.data, wo)

    @pytest.mark.parametrize("mask_kind", ["none", "shared", "per_graph"])
    def test_matches_per_head_oracle(self, mask_kind):
        rng = np.random.default_rng(32)
        p, t = 4, 6
        x = rng.normal(size=(p, t, self.D))
        mask = self.masks(rng, p, t)[mask_kind]
        attn = MultiHeadSelfAttention(np.random.default_rng(33), self.D, self.H)
        attn.capture = []
        got = attn(nc.Tensor(x), mask).data
        expect, maps = attention_oracle(x, mask, *self.oracle_weights(seed=33))
        assert np.max(np.abs(got - expect)) <= 1e-12
        assert len(attn.capture) == p * self.H  # graph by graph, head by head
        for captured, oracle in zip(attn.capture, maps):
            assert np.max(np.abs(captured - oracle)) <= 1e-12

    @pytest.mark.parametrize("rows", [None, np.array([3, 0])], ids=["all_rows", "query_rows"])
    def test_one_attention_node_per_call(self, rows):
        rng = np.random.default_rng(35)
        attn = MultiHeadSelfAttention(rng, self.D, self.H)
        with nc.record() as tape:
            attn(nc.Tensor(rng.normal(size=(2, 4, self.D)), requires_grad=True), self.masks(rng, 2, 4)["shared"], rows)
        # the wqkv product, its (P, T, 3, H, d_k) view, the attention, the heads' (P, T_q, d) view and wo
        assert len(tape.nodes) == 5

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(34)
        attn = MultiHeadSelfAttention(rng, self.D, self.H)
        x0 = rng.normal(size=(2, 4, self.D))
        mask = self.masks(rng, 2, 4)["per_graph"]

        def loss(x):
            return nc.sum_all(nc.tanh(attn(x, mask)))

        leaves = {**attn.params(), "x": nc.Tensor(x0, requires_grad=True)}
        _, _, grads = run(lambda: attn(leaves["x"], mask), leaves)
        for name, leaf in leaves.items():
            base = leaf.data.copy()
            fd = np.zeros_like(base)
            for i in range(0, base.size, 7):  # a spread subset of the entries
                for sign in (1.0, -1.0):
                    leaf.data[...] = base
                    leaf.data.flat[i] += sign * 1e-6
                    with nc.no_grad():
                        fd.flat[i] += sign * float(loss(leaves["x"]).data) / 2e-6
            leaf.data[...] = base
            picked = np.arange(0, base.size, 7)
            err = np.abs(grads[name].flat[picked] - fd.flat[picked])
            assert np.max(err) <= 1e-6 * max(1.0, np.max(np.abs(fd))), name


class TestLayerParams:
    def test_lists_trainable_tensors_and_child_layers_in_assignment_order(self):
        class Probe(Layer):
            def __init__(self):
                rng = np.random.default_rng(0)
                self.child = Linear(rng, 2, 3)
                self.frozen = nc.Tensor(np.ones(3))  # not trainable
                self.w = nc.Tensor(np.ones(2), requires_grad=True)
                self._cache = nc.Tensor(np.ones(2), requires_grad=True)  # private
                self.missing = None
                self.bare = Linear(rng, 3, 1, bias=False)
                self.width = 3

        probe = Probe()
        assert list(probe.params()) == ["child.w", "child.b", "w", "bare.w"]
        assert probe.params()["w"] is probe.w
