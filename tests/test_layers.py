import numpy as np

from stglow import numcore as nc
from stglow.layers import GruCell, Linear


def unfused_linear(lin: Linear, x):
    out = nc.matmul(x, lin.w)
    return out if lin.b is None else nc.add(out, lin.b)


def unfused_gru(cell: GruCell, h, x):
    """The GRU step as separate matmul/add/sigmoid/tanh/mul ops: the reference
    the fused `nc.gru_cell` must reproduce."""
    z = nc.sigmoid(nc.add(unfused_linear(cell.wxz, x), unfused_linear(cell.whz, h)))
    r = nc.sigmoid(nc.add(unfused_linear(cell.wxr, x), unfused_linear(cell.whr, h)))
    n = nc.tanh(nc.add(unfused_linear(cell.wxn, x), unfused_linear(cell.whn, nc.mul(r, h))))
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

    def test_one_tape_node_per_call(self):
        rng = np.random.default_rng(4)
        cell = GruCell(rng, 3, 4)
        with nc.record() as tape:
            cell(nc.Tensor(np.zeros((2, 4))), nc.Tensor(rng.normal(size=(2, 3))))
        assert len(tape.nodes) == 1
