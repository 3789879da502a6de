import inspect
import math
import zlib

import numpy as np
import pytest
from helpers import fd_gradient, rel_err

from stglow import numcore as nc
from stglow.errors import ContractError, DegenerateMaskError, ShapeError
from stglow.flow import InvertibleLinear


def analytic_gradient(f, x0: np.ndarray) -> np.ndarray:
    t = nc.Tensor(x0, requires_grad=True)
    with nc.record() as tape:
        loss = f(t)
    nc.backward(loss, tape)
    return t.grad


class TestMatmul:
    def test_identity(self):
        a = nc.Tensor(np.eye(2))
        b = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(nc.matmul(a, b).data, b.data)

    def test_row_times_column(self):
        out = nc.matmul(nc.Tensor([[1.0, 2.0]]), nc.Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        expect = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                for p in range(3):
                    expect[i, j] += a[i, p] * b[p, j]
        got = nc.matmul(nc.Tensor(a), nc.Tensor(b)).data
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_shape_mismatch_message_carries_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nc.matmul(nc.Tensor(np.zeros((2, 3))), nc.Tensor(np.zeros((2, 3))))


class TestRelu:
    def test_bits_equal_mask_and_select(self):
        a = np.random.default_rng(12).normal(size=(64, 33))
        a.flat[::7] = 0.0
        a.flat[3::11] = -0.0
        a[0, :4] = [np.inf, -np.inf, 5e-324, -5e-324]
        out = nc.relu(nc.Tensor(a)).data
        assert out.tobytes() == np.where(a > 0, a, 0.0).tobytes()  # -0.0 maps to +0.0

    def test_nan_in_gives_nan_out(self):
        x = nc.Tensor([np.nan, -1.0, 2.0], requires_grad=True)
        with nc.record() as tape:
            out = nc.relu(x)
            loss = nc.sum_all(nc.mul(out, [0.0, 1.0, 1.0]))
        assert np.isnan(out.data[0]) and out.data[1] == 0.0 and out.data[2] == 2.0
        nc.backward(loss, tape)
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


class TestBackward:
    def test_square(self):
        x = nc.Tensor(3.0, requires_grad=True)
        with nc.record() as tape:
            loss = nc.mul(x, x)
        nc.backward(loss, tape)
        assert x.grad == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        x = nc.Tensor([1.0, 2.0], requires_grad=True)
        with nc.record() as tape:
            y = nc.mul(x, x)
        with pytest.raises(ContractError):
            nc.backward(y, tape)

    def test_composed_graph_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 4))

        def f_np(x):
            h = np.maximum(x @ w, 0.0)
            s = np.exp(h) / np.exp(h).sum(axis=-1, keepdims=True)
            return np.tanh(s).sum()

        def f_t(t):  # the softmax from elementwise ops, exp(h) read twice
            e = nc.exp(nc.relu(nc.matmul(t, nc.Tensor(w))))
            s = nc.div(e, nc.reshape(nc.sum_lastdim(e), (3, 1)))
            return nc.sum_all(nc.tanh(s))

        assert rel_err(analytic_gradient(f_t, x0), fd_gradient(f_np, x0)) < 1e-3

    def test_reused_operand_accumulates(self):
        x0 = np.array([1.5, -0.5])

        def f_np(x):
            return float((x * x + x).sum())

        def f_t(t):
            return nc.sum_all(nc.add(nc.mul(t, t), t))

        assert rel_err(analytic_gradient(f_t, x0), fd_gradient(f_np, x0)) < 1e-4

    def test_leaf_read_by_three_ops_gets_the_exact_sum_in_its_own_array(self):
        rng = np.random.default_rng(5)
        x = nc.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c, w = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        with nc.record() as tape:
            uses = [nc.mul(x, c), nc.tanh(x), nc.matmul(x, nc.Tensor(w))]
            loss = nc.add(nc.add(nc.sum_all(uses[0]), nc.sum_all(uses[1])), nc.sum_all(uses[2]))
        outputs, to_x = [], []
        for node in tape.nodes:

            def logged(g, node=node, vjp=node.vjp):
                grads = vjp(g)
                outputs.extend(a for a in grads if a is not None)
                to_x.extend(a for t, a in zip(node.inputs, grads) if t is x)
                return grads

            node.vjp = logged
        nc.backward(loss, tape)
        assert len(to_x) == 3
        want = to_x[0] + to_x[1] + to_x[2]  # backward's order: reverse tape order
        assert x.grad.tobytes() == want.tobytes()
        assert not any(np.shares_memory(x.grad, a) for a in outputs)

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(5,))
        a, b = 2.5, -1.25

        def grad_of(fn):
            return analytic_gradient(fn, x0)

        gf = grad_of(lambda t: nc.sum_all(nc.tanh(t)))
        gg = grad_of(lambda t: nc.sum_all(nc.mul(t, t)))
        combined = grad_of(
            lambda t: nc.add(
                nc.mul(nc.sum_all(nc.tanh(t)), a), nc.mul(nc.sum_all(nc.mul(t, t)), b)
            )
        )
        assert np.max(np.abs(combined - (a * gf + b * gg))) < 1e-12


# attention masks of 2 graphs of 4 nodes: causal, and one per graph in which
# every node keeps itself and graph 1 also sees every other node
CAUSAL = np.where(np.tri(4) == 1.0, 1.0, nc.NEG_INF)
PER_GRAPH = np.where((np.eye(4)[None] + (np.arange(2) == 1)[:, None, None] + (np.arange(4) < 2)) > 0, 1.0, nc.NEG_INF)

# gradient check for every differentiable op on random small tensors
OP_CASES = [
    ("add", lambda t, u: nc.add(t, u), 2),
    ("sub", lambda t, u: nc.sub(t, u), 2),
    ("mul", lambda t, u: nc.mul(t, u), 2),
    ("div", lambda t, u: nc.div(t, nc.add(nc.mul(u, u), 0.5)), 2),
    ("matmul", lambda t, u: nc.matmul(t, u), "matmul"),
    ("relu", lambda t: nc.relu(t), 1),
    ("tanh", lambda t: nc.tanh(t), 1),
    ("exp", lambda t: nc.exp(t), 1),
    ("log", lambda t: nc.log(nc.add(nc.mul(t, t), 0.5)), 1),
    ("clamp", lambda t: nc.clamp(t, -0.5, 0.5), 1),
    ("sum_lastdim", lambda t: nc.sum_lastdim(t), 1),
    ("euclid_rows", lambda t: nc.euclid_rows(t), 1),
    ("transpose", lambda t: nc.transpose(t), 1),
    ("reshape", lambda t: nc.reshape(t, (2, 6)), 1),
    ("neg", lambda t: nc.neg(t), 1),
    ("abs_", lambda t: nc.abs_(t), 1),
    ("sum_all", lambda t: nc.sum_all(t), 1),
    ("mean_all", lambda t: nc.mean_all(t), 1),
    # fused ops: the gradient is checked for every operand, of these shapes
    ("linear", lambda x, w, b: nc.linear(x, w, b), [(3, 4), (4, 2), (2,)]),
    ("linear_no_bias", lambda x, w: nc.linear(x, w), [(3, 4), (4, 2)]),
    ("gru_cell", lambda h, x, wx, bx, wh: nc.gru_cell(h, x, wx, bx, wh), [(3, 4), (3, 2), (2, 12), (12,), (4, 12)]),
    # batched ops of the stacked encoder
    ("linear_stacked", lambda x, w, b: nc.linear(x, w, b), [(2, 3, 4), (4, 2), (2,)]),
    ("transpose_stacked", lambda a: nc.transpose(a), [(2, 3, 4)]),
    ("index_basic", lambda a: nc.index(a, (slice(None), 2)), [(2, 3, 4)]),
    ("index_gather", lambda a: nc.index(a, (np.array([0, 1, 1]), np.array([2, 0, 0]))), [(2, 3, 4)]),
    # the slicing and repeating jobs that `index` took over
    ("slice_rows", lambda t: nc.index(t, slice(1, 3)), 1),
    ("slice_lastdim", lambda t: nc.index(t, np.s_[..., 0:2]), 1),
    ("repeat_rows", lambda t: nc.index(t, np.arange(9) // 3), 1),
    ("concat_rows", lambda a, b: nc.concat([a, b], 0), [(2, 4), (3, 4)]),
    ("concat_lastdim", lambda a, b: nc.concat([a, b], -1), [(3, 2), (3, 4)]),
    # attention over (P, T, 3, H, d_k) = (2, 4, 3, 2, 3): every node or one query row per graph,
    # under the causal mask shared by both graphs or under one mask per graph
    ("attention_shared_mask", lambda a: nc.attention(a, CAUSAL), [(2, 4, 3, 2, 3)]),
    ("attention_per_graph_mask", lambda a: nc.attention(a, PER_GRAPH), [(2, 4, 3, 2, 3)]),
    ("attention_rows_shared_mask", lambda a: nc.attention(a, CAUSAL, np.array([3, 1])), [(2, 4, 3, 2, 3)]),
    ("attention_rows_per_graph_mask", lambda a: nc.attention(a, PER_GRAPH, np.array([2, 0])), [(2, 4, 3, 2, 3)]),
]


@pytest.mark.parametrize("name,op,arity", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_match_finite_differences(name, op, arity):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    if isinstance(arity, list):
        args = [rng.normal(size=shape) * 0.8 for shape in arity]
        for i in range(len(args)):

            def f_t(t, i=i):
                return nc.sum_all(nc.tanh(op(*[t if j == i else nc.Tensor(a) for j, a in enumerate(args)])))

            def f_np(x, f_t=f_t):
                with nc.no_grad():
                    return float(f_t(nc.Tensor(x)).data)

            assert rel_err(analytic_gradient(f_t, args[i]), fd_gradient(f_np, args[i])) < 1e-3, f"operand {i}"
        return
    x0 = rng.normal(size=(3, 4)) * 0.8
    if arity == "matmul":
        u0 = rng.normal(size=(4, 2))

        def f_t(t):
            return nc.sum_all(nc.tanh(op(t, nc.Tensor(u0))))

        def f_np(x):
            t = nc.Tensor(x)
            with nc.no_grad():
                return float(f_t(t).data)

    elif arity == 2:
        u0 = rng.normal(size=(3, 4))

        def f_t(t):
            return nc.sum_all(nc.tanh(op(t, nc.Tensor(u0))))

        def f_np(x):
            with nc.no_grad():
                return float(f_t(nc.Tensor(x)).data)

    else:

        def f_t(t):
            return nc.sum_all(nc.tanh(op(t)))

        def f_np(x):
            with nc.no_grad():
                return float(f_t(nc.Tensor(x)).data)

    assert rel_err(analytic_gradient(f_t, x0), fd_gradient(f_np, x0)) < 1e-3


# taped ops whose gradient has its own test instead of an OP_CASES entry
OWN_GRADIENT_TEST = {
    "logabsdet": "TestLinearAlgebra::test_logabsdet_gradient",
    "solve": "TestLinearAlgebra::test_solve_gradient",
}


def test_every_taped_op_has_a_gradient_check():
    taped = {
        name
        for name, fn in vars(nc).items()
        if inspect.isfunction(fn) and fn.__module__ == nc.__name__ and "_register" in fn.__code__.co_names
    }
    covered = {name for _, op, _ in OP_CASES for name in op.__code__.co_names}
    assert taped - covered - set(OWN_GRADIENT_TEST) == set()
    assert set(OWN_GRADIENT_TEST) <= taped


def test_concat_ops_gradients():
    rng = np.random.default_rng(21)
    x0 = rng.normal(size=(3, 4))

    def f_t(t):
        parts = [nc.index(t, np.s_[..., :2]), nc.index(t, np.s_[..., 2:])]
        back = nc.concat(parts[::-1], -1)
        rows = nc.concat([nc.index(back, slice(2, 3)), nc.index(back, slice(0, 2))], 0)
        return nc.sum_all(nc.mul(rows, rows))

    def f_np(x):
        with nc.no_grad():
            return float(f_t(nc.Tensor(x)).data)

    assert rel_err(analytic_gradient(f_t, x0), fd_gradient(f_np, x0)) < 1e-3


@pytest.mark.parametrize(
    "key",
    [np.s_[1:3], np.s_[..., 2:], np.s_[:, 1], np.s_[1, None, ::2], 2, np.int64(0), np.s_[...]],
    ids=["rows", "lastdim", "column", "int_newaxis_step", "int", "numpy_int", "ellipsis"],
)
def test_basic_key_gradient_equals_scatter(key):
    rng = np.random.default_rng(23)
    a = nc.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    g = rng.normal(size=a.data[key].shape)
    with nc.record() as tape:
        out = nc.index(a, key)
    [node] = tape.nodes
    scatter = np.zeros_like(a.data)
    np.add.at(scatter, key, g)
    assert node.vjp(g)[0].tobytes() == scatter.tobytes()


class TestAttention:
    def qkv(self, seed, p=2, t=4, h=2, d_k=3):
        return nc.Tensor(np.random.default_rng(seed).normal(size=(p, t, 3, h, d_k)), requires_grad=True)

    def test_matches_masked_softmax_of_scaled_scores(self):
        # one graph and head at a time from the plain formula; the op runs them all at once
        qkv = self.qkv(24)
        for mask, rows in ((None, None), (CAUSAL, None), (PER_GRAPH, None), (CAUSAL, np.array([3, 1])), (PER_GRAPH, np.array([2, 0]))):
            got = nc.attention(qkv, mask, rows).data
            for p in range(2):
                for h in range(2):
                    q, k, v = (qkv.data[p, :, j, h] for j in range(3))
                    scores = q @ k.T / np.sqrt(3)
                    if mask is not None:
                        m = mask if mask.ndim == 2 else mask[p]
                        scores = np.where(m == nc.NEG_INF, -np.inf, scores)
                    e = np.exp(scores - scores.max(axis=1, keepdims=True))
                    expect = e / e.sum(axis=1, keepdims=True) @ v
                    if rows is not None:
                        expect = expect[rows[p] : rows[p] + 1]
                    assert np.max(np.abs(got[p, :, h] - expect)) <= 1e-14, (mask is None, rows, p, h)

    def test_one_tape_node_writes_one_gradient_of_the_input_shape(self):
        qkv = self.qkv(26)
        with nc.record() as tape:
            out = nc.attention(qkv, PER_GRAPH, np.array([1, 3]))
        [node] = tape.nodes
        assert out.shape == (2, 1, 2, 3)
        [grad] = node.vjp(np.ones(out.shape))
        assert grad.shape == qkv.shape and np.any(grad[:, :, 0] != 0.0)

    def test_all_masked_query_row_raises(self):
        qkv = self.qkv(27)
        mask = CAUSAL.copy()
        mask[2] = nc.NEG_INF
        with pytest.raises(DegenerateMaskError):
            nc.attention(qkv, mask)
        with pytest.raises(DegenerateMaskError):
            nc.attention(qkv, mask, np.array([0, 2]))
        per_graph = np.stack([CAUSAL, mask])
        with pytest.raises(DegenerateMaskError):
            nc.attention(qkv, per_graph, np.array([2, 2]))
        # the mask is cut to the query rows, so a row nobody asks for is not checked
        assert nc.attention(qkv, per_graph, np.array([2, 3])).shape == (2, 1, 2, 3)

    def test_input_shape_checked(self):
        with pytest.raises(ShapeError, match="attention"):
            nc.attention(nc.Tensor(np.ones((2, 4, 2, 2, 3))), None)


def test_apply_mask_blocks_gradient():
    # attention's mask: a masked key gets exactly zero weight, and its key and value no gradient
    qkv = nc.Tensor(np.random.default_rng(25).normal(size=(2, 4, 3, 2, 3)), requires_grad=True)
    maps = []
    with nc.record() as tape:
        out = nc.attention(qkv, CAUSAL, capture=maps)
        loss = nc.sum_all(nc.index(out, (slice(None), 1)))  # node 1 sees nodes 0 and 1
    nc.backward(loss, tape)
    assert len(maps) == 4 and all(np.all(m[CAUSAL == nc.NEG_INF] == 0.0) for m in maps)
    assert np.all(qkv.grad[:, 2:, 1:] == 0.0)  # keys and values of the masked nodes 2 and 3
    assert np.all(qkv.grad[:, :2, 1:] != 0.0)


def test_apply_mask_broadcasts_over_batch_and_heads():
    # attention's mask: a (T, T) one is shared by every graph and head, a (P, T, T) one by every head
    qkv = nc.Tensor(np.random.default_rng(22).normal(size=(2, 4, 3, 2, 3)))
    for rows in (None, np.array([3, 1])):
        shared = nc.attention(qkv, CAUSAL, rows).data
        assert np.array_equal(shared, nc.attention(qkv, np.stack([CAUSAL, CAUSAL]), rows).data)
        mixed = nc.attention(qkv, np.stack([CAUSAL, PER_GRAPH[1]]), rows).data
        assert np.array_equal(mixed[0], shared[0]) and not np.array_equal(mixed[1], shared[1])
    for bad in (np.ones((3, 4, 4)), np.ones((4, 3)), np.ones((2, 2, 4, 4))):
        with pytest.raises(ShapeError, match="mask shape"):
            nc.attention(qkv, bad)


def test_batched_shapes_checked():
    with pytest.raises(ShapeError, match="linear"):
        nc.linear(nc.Tensor(np.ones((2, 3, 4))), nc.Tensor(np.ones((3, 2))))


class TestLinearAlgebra:
    def test_logabsdet_negative_determinant(self):
        # W = Q1 diag(d) Q2 with orthogonal Q1, Q2 has |det W| = prod |d|
        rng = np.random.default_rng(5)
        for _ in range(20):
            q1, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            d = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
            a = q1 @ np.diag(d) @ q2
            if np.linalg.det(a) > 0:
                a[[0, 1]] = a[[1, 0]]  # a row swap flips the sign only
            assert np.linalg.det(a) < 0
            val = float(nc.logabsdet(nc.Tensor(a), nc.inverse(a).T).data)
            assert val == pytest.approx(np.sum(np.log(np.abs(d))), abs=1e-10)

    def test_inverse_is_right_inverse(self):
        rng = np.random.default_rng(6)
        for n in (1, 5, 32):
            a = rng.normal(size=(n, n))
            assert np.allclose(a @ nc.inverse(a), np.eye(n), atol=1e-10)

    def test_logabsdet_gradient(self):
        rng = np.random.default_rng(8)
        w0 = rng.normal(size=(4, 4)) + 2 * np.eye(4)

        def f_t(t):
            return nc.logabsdet(t, nc.inverse(t.data).T)

        def f_np(x):
            with nc.no_grad():
                return float(f_t(nc.Tensor(x)).data)

        assert rel_err(analytic_gradient(f_t, w0), fd_gradient(f_np, w0)) < 1e-3

    def test_solve_gradient(self):
        rng = np.random.default_rng(9)
        w0 = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        y0 = rng.normal(size=(4, 3))

        def loss(y, w):
            return nc.sum_all(nc.tanh(nc.solve(y, w, np.ascontiguousarray(nc.inverse(w.data).T))))

        def f_np(y, w):
            with nc.no_grad():
                return float(loss(nc.Tensor(y), nc.Tensor(w)).data)

        y, w = nc.Tensor(y0, requires_grad=True), nc.Tensor(w0, requires_grad=True)
        with nc.record() as tape:
            out = loss(y, w)
        nc.backward(out, tape)
        assert np.allclose(np.linalg.solve(w0, y0.T).T, nc.solve(y, w, nc.inverse(w0).T).data, atol=1e-12)
        assert rel_err(y.grad, fd_gradient(lambda x: f_np(x, w0), y0)) < 1e-3
        assert rel_err(w.grad, fd_gradient(lambda x: f_np(y0, x), w0)) < 1e-3

    def test_singular_matrix_rejected(self):
        with pytest.raises(nc.SingularMatrixError):
            nc.inverse(np.zeros((3, 3)))
        lin = InvertibleLinear(np.random.default_rng(0), 3)
        lin.w.data[:] = 0.0
        with pytest.raises(nc.SingularMatrixError):  # before the log-det is taken
            lin.forward(nc.Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("n, c", [(64, 0.6), (256, 0.89), (256, 0.4)])
    def test_scaled_rotation_is_not_singular(self, n, c):
        # condition number 1, whatever the scale: |det| = c^n may be tiny
        q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))
        w = c * q
        assert np.allclose(nc.inverse(w), q.T / c, atol=1e-12)
        assert float(nc.logabsdet(nc.Tensor(w), nc.inverse(w).T).data) == pytest.approx(n * math.log(c), abs=1e-9)

    def test_ill_conditioned_unit_determinant_rejected(self):
        w = np.diag([1e-7, 1e7, 1.0, 1.0])  # det 1, condition number 1e14
        assert float(nc.logabsdet(nc.Tensor(w), np.linalg.inv(w).T).data) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(nc.SingularMatrixError, match="condition number"):
            nc.inverse(w)


class TestAdam:
    def test_first_step_bias_corrected(self):
        p = np.zeros(1)
        m = np.zeros(1)
        v = np.zeros(1)
        nc.adam_step(p, np.ones(1), m, v, t=1, lr=0.1)
        assert p[0] == pytest.approx(-0.1, abs=1e-6)

    def test_zero_gradient_leaves_param(self):
        p = np.array([1.3])
        nc.adam_step(p, np.zeros(1), np.zeros(1), np.zeros(1), t=1, lr=0.1)
        assert p[0] == 1.3

    def test_converges_on_quadratic(self):
        x = nc.Tensor(0.0, requires_grad=True)
        opt = nc.Adam({"x": x}, lr=0.2)
        for _ in range(100):
            opt.zero_grad()
            with nc.record() as tape:
                d = nc.sub(x, 5.0)
                loss = nc.mul(d, d)
            nc.backward(loss, tape)
            opt.step()
        assert abs(float(x.data) - 5.0) < 1e-2

    def test_state_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nc.adam_step(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), 1, 0.1)


def test_determinism_same_seed_same_bits():
    def run(seed):
        rng = np.random.default_rng(seed)
        x = nc.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        w = nc.Tensor(rng.normal(size=(4, 12)), requires_grad=True)
        with nc.record() as tape:
            y = nc.attention(nc.reshape(nc.matmul(nc.tanh(x), w), (1, 4, 3, 2, 2)), CAUSAL)
            loss = nc.mean_all(y)
        nc.backward(loss, tape)
        return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run(123) == run(123)


def test_no_tape_records_nothing():
    x = nc.Tensor([1.0, 2.0], requires_grad=True)
    y = nc.mul(x, x)
    assert not y.requires_grad
    with nc.record() as tape:
        with nc.no_grad():
            nc.mul(x, x)
    assert tape.nodes == []
