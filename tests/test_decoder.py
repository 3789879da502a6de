import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_gradient, rel_err
from stglow import decoder as dec
from stglow import numcore as nc
from stglow.errors import ContractError
from stglow.numcore import Tensor


def make_decoder(seed=0, channels=6, d_h=8, t_pred=12, **kw):
    return dec.BidirectionalDecoder(np.random.default_rng(seed), channels, d_h, t_pred, **kw)


def rows(seq):
    """(M, len(seq), 2): a decoder head's per-step (M, 2) outputs, row by row."""
    return np.stack([t.data for t in seq], axis=1)


def decode_one(decoder, mb_vec):
    return decoder.decode_batch(Tensor(np.asarray(mb_vec, dtype=float).reshape(1, -1)))


class TestDecode:
    def test_shape_contract(self):
        d = make_decoder()
        out = decode_one(d, np.zeros(6))
        assert out.goal.data.shape == (1, 2)
        assert rows(out.y_f).shape == (1, 12, 2)
        assert rows(out.y_both).shape == (1, 12, 2)
        assert rows(out.y_b).shape == (1, 11, 2)

    def test_deterministic(self):
        d = make_decoder(seed=1)
        mb = np.random.default_rng(2).normal(size=6)
        a = decode_one(d, mb)
        b = decode_one(d, mb)
        assert rows(a.y_f).tobytes() == rows(b.y_f).tobytes()
        assert rows(a.y_both).tobytes() == rows(b.y_both).tobytes()

    def test_goal_head_feeds_backward_pass_only(self):
        d = make_decoder(seed=3)
        mb = np.random.default_rng(4).normal(size=6)
        base = decode_one(d, mb)
        for p in d.goal_mlp.params().values():
            p.data += 0.37
        perturbed = decode_one(d, mb)
        assert np.array_equal(rows(perturbed.y_f), rows(base.y_f))
        assert not np.allclose(rows(perturbed.y_both), rows(base.y_both))

    def test_last_both_row_is_goal(self):
        d = make_decoder(seed=5)
        out = decode_one(d, np.random.default_rng(6).normal(size=6))
        assert np.array_equal(out.y_both[-1].data, out.goal.data)

    def test_forward_only_mode(self):
        d = make_decoder(seed=7, bidirectional=False)
        out = decode_one(d, np.zeros(6))
        assert out.y_b is None and out.y_both is None
        assert rows(out.y_f).shape == (1, 12, 2)

    def test_batch_matches_single(self):
        d = make_decoder(seed=8, t_pred=5)
        rng = np.random.default_rng(9)
        mb = rng.normal(size=(3, 6))
        batch = d.decode_batch(Tensor(mb))
        for m in range(3):
            single = d.decode_batch(Tensor(mb[m : m + 1]))
            # rows are independent; BLAS may round a (3, C) and a (1, C) matmul differently
            np.testing.assert_allclose(batch.goal.data[m], single.goal.data[0], rtol=0, atol=1e-12)
            for head in ("y_f", "y_b", "y_both"):
                np.testing.assert_allclose(
                    rows(getattr(batch, head))[m], rows(getattr(single, head))[0], rtol=0, atol=1e-12, err_msg=head
                )


class TestTrajectoryLoss:
    def brute_force(self, batch, gt_future, gt_goal, w):
        """Independent enumeration of both minima in plain numpy."""
        goal_vals = []
        traj_vals = []
        for m in range(batch.goal.data.shape[0]):
            goal_vals.append(np.linalg.norm(batch.goal.data[m] - gt_goal))
            total = w.fwd * np.linalg.norm(rows(batch.y_f)[m] - gt_future, axis=1).sum()
            if batch.y_b is not None:
                total += w.bwd * np.linalg.norm(rows(batch.y_b)[m] - gt_future[:-1], axis=1).sum()
            if batch.y_both is not None:
                total += w.both * np.linalg.norm(rows(batch.y_both)[m] - gt_future, axis=1).sum()
            traj_vals.append(total)
        return w.alpha * min(goal_vals) + min(traj_vals)

    def test_perfect_sample_gives_zero(self):
        d = make_decoder(seed=10, t_pred=4)
        rng = np.random.default_rng(11)
        decoded = d.decode_batch(Tensor(rng.normal(size=(3, 6))))
        gt_future = rows(decoded.y_f)[1].copy()

        def exact_row_1(seq, truth):
            # every head of sample 1 agrees with the ground truth
            out = []
            for t, step in enumerate(seq):
                arr = step.data.copy()
                arr[1] = truth[t]
                out.append(Tensor(arr))
            return out

        perfect = dec.BatchDecoded(
            goal=exact_row_1([decoded.goal], gt_future[-1:])[0],
            y_f=exact_row_1(decoded.y_f, gt_future),
            y_b=exact_row_1(decoded.y_b, gt_future[:-1]),
            y_both=exact_row_1(decoded.y_both, gt_future),
        )
        loss = dec.trajectory_loss_batched(perfect, gt_future, gt_future[-1])
        assert float(loss.data) == 0.0

    def test_k1_is_plain_weighted_sum(self):
        d = make_decoder(seed=12, t_pred=4)
        rng = np.random.default_rng(13)
        decoded = d.decode_batch(Tensor(rng.normal(size=(1, 6))))
        gt = rng.normal(size=(4, 2))
        w = dec.LossWeights()
        loss = dec.trajectory_loss_batched(decoded, gt, gt[-1], w)
        assert float(loss.data) == pytest.approx(self.brute_force(decoded, gt, gt[-1], w), abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        d = make_decoder(seed=14, t_pred=6)
        rng = np.random.default_rng(15)
        decoded = d.decode_batch(Tensor(rng.normal(size=(3, 6))))
        gt = rng.normal(size=(6, 2))
        w = dec.LossWeights(alpha=0.7, fwd=0.2, bwd=0.3, both=0.5)
        loss = dec.trajectory_loss_batched(decoded, gt, gt[-1], w)
        assert float(loss.data) == pytest.approx(self.brute_force(decoded, gt, gt[-1], w), abs=1e-12)

    def test_forward_only_matches_brute_force(self):
        d = make_decoder(seed=16, t_pred=5, bidirectional=False)
        rng = np.random.default_rng(17)
        decoded = d.decode_batch(Tensor(rng.normal(size=(4, 6))))
        gt = rng.normal(size=(5, 2))
        w = dec.LossWeights()
        loss = dec.trajectory_loss_batched(decoded, gt, gt[-1], w)
        assert float(loss.data) == pytest.approx(self.brute_force(decoded, gt, gt[-1], w), abs=1e-12)

    def test_empty_sample_set_rejected(self):
        d = make_decoder(t_pred=3)
        batch = d.decode_batch(Tensor(np.zeros((0, 6))))
        with pytest.raises(ContractError):
            dec.trajectory_loss_batched(batch, np.zeros((3, 2)), np.zeros(2))

    @given(st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_monotone_in_k(self, k, seed):
        d = make_decoder(seed=18, t_pred=3)
        rng = np.random.default_rng(seed)
        mb = rng.normal(size=(k + 1, 6))
        gt = rng.normal(size=(3, 2))
        smaller = dec.trajectory_loss_batched(d.decode_batch(Tensor(mb[:k])), gt, gt[-1])
        larger = dec.trajectory_loss_batched(d.decode_batch(Tensor(mb)), gt, gt[-1])
        assert float(smaller.data) >= 0.0
        assert float(larger.data) <= float(smaller.data) + 1e-12

    def test_gradient_flows_only_through_argmin_sample(self):
        d = make_decoder(seed=19, t_pred=3)
        rng = np.random.default_rng(20)
        mb_near = Tensor(np.full((1, 6), 0.01), requires_grad=True)
        mb_far = Tensor(rng.normal(size=(1, 6)) * 3.0, requires_grad=True)
        gt = d.decode_batch(Tensor(np.zeros((1, 6)))).y_f
        gt_future = np.stack([row.data[0] for row in gt])
        with nc.record() as tape:
            near = d.decode_batch(mb_near)
            far = d.decode_batch(mb_far)
            merged = dec.BatchDecoded(
                goal=nc.concat_rows([near.goal, far.goal]),
                y_f=[nc.concat_rows([a, b]) for a, b in zip(near.y_f, far.y_f)],
                y_b=[nc.concat_rows([a, b]) for a, b in zip(near.y_b, far.y_b)],
                y_both=[nc.concat_rows([a, b]) for a, b in zip(near.y_both, far.y_both)],
            )
            loss = dec.trajectory_loss_batched(merged, gt_future, gt_future[-1])
        nc.backward(loss, tape)
        # the near sample wins both minima (its forward head matches gt exactly)
        assert mb_near.grad is not None and np.any(mb_near.grad != 0.0)
        assert mb_far.grad is None or np.all(mb_far.grad == 0.0)

    def test_gradients_match_finite_differences(self):
        d = make_decoder(seed=21, channels=4, d_h=6, t_pred=3)
        rng = np.random.default_rng(22)
        mb0 = rng.normal(size=(2, 4))
        gt = rng.normal(size=(3, 2))
        params = d.params()

        def loss_value():
            with nc.no_grad():
                return float(dec.trajectory_loss_batched(d.decode_batch(Tensor(mb0)), gt, gt[-1]).data)

        with nc.record() as tape:
            loss = dec.trajectory_loss_batched(d.decode_batch(Tensor(mb0)), gt, gt[-1])
        nc.backward(loss, tape)
        for name, p in params.items():
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)

            def f(x, p=p):
                saved = p.data.copy()
                p.data[:] = x.reshape(p.data.shape)
                val = loss_value()
                p.data[:] = saved
                return val

            fd = fd_gradient(f, p.data.ravel().copy()).reshape(p.data.shape)
            assert rel_err(analytic, fd, floor=1e-6) < 1e-3, f"gradient mismatch for {name}"


class TestTotalLoss:
    def test_zero_trajectory_losses(self):
        lp = Tensor(3.5)
        assert float(dec.total_loss(lp, []).data) == 3.5

    def test_single_pedestrian(self):
        out = dec.total_loss(Tensor(1.0), [Tensor(2.0)])
        assert float(out.data) == 3.0

    def test_matches_manual_sum(self):
        rng = np.random.default_rng(23)
        vals = rng.normal(size=6)
        out = dec.total_loss(Tensor(vals[0]), [Tensor(v) for v in vals[1:]])
        assert float(out.data) == pytest.approx(vals.sum(), abs=1e-12)
