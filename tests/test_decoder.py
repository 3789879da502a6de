import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_gradient, rel_err
from stglow import decoder as dec
from stglow import model as model_mod
from stglow import numcore as nc
from stglow import pipeline as pl
from stglow.config import toy_config
from stglow.data import SynthSpec, synth_scenes
from stglow.errors import ContractError
from stglow.numcore import Tensor


def make_decoder(seed=0, channels=6, d_h=8, t_pred=12, **kw):
    return dec.BidirectionalDecoder(np.random.default_rng(seed), channels, d_h, t_pred, **kw)


def decode_one(decoder, mb_vec):
    return decoder.decode_batch(Tensor(np.asarray(mb_vec, dtype=float).reshape(1, -1)))


HEADS = ("y_f", "y_b", "y_both")


class TestDecode:
    def test_shape_contract(self):
        d = make_decoder()
        out = decode_one(d, np.zeros(6))
        assert out.goal.shape == (1, 2)
        assert out.y_f.shape == (1, 12, 2)
        assert out.y_both.shape == (1, 12, 2)
        assert out.y_b.shape == (1, 11, 2)

    def test_deterministic(self):
        d = make_decoder(seed=1)
        mb = np.random.default_rng(2).normal(size=6)
        a = decode_one(d, mb)
        b = decode_one(d, mb)
        for head in HEADS:
            assert getattr(a, head).data.tobytes() == getattr(b, head).data.tobytes(), head

    def test_goal_head_feeds_backward_pass_only(self):
        d = make_decoder(seed=3)
        mb = np.random.default_rng(4).normal(size=6)
        base = decode_one(d, mb)
        for p in d.goal_mlp.params().values():
            p.data += 0.37
        perturbed = decode_one(d, mb)
        assert np.array_equal(perturbed.y_f.data, base.y_f.data)
        assert not np.allclose(perturbed.y_both.data, base.y_both.data)

    def test_last_both_row_is_goal(self):
        d = make_decoder(seed=5)
        out = decode_one(d, np.random.default_rng(6).normal(size=6))
        assert np.array_equal(out.y_both.data[:, -1], out.goal.data)

    def test_forward_only_mode(self):
        d = make_decoder(seed=7, bidirectional=False)
        out = decode_one(d, np.zeros(6))
        assert out.y_b is None and out.y_both is None
        assert out.y_f.shape == (1, 12, 2)

    def test_batch_matches_single(self):
        d = make_decoder(seed=8, t_pred=5)
        rng = np.random.default_rng(9)
        mb = rng.normal(size=(3, 6))
        batch = d.decode_batch(Tensor(mb))
        for m in range(3):
            single = d.decode_batch(Tensor(mb[m : m + 1]))
            # rows are independent; BLAS may round a (3, C) and a (1, C) matmul differently
            np.testing.assert_allclose(batch.goal.data[m], single.goal.data[0], rtol=0, atol=1e-12)
            for head in HEADS:
                np.testing.assert_allclose(
                    getattr(batch, head).data[m], getattr(single, head).data[0], rtol=0, atol=1e-12, err_msg=head
                )


def brute_force(batch, gt_future, w):
    """Independent enumeration of both minima in plain numpy, window by window:
    window b owns rows b*K .. b*K+K-1 of every head."""
    gt_future = np.asarray(gt_future)
    n_windows = gt_future.shape[0]
    k = batch.goal.data.shape[0] // n_windows
    out = []
    for b in range(n_windows):
        gt = gt_future[b]
        goal_vals = []
        traj_vals = []
        for m in range(b * k, (b + 1) * k):
            goal_vals.append(np.linalg.norm(batch.goal.data[m] - gt[-1]))
            total = w.fwd * np.linalg.norm(batch.y_f.data[m] - gt, axis=1).sum()
            if batch.y_b is not None:
                total += w.bwd * np.linalg.norm(batch.y_b.data[m] - gt[:-1], axis=1).sum()
            if batch.y_both is not None:
                total += w.both * np.linalg.norm(batch.y_both.data[m] - gt, axis=1).sum()
            traj_vals.append(total)
        out.append(w.alpha * min(goal_vals) + min(traj_vals))
    return np.array(out)


class TestTrajectoryLoss:
    def test_perfect_sample_gives_zero(self):
        d = make_decoder(seed=10, t_pred=4)
        rng = np.random.default_rng(11)
        decoded = d.decode_batch(Tensor(rng.normal(size=(3, 6))))
        gt_future = decoded.y_f.data[1].copy()

        def exact_row_1(head, truth):
            # every head of sample 1 agrees with the ground truth
            arr = head.data.copy()
            arr[1] = truth
            return Tensor(arr)

        perfect = dec.BatchDecoded(
            goal=exact_row_1(decoded.goal, gt_future[-1]),
            y_f=exact_row_1(decoded.y_f, gt_future),
            y_b=exact_row_1(decoded.y_b, gt_future[:-1]),
            y_both=exact_row_1(decoded.y_both, gt_future),
        )
        loss = dec.trajectory_loss_batched(perfect, gt_future[None])
        assert loss.shape == (1,)
        assert float(loss.data[0]) == 0.0

    def test_k1_is_plain_weighted_sum(self):
        d = make_decoder(seed=12, t_pred=4)
        rng = np.random.default_rng(13)
        decoded = d.decode_batch(Tensor(rng.normal(size=(1, 6))))
        gt = rng.normal(size=(1, 4, 2))
        w = dec.LossWeights()
        loss = dec.trajectory_loss_batched(decoded, gt, w)
        np.testing.assert_allclose(loss.data, brute_force(decoded, gt, w), rtol=0, atol=1e-12)

    def test_matches_brute_force_enumeration(self):
        d = make_decoder(seed=14, t_pred=6)
        rng = np.random.default_rng(15)
        decoded = d.decode_batch(Tensor(rng.normal(size=(3, 6))))
        gt = rng.normal(size=(1, 6, 2))
        w = dec.LossWeights(alpha=0.7, fwd=0.2, bwd=0.3, both=0.5)
        loss = dec.trajectory_loss_batched(decoded, gt, w)
        np.testing.assert_allclose(loss.data, brute_force(decoded, gt, w), rtol=0, atol=1e-12)

    def test_windows_minimised_independently(self):
        n_windows, k, t_p = 3, 4, 5
        d = make_decoder(seed=23, t_pred=t_p)
        rng = np.random.default_rng(24)
        decoded = d.decode_batch(Tensor(rng.normal(size=(n_windows * k, 6))))
        gt = rng.normal(size=(n_windows, t_p, 2))
        # window 0's truth is a sample of window 1: a minimum taken across
        # windows would pick that row for window 0
        gt[0] = decoded.y_both.data[k + 1]
        w = dec.LossWeights(alpha=0.7, fwd=0.2, bwd=0.3, both=0.5)
        loss = dec.trajectory_loss_batched(decoded, gt, w)
        assert loss.shape == (n_windows,)
        np.testing.assert_allclose(loss.data, brute_force(decoded, gt, w), rtol=0, atol=1e-12)
        whole = brute_force(decoded, gt[:1], w)  # window 0's truth against every row
        assert float(loss.data[0]) > float(whole[0]) + 1e-6

    def test_forward_only_matches_brute_force(self):
        d = make_decoder(seed=16, t_pred=5, bidirectional=False)
        rng = np.random.default_rng(17)
        decoded = d.decode_batch(Tensor(rng.normal(size=(4, 6))))
        gt = rng.normal(size=(2, 5, 2))
        w = dec.LossWeights()
        loss = dec.trajectory_loss_batched(decoded, gt, w)
        np.testing.assert_allclose(loss.data, brute_force(decoded, gt, w), rtol=0, atol=1e-12)

    def test_empty_sample_set_rejected(self):
        d = make_decoder(t_pred=3)
        batch = d.decode_batch(Tensor(np.zeros((0, 6))))
        with pytest.raises(ContractError):
            dec.trajectory_loss_batched(batch, np.zeros((1, 3, 2)))

    @pytest.mark.parametrize(
        "rows,gt_shape",
        [(5, (2, 3, 2)), (4, (0, 3, 2)), (4, (2, 4, 2)), (4, (3, 2))],
        ids=["rows_not_multiple_of_windows", "no_windows", "wrong_horizon", "missing_window_axis"],
    )
    def test_bad_row_layout_rejected(self, rows, gt_shape):
        d = make_decoder(t_pred=3)
        batch = d.decode_batch(Tensor(np.zeros((rows, 6))))
        with pytest.raises(ContractError):
            dec.trajectory_loss_batched(batch, np.zeros(gt_shape))

    @given(st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_monotone_in_k(self, k, seed):
        d = make_decoder(seed=18, t_pred=3)
        rng = np.random.default_rng(seed)
        mb = rng.normal(size=(k + 1, 6))
        gt = rng.normal(size=(1, 3, 2))
        smaller = dec.trajectory_loss_batched(d.decode_batch(Tensor(mb[:k])), gt)
        larger = dec.trajectory_loss_batched(d.decode_batch(Tensor(mb)), gt)
        assert float(smaller.data[0]) >= 0.0
        assert float(larger.data[0]) <= float(smaller.data[0]) + 1e-12

    def test_gradient_flows_only_through_argmin_sample(self):
        d = make_decoder(seed=19, t_pred=3)
        rng = np.random.default_rng(20)
        mb_near = Tensor(np.full((1, 6), 0.01), requires_grad=True)
        mb_far = Tensor(rng.normal(size=(1, 6)) * 3.0, requires_grad=True)
        gt_future = d.decode_batch(Tensor(np.zeros((1, 6)))).y_f.data
        with nc.record() as tape:
            near = d.decode_batch(mb_near)
            far = d.decode_batch(mb_far)
            merged = dec.BatchDecoded(
                **{f: nc.concat_rows([getattr(near, f), getattr(far, f)]) for f in ("goal",) + HEADS}
            )
            loss = nc.sum_all(dec.trajectory_loss_batched(merged, gt_future))
        nc.backward(loss, tape)
        # the near sample wins both minima (its forward head matches gt exactly)
        assert mb_near.grad is not None and np.any(mb_near.grad != 0.0)
        assert mb_far.grad is None or np.all(mb_far.grad == 0.0)

    def test_gradients_match_finite_differences(self):
        d = make_decoder(seed=21, channels=4, d_h=6, t_pred=3)
        rng = np.random.default_rng(22)
        mb0 = rng.normal(size=(4, 4))
        gt = rng.normal(size=(2, 3, 2))
        params = d.params()

        def total():
            return nc.sum_all(dec.trajectory_loss_batched(d.decode_batch(Tensor(mb0)), gt))

        def loss_value():
            with nc.no_grad():
                return float(total().data)

        with nc.record() as tape:
            loss = total()
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


class BatchLossRun:
    """Shared setup: a toy model run through batch_loss with the loss call recorded."""

    def setup_model(self):
        cfg = toy_config(seed=4)
        model = pl.build_model(cfg)
        spec = SynthSpec(kinds=("straight", "turn"), count=6, seed=7, t_obs=cfg.model.t_obs, t_pred=cfg.model.t_pred)
        windows = synth_scenes(spec)
        with nc.no_grad():
            mb, st_ = model.encode_windows(windows, training=True)
        model.flow.initialize(mb.data, st_.data)
        return model, windows

    def run_batches(self, monkeypatch, weights, batch_size=3, loss_fn=None):
        """batch_loss over consecutive batches of batch_size windows;
        per batch: (windows, stats, loss calls)."""
        model, windows = self.setup_model()
        loss_fn = loss_fn or dec.trajectory_loss_batched
        calls = []

        def recording(batch, gt_future, weights):
            calls.append((batch, np.array(gt_future), weights))
            return loss_fn(batch, gt_future, weights)

        # the benchmark traces the loss under this name in stglow.model
        monkeypatch.setattr(model_mod, "trajectory_loss_batched", recording)
        out = []
        for i in range(0, len(windows), batch_size):
            batch_windows = windows[i : i + batch_size]
            calls.clear()
            with nc.record():
                _, stats = model.batch_loss(batch_windows, 4, np.random.default_rng(8), weights)
            out.append((batch_windows, stats, list(calls)))
        return out


class TestBatchLoss(BatchLossRun):
    def test_one_loss_call_per_batch(self, monkeypatch):
        w = dec.LossWeights()
        for batch_windows, _, calls in self.run_batches(monkeypatch, w):
            assert len(calls) == 1
            decoded, gt_future, weights = calls[0]
            assert weights is w
            assert decoded.goal.shape == (3 * 4, 2)
            assert np.array_equal(gt_future, np.stack([x.fut[x.target_index] for x in batch_windows]))


class TestTotalLoss(BatchLossRun):
    """batch_loss's l_total is l_p plus the sum of the per-window trajectory losses."""

    def test_zero_trajectory_losses(self, monkeypatch):
        def zeros(batch, gt_future, weights):
            return Tensor(np.zeros(len(gt_future)))

        for _, stats, calls in self.run_batches(monkeypatch, dec.LossWeights(), loss_fn=zeros):
            assert len(calls) == 1
            assert stats["l_total"] == stats["l_p"]
            assert stats["l_traj"] == 0.0

    def test_single_pedestrian(self, monkeypatch):
        w = dec.LossWeights()
        for batch_windows, stats, calls in self.run_batches(monkeypatch, w, batch_size=1):
            assert len(batch_windows) == 1
            decoded, gt_future, _ = calls[0]
            (expected,) = brute_force(decoded, gt_future, w)
            assert stats["l_total"] == pytest.approx(stats["l_p"] + expected, rel=0, abs=1e-12)
            assert stats["l_traj"] == pytest.approx(expected, rel=0, abs=1e-12)

    def test_matches_manual_sum(self, monkeypatch):
        w = dec.LossWeights(alpha=0.7, fwd=0.2, bwd=0.3, both=0.5)
        for _, stats, calls in self.run_batches(monkeypatch, w):
            decoded, gt_future, _ = calls[0]
            expected = brute_force(decoded, gt_future, w)
            assert stats["l_total"] == pytest.approx(stats["l_p"] + expected.sum(), rel=0, abs=1e-12)
            assert stats["l_traj"] == pytest.approx(expected.mean(), rel=0, abs=1e-12)
