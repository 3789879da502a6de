import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_gradient, rel_err
from stglow import decoder as dec
from stglow import flow as fl
from stglow import model as model_mod
from stglow import numcore as nc
from stglow import pipeline as pl
from stglow.config import toy_config
from stglow.data import SYNTH_KINDS, SynthSpec, synth_scenes
from stglow.errors import ContractError
from stglow.flow import nll_loss, sample_behaviors
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

    @pytest.mark.parametrize(
        "bidirectional,prediction_only,steps",
        [(True, True, 11), (True, False, 12), (False, True, 12), (False, False, 12)],
    )
    def test_prediction_only_skips_the_dead_forward_step(self, monkeypatch, bidirectional, prediction_only, steps):
        d = make_decoder(seed=10, bidirectional=bidirectional)
        mb = Tensor(np.random.default_rng(11).normal(size=(3, 6)))
        training = d.decode_batch(mb)
        real, calls = d.fwd_gru, []
        monkeypatch.setattr(d, "fwd_gru", lambda h, x: calls.append(1) or real(h, x))
        out = d.decode_batch(mb, prediction_only=prediction_only)
        assert len(calls) == steps
        assert out.prediction.data.tobytes() == training.prediction.data.tobytes()

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
                **{f: nc.concat([getattr(near, f), getattr(far, f)], 0) for f in ("goal",) + HEADS}
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
    """Shared setup: a toy model run through batch_loss with its decodes and
    loss calls recorded, each with whether a tape was active."""

    def setup_model(self):
        cfg = toy_config(seed=4)
        model = pl.build_model(cfg)
        spec = SynthSpec(kinds=("straight", "turn"), count=6, seed=7, t_obs=cfg.model.t_obs, t_pred=cfg.model.t_pred)
        windows = synth_scenes(spec)
        with nc.no_grad():
            mb, st_ = model.encode_windows(windows, training=True)
        model.flow.initialize(mb.data, st_.data)
        return model, windows

    def run_batches(self, monkeypatch, weights, batch_size=3, loss_fn=None, sigma=1.0):
        """batch_loss over consecutive batches of batch_size windows; per
        batch: (windows, stats, loss calls, decodes). A loss call is
        (decoded, gt_future, weights, taped); a decode is (decoded, taped)."""
        model, windows = self.setup_model()
        loss_fn = loss_fn or dec.trajectory_loss_batched
        decode = dec.BidirectionalDecoder.decode_batch
        calls, decodes = [], []

        def recording(batch, gt_future, weights):
            calls.append((batch, np.array(gt_future), weights, nc.active_tape() is not None))
            return loss_fn(batch, gt_future, weights)

        def recording_decode(decoder, mb, **kw):
            out = decode(decoder, mb, **kw)
            decodes.append((out, nc.active_tape() is not None))
            return out

        # the benchmark traces the loss under this name in stglow.model
        monkeypatch.setattr(model_mod, "trajectory_loss_batched", recording)
        monkeypatch.setattr(dec.BidirectionalDecoder, "decode_batch", recording_decode)
        out = []
        for i in range(0, len(windows), batch_size):
            batch_windows = windows[i : i + batch_size]
            calls.clear()
            decodes.clear()
            with nc.record():
                _, stats = model.batch_loss(batch_windows, 4, np.random.default_rng(8), weights, sigma)
            out.append((batch_windows, stats, list(calls), list(decodes)))
        return out


def all_rows_decode(decodes, n_rows):
    """The one untaped decode of all B*K rows: the float32 selection pass."""
    (decoded,) = [d for d, taped in decodes if not taped]
    assert decoded.goal.shape == (n_rows, 2)
    assert all(getattr(decoded, f).data.dtype == np.float32 for f in ("goal",) + HEADS)
    return decoded


class TestBatchLoss(BatchLossRun):
    def test_one_loss_call_per_batch(self, monkeypatch):
        w = dec.LossWeights()
        for batch_windows, _, calls, _ in self.run_batches(monkeypatch, w):
            taped = [c for c in calls if c[3]]
            assert len(taped) == 1
            decoded, gt_future, weights, _ = taped[0]
            assert weights is w
            # the taped loss sees one row per pedestrian, holding its goal winner's
            # goal and its trajectory winner's trajectory heads: a B-row batch, scored as it stands
            assert all(getattr(decoded, f).shape[0] == 3 for f in ("goal",) + HEADS)
            assert np.array_equal(gt_future, np.stack([x.fut[x.target_index] for x in batch_windows]))


class TestTotalLoss(BatchLossRun):
    """batch_loss's l_total is l_p plus the sum of the per-window best-of-K
    trajectory losses over all B*K decoded rows, up to rounding, and l_traj
    is their mean; l_total is exactly the loss that is differentiated.

    The reference decodes the B*K rows in float64 (`float64_rows`): the
    selection pass's own float32 values are only good for its argmin."""

    def float64_rows(self, batch_windows, k):
        """The B*K rows that batch_loss's selection pass decodes in float32,
        decoded in float64: the same model, st and base draws (seed 8)."""
        model, _ = self.setup_model()
        with nc.no_grad():
            _, st_ = model.encode_windows(batch_windows, training=True)
            behaviors, _ = sample_behaviors(st_, model.flow, k, 1.0, [np.random.default_rng(8)] * len(batch_windows))
            return model.decoder.decode_batch(behaviors)

    def test_l_total_is_the_differentiated_loss(self):
        model, windows = self.setup_model()
        for i in range(0, len(windows), 3):
            with nc.record():
                loss, stats = model.batch_loss(windows[i : i + 3], 4, np.random.default_rng(8), dec.LossWeights())
            assert stats["l_total"] == float(loss.data)

    def test_zero_trajectory_losses(self, monkeypatch):
        def zeros(batch, gt_future, weights):
            return Tensor(np.zeros(len(gt_future)))

        for _, stats, calls, _ in self.run_batches(monkeypatch, dec.LossWeights(), loss_fn=zeros):
            assert sum(taped for *_, taped in calls) == 1
            assert stats["l_total"] == stats["l_p"]
            assert stats["l_traj"] == 0.0

    def test_single_pedestrian(self, monkeypatch):
        w = dec.LossWeights()
        for batch_windows, stats, calls, decodes in self.run_batches(monkeypatch, w, batch_size=1):
            assert len(batch_windows) == 1
            gt_future = calls[0][1]
            all_rows_decode(decodes, 4)
            (expected,) = brute_force(self.float64_rows(batch_windows, 4), gt_future, w)
            assert stats["l_total"] == pytest.approx(stats["l_p"] + expected, rel=0, abs=1e-12)
            assert stats["l_traj"] == pytest.approx(expected, rel=0, abs=1e-12)

    def test_matches_manual_sum(self, monkeypatch):
        w = dec.LossWeights(alpha=0.7, fwd=0.2, bwd=0.3, both=0.5)
        for batch_windows, stats, calls, decodes in self.run_batches(monkeypatch, w):
            gt_future = calls[0][1]
            all_rows_decode(decodes, 3 * 4)
            expected = brute_force(self.float64_rows(batch_windows, 4), gt_future, w)
            assert stats["l_total"] == pytest.approx(stats["l_p"] + expected.sum(), rel=0, abs=1e-12)
            assert stats["l_traj"] == pytest.approx(expected.mean(), rel=0, abs=1e-12)


def one_row(decoded, m):
    return dec.BatchDecoded(*(Tensor(getattr(decoded, f).data[m : m + 1]) for f in ("goal",) + HEADS))


class TestWinnerSelection:
    def test_ties_go_to_the_lowest_row(self):
        d = make_decoder(seed=25, t_pred=4)
        row = d.decode_batch(Tensor(np.random.default_rng(26).normal(size=(1, 6))))
        # two pedestrians, K = 3 equal rows each, as leaves so the gradient shows which rows won
        tied = dec.BatchDecoded(
            *(Tensor(np.repeat(getattr(row, f).data, 2 * 3, axis=0), requires_grad=True) for f in ("goal",) + HEADS)
        )
        gt = np.random.default_rng(27).normal(size=(2, 4, 2))
        goal_rows, traj_rows = dec.best_of_k_rows(tied, gt)
        assert goal_rows.tolist() == traj_rows.tolist() == [0, 3]
        with nc.record() as tape:
            loss = nc.sum_all(dec.trajectory_loss_batched(tied, gt))
        nc.backward(loss, tape)
        for f in ("goal",) + HEADS:
            per_row = getattr(tied, f).grad.reshape(2 * 3, -1)
            assert np.flatnonzero(np.any(per_row != 0.0, axis=1)).tolist() == [0, 3], f

    def test_nan_cost_wins_like_a_minimum(self):
        # a NaN sample wins its pedestrian's minimum (the first NaN, as np.argmin), so the loss is NaN
        d = make_decoder(seed=28, t_pred=4)
        decoded = d.decode_batch(Tensor(np.random.default_rng(29).normal(size=(4, 6))))
        decoded.goal.data[2] = np.nan
        decoded.y_f.data[3, 1] = np.nan
        gt = np.random.default_rng(30).normal(size=(1, 4, 2))
        goal_rows, traj_rows = dec.best_of_k_rows(decoded, gt)
        assert goal_rows.tolist() == [2] and traj_rows.tolist() == [3]
        assert np.isnan(dec.trajectory_loss_batched(decoded, gt).data[0])

    def test_given_winners_score_those_rows(self):
        # batch_loss's form: a B-row batch of the goal winners' goals and the trajectory winners' trajectory heads
        n_windows, k, t_p = 2, 3, 5
        d = make_decoder(seed=31, t_pred=t_p)
        rng = np.random.default_rng(32)
        decoded = d.decode_batch(Tensor(rng.normal(size=(n_windows * k, 6))))
        gt = rng.normal(size=(n_windows, t_p, 2))
        w = dec.LossWeights(alpha=0.7, fwd=0.2, bwd=0.3, both=0.5)
        goal_rows, traj_rows = np.array([2, 4]), np.array([0, 5])
        traj = decoded.rows(traj_rows)
        winning = dec.BatchDecoded(nc.index(decoded.goal, goal_rows), traj.y_f, traj.y_b, traj.y_both)
        loss = dec.trajectory_loss_batched(winning, gt, w)
        goal_w = dec.LossWeights(alpha=w.alpha, fwd=0.0, bwd=0.0, both=0.0)
        traj_w = dec.LossWeights(alpha=0.0, fwd=w.fwd, bwd=w.bwd, both=w.both)
        for b in range(n_windows):
            # a single row is its own best of K = 1
            goal_term = brute_force(one_row(decoded, goal_rows[b]), gt[b : b + 1], goal_w)
            traj_term = brute_force(one_row(decoded, traj_rows[b]), gt[b : b + 1], traj_w)
            assert loss.data[b] == pytest.approx(goal_term[0] + traj_term[0], rel=0, abs=1e-12)

    def test_winner_count_must_match_pedestrians(self):
        d = make_decoder(t_pred=3)
        batch = d.decode_batch(Tensor(np.zeros((5, 6))))  # not B rows, nor B*K
        with pytest.raises(ContractError):
            dec.trajectory_loss_batched(batch, np.zeros((2, 3, 2)))


def full_rows_step(model, windows, k, sigma, seed, weights):
    """The reference step: one taped pass over all B*K sampled rows."""
    gt = np.stack([w.fut[w.target_index] for w in windows])
    with nc.record() as tape:
        mb, st_ = model.encode_windows(windows, training=True)
        l_p = nll_loss(mb, st_, model.flow)
        behaviors, _ = sample_behaviors(st_, model.flow, k, sigma, [np.random.default_rng(seed)] * len(windows))
        decoded = model.decoder.decode_batch(behaviors)
        loss = nc.add(l_p, nc.sum_all(dec.trajectory_loss_batched(decoded, gt, weights)))
    nc.backward(loss, tape)
    return float(loss.data)


def step_grads(model, run):
    params = model.params()
    for p in params.values():
        p.grad = None
    value = run()
    return value, {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for k, p in params.items()}


def batch_loss_step(model, windows, k, sigma, seed, weights):
    with nc.record() as tape:
        loss, _ = model.batch_loss(windows, k, np.random.default_rng(seed), weights, sigma)
    nc.backward(loss, tape)
    return float(loss.data)


class TestWinnerGradients:
    """batch_loss differentiates only the winning rows; its loss and
    gradients are those of one taped pass over all rows."""

    def setup_model(self):
        """A toy model on scenes of one to three pedestrians whose couplings
        are no longer the identity, so `st` (and through it the encoder) gets
        gradient through the flow."""
        cfg = toy_config(seed=4)
        model = pl.build_model(cfg)
        spec = SynthSpec(kinds=SYNTH_KINDS, count=5, seed=7, t_obs=cfg.model.t_obs, t_pred=cfg.model.t_pred)
        windows = synth_scenes(spec)
        with nc.no_grad():
            mb, st_ = model.encode_windows(windows, training=True)
        model.flow.initialize(mb.data, st_.data)
        rng = np.random.default_rng(14)
        for op in model.flow.ops:
            if isinstance(op, fl.AffineCoupling):
                op.fc1.w.data[:] = rng.normal(0.0, 0.05, op.fc1.w.data.shape)
        return model, windows

    @pytest.mark.parametrize("k,sigma", [(4, 1.0), (4, 0.0), (1, 1.0)], ids=["k4", "sigma0_ties", "k1"])
    def test_matches_full_row_reference(self, k, sigma):
        model, windows = self.setup_model()
        w = dec.LossWeights(alpha=0.7, fwd=0.2, bwd=0.3, both=0.5)
        ref_loss, ref = step_grads(model, lambda: full_rows_step(model, windows, k, sigma, 9, w))
        loss, new = step_grads(model, lambda: batch_loss_step(model, windows, k, sigma, 9, w))
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
        for name, g in ref.items():
            assert np.max(np.abs(new[name] - g)) <= 1e-12 * np.max(np.abs(g)), name
        for part in ("encoder.tg_target.", "encoder.sg.", "flow.", "decoder."):
            assert any(np.any(g != 0.0) for name, g in new.items() if name.startswith(part)), part

    @pytest.mark.parametrize(
        "name,entry",
        [
            ("encoder.tg_target.node_mlp.fc1.w", (3, 5)),
            ("encoder.sg.block.ffn.fc1.b", (7,)),
            ("flow.op04.lin.w", (2, 9)),
            ("flow.op08.coup.fc1.w", (11, 20)),
            ("decoder.goal_mlp.fc1.w", (4, 1)),
            ("decoder.fwd_gru.wx", (6, 66)),  # the candidate gate, column 2 of 32
            ("decoder.both_out.w", (30, 0)),
        ],
    )
    def test_gradient_matches_finite_differences(self, name, entry):
        model, windows = self.setup_model()
        w = dec.LossWeights()
        _, grads = step_grads(model, lambda: batch_loss_step(model, windows, 4, 1.0, 10, w))
        p = model.params()[name]

        def f(x):
            saved = p.data[entry]
            p.data[entry] = x[0]
            with nc.no_grad():
                value = float(model.batch_loss(windows, 4, np.random.default_rng(10), w)[0].data)
            p.data[entry] = saved
            return value

        fd = fd_gradient(f, np.array([p.data[entry]]))[0]
        assert grads[name][entry] != 0.0
        assert rel_err(grads[name][entry], fd, floor=1e-4) < 1e-6, (grads[name][entry], fd)


class TestTapedRows(BatchLossRun):
    """Regression guard: a training step tapes the flow reverse on the B
    goal-winner rows and the B trajectory-winner rows, and the decoder on the
    B trajectory winners only, however many samples it draws; the flow
    reverse is conditioned on the B rows of `st`, never repeated."""

    def test_taped_decoder_and_flow_reverse_see_at_most_two_rows_per_pedestrian(self, monkeypatch):
        model, windows = self.setup_model()
        seen = {"decode": [], "reverse": [], "conditioning": []}
        decode, reverse = dec.BidirectionalDecoder.decode_batch, fl.FlowStack.reverse

        def recording_decode(decoder, mb, **kw):
            seen["decode"].append((mb.shape[0], nc.active_tape() is not None))
            return decode(decoder, mb, **kw)

        def recording_reverse(stack, z, st_, rows=None):
            seen["reverse"].append((z.shape[0], nc.active_tape() is not None))
            seen["conditioning"].append((st_.shape[0], nc.active_tape() is not None))
            assert rows is not None and len(rows) == z.shape[0]
            return reverse(stack, z, st_, rows)

        monkeypatch.setattr(dec.BidirectionalDecoder, "decode_batch", recording_decode)
        monkeypatch.setattr(fl.FlowStack, "reverse", recording_reverse)
        b, k = 5, 20
        pl._loss_and_grads(model, windows[:b], k, np.random.default_rng(12), dec.LossWeights())
        assert seen["decode"] == [(b * k, False), (b, True)]
        assert seen["reverse"] == [(b * k, False), (2 * b, True)]
        assert seen["conditioning"] == [(b, False), (b, True)]

    def test_ties_tape_one_row_per_pedestrian(self, monkeypatch):
        # with sigma = 0 all K samples tie, and each pedestrian's first sample wins both minima
        for batch_windows, _, _, decodes in self.run_batches(monkeypatch, dec.LossWeights(), sigma=0.0):
            assert [d.goal.shape[0] for d, taped in decodes if taped] == [len(batch_windows)]
