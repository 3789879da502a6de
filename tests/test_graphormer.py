import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stglow import graphormer as gr
from stglow import numcore as nc
from stglow.errors import DataError, ShapeError
from stglow.numcore import NEG_INF


def make_tg(seed=0, d=16, heads=2, t_max=20, **kw):
    return gr.TemporalGraphormer(np.random.default_rng(seed), d, heads, t_max, **kw)


def make_sg(seed=0, d=16, heads=2, **kw):
    return gr.SpatialGraphormer(np.random.default_rng(seed), d, heads, **kw)


def captured_weights(encoder, *args, **kw):
    """Per-head post-softmax weights of the encoder's attention in one forward call."""
    attn = encoder.block.attn
    attn.capture = []
    try:
        encoder(*args, **kw)
        return attn.capture
    finally:
        attn.capture = None


class TestTemporalAdjacency:
    def test_t3_matches_hand_matrix(self):
        mask = gr.build_temporal_adjacency(3)
        expect = np.array([[1, NEG_INF, NEG_INF], [1, 1, NEG_INF], [1, 1, 1]])
        assert np.array_equal(mask, expect)

    def test_t1(self):
        assert np.array_equal(gr.build_temporal_adjacency(1), [[1.0]])

    def test_t8_has_36_ones(self):
        mask = gr.build_temporal_adjacency(8)
        assert (mask == 1.0).sum() == 36

    def test_t0_rejected(self):
        with pytest.raises(DataError, match="empty window"):
            gr.build_temporal_adjacency(0)


class TestCentrality:
    def test_degree_is_column_count(self):
        deg = gr.temporal_degrees(gr.build_temporal_adjacency(8))
        # independent column-count oracle
        oracle = np.array([sum(1 for i in range(8) if i >= t) for t in range(8)], dtype=float)
        assert np.array_equal(deg, oracle)
        assert deg[2] == 6.0  # third step influences six steps
        assert deg[7] == 1.0  # final step only influences itself

    def test_degree_t1(self):
        assert gr.temporal_degrees(gr.build_temporal_adjacency(1))[0] == 1.0

    def test_embedding_row_is_linear_of_degree(self):
        tg = make_tg()
        emb = tg.centrality_embedding(gr.build_temporal_adjacency(8)).data
        lone = tg.centrality(nc.Tensor([[6.0]])).data
        assert np.allclose(emb[2], lone[0], atol=0)


class TestTemporalGraphormer:
    def test_causality_bitwise(self):
        tg = make_tg(seed=1)
        rng = np.random.default_rng(2)
        traj = rng.normal(size=(1, 8, 2))
        base = tg(traj).data
        perturbed = traj.copy()
        perturbed[:, 5:] += rng.normal(size=(3, 2))
        out = tg(perturbed).data
        assert np.array_equal(base[:, :5], out[:, :5])

    def test_single_step_runs(self):
        tg = make_tg(seed=3)
        out = tg(np.array([[[0.5, -0.2]]]))
        assert out.data.shape == (1, 1, 16)
        assert np.all(np.isfinite(out.data))

    def test_masked_weights_exactly_zero_above_diagonal(self):
        tg = make_tg(seed=4)
        traj = np.random.default_rng(5).normal(size=(3, 6, 2))
        weights = captured_weights(tg, traj)
        assert len(weights) == 3 * 2  # every head of every trajectory
        for head_w in weights:
            upper = head_w[np.triu_indices(6, k=1)]
            assert np.all(upper == 0.0)
            assert np.allclose(head_w.sum(axis=1), 1.0, atol=1e-12)

    def test_non_finite_input_rejected(self):
        tg = make_tg()
        bad = np.zeros((2, 4, 2))
        bad[1, 1, 0] = np.nan
        with pytest.raises(DataError):
            tg(bad)

    def test_unstacked_input_rejected(self):
        with pytest.raises(ShapeError, match=r"\(P, T, 2\)"):
            make_tg()(np.zeros((4, 2)))

    def test_gru_fallback_runs_and_is_causal(self):
        enc = gr.GruTrajEncoder(np.random.default_rng(6), d=16)
        traj = np.random.default_rng(7).normal(size=(2, 5, 2))
        base = enc(traj).data
        assert base.shape == (2, 5, 16)
        perturbed = traj.copy()
        perturbed[:, 3:] += 1.0
        assert np.array_equal(enc(perturbed).data[:, :3], base[:, :3])

    @pytest.mark.parametrize("kw", [{}, {"use_positional": False}, {"use_centrality": False, "use_positional": False}])
    def test_batched_rows_equal_single_calls(self, kw):
        tg = make_tg(seed=22, **kw)
        traj = np.random.default_rng(23).normal(size=(5, 8, 2)).cumsum(axis=1)
        batched = tg(traj).data
        for p in range(5):
            assert np.array_equal(batched[p], tg(traj[p : p + 1]).data[0])

    def test_gru_batched_rows_equal_single_calls(self):
        # (P, 2) inputs go through a matrix product where a single row goes
        # through a vector one, so the rows agree to rounding, not bitwise
        enc = gr.GruTrajEncoder(np.random.default_rng(24), d=16)
        traj = np.random.default_rng(25).normal(size=(4, 6, 2))
        batched = enc(traj).data
        for p in range(4):
            assert np.allclose(batched[p], enc(traj[p : p + 1]).data[0], rtol=0, atol=1e-12)


class TestSpatialAdjacency:
    def test_fov_sign_conditions(self):
        prev = np.array([[0.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
        now = np.array([[1.0, 0.0], [3.0, 0.0], [-1.0, 0.0]])
        g = gr.build_spatial_adjacency(prev, now)
        # ped 0 walks +x; ped 1 ahead (+2 relative), ped 2 behind (-2 relative)
        assert g.mask[0, 1] == 1.0
        assert g.mask[0, 2] == NEG_INF

    def test_stationary_target_sees_everyone(self):
        prev = np.array([[0.0, 0.0], [5.0, 5.0]])
        now = np.array([[0.0, 0.0], [4.0, 4.0]])
        g = gr.build_spatial_adjacency(prev, now)
        assert np.all(g.mask[0] == 1.0)

    def test_single_pedestrian(self):
        g = gr.build_spatial_adjacency(np.zeros((1, 2)), np.ones((1, 2)))
        assert np.array_equal(g.mask, [[1.0]])

    def test_diagonal_always_visible(self):
        rng = np.random.default_rng(8)
        g = gr.build_spatial_adjacency(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        assert np.all(np.diag(g.mask) == 1.0)


class TestSteeringCosine:
    def test_parallel(self):
        assert gr.steering_cosine([1, 0], [1, 0]) == 1.0

    def test_antiparallel(self):
        assert gr.steering_cosine([1, 0], [-1, 0]) == -1.0

    def test_stationary_neighbor_convention(self):
        assert gr.steering_cosine([1, 0], [0, 0]) == 0.0

    @given(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_symmetric(self, a, b):
        c1 = gr.steering_cosine(a, b)
        c2 = gr.steering_cosine(b, a)
        assert -1.0 <= c1 <= 1.0
        assert c1 == c2


class TestSpatialGraphormer:
    def test_single_pedestrian_self_attention(self):
        sg = make_sg(seed=9)
        th = nc.Tensor(np.random.default_rng(10).normal(size=(1, 1, 16)))
        out = sg(np.zeros((1, 1, 2)), np.array([[[1.0, 0.0]]]), th, [0])
        assert out.data.shape == (1, 1, 16)
        assert np.all(np.isfinite(out.data))

    def test_permutation_equivariance(self):
        sg = make_sg(seed=11)
        rng = np.random.default_rng(12)
        n = 5
        prev = rng.normal(size=(n, 2))
        now = prev + rng.normal(size=(n, 2)) * 0.3
        th = rng.normal(size=(n, 16))
        target = 2
        base = sg(prev[None], now[None], nc.Tensor(th[None]), [target]).data[0]
        perm = rng.permutation(n)
        moved = int(np.where(perm == target)[0][0])
        permuted = sg(prev[perm][None], now[perm][None], nc.Tensor(th[perm][None]), [moved]).data[0]
        assert np.allclose(permuted, base[perm], atol=1e-9)

    def test_masked_neighbor_gets_zero_weight(self):
        sg = make_sg(seed=13)
        # ped 0 walks +x, ped 1 strictly behind it and ped 2 ahead
        prev = np.array([[0.0, 0.0], [-3.0, 0.1], [3.0, -0.1]])
        now = prev + np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        g = gr.build_spatial_adjacency(prev, now)
        assert g.mask[0, 1] == NEG_INF
        th = nc.Tensor(np.random.default_rng(14).normal(size=(1, 3, 16)))
        weights = captured_weights(sg, prev[None], now[None], th, [0])
        assert len(weights) == 2
        for head_w in weights:
            assert head_w[0, 1] == 0.0

    @pytest.mark.parametrize(
        "kw", [{}, {"use_mask": False}, {"use_rel_pos": False}, {"use_steering": False}]
    )
    def test_batched_rows_equal_single_calls(self, kw):
        sg = make_sg(seed=26, **kw)
        rng = np.random.default_rng(27)
        q, n = 4, 5
        prev = rng.normal(size=(q, n, 2)) * 3.0
        now = prev + rng.normal(size=(q, n, 2)) * 0.4
        now[1, 2] = prev[1, 2]  # a pedestrian standing still
        th = rng.normal(size=(q, n, 16))
        targets = np.array([0, 2, 4, 2])
        batched = sg(prev, now, nc.Tensor(th), targets).data
        for i in range(q):
            single = sg(prev[i : i + 1], now[i : i + 1], nc.Tensor(th[i : i + 1]), targets[i : i + 1]).data
            assert np.array_equal(batched[i], single[0])

    def test_each_scene_gets_its_own_mask(self):
        sg = make_sg(seed=28)
        rng = np.random.default_rng(29)
        prev = rng.normal(size=(3, 4, 2))
        now = prev + rng.normal(size=(3, 4, 2))
        weights = captured_weights(sg, prev, now, nc.Tensor(rng.normal(size=(3, 4, 16))), [0, 1, 3])
        masks = gr.build_spatial_adjacency(prev, now).mask
        assert len(weights) == 3 * 2
        for i, head_w in enumerate(weights):
            blocked = masks[i // 2] == NEG_INF
            assert blocked.any()
            assert np.all(head_w[blocked] == 0.0)


class TestSceneEncoder:
    def make_encoder(self, seed=15, **kw):
        return gr.SceneEncoder(np.random.default_rng(seed), d=16, n_heads=2, t_obs=4, t_pred=3, **kw)

    def rand_scene(self, n=4, seed=16):
        rng = np.random.default_rng(seed)
        full = rng.normal(size=(n, 7, 2)).cumsum(axis=1)
        return full[:, :4], full

    def retargeted(self, seed, n=4):
        """(Q=n, N, ...) stacks of one scene, normalised to each pedestrian in turn."""
        obs, full = self.rand_scene(n=n, seed=seed)
        shift = obs[:, -1][:, None, None, :]
        return obs[None] - shift, full[None] - shift, np.arange(n)

    def test_st_shape_and_finite(self):
        enc = self.make_encoder()
        obs, full, targets = self.retargeted(seed=16)
        mb, st = enc.encode(obs, targets, full)
        assert st.data.shape == (4, 16)
        assert mb.data.shape == (4, 16)
        assert np.all(np.isfinite(st.data))
        assert np.all(np.isfinite(mb.data))

    def test_single_pedestrian_scene(self):
        enc = self.make_encoder()
        obs, full = self.rand_scene(n=1, seed=17)
        mb, st = enc.encode(obs[None], [0], full[None])
        assert st.data.shape == (1, 16)
        assert mb.data.shape == (1, 16)
        assert np.all(np.isfinite(st.data))

    def test_mb_is_last_row_of_full_trajectory_encoding(self):
        enc = self.make_encoder()
        obs, full, targets = self.retargeted(seed=18)
        mb, _ = enc.encode(obs, targets, full)
        for i in targets:
            direct = enc.tg_full(full[i, i : i + 1]).data[0, -1]
            assert np.array_equal(mb.data[i], direct)

    def test_st_is_sum_of_temporal_and_spatial_parts(self):
        enc = self.make_encoder()
        obs, full, targets = self.retargeted(seed=19)
        _, st = enc.encode(obs, targets, full)
        for i in targets:
            th_tgt = enc.tg_target(obs[i, i : i + 1]).data[0, -1]
            th = enc.tg_hist(obs[i]).data[:, -1]
            sh = enc.sg(obs[i : i + 1, :, -2], obs[i : i + 1, :, -1], nc.Tensor(th[None]), [i]).data[0]
            assert np.array_equal(st.data[i], th_tgt + sh[i])

    def test_forecast_encoding_has_no_motion_behavior(self):
        enc = self.make_encoder()
        obs, full, targets = self.retargeted(seed=16)
        mb, st = enc.encode(obs, targets)
        assert mb is None
        assert np.array_equal(st.data, enc.encode(obs, targets, full)[1].data)

    def test_spatial_ablation_drops_sg(self):
        enc = self.make_encoder(use_spatial=False)
        obs, full, targets = self.retargeted(seed=20)
        _, st = enc.encode(obs, targets, full)
        for i in targets:
            th_tgt = enc.tg_target(obs[i, i : i + 1]).data[0, -1]
            assert np.array_equal(st.data[i], th_tgt)

    def test_gru_fallback_encoder(self):
        enc = self.make_encoder(use_temporal_graphormer=False)
        obs, full, targets = self.retargeted(seed=21)
        _, st = enc.encode(obs, targets, full)
        assert st.data.shape == (4, 16)
        assert np.all(np.isfinite(st.data))

    def test_one_call_per_encoder(self, monkeypatch):
        enc = self.make_encoder()
        obs, full, targets = self.retargeted(seed=30, n=5)
        calls = []
        for name in ("tg_full", "tg_hist", "tg_target", "sg"):
            real = getattr(enc, name)
            monkeypatch.setattr(enc, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        enc.encode(obs, targets, full)
        assert sorted(calls) == ["sg", "tg_full", "tg_hist", "tg_target"]
