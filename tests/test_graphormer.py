import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stglow import graphormer as gr
from stglow import numcore as nc
from stglow.errors import ContractError, DataError
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
        g = gr.build_temporal_adjacency(3)
        expect = np.array([[1, NEG_INF, NEG_INF], [1, 1, NEG_INF], [1, 1, 1]])
        assert np.array_equal(g.mask, expect)

    def test_t1(self):
        assert np.array_equal(gr.build_temporal_adjacency(1).mask, [[1.0]])

    def test_t8_has_36_ones(self):
        g = gr.build_temporal_adjacency(8)
        assert (g.mask == 1.0).sum() == 36

    def test_t0_rejected(self):
        with pytest.raises(DataError, match="empty window"):
            gr.build_temporal_adjacency(0)


class TestCentrality:
    def test_degree_is_column_count(self):
        g = gr.build_temporal_adjacency(8)
        deg = gr.temporal_degrees(g)
        # independent column-count oracle
        oracle = np.array([sum(1 for i in range(8) if i >= t) for t in range(8)], dtype=float)
        assert np.array_equal(deg, oracle)
        assert deg[2] == 6.0  # third step influences six steps
        assert deg[7] == 1.0  # final step only influences itself

    def test_degree_t1(self):
        assert gr.temporal_degrees(gr.build_temporal_adjacency(1))[0] == 1.0

    def test_embedding_row_is_linear_of_degree(self):
        tg = make_tg()
        g = gr.build_temporal_adjacency(8)
        emb = tg.centrality_embedding(g).data
        lone = tg.centrality(nc.Tensor([[6.0]])).data
        assert np.allclose(emb[2], lone[0], atol=0)


class TestTemporalGraphormer:
    def test_causality_bitwise(self):
        tg = make_tg(seed=1)
        rng = np.random.default_rng(2)
        traj = rng.normal(size=(8, 2))
        base = tg(traj).data
        perturbed = traj.copy()
        perturbed[5:] += rng.normal(size=(3, 2))
        out = tg(perturbed).data
        assert np.array_equal(base[:5], out[:5])

    def test_single_step_runs(self):
        tg = make_tg(seed=3)
        out = tg(np.array([[0.5, -0.2]]))
        assert out.data.shape == (1, 16)
        assert np.all(np.isfinite(out.data))

    def test_masked_weights_exactly_zero_above_diagonal(self):
        tg = make_tg(seed=4)
        traj = np.random.default_rng(5).normal(size=(6, 2))
        weights = captured_weights(tg, traj)
        assert len(weights) == 2
        for head_w in weights:
            upper = head_w[np.triu_indices(6, k=1)]
            assert np.all(upper == 0.0)
            assert np.allclose(head_w.sum(axis=1), 1.0, atol=1e-12)

    def test_non_finite_input_rejected(self):
        tg = make_tg()
        bad = np.zeros((4, 2))
        bad[1, 0] = np.nan
        with pytest.raises(DataError):
            tg(bad)

    def test_gru_fallback_runs_and_is_causal(self):
        enc = gr.GruTrajEncoder(np.random.default_rng(6), d=16)
        traj = np.random.default_rng(7).normal(size=(5, 2))
        base = enc(traj).data
        perturbed = traj.copy()
        perturbed[3:] += 1.0
        assert np.array_equal(enc(perturbed).data[:3], base[:3])


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
        th = nc.Tensor(np.random.default_rng(10).normal(size=(1, 16)))
        out = sg(np.zeros((1, 2)), np.array([[1.0, 0.0]]), th, target=0)
        assert out.data.shape == (1, 16)
        assert np.all(np.isfinite(out.data))

    def test_permutation_equivariance(self):
        sg = make_sg(seed=11)
        rng = np.random.default_rng(12)
        n = 5
        prev = rng.normal(size=(n, 2))
        now = prev + rng.normal(size=(n, 2)) * 0.3
        th = rng.normal(size=(n, 16))
        target = 2
        base = sg(prev, now, nc.Tensor(th), target=target).data
        perm = rng.permutation(n)
        permuted = sg(prev[perm], now[perm], nc.Tensor(th[perm]), target=int(np.where(perm == target)[0][0])).data
        assert np.allclose(permuted, base[perm], atol=1e-9)

    def test_masked_neighbor_gets_zero_weight(self):
        sg = make_sg(seed=13)
        # ped 0 walks +x, ped 1 strictly behind it and ped 2 ahead
        prev = np.array([[0.0, 0.0], [-3.0, 0.1], [3.0, -0.1]])
        now = prev + np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        g = gr.build_spatial_adjacency(prev, now)
        assert g.mask[0, 1] == NEG_INF
        th = nc.Tensor(np.random.default_rng(14).normal(size=(3, 16)))
        weights = captured_weights(sg, prev, now, th, target=0)
        assert len(weights) == 2
        for head_w in weights:
            assert head_w[0, 1] == 0.0


class TestSceneEncoder:
    def make_encoder(self, seed=15, **kw):
        return gr.SceneEncoder(np.random.default_rng(seed), d=16, n_heads=2, t_obs=4, t_pred=3, **kw)

    def rand_scene(self, n=4, seed=16):
        rng = np.random.default_rng(seed)
        full = rng.normal(size=(n, 7, 2)).cumsum(axis=1)
        return full[:, :4], full

    def test_st_shape_and_finite(self):
        enc = self.make_encoder()
        obs, full = self.rand_scene()
        for i in range(4):
            mb, st = enc.encode_target(obs, i, full, training=True)
            assert st.data.shape == (1, 16)
            assert mb.data.shape == (1, 16)
            assert np.all(np.isfinite(st.data))
            assert np.all(np.isfinite(mb.data))

    def test_single_pedestrian_scene(self):
        enc = self.make_encoder()
        obs, full = self.rand_scene(n=1, seed=17)
        sh = enc._social_rows(obs, 0)
        assert sh.data.shape == (1, 16)
        assert np.all(np.isfinite(sh.data))

    def test_mb_is_last_row_of_full_trajectory_encoding(self):
        enc = self.make_encoder()
        obs, full = self.rand_scene(seed=18)
        for i in range(4):
            mb, _ = enc.encode_target(obs, i, full, training=True)
            direct = enc.tg_full(full[i]).data[-1]
            assert np.array_equal(mb.data[0], direct)

    def test_st_is_sum_of_temporal_and_spatial_parts(self):
        enc = self.make_encoder()
        obs, full = self.rand_scene(seed=19)
        for i in range(4):
            _, st = enc.encode_target(obs, i, full, training=True)
            th_tgt = enc.tg_target(obs[i]).data[-1]
            sh_i = enc._social_rows(obs, i).data[i]
            assert np.allclose(st.data[0], th_tgt + sh_i, atol=1e-12)

    def test_training_requires_full_trajectory(self):
        enc = self.make_encoder()
        obs, _ = self.rand_scene()
        with pytest.raises(ContractError):
            enc.encode_target(obs, target=0, full=None, training=True)

    def test_spatial_ablation_drops_sg(self):
        enc = self.make_encoder(use_spatial=False)
        obs, full = self.rand_scene(seed=20)
        for i in range(4):
            _, st = enc.encode_target(obs, i, full, training=True)
            th_tgt = enc.tg_target(obs[i]).data[-1]
            assert np.array_equal(st.data[0], th_tgt)

    def test_gru_fallback_encoder(self):
        enc = self.make_encoder(use_temporal_graphormer=False)
        obs, full = self.rand_scene(seed=21)
        for i in range(4):
            _, st = enc.encode_target(obs, i, full, training=True)
            assert st.data.shape == (1, 16)
            assert np.all(np.isfinite(st.data))
