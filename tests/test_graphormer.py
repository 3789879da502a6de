import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stglow import graphormer as gr
from stglow import numcore as nc
from stglow.errors import DataError, ShapeError
from stglow.numcore import NEG_INF


def make_tg(seed=0, d=16, heads=2, t_max=20):
    return gr.TemporalGraphormer(np.random.default_rng(seed), d, heads, t_max)


def make_sg(seed=0, d=16, heads=2):
    return gr.SpatialGraphormer(np.random.default_rng(seed), d, heads)


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

    def test_batched_rows_equal_single_calls(self):
        tg = make_tg(seed=22)
        traj = np.random.default_rng(23).normal(size=(5, 8, 2)).cumsum(axis=1)
        batched = tg(traj).data
        for p in range(5):
            assert np.array_equal(batched[p], tg(traj[p : p + 1]).data[0])


class TestSpatialAdjacency:
    def test_fov_sign_conditions(self):
        prev = np.array([[0.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
        now = np.array([[1.0, 0.0], [3.0, 0.0], [-1.0, 0.0]])
        mask = gr.build_spatial_adjacency(prev, now)
        # ped 0 walks +x; ped 1 ahead (+2 relative), ped 2 behind (-2 relative)
        assert mask[0, 1] == 1.0
        assert mask[0, 2] == NEG_INF

    def test_stationary_target_sees_everyone(self):
        prev = np.array([[0.0, 0.0], [5.0, 5.0]])
        now = np.array([[0.0, 0.0], [4.0, 4.0]])
        mask = gr.build_spatial_adjacency(prev, now)
        assert np.all(mask[0] == 1.0)

    def test_single_pedestrian(self):
        mask = gr.build_spatial_adjacency(np.zeros((1, 2)), np.ones((1, 2)))
        assert np.array_equal(mask, [[1.0]])

    def test_diagonal_always_visible(self):
        rng = np.random.default_rng(8)
        mask = gr.build_spatial_adjacency(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        assert np.all(np.diag(mask) == 1.0)


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
        mask = gr.build_spatial_adjacency(prev, now)
        assert mask[0, 1] == NEG_INF
        th = nc.Tensor(np.random.default_rng(14).normal(size=(1, 3, 16)))
        weights = captured_weights(sg, prev[None], now[None], th, [0])
        assert len(weights) == 2
        for head_w in weights:
            assert head_w[0, 1] == 0.0

    def test_batched_rows_equal_single_calls(self):
        sg = make_sg(seed=26)
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
        masks = gr.build_spatial_adjacency(prev, now)
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
            direct = enc.tg_full(full[i, i : i + 1], rows=np.array([6])).data[0]
            assert np.array_equal(mb.data[i], direct)

    def test_st_is_sum_of_temporal_and_spatial_parts(self):
        enc = self.make_encoder()
        obs, full, targets = self.retargeted(seed=19)
        _, st = enc.encode(obs, targets, full)
        last = np.array([3])
        for i in targets:
            th_tgt = enc.tg_target(obs[i, i : i + 1], rows=last).data[0]
            th = enc.tg_hist(obs[i], rows=np.repeat(last, 4)).data
            sh = enc.sg(obs[i : i + 1, :, -2], obs[i : i + 1, :, -1], nc.Tensor(th[None]), [i], rows=np.array([i]))
            assert np.array_equal(st.data[i], th_tgt + sh.data[0])

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
            th_tgt = enc.tg_target(obs[i, i : i + 1], rows=np.array([3])).data[0]
            assert np.array_equal(st.data[i], th_tgt)

    def test_one_call_per_encoder(self, monkeypatch):
        enc = self.make_encoder()
        obs, full, targets = self.retargeted(seed=30, n=5)
        calls = []
        for name in ("tg_full", "tg_hist", "tg_target", "sg"):
            real = getattr(enc, name)
            monkeypatch.setattr(enc, name, lambda *a, real=real, name=name, **kw: calls.append(name) or real(*a, **kw))
        enc.encode(obs, targets, full)
        assert sorted(calls) == ["sg", "tg_full", "tg_hist", "tg_target"]

    def test_fov_mask_on_the_target_row_shapes_st(self):
        enc = self.make_encoder(seed=31)
        # ped 0, the target, walks +x; ped 1 is strictly behind it, ped 2 ahead
        heading = np.array([1.0, 0.0]) * np.arange(4)[:, None]
        obs = np.stack([heading, heading + [-3.0, 0.1], heading + [3.0, -0.1]])
        obs = (obs - obs[0, -1])[None]
        assert gr.build_spatial_adjacency(obs[0, :, -2], obs[0, :, -1])[0, 1] == NEG_INF
        _, base = enc.encode(obs, [0])
        last = np.full(3, 3)
        for ped, masked in ((1, True), (2, False)):
            moved = obs.copy()
            moved[0, ped, :2] += [0.4, -0.7]  # earlier steps only: the FOV mask and positions stay
            assert not np.array_equal(enc.tg_hist(moved[0], rows=last).data[ped], enc.tg_hist(obs[0], rows=last).data[ped])
            _, st = enc.encode(moved, [0])
            assert np.array_equal(st.data, base.data) == masked, ped
        th = nc.Tensor(np.random.default_rng(32).normal(size=(1, 3, 16)))
        weights = captured_weights(enc.sg, obs[:, :, -2], obs[:, :, -1], th, [0], rows=np.array([0]))
        assert len(weights) == 2  # one (1, N) query row per head
        for head_w in weights:
            assert head_w.shape == (1, 3)
            assert head_w[0, 1] == 0.0 and head_w[0, 2] > 0.0


def rel_max(a, b) -> float:
    """Largest deviation of `a` from `b`, relative to the largest entry of `b`."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestQueryRows:
    """Query rows against all rows: `rows=r` gives row r[p] of graph p of the
    all-rows output, and the same gradients, up to rounding."""

    def temporal_case(self):
        tg = make_tg(seed=40)
        rng = np.random.default_rng(41)
        traj = rng.normal(size=(5, 8, 2)).cumsum(axis=1)
        rows = np.array([7, 0, 3, 7, 5])  # masked steps lie after every row but the last

        def call(rows=None):
            return tg(traj, rows=rows)

        return tg, call, rows, {}

    def spatial_case(self):
        sg = make_sg(seed=42)
        rng = np.random.default_rng(43)
        for relu_layer in (sg.rel_mlp, sg.steer_mlp):  # off the kink: the target's own offset is 0
            relu_layer.fc.b.data[:] = rng.normal(0.0, 0.3, 16)
        q, n = 4, 5
        prev = rng.normal(size=(q, n, 2)) * 3.0
        now = prev + rng.normal(size=(q, n, 2)) * 0.4
        targets = np.array([0, 2, 4, 2])
        mask = gr.build_spatial_adjacency(prev, now)
        assert (mask[np.arange(q), targets] == NEG_INF).any()  # some target rows mask a neighbour
        th = nc.Tensor(rng.normal(size=(q, n, 16)), requires_grad=True)

        def call(rows=None):
            return sg(prev, now, th, targets, rows=rows)

        return sg, call, targets, {"th": th}

    @pytest.mark.parametrize("case", ["temporal_case", "spatial_case"])
    def test_forward_matches_all_rows(self, case):
        _, call, rows, _ = getattr(self, case)()
        every = call().data[np.arange(len(rows)), rows]
        got = call(rows).data
        assert got.shape == every.shape
        assert rel_max(got, every) <= 1e-13

    @pytest.mark.parametrize("case", ["temporal_case", "spatial_case"])
    def test_gradients_match_all_rows_and_finite_differences(self, case):
        encoder, call, rows, inputs = getattr(self, case)()
        leaves = {**encoder.params(), **inputs}
        weights = np.random.default_rng(44).normal(size=(len(rows), 16))

        def taped(forward):
            for leaf in leaves.values():
                leaf.grad = None
            with nc.record() as tape:
                loss = nc.sum_all(nc.mul(nc.tanh(forward()), weights))
            nc.backward(loss, tape)
            return {name: leaf.grad.copy() for name, leaf in leaves.items()}

        picked = taped(lambda: call(rows))
        every = taped(lambda: nc.index(call(), (np.arange(len(rows)), rows)))
        for name, g in every.items():
            assert rel_max(picked[name], g) <= 1e-13, name
        for name, leaf in leaves.items():
            base = leaf.data.copy()
            for i in range(0, base.size, 11):  # a spread subset of the entries
                fd = 0.0
                for sign in (1.0, -1.0):
                    leaf.data[...] = base
                    leaf.data.flat[i] += sign * 1e-6
                    with nc.no_grad():
                        fd += sign * float(np.sum(np.tanh(call(rows).data) * weights)) / 2e-6
                leaf.data[...] = base
                assert abs(picked[name].flat[i] - fd) <= 1e-6 * max(1.0, abs(fd)), (name, i)
