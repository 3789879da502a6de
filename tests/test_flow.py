import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from helpers import fd_gradient, flow_map, identity_stack, numerical_jacobian, random_stack, rel_err
from stglow import flow as fl
from stglow import numcore as nc
from stglow.errors import ConfigError, ContractError, DegenerateChannelError
from stglow.numcore import Tensor


class TestPatternNorm:
    def test_init_whitens_by_construction(self):
        rng = np.random.default_rng(0)
        batch = 3.0 + 2.0 * rng.normal(size=(64, 5))
        pn = fl.PatternNorm(5)
        pn.init_from_data(batch)
        out, _ = pn.forward(Tensor(batch))
        assert np.max(np.abs(out.data.mean(axis=0))) < 1e-9
        assert np.max(np.abs(out.data.std(axis=0) - 1.0)) < 1e-6

    def test_init_on_standard_batch_is_near_identity(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(20000, 3))
        pn = fl.PatternNorm(3)
        pn.init_from_data(batch)
        assert np.allclose(pn.s.data, 1.0, atol=0.05)
        assert np.allclose(pn.b.data, 0.0, atol=0.05)

    def test_constant_channel_rejected(self):
        batch = np.random.default_rng(2).normal(size=(16, 3))
        batch[:, 1] = 7.0
        with pytest.raises(DegenerateChannelError, match="channel 1"):
            fl.PatternNorm(3).init_from_data(batch)

    def test_single_sample_batch_rejected(self):
        with pytest.raises(ContractError):
            fl.PatternNorm(3).init_from_data(np.zeros((1, 3)))

    def test_second_init_resets_from_the_new_batch(self):
        rng = np.random.default_rng(3)
        pn = fl.PatternNorm(2)
        pn.init_from_data(rng.normal(size=(8, 2)))
        batch = rng.normal(5.0, 0.5, size=(8, 2))
        pn.init_from_data(batch)
        assert np.array_equal(pn.s.data, 1.0 / batch.std(axis=0))
        assert np.array_equal(pn.b.data, -batch.mean(axis=0) / batch.std(axis=0))

    def test_identity_params(self):
        """A norm that no data has set is the identity, both ways."""
        pn = fl.PatternNorm(3)
        x = np.random.default_rng(4).normal(size=(6, 3))
        y, logdet = pn.forward(Tensor(x))
        assert np.array_equal(y.data, x)
        assert float(logdet.data) == 0.0
        assert np.array_equal(pn.reverse(Tensor(x)).data, x)

    def test_uniform_scale_logdet(self):
        pn = fl.PatternNorm(3)
        pn.s.data[:] = 2.0
        _, logdet = pn.forward(Tensor(np.zeros((2, 3))))
        assert float(logdet.data) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_logdet_matches_numerical_jacobian(self):
        rng = np.random.default_rng(5)
        pn = fl.PatternNorm(4)
        pn.s.data[:] = rng.uniform(0.5, 2.0, 4) * rng.choice([-1.0, 1.0], 4)
        pn.b.data[:] = rng.normal(size=4)

        def f(x):
            with nc.no_grad():
                return pn.forward(Tensor(x[None]))[0].data[0].copy()

        jac = numerical_jacobian(f, rng.normal(size=4))
        _, sign_logdet = np.linalg.slogdet(jac)
        _, logdet = pn.forward(Tensor(np.zeros((1, 4))))
        assert abs(float(logdet.data) - sign_logdet) < 1e-6

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        pn = fl.PatternNorm(5)
        pn.init_from_data(rng.normal(2.0, 3.0, size=(32, 5)))
        x = rng.normal(size=(10, 5))
        y, _ = pn.forward(Tensor(x))
        back = pn.reverse(y)
        assert np.max(np.abs(back.data - x)) < 1e-9


class TestInvertibleLinear:
    def test_identity(self):
        lin = fl.InvertibleLinear(np.random.default_rng(0), 3)
        lin.w.data[:] = np.eye(3)
        x = np.random.default_rng(1).normal(size=(4, 3))
        y, logdet = lin.forward(Tensor(x))
        assert np.allclose(y.data, x, atol=0)
        assert float(logdet.data) == 0.0

    def test_doubling_matrix_logdet(self):
        lin = fl.InvertibleLinear(np.random.default_rng(0), 3)
        lin.w.data[:] = 2.0 * np.eye(3)
        _, logdet = lin.forward(Tensor(np.zeros((1, 3))))
        assert float(logdet.data) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_rotation_init_logdet_near_zero(self):
        for seed in range(10):
            lin = fl.InvertibleLinear(np.random.default_rng(seed), 6)
            _, logdet = lin.forward(Tensor(np.zeros((1, 6))))
            assert abs(float(logdet.data)) < 1e-9

    def test_singular_rejected(self):
        lin = fl.InvertibleLinear(np.random.default_rng(0), 3)
        lin.w.data[:] = 0.0
        with pytest.raises(nc.SingularMatrixError):
            lin.forward(Tensor(np.zeros((1, 3))))

    def test_scaled_rotation_round_trips(self):
        rng = np.random.default_rng(4)
        stack = random_stack(64, 8, 4, rng, scale=0.0)
        for op in stack.ops:
            if isinstance(op, fl.InvertibleLinear):
                op.w.data *= 0.4  # condition number 1, |det| = 0.4^64
        x, st = rng.normal(size=(6, 64)), Tensor(rng.normal(size=(6, 8)))
        z, logdet = stack.forward(Tensor(x), st)
        assert np.all(np.isfinite(logdet.data))
        assert np.max(np.abs(stack.reverse(z, st).data - x)) < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        lin = fl.InvertibleLinear(rng, 5)
        x = rng.normal(size=(7, 5))
        y, _ = lin.forward(Tensor(x))
        assert np.max(np.abs(lin.reverse(y).data - x)) < 1e-9

    def test_singular_rejected_in_cached_reverse(self):
        lin = fl.InvertibleLinear(np.random.default_rng(0), 3)
        y = Tensor(np.ones((2, 3)))
        with nc.no_grad():
            lin.reverse(y)  # caches the inverse of the rotation
            lin.w.data[:] = 0.0
            with pytest.raises(nc.SingularMatrixError):
                lin.reverse(y)

    def test_forward_and_reverses_share_one_inversion(self, monkeypatch):
        lin = fl.InvertibleLinear(np.random.default_rng(1), 4)
        calls = []
        inverse = nc.inverse
        monkeypatch.setattr(nc, "inverse", lambda w: calls.append(w) or inverse(w))
        y = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        with nc.no_grad():
            lin.forward(y)
            first = lin.reverse(y).data
            second = lin.reverse(y).data
        with nc.record() as tape:
            taped = lin.reverse(y)
            lin.forward(y)
        assert len(calls) == 1
        assert np.array_equal(first, second) and np.array_equal(first, taped.data)
        assert len(tape.nodes) == 4  # solve, transpose, matmul, logabsdet

    def test_cached_reverse_follows_in_place_update(self):
        rng = np.random.default_rng(3)
        lin = fl.InvertibleLinear(rng, 5)
        y = Tensor(rng.normal(size=(4, 5)))
        with nc.no_grad():
            before = lin.reverse(y).data
            lin.w.data += 0.1 * rng.normal(size=(5, 5))
            after = lin.reverse(y).data
        fresh = y.data @ np.ascontiguousarray(nc.inverse(lin.w.data).T)
        assert not np.allclose(before, after)
        assert np.array_equal(after, fresh)

    def test_reverse_gradient_after_cached_call(self):
        rng = np.random.default_rng(4)
        lin = fl.InvertibleLinear(rng, 4)
        lin.w.data += 0.3 * rng.normal(size=(4, 4))
        w0 = lin.w.data.copy()
        y = rng.normal(size=(3, 4))
        with nc.no_grad():
            lin.reverse(Tensor(y))
        with nc.record() as tape:
            loss = nc.sum_all(nc.tanh(lin.reverse(Tensor(y))))
        nc.backward(loss, tape)

        def f_np(w):
            lin.w.data[:] = w
            with nc.no_grad():
                return float(nc.sum_all(nc.tanh(lin.reverse(Tensor(y)))).data)

        assert rel_err(lin.w.grad, fd_gradient(f_np, w0)) < 1e-3


class TestAffineCoupling:
    def test_zero_net_is_identity(self):
        coup = fl.AffineCoupling(np.random.default_rng(0), 4, cond_dim=3)
        x = np.random.default_rng(1).normal(size=(5, 4))
        st = np.random.default_rng(2).normal(size=(5, 3))
        y, logdet = coup.forward(Tensor(x), Tensor(st))
        assert np.array_equal(y.data, x)
        assert np.all(logdet.data == 0.0)

    def test_unit_log_scale_gives_logdet_two(self):
        coup = fl.AffineCoupling(np.random.default_rng(0), 4, cond_dim=2)
        coup.fc1.b.data[:2] = 1.0  # log-scale outputs
        _, logdet = coup.forward(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))
        assert np.allclose(logdet.data, 2.0, atol=1e-12)

    def test_odd_channels_rejected(self):
        with pytest.raises(ConfigError):
            fl.AffineCoupling(np.random.default_rng(0), 5, cond_dim=2)

    def test_logdet_matches_jacobian_and_structure(self):
        rng = np.random.default_rng(3)
        coup = fl.AffineCoupling(rng, 6, cond_dim=3)
        coup.fc1.w.data[:] = rng.normal(0, 0.4, coup.fc1.w.data.shape)
        coup.fc1.b.data[:] = rng.normal(0, 0.4, coup.fc1.b.data.shape)
        st = rng.normal(size=3)
        x0 = rng.normal(size=6)

        def f(x):
            with nc.no_grad():
                return coup.forward(Tensor(x[None]), Tensor(st[None]))[0].data[0].copy()

        jac = numerical_jacobian(f, x0)
        assert np.max(np.abs(jac[:3, 3:])) < 1e-9  # pass-through half ignores the other
        _, jac_logdet = np.linalg.slogdet(jac)
        _, logdet = coup.forward(Tensor(x0[None]), Tensor(st[None]))
        assert abs(float(logdet.data[0]) - jac_logdet) < 1e-6

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        coup = fl.AffineCoupling(rng, 8, cond_dim=4)
        coup.fc1.w.data[:] = rng.normal(0, 0.5, coup.fc1.w.data.shape)
        x = rng.normal(size=(6, 8))
        st = rng.normal(size=(6, 4))
        y, _ = coup.forward(Tensor(x), Tensor(st))
        back = coup.reverse(y, Tensor(st))
        assert np.max(np.abs(back.data - x)) < 1e-9


class TestFlowStack:
    def test_identity_stack_is_passthrough(self):
        stack = identity_stack(6, cond_dim=3, n_steps=2)
        x = np.random.default_rng(0).normal(size=(4, 6))
        st = np.random.default_rng(1).normal(size=(4, 3))
        z, logdet = stack.forward(Tensor(x), Tensor(st))
        assert np.array_equal(z.data, x)
        assert np.all(logdet.data == 0.0)
        back = stack.reverse(Tensor(x), Tensor(st))
        assert np.array_equal(back.data, x)

    def test_round_trip_random_parameters(self):
        rng = np.random.default_rng(2)
        stack = random_stack(8, 4, 3, rng)
        x = rng.normal(size=(20, 8))
        st = rng.normal(size=(20, 4))
        z, _ = stack.forward(Tensor(x), Tensor(st))
        back = stack.reverse(z, Tensor(st))
        assert np.max(np.abs(back.data - x)) < 1e-9

    def test_total_logdet_is_sum_of_step_logdets(self):
        rng = np.random.default_rng(3)
        stack = random_stack(6, 3, 2, rng)
        x = rng.normal(size=(5, 6))
        st = rng.normal(size=(5, 3))
        _, total = stack.forward(Tensor(x), Tensor(st))
        # independent accumulation: apply ops one by one
        with nc.no_grad():
            cur = Tensor(x)
            acc = np.zeros(5)
            for op in stack.ops:
                cur, ld = op.forward(cur, Tensor(st))
                acc = acc + ld.data
        assert np.max(np.abs(total.data - acc)) < 1e-12

    def test_logdet_matches_full_jacobian(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            stack = random_stack(4, 2, 2, rng)
            st = rng.normal(size=2)
            x0 = rng.normal(size=4)
            jac = numerical_jacobian(flow_map(stack, st), x0)
            _, expect = np.linalg.slogdet(jac)
            _, total = stack.forward(Tensor(x0[None]), Tensor(st[None]))
            assert abs(float(total.data[0]) - expect) < 1e-4

    def test_factor_out_round_trip_and_widths(self):
        rng = np.random.default_rng(5)
        stack = random_stack(16, 4, 4, rng, factor_out=True, factor_out_every=2, factor_out_channels=4)
        assert stack._part_widths == [4, 12]  # one split after step 2, 12 kept to the end
        x = rng.normal(size=(6, 16))
        st = rng.normal(size=(6, 4))
        z, _ = stack.forward(Tensor(x), Tensor(st))
        assert z.data.shape == (6, 16)
        back = stack.reverse(z, Tensor(st))
        assert np.max(np.abs(back.data - x)) < 1e-9

    @given(
        n_steps=hst.integers(1, 6),
        every=hst.integers(1, 3),
        half_out=hst.integers(1, 3),
        half_last=hst.integers(1, 3),
        seed=hst.integers(0, 2**32 - 1),
    )
    @example(n_steps=6, every=1, half_out=1, half_last=2, seed=1)  # max|z| 1.0e6, error 8.9e-8
    @settings(max_examples=40, deadline=None)
    def test_factor_out_round_trip_over_random_schedules(self, n_steps, every, half_out, half_last, seed):
        # widths are even and every split leaves at least 2 channels, so each schedule is valid
        splits = (n_steps - 1) // every
        out = 2 * half_out
        channels = splits * out + 2 * half_last
        rng = np.random.default_rng(seed)
        stack = random_stack(
            channels, 3, n_steps, rng, factor_out=True, factor_out_every=every, factor_out_channels=out
        )
        assert stack._part_widths == [out] * splits + [2 * half_last]
        x = rng.normal(size=(5, channels))
        st = rng.normal(size=(5, 3))
        z, _ = stack.forward(Tensor(x), Tensor(st))
        back = stack.reverse(z, Tensor(st))
        # The couplings' exp scales can push z far from unit scale, and the
        # inverse's float64 rounding grows with it: over 32,000 draws the
        # error stayed below 8.8e-14 max|z|. The bound is 1e-9 up to
        # max|z| = 100, then 1e-11 max|z|.
        assert np.max(np.abs(back.data - x)) <= max(1e-9, 1e-11 * np.max(np.abs(z.data)))

    def test_factor_out_logdet_matches_jacobian(self):
        rng = np.random.default_rng(6)
        stack = random_stack(6, 2, 2, rng, factor_out=True, factor_out_every=1, factor_out_channels=2)
        st = rng.normal(size=2)
        x0 = rng.normal(size=6)
        jac = numerical_jacobian(flow_map(stack, st), x0)
        _, expect = np.linalg.slogdet(jac)
        _, total = stack.forward(Tensor(x0[None]), Tensor(st[None]))
        assert abs(float(total.data[0]) - expect) < 1e-4

    def test_conditioning_changes_output_but_not_invertibility(self):
        rng = np.random.default_rng(7)
        stack = random_stack(6, 3, 2, rng)
        x = rng.normal(size=(4, 6))
        outs = []
        for _ in range(5):
            st = rng.normal(size=(4, 3))
            z, _ = stack.forward(Tensor(x), Tensor(st))
            back = stack.reverse(z, Tensor(st))
            assert np.max(np.abs(back.data - x)) < 1e-9
            outs.append(z.data.copy())
        assert not np.allclose(outs[0], outs[1])

    def test_initialize_whitens_each_pattern_norm(self):
        rng = np.random.default_rng(8)
        stack = fl.FlowStack(rng, 6, 3, n_steps=3)
        mb = rng.normal(3.0, 2.5, size=(128, 6))
        st = rng.normal(size=(128, 3))
        stack.initialize(mb, st)
        # each pattern norm whitens what the steps before it make of the input
        x = Tensor(mb)
        for op in stack.ops:
            if isinstance(op, fl.PatternNorm):
                x, _ = op.forward(x)
                assert np.max(np.abs(x.data.mean(axis=0))) < 1e-9
                assert np.max(np.abs(x.data.std(axis=0) - 1.0)) < 1e-6
            else:
                x, _ = op.forward(x, Tensor(st))


class TestConditioningRows:
    """`reverse(z, st, rows)` conditions row i of z on row `rows[i]` of st,
    and each coupling projects a row of st once, however often it repeats."""

    def test_equals_reverse_on_gathered_conditioning(self):
        rng = np.random.default_rng(12)
        stack = random_stack(8, 6, 3, rng, factor_out=True, factor_out_every=1, factor_out_channels=2)
        st = Tensor(rng.normal(size=(4, 6)))
        rows = np.array([0, 0, 0, 3, 1, 1, 3, 2, 0, 2, 2, 2])
        z = Tensor(rng.normal(size=(len(rows), 8)))
        with nc.no_grad():
            once = stack.reverse(z, st, rows)
            gathered = stack.reverse(z, nc.index(st, rows))
        # not bitwise in general: the projected z half and st half are
        # summed apart, where the gathered call makes one product of both
        assert np.allclose(once.data, gathered.data, rtol=1e-12, atol=1e-12)

    def test_sample_rows_are_those_of_a_repeated_conditioning(self):
        rng = np.random.default_rng(15)
        stack = random_stack(6, 4, 2, rng)
        st = Tensor(rng.normal(size=(3, 4)))
        behaviors, z = fl.sample_behaviors(st, stack, 5, 1.0, [np.random.default_rng(16)] * 3)
        with nc.no_grad():
            gathered = stack.reverse(Tensor(z), nc.index(st, np.repeat(np.arange(3), 5)))
        assert np.allclose(behaviors.data, gathered.data, rtol=1e-12, atol=1e-12)

    def test_gradients_through_repeated_rows_match_finite_differences(self):
        rng = np.random.default_rng(13)
        stack = random_stack(4, 3, 2, rng, scale=0.4)
        rows = np.array([1, 0, 1, 1, 0, 1])  # both rows of st condition several rows of z
        st0, z = rng.normal(size=(2, 3)), Tensor(rng.normal(size=(6, 4)))
        weights = rng.normal(size=(6, 4))
        w = next(op for op in stack.ops if isinstance(op, fl.AffineCoupling)).fc0.w
        st = Tensor(st0, requires_grad=True)
        with nc.record() as tape:
            loss = nc.sum_all(nc.mul(stack.reverse(z, st, rows), weights))
        nc.backward(loss, tape)

        def value(st_data):
            with nc.no_grad():
                return float(np.sum(weights * stack.reverse(z, Tensor(st_data), rows).data))

        def value_at_w(w_flat):
            saved = w.data.copy()
            w.data[:] = w_flat.reshape(w.data.shape)
            try:
                return value(st0)
            finally:
                w.data[:] = saved

        fd_st = fd_gradient(lambda x: value(x.reshape(st0.shape)), st0.ravel().copy()).reshape(st0.shape)
        fd_w = fd_gradient(value_at_w, w.data.ravel().copy()).reshape(w.data.shape)
        assert rel_err(st.grad, fd_st, floor=1e-6) < 1e-6
        assert rel_err(w.grad, fd_w, floor=1e-6) < 1e-6
        assert np.any(w.grad[:2] != 0.0) and np.any(w.grad[2:] != 0.0)  # both halves of fc0 are reached


class TestNll:
    def test_origin_anchor(self):
        stack = identity_stack(2, cond_dim=2)
        loss = fl.nll_loss(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), stack)
        assert abs(float(loss.data) - math.log(2 * math.pi)) < 1e-10

    def test_monte_carlo_expectation(self):
        rng = np.random.default_rng(9)
        c = 2
        stack = identity_stack(c, cond_dim=2)
        mb = rng.standard_normal((100_000, c))
        loss = fl.nll_loss(Tensor(mb), Tensor(np.zeros((100_000, 2))), stack)
        expect = 0.5 * c * (1 + math.log(2 * math.pi))
        assert abs(float(loss.data) - expect) / expect < 0.02

    def test_scale_doubling_shifts_nll_analytically(self):
        # diagonal flow: y = s*x, logdet = C log s; L_p has a closed form
        rng = np.random.default_rng(10)
        c = 4
        x = rng.normal(size=(50, c))

        def nll_for_scale(s):
            stack = identity_stack(c, cond_dim=1)
            stack.ops[0].s.data[:] = s
            return float(fl.nll_loss(Tensor(x), Tensor(np.zeros((50, 1))), stack).data)

        got = nll_for_scale(2.0) - nll_for_scale(1.0)
        quad = 0.5 * (x * x).sum(axis=1).mean()
        expect = (0.5 * (2.0 * x * 2.0 * x).sum(axis=1).mean() - quad) - c * math.log(2.0)
        assert abs(got - expect) < 1e-10

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        stack = random_stack(4, 2, 2, rng, scale=0.2)
        mb = rng.normal(size=(6, 4))
        st = rng.normal(size=(6, 2))
        params = stack.params()

        def loss_np():
            with nc.no_grad():
                return float(fl.nll_loss(Tensor(mb), Tensor(st), stack).data)

        with nc.record() as tape:
            loss = fl.nll_loss(Tensor(mb), Tensor(st), stack)
        nc.backward(loss, tape)
        for name, p in params.items():
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)

            def f(x, p=p):
                saved = p.data.copy()
                p.data[:] = x.reshape(p.data.shape)
                val = loss_np()
                p.data[:] = saved
                return val

            fd = fd_gradient(f, p.data.ravel().copy()).reshape(p.data.shape)
            assert rel_err(analytic, fd, floor=1e-6) < 1e-3, f"gradient mismatch for {name}"


class TestDensityNormalization:
    def test_two_dim_density_integrates_to_one(self):
        rng = np.random.default_rng(12)
        stack = random_stack(2, 2, 2, rng, scale=0.2)
        st_row = rng.normal(size=2)
        grid = np.linspace(-8.0, 8.0, 201)
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        with nc.no_grad():
            z, logdet = stack.forward(Tensor(pts), Tensor(np.tile(st_row, (pts.shape[0], 1))))
        log_base = -0.5 * (z.data * z.data).sum(axis=1) - math.log(2.0 * math.pi)  # N(0, I) in 2-D
        dens = np.exp(log_base + logdet.data).reshape(201, 201)
        integral = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid, axis=0)
        assert 0.99 <= integral <= 1.01


class TestSampling:
    def test_sigma_zero_collapses_samples(self):
        rng = np.random.default_rng(13)
        stack = random_stack(4, 2, 2, rng)
        st = Tensor(rng.normal(size=(3, 2)))
        mb, z = fl.sample_behaviors(st, stack, k=5, sigma=0.0, rngs=[np.random.default_rng(0)] * 3)
        assert np.all(z == 0.0)
        grouped = mb.data.reshape(3, 5, 4)
        for b in range(3):
            assert np.all(grouped[b] == grouped[b, 0])

    def test_identity_stack_returns_draws(self):
        stack = identity_stack(4, cond_dim=2)
        st = Tensor(np.zeros((2, 2)))
        mb, z = fl.sample_behaviors(st, stack, k=3, sigma=1.0, rngs=[np.random.default_rng(1)] * 2)
        assert np.array_equal(mb.data, z)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(14)
        stack = random_stack(4, 2, 2, rng)
        st = Tensor(rng.normal(size=(2, 2)))
        a, _ = fl.sample_behaviors(st, stack, k=4, sigma=1.0, rngs=[np.random.default_rng(42)] * 2)
        b, _ = fl.sample_behaviors(st, stack, k=4, sigma=1.0, rngs=[np.random.default_rng(42)] * 2)
        assert a.data.tobytes() == b.data.tobytes()

    def test_one_generator_for_all_rows_draws_one_block(self):
        stack = identity_stack(4, cond_dim=2)
        st = Tensor(np.zeros((3, 2)))
        _, z = fl.sample_behaviors(st, stack, k=5, sigma=0.7, rngs=[np.random.default_rng(15)] * 3)
        block = np.random.default_rng(15).standard_normal((3, 5, 4))
        assert np.array_equal(z, block.reshape(15, 4) * 0.7)

    def test_each_row_draws_from_its_own_generator(self):
        stack = identity_stack(4, cond_dim=2)
        st = Tensor(np.zeros((3, 2)))
        _, z = fl.sample_behaviors(st, stack, k=5, sigma=1.0, rngs=[np.random.default_rng(s) for s in (7, 8, 9)])
        for b, s in enumerate((7, 8, 9)):
            assert np.array_equal(z[5 * b : 5 * b + 5], np.random.default_rng(s).standard_normal((5, 4)))

    def test_generator_count_must_match_rows(self):
        stack = identity_stack(4, cond_dim=2)
        with pytest.raises(ContractError):
            fl.sample_behaviors(Tensor(np.zeros((3, 2))), stack, k=2, sigma=1.0, rngs=[np.random.default_rng(0)] * 2)

    def test_zero_samples_rejected(self):
        stack = identity_stack(4, cond_dim=2)
        with pytest.raises(ContractError):
            fl.sample_behaviors(Tensor(np.zeros((1, 2))), stack, k=0, sigma=1.0, rngs=[np.random.default_rng(0)])
