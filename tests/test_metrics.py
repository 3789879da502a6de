import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stglow import metrics as mt
from stglow.errors import ContractError


def one(pred, gt):
    """(ADE, FDE) of one trajectory: best-of-K with K = 1."""
    return mt.best_of_k(np.asarray(pred)[None], gt)


class TestAde:
    def test_equal_is_zero(self):
        traj = np.random.default_rng(0).normal(size=(12, 2))
        assert one(traj, traj)[0] == 0.0

    def test_constant_unit_offset(self):
        gt = np.random.default_rng(1).normal(size=(12, 2))
        assert one(gt + [1.0, 0.0], gt)[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(size=(12, 2))
        gt = rng.normal(size=(12, 2))
        expect = sum(np.sqrt(((pred[t] - gt[t]) ** 2).sum()) for t in range(12)) / 12
        assert one(pred, gt)[0] == pytest.approx(expect, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            one(np.zeros((12, 2)), np.zeros((11, 2)))


class TestFde:
    def test_equal_is_zero(self):
        traj = np.random.default_rng(3).normal(size=(12, 2))
        assert one(traj, traj)[1] == 0.0

    def test_final_step_offset(self):
        gt = np.random.default_rng(4).normal(size=(12, 2))
        pred = gt.copy()
        pred[-1] += [0.0, 2.0]
        assert one(pred, gt)[1] == pytest.approx(2.0, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(12, 2))
        gt = rng.normal(size=(12, 2))
        expect = np.sqrt(((pred[-1] - gt[-1]) ** 2).sum())
        assert one(pred, gt)[1] == pytest.approx(expect, abs=1e-12)


class TestBestOfK:
    def test_k1_is_plain_metrics(self):
        rng = np.random.default_rng(6)
        pred = rng.normal(size=(1, 12, 2))
        gt = rng.normal(size=(12, 2))
        a, f = mt.best_of_k(pred, gt)
        assert a == np.linalg.norm(pred[0] - gt, axis=-1).mean()
        assert f == np.linalg.norm(pred[0, -1] - gt[-1])

    def test_fde_is_the_norm_of_each_final_step_vector(self):
        """Bit for bit: a norm over the last axis of all samples at once rounds some of them 1 ulp apart."""
        rng = np.random.default_rng(10)
        preds = rng.normal(size=(50, 20, 12, 2)) * 5.0
        gt = rng.normal(size=(50, 12, 2))
        _, fdes = mt.best_of_k(preds, gt)
        assert np.array_equal(fdes, [min(np.linalg.norm(p[-1] - g[-1]) for p in ps) for ps, g in zip(preds, gt)])

    def test_perfect_sample_gives_zero(self):
        rng = np.random.default_rng(7)
        gt = rng.normal(size=(12, 2))
        preds = np.stack([gt + 1.0, gt, gt - 2.0])
        assert mt.best_of_k(preds, gt) == (0.0, 0.0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            gt = rng.normal(size=(6, 2))
            preds = rng.normal(size=(20, 6, 2))
            a20, f20 = mt.best_of_k(preds, gt)
            a1, f1 = mt.best_of_k(preds[:1], gt)
            assert a20 <= a1
            assert f20 <= f1

    def test_minima_taken_independently(self):
        gt = np.zeros((3, 2))
        # sample 0: perfect until the end, bad final step -> best ADE
        s0 = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
        # sample 1: offset throughout but perfect final step -> best FDE
        s1 = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        a, f = mt.best_of_k(np.stack([s0, s1]), gt)
        assert a == pytest.approx(1.0)  # from sample 0
        assert f == 0.0  # from sample 1
        assert one(s1, gt)[0] > a
        assert one(s0, gt)[1] > f

    def test_windows_match_single_window_calls(self):
        rng = np.random.default_rng(9)
        preds = rng.normal(size=(7, 20, 12, 2))
        gt = rng.normal(size=(7, 12, 2))
        ades, fdes = mt.best_of_k(preds, gt)
        assert ades.shape == fdes.shape == (7,)
        for w in range(7):
            assert (ades[w], fdes[w]) == mt.best_of_k(preds[w], gt[w])

    def test_window_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            mt.best_of_k(np.zeros((3, 20, 12, 2)), np.zeros((2, 12, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            mt.best_of_k(np.zeros((0, 12, 2)), np.zeros((12, 2)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=(4, 5, 2))
        gt = rng.normal(size=(5, 2))
        shift = rng.normal(size=2)
        a1, f1 = mt.best_of_k(pred, gt)
        a2, f2 = mt.best_of_k(pred + shift, gt + shift)
        assert abs(a1 - a2) < 1e-12
        assert abs(f1 - f2) < 1e-12


class TestEvalReport:
    def test_csv_format(self):
        rep = mt.EvalReport()
        rep.add("eth", 20, [0.5, 0.7], [1.0, 1.2])
        rep.add("hotel", 20, [0.2], [0.4])
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "dataset,K,ade,fde,n_instances"
        assert lines[1].startswith("eth,20,0.600000,1.100000,2")
        assert lines[2].startswith("hotel,20,0.200000,0.400000,1")
        assert lines[3].startswith("AVG,20,0.400000,0.750000,3")

    def test_single_dataset_has_no_avg_row(self):
        rep = mt.EvalReport()
        rep.add("eth", 20, [0.5], [1.0])
        assert "AVG" not in rep.to_csv()
