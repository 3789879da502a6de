"""The oracles that `stglow check` and the test suite share, held to closed
forms, and the layering that keeps them out of training and forecasting."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from stglow import checks


class TestFdJacobian:
    def test_linear_map_gives_its_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 5))  # not square: a transposed Jacobian has the wrong shape
        jac = checks.fd_jacobian(lambda x: a @ x, rng.normal(size=5))
        assert jac.shape == (3, 5)
        assert np.max(np.abs(jac - a)) < 1e-8

    def test_columns_follow_the_flat_input_order(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 6))
        jac = checks.fd_jacobian(lambda x: a @ x.ravel(), rng.normal(size=(2, 3)))
        assert np.max(np.abs(jac - a)) < 1e-8

    def test_elementwise_tanh_gives_its_diagonal(self):
        x0 = np.random.default_rng(2).normal(size=6)
        jac = checks.fd_jacobian(np.tanh, x0)
        assert np.max(np.abs(np.diag(jac) - (1.0 - np.tanh(x0) ** 2))) < 1e-8
        assert np.all(jac[~np.eye(6, dtype=bool)] == 0.0)


def test_pipeline_and_model_do_not_import_checks(monkeypatch):
    # diagnostics depend on the pipeline, never the reverse; a fresh interpreter sees every import
    src = str(Path(checks.__file__).parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, stglow.pipeline, stglow.model; print(*(m for m in sys.modules if m.startswith('stglow')))"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout.split()
    assert "stglow.pipeline" in loaded and "stglow.model" in loaded
    assert "stglow.checks" not in loaded
