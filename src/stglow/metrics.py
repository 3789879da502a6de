"""Best-of-K displacement metrics and their report format."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError


def best_of_k(preds: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-window minima over K samples of ADE (mean step distance) and FDE (final step distance)."""
    preds = np.asarray(preds, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if preds.ndim < 3 or preds.shape[-3] == 0 or preds.shape[:-3] + preds.shape[-2:] != gt.shape:
        raise ContractError(f"best_of_k needs (..., K>0, T, 2) and (..., T, 2) arrays, got {preds.shape}, {gt.shape}")
    d = preds - gt[..., None, :, :]  # FDE by one dot per sample: a norm over axis=-1 rounds some 1 ulp apart
    return np.linalg.norm(d, axis=-1).mean(-1).min(-1), np.sqrt(d[..., -1:, :] @ d[..., -1, :, None])[..., 0, 0].min(-1)


@dataclass
class EvalRow:
    dataset: str
    k: int
    ade: float
    fde: float
    n_instances: int


@dataclass
class EvalReport:
    """Per-dataset metrics plus an unweighted cross-dataset average."""

    rows: list[EvalRow] = field(default_factory=list)

    def add(self, dataset: str, k: int, ades: np.ndarray | list[float], fdes: np.ndarray | list[float]) -> None:
        self.rows.append(
            EvalRow(dataset=dataset, k=k, ade=float(np.mean(ades)), fde=float(np.mean(fdes)), n_instances=len(ades))
        )

    @property
    def avg(self) -> EvalRow | None:
        if not self.rows:
            return None
        return EvalRow(
            dataset="AVG",
            k=self.rows[0].k,
            ade=float(np.mean([r.ade for r in self.rows])),
            fde=float(np.mean([r.fde for r in self.rows])),
            n_instances=sum(r.n_instances for r in self.rows),
        )

    def to_csv(self) -> str:
        lines = ["dataset,K,ade,fde,n_instances"]
        rows = list(self.rows)
        if len(self.rows) > 1:
            rows.append(self.avg)
        for r in rows:
            lines.append(f"{r.dataset},{r.k},{r.ade:.6f},{r.fde:.6f},{r.n_instances}")
        return "\n".join(lines) + "\n"
