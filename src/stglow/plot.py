"""The CSV and SVG format of `stglow sample`: trajectory rows and a static overlay."""

from __future__ import annotations

import numpy as np

from .data import SceneWindow


def sample_to_csv(window: SceneWindow, preds: np.ndarray) -> str:
    """CSV rows `ped_id,k,t,x,y` for (N, K, t_p, 2) world-frame predictions."""
    lines = ["ped_id,k,t,x,y"]
    n, k_count, t_p, _ = preds.shape
    for i in range(n):
        for k in range(k_count):
            for t in range(t_p):
                x, y = preds[i, k, t]
                lines.append(f"{window.ped_ids[i]},{k},{t + 1},{x:.9f},{y:.9f}")
    return "\n".join(lines) + "\n"


def parse_sample_csv(text: str) -> dict[tuple[int, int], list[tuple[float, float]]]:
    """CSV -> {(ped_id, k): [(x, y), ...]} ordered by t."""
    rows: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
    for line in text.strip().splitlines()[1:]:
        ped, k, t, x, y = line.split(",")
        rows.setdefault((int(ped), int(k)), []).append((int(t), float(x), float(y)))
    return {key: [(x, y) for _, x, y in sorted(vals)] for key, vals in sorted(rows.items())}


def _polyline(points, stroke: str, width: float, dash: str | None = None, opacity: float = 1.0) -> str:
    pts = " ".join(f"{x:.3f},{-y:.3f}" for x, y in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width:.3f}" stroke-opacity="{opacity:.2f}"{dash_attr}/>'
    )


def render_svg(window: SceneWindow, pred_paths: dict[tuple[int, int], list[tuple[float, float]]]) -> str:
    """Static overlay: observed (solid blue), true future (dashed green),
    sampled futures (thin orange)."""
    obs = window.world_obs()
    fut = window.world_fut()
    all_pts = [obs.reshape(-1, 2), fut.reshape(-1, 2)]
    for path in pred_paths.values():
        all_pts.append(np.array(path))
    concat = np.concatenate(all_pts)
    x0, y0 = concat.min(axis=0) - 1.0
    x1, y1 = concat.max(axis=0) + 1.0
    width = x1 - x0
    height = y1 - y0
    stroke_w = max(width, height) / 300.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.3f} {-y1:.3f} {width:.3f} {height:.3f}" '
        f'width="600" height="{600 * height / width:.0f}">',
        f'<rect x="{x0:.3f}" y="{-y1:.3f}" width="{width:.3f}" height="{height:.3f}" fill="white"/>',
    ]
    for key in sorted(pred_paths):
        parts.append(_polyline(pred_paths[key], "#ff7f0e", stroke_w, opacity=0.45))
    for i in range(window.n_pedestrians):
        parts.append(_polyline(obs[i], "#1f77b4", 2 * stroke_w))
        parts.append(_polyline(fut[i], "#2ca02c", 2 * stroke_w, dash=f"{3 * stroke_w:.3f},{2 * stroke_w:.3f}"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
