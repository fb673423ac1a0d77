"""Per-frame optimal assignment between ground truth and predictions.

Matching maximizes total similarity among pairs that clear the gate alpha
(equivalently minimizes summed 1 - similarity over chosen pairs), per frame
and per class. Gated-out pairs enter the assignment kernel at cost 0, the
same as leaving both sides unmatched, and are stripped afterwards; this makes
the solver's optimum coincide with the exhaustive max-total-similarity gated
matching.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .datamodel import Detection


@dataclass(frozen=True)
class SimilaritySpec:
    """Which localization similarity underlies the gate.

    bev_iou: IoU of axis-aligned (x, y) footprints, yaw ignored (width spans
    x, length spans y). center_distance: 1 - distance / d_max, clamped at 0.
    """

    mode: str = "bev_iou"
    d_max: float = 2.0

    def __post_init__(self) -> None:
        if self.mode not in ("bev_iou", "center_distance"):
            raise ValueError(f"unknown similarity mode {self.mode!r}")
        if not (isinstance(self.d_max, numbers.Real) and self.d_max > 0):
            raise ValueError(f"d_max must be positive, got {self.d_max!r}")


@dataclass(frozen=True)
class FrameMatchSet:
    """One frame's matching outcome at a given gate."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_gt: tuple[int, ...]
    unmatched_pred: tuple[int, ...]


def _footprints(dets: list[Detection] | tuple[Detection, ...]) -> np.ndarray:
    return np.array(
        [(d.box.x, d.box.y, d.box.width, d.box.length) for d in dets], dtype=float
    ).reshape(-1, 4)


def similarity_matrix(
    gt: list[Detection] | tuple[Detection, ...] | np.ndarray,
    pred: list[Detection] | tuple[Detection, ...] | np.ndarray,
    spec: SimilaritySpec,
) -> np.ndarray:
    """Pairwise similarities, shape (len(gt), len(pred)).

    Each side is a list of Detections or an (n, 4) array of footprint
    columns x, y, width, length.
    """
    if not isinstance(gt, np.ndarray):
        gt = _footprints(gt)
    if not isinstance(pred, np.ndarray):
        pred = _footprints(pred)
    n, m = len(gt), len(pred)
    if n == 0 or m == 0:
        return np.zeros((n, m))
    gx, gy, gw, gl = gt.T
    px, py, pw, pl = pred.T
    if spec.mode == "center_distance":
        dist = np.hypot(gx[:, None] - px[None, :], gy[:, None] - py[None, :])
        return np.maximum(0.0, 1.0 - dist / spec.d_max)
    ix = np.minimum(
        gx[:, None] + gw[:, None] / 2, px[None, :] + pw[None, :] / 2
    ) - np.maximum(gx[:, None] - gw[:, None] / 2, px[None, :] - pw[None, :] / 2)
    iy = np.minimum(
        gy[:, None] + gl[:, None] / 2, py[None, :] + pl[None, :] / 2
    ) - np.maximum(gy[:, None] - gl[:, None] / 2, py[None, :] - pl[None, :] / 2)
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    union = (gw * gl)[:, None] + (pw * pl)[None, :] - inter
    return inter / union


def hungarian(cost: np.ndarray | list[list[float]]) -> list[tuple[int, int]]:
    """Minimum-cost maximum partial assignment over an n x m cost matrix.

    Returns min(n, m) (row, col) pairs sorted by row; deterministic for a
    fixed input. Empty matrix yields an empty assignment.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def match_arrays(sim: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gated max-total-similarity matching on a similarity matrix.

    Returns (row_indices, col_indices) of matched pairs, all with
    sim >= alpha. Array-level core shared by match_frame and the metrics
    pipeline.
    """
    n, m = sim.shape
    if n == 0 or m == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    gated = sim >= alpha
    counts_r = gated.sum(axis=1)
    counts_c = gated.sum(axis=0)
    if counts_r.max(initial=0) <= 1 and counts_c.max(initial=0) <= 1:
        # conflict-free gate: every gated pair is forced
        rows, cols = np.nonzero(gated)
        return rows, cols
    cost = np.where(gated, -sim, 0.0)
    rows, cols = linear_sum_assignment(cost)
    keep = gated[rows, cols]
    return rows[keep], cols[keep]


def match_frame(
    gt: list[Detection] | tuple[Detection, ...],
    pred: list[Detection] | tuple[Detection, ...],
    alpha: float,
    spec: SimilaritySpec,
) -> FrameMatchSet:
    """Match one frame's same-class detections at gate alpha.

    Inputs are canonically sorted by track_id before the solve, so the result
    is invariant to detection order. All detections must carry track_ids.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    for det in list(gt) + list(pred):
        if det.track_id is None:
            raise ValueError("match_frame requires track_ids on every detection")
    gt = sorted(gt, key=lambda d: d.track_id)
    pred = sorted(pred, key=lambda d: d.track_id)
    sim = similarity_matrix(gt, pred, spec)
    rows, cols = match_arrays(sim, alpha)
    matched_r = set(rows.tolist())
    matched_c = set(cols.tolist())
    pairs = tuple(
        (gt[r].track_id, pred[c].track_id, float(sim[r, c]))
        for r, c in zip(rows.tolist(), cols.tolist())
    )
    unmatched_gt = tuple(
        d.track_id for i, d in enumerate(gt) if i not in matched_r
    )
    unmatched_pred = tuple(
        d.track_id for i, d in enumerate(pred) if i not in matched_c
    )
    return FrameMatchSet(pairs=pairs, unmatched_gt=unmatched_gt, unmatched_pred=unmatched_pred)
