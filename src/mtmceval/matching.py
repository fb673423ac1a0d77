"""Optimal gated assignment between ground truth and predictions.

Matching maximizes total similarity among pairs that clear the gate alpha
(equivalently minimizes summed 1 - similarity over chosen pairs), per frame
and per class. Gated-out pairs enter the assignment kernel at cost 0, the
same as leaving both sides unmatched, and are stripped afterwards; this makes
the solver's optimum coincide with the exhaustive max-total-similarity gated
matching.

Scoring matches many frames at once on an ``EdgeList``, the nonzero
similarities between the rows of each frame. At a gate alpha, a frame in
which no gated row has two gated partners holds only forced pairs, which are
taken as they are; every other frame is solved on its whole gated matrix,
scattered from its edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .datamodel import Detection, check_real

# candidate GT x prediction pairs per block when building an edge list
EDGE_BLOCK = 1 << 16


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
        check_real("d_max", self.d_max)


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


def pair_similarity(
    gt: np.ndarray, pred: np.ndarray, spec: SimilaritySpec
) -> np.ndarray:
    """Similarity of each GT footprint with the prediction footprint beside
    it: rows of columns x, y, width, length, the two sides broadcast against
    each other over every axis but the last.

    The one similarity formula: matrices and edge lists both come from it, so
    an edge equals its matrix entry bit for bit.
    """
    gx, gy, gw, gl = np.moveaxis(gt, -1, 0)
    px, py, pw, pl = np.moveaxis(pred, -1, 0)
    if spec.mode == "center_distance":
        return np.maximum(0.0, 1.0 - np.hypot(gx - px, gy - py) / spec.d_max)
    ix = np.minimum(gx + gw / 2, px + pw / 2) - np.maximum(gx - gw / 2, px - pw / 2)
    iy = np.minimum(gy + gl / 2, py + pl / 2) - np.maximum(gy - gl / 2, py - pl / 2)
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    return inter / (gw * gl + pw * pl - inter)


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
    return pair_similarity(gt[:, None, :], pred[None, :, :], spec)


@dataclass(frozen=True)
class EdgeList:
    """The pairs of GT and prediction rows of one frame with nonzero
    similarity, over many frames.

    Each side numbers its rows across frames, grouped by frame in ascending
    order: ``gt_frame`` and ``pred_frame`` give the frame of every row and are
    nondecreasing. Edge k joins GT row ``gt[k]`` and prediction row
    ``pred[k]`` at similarity ``sim[k]`` > 0; edges are sorted by (GT row,
    prediction row).
    """

    gt: np.ndarray
    pred: np.ndarray
    sim: np.ndarray
    gt_frame: np.ndarray
    pred_frame: np.ndarray


def edge_list(
    gt: np.ndarray,
    pred: np.ndarray,
    gt_frame: np.ndarray,
    pred_frame: np.ndarray,
    spec: SimilaritySpec,
) -> EdgeList:
    """Every pair of one frame's GT and prediction footprints (rows of x, y,
    width, length, grouped by the nondecreasing frame labels beside them)
    with nonzero similarity.

    The candidate pairs go through ``pair_similarity`` in blocks of whole
    frames of about EDGE_BLOCK pairs, so memory stays bounded however long
    the window is.
    """
    g_frames, g_start, g_count = np.unique(gt_frame, return_index=True, return_counts=True)
    p_frames, p_start, p_count = np.unique(pred_frame, return_index=True, return_counts=True)
    _, gi, pi = np.intersect1d(g_frames, p_frames, assume_unique=True, return_indices=True)
    g_start, p_start, p_count = g_start[gi], p_start[pi], p_count[pi]
    cells = g_count[gi] * p_count
    block = (np.cumsum(cells) - cells) // EDGE_BLOCK
    cuts = np.flatnonzero(np.diff(block)) + 1
    parts = []
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), cells.size]):
        n = cells[lo:hi]
        frame = np.repeat(np.arange(lo, hi), n)
        # the cell of each pair in its frame's row-major GT x prediction grid
        cell = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        g = g_start[frame] + cell // p_count[frame]
        p = p_start[frame] + cell % p_count[frame]
        sim = pair_similarity(gt[g], pred[p], spec)
        hit = sim > 0
        parts.append((g[hit], p[hit], sim[hit]))
    g, p, sim = (np.concatenate(c) for c in zip(*parts))
    return EdgeList(g, p, sim, gt_frame, pred_frame)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


def match_edges(
    edges: EdgeList, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gated max-total-similarity matching of every frame of an edge list.

    Returns the (GT row, prediction row, similarity) of the matched pairs,
    sorted by GT row. A frame where some row has two gated partners is
    solved by one linear_sum_assignment call on its whole matrix; in every
    other frame the gated pairs are forced and taken as they are.
    """
    _check_alpha(alpha)
    keep = edges.sim >= alpha
    g, p, sim = edges.gt[keep], edges.pred[keep], edges.sim[keep]
    frame = edges.gt_frame[g]
    clash = (np.bincount(g)[g] > 1) | (np.bincount(p)[p] > 1)
    hard = np.unique(frame[clash])
    if hard.size == 0:
        return g, p, sim
    forced = ~np.isin(frame, hard)
    parts = [(g[forced], p[forced], sim[forced])]
    # each hard frame's gated edges, GT rows and prediction rows are contiguous
    spans = zip(
        *(np.searchsorted(labels, hard, side).tolist()
          for labels in (frame, edges.gt_frame, edges.pred_frame)
          for side in ("left", "right"))
    )
    for a, b, g0, g1, p0, p1 in spans:
        # the frame's whole matrix; gated-out pairs cost 0
        cost = np.zeros((g1 - g0, p1 - p0))
        cost[g[a:b] - g0, p[a:b] - p0] = -sim[a:b]
        rows, cols = linear_sum_assignment(cost)
        keep = cost[rows, cols] < 0
        rows, cols = rows[keep], cols[keep]
        parts.append((rows + g0, cols + p0, -cost[rows, cols]))
    g, p, sim = (np.concatenate(c) for c in zip(*parts))
    order = np.argsort(g)
    return g[order], p[order], sim[order]


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
    _check_alpha(alpha)
    for det in list(gt) + list(pred):
        if det.track_id is None:
            raise ValueError("match_frame requires track_ids on every detection")
    gt = sorted(gt, key=lambda d: d.track_id)
    pred = sorted(pred, key=lambda d: d.track_id)
    sim = similarity_matrix(gt, pred, spec)
    r, c = np.nonzero(sim > 0)
    edges = EdgeList(r, c, sim[r, c], np.zeros(len(gt), int), np.zeros(len(pred), int))
    rows, cols, _ = match_edges(edges, alpha)
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
