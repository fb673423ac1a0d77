"""Optimal gated assignment between ground truth and predictions.

Matching maximizes total similarity among pairs that clear the gate alpha
(equivalently minimizes summed 1 - similarity over chosen pairs), per frame
and per class. Gated-out pairs enter the assignment kernel at cost 0, the
same as leaving both sides unmatched, and are stripped afterwards; this makes
the solver's optimum coincide with the exhaustive max-total-similarity gated
matching.

Scoring matches many frames at once on an ``EdgeList``, the nonzero
similarities between the rows of each frame. ``edge_list`` finds them by
sweep and prune: a GT row is scored only against the predictions of its
frame whose x lies within the reach of a nonzero similarity. At a gate
alpha, a frame in which no gated row has two gated partners holds only
forced pairs, which are taken as they are; every other frame is solved on
its whole gated matrix, scattered from its edges. ``match_edges`` walks the
whole alpha grid, solves each distinct gated matrix of a frame once, and
yields each alpha's matching as a boolean mask over the edges. The solver,
scipy's compiled ``_lsap`` extension, is loaded on the first solve without
importing scipy.optimize.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .datamodel import Detection, check_real

# candidate GT x prediction pairs per block when building an edge list, and
# cost matrix cells per buffer when solving conflicted frames
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


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + n)`` over each start s and count n."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


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

    Sweep and prune: each frame's predictions are sorted by x, and a GT row
    is paired only with the predictions of its frame whose x lies within its
    reach: d_max under center_distance, half its width plus half the widest
    prediction's under bev_iou, widened by a float slack relative to |x|. A
    pair beyond that reach has zero similarity, so the edges are those of the
    whole GT x prediction product. The candidate pairs go through
    ``pair_similarity`` in blocks of whole GT rows of about EDGE_BLOCK pairs,
    so memory stays bounded however long the window is.
    """
    gx, px = gt[:, 0], pred[:, 0]
    if spec.mode == "center_distance":
        reach = np.full(gx.size, spec.d_max)
    else:
        reach = (gt[:, 2] + pred[:, 2].max(initial=0.0)) / 2
    reach += 1e-9 * (np.abs(gx) + reach)
    # (frame, x) keys as complex numbers, which numpy orders lexicographically
    key = pred_frame + 1j * px
    by_x = np.argsort(key, kind="stable")
    key = key[by_x]
    lo = np.searchsorted(key, gt_frame + 1j * (gx - reach), "left")
    count = np.searchsorted(key, gt_frame + 1j * (gx + reach), "right") - lo
    block = (np.cumsum(count) - count) // EDGE_BLOCK
    cuts = (np.flatnonzero(np.diff(block)) + 1).tolist()
    parts = []
    for a, b in zip([0, *cuts], [*cuts, count.size]):
        g = np.repeat(np.arange(a, b), count[a:b])
        p = by_x[_ranges(lo[a:b], count[a:b])]
        sim = pair_similarity(gt[g], pred[p], spec)
        hit = sim > 0
        parts.append((g[hit], p[hit], sim[hit]))
    g, p, sim = (np.concatenate(c) for c in zip(*parts))
    # g is already in order; within a GT row the candidates came in x order
    order = np.argsort(g * len(pred) + p, kind="stable")
    return EdgeList(g[order], p[order], sim[order], gt_frame, pred_frame)


def _lsap_from_file():
    """``scipy.optimize._lsap``, the solver's compiled extension, loaded by
    file and registered in ``sys.modules`` under its own name, without
    importing the scipy.optimize package around it."""
    import importlib.machinery
    import importlib.util
    import sys
    from pathlib import Path

    name = "scipy.optimize._lsap"
    if name in sys.modules:
        return sys.modules[name]
    home = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    path = next(
        f for suffix in importlib.machinery.EXTENSION_SUFFIXES
        if (f := home / "optimize" / f"_lsap{suffix}").is_file()
    )
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


@functools.cache
def _solver():
    """``scipy.optimize.linear_sum_assignment``, from its extension module
    loaded by file; the load leans on scipy's private layout, so any failure
    falls back to the public import."""
    try:
        return _lsap_from_file().linear_sum_assignment
    except Exception:
        import scipy.optimize

        return scipy.optimize.linear_sum_assignment


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.optimize.linear_sum_assignment``, loaded on the first call.

    Importing scipy.optimize takes most of a second; its compiled ``_lsap``
    extension, which holds this very function, loads in milliseconds. A later
    ``import scipy.optimize`` finds that module registered and returns the
    same function.
    """
    return _solver()(cost)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


def _solve_frames(
    edges: EdgeList, g: np.ndarray, p: np.ndarray, sim: np.ndarray,
    frames: np.ndarray, a: np.ndarray, b: np.ndarray,
) -> np.ndarray:
    """The optimal matched pairs of each frame in ``frames``, whose gated
    edges are ``g[a:b], p[a:b], sim[a:b]``, as indices into those gated
    edges.

    Each frame is solved on its whole gated matrix, in which a gated-out pair
    costs 0. The matrices lie side by side in one flat buffer, filled in
    chunks of whole frames of about EDGE_BLOCK cells; a matched cell that
    holds no gated edge is dropped.
    """
    if frames.size == 0:
        return frames
    g0, g1, p0, p1 = (
        np.searchsorted(labels, frames, side)
        for labels in (edges.gt_frame, edges.pred_frame)
        for side in ("left", "right")
    )
    rows, cols = g1 - g0, p1 - p0
    start = np.cumsum(rows * cols) - rows * cols
    # the gated edges of those frames, and the buffer cell of each
    e = _ranges(a, b - a)
    slot = np.repeat(np.arange(frames.size), b - a)
    cell = start[slot] + (g[e] - g0[slot]) * cols[slot] + p[e] - p0[slot]
    block = start // EDGE_BLOCK
    cuts = (np.flatnonzero(np.diff(block)) + 1).tolist()
    shape = list(zip(start.tolist(), rows.tolist(), cols.tolist()))
    found_r, found_c = [], []
    for lo, hi in zip([0, *cuts], [*cuts, frames.size]):
        first, end = start[lo], start[hi - 1] + rows[hi - 1] * cols[hi - 1]
        buf = np.zeros(end - first)
        e0, e1 = np.searchsorted(cell, (first, end))
        buf[cell[e0:e1] - first] = -sim[e[e0:e1]]
        for s, n, m in shape[lo:hi]:
            s -= first
            r, c = linear_sum_assignment(buf[s : s + n * m].reshape(n, m))
            found_r.append(r)
            found_c.append(c)
    slot = np.repeat(np.arange(frames.size), np.minimum(rows, cols))
    matched = start[slot] + np.concatenate(found_r) * cols[slot] + np.concatenate(found_c)
    at = np.searchsorted(cell, matched)
    hit = at < cell.size
    hit[hit] = cell[at[hit]] == matched[hit]
    return e[at[hit]]


def match_edges(edges: EdgeList, alphas: tuple[float, ...]) -> Iterator[np.ndarray]:
    """Gated max-total-similarity matching of every frame of an edge list,
    at each gate alpha in turn.

    Yields, per alpha, a boolean mask over the edges that marks the matched
    pairs; as the edges are sorted by (GT row, prediction row), the matched
    pairs come out in GT row order. In a frame where no row has two gated
    partners the gated pairs are forced and taken as they are. Every other
    (conflicted) frame is solved on its whole gated matrix by one
    linear_sum_assignment call per distinct matrix: a frame's gated edge sets
    are nested across alphas, so a conflicted frame with as many gated edges
    as at the previous alpha has the same matrix, bit for bit, and keeps the
    pairs found there.
    """
    for alpha in alphas:
        _check_alpha(alpha)
    # the previous alpha's conflicted frames, their gated edge counts and mask
    prev_hard = prev_count = np.empty(0, np.int64)
    prev = np.zeros(edges.sim.size, bool)
    for alpha in alphas:
        mask = edges.sim >= alpha
        g, p = edges.gt[mask], edges.pred[mask]
        frame = edges.gt_frame[g]
        clash = (np.bincount(g)[g] > 1) | (np.bincount(p)[p] > 1)
        hard = frame[clash]
        if hard.size:
            # frame is nondecreasing: the conflicted frames, each once, and
            # the contiguous run of gated edges of each
            hard = hard[np.r_[True, hard[1:] != hard[:-1]]]
            a, b = np.searchsorted(frame, hard, "left"), np.searchsorted(frame, hard, "right")
            same = np.zeros(hard.size, bool)
            if prev_hard.size:
                at = np.minimum(np.searchsorted(prev_hard, hard), prev_hard.size - 1)
                same = (prev_hard[at] == hard) & (prev_count[at] == b - a)
            gated = np.flatnonzero(mask)
            conflicted = gated[_ranges(a, b - a)]
            mask[conflicted] = np.repeat(same, b - a) & prev[conflicted]
            new = ~same
            solved = _solve_frames(edges, g, p, edges.sim[gated], hard[new], a[new], b[new])
            mask[gated[solved]] = True
            prev_count = b - a
        prev_hard, prev = hard, mask
        yield mask


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
    matched = next(match_edges(edges, (alpha,)))
    rows, cols = r[matched], c[matched]
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
