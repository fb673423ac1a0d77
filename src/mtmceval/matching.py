"""Optimal gated assignment between ground truth and predictions.

Matching maximizes total similarity among pairs that clear the gate alpha
(equivalently minimizes summed 1 - similarity over chosen pairs), per frame
and per class. Gated-out pairs enter the assignment kernel at cost 0, the
same as leaving both sides unmatched, and are stripped afterwards; this makes
the solver's optimum coincide with the exhaustive max-total-similarity gated
matching.

Scoring matches many frames at once on an ``EdgeList``, the nonzero
similarities between the rows of each frame, and ``match_frame`` matches one
frame as an edge list of one frame. ``edge_list`` finds them by sweep and
prune on both axes: a GT row is scored only against the predictions of its
frame whose x and y both lie within the reach of a nonzero similarity
(d_max under center_distance; under bev_iou, half the GT row's width plus
half the widest prediction's along x, half its length plus half the longest
prediction's along y). Its blocks hold whole GT rows and come in GT-row
order, and each block's edges are put in final (GT row, prediction row)
order as it is built, so the edge list is the blocks joined, with no sort
of all edges. Edges and matrices both come from ``pair_similarity``, which
scores each pair from the two rows' footprint columns (x, y, width,
length): ``edge_list`` gathers them by index per block,
``similarity_matrix`` broadcasts one side's against the other's, and no
other per-row form of a footprint is built. At a gate alpha, a frame in
which no gated row has two gated partners holds only forced pairs, which
are taken as they are; every other frame is solved on its whole gated
matrix, scattered from its edges.

``match_edges`` walks the whole alpha grid from a layout of the edge list
built once: each frame's edges, matrix shape and conflict level (the largest
second-highest similarity of any of its rows, from each row's best and
second-best edge), below which it holds only forced pairs. A conflicted
frame keeps the previous alpha's pairs while it has no more gated edges than
there and every pair matched there still clears the gate: its gated edges
are then a subset of those there, so that matching is feasible and still
optimal. On an exact tie it is thus the lower alpha's choice that holds, not
that of a fresh solve. Every other conflicted frame is solved, on a thread
pool when an alpha's matrices are large and more than one CPU is usable, and
``match_edges`` returns a list of each alpha's matching as a boolean mask
over the edges; every matrix is the same on any thread, so every mask is
too. The solver, scipy's compiled ``_lsap`` extension, is loaded on the
first solve without importing scipy.optimize.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .datamodel import Detection, _runs, check_real

# candidate GT x prediction pairs per block when building an edge list, and
# cost matrix cells per buffer when solving conflicted frames
EDGE_BLOCK = 1 << 16
# the mean cells per matrix from which an alpha's new matrices are solved on
# a thread pool: smaller solves are too short for a second thread to pay
POOL_CELLS = 1 << 10
# at most this many solver threads; between solves each holds the GIL
POOL_WORKERS = 2


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
    gt: tuple[np.ndarray, ...], pred: tuple[np.ndarray, ...], spec: SimilaritySpec
) -> np.ndarray:
    """Similarity of each GT footprint with the prediction footprint beside
    it, given each side's (x, y, width, length) columns, the two sides
    broadcast against each other.

    The one similarity formula: matrices and edge lists both come from it, so
    an edge equals its matrix entry bit for bit. Under bev_iou it takes each
    box's edges (x +- width/2, y +- length/2) and area (width * length) from
    its footprint columns as it scores.
    """
    (gx, gy, gw, gl), (px, py, pw, pl) = gt, pred
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
    columns x, y, width, length; ``pair_similarity`` scores the GT columns
    as a column vector broadcast against the prediction columns.
    """
    if not isinstance(gt, np.ndarray):
        gt = _footprints(gt)
    if not isinstance(pred, np.ndarray):
        pred = _footprints(pred)
    return pair_similarity(gt.T[:, :, None], pred.T, spec)


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

    Sweep and prune on both axes: each frame's predictions are sorted by x,
    and a GT row is paired only with the predictions of its frame whose x
    lies within its x reach, then only with those whose y lies within its y
    reach. The x reach is d_max under center_distance, half its width plus
    half the widest prediction's under bev_iou; the y reach is d_max under
    center_distance, half its length plus half the longest prediction's under
    bev_iou. Each is widened by a float slack relative to |x| or |y|. A pair
    beyond either reach has zero similarity, so the edges are those of the
    whole GT x prediction product. The x candidates come in blocks of whole
    GT rows of about EDGE_BLOCK pairs; the y prune drops its pairs before
    ``pair_similarity`` scores the rest from each side's footprint columns,
    gathered by index per block. No column is built for a whole side, so
    beyond its inputs and edges memory follows a block however long the
    window is.
    Each block's edges are kept in final (GT row, prediction row) order, and
    blocks come in GT-row order, so the result is the blocks joined.
    """
    # each GT row's reach along x and along y: width spans x, length spans y
    if spec.mode == "center_distance":
        reach = np.full((len(gt), 2), spec.d_max)
    else:
        reach = (gt[:, 2:4] + pred[:, 2:4].max(0, initial=0.0)) / 2
    reach += 1e-9 * (np.abs(gt[:, :2]) + reach)
    (gx, gy), (px, py), (x_reach, y_reach) = gt[:, :2].T, pred[:, :2].T, reach.T
    # (frame, x) keys as complex numbers, which numpy orders lexicographically
    key = pred_frame + 1j * px
    by_x = np.argsort(key, kind="stable")
    key = key[by_x]
    lo = np.searchsorted(key, gt_frame + 1j * (gx - x_reach), "left")
    count = np.searchsorted(key, gt_frame + 1j * (gx + x_reach), "right") - lo
    block = (np.cumsum(count) - count) // EDGE_BLOCK
    cuts = (np.flatnonzero(np.diff(block)) + 1).tolist()
    parts = []
    for a, b in zip([0, *cuts], [*cuts, count.size]):
        n = count[a:b]
        g = np.repeat(np.arange(a, b), n)
        p = by_x[_ranges(lo[a:b], n)]
        near = np.flatnonzero(np.abs(np.repeat(gy[a:b], n) - py[p]) <= np.repeat(y_reach[a:b], n))
        g, p = g[near], p[near]
        sim = pair_similarity(tuple(c[g] for c in gt.T), tuple(c[p] for c in pred.T), spec)
        hit = np.flatnonzero(sim > 0)
        # g is already in order; within a GT row the candidates came in x order
        hit = hit[np.argsort(g[hit] * len(pred) + p[hit], kind="stable")]
        parts.append((g[hit], p[hit], sim[hit]))
    g, p, sim = (np.concatenate(c) for c in zip(*parts))
    return EdgeList(g, p, sim, gt_frame, pred_frame)


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


# the function above; whoever replaces the module attribute (to count or time
# the solves) may give a function that is not thread-safe
_OWN_SOLVER = linear_sum_assignment


@dataclass(frozen=True)
class _Layout:
    """Where each frame of an edge list lies, for matching at any gate.

    Per frame holding edges, in frame order: its run of ``count`` edges
    from edge ``first``, the shape (``rows`` x ``cols``) of its whole
    matrix, and its conflict ``level``, the largest second-highest
    similarity of any of its GT rows or prediction rows; the frame is
    conflicted at alpha exactly when its level is >= alpha. Per edge: its
    ``cell`` in its frame's flattened matrix.
    """

    first: np.ndarray
    count: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    level: np.ndarray
    cell: np.ndarray


def _row_levels(row: np.ndarray, sim: np.ndarray, n: int) -> np.ndarray:
    """Per row 0..n-1 of one side, the second-highest similarity of its
    edges (the highest when two edges share it, 0 for a row of at most one
    edge); edge k lies on row ``row[k]``."""
    best = np.zeros(n)
    np.maximum.at(best, row, sim)
    top = sim == best[row]
    below = np.flatnonzero(~top)
    level = np.zeros(n)
    np.maximum.at(level, row[below], sim[below])
    tied = np.flatnonzero(np.bincount(row[top], minlength=n) > 1)
    level[tied] = best[tied]
    return level


def _layout(edges: EdgeList) -> _Layout:
    """The layout of an edge list's frames. A frame's conflict level is the
    largest ``_row_levels`` value of its GT and prediction rows: one maximum
    per side from the frame's first row up to the next frame's first row,
    since the rows between belong to frames without edges, whose levels are
    0."""
    frame = edges.gt_frame[edges.gt]
    first, count = _runs(frame)
    label = frame[first]
    g0, g1, p0, p1 = (
        np.searchsorted(labels, label, side)
        for labels in (edges.gt_frame, edges.pred_frame)
        for side in ("left", "right")
    )
    cols = p1 - p0
    cell = (
        (edges.gt - np.repeat(g0, count)) * np.repeat(cols, count)
        + edges.pred - np.repeat(p0, count)
    )
    # a row with two gated partners makes its frame conflicted
    n_gt = edges.gt_frame.size
    levels = np.concatenate((
        _row_levels(edges.gt, edges.sim, n_gt),
        _row_levels(edges.pred, edges.sim, edges.pred_frame.size),
    ))
    level = np.maximum.reduceat(levels, np.concatenate((g0, n_gt + p0))).reshape(2, -1).max(0)
    return _Layout(first, count, g1 - g0, cols, level, cell)


def _solve_chunk(
    lock: contextlib.AbstractContextManager, cell: np.ndarray, sim: np.ndarray,
    shape: np.ndarray, count: np.ndarray, edge: np.ndarray,
) -> np.ndarray:
    """The matched edges of a chunk of conflicted frames, given their gated
    edges, ``count`` per frame. The frames' matrices lie side by side in one
    flat buffer, 8 bytes a cell, at (start, rows, cols) in the rows of
    ``shape``; an edge costs minus its similarity at its ``cell``, and a
    gated-out pair costs 0. A matched cell that holds no gated edge is
    dropped: its cost is 0. The edges' buffer positions increase (frames and
    their edges come in order), so bisecting them finds each matched edge.
    Each solve holds ``lock``."""
    start, rows, cols = shape.T
    pos = np.repeat(start, count) + cell[edge]
    buf = np.zeros(start[-1] + rows[-1] * cols[-1])
    buf[pos] = -sim[edge]
    found_r, found_c = [], []
    for s, n, m in shape.tolist():
        with lock:
            r, c = linear_sum_assignment(buf[s : s + n * m].reshape(n, m))
        found_r.append(r)
        found_c.append(c)
    k = np.minimum(rows, cols)
    cells = np.repeat(start, k) + np.concatenate(found_r) * np.repeat(cols, k)
    cells += np.concatenate(found_c)
    return edge[np.searchsorted(pos, cells[buf[cells] < 0])]


def _plan(
    layout: _Layout, sim: np.ndarray, alpha: float, before: np.ndarray, kept: np.ndarray
):
    """The work of one alpha, given each frame's gated edge count at the
    alpha before (-1 for none) and that alpha's matching ``kept``, a mask
    over the edges: the forced and kept pairs as a mask over the edges, the
    frames to solve in chunks of about EDGE_BLOCK cells (the last three
    ``_solve_chunk`` arguments of each), their mean matrix size in cells,
    and each frame's gated edge count here.

    A frame's gated edge sets are nested across alphas, so a conflicted
    frame with at most as many gated edges as at the alpha before has a
    subset of its edges there. When every pair matched there still clears
    the gate, that matching is feasible here and no matching here beats it,
    so the frame keeps its pairs.
    """
    gate = sim >= alpha
    count = np.add.reduceat(gate, layout.first, dtype=np.intp)
    lost = np.add.reduceat(kept & ~gate, layout.first)
    hard = layout.level >= alpha
    reuse = hard & (count <= before) & (lost == 0)
    mask = (gate & ~np.repeat(hard, layout.count)) | (kept & np.repeat(reuse, layout.count))
    solve = hard & ~reuse
    new = np.flatnonzero(solve)
    if new.size == 0:
        return mask, [], 0.0, count
    e = np.flatnonzero(gate & np.repeat(solve, layout.count))
    n, rows, cols = count[new], layout.rows[new], layout.cols[new]
    size = rows * cols
    start = np.cumsum(size) - size
    stop = np.cumsum(n)
    shape = np.column_stack((start, rows, cols))
    cuts = (np.flatnonzero(np.diff(start // EDGE_BLOCK)) + 1).tolist()
    chunks = [
        (shape[lo:hi] - (start[lo], 0, 0), n[lo:hi], e[stop[lo] - n[lo] : stop[hi - 1]])
        for lo, hi in zip([0, *cuts], [*cuts, new.size])
    ]
    return mask, chunks, size.mean(), count


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def match_edges(edges: EdgeList, alphas: tuple[float, ...]) -> list[np.ndarray]:
    """Gated max-total-similarity matching of every frame of an edge list,
    at each gate alpha in turn.

    Returns, per alpha, a boolean mask over the edges that marks the matched
    pairs; as the edges are sorted by (GT row, prediction row), the matched
    pairs come out in GT row order. A frame below its conflict level holds
    only forced pairs, taken as they are. Every other (conflicted) frame
    keeps the pairs of the alpha before when it has at most as many gated
    edges as there and none of those pairs has fallen below the gate: its
    gated edges are a subset of those there, so the kept matching is still
    optimal, and where the optimum is not unique the frame keeps the lower
    alpha's choice. Otherwise it is solved on its whole gated matrix by one
    linear_sum_assignment call.

    When this process may use more than one CPU and an alpha's new matrices
    average at least POOL_CELLS cells, they are solved on a thread pool (the
    solver releases the GIL), otherwise inline. An alpha's matrices are all
    solved before the next alpha is planned, and each matrix, and so each
    mask, is the same on any thread. The pool is shut down before this
    returns or raises. Every solve goes through the module attribute
    ``linear_sum_assignment``; when it has been replaced, say by a function
    that counts or times the solves, the solves run one at a time, since the
    replacement may not be thread-safe.
    """
    for alpha in alphas:
        check_real("alpha", alpha, 1.0)
    layout = _layout(edges)
    # before the first alpha: no frame has gated edges, no pair is matched
    count = np.full(layout.first.size, -1)
    mask = np.zeros(edges.sim.size, bool)
    cpus = _usable_cpus()
    # a replaced solver is called by one thread at a time
    lock = contextlib.nullcontext() if linear_sum_assignment is _OWN_SOLVER else threading.Lock()
    solve = functools.partial(_solve_chunk, lock, layout.cell, edges.sim)
    masks, pool = [], None
    try:
        for alpha in alphas:
            mask, chunks, cells, count = _plan(layout, edges.sim, alpha, count, mask)
            if chunks:
                _solver()  # loaded here, never in a worker
                if cpus > 1 and cells >= POOL_CELLS:
                    if pool is None:
                        from concurrent.futures import ThreadPoolExecutor

                        pool = ThreadPoolExecutor(min(cpus, POOL_WORKERS), "mtmceval-solve")
                    found = pool.map(solve, *zip(*chunks))
                else:
                    found = map(solve, *zip(*chunks))
                for matched in found:
                    mask[matched] = True
            masks.append(mask)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return masks


def hungarian(cost: np.ndarray | list[list[float]]) -> list[tuple[int, int]]:
    """Minimum-cost maximum partial assignment over an n x m cost matrix.

    Returns min(n, m) (row, col) pairs sorted by row; deterministic for a
    fixed input. An empty matrix gives an empty assignment.
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
    is invariant to detection order. All detections must carry track_ids, and
    a track_id given twice on one side raises ValueError naming the side.
    """
    check_real("alpha", alpha, 1.0)
    for det in list(gt) + list(pred):
        if det.track_id is None:
            raise ValueError("match_frame requires track_ids on every detection")
    gt = sorted(gt, key=lambda d: d.track_id)
    pred = sorted(pred, key=lambda d: d.track_id)
    for dets, kind in ((gt, "ground-truth"), (pred, "predicted")):
        twice = [a.track_id for a, b in zip(dets, dets[1:]) if a.track_id == b.track_id]
        if twice:
            raise ValueError(f"{kind} track_id {twice[0]} appears twice")
    edges = edge_list(
        _footprints(gt), _footprints(pred), np.zeros(len(gt), int), np.zeros(len(pred), int), spec
    )
    (matched,) = match_edges(edges, (alpha,))
    rows, cols, sims = (a[matched].tolist() for a in (edges.gt, edges.pred, edges.sim))
    matched_r, matched_c = set(rows), set(cols)
    return FrameMatchSet(
        pairs=tuple((gt[r].track_id, pred[c].track_id, s) for r, c, s in zip(rows, cols, sims)),
        unmatched_gt=tuple(d.track_id for i, d in enumerate(gt) if i not in matched_r),
        unmatched_pred=tuple(d.track_id for i, d in enumerate(pred) if i not in matched_c),
    )
