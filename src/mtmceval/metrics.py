"""HOTA, DetA, AssA, LocA, detection AP, AvgTrackDur and report assembly.

All metrics come from one pass per class over the evaluation window
(``_class_edges``), reading column slices of the two sequences' track tables.
It orders each side's rows on window frames by (window position, track id)
and builds one edge list (``matching.EdgeList``): every (GT row, prediction
row) pair of one frame with nonzero similarity, never as per-frame matrices.
Only the pairs within reach of each other along x are scored (sweep and
prune), in blocks of GT rows. A window frame empty on either side holds no
edge, and one empty on both sides costs nothing. It also ranks the
predictions for AP, by one stable sort on confidence: the rows are already
in (frame, track id) order, which is unique within a class. Three consumers
read that pass and compute nothing twice:

- ``_score_alphas`` matches the edges over the whole alpha grid in one
  ``match_edges`` pass, which yields a mask over the edges per alpha, and
  gives HOTA, DetA, AssA and LocA per alpha, plus the matched pairs at
  ``dur_alpha``. In a frame where no row has two gated partners every gated
  pair is forced; these are taken for the whole window at once. A
  conflicted frame is solved on its whole gated matrix, scattered from its
  edges, once per distinct matrix: when its gated edges at one alpha are
  those of the alpha before, it keeps the pairs found there. Each edge's
  (GT id, prediction id) pair is numbered once, so an alpha's AssA counts
  are one bincount over the masked edges;
- ``_run_seconds`` counts runs of matched prediction ids over window
  positions from one sort of (dense id, position) keys: AvgTrackDur;
- ``_average_precision`` matches predictions greedily in rank order, level
  by level: level k holds every frame's k-th ranked prediction, and frames
  share no GT, so a whole level is matched at once: AP.

``class_report`` is the only entry point that scores a window;
``avg_track_dur`` and ``detection_ap`` are thin adapters over the same
cores. Identities are scoped per (sequence, class); classes are matched
independently and class averages are unweighted over classes present in the
ground truth.

Conventions for degenerate windows: an empty-vs-empty scene scores 1.0 on all
rate metrics; TP = 0 with a nonempty scene scores 0.0; zero runs yield an
AvgTrackDur of 0 seconds.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, astuple, dataclass, field
from typing import Callable

import numpy as np

from .datamodel import EvalWindow, Sequence, TrackTable
from .matching import (
    EdgeList,
    FrameMatchSet,
    SimilaritySpec,
    _ranges,
    edge_list,
    match_edges,
)

logger = logging.getLogger(__name__)

DEFAULT_ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
DEFAULT_DUR_ALPHA = 0.5


# ---------------------------------------------------------------------------
# the single per-class pass over the window
# ---------------------------------------------------------------------------


@dataclass
class _ClassEdges:
    """One class's window. GT and prediction rows are the class's rows on
    window frames, each side ordered by (window position, track id): the
    edge list between them (row frames are window positions), each row's
    track id and its index into the side's distinct ids, the detection count
    of each distinct id, and the prediction rows in AP rank order."""

    edges: EdgeList
    g_ids: np.ndarray
    p_ids: np.ndarray
    g_dense: np.ndarray
    p_dense: np.ndarray
    gt_counts: np.ndarray
    pred_counts: np.ndarray
    ranked: np.ndarray


def _window_rows(t: TrackTable, window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, window positions) of the table rows on window frames, frame by
    frame in window order, the rows of a frame in table order; only the
    frames in the window are touched."""
    by_index = np.argsort(t.frame_index, kind="stable")
    at = np.searchsorted(t.frame_index, window, sorter=by_index)
    found = at < by_index.size
    found[found] = t.frame_index[by_index[at[found]]] == window[found]
    frames = by_index[at[found]]
    counts = np.diff(t.offsets)[frames]
    return _ranges(t.offsets[frames], counts), np.repeat(np.flatnonzero(found), counts)


def _class_rows(
    t: TrackTable, window: np.ndarray, class_id: int, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, window positions) of one class's rows on window frames,
    ordered by (window position, track_id), ties in table order; a track id
    twice in one frame raises ValueError."""
    rows, pos = _window_rows(t, window)
    mine = t.class_id[rows] == class_id
    rows, pos = rows[mine], pos[mine]
    by_id = np.lexsort((t.track_id[rows], pos))
    rows, pos = rows[by_id], pos[by_id]
    ids = t.track_id[rows]
    twice = np.flatnonzero((pos[1:] == pos[:-1]) & (ids[1:] == ids[:-1]) & (ids[1:] != -1))
    if twice.size:
        k = rows[twice[0]]
        raise ValueError(
            f"{kind} track_id {t.track_id[k]} appears twice in frame {t.frame[k]} "
            f"of class {class_id}"
        )
    return rows, pos


def _class_edges(
    gt: TrackTable,
    pred: TrackTable,
    win: np.ndarray,
    spec: SimilaritySpec,
    class_id: int,
) -> _ClassEdges:
    g_rows, g_pos = _class_rows(gt, win, class_id, "ground-truth")
    p_rows, p_pos = _class_rows(pred, win, class_id, "predicted")
    missing = [
        (pos[t.track_id[rows] == -1].min(initial=win.size), kind)
        for t, rows, pos, kind in (
            (gt, g_rows, g_pos, "ground-truth"), (pred, p_rows, p_pos, "predicted")
        )
    ]
    first, kind = min(missing, key=lambda m: m[0])
    if first < win.size:
        raise ValueError(f"{kind} detection missing track_id")

    def boxes(t: TrackTable, rows: np.ndarray) -> np.ndarray:
        return np.column_stack((t.x[rows], t.y[rows], t.w[rows], t.l[rows]))

    edges = edge_list(boxes(gt, g_rows), boxes(pred, p_rows), g_pos, p_pos, spec)
    g_ids, p_ids = gt.track_id[g_rows], pred.track_id[p_rows]
    # confidence first; the sort is stable and the rows are in (frame,
    # track id) order, which is unique, so ties break on it
    ranked = np.argsort(-pred.conf[p_rows], kind="stable")
    _, g_dense, gt_counts = np.unique(g_ids, return_inverse=True, return_counts=True)
    _, p_dense, pred_counts = np.unique(p_ids, return_inverse=True, return_counts=True)
    return _ClassEdges(edges, g_ids, p_ids, g_dense, p_dense, gt_counts, pred_counts, ranked)


def _score_alphas(
    data: _ClassEdges, alphas: tuple[float, ...], dur_index: int
) -> tuple[list[tuple[float, float, float, float]], tuple[np.ndarray, np.ndarray]]:
    """Per-alpha (HOTA, DetA, AssA, LocA) plus the dense ids of the matched
    predictions at ``alphas[dur_index]`` and their window positions (for run
    counting).

    AssA weights each (GT id, prediction id) pair by its TP count; each
    edge's pair is numbered once, on dense indices into each side's distinct
    ids, so any int64 track id is safe, and counted per alpha by bincount.
    LocA sums the matched similarities in GT row order.
    """
    e = data.edges
    total_gt = data.g_ids.size
    total_pred = data.p_ids.size
    n_pred = data.pred_counts.size
    keys, pair = np.unique(data.g_dense[e.gt] * n_pred + data.p_dense[e.pred], return_inverse=True)
    gt_n = data.gt_counts[keys // n_pred]
    pred_n = data.pred_counts[keys % n_pred]
    scores = []
    for k, mask in enumerate(match_edges(e, alphas)):
        if k == dur_index:
            matched = (data.p_dense[e.pred[mask]], e.gt_frame[e.gt[mask]])
        tp = int(np.count_nonzero(mask))
        if tp == 0:
            # the class has GT in the window, so nothing matched scores 0
            scores.append((0.0, 0.0, 0.0, 0.0))
            continue
        deta = tp / (total_gt + total_pred - tp)
        counts = np.bincount(pair[mask], minlength=keys.size)
        seen = np.flatnonzero(counts)
        counts = counts[seen]
        a_c = counts / (gt_n[seen] + pred_n[seen] - counts)
        assa = float((counts * a_c).sum() / tp)
        loca = float(e.sim[mask].mean())
        scores.append((math.sqrt(deta * assa), deta, assa, loca))
    return scores, matched


def _run_seconds(dense: np.ndarray, positions: np.ndarray, f0: float) -> float:
    """AvgTrackDur from the dense ids (indices into the distinct ids) of
    matched predictions and the window positions they were matched at: a run
    is a maximal span of consecutive window positions where one id is
    matched; the result is the sum of run lengths / (#runs * f0), 0 with no
    runs."""
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    if dense.size == 0:
        return 0.0
    # (id, position) keys sorted, with a gap of at least two between one
    # id's last position and the next id's first: a step of 0 repeats a key,
    # a step above 1 starts a run
    step = np.diff(np.sort(dense * (positions.max() + 2) + positions))
    return (1 + np.count_nonzero(step)) / ((1 + np.count_nonzero(step > 1)) * f0)


def _levels(frame: np.ndarray, ranked: np.ndarray) -> np.ndarray:
    """Each prediction row's place among its frame's prediction rows in the
    rank order ``ranked``; ``frame`` labels the rows and is nondecreasing, so
    the (frame, rank) keys are unique and sort the rows within their
    frames."""
    n = ranked.size
    rank = np.empty(n, dtype=np.int64)
    rank[ranked] = np.arange(n)
    level = np.empty(n, dtype=np.int64)
    level[np.argsort(frame * n + rank)] = np.arange(n) - np.searchsorted(frame, frame)
    return level


def _level_order(p: np.ndarray, sim: np.ndarray, level: np.ndarray) -> np.ndarray:
    """The order of edges, given in (GT row, prediction row) order, by
    (level of the prediction row, prediction row, descending similarity, GT
    row): one stable sort by the first two keys, then the edges that share
    their prediction row with another, by similarity within it."""
    key = level[p] * level.size + p
    order = np.argsort(key, kind="stable")
    key = key[order]
    same = key[1:] == key[:-1]
    shared = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
    edge = order[shared]
    order[shared] = edge[np.lexsort((-sim[edge], key[shared]))]
    return order


def _average_precision(data: _ClassEdges, alpha: float) -> float:
    """101-point interpolated AP at gate alpha.

    Predictions are ranked by descending confidence and matched greedily per
    frame, each GT box consumed at most once. A prediction takes the
    available GT of highest similarity; on an exact tie, the GT with the
    lower track id. Level k of the greedy pass is every frame's k-th ranked
    prediction; frames share no GT, so each level is matched at once.
    """
    npos = data.g_ids.size
    n = data.ranked.size
    if npos == 0:
        return 1.0 if n == 0 else 0.0
    if n == 0:
        return 0.0
    e = data.edges
    level = _levels(e.pred_frame, data.ranked)
    keep = e.sim >= alpha
    g, p = e.gt[keep], e.pred[keep]
    # a level's edges together, each prediction's best GT first
    order = _level_order(p, e.sim[keep], level)
    g, p, lv = g[order], p[order], level[p[order]]
    available = np.ones(npos, dtype=bool)
    hit = np.zeros(n, dtype=bool)
    cuts = (np.flatnonzero(np.diff(lv)) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, lv.size]):
        free = a + np.flatnonzero(available[g[a:b]])
        if free.size == 0:
            continue
        best = free[np.r_[True, p[free[1:]] != p[free[:-1]]]]
        available[g[best]] = False
        hit[p[best]] = True
    cum_tp = np.cumsum(hit[data.ranked], dtype=float)
    precision = cum_tp / np.arange(1, n + 1)
    recall = cum_tp / npos
    # at each of the 101 recall points, the best precision at that recall or
    # above; recall only grows, so that is a suffix maximum
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    at = np.searchsorted(recall, np.linspace(0.0, 1.0, 101) - 1e-12)
    ap = 0.0
    for v in envelope[at[at < n]].tolist():
        ap += v
    return ap / 101.0


# ---------------------------------------------------------------------------
# public adapters over the cores
# ---------------------------------------------------------------------------


def avg_track_dur(matches: list[FrameMatchSet], f0: float) -> float:
    """Mean run duration in seconds: sum of run lengths / (#runs * f0).

    Returns 0 when no tracker id is ever matched.
    """
    ids = np.array([p for m in matches for _, p, _ in m.pairs], dtype=np.int64)
    return _run_seconds(
        np.unique(ids, return_inverse=True)[1],
        np.repeat(np.arange(len(matches)), [len(m.pairs) for m in matches]),
        f0,
    )


def detection_ap(
    gt: Sequence,
    pred: Sequence,
    window: EvalWindow,
    spec: SimilaritySpec,
    alpha: float,
    class_id: int,
) -> float:
    """101-point interpolated average precision of one class at gate alpha.

    Predictions are ranked by descending confidence and matched greedily per
    frame, each ground-truth box consumed at most once; an exact similarity
    tie goes to the GT with the lower track id.
    """
    win = np.asarray(window.frame_indices, dtype=np.int64)
    data = _class_edges(gt.table, pred.table, win, spec, class_id)
    return _average_precision(data, alpha)


def _roi_contains(
    roi: tuple[float, float, float, float] | list[tuple[float, float]],
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The point-in-ROI test on coordinate columns for an axis-aligned
    (xmin, ymin, xmax, ymax) rectangle or a convex polygon given as a vertex
    list; a malformed or degenerate ROI raises ValueError or TypeError."""
    if isinstance(roi, tuple) and len(roi) == 4 and not isinstance(roi[0], tuple):
        xmin, ymin, xmax, ymax = (float(v) for v in roi)
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("degenerate ROI rectangle")
        return lambda x, y: (xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)

    verts = [(float(x), float(y)) for x, y in roi]
    if len(verts) < 3:
        raise ValueError("ROI polygon needs at least 3 vertices")
    area2 = sum(
        verts[i][0] * verts[(i + 1) % len(verts)][1]
        - verts[(i + 1) % len(verts)][0] * verts[i][1]
        for i in range(len(verts))
    )
    if area2 == 0:
        raise ValueError("degenerate ROI polygon (zero area)")
    orient = 1.0 if area2 > 0 else -1.0

    def inside(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        keep = np.ones(np.shape(x), bool)
        for i in range(len(verts)):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % len(verts)]
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            keep &= ~(orient * cross < 0)
        return keep

    return inside


def postprocess_filter(
    seq: Sequence,
    roi: tuple[float, float, float, float] | list[tuple[float, float]] | None,
    conf_threshold: float,
) -> Sequence:
    """Keep detections whose (x, y) center lies inside the ROI (if any) and
    whose confidence clears the threshold; frame structure is preserved, and
    with no ROI and no positive threshold the input comes back unchanged."""
    if roi is None and conf_threshold <= 0:
        return seq
    t = seq.table
    keep = t.conf >= conf_threshold
    if roi is not None:
        keep &= _roi_contains(roi)(t.x, t.y)
    return Sequence.from_table(t.select(rows=keep), seq.native_fps, seq.scene_name)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassMetrics:
    hota: float
    deta: float
    assa: float
    loca: float
    avg_track_dur_seconds: float
    ap: float


@dataclass(frozen=True)
class MetricsReport:
    per_class: dict[int, ClassMetrics]
    class_average: ClassMetrics
    window_size: int
    f0: float
    first_frame: int
    last_frame: int
    alpha_grid: tuple[float, ...]
    dur_alpha: float
    similarity_mode: str
    primary_class: int
    notes: tuple[str, ...] = ()
    class_names: dict[int, str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "per_class": {
                str(c): asdict(m) for c, m in sorted(self.per_class.items())
            },
            "class_average": asdict(self.class_average),
            "window": {
                "size": self.window_size,
                "f0": self.f0,
                "first_frame": self.first_frame,
                "last_frame": self.last_frame,
            },
            "alpha_grid": list(self.alpha_grid),
            "dur_alpha": self.dur_alpha,
            "similarity_mode": self.similarity_mode,
            "primary_class": self.primary_class,
            "ap_interpolation": "101-point",
            "notes": list(self.notes),
            "class_names": {str(c): n for c, n in sorted(self.class_names.items())},
        }


def class_report(
    gt: Sequence,
    pred: Sequence,
    window: EvalWindow,
    spec: SimilaritySpec,
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID,
    dur_alpha: float = DEFAULT_DUR_ALPHA,
    primary_class: int = 0,
    class_names: dict[int, str] | None = None,
) -> MetricsReport:
    """Per-class and class-averaged metrics over the evaluation window.

    Classes are those present in the GT window; predictions of GT-absent
    classes are dropped with a warning. AvgTrackDur and AP are computed at the
    single gate dur_alpha; the HOTA family integrates over alpha_grid.
    """
    if not alpha_grid:
        raise ValueError("alpha_grid must be nonempty")
    win = np.asarray(window.frame_indices, dtype=np.int64)

    def classes(t: TrackTable) -> set[int]:
        # with return_counts, np.unique does not import numpy.ma (numpy 2.4)
        ids, _ = np.unique(t.class_id[_window_rows(t, win)[0]], return_counts=True)
        return set(ids.tolist())

    gt_classes = classes(gt.table)
    notes: list[str] = []
    orphan = sorted(classes(pred.table) - gt_classes)
    if orphan:
        logger.warning("dropping predicted classes absent from GT: %s", orphan)
        notes.append(f"dropped predicted classes absent from GT: {orphan}")

    alphas = tuple(alpha_grid)
    all_alphas = alphas if dur_alpha in alphas else alphas + (dur_alpha,)
    dur_index = all_alphas.index(dur_alpha)

    per_class: dict[int, ClassMetrics] = {}
    for c in sorted(gt_classes):
        data = _class_edges(gt.table, pred.table, win, spec, c)
        scores, (ids, positions) = _score_alphas(data, all_alphas, dur_index)
        h, d, a, l = np.array(scores[: len(alphas)]).mean(axis=0)
        per_class[c] = ClassMetrics(
            hota=float(h),
            deta=float(d),
            assa=float(a),
            loca=float(l),
            avg_track_dur_seconds=_run_seconds(ids, positions, window.f0),
            ap=_average_precision(data, dur_alpha),
        )

    if per_class:
        columns = zip(*map(astuple, per_class.values()))
        class_average = ClassMetrics(*(float(np.mean(col)) for col in columns))
    else:
        # empty GT window: empty-vs-empty convention (predictions of absent
        # classes were dropped above)
        class_average = ClassMetrics(1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        notes.append("empty GT window: rate metrics default to 1.0")

    return MetricsReport(
        per_class=per_class,
        class_average=class_average,
        window_size=len(window),
        f0=window.f0,
        first_frame=window.frame_indices[0],
        last_frame=window.frame_indices[-1],
        alpha_grid=alphas,
        dur_alpha=dur_alpha,
        similarity_mode=spec.mode,
        primary_class=primary_class,
        notes=tuple(notes),
        class_names=dict(class_names or {}),
    )


def report_to_json(report: MetricsReport) -> str:
    """Deterministic JSON rendering (sorted keys, raw float values)."""
    return json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"


def _pct(v: float) -> str:
    return f"{100.0 * v:.1f}"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Right-aligned columns under a dashed rule, two spaces apart."""
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    return lines + ["  ".join(c.rjust(widths[i]) for i, c in enumerate(r)) for r in rows]


def report_to_text(report: MetricsReport) -> str:
    """Aligned table: rate metrics in percent (1 decimal), durations in
    seconds (1 decimal)."""
    headers = ["Class", "HOTA", "DetA", "AssA", "LocA", "AP", "AvgTrackDur (s)"]
    named = [(report.class_names.get(c, str(c)), m) for c, m in sorted(report.per_class.items())]
    rows: list[list[str]] = []
    for name, m in named + [("Average", report.class_average)]:
        cells = [_pct(v) for v in (m.hota, m.deta, m.assa, m.loca, m.ap)]
        rows.append([name, *cells, f"{m.avg_track_dur_seconds:.1f}"])
    meta = (
        f"window: {report.window_size} frames "
        f"[{report.first_frame}..{report.last_frame}], f0={report.f0:g} fps, "
        f"dur_alpha={report.dur_alpha:g}, similarity={report.similarity_mode}"
    )
    return "\n".join(_table(headers, rows) + [meta]) + "\n"
