"""HOTA, DetA, AssA, LocA, detection AP, AvgTrackDur and report assembly.

All metrics come from one pass per class over the evaluation window
(``_class_edges``), reading column slices of the two sequences' track tables.
``class_report`` looks up each table in the window once (``_on_window``):
each table frame is looked up in the window's frame array, so the cost
follows the rows, not the window's span, and the rows on window frames are
taken in ``TrackTable.order``. As the window is sorted, that is (window
position, class_id, track_id) order, so each class's rows need no sort of
their own, and a repeated identity is read from the table's duplicate mask
``TrackTable.repeat``. A table built in memory computes that order on its
first report and keeps it; a parsed table holds it already. The pass builds
one edge list (``matching.EdgeList``): every (GT row, prediction row) pair
of one frame with nonzero similarity, never as per-frame matrices.
Only the pairs within reach of each other along both x and y are scored
(sweep and prune on both axes; the reach along y is d_max under
center_distance, half the GT row's length plus half the longest
prediction's under bev_iou), in blocks of GT rows. A window frame empty on
either side holds no edge, and one empty on both sides costs nothing. It
also ranks the predictions for AP by descending confidence, ties in row
order: the rows are already in (frame, track id) order, which is unique
within a class, so one sort on confidence, with each run of equal
confidences put back in row order, gives the rank. Three consumers read
that pass and compute nothing twice:

- ``_score_alphas`` matches the edges over the whole alpha grid in one
  ``match_edges`` pass, which returns a mask over the edges per alpha, and
  gives HOTA, DetA, AssA and LocA per alpha, plus the matched pairs at
  ``dur_alpha``. In a frame where no row has two gated partners every gated
  pair is forced; these are taken for the whole window at once. A
  conflicted frame keeps the pairs of the alpha before while all of them
  still clear the gate and it has no more gated edges than there: its gated
  edges are then a subset of those there, so that matching stays optimal
  (on an exact tie, the lower alpha's choice holds). Otherwise it is solved
  on its whole gated matrix, scattered from its edges. The (GT id,
  prediction id) pair of each edge matched at some alpha is numbered once,
  and each alpha's matched edges are taken as one index, so an alpha's AssA
  counts are one bincount over them;
- ``_run_seconds`` counts runs of matched prediction ids over window
  positions from one sort of (dense id, position) keys: AvgTrackDur;
- ``_average_precision`` matches predictions greedily in rank order, level
  by level: level k holds every frame's k-th ranked prediction, and frames
  share no GT, so a whole level is matched at once: AP. One stable sort of
  the gated edges on their prediction's level (a radix sort on small
  unsigned keys) puts each level's edges together, grouped by prediction
  with GT rows ascending, so a maximum per prediction finds its best
  available GT.

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

from .datamodel import EvalWindow, Sequence, TrackTable, _runs, check_finite
from .matching import (
    EdgeList,
    FrameMatchSet,
    SimilaritySpec,
    edge_list,
    match_edges,
)

logger = logging.getLogger(__name__)

DEFAULT_ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
DEFAULT_DUR_ALPHA = 0.5
# (table, rows on window frames in TrackTable.order, the window position of
# each entry of the table's frame_index)
_View = tuple[TrackTable, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# the single per-class pass over the window
# ---------------------------------------------------------------------------


@dataclass
class _ClassEdges:
    """One class's window. GT and prediction rows are the class's rows on
    window frames, each side ordered by (window position, track id): the
    edge list between them (row frames are window positions), each row's
    index into the side's distinct track ids, the detection count of each
    distinct id, and the prediction rows in AP rank order."""

    edges: EdgeList
    g_dense: np.ndarray
    p_dense: np.ndarray
    gt_counts: np.ndarray
    pred_counts: np.ndarray
    ranked: np.ndarray


def _on_window(t: TrackTable, window: np.ndarray) -> _View:
    """(table, rows, window positions): the table rows on window frames in
    ``TrackTable.order``, which is (window position, class_id, track_id)
    order because the window is sorted, and the window position of each
    frame entry (meaningless for an entry off the window). Each table frame,
    a repeated one too, is looked up in the window, so the cost follows the
    table, not the window's span."""
    at = np.searchsorted(window, t.frame_index)
    found = window[np.minimum(at, window.size - 1)] == t.frame_index
    return t, t.order[np.flatnonzero(found[t.owner[t.order]])], at


def _class_edges(gt: _View, pred: _View, spec: SimilaritySpec, class_id: int) -> _ClassEdges:
    """The class's window from the two sides' ``_on_window`` views. A track
    id twice in one frame (``TrackTable.repeat``) raises ValueError, GT
    first; so does a row without a track id, the one at the earlier window
    position, GT on a tie."""
    sides, missing = [], []
    for (t, rows, at), kind in ((gt, "ground-truth"), (pred, "predicted")):
        rows = rows[np.flatnonzero(t.class_id[rows] == class_id)]
        pos = at[t.owner[rows]]
        twice = rows[t.repeat[rows]].tolist()
        if twice:
            raise ValueError(
                f"{kind} track_id {t.track_id[twice[0]]} appears twice in frame "
                f"{t.frame[twice[0]]} of class {class_id}"
            )
        # rows run in window position order: the first without an id is the earliest
        none = np.flatnonzero(t.track_id[rows] == -1)[:1].tolist()
        missing += [(pos[i], kind, t.frame[rows[i]]) for i in none]
        sides.append((t, rows, pos))
    if missing:
        _, kind, frame = min(missing, key=lambda m: m[0])
        raise ValueError(f"{kind} detection missing track_id in frame {frame} of class {class_id}")
    (gt, g_rows, g_pos), (pred, p_rows, p_pos) = sides

    def boxes(t: TrackTable, rows: np.ndarray) -> np.ndarray:
        return np.column_stack((t.x[rows], t.y[rows], t.w[rows], t.l[rows]))

    edges = edge_list(boxes(gt, g_rows), boxes(pred, p_rows), g_pos, p_pos, spec)
    # confidence first, ties in row order, which is (frame, track id) order
    # and unique: each run of equal confidences is put back in row order
    key = -pred.conf[p_rows]
    ranked = np.argsort(key)
    first, size = _runs(key[ranked])
    tied = np.flatnonzero(np.repeat(size > 1, size))
    ranked[tied] = np.sort(np.repeat(first, size)[tied] * key.size + ranked[tied]) % key.size
    (_, g_dense, gt_counts), (_, p_dense, pred_counts) = (
        np.unique(t.track_id[rows], return_inverse=True, return_counts=True) for t, rows, _ in sides
    )
    return _ClassEdges(edges, g_dense, p_dense, gt_counts, pred_counts, ranked)


def _score_alphas(
    data: _ClassEdges, alphas: tuple[float, ...], dur_index: int
) -> tuple[list[tuple[float, float, float, float]], tuple[np.ndarray, np.ndarray]]:
    """Per-alpha (HOTA, DetA, AssA, LocA) plus the dense ids of the matched
    predictions at ``alphas[dur_index]`` and their window positions (for run
    counting).

    AssA weights each (GT id, prediction id) pair by its TP count; the pair
    of each edge matched at some alpha is numbered once, on dense indices
    into each side's distinct ids, so any int64 track id is safe, and
    counted per alpha by bincount. LocA sums the matched similarities in GT
    row order.
    """
    e = data.edges
    total_gt = data.g_dense.size
    total_pred = data.p_dense.size
    n_pred = data.pred_counts.size
    masks = match_edges(e, alphas)
    ever = np.zeros(e.sim.size, bool)
    for mask in masks:
        ever |= mask
    ever = np.flatnonzero(ever)
    keys, inverse = np.unique(
        data.g_dense[e.gt[ever]] * n_pred + data.p_dense[e.pred[ever]], return_inverse=True
    )
    pair = np.empty(e.sim.size, np.intp)  # read only at matched edges
    pair[ever] = inverse
    gt_n = data.gt_counts[keys // n_pred]
    pred_n = data.pred_counts[keys % n_pred]
    scores = []
    for k, mask in enumerate(masks):
        at = np.flatnonzero(mask)
        if k == dur_index:
            matched = (data.p_dense[e.pred[at]], e.gt_frame[e.gt[at]])
        tp = at.size
        if tp == 0:
            # the class has GT in the window, so nothing matched scores 0
            scores.append((0.0, 0.0, 0.0, 0.0))
            continue
        deta = tp / (total_gt + total_pred - tp)
        counts = np.bincount(pair[at], minlength=keys.size)
        seen = np.flatnonzero(counts)
        counts = counts[seen]
        a_c = counts / (gt_n[seen] + pred_n[seen] - counts)
        assa = float((counts * a_c).sum() / tp)
        loca = float(e.sim[at].mean())
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
    rank order ``ranked``, in the smallest unsigned dtype; ``frame`` labels
    the rows and is nondecreasing. One stable sort of the ranked rows on
    their frame's rank, a radix sort below 2**16 frames, orders them by
    (frame, rank)."""
    first, size = _runs(frame)
    dense = np.repeat(np.arange(first.size, dtype=np.min_scalar_type(first.size)), size)
    by_frame = ranked[np.argsort(dense[ranked], kind="stable")]
    level = np.empty(ranked.size, dtype=np.min_scalar_type(size.max(initial=0)))
    level[by_frame] = np.arange(ranked.size) - np.repeat(first, size)[by_frame]
    return level


def _ap_hits(data: _ClassEdges, alpha: float) -> np.ndarray:
    """The AP greedy pass at gate alpha: which prediction rows take a GT.

    Each prediction, in rank order per frame, takes the available gated GT
    of highest similarity, on an exact tie the lower GT row. Level k is
    every frame's k-th ranked prediction; frames share no GT, so each level
    is matched at once. A stable sort of the gated edges on their
    prediction's level keeps them in frame order, so each level's edges come
    grouped by prediction (one per frame), GT rows ascending.
    """
    e = data.edges
    level = _levels(e.pred_frame, data.ranked)
    keep = np.flatnonzero(e.sim >= alpha)
    g, p, sim = e.gt[keep], e.pred[keep], e.sim[keep]
    lv = level[p]
    order = np.argsort(lv, kind="stable")
    g, p, sim = g[order], p[order], sim[order]
    available = np.ones(data.g_dense.size, dtype=bool)
    hit = np.zeros(data.ranked.size, dtype=bool)
    starts, sizes = _runs(lv[order])
    for a, b in zip(starts.tolist(), (starts + sizes).tolist()):
        free = a + np.flatnonzero(available[g[a:b]])
        if free.size == 0:
            continue
        first, size = _runs(p[free])
        s = sim[free]
        top = np.flatnonzero(s == np.repeat(np.maximum.reduceat(s, first), size))
        best = free[top[np.searchsorted(top, first)]]
        available[g[best]] = False
        hit[p[best]] = True
    return hit


def _average_precision(data: _ClassEdges, alpha: float) -> float:
    """101-point interpolated AP at gate alpha.

    Predictions are ranked by descending confidence and matched greedily per
    frame (``_ap_hits``), each GT box consumed at most once. A prediction
    takes the available GT of highest similarity; on an exact tie, the GT
    with the lower track id.
    """
    npos = data.g_dense.size
    n = data.ranked.size
    if npos == 0:
        return 1.0 if n == 0 else 0.0
    hit = _ap_hits(data, alpha)
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
    data = _class_edges(
        _on_window(gt.table, window.frames), _on_window(pred.table, window.frames), spec, class_id
    )
    return _average_precision(data, alpha)


def _roi_contains(
    roi: tuple[float, float, float, float] | list[tuple[float, float]],
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The point-in-ROI test on coordinate columns for an axis-aligned
    (xmin, ymin, xmax, ymax) rectangle or a convex polygon given as a vertex
    list; a malformed, degenerate, concave or self-crossing ROI, or a
    coordinate that is not a finite number, raises ValueError or TypeError.

    The polygon test intersects the half-planes of its edges, which is the
    polygon only when it is convex: its turns never change sign and add up
    to one full turn (a pentagram's turns add up to two)."""
    rect = isinstance(roi, tuple) and len(roi) == 4 and not isinstance(roi[0], tuple)
    coords = list(roi) if rect else [c for x, y in roi for c in (x, y)]
    for c in coords:
        check_finite("ROI coordinate", c)
    if rect:
        xmin, ymin, xmax, ymax = map(float, coords)
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
    turns = []
    for (ax, ay), (bx, by), (cx, cy) in zip(verts[-1:] + verts[:-1], verts, verts[1:] + verts[:1]):
        ux, uy, vx, vy = bx - ax, by - ay, cx - bx, cy - by
        turns.append(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy))
    # a turn within float error of straight is a collinear vertex
    concave = min(turns) < -1e-9 and max(turns) > 1e-9
    if concave or round(abs(sum(turns)) / math.tau) != 1:
        raise ValueError("ROI polygon must be convex and must not cross itself")
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


def _check_alpha_grid(alpha_grid: tuple[float, ...]) -> None:
    """Raise ValueError unless the grid is nonempty and lists no alpha twice."""
    if not alpha_grid:
        raise ValueError("alpha_grid must be nonempty")
    twice = [alpha for k, alpha in enumerate(alpha_grid) if alpha in alpha_grid[:k]]
    if twice:
        raise ValueError(f"alpha {twice[0]:g} is listed twice in alpha_grid")


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
    _check_alpha_grid(alpha_grid)
    views = [_on_window(s.table, window.frames) for s in (gt, pred)]
    # with return_counts, np.unique does not import numpy.ma (numpy 2.4)
    gt_classes, pred_classes = (
        set(np.unique(t.class_id[rows], return_counts=True)[0].tolist()) for t, rows, _ in views
    )
    notes: list[str] = []
    orphan = sorted(pred_classes - gt_classes)
    if orphan:
        logger.warning("dropping predicted classes absent from GT: %s", orphan)
        notes.append(f"dropped predicted classes absent from GT: {orphan}")

    alphas = tuple(alpha_grid)
    all_alphas = alphas if dur_alpha in alphas else alphas + (dur_alpha,)
    dur_index = all_alphas.index(dur_alpha)

    per_class: dict[int, ClassMetrics] = {}
    for c in sorted(gt_classes):
        data = _class_edges(*views, spec, c)
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
        first_frame=int(window.frames[0]),
        last_frame=int(window.frames[-1]),
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
