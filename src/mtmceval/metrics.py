"""HOTA, DetA, AssA, LocA, detection AP, AvgTrackDur and report assembly.

All metrics come from one pass per class over the evaluation window
(``_collect_class_frames``), reading column slices of the two sequences'
track tables. For every window frame where either side has rows it builds
the GT and prediction track-id arrays, each sorted by track id, and one
similarity matrix between them, and it records the AP rank key of every
prediction; a window frame empty on both sides holds nothing to match and is
skipped, keeping the window positions for run counting. Three consumers read
that pass and compute nothing twice:

- ``_score_alphas`` re-matches each frame at every gate alpha (gated
  Hungarian) and gives HOTA, DetA, AssA and LocA per alpha, plus the matched
  prediction ids;
- ``_run_seconds`` counts runs of matched prediction ids over window
  positions: AvgTrackDur;
- ``_average_precision`` ranks predictions and matches them greedily on the
  same matrices: AP.

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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .datamodel import EvalWindow, Sequence, TrackTable
from .matching import (
    FrameMatchSet,
    SimilaritySpec,
    match_arrays,
    similarity_matrix,
)

logger = logging.getLogger(__name__)

DEFAULT_ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
DEFAULT_DUR_ALPHA = 0.5

_EMPTY_IDS = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# the single per-class pass over the window
# ---------------------------------------------------------------------------


@dataclass
class _ClassFrames:
    """One class's window, on the window frames where either side has rows:
    per frame the GT ids, prediction ids (each sorted by track id) and the
    similarity matrix between them, and the frame's window position; the
    distinct ids of each side with their detection counts; the AP rank key
    of every prediction as (key, frame, column)."""

    frames: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    positions: np.ndarray
    gt_ids: np.ndarray
    gt_counts: np.ndarray
    pred_ids: np.ndarray
    pred_counts: np.ndarray
    ranked: list[tuple[tuple, int, int]]


def _window_rows(t: TrackTable, window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, window positions) of the table rows on window frames, frame by
    frame in window order, the rows of a frame in table order; only the
    frames in the window are touched."""
    by_index = np.argsort(t.frame_index, kind="stable")
    at = np.searchsorted(t.frame_index, window, sorter=by_index)
    found = at < by_index.size
    found[found] = t.frame_index[by_index[at[found]]] == window[found]
    frames = by_index[at[found]]
    starts, counts = t.offsets[frames], np.diff(t.offsets)[frames]
    # the row ranges of those frames, concatenated
    rows = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    return rows, np.repeat(np.flatnonzero(found), counts)


def _class_rows(
    t: TrackTable, window: np.ndarray, class_id: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, window positions) of one class's rows on window frames,
    ordered by (window position, track_id), ties in table order."""
    rows, pos = _window_rows(t, window)
    mine = t.class_id[rows] == class_id
    rows, pos = rows[mine], pos[mine]
    by_id = np.lexsort((t.track_id[rows], pos))
    return rows[by_id], pos[by_id]


def _collect_class_frames(
    gt: TrackTable,
    pred: TrackTable,
    window: EvalWindow,
    spec: SimilaritySpec,
    class_id: int,
) -> _ClassFrames:
    win = np.asarray(window.frame_indices, dtype=np.int64)
    g_rows, g_pos = _class_rows(gt, win, class_id)
    p_rows, p_pos = _class_rows(pred, win, class_id)
    missing = [
        (pos[t.track_id[rows] == -1].min(initial=win.size), kind)
        for t, rows, pos, kind in (
            (gt, g_rows, g_pos, "ground-truth"), (pred, p_rows, p_pos, "predicted")
        )
    ]
    first, kind = min(missing, key=lambda m: m[0])
    if first < win.size:
        raise ValueError(f"{kind} detection missing track_id")
    # only the window frames where either side has rows; the rest hold nothing
    positions = np.union1d(g_pos, p_pos)
    g_cut = np.append(np.searchsorted(g_pos, positions), g_pos.size)
    p_cut = np.append(np.searchsorted(p_pos, positions), p_pos.size)
    g_ids, p_ids = gt.track_id[g_rows], pred.track_id[p_rows]
    g_box = np.column_stack((gt.x[g_rows], gt.y[g_rows], gt.w[g_rows], gt.l[g_rows]))
    p_box = np.column_stack((pred.x[p_rows], pred.y[p_rows], pred.w[p_rows], pred.l[p_rows]))
    g, p = g_cut.tolist(), p_cut.tolist()
    frames = [
        (g_ids[a:b], p_ids[c:d], similarity_matrix(g_box[a:b], p_box[c:d], spec))
        for a, b, c, d in zip(g, g[1:], p, p[1:])
    ]
    # confidence first, then a canonical order-independent tie-break
    key = zip(
        (-pred.conf[p_rows]).tolist(),
        pred.frame[p_rows].tolist(),
        p_ids.tolist(),
        pred.x[p_rows].tolist(),
        pred.y[p_rows].tolist(),
        pred.z[p_rows].tolist(),
    )
    at = np.searchsorted(positions, p_pos)
    column = np.arange(p_rows.size) - p_cut[at]
    ranked = list(zip(key, at.tolist(), column.tolist()))
    gt_ids, gt_counts = np.unique(g_ids, return_counts=True)
    pred_ids, pred_counts = np.unique(p_ids, return_counts=True)
    return _ClassFrames(frames, positions, gt_ids, gt_counts, pred_ids, pred_counts, ranked)


def _score_alphas(
    data: _ClassFrames, alphas: tuple[float, ...], dur_index: int
) -> tuple[list[tuple[float, float, float, float]], list[np.ndarray]]:
    """Per-alpha (HOTA, DetA, AssA, LocA) plus the per-frame matched
    prediction ids at ``alphas[dur_index]`` (for run counting).

    AssA weights each (GT id, prediction id) pair by its TP count; pairs are
    counted on dense indices into each side's distinct ids, so any int64
    track id is safe.
    """
    total_gt = int(data.gt_counts.sum())
    total_pred = int(data.pred_counts.sum())
    n_pred = data.pred_ids.size
    scores = []
    matched: list[np.ndarray] = []
    # alpha by alpha, so that only one alpha's per-frame GT ids and
    # similarities are alive at a time
    for k, alpha in enumerate(alphas):
        mg, mp, ms = [], [], []
        for g_ids, p_ids, sim in data.frames:
            rows, cols = match_arrays(sim, alpha)
            mg.append(g_ids[rows])
            mp.append(p_ids[cols])
            ms.append(sim[rows, cols])
        if k == dur_index:
            matched = mp
        all_g = np.concatenate(mg)
        all_p = np.concatenate(mp)
        tp = int(all_g.size)
        if tp == 0:
            # the class has GT in the window, so nothing matched scores 0
            scores.append((0.0, 0.0, 0.0, 0.0))
            continue
        deta = tp / (total_gt + total_pred - tp)
        gi = np.searchsorted(data.gt_ids, all_g)
        pi = np.searchsorted(data.pred_ids, all_p)
        pairs, counts = np.unique(gi * n_pred + pi, return_counts=True)
        gt_n = data.gt_counts[pairs // n_pred]
        pred_n = data.pred_counts[pairs % n_pred]
        a_c = counts / (gt_n + pred_n - counts)
        assa = float((counts * a_c).sum() / tp)
        loca = float(np.concatenate(ms).mean())
        scores.append((math.sqrt(deta * assa), deta, assa, loca))
    return scores, matched


def _run_seconds(
    matched_pred_ids: list[np.ndarray], positions: np.ndarray, f0: float
) -> float:
    """AvgTrackDur from the matched prediction ids of the window frames at
    the given window positions: a run is a maximal span of consecutive
    window positions where one id is matched; the result is the sum of run
    lengths / (#runs * f0), 0 with no runs."""
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    ids = np.concatenate([_EMPTY_IDS, *matched_pred_ids])
    if ids.size == 0:
        return 0.0
    pos = np.repeat(positions, [a.size for a in matched_pred_ids])
    distinct, dense = np.unique(ids, return_inverse=True)
    keys = np.unique(pos * distinct.size + dense)
    # a (position, id) starts a run unless the id was matched one position back
    n_runs = int(np.count_nonzero(~np.isin(keys - distinct.size, keys)))
    return keys.size / (n_runs * f0)


def _average_precision(data: _ClassFrames, alpha: float) -> float:
    """101-point interpolated AP at gate alpha.

    Predictions are ranked by descending confidence and matched greedily per
    frame, each GT box consumed at most once. A prediction takes the
    available GT of highest similarity; on an exact tie, the GT with the
    lower track id.
    """
    npos = int(data.gt_counts.sum())
    if npos == 0:
        return 1.0 if not data.ranked else 0.0
    if not data.ranked:
        return 0.0
    ranked = sorted(data.ranked)
    available = [np.ones(g.size, dtype=bool) for g, _, _ in data.frames]
    tps = np.zeros(len(ranked))
    for rank, (_, t, j) in enumerate(ranked):
        col = data.frames[t][2][:, j]
        cand = np.flatnonzero(available[t] & (col >= alpha) & (col > 0.0))
        if cand.size:
            available[t][cand[np.argmax(col[cand])]] = False
            tps[rank] = 1.0
    cum_tp = np.cumsum(tps)
    precision = cum_tp / np.arange(1, len(ranked) + 1)
    recall = cum_tp / npos
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r - 1e-12
        ap += float(precision[mask].max()) if mask.any() else 0.0
    return ap / 101.0


# ---------------------------------------------------------------------------
# public adapters over the cores
# ---------------------------------------------------------------------------


def avg_track_dur(matches: list[FrameMatchSet], f0: float) -> float:
    """Mean run duration in seconds: sum of run lengths / (#runs * f0).

    Returns 0 when no tracker id is ever matched.
    """
    return _run_seconds(
        [np.array([p for _, p, _ in m.pairs], dtype=np.int64) for m in matches],
        np.arange(len(matches)),
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
    data = _collect_class_frames(gt.table, pred.table, window, spec, class_id)
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

    def as_dict(self) -> dict[str, float]:
        return {
            "hota": self.hota,
            "deta": self.deta,
            "assa": self.assa,
            "loca": self.loca,
            "avg_track_dur_seconds": self.avg_track_dur_seconds,
            "ap": self.ap,
        }


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
                str(c): m.as_dict() for c, m in sorted(self.per_class.items())
            },
            "class_average": self.class_average.as_dict(),
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
        return set(np.unique(t.class_id[_window_rows(t, win)[0]]).tolist())

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
        data = _collect_class_frames(gt.table, pred.table, window, spec, c)
        scores, matched_pred_ids = _score_alphas(data, all_alphas, dur_index)
        h, d, a, l = np.array(scores[: len(alphas)]).mean(axis=0)
        per_class[c] = ClassMetrics(
            hota=float(h),
            deta=float(d),
            assa=float(a),
            loca=float(l),
            avg_track_dur_seconds=_run_seconds(matched_pred_ids, data.positions, window.f0),
            ap=_average_precision(data, dur_alpha),
        )

    if per_class:
        vals = list(per_class.values())
        class_average = ClassMetrics(
            hota=float(np.mean([v.hota for v in vals])),
            deta=float(np.mean([v.deta for v in vals])),
            assa=float(np.mean([v.assa for v in vals])),
            loca=float(np.mean([v.loca for v in vals])),
            avg_track_dur_seconds=float(
                np.mean([v.avg_track_dur_seconds for v in vals])
            ),
            ap=float(np.mean([v.ap for v in vals])),
        )
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
