"""HOTA, DetA, AssA, LocA, detection AP, AvgTrackDur and report assembly.

All metrics come from one pass per class over the evaluation window
(``_collect_class_frames``). For every window frame it builds the GT and
prediction track-id arrays, each sorted by track id, and one similarity
matrix between them, and it records the AP rank key of every prediction.
Three consumers read that pass and compute nothing twice:

- ``_score_alphas`` re-matches each frame at every gate alpha (gated
  Hungarian) and gives HOTA, DetA, AssA and LocA per alpha, plus the matched
  prediction ids;
- ``_run_seconds`` counts runs of matched prediction ids: AvgTrackDur;
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

from .datamodel import Detection, EvalWindow, Sequence
from .datamodel import make_sequence
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
    """One class's window: per frame the GT ids, prediction ids (each sorted
    by track id) and the similarity matrix between them; the distinct ids of
    each side with their detection counts; the AP rank key of every
    prediction as (key, frame position, column)."""

    frames: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    gt_ids: np.ndarray
    gt_counts: np.ndarray
    pred_ids: np.ndarray
    pred_counts: np.ndarray
    ranked: list[tuple[tuple, int, int]]


def _class_dets(
    dets: tuple[Detection, ...], class_id: int, kind: str
) -> list[Detection]:
    out = [d for d in dets if d.class_id == class_id]
    for d in out:
        if d.track_id is None:
            raise ValueError(f"{kind} detection missing track_id")
    out.sort(key=lambda d: d.track_id)
    return out


def _collect_class_frames(
    gt_by_frame: dict[int, tuple[Detection, ...]],
    pred_by_frame: dict[int, tuple[Detection, ...]],
    window: EvalWindow,
    spec: SimilaritySpec,
    class_id: int,
) -> _ClassFrames:
    frames = []
    ranked: list[tuple[tuple, int, int]] = []
    for t, fi in enumerate(window.frame_indices):
        g = _class_dets(gt_by_frame.get(fi, ()), class_id, "ground-truth")
        p = _class_dets(pred_by_frame.get(fi, ()), class_id, "predicted")
        g_ids = np.array([d.track_id for d in g], dtype=np.int64)
        p_ids = np.array([d.track_id for d in p], dtype=np.int64)
        frames.append((g_ids, p_ids, similarity_matrix(g, p, spec)))
        # confidence first, then a canonical order-independent tie-break
        ranked += [
            ((-d.confidence, fi, d.track_id, d.box.x, d.box.y, d.box.z), t, j)
            for j, d in enumerate(p)
        ]
    gt_ids, gt_counts = np.unique(
        np.concatenate([f[0] for f in frames]), return_counts=True
    )
    pred_ids, pred_counts = np.unique(
        np.concatenate([f[1] for f in frames]), return_counts=True
    )
    return _ClassFrames(frames, gt_ids, gt_counts, pred_ids, pred_counts, ranked)


def _score_alphas(
    data: _ClassFrames, alphas: tuple[float, ...]
) -> tuple[list[tuple[float, float, float, float]], list[list[np.ndarray]]]:
    """Per-alpha (HOTA, DetA, AssA, LocA) plus per-alpha per-frame matched
    prediction ids (for run counting).

    AssA weights each (GT id, prediction id) pair by its TP count; pairs are
    counted on dense indices into each side's distinct ids, so any int64
    track id is safe.
    """
    n_a = len(alphas)
    mg: list[list[np.ndarray]] = [[] for _ in range(n_a)]
    mp: list[list[np.ndarray]] = [[] for _ in range(n_a)]
    ms: list[list[np.ndarray]] = [[] for _ in range(n_a)]
    for g_ids, p_ids, sim in data.frames:
        for ai, alpha in enumerate(alphas):
            rows, cols = match_arrays(sim, alpha)
            mg[ai].append(g_ids[rows])
            mp[ai].append(p_ids[cols])
            ms[ai].append(sim[rows, cols])
    total_gt = int(data.gt_counts.sum())
    total_pred = int(data.pred_counts.sum())
    n_pred = data.pred_ids.size
    scores = []
    for ai in range(n_a):
        all_g = np.concatenate(mg[ai])
        all_p = np.concatenate(mp[ai])
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
        loca = float(np.concatenate(ms[ai]).mean())
        scores.append((math.sqrt(deta * assa), deta, assa, loca))
    return scores, mp


def _run_seconds(matched_pred_ids: list[np.ndarray], f0: float) -> float:
    """AvgTrackDur from each window frame's matched prediction ids: a run is
    a maximal span of consecutive window positions where one id is matched;
    the result is the sum of run lengths / (#runs * f0), 0 with no runs."""
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    ids = np.concatenate([_EMPTY_IDS, *matched_pred_ids])
    if ids.size == 0:
        return 0.0
    pos = np.repeat(np.arange(len(matched_pred_ids)), [a.size for a in matched_pred_ids])
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
        [np.array([p for _, p, _ in m.pairs], dtype=np.int64) for m in matches], f0
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
    data = _collect_class_frames(gt.as_dict(), pred.as_dict(), window, spec, class_id)
    return _average_precision(data, alpha)


def _roi_contains(
    roi: tuple[float, float, float, float] | list[tuple[float, float]],
) -> Callable[[float, float], bool]:
    """The point-in-ROI test for an axis-aligned (xmin, ymin, xmax, ymax)
    rectangle or a convex polygon given as a vertex list; a malformed or
    degenerate ROI raises ValueError or TypeError."""
    if isinstance(roi, tuple) and len(roi) == 4 and not isinstance(roi[0], tuple):
        xmin, ymin, xmax, ymax = (float(v) for v in roi)
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("degenerate ROI rectangle")
        return lambda x, y: xmin <= x <= xmax and ymin <= y <= ymax

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

    def inside(x: float, y: float) -> bool:
        for i in range(len(verts)):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % len(verts)]
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if orient * cross < 0:
                return False
        return True

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
    inside = _roi_contains(roi) if roi is not None else lambda x, y: True
    frames = [
        (
            fi,
            [
                d
                for d in dets
                if d.confidence >= conf_threshold and inside(d.box.x, d.box.y)
            ],
        )
        for fi, dets in seq.frames
    ]
    return make_sequence(frames, native_fps=seq.native_fps, scene_name=seq.scene_name)


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
    gt_by_frame = gt.as_dict()
    pred_by_frame = pred.as_dict()

    def classes(by_frame: dict[int, tuple[Detection, ...]]) -> set[int]:
        return {d.class_id for fi in window.frame_indices for d in by_frame.get(fi, ())}

    gt_classes = classes(gt_by_frame)
    notes: list[str] = []
    orphan = sorted(classes(pred_by_frame) - gt_classes)
    if orphan:
        logger.warning("dropping predicted classes absent from GT: %s", orphan)
        notes.append(f"dropped predicted classes absent from GT: {orphan}")

    alphas = tuple(alpha_grid)
    all_alphas = alphas if dur_alpha in alphas else alphas + (dur_alpha,)
    dur_index = all_alphas.index(dur_alpha)

    per_class: dict[int, ClassMetrics] = {}
    for c in sorted(gt_classes):
        data = _collect_class_frames(gt_by_frame, pred_by_frame, window, spec, c)
        scores, matched_pred_ids = _score_alphas(data, all_alphas)
        h, d, a, l = np.array(scores[: len(alphas)]).mean(axis=0)
        per_class[c] = ClassMetrics(
            hota=float(h),
            deta=float(d),
            assa=float(a),
            loca=float(l),
            avg_track_dur_seconds=_run_seconds(matched_pred_ids[dur_index], window.f0),
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
