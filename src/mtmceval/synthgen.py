"""Synthetic scenes, controllable degradation, and an independent
brute-force metrics oracle.

Randomness comes from numpy's seeded PCG64 generators with a documented
stream-splitting scheme: every substream is seeded with a key sequence
[seed, tag, index] where tag 0 = scene objects (index = track id), tag 1 =
degradation per object (index = class_id * 2**20 + track id), tag 2 = false
positives (single stream). Identical inputs and seed therefore give
bit-identical outputs regardless of object count or iteration order.

gen_scene and degrade read and write TrackTable columns; they build no
Detection or Box3D. The oracle reads the per-row view, Sequence.frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import (
    Box3D,
    Detection,
    EvalWindow,
    Sequence,
    TrackTable,
    check_finite,
    check_int,
    check_real,
    make_sequence,
    normalize_yaws,
)
from .matching import SimilaritySpec
from .metrics import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_DUR_ALPHA,
    ClassMetrics,
    MetricsReport,
)

_OBJ_TAG = 0
_DEGRADE_TAG = 1
_FP_TAG = 2
_CLASS_STRIDE = 2**20

PERSON_DIMS = (0.6, 0.6, 1.8)  # width, length, height in meters


@dataclass(frozen=True)
class DegradeSpec:
    """How to corrupt a GT sequence into a plausible tracker output."""

    drop_prob: float = 0.0
    loc_noise_sigma: float = 0.0
    id_switch_prob: float = 0.0
    fp_rate: float = 0.0
    seed: int = 0
    fp_bounds: tuple[float, float, float, float] | None = None
    fp_class_id: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_prob", "id_switch_prob"):
            check_real(name, getattr(self, name), 1.0, zero=True)
        check_real("loc_noise_sigma", self.loc_noise_sigma, zero=True)
        check_real("fp_rate", self.fp_rate, zero=True)
        check_int("seed", self.seed)
        if self.fp_bounds is not None:
            _check_bounds("fp_bounds", self.fp_bounds)
            object.__setattr__(self, "fp_bounds", tuple(self.fp_bounds))
        elif self.fp_rate > 0:
            raise ValueError("fp_bounds required when fp_rate > 0")
        check_int("fp_class_id", self.fp_class_id)


def _check_bounds(name: str, bounds: tuple[float, float, float, float]) -> None:
    """Raise ValueError naming the bounds unless they are four finite
    numbers (xmin, ymin, xmax, ymax) enclosing a positive area."""
    if not isinstance(bounds, (tuple, list)) or len(bounds) != 4:
        raise ValueError(f"{name} must be (xmin, ymin, xmax, ymax), got {bounds!r}")
    for v in bounds:
        check_finite(f"{name} entry", v)
    if not (bounds[0] < bounds[2] and bounds[1] < bounds[3]):
        raise ValueError(f"{name} must enclose a positive area, got {bounds!r}")


def gen_scene(
    n_objects: int,
    duration_s: float,
    fps: float,
    bounds: tuple[float, float, float, float],
    motion: str = "constant_velocity",
    seed: int = 0,
    class_id: int = 0,
    speed_range: tuple[float, float] = (0.5, 1.5),
    scene_name: str = "synthetic",
) -> Sequence:
    """Deterministic ground-truth scene with stable identities.

    Objects bounce off the arena walls (reflective bounds); motion is one of
    static, constant_velocity, waypoint. duration_s * fps must be integral.
    """
    check_int("n_objects", n_objects)
    check_real("duration_s", duration_s)
    check_real("fps", fps)
    _check_bounds("bounds", bounds)
    check_int("seed", seed)
    check_int("class_id", class_id)
    for speed in speed_range:
        check_real("speed_range entry", speed, zero=True)
    xmin, ymin, xmax, ymax = bounds
    if motion not in ("static", "constant_velocity", "waypoint"):
        raise ValueError(f"unknown motion model {motion!r}")
    n_frames_f = duration_s * fps
    n_frames = round(n_frames_f)
    if abs(n_frames_f - n_frames) > 1e-9 or n_frames < 1:
        raise ValueError("duration_s * fps must be a positive integer")

    w, l, h = PERSON_DIMS
    dt = 1.0 / fps
    # (x, y, yaw) of each object in each frame
    pose = np.empty((n_objects, n_frames, 3))
    for obj in range(n_objects):
        rng = np.random.default_rng([seed, _OBJ_TAG, obj])
        x = float(rng.uniform(xmin, xmax))
        y = float(rng.uniform(ymin, ymax))
        if motion == "static":
            pose[obj] = (x, y, 0.0)
            continue
        speed = float(rng.uniform(speed_range[0], speed_range[1]))
        heading = float(rng.uniform(-math.pi, math.pi))
        vx = speed * math.cos(heading)
        vy = speed * math.sin(heading)
        if motion == "waypoint":
            wx = float(rng.uniform(xmin, xmax))
            wy = float(rng.uniform(ymin, ymax))
        positions: list[tuple[float, float, float]] = []
        for _ in range(n_frames):
            if motion == "waypoint":
                dx, dy = wx - x, wy - y
                dist = math.hypot(dx, dy)
                if dist < speed * dt:
                    wx = float(rng.uniform(xmin, xmax))
                    wy = float(rng.uniform(ymin, ymax))
                    dx, dy = wx - x, wy - y
                    dist = math.hypot(dx, dy)
                if dist > 0:
                    vx = speed * dx / dist
                    vy = speed * dy / dist
            positions.append((x, y, math.atan2(vy, vx)))
            x += vx * dt
            y += vy * dt
            # reflective walls
            if x < xmin:
                x = 2 * xmin - x
                vx = -vx
            elif x > xmax:
                x = 2 * xmax - x
                vx = -vx
            if y < ymin:
                y = 2 * ymin - y
                vy = -vy
            elif y > ymax:
                y = 2 * ymax - y
                vy = -vy
        pose[obj] = positions

    # rows frame by frame, objects by ascending track id within a frame
    n = n_objects * n_frames
    x, y, yaw = pose.transpose(1, 0, 2).reshape(n, 3).T
    table = TrackTable(
        np.arange(n_frames, dtype=np.int64), np.arange(n_frames + 1, dtype=np.int64) * n_objects,
        np.tile(np.arange(n_objects, dtype=np.int64), n_frames),
        np.full(n, class_id, dtype=np.int64), x.copy(), y.copy(), np.full(n, h / 2),
        np.full(n, w), np.full(n, l), np.full(n, h), normalize_yaws(yaw), np.ones(n),
    )
    return Sequence.from_table(table, float(fps), scene_name)


def merge_sequences(seqs: list[Sequence]) -> Sequence:
    """Union of detections frame by frame; sequences must agree on fps."""
    if not seqs:
        raise ValueError("need at least one sequence")
    fps = seqs[0].native_fps
    if any(s.native_fps != fps for s in seqs):
        raise ValueError("sequences disagree on native_fps")
    frames: dict[int, list[Detection]] = {}
    for s in seqs:
        for fi, dets in s.frames:
            frames.setdefault(fi, []).extend(dets)
    return make_sequence(frames, native_fps=fps, scene_name=seqs[0].scene_name)


def degrade(gt: Sequence, spec: DegradeSpec) -> Sequence:
    """Corrupt GT into a tracker output: drops, center jitter, identity
    switches, and uniformly placed false positives.

    Emitted identities are always fresh relabels of the GT identities (a
    retired id is never reused), so run counting stays unambiguous. Frame
    indices and native_fps are preserved; a frame may end up empty.
    """
    t = gt.table
    if (t.track_id == -1).any():
        raise ValueError("degrade requires GT track_ids")
    # frames in stored order, each frame's rows by (class_id, track_id)
    order = np.lexsort((t.track_id, t.class_id, t.owner)).tolist()
    keys = list(zip(t.class_id.tolist(), t.track_id.tolist()))
    next_id = int(t.track_id.max(initial=-1)) + 1
    current: dict[tuple[int, int], int] = {}
    rngs: dict[tuple[int, int], np.random.Generator] = {}
    fp_rng = np.random.default_rng([spec.seed, _FP_TAG])

    # per output row: its GT row (-1 for a false positive), its track id, and
    # the x, y noise of a GT row or the x, y, confidence of a false positive
    rows: list[int] = []
    ids: list[int] = []
    draws: list[tuple[float, float, float]] = []
    ends = [0]
    bounds = t.offsets.tolist()
    for a, b in zip(bounds, bounds[1:]):
        for i in order[a:b]:
            key = keys[i]
            if key not in rngs:
                rngs[key] = np.random.default_rng(
                    [spec.seed, _DEGRADE_TAG, key[0] * _CLASS_STRIDE + key[1]]
                )
            rng = rngs[key]
            # fixed draw layout per appearance keeps substreams aligned
            u_drop = float(rng.random())
            n1, n2 = rng.normal(size=2)
            u_switch = float(rng.random())
            if u_drop < spec.drop_prob:
                continue
            if key not in current or u_switch < spec.id_switch_prob:
                current[key] = next_id
                next_id += 1
            rows.append(i)
            ids.append(current[key])
            draws.append((n1, n2, math.nan))
        if spec.fp_rate > 0:
            xmin, ymin, xmax, ymax = spec.fp_bounds  # type: ignore[misc]
            for _ in range(int(fp_rng.poisson(spec.fp_rate))):
                fx = float(fp_rng.uniform(xmin, xmax))
                fy = float(fp_rng.uniform(ymin, ymax))
                draws.append((fx, fy, float(fp_rng.uniform(0.05, 0.95))))
                rows.append(-1)
                ids.append(next_id)
                next_id += 1
        ends.append(len(rows))

    src = np.array(rows, dtype=np.int64)
    fp = src == -1
    d1, d2, fp_conf = np.array(draws, dtype=float).reshape(src.size, 3).T
    offsets = np.array(ends, dtype=np.int64)
    w, l, h = PERSON_DIMS

    def column(name: str, fp_value: float) -> np.ndarray:
        # row -1 reads the false-positive value appended at the end
        col = getattr(t, name)
        return np.append(col, np.array(fp_value, col.dtype))[src]

    # yaw is normalised again, as each output Box3D did; that can move its last bit
    table = TrackTable(
        t.frame_index, offsets,
        np.array(ids, dtype=np.int64), column("class_id", spec.fp_class_id),
        np.where(fp, d1, column("x", 0.0) + spec.loc_noise_sigma * d1),
        np.where(fp, d2, column("y", 0.0) + spec.loc_noise_sigma * d2),
        column("z", h / 2), column("w", w), column("l", l), column("h", h),
        normalize_yaws(column("yaw", 0.0)), np.where(fp, fp_conf, column("conf", 0.0)),
        *((None, None) if t.vx is None else (column("vx", math.nan), column("vy", math.nan))),
    )
    return Sequence.from_table(table, gt.native_fps, gt.scene_name)


# ---------------------------------------------------------------------------
# independent brute-force oracle (shares no code with matching/metrics)
# ---------------------------------------------------------------------------

_MAX_ORACLE_OBJECTS = 6


def _oracle_sim(a: Box3D, b: Box3D, spec: SimilaritySpec) -> float:
    if spec.mode == "bev_iou":
        ix = min(a.x + a.width / 2, b.x + b.width / 2) - max(
            a.x - a.width / 2, b.x - b.width / 2
        )
        iy = min(a.y + a.length / 2, b.y + b.length / 2) - max(
            a.y - a.length / 2, b.y - b.length / 2
        )
        if ix <= 0 or iy <= 0:
            return 0.0
        inter = ix * iy
        return inter / (a.width * a.length + b.width * b.length - inter)
    d = math.hypot(a.x - b.x, a.y - b.y)
    return max(0.0, 1.0 - d / spec.d_max)


def _enumerate_matchings(
    n_gt: int, edges: dict[tuple[int, int], float]
) -> list[list[tuple[int, int]]]:
    """All partial matchings (as sorted pair-index lists) over gated edges."""
    results: list[list[tuple[int, int]]] = []

    def recurse(i: int, used_pred: set[int], chosen: list[tuple[int, int]]) -> None:
        if i == n_gt:
            results.append(list(chosen))
            return
        recurse(i + 1, used_pred, chosen)  # leave gt i unmatched
        for (gi, pj), _ in edges.items():
            if gi == i and pj not in used_pred:
                chosen.append((gi, pj))
                used_pred.add(pj)
                recurse(i + 1, used_pred, chosen)
                used_pred.remove(pj)
                chosen.pop()

    recurse(0, set(), [])
    return results


def _oracle_match(
    gt_dets: list[Detection],
    pred_dets: list[Detection],
    alpha: float,
    spec: SimilaritySpec,
) -> list[tuple[int, int, float]]:
    """Best gated matching by exhaustive enumeration: max total similarity,
    ties broken by the lexicographically smallest (gt_id, pred_id) list."""
    if len(gt_dets) > _MAX_ORACLE_OBJECTS or len(pred_dets) > _MAX_ORACLE_OBJECTS:
        raise ValueError(
            f"oracle supports at most {_MAX_ORACLE_OBJECTS} objects per frame"
        )
    gt_dets = sorted(gt_dets, key=lambda d: d.track_id)
    pred_dets = sorted(pred_dets, key=lambda d: d.track_id)
    edges: dict[tuple[int, int], float] = {}
    for i, g in enumerate(gt_dets):
        for j, p in enumerate(pred_dets):
            s = _oracle_sim(g.box, p.box, spec)
            if s >= alpha:
                edges[(i, j)] = s
    best: list[tuple[int, int]] | None = None
    best_total = -1.0
    for matching in _enumerate_matchings(len(gt_dets), edges):
        total = sum(edges[e] for e in matching)
        key = sorted(
            (gt_dets[i].track_id, pred_dets[j].track_id) for i, j in matching
        )
        if best is None or total > best_total or (
            total == best_total and key < best  # type: ignore[operator]
        ):
            best = key
            best_total = total
            best_pairs = sorted(matching)
    if best is None:
        return []
    return [
        (gt_dets[i].track_id, pred_dets[j].track_id, edges[(i, j)])
        for i, j in best_pairs
    ]


def oracle_metrics(
    gt: Sequence,
    pred: Sequence,
    window: EvalWindow,
    spec: SimilaritySpec,
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID,
    dur_alpha: float = DEFAULT_DUR_ALPHA,
    primary_class: int = 0,
) -> MetricsReport:
    """Brute-force per-definition evaluation of every metric.

    Semantically identical contract to metrics.class_report, but matching is
    exhaustive enumeration and all counting is direct loops; valid only for
    frames with at most 6 GT and 6 predicted objects.
    """
    gt_by_frame = gt.as_dict()
    pred_by_frame = pred.as_dict()
    win = list(window.frame_indices)
    classes = sorted(
        {
            d.class_id
            for fi in win
            for d in gt_by_frame.get(fi, ())
        }
    )

    per_class: dict[int, ClassMetrics] = {}
    for c in classes:
        gts = {
            fi: [d for d in gt_by_frame.get(fi, ()) if d.class_id == c] for fi in win
        }
        preds = {
            fi: [d for d in pred_by_frame.get(fi, ()) if d.class_id == c]
            for fi in win
        }
        hotas, detas, assas, locas = [], [], [], []
        for alpha in alpha_grid:
            matches = {fi: _oracle_match(gts[fi], preds[fi], alpha, spec) for fi in win}
            h, d_, a, l = _oracle_hota_alpha(gts, preds, matches, win)
            hotas.append(h)
            detas.append(d_)
            assas.append(a)
            locas.append(l)
        dur_matches = {
            fi: _oracle_match(gts[fi], preds[fi], dur_alpha, spec) for fi in win
        }
        dur = _oracle_dur(dur_matches, win, window.f0)
        ap = _oracle_ap(gts, preds, win, spec, dur_alpha)
        per_class[c] = ClassMetrics(
            hota=sum(hotas) / len(hotas),
            deta=sum(detas) / len(detas),
            assa=sum(assas) / len(assas),
            loca=sum(locas) / len(locas),
            avg_track_dur_seconds=dur,
            ap=ap,
        )

    if per_class:
        vals = list(per_class.values())
        avg = ClassMetrics(
            hota=sum(v.hota for v in vals) / len(vals),
            deta=sum(v.deta for v in vals) / len(vals),
            assa=sum(v.assa for v in vals) / len(vals),
            loca=sum(v.loca for v in vals) / len(vals),
            avg_track_dur_seconds=sum(v.avg_track_dur_seconds for v in vals)
            / len(vals),
            ap=sum(v.ap for v in vals) / len(vals),
        )
        notes: tuple[str, ...] = ()
    else:
        avg = ClassMetrics(1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        notes = ("empty GT window: rate metrics default to 1.0",)

    return MetricsReport(
        per_class=per_class,
        class_average=avg,
        window_size=len(window),
        f0=window.f0,
        first_frame=win[0],
        last_frame=win[-1],
        alpha_grid=tuple(alpha_grid),
        dur_alpha=dur_alpha,
        similarity_mode=spec.mode,
        primary_class=primary_class,
        notes=notes,
    )


def _oracle_hota_alpha(gts, preds, matches, win):
    tp = sum(len(matches[fi]) for fi in win)
    total_gt = sum(len(gts[fi]) for fi in win)
    total_pred = sum(len(preds[fi]) for fi in win)
    fn = total_gt - tp
    fp = total_pred - tp
    if tp + fn + fp == 0:
        return 1.0, 1.0, 1.0, 1.0
    if tp == 0:
        return 0.0, 0.0, 0.0, 0.0
    deta = tp / (tp + fn + fp)
    # per-pair association counts, straight from the definitions
    tpa: dict[tuple[int, int], int] = {}
    for fi in win:
        for g, p, _ in matches[fi]:
            tpa[(g, p)] = tpa.get((g, p), 0) + 1
    assa_sum = 0.0
    loca_sum = 0.0
    for fi in win:
        for g, p, s in matches[fi]:
            fna = 0
            fpa = 0
            for fj in win:
                matched_here = {(a, b) for a, b, _ in matches[fj]}
                gt_ids_here = {d.track_id for d in gts[fj]}
                pred_ids_here = {d.track_id for d in preds[fj]}
                if g in gt_ids_here and (g, p) not in matched_here:
                    fna += 1
                if p in pred_ids_here and (g, p) not in matched_here:
                    fpa += 1
            a_c = tpa[(g, p)] / (tpa[(g, p)] + fna + fpa)
            assa_sum += a_c
            loca_sum += s
    assa = assa_sum / tp
    loca = loca_sum / tp
    return math.sqrt(deta * assa), deta, assa, loca


def _oracle_dur(matches, win, f0: float) -> float:
    ids = {p for fi in win for _, p, _ in matches[fi]}
    total = 0
    n_runs = 0
    for k in ids:
        series = [1 if any(p == k for _, p, _ in matches[fi]) else 0 for fi in win]
        # naive linear scan for runs
        pos = 0
        while pos < len(series):
            if series[pos] == 1:
                start = pos
                while pos < len(series) and series[pos] == 1:
                    pos += 1
                total += pos - start
                n_runs += 1
            else:
                pos += 1
    if n_runs == 0:
        return 0.0
    return total / (n_runs * f0)


def _oracle_ap(gts, preds, win, spec: SimilaritySpec, alpha: float) -> float:
    ranked = []
    npos = sum(len(gts[fi]) for fi in win)
    for fi in win:
        for j, d in enumerate(preds[fi]):
            tid = -1 if d.track_id is None else d.track_id
            order = (-d.confidence, fi, d.class_id, tid, d.box.x, d.box.y, d.box.z)
            ranked.append((order, fi, j))
    if npos == 0:
        return 1.0 if not ranked else 0.0
    if not ranked:
        return 0.0
    ranked.sort()
    consumed = {fi: set() for fi in win}
    flags = []
    for _, fi, j in ranked:
        det = preds[fi][j]
        best_s, best_i = 0.0, -1
        # ascending track id, so an exact tie goes to the lower GT id
        for i, g in enumerate(sorted(gts[fi], key=lambda d: d.track_id)):
            if i in consumed[fi]:
                continue
            s = _oracle_sim(g.box, det.box, spec)
            if s >= alpha and s > best_s:
                best_s, best_i = s, i
        if best_i >= 0:
            consumed[fi].add(best_i)
            flags.append(1)
        else:
            flags.append(0)
    ap = 0.0
    tp_cum = 0
    precisions = []
    recalls = []
    for r, f in enumerate(flags, start=1):
        tp_cum += f
        precisions.append(tp_cum / r)
        recalls.append(tp_cum / npos)
    for i in range(101):
        r = i / 100.0
        best = 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r - 1e-12 and p > best:
                best = p
        ap += best
    return ap / 101.0
