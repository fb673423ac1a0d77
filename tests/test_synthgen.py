import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

from mtmceval.datamodel import EvalWindow, Sequence, validate_sequence
from mtmceval.ingest import emit_tracks
from mtmceval.matching import SimilaritySpec
from mtmceval.metrics import class_report
from mtmceval.synthgen import (
    PERSON_DIMS,
    DegradeSpec,
    degrade,
    gen_scene,
    merge_sequences,
    oracle_metrics,
)

BOUNDS = (-8.0, -8.0, 8.0, 8.0)
CD = SimilaritySpec(mode="center_distance", d_max=2.0)


def scene(n=3, dur=5.0, fps=2.0, motion="constant_velocity", seed=0, **kw):
    return gen_scene(
        n_objects=n,
        duration_s=dur,
        fps=fps,
        bounds=BOUNDS,
        motion=motion,
        seed=seed,
        **kw,
    )


# --- scene generation ---------------------------------------------------------


def test_gen_scene_empty():
    seq = scene(n=0)
    assert all(len(dets) == 0 for _, dets in seq.frames)
    assert len(seq.frames) == 10


def test_gen_scene_frame_count_and_fps():
    seq = scene(n=2, dur=5.0, fps=2.0)
    assert len(seq.frames) == 10
    assert seq.native_fps == 2.0
    assert seq.frame_indices == tuple(range(10))


def test_gen_scene_rejects_fractional_frame_count():
    with pytest.raises(ValueError):
        scene(n=1, dur=1.1, fps=3.0)


def test_gen_scene_valid_and_stable_identities():
    seq = scene(n=5, dur=10.0, fps=2.0, seed=9)
    assert validate_sequence(seq) == []
    for _, dets in seq.frames:
        assert sorted(d.track_id for d in dets) == list(range(5))
        for d in dets:
            assert (d.box.width, d.box.length, d.box.height) == PERSON_DIMS
            assert BOUNDS[0] <= d.box.x <= BOUNDS[2]
            assert BOUNDS[1] <= d.box.y <= BOUNDS[3]


def test_gen_scene_static_never_moves():
    seq = scene(n=4, motion="static", seed=3)
    first = {d.track_id: (d.box.x, d.box.y) for d in seq.frames[0][1]}
    for _, dets in seq.frames:
        for d in dets:
            assert (d.box.x, d.box.y) == first[d.track_id]


def test_gen_scene_speed_is_exact():
    # fixed speed 1 m/s at 2 fps means 0.5 m per frame (between bounces)
    seq = scene(n=3, dur=3.0, fps=2.0, speed_range=(1.0, 1.0), seed=5)
    for (_, a), (_, b) in zip(seq.frames, seq.frames[1:]):
        pa = {d.track_id: (d.box.x, d.box.y) for d in a}
        for d in b:
            x0, y0 = pa[d.track_id]
            step = math.hypot(d.box.x - x0, d.box.y - y0)
            assert step == pytest.approx(0.5, abs=1e-9)


def test_gen_scene_yaw_follows_heading():
    # arena large enough that nothing bounces, so yaw must equal the
    # direction of the frame-to-frame displacement
    seq = gen_scene(
        n_objects=3,
        duration_s=2.0,
        fps=2.0,
        bounds=(-1000.0, -1000.0, 1000.0, 1000.0),
        seed=1,
    )
    for (_, a), (_, b) in zip(seq.frames, seq.frames[1:]):
        pa = {d.track_id: d for d in a}
        for d in b:
            prev = pa[d.track_id]
            heading = math.atan2(d.box.y - prev.box.y, d.box.x - prev.box.x)
            assert prev.box.yaw == pytest.approx(heading, abs=1e-9)


def test_gen_scene_deterministic():
    assert scene(seed=11) == scene(seed=11)
    assert scene(seed=11) != scene(seed=12)


def test_merge_sequences_unions_frames():
    a = scene(n=2, seed=0, class_id=0)
    b = scene(n=2, seed=1, class_id=1)
    m = merge_sequences([a, b])
    assert len(m.frames) == len(a.frames)
    for fi, dets in m.frames:
        assert len(dets) == 4
    with pytest.raises(ValueError):
        merge_sequences([a, scene(fps=4.0, dur=2.5)])


# --- degradation --------------------------------------------------------------


def test_degrade_noop_is_relabeled_gt():
    gt = scene(n=3, seed=2)
    out = degrade(gt, DegradeSpec(seed=5))
    assert out.frame_indices == gt.frame_indices
    assert out.native_fps == gt.native_fps
    gt_ids = {d.track_id for _, dets in gt.frames for d in dets}
    for (_, gd), (_, od) in zip(gt.frames, out.frames):
        assert len(gd) == len(od)
        boxes_g = sorted((d.box.x, d.box.y) for d in gd)
        boxes_o = sorted((d.box.x, d.box.y) for d in od)
        assert boxes_g == boxes_o
        for d in od:
            assert d.track_id not in gt_ids


def test_degrade_noop_scores_perfect():
    gt = scene(n=3, seed=2)
    out = degrade(gt, DegradeSpec(seed=5))
    win = EvalWindow(frame_indices=gt.frame_indices, f0=gt.native_fps)
    rep = class_report(gt, out, win, CD)
    assert rep.class_average.hota == 1.0


def test_degrade_drop_all_empties_frames():
    gt = scene(n=3, seed=2)
    out = degrade(gt, DegradeSpec(drop_prob=1.0, seed=5))
    assert out.frame_indices == gt.frame_indices
    assert all(len(dets) == 0 for _, dets in out.frames)


def test_degrade_switch_every_frame_gives_unit_duration():
    gt = scene(n=1, dur=10.0, fps=1.0, motion="static", seed=0)
    out = degrade(gt, DegradeSpec(id_switch_prob=1.0, seed=3))
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    rep = class_report(gt, out, win, CD)
    assert rep.per_class[0].avg_track_dur_seconds == 1.0
    assert rep.per_class[0].deta == 1.0


def test_degrade_never_reuses_ids():
    gt = scene(n=4, dur=20.0, fps=2.0, seed=7)
    out = degrade(gt, DegradeSpec(id_switch_prob=0.5, seed=1))
    last_seen: dict[int, int] = {}
    retired: set[int] = set()
    for fi, dets in out.frames:
        ids = [d.track_id for d in dets]
        assert len(ids) == len(set(ids))
        for k in ids:
            assert k not in retired
        gone = set(last_seen) - set(ids)
        retired |= gone
        last_seen = {k: fi for k in ids}


def test_degrade_deterministic_per_seed():
    gt = scene(n=3, seed=4)
    spec = DegradeSpec(drop_prob=0.2, loc_noise_sigma=0.1, fp_rate=0.3,
                       fp_bounds=BOUNDS, seed=8)
    assert degrade(gt, spec) == degrade(gt, spec)


def test_degrade_fp_only_adds_detections():
    gt = scene(n=2, seed=0)
    out = degrade(gt, DegradeSpec(fp_rate=2.0, fp_bounds=BOUNDS, seed=6))
    n_gt = sum(len(d) for _, d in gt.frames)
    n_out = sum(len(d) for _, d in out.frames)
    assert n_out > n_gt
    for _, dets in out.frames:
        for d in dets:
            assert BOUNDS[0] <= d.box.x <= BOUNDS[2]
            assert BOUNDS[1] <= d.box.y <= BOUNDS[3]
            assert 0.0 <= d.confidence <= 1.0


def test_gen_scene_and_degrade_build_no_row_objects(row_objects):
    gt = scene(n=3, seed=1, motion="waypoint")
    degrade(gt, DegradeSpec(0.2, 0.1, 0.1, 0.5, seed=2, fp_bounds=BOUNDS))
    assert row_objects == []


def test_synthetic_streams_are_pinned():
    # the emitted bytes of one fixed scene and degradation: the seeded
    # streams of the module docstring must not drift
    gt = gen_scene(4, 5.0, 5.0, BOUNDS, motion="waypoint", seed=11, class_id=1)
    pred = degrade(
        gt, DegradeSpec(0.1, 0.2, 0.05, 0.8, seed=12, fp_bounds=BOUNDS, fp_class_id=1)
    )
    buf = io.StringIO()
    emit_tracks(gt, buf)
    emit_tracks(pred, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "1f2734df53d3a20fd3b07b91839b971479bc6e4a19c85758ee3ab24651d93af1"
    )


@pytest.mark.parametrize("bad", [1.5, "1", True, -1, 2**63])
def test_class_ids_must_be_integers_the_reader_accepts(bad):
    # no silent truncation of 1.5, "1" or True, and no id the CSV reader
    # would reject later
    with pytest.raises(ValueError, match="class_id"):
        scene(class_id=bad)
    with pytest.raises(ValueError, match="fp_class_id"):
        DegradeSpec(fp_class_id=bad)


def test_class_ids_accept_numpy_integers():
    assert set(scene(class_id=np.int64(2)).table.class_id.tolist()) == {2}
    assert DegradeSpec(fp_class_id=np.int32(3)).fp_class_id == 3


def test_degrade_requires_fp_bounds():
    with pytest.raises(ValueError):
        DegradeSpec(fp_rate=0.5)


def test_degrade_requires_a_track_id_on_every_gt_row():
    gt = scene()
    t = gt.table
    free = Sequence.from_table(
        dataclasses.replace(t, track_id=np.where(np.arange(t.track_id.size) == 4, -1, t.track_id)),
        gt.native_fps,
    )
    with pytest.raises(ValueError, match="^degrade requires GT track_ids$"):
        degrade(free, DegradeSpec())


def test_degrade_loc_noise_keeps_count_and_identity_runs():
    gt = scene(n=3, seed=1)
    out = degrade(gt, DegradeSpec(loc_noise_sigma=0.05, seed=2))
    for (_, gd), (_, od) in zip(gt.frames, out.frames):
        assert len(gd) == len(od)


# --- oracle -------------------------------------------------------------------


def test_oracle_perfect_tracker():
    gt = scene(n=3, seed=2)
    out = degrade(gt, DegradeSpec(seed=5))
    win = EvalWindow(frame_indices=gt.frame_indices, f0=gt.native_fps)
    rep = oracle_metrics(gt, out, win, CD)
    m = rep.class_average
    assert (m.hota, m.deta, m.assa, m.loca, m.ap) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_oracle_rejects_crowded_frames():
    gt = scene(n=7, seed=0)
    win = EvalWindow(frame_indices=gt.frame_indices, f0=gt.native_fps)
    with pytest.raises(ValueError, match="at most"):
        oracle_metrics(gt, gt, win, CD)


@pytest.mark.parametrize("seed", range(8))
def test_oracle_agrees_with_pipeline(seed):
    rng = np.random.default_rng(seed)
    gt = scene(n=int(rng.integers(1, 5)), dur=6.0, fps=2.0, seed=seed)
    spec = DegradeSpec(
        drop_prob=float(rng.uniform(0, 0.3)),
        loc_noise_sigma=float(rng.uniform(0, 0.4)),
        id_switch_prob=float(rng.uniform(0, 0.2)),
        fp_rate=float(rng.uniform(0, 0.4)),
        seed=seed + 100,
        fp_bounds=BOUNDS,
    )
    pred = degrade(gt, spec)
    win = EvalWindow(frame_indices=gt.frame_indices, f0=2.0)
    sim = CD if seed % 2 else SimilaritySpec(mode="bev_iou")
    a = class_report(gt, pred, win, sim)
    b = oracle_metrics(gt, pred, win, sim)
    assert set(a.per_class) == set(b.per_class)
    for cid in a.per_class:
        x, y = a.per_class[cid], b.per_class[cid]
        for f in ("hota", "deta", "assa", "loca", "avg_track_dur_seconds", "ap"):
            assert getattr(x, f) == pytest.approx(getattr(y, f), abs=1e-12), (
                cid,
                f,
            )
    for f in ("hota", "deta", "assa", "loca", "avg_track_dur_seconds", "ap"):
        assert getattr(a.class_average, f) == pytest.approx(
            getattr(b.class_average, f), abs=1e-12
        )
