import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from mtmceval.datamodel import Box3D, Detection, make_sequence
from mtmceval.fpslab import (
    SweepSpec,
    controlled_window,
    fps_sweep,
    stride_for,
    stride_subsample,
    sweep_to_json,
    sweep_to_text,
)
from mtmceval.ingest import parse_tracks
from mtmceval.matching import SimilaritySpec
from mtmceval.metrics import class_report
from mtmceval.synthgen import DegradeSpec, degrade, gen_scene, oracle_metrics

CD = SimilaritySpec(mode="center_distance", d_max=2.0)


def det(x, y, track_id):
    return Detection(
        box=Box3D(x, y, 0.9, 0.6, 0.6, 1.8),
        class_id=0,
        confidence=1.0,
        track_id=track_id,
    )


def gt_sequence(n_frames, fps):
    frames = {
        f: [det(0.01 * f, 0.0, 1), det(5.0 - 0.01 * f, 3.0, 2)]
        for f in range(n_frames)
    }
    return make_sequence(frames, native_fps=fps)


# --- stride arithmetic --------------------------------------------------------


def test_stride_for_basic():
    assert stride_for(30.0, 30.0) == 1
    assert stride_for(30.0, 6.0) == 5
    assert stride_for(30.0, 1.0) == 30
    assert stride_for(2.0, 2.0) == 1


def test_stride_for_rejects_non_divisors():
    with pytest.raises(ValueError):
        stride_for(30.0, 7.0)
    with pytest.raises(ValueError):
        stride_for(30.0, 0.0)
    with pytest.raises(ValueError):
        stride_for(30.0, -1.0)


@pytest.mark.parametrize("rate, shown", [(float("nan"), "nan"), (-10.0, "-10"), (0.0, "0")])
def test_stride_for_names_a_bad_rate(rate, shown):
    with pytest.raises(ValueError, match=f"rate must be finite and positive, got {shown}"):
        stride_for(30.0, rate)


@pytest.mark.parametrize("fps, shown", [(float("nan"), "nan"), (float("inf"), "inf"),
                                        (0.0, "0.0"), (-30.0, "-30.0"), (True, "True")])
def test_stride_for_names_a_bad_native_fps(fps, shown):
    """A bad native rate is named, by stride_for and by the two callers
    that take it from a user: SweepSpec and controlled_window."""
    message = f"^native_fps must be finite and positive, got {shown}$"
    with pytest.raises(ValueError, match=message):
        stride_for(fps, 1.0)
    with pytest.raises(ValueError, match=message):
        SweepSpec(native_fps=fps, inference_rates=(1.0,), eval_fps=1.0)
    with pytest.raises(ValueError, match=message):
        controlled_window(gt_sequence(4, 30.0), fps, 1.0)


def test_subsample_identity():
    seq = gt_sequence(20, 30.0)
    assert stride_subsample(seq, 1) == seq


@pytest.mark.parametrize("n", [0, -3])
def test_subsample_rejects_a_stride_below_one(n):
    with pytest.raises(ValueError, match="^keep_one_of must be >= 1$"):
        stride_subsample(gt_sequence(4, 30.0), n)


@pytest.mark.parametrize("n, shown", [(1.5, "1.5"), (2.0, "2.0"), (True, "True"), ("2", "'2'")])
def test_subsample_names_a_stride_that_is_not_an_integer(n, shown):
    """A float stride is refused, not rounded by the grid test: 1.5 would
    keep every third frame and label the result 20 FPS."""
    with pytest.raises(ValueError, match=f"^keep_one_of must be an integer, got {shown}$"):
        stride_subsample(gt_sequence(10, 30.0), n)


def test_subsample_takes_a_numpy_integer_stride():
    seq = gt_sequence(10, 30.0)
    assert stride_subsample(seq, np.int64(3)) == stride_subsample(seq, 3)


def test_subsample_30_to_1fps_keeps_300_of_9000():
    seq = gt_sequence(9000, 30.0)
    sub = stride_subsample(seq, 30)
    assert len(sub.frames) == 300
    assert sub.native_fps == 1.0
    assert sub.frame_indices[:3] == (0, 30, 60)
    assert sub.frame_indices[-1] == 8970


def test_subsample_composition():
    seq = gt_sequence(60, 30.0)
    assert stride_subsample(stride_subsample(seq, 2), 3) == stride_subsample(seq, 6)


def test_subsample_preserves_frame_content():
    seq = gt_sequence(10, 30.0)
    sub = stride_subsample(seq, 5)
    full = seq.as_dict()
    assert sub.as_dict()[5] == full[5]
    assert all(dets == full[fi] for fi, dets in sub.frames)


# --- controlled window --------------------------------------------------------


def test_controlled_window_300_frames():
    gt = gt_sequence(9000, 30.0)
    win = controlled_window(gt, native_fps=30.0, eval_fps=1.0)
    assert len(win) == 300
    assert win.f0 == 1.0
    assert win.frame_indices[0] == 0
    assert win.frame_indices[1] == 30


def test_controlled_window_native_rate_keeps_all():
    gt = gt_sequence(12, 2.0)
    win = controlled_window(gt, native_fps=2.0, eval_fps=2.0)
    assert win.frame_indices == gt.frame_indices
    assert win.f0 == 2.0


def test_controlled_window_rejects_non_divisor():
    gt = gt_sequence(30, 30.0)
    with pytest.raises(ValueError):
        controlled_window(gt, native_fps=30.0, eval_fps=7.0)


def test_controlled_window_reaches_the_top_int64_frame_without_wrapping():
    gt = make_sequence({2**63 - 2: [det(0, 0, 1)], 2**63 - 1: [det(0, 0, 1)]}, 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        window = controlled_window(gt, 30.0, 30.0)
    assert window.frame_indices == (2**63 - 2, 2**63 - 1)


def test_controlled_window_refuses_2_to_the_63_frames_naming_its_ends():
    gt = make_sequence({0: [det(0, 0, 1)], 2**63 - 1: [det(0, 0, 1)]}, 30.0)
    with pytest.raises(ValueError, match=f"^the window from frame 0 to frame {2**63 - 1} holds "):
        controlled_window(gt, 30.0, 30.0)


def test_grid_is_anchored_on_native_indices_not_row_positions():
    # GT frames 0..9 with frame 2 absent, 2 fps native, 1 fps window
    gt = make_sequence(
        {f: [det(0.01 * f, 0.0, 1)] for f in range(10) if f != 2}, native_fps=2.0
    )
    win = controlled_window(gt, native_fps=2.0, eval_fps=1.0)
    assert win.frame_indices == (0, 2, 4, 6, 8)
    assert stride_subsample(gt, 2).frame_indices == (0, 4, 6, 8)


def test_window_spans_first_to_last_gt_frame():
    gt = make_sequence({f: [det(0.0, 0.0, 1)] for f in (7, 8, 20)}, native_fps=10.0)
    assert controlled_window(gt, 10.0, 10.0).frame_indices == tuple(range(7, 21))
    assert controlled_window(gt, 10.0, 2.0).frame_indices == (7, 12, 17)
    assert stride_subsample(gt, 5).frame_indices == (7,)
    with pytest.raises(ValueError, match="no frames"):
        controlled_window(make_sequence({}, native_fps=10.0), 10.0, 2.0)


def test_sparse_gt_windows_match_oracle():
    """Windows cut from GTs that lost about 30 % of their frames score the
    same under class_report and the brute-force oracle, at native and half
    rate: grid frames without GT rows hold only misses and false positives."""
    fields = ("hota", "deta", "assa", "loca", "avg_track_dur_seconds", "ap")
    for seed in range(60):
        rng = np.random.default_rng([seed, 7])
        n = int(rng.integers(1, 4))
        full = gen_scene(n_objects=n, duration_s=float(rng.integers(4, 7)), fps=2.0,
                         bounds=(-6, -6, 6, 6), seed=seed)
        keep = rng.random(len(full.frames)) >= 0.3
        gt = make_sequence([(f, list(d)) for (f, d), k in zip(full.frames, keep) if k],
                           native_fps=2.0)
        if not gt.frames:
            continue
        pred = degrade(full, DegradeSpec(drop_prob=0.2, loc_noise_sigma=0.2,
                                         id_switch_prob=0.2, fp_rate=0.3,
                                         fp_bounds=(-6, -6, 6, 6), seed=seed))
        sim = CD if seed % 2 else SimilaritySpec(mode="bev_iou")
        for eval_fps in (2.0, 1.0):
            win = controlled_window(gt, native_fps=2.0, eval_fps=eval_fps)
            a = class_report(gt, pred, win, sim)
            b = oracle_metrics(gt, pred, win, sim)
            assert set(a.per_class) == set(b.per_class)
            for cid in a.per_class:
                for f in fields:
                    got, want = getattr(a.per_class[cid], f), getattr(b.per_class[cid], f)
                    assert abs(got - want) <= 1e-12, (seed, eval_fps, cid, f)


def test_window_frames_empty_on_both_sides_cost_nothing():
    """A GT with rows on frames 0 and 100,000 only, scored against itself on
    its 100,001-frame native window: two runs of one frame each."""
    row = "{},1,0,0.0,0.0,0.9,0.6,0.6,1.8,0.0,1.0\n"
    gt = parse_tracks(row.format(0) + row.format(100_000), native_fps=30.0)
    window = controlled_window(gt, 30.0, 30.0)
    assert len(window) == 100_001
    start = time.perf_counter()
    m = class_report(gt, gt, window, CD).per_class[0]
    assert time.perf_counter() - start < 2.0
    assert (m.hota, m.deta, m.assa, m.loca, m.ap) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert m.avg_track_dur_seconds == 1 / 30.0


def test_window_cost_follows_the_rows_not_the_span():
    """The same two-row GT with its rows 10**7 frames apart: the window is
    one int64 array, and only the table's frames are looked up in it."""
    row = "{},1,0,0.0,0.0,0.9,0.6,0.6,1.8,0.0,1.0\n"
    gt = parse_tracks(row.format(0) + row.format(10**7), native_fps=30.0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        window = controlled_window(gt, 30.0, 30.0)
        m = class_report(gt, gt, window, CD).per_class[0]
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(window) == 10**7 + 1
    assert elapsed < 1.0
    assert peak < 200e6
    assert (m.hota, m.deta, m.assa, m.loca, m.ap) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert m.avg_track_dur_seconds == 1 / 30.0


def test_windows_nest_across_rates():
    gt = gt_sequence(300, 30.0)
    low = set(controlled_window(gt, 30.0, 1.0).frame_indices)
    for eval_fps in (2.0, 5.0, 10.0, 30.0):
        high = set(controlled_window(gt, 30.0, eval_fps).frame_indices)
        assert low <= high


# --- sweep spec ---------------------------------------------------------------


def test_sweep_spec_validation():
    SweepSpec(native_fps=30.0, inference_rates=(30.0, 6.0, 1.0), eval_fps=1.0)
    with pytest.raises(ValueError):
        SweepSpec(native_fps=30.0, inference_rates=(), eval_fps=1.0)
    with pytest.raises(ValueError):
        SweepSpec(native_fps=30.0, inference_rates=(7.0,), eval_fps=1.0)
    with pytest.raises(ValueError):
        SweepSpec(native_fps=30.0, inference_rates=(6.0, 1.0), eval_fps=6.0)


def test_sweep_spec_refuses_a_rate_listed_twice():
    with pytest.raises(ValueError, match="rate 6 is listed twice"):
        SweepSpec(native_fps=30.0, inference_rates=(6.0, 1.0, 6.0), eval_fps=1.0)


def test_sweep_spec_rejects_window_off_a_rate_grid():
    # the 6 fps window (stride 5) is not on the 10 fps grid (stride 3)
    with pytest.raises(ValueError, match="eval_fps 6 must divide rate 10"):
        SweepSpec(native_fps=30.0, inference_rates=(30.0, 10.0), eval_fps=6.0)
    SweepSpec(native_fps=30.0, inference_rates=(30.0, 10.0), eval_fps=5.0)


# --- sweep --------------------------------------------------------------------


def test_sweep_perfect_tracker_all_rates():
    gt = gt_sequence(300, 30.0)
    spec = SweepSpec(
        native_fps=30.0,
        inference_rates=(30.0, 6.0, 1.0),
        eval_fps=1.0,
        similarity=CD,
    )
    outputs = {
        rate: stride_subsample(gt, stride_for(30.0, rate))
        for rate in spec.inference_rates
    }
    rows = fps_sweep(gt, outputs, spec)
    assert [rate for rate, _ in rows] == [30.0, 6.0, 1.0]
    for _, report in rows:
        m = report.class_average
        assert (m.hota, m.deta, m.assa, m.loca) == (1.0, 1.0, 1.0, 1.0)
        # 10 window frames at 1 fps, one uninterrupted run per identity
        assert m.avg_track_dur_seconds == 10.0


def test_sweep_same_window_for_every_rate():
    gt = gt_sequence(60, 30.0)
    spec = SweepSpec(
        native_fps=30.0, inference_rates=(30.0, 6.0), eval_fps=1.0, similarity=CD
    )
    rows = fps_sweep(gt, {30.0: gt, 6.0: stride_subsample(gt, 5)}, spec)
    windows = {
        (r.window_size, r.f0, r.first_frame, r.last_frame) for _, r in rows
    }
    assert windows == {(2, 1.0, 0, 30)}


def test_sweep_missing_rate_errors():
    gt = gt_sequence(60, 30.0)
    spec = SweepSpec(
        native_fps=30.0, inference_rates=(30.0, 1.0), eval_fps=1.0, similarity=CD
    )
    with pytest.raises(ValueError, match="rate 1"):
        fps_sweep(gt, {30.0: gt}, spec)


def test_sweep_missing_window_frame_names_rate():
    gt = gt_sequence(60, 30.0)
    spec = SweepSpec(
        native_fps=30.0, inference_rates=(30.0, 6.0), eval_fps=1.0, similarity=CD
    )
    sub = stride_subsample(gt, 5)
    # an output without rows on window frame 30 is scored: those are misses
    silent = make_sequence(
        [(f, list(d)) for f, d in sub.frames if f != 30],
        native_fps=sub.native_fps,
    )
    rows = dict(fps_sweep(gt, {30.0: gt, 6.0: silent}, spec))
    assert rows[30.0].class_average.deta == 1.0
    assert rows[6.0].class_average.deta == 0.5
    # a row on frame 3 lies off the 6 fps grid 0, 5, 10, ...
    off_grid = make_sequence(
        [(f, list(d)) for f, d in sub.frames] + [(3, [det(0.03, 0.0, 1)])],
        native_fps=sub.native_fps,
    )
    with pytest.raises(ValueError) as exc:
        fps_sweep(gt, {30.0: gt, 6.0: off_grid}, spec)
    assert "rate 6" in str(exc.value) and "[3]" in str(exc.value)


def test_sweep_serialization():
    gt = gt_sequence(60, 30.0)
    spec = SweepSpec(
        native_fps=30.0, inference_rates=(30.0, 6.0), eval_fps=1.0, similarity=CD
    )
    rows = fps_sweep(gt, {30.0: gt, 6.0: stride_subsample(gt, 5)}, spec)
    payload = json.loads(sweep_to_json(rows))
    assert [row["inference_fps"] for row in payload] == [30.0, 6.0]
    text = sweep_to_text(rows)
    lines = text.splitlines()
    assert "HOTA" in lines[0] and "AvgTrackDur" in lines[0]
    assert len(lines) == 2 + len(rows)
    assert lines[2].lstrip().startswith("30")
    assert "100.0" in lines[2]
