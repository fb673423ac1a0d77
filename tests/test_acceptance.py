"""End-to-end acceptance checks, one per contract guarantee.

Each test prints a single PASS line on success so a plain `pytest -v -s`
run reads as a checklist. Tolerances and budgets are asserted, not logged.
"""

import itertools
import json
import threading
import time

import numpy as np
import pytest

from mtmceval import matching
from mtmceval.anchors import collect_centers, kmeans
from mtmceval.cli import main
from mtmceval.datamodel import EvalWindow
from mtmceval.fpslab import (
    SweepSpec,
    controlled_window,
    fps_sweep,
    stride_for,
    stride_subsample,
)
from mtmceval.ingest import GridConfig, convert_positions, emit_tracks
from mtmceval.matching import FrameMatchSet, SimilaritySpec, hungarian
from mtmceval.metrics import avg_track_dur, class_report
from mtmceval.synthgen import (
    DegradeSpec,
    degrade,
    gen_scene,
    merge_sequences,
    oracle_metrics,
)

CD = SimilaritySpec(mode="center_distance", d_max=2.0)
METRIC_FIELDS = ("hota", "deta", "assa", "loca", "avg_track_dur_seconds", "ap")


def test_assignment_optimality():
    """Hungarian cost equals the exhaustive-permutation minimum on 200
    random matrices with both sides at most 6; well under a second."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(200):
        n, m = (int(v) for v in rng.integers(1, 7, size=2))
        cost = rng.uniform(-10, 10, size=(n, m))
        assign = hungarian(cost)
        got = sum(cost[i, j] for i, j in assign)
        # accumulate every candidate in row-sorted order so the optimum is
        # bit-comparable with the row-sorted assignment's total
        if n <= m:
            candidates = (
                tuple(zip(range(n), perm))
                for perm in itertools.permutations(range(m), n)
            )
        else:
            candidates = (
                tuple(sorted(zip(perm, range(m))))
                for perm in itertools.permutations(range(n), m)
            )
        best = min(sum(cost[i, j] for i, j in pairs) for pairs in candidates)
        assert got == best
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS: assignment optimality (200 matrices, {elapsed:.2f}s)")


def test_metric_oracle_equivalence():
    """All six metrics agree with the independent brute-force oracle within
    1e-12 on 100 seeded synthetic scenes; under ten seconds."""
    t0 = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        frames = int(rng.integers(4, 11))
        gt = gen_scene(
            n_objects=n,
            duration_s=float(frames),
            fps=1.0,
            bounds=(-6, -6, 6, 6),
            seed=seed,
        )
        fp_rate = 0.3 if n <= 2 else (0.1 if n == 3 else 0.0)
        spec = DegradeSpec(
            drop_prob=float(rng.uniform(0, 0.3)),
            loc_noise_sigma=float(rng.uniform(0, 0.3)),
            id_switch_prob=float(rng.uniform(0, 0.3)),
            fp_rate=fp_rate,
            fp_bounds=(-6, -6, 6, 6),
            seed=seed + 500,
        )
        pred = degrade(gt, spec)
        win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
        sim = CD if seed % 2 else SimilaritySpec(mode="bev_iou")
        a = class_report(gt, pred, win, sim)
        b = oracle_metrics(gt, pred, win, sim)
        assert set(a.per_class) == set(b.per_class)
        for cid in a.per_class:
            for f in METRIC_FIELDS:
                assert abs(
                    getattr(a.per_class[cid], f) - getattr(b.per_class[cid], f)
                ) <= 1e-12, (seed, cid, f)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS: metric oracle equivalence (100 scenes, {elapsed:.2f}s)")


def test_duration_formula_exactness():
    """AvgTrackDur reproduces the run-sum definition exactly on three
    constructed run sets."""

    def matched(k):
        return FrameMatchSet(pairs=((1, k, 1.0),), unmatched_gt=(), unmatched_pred=())

    gap = FrameMatchSet(pairs=(), unmatched_gt=(1,), unmatched_pred=())

    assert avg_track_dur([matched(5)] * 10, f0=2.0) == 5.0
    assert avg_track_dur([matched(5)] * 4 + [gap] + [matched(6)] * 2, f0=1.0) == 3.0
    assert avg_track_dur([gap] * 5, f0=1.0) == 0.0
    print("\nPASS: duration formula exactness (5.0s / 3.0s / 0.0s)")


def test_perfect_tracker_fixed_point():
    """GT scored against itself is exactly perfect on every metric and the
    duration saturates at the window length."""
    gt = gen_scene(
        n_objects=5, duration_s=15.0, fps=2.0, bounds=(-8, -8, 8, 8), seed=4
    )
    win = EvalWindow(frame_indices=gt.frame_indices, f0=2.0)
    rep = class_report(gt, gt, win, CD)
    m = rep.class_average
    assert (m.hota, m.deta, m.assa, m.loca, m.ap) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert m.avg_track_dur_seconds == len(win) / win.f0 == 15.0
    print("\nPASS: perfect-tracker fixed point (all 1.0, dur = |window|/f0)")


def test_controlled_window_protocol(tmp_path, capsys):
    """A 9000-frame 30-FPS stream evaluated at 1 FPS scores exactly 300
    frames, and a stride of 5 keeps exactly 1 frame in 5."""
    gt = gen_scene(
        n_objects=1, duration_s=300.0, fps=30.0, bounds=(-8, -8, 8, 8), seed=0
    )
    assert len(gt.frames) == 9000

    win = controlled_window(gt, native_fps=30.0, eval_fps=1.0)
    assert len(win) == 300
    assert win.frame_indices[:3] == (0, 30, 60)

    sub = stride_subsample(gt, 5)
    assert len(sub.frames) == 9000 // 5
    assert sub.frame_indices == tuple(range(0, 9000, 5))

    gt_path = tmp_path / "gt.csv"
    with gt_path.open("w", newline="\n") as fh:
        emit_tracks(gt, fh)
    out = tmp_path / "r.json"
    code = main(
        ["evaluate", "--gt", str(gt_path), "--pred", str(gt_path),
         "--native-fps", "30", "--eval-fps", "1", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["window"]["size"] == 300
    print("\nPASS: controlled-window protocol (300 of 9000 frames; 1-in-5 stride)")


def test_association_collapse_shape():
    """With identity-switch rates rising as inference rate drops, DetA stays
    flat (< 1 pp spread) while AssA and AvgTrackDur strictly decrease; a
    switch on every frame of a 10-frame window at f0 = 1 gives exactly 1 s."""
    gt = gen_scene(
        n_objects=4, duration_s=20.0, fps=30.0, bounds=(-8, -8, 8, 8), seed=3
    )
    switch = {30.0: 0.0, 6.0: 0.06, 1.0: 0.7}
    outputs = {}
    for rate, p in switch.items():
        sub = stride_subsample(gt, stride_for(30.0, rate))
        outputs[rate] = degrade(sub, DegradeSpec(id_switch_prob=p, seed=int(rate)))
    spec = SweepSpec(
        native_fps=30.0, inference_rates=(30.0, 6.0, 1.0), eval_fps=1.0,
        similarity=CD,
    )
    rows = fps_sweep(gt, outputs, spec)
    detas = [r.class_average.deta for _, r in rows]
    assas = [r.class_average.assa for _, r in rows]
    durs = [r.class_average.avg_track_dur_seconds for _, r in rows]
    assert max(detas) - min(detas) < 0.01
    assert assas[0] > assas[1] > assas[2]
    assert durs[0] > durs[1] > durs[2]

    small = gen_scene(
        n_objects=1, duration_s=10.0, fps=1.0, motion="static",
        bounds=(-8, -8, 8, 8), seed=0,
    )
    broken = degrade(small, DegradeSpec(id_switch_prob=1.0, seed=1))
    win = EvalWindow(frame_indices=small.frame_indices, f0=1.0)
    rep = class_report(small, broken, win, CD)
    assert rep.per_class[0].avg_track_dur_seconds == 1.0
    print("\nPASS: association-collapse shape (flat DetA; AssA/dur strictly down)")


def test_false_positive_indifference():
    """Adding only far-away false positives leaves AvgTrackDur bit-identical."""
    gt = gen_scene(
        n_objects=4, duration_s=20.0, fps=2.0, bounds=(-8, -8, 8, 8), seed=6
    )
    spec_clean = DegradeSpec(drop_prob=0.1, id_switch_prob=0.1, seed=2)
    spec_fp = DegradeSpec(
        drop_prob=0.1, id_switch_prob=0.1, seed=2,
        fp_rate=1.0, fp_bounds=(100.0, 100.0, 130.0, 130.0),
    )
    clean = degrade(gt, spec_clean)
    with_fp = degrade(gt, spec_fp)
    n_clean = sum(len(d) for _, d in clean.frames)
    n_fp = sum(len(d) for _, d in with_fp.frames)
    assert n_fp > n_clean  # false positives really were injected
    win = EvalWindow(frame_indices=gt.frame_indices, f0=2.0)
    rep_clean = class_report(gt, clean, win, CD)
    rep_fp = class_report(gt, with_fp, win, CD)
    assert (
        rep_fp.per_class[0].avg_track_dur_seconds
        == rep_clean.per_class[0].avg_track_dur_seconds
    )
    print("\nPASS: false-positive indifference (AvgTrackDur bit-identical)")


def test_kmeans_anchor_bank():
    """Inertia never increases across iterations, a two-blob fixture recovers
    the blob means to 1e-9, and a 900-anchor bank over 10k converted grid
    points finishes inside five seconds."""
    rng = np.random.default_rng(1)
    for seed in range(10):
        pts = np.random.default_rng(seed).uniform(-5, 5, size=(600, 3))
        hist = kmeans(pts, k=30, seed=seed).inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    a = rng.normal([0, 0, 0], 0.05, size=(300, 3))
    b = rng.normal([12, 12, 12], 0.05, size=(300, 3))
    bank = kmeans(np.vstack([a, b]), k=2, seed=0)
    centers = sorted(map(tuple, bank.centers))
    np.testing.assert_allclose(centers[0], a.mean(axis=0), atol=1e-9)
    np.testing.assert_allclose(centers[1], b.mean(axis=0), atol=1e-9)

    records = [
        (f, pid, int(v))
        for (f, pid), v in zip(
            ((f, pid) for f in range(500) for pid in range(20)),
            np.random.default_rng(0).integers(0, 480 * 144, size=10000),
        )
    ]
    grid = GridConfig(grid_height=144)
    points = collect_centers(convert_positions(records, grid, native_fps=2.0))
    assert points.shape == (10000, 3)
    t0 = time.perf_counter()
    big = kmeans(points, k=900, seed=0)
    elapsed = time.perf_counter() - t0
    assert big.k == 900
    assert elapsed < 5.0
    print(f"\nPASS: k-means anchor bank (monotone inertia; K=900 in {elapsed:.2f}s)")


def test_conversion_geometry(tmp_path, capsys):
    """Cell 0 maps to the configured origin, every converted box center sits
    at half the person height, and a 360/40 frame split is honored."""
    grid = GridConfig()
    seq = convert_positions([(0, 1, 0)], grid, native_fps=2.0)
    d = seq.frames[0][1][0]
    assert (d.box.x, d.box.y) == (grid.origin_x, grid.origin_y)

    rng = np.random.default_rng(2)
    records = [
        (f, pid, int(rng.integers(0, 480 * 100)))
        for f in range(400)
        for pid in range(3)
    ]
    seq = convert_positions(records, grid, native_fps=2.0)
    for _, dets in seq.frames:
        for d in dets:
            assert d.box.z == grid.person_height / 2

    pos_path = tmp_path / "positions.csv"
    pos_path.write_text(
        "\n".join(f"{f},{pid},{pos}" for f, pid, pos in records) + "\n"
    )
    out = tmp_path / "tracks.csv"
    code = main(
        ["convert", "--positions", str(pos_path), "--out", str(out), "--split", "360"]
    )
    assert code == 0
    train = (tmp_path / "tracks_train.csv").read_text()
    test = (tmp_path / "tracks_test.csv").read_text()
    train_frames = {
        int(l.split(",")[0]) for l in train.splitlines() if not l.startswith("#")
    }
    test_frames = {
        int(l.split(",")[0]) for l in test.splitlines() if not l.startswith("#")
    }
    assert len(train_frames) == 360 and max(train_frames) == 359
    assert len(test_frames) == 40 and min(test_frames) == 360
    print("\nPASS: conversion geometry (origin cell; z = h/2; 360/40 split)")


def test_throughput_and_thread_invariance(tmp_path, capsys, monkeypatch):
    """A 9000-frame, 20-object evaluation over the full alpha grid finishes
    inside ten seconds, and reports are byte-identical whether crowded frames
    are solved inline or on the solver thread pool."""
    gt = gen_scene(
        n_objects=20, duration_s=300.0, fps=30.0, bounds=(-12, -12, 12, 12), seed=8
    )
    pred = degrade(gt, DegradeSpec(drop_prob=0.05, loc_noise_sigma=0.05,
                                   id_switch_prob=0.01, seed=9))
    win = EvalWindow(frame_indices=gt.frame_indices, f0=30.0)
    t0 = time.perf_counter()
    rep = class_report(gt, pred, win, CD)
    elapsed = time.perf_counter() - t0
    assert 0.0 < rep.class_average.hota < 1.0
    assert elapsed < 10.0

    gt_path = tmp_path / "gt.csv"
    pred_path = tmp_path / "pred.csv"
    with gt_path.open("w", newline="\n") as fh:
        emit_tracks(stride_subsample(gt, 30), fh)
    with pred_path.open("w", newline="\n") as fh:
        emit_tracks(stride_subsample(pred, 30), fh)
    reports, solved_on = [], []
    real = matching._solve_chunk
    # one usable CPU solves inline; two, with every alpha's matrices
    # counting as large, solve on the pool
    for threads, pool_cells in ((1, matching.POOL_CELLS), (2, 0)):
        names = set()

        def recording(*args):
            names.add(threading.current_thread().name)
            return real(*args)

        monkeypatch.setattr(matching, "_usable_cpus", lambda: threads)
        monkeypatch.setattr(matching, "POOL_CELLS", pool_cells)
        monkeypatch.setattr(matching, "_solve_chunk", recording)
        out = tmp_path / f"r{threads}.json"
        code = main(
            ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
             "--native-fps", "1", "--out", str(out)]
        )
        assert code == 0
        reports.append(out.read_bytes())
        solved_on.append(names)
    assert solved_on[0] == {threading.current_thread().name}
    assert any(n.startswith("mtmceval-solve") for n in solved_on[1])
    assert reports[0] == reports[1]
    print(
        f"\nPASS: throughput and thread invariance (9000x20 in {elapsed:.2f}s; "
        "byte-identical)"
    )
