import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from mtmceval.datamodel import Box3D, Detection, EvalWindow, Sequence, make_sequence
from mtmceval.matching import FrameMatchSet, SimilaritySpec
from mtmceval import matching
from mtmceval.metrics import (
    DEFAULT_ALPHA_GRID,
    avg_track_dur,
    class_report,
    detection_ap,
    postprocess_filter,
    report_to_json,
    report_to_text,
)
from mtmceval.synthgen import (
    _MAX_ORACLE_OBJECTS,
    DegradeSpec,
    degrade,
    gen_scene,
    oracle_metrics,
)

CD = SimilaritySpec(mode="center_distance", d_max=1.0)
CD2 = SimilaritySpec(mode="center_distance", d_max=2.0)
CD4 = SimilaritySpec(mode="center_distance", d_max=4.0)


def det(x, y, track_id, class_id=0, conf=1.0):
    return Detection(
        box=Box3D(x, y, 0.9, 0.6, 0.6, 1.8),
        class_id=class_id,
        confidence=conf,
        track_id=track_id,
    )


def seq_from_positions(positions, fps=1.0, class_id=0):
    """positions: {frame: [(x, y, track_id), ...]}"""
    return make_sequence(
        {
            f: [det(x, y, tid, class_id=class_id) for x, y, tid in dets]
            for f, dets in positions.items()
        },
        native_fps=fps,
    )


def fms(pairs=(), unmatched_gt=(), unmatched_pred=()):
    return FrameMatchSet(
        pairs=tuple(pairs),
        unmatched_gt=tuple(unmatched_gt),
        unmatched_pred=tuple(unmatched_pred),
    )


# --- match indicator / runs / duration ---------------------------------------


def series_matches(series_by_id):
    """Per-frame match sets from {tracker_id: 0/1 series}: a 1 matches the id
    (to GT 1), a 0 leaves it present but unmatched."""
    n = len(next(iter(series_by_id.values())))
    return [
        fms(
            pairs=[(1, k, 1.0) for k, s in series_by_id.items() if s[t]],
            unmatched_pred=[k for k, s in series_by_id.items() if not s[t]],
        )
        for t in range(n)
    ]


def test_indicator_all_matched():
    matches = [fms(pairs=[(1, 9, 1.0)])] * 4
    assert avg_track_dur(matches, f0=1.0) == 4.0
    assert avg_track_dur(matches, f0=2.0) == 2.0


def test_indicator_never_present():
    assert avg_track_dur([fms()] * 3, f0=1.0) == 0.0
    unmatched = [fms(unmatched_pred=[9], unmatched_gt=[1])] * 3
    assert avg_track_dur(unmatched, f0=1.0) == 0.0


def test_indicator_present_but_unmatched_counts_zero():
    matches = [
        fms(pairs=[(1, 9, 1.0)]),
        fms(pairs=[(1, 9, 1.0)]),
        fms(unmatched_pred=[9], unmatched_gt=[1]),
        fms(pairs=[(1, 9, 1.0)]),
        fms(unmatched_pred=[9], unmatched_gt=[1]),
    ]
    # runs [0, 1] and [3]: 3 matched frames over 2 runs
    assert avg_track_dur(matches, f0=1.0) == 1.5


def test_extract_runs_simple():
    assert avg_track_dur(series_matches({9: [1, 1, 1]}), f0=1.0) == 3.0


def test_extract_runs_split():
    # two runs of one frame each, not one run of two
    assert avg_track_dur(series_matches({9: [1, 0, 1]}), f0=1.0) == 1.0


def naive_runs(series):
    out = []
    i = 0
    while i < len(series):
        if series[i]:
            j = i
            while j < len(series) and series[j]:
                j += 1
            out.append((i, j - 1))
            i = j
        else:
            i += 1
    return out


@pytest.mark.parametrize("seed", range(10))
def test_extract_runs_random_vs_naive(seed):
    rng = np.random.default_rng(seed)
    series = {k: rng.integers(0, 2, size=50).tolist() for k in (3, 9, 2**40)}
    runs = [r for s in series.values() for r in naive_runs(s)]
    total = sum(end - start + 1 for start, end in runs)
    assert avg_track_dur(series_matches(series), f0=2.0) == total / (len(runs) * 2.0)


def test_avg_track_dur_single_run():
    matches = [fms(pairs=[(1, 5, 1.0)])] * 10
    assert avg_track_dur(matches, f0=2.0) == 5.0


def test_avg_track_dur_two_runs():
    matches = (
        [fms(pairs=[(1, 5, 1.0)])] * 4
        + [fms()]
        + [fms(pairs=[(1, 6, 1.0)])] * 2
    )
    assert avg_track_dur(matches, f0=1.0) == 3.0


def test_avg_track_dur_no_runs():
    assert avg_track_dur([fms()] * 5, f0=1.0) == 0.0


@pytest.mark.parametrize("f0", [0, 0.0, -1.0])
def test_avg_track_dur_rejects_a_rate_that_is_not_positive(f0):
    with pytest.raises(ValueError, match="^f0 must be positive$"):
        avg_track_dur([fms(pairs=[(1, 5, 1.0)])], f0=f0)


def test_avg_track_dur_perfect_scale():
    # perfect tracker over a 300-frame window at 1 fps with one identity
    matches = [fms(pairs=[(1, 1, 1.0)])] * 300
    assert avg_track_dur(matches, f0=1.0) == 300.0


# --- association counts / per-alpha HOTA ------------------------------------


def single_alpha(gt, pred, f0=1.0, spec=CD):
    win = EvalWindow(frame_indices=gt.frame_indices, f0=f0)
    return class_report(gt, pred, win, spec, alpha_grid=(0.5,), dur_alpha=0.5)


def test_ledger_perfect_single_object():
    gt = seq_from_positions({f: [(0.0, 0.0, 1)] for f in range(3)})
    pred = seq_from_positions({f: [(0.0, 0.0, 9)] for f in range(3)})
    m = single_alpha(gt, pred).per_class[0]
    assert (m.hota, m.deta, m.assa, m.loca, m.ap) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert m.avg_track_dur_seconds == 3.0


def test_ledger_identity_split():
    gt = seq_from_positions({0: [(0.0, 0.0, 10)], 1: [(0.0, 0.0, 10)]})
    pred = seq_from_positions({0: [(0.0, 0.0, 100)], 1: [(0.0, 0.0, 101)]})
    m = single_alpha(gt, pred).per_class[0]
    assert m.deta == 1.0
    assert m.assa == 0.5
    assert m.hota == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert m.loca == 1.0
    assert m.avg_track_dur_seconds == 1.0


def test_hota_at_alpha_no_predictions():
    gt = seq_from_positions({f: [(0.0, 0.0, 1), (5.0, 0.0, 2)] for f in range(2)})
    m = single_alpha(gt, make_sequence({}, native_fps=1.0)).per_class[0]
    assert (m.hota, m.deta, m.assa, m.loca, m.ap) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert m.avg_track_dur_seconds == 0.0


def test_hota_at_alpha_empty_scene():
    empty = make_sequence({f: [] for f in range(3)}, native_fps=1.0)
    rep = single_alpha(empty, empty)
    assert rep.per_class == {}
    m = rep.class_average
    assert (m.hota, m.deta, m.assa, m.loca, m.ap) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert m.avg_track_dur_seconds == 0.0


def test_hota_square_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        gt_frames, pred_frames = {}, {}
        for f in range(6):
            gt_frames[f] = [det(*rng.uniform(-1, 1, 2), int(k)) for k in rng.permutation(3)]
            pred_frames[f] = [det(*rng.uniform(-1, 1, 2), int(k)) for k in rng.permutation(3)]
            # a GT and a prediction that never match anything
            gt_frames[f].append(det(50.0, 50.0, 9))
            pred_frames[f].append(det(-50.0, -50.0, 9))
        gt = make_sequence(gt_frames, native_fps=1.0)
        pred = make_sequence(pred_frames, native_fps=1.0)
        m = single_alpha(gt, pred, spec=CD4).per_class[0]
        assert 0.0 < m.deta < 1.0
        assert m.hota * m.hota == pytest.approx(m.deta * m.assa, abs=1e-12)


# --- grid-integrated HOTA ----------------------------------------------------


def test_hota_perfect_tracker():
    gt = seq_from_positions({f: [(0.0, 0.0, 1), (5.0, 5.0, 2)] for f in range(5)})
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    m = class_report(gt, gt, win, CD).per_class[0]
    assert (m.hota, m.deta, m.assa, m.loca) == (1.0, 1.0, 1.0, 1.0)


def test_hota_uniform_shift_hand_grid():
    # identical tracks shifted so similarity is exactly 0.4 everywhere
    gt = seq_from_positions({f: [(0.0, 0.0, 1)] for f in range(4)})
    pred = seq_from_positions({f: [(0.6, 0.0, 1)] for f in range(4)})
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    m = class_report(gt, pred, win, CD).per_class[0]
    matched = [alpha for alpha in DEFAULT_ALPHA_GRID if 0.4 >= alpha]
    frac = len(matched) / len(DEFAULT_ALPHA_GRID)
    assert m.hota == pytest.approx(frac, abs=1e-12)
    assert m.deta == pytest.approx(frac, abs=1e-12)
    assert m.assa == pytest.approx(frac, abs=1e-12)
    assert m.loca == pytest.approx(0.4 * frac, abs=1e-12)


# --- detection AP ------------------------------------------------------------


def test_ap_perfect():
    gt = seq_from_positions({0: [(0.0, 0.0, 1)], 1: [(2.0, 0.0, 1)]})
    win = EvalWindow(frame_indices=(0, 1), f0=1.0)
    assert detection_ap(gt, gt, win, CD, alpha=0.5, class_id=0) == 1.0


def test_ap_no_predictions():
    gt = seq_from_positions({0: [(0.0, 0.0, 1)]})
    pred = make_sequence({}, native_fps=1.0)
    win = EvalWindow(frame_indices=(0,), f0=1.0)
    assert detection_ap(gt, pred, win, CD, alpha=0.5, class_id=0) == 0.0


def test_ap_hand_curve_with_mid_ranked_fp():
    gt = seq_from_positions({0: [(0.0, 0.0, 1), (3.0, 0.0, 2)]})
    pred = make_sequence(
        {
            0: [
                det(0.0, 0.0, 10, conf=0.9),  # TP
                det(50.0, 0.0, 11, conf=0.8),  # FP
                det(3.0, 0.0, 12, conf=0.7),  # TP
            ]
        },
        native_fps=1.0,
    )
    win = EvalWindow(frame_indices=(0,), f0=1.0)
    # ranked: TP (p=1, r=.5), FP (p=.5, r=.5), TP (p=2/3, r=1)
    expected = (51 * 1.0 + 50 * (2 / 3)) / 101
    assert detection_ap(gt, pred, win, CD, alpha=0.5, class_id=0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("gt_order", [(2, 1), (1, 2)])
def test_ap_exact_tie_goes_to_lower_gt_id(gt_order):
    # A sits exactly between GT 1 and GT 2 (similarity 0.5 to each); only
    # GT 2 is within reach of B, so A must take GT 1 for both to count
    where = {1: (-1.0, 0.0), 2: (1.0, 0.0)}
    gt = make_sequence({0: [det(*where[k], k) for k in gt_order]}, native_fps=1.0)
    pred = make_sequence(
        {0: [det(0.0, 0.0, 10, conf=0.9), det(1.9, 0.0, 11, conf=0.8)]}, native_fps=1.0
    )
    win = EvalWindow(frame_indices=(0,), f0=1.0)
    rep = class_report(gt, pred, win, CD2, dur_alpha=0.5)
    assert rep.per_class[0].ap == 1.0
    assert detection_ap(gt, pred, win, CD2, alpha=0.5, class_id=0) == 1.0
    assert oracle_metrics(gt, pred, win, CD2, dur_alpha=0.5).per_class[0].ap == 1.0


def test_avg_track_dur_exact_with_ids_near_the_int64_limit():
    """Runs are counted on dense ids, so (id, position) keys cannot
    overflow: id a is matched at every position, first on one object and
    then on the other, id b at five; 11 matches in 2 runs."""
    a, b = 2**62 + 3, 2**63 - 1
    near = [a, a, a, b, b, a]
    far = [b, b, b, a, a]
    matches = [
        fms(pairs=[(7, i, 1.0)] + ([(8, j, 1.0)] if f < len(far) else []))
        for f, (i, j) in enumerate(itertools.zip_longest(near, far))
    ]
    assert avg_track_dur(matches, f0=1.0) == 5.5
    gt = seq_from_positions({f: [(0.0, 0.0, 7), (3.0, 0.0, 8)] for f in range(6)})
    pred = seq_from_positions({
        f: [(0.0, 0.0, near[f])] + ([(3.0, 0.0, far[f])] if f < len(far) else [])
        for f in range(6)
    })
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    assert class_report(gt, pred, win, CD).per_class[0].avg_track_dur_seconds == 5.5


@pytest.mark.parametrize("side, kind", [("gt", "ground-truth"), ("pred", "predicted")])
def test_class_report_rejects_a_track_id_twice_in_a_frame(side, kind):
    """Sequence.from_table does not validate, so a table can hold one track
    id twice in a frame; scoring names it instead of scoring it."""
    seq = seq_from_positions({0: [(0.0, 0.0, 1)], 1: [(0.0, 0.0, 1), (2.0, 0.0, 2)]})
    t = seq.table
    twice = Sequence.from_table(
        dataclasses.replace(t, track_id=np.where(t.track_id == 2, 1, t.track_id)), seq.native_fps
    )
    gt, pred = (twice, seq) if side == "gt" else (seq, twice)
    win = EvalWindow(frame_indices=(0, 1), f0=1.0)
    with pytest.raises(ValueError, match=f"^{kind} track_id 1 appears twice in frame 1 of class 0$"):
        class_report(gt, pred, win, CD)


@pytest.mark.parametrize(
    "gt_frame, pred_frame, named",
    [
        (20, None, "ground-truth detection missing track_id in frame 20"),
        (None, 20, "predicted detection missing track_id in frame 20"),
        (30, 10, "predicted detection missing track_id in frame 10"),
        (10, 30, "ground-truth detection missing track_id in frame 10"),
        (20, 20, "ground-truth detection missing track_id in frame 20"),
    ],
    ids=["gt", "pred", "pred-earlier", "gt-earlier", "tie-goes-to-gt"],
)
def test_class_report_names_the_first_detection_missing_a_track_id(gt_frame, pred_frame, named):
    """Scoring names the side, frame and class of the row without a track
    id at the earliest window position, GT on a tie. Rows off the window
    (frame 5) and of a predicted class absent from GT (class 0) are never
    scored, so their missing ids are not named."""

    def side(missing, first_class):
        frames = {f: [det(0.0, 0.0, None if f == missing else 1, class_id=1)] for f in (10, 20, 30)}
        frames[0] = [det(0.0, 0.0, None if first_class == 0 else 1, class_id=first_class)]
        frames[5] = [det(0.0, 0.0, None, class_id=1)]
        return make_sequence(frames, native_fps=1.0)

    gt, pred = side(gt_frame, 1), side(pred_frame, 0)
    win = EvalWindow(frame_indices=range(0, 40, 10), f0=1.0)
    with pytest.raises(ValueError, match=f"^{named} of class 1$"):
        class_report(gt, pred, win, CD)


def test_a_frame_index_listed_twice_scores_the_rows_of_both_entries():
    """A Sequence may list one frame index twice (validate_sequence reports
    it); every row on a window frame is scored, and a track id repeated
    across the two entries is named like one repeated within an entry."""
    a, b = det(0.0, 0.0, 1), det(3.0, 0.0, 2)
    gt = Sequence(((0, (a,)), (0, (b,))), 1.0)
    pred = make_sequence({0: [a, b]}, native_fps=1.0)
    win = EvalWindow(frame_indices=(0,), f0=1.0)
    for g, p in ((gt, pred), (pred, gt)):
        m = class_report(g, p, win, CD).per_class[0]
        assert (m.hota, m.deta, m.assa, m.loca, m.ap) == (1.0, 1.0, 1.0, 1.0, 1.0)
    twice = Sequence(((0, (a,)), (0, (det(3.0, 0.0, 1),))), 1.0)
    message = "^ground-truth track_id 1 appears twice in frame 0 of class 0$"
    with pytest.raises(ValueError, match=message):
        class_report(twice, pred, win, CD)


def test_class_report_large_track_ids():
    big = 2**40
    gt = make_sequence(
        {f: [det(0.0, 0.0, big + 1), det(3.0, 0.0, big + 2)] for f in range(4)},
        native_fps=2.0,
    )
    win = EvalWindow(frame_indices=gt.frame_indices, f0=2.0)
    m = class_report(gt, gt, win, CD).per_class[0]
    assert (m.hota, m.deta, m.assa, m.ap) == (1.0, 1.0, 1.0, 1.0)
    assert m.avg_track_dur_seconds == len(win) / win.f0


def test_class_report_computes_each_similarity_once(monkeypatch):
    """No (GT, prediction) pair goes through the pairwise similarity core
    twice, however many alphas are scored, and every pair of a (frame,
    class) cell with nonzero similarity is among those scored."""
    scored = []
    real = matching.pair_similarity

    def recording(gt, pred, spec):
        sim = real(gt, pred, spec)
        gt, pred = (
            zip(*(np.broadcast_to(c, sim.shape).ravel().tolist() for c in side))
            for side in (gt, pred)
        )
        scored.extend(zip(gt, pred, sim.ravel().tolist()))
        return sim

    # every detection has its own similarity columns, so a pair of column
    # tuples names a pair
    frames = {
        f: [det(0.01 * f, 0.0, 1, class_id=0), det(5.0 + 0.01 * f, 0.0, 2, class_id=1)]
        + [det(0.5 * k + 0.01 * f, 1.0, 10 + k, class_id=1) for k in range(f % 3)]
        for f in range(5)
    }
    gt = make_sequence(frames, native_fps=1.0)
    pred = make_sequence(
        {f: ([det(0.1 + 0.01 * f, 0.0, 7, class_id=0)] if f != 2 else [])
         + [det(5.0 + 0.01 * f, 0.2 * k, 20 + k, class_id=1) for k in range(f % 4)]
         for f in range(5)},
        native_fps=1.0,
    )
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)

    def columns(d, spec):
        return tuple(c.item() for c in matching._columns(matching._footprints([d]), spec))

    for spec in (CD, SimilaritySpec(mode="bev_iou")):
        scored.clear()
        with monkeypatch.context() as m:
            m.setattr(matching, "pair_similarity", recording)
            rep = class_report(gt, pred, win, spec)
        assert set(rep.per_class) == {0, 1}
        nonzero = {
            (columns(g, spec), columns(p, spec))
            for f in range(5)
            for g in gt.frames[f][1]
            for p in pred.frames[f][1]
            if g.class_id == p.class_id and matching.similarity_matrix([g], [p], spec)[0, 0] > 0
        }
        pairs = [(g, p) for g, p, _ in scored]
        assert len(pairs) == len(set(pairs)), spec.mode
        assert {(g, p) for g, p, s in scored if s > 0} == nonzero, spec.mode
        assert len(nonzero) >= 10, spec.mode


METRIC_FIELDS = ("hota", "deta", "assa", "loca", "avg_track_dur_seconds", "ap")


def test_crowded_scenes_match_oracle(monkeypatch):
    """3 to 6 people in a 3 x 3 m arena, with location noise and identity
    switches: most frames hold a conflict at some alpha, so the assignment
    solver runs, and every metric still agrees with the brute-force oracle."""
    solver_calls = []
    real = matching.linear_sum_assignment

    def counting(cost):
        solver_calls.append(1)
        return real(cost)

    monkeypatch.setattr(matching, "linear_sum_assignment", counting)
    arena = (0.0, 0.0, 3.0, 3.0)
    # a conflicted frame is solved only at the first alpha and where a pair
    # matched at the alpha before fell below the gate, so 90 scenes reach
    # the 1,000 calls
    for seed in range(90):
        rng = np.random.default_rng([seed, 7])
        n = int(rng.integers(3, _MAX_ORACLE_OBJECTS + 1))
        gt = gen_scene(n, float(rng.integers(3, 6)), 1.0, arena, seed=seed)
        pred = degrade(gt, DegradeSpec(
            drop_prob=float(rng.uniform(0, 0.2)),
            loc_noise_sigma=float(rng.uniform(0.05, 0.4)),
            id_switch_prob=float(rng.uniform(0.1, 0.5)),
            seed=seed + 1000,
        ))
        win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
        for spec in (CD, SimilaritySpec(mode="bev_iou")):
            a = class_report(gt, pred, win, spec).per_class[0]
            b = oracle_metrics(gt, pred, win, spec).per_class[0]
            for f in METRIC_FIELDS:
                assert abs(getattr(a, f) - getattr(b, f)) <= 1e-12, (seed, spec.mode, f)
    assert len(solver_calls) >= 1000


def degenerate_window(kind):
    """GT of classes 0 and 1 at frames 0-3 and one empty frame 4, and
    predictions that leave the window without GT rows, leave GT class 1
    without predictions, or hold only class 3, which GT lacks."""
    gt = {f: [det(0.0, 0.0, 1), det(0.5, 0.0, 2), det(3.0, 0.0, 1, class_id=1)] for f in range(4)}
    gt[4] = []
    # one offset for every match, so LocA sums equal terms in any order
    pred = {f: [det(0.1, 0.0, 7 + f // 2, conf=0.9), det(5.0, 5.0, 20, conf=0.4)]
            for f in range(6)}
    frames = range(5)
    if kind == "no-gt-rows":
        frames = (4, 5, 6)
    elif kind == "absent-class-only":
        pred = {f: [det(3.0, 0.1, 5, class_id=3)] for f in range(4)}
    gt, pred = make_sequence(gt, native_fps=1.0), make_sequence(pred, native_fps=1.0)
    return gt, pred, EvalWindow(frame_indices=frames, f0=1.0)


@pytest.mark.parametrize("spec", [CD, SimilaritySpec(mode="bev_iou")], ids=["cd", "bev"])
@pytest.mark.parametrize("kind", ["no-gt-rows", "class-without-predictions", "absent-class-only"])
def test_degenerate_windows_match_oracle_exactly(kind, spec):
    """A window without GT rows, a GT class without predictions and
    predictions only of a class GT lacks score exactly as the oracle does;
    the notes differ only by the dropped-class note, which the oracle does
    not write."""
    gt, pred, win = degenerate_window(kind)
    a = class_report(gt, pred, win, spec)
    b = oracle_metrics(gt, pred, win, spec)
    assert a.per_class == b.per_class
    assert a.class_average == b.class_average
    dropped = [n for n in a.notes if n.startswith("dropped predicted classes")]
    assert [n for n in a.notes if n not in dropped] == list(b.notes)
    assert len(dropped) == (kind != "class-without-predictions")
    assert (set(a.per_class), a.class_average.hota == 1.0) == {
        "no-gt-rows": (set(), True),
        "class-without-predictions": ({0, 1}, False),
        "absent-class-only": ({0, 1}, False),
    }[kind]


def test_detection_ap_of_a_class_without_gt_rows_in_the_window():
    """AP with no GT row to find is 1.0 without predictions and 0.0 with
    any."""
    gt, pred, win = degenerate_window("class-without-predictions")
    assert detection_ap(gt, pred, win, CD, 0.5, class_id=2) == 1.0
    assert detection_ap(gt, pred, EvalWindow((4, 5), 1.0), CD, 0.5, class_id=0) == 0.0
    assert detection_ap(gt, gt, EvalWindow((4, 5), 1.0), CD, 0.5, class_id=0) == 1.0


def tie_scene(spec, n_classes):
    """Exact ties everywhere, with every confidence equal: GT ids 1 and 2
    share one spot and predictions 10 and 11 one footprint; prediction 12 is
    as close to GT 3 as to GT 4, and prediction 13, ranked after it, reaches
    GT 4 only."""
    reach = 0.6 if spec.mode == "center_distance" else 0.3
    gt, pred = {}, {}
    for f in range(4):
        gt[f], pred[f] = [], []
        for c in range(n_classes):
            x = 4.0 * c
            gt[f] += [det(x, 0.0, 1, c), det(x, 0.0, 2, c),
                      det(x + 1.0, 0.0, 3, c), det(x + 1.0, 0.2, 4, c)]
            pred[f] += [det(x + 0.1, 0.0, 10, c, conf=0.7), det(x + 0.1, 0.0, 11, c, conf=0.7),
                        det(x + 1.0, 0.1, 12, c, conf=0.7)]
            if f % 2:
                pred[f].append(det(x + 1.0, reach, 13, c, conf=0.7))
    gt, pred = make_sequence(gt, native_fps=1.0), make_sequence(pred, native_fps=1.0)
    return gt, pred, EvalWindow(frame_indices=gt.frame_indices, f0=1.0)


@pytest.mark.parametrize(
    "spec, n_classes, digest",
    [
        (CD, 1,
         "cefe5d283b7828877b6057ab019d50e3e8760052e8588c164b8b867ed67e9a7f"),
        (CD, 2,
         "66746be281d744e53adad4cb08b90b3bbbc5e23201a4ef9dd0f9ad723ac45322"),
        (SimilaritySpec(mode="bev_iou"), 1,
         "5f47c2c76751a8fb4925ca08b2f7471f9241996198292bf53baf16dffcac1476"),
        (SimilaritySpec(mode="bev_iou"), 2,
         "7723cf49feda24d9eeb99fed4956877f670cdf990883cbff4885c1d6308c52c1"),
    ],
)
def test_exact_ties_are_pinned(spec, n_classes, digest):
    # the assignment solver's tie choice, AP's lower-GT-id rule and LocA's
    # summation order decide these bytes, which the oracle cannot pin; the
    # digests were taken from the per-frame matrix scorer
    rep = class_report(*tie_scene(spec, n_classes), spec)
    assert hashlib.sha256(report_to_json(rep).encode()).hexdigest() == digest


# --- post-processing filter --------------------------------------------------


def test_filter_identity():
    gt = seq_from_positions({0: [(0.0, 0.0, 1)], 1: [(1.0, 1.0, 2)]})
    assert postprocess_filter(gt, (-10, -10, 10, 10), 0.0) == gt


def test_filter_threshold_above_one_empties_frames():
    gt = seq_from_positions({0: [(0.0, 0.0, 1)], 3: [(1.0, 1.0, 2)]})
    out = postprocess_filter(gt, (-10, -10, 10, 10), 1.01)
    assert out.frame_indices == gt.frame_indices
    assert all(len(dets) == 0 for _, dets in out.frames)


def test_filter_pointwise_predicate():
    rng = np.random.default_rng(7)
    dets = [det(*rng.uniform(-5, 5, 2), i, conf=float(rng.uniform(0, 1))) for i in range(40)]
    seq = make_sequence({0: dets}, native_fps=1.0)
    roi = (-2.0, -1.0, 3.0, 4.0)
    thr = 0.4
    out = postprocess_filter(seq, roi, thr)
    expected = [
        d
        for d in dets
        if -2 <= d.box.x <= 3 and -1 <= d.box.y <= 4 and d.confidence >= thr
    ]
    assert list(out.frames[0][1]) == expected


def test_filter_convex_polygon():
    tri = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]
    seq = make_sequence(
        {0: [det(1.0, 1.0, 1), det(3.5, 3.5, 2)]}, native_fps=1.0
    )
    out = postprocess_filter(seq, tri, 0.0)
    assert [d.track_id for d in out.frames[0][1]] == [1]


def test_filter_degenerate_roi():
    seq = seq_from_positions({0: [(0.0, 0.0, 1)]})
    with pytest.raises(ValueError):
        postprocess_filter(seq, (0, 0, 0, 5), 0.0)
    with pytest.raises(ValueError):
        postprocess_filter(seq, [(0, 0), (1, 1), (2, 2)], 0.0)


@pytest.mark.parametrize(
    "roi",
    [(-100, -100, math.nan, 100), (0, 0, math.inf, 4), [(math.nan, 0), (4, 0), (0, 4)],
     (True, 0, 4, 4), [("0", 0), (4, 0), (0, 4)]],
)
def test_filter_rejects_a_roi_coordinate_that_is_not_a_finite_number(roi):
    """A NaN corner once kept no detection at all, and scored every
    prediction as missing; a bool or a string read as a number."""
    seq = seq_from_positions({0: [(0.0, 0.0, 1)]})
    with pytest.raises(ValueError, match="ROI coordinate must be a finite number"):
        postprocess_filter(seq, roi, 0.0)


@pytest.mark.parametrize(
    "roi",
    [[(0, 0), (10, 0), (10, 10), (5, 2), (0, 10)],
     [(0, 10), (6, -8), (-10, 3), (10, 3), (-6, -8)]],
    ids=["concave", "pentagram"],
)
def test_filter_rejects_a_concave_or_self_crossing_roi(roi):
    """The filter intersects the half-planes of the polygon's edges, which
    is the polygon only when it is convex: this concave one once dropped
    (1, 8), which lies inside it, and the pentagram kept only its inner
    pentagon."""
    seq = seq_from_positions({0: [(1.0, 8.0, 1)]})
    with pytest.raises(ValueError, match="convex"):
        postprocess_filter(seq, roi, 0.0)


def test_filter_accepts_collinear_roi_vertices():
    """A vertex on the line through its neighbours is no turn, also when
    float rounding puts it 1e-17 off that line, as (0.03, 0.09) here."""
    square = [(0, 0), (2, 0), (4, 0), (4, 4), (2, 4), (0, 4)]
    sliver = [(0, 0), (0.03, 0.09), (0.1, 0.3), (0, 0.45)]
    for roi, x_in, x_out, y in ((square, 1.0, 5.0, 1.0), (sliver, 0.02, 0.2, 0.2)):
        seq = seq_from_positions({0: [(x_in, y, 1), (x_out, y, 2)]})
        for verts in (roi, roi[::-1]):
            kept = postprocess_filter(seq, verts, 0.0).frames[0][1]
            assert [d.track_id for d in kept] == [1]


def test_filter_without_roi():
    far = make_sequence({0: [det(2e9, 0.0, 1, conf=0.9), det(0.0, 0.0, 2, conf=0.2)]},
                        native_fps=1.0)
    assert postprocess_filter(far, None, 0.0) is far
    out = postprocess_filter(far, None, 0.5)
    assert [d.track_id for d in out.frames[0][1]] == [1]
    win = EvalWindow(frame_indices=(0,), f0=1.0)
    assert class_report(out, out, win, CD).class_average.hota == 1.0


# --- class report ------------------------------------------------------------


def test_class_report_single_class_average_equals_row():
    gt = seq_from_positions({f: [(0.0, 0.0, 1)] for f in range(5)})
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    rep = class_report(gt, gt, win, CD)
    assert rep.class_average == rep.per_class[0]


def test_class_report_rejects_an_empty_alpha_grid():
    gt = seq_from_positions({f: [(0.0, 0.0, 1)] for f in range(3)})
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    with pytest.raises(ValueError, match="^alpha_grid must be nonempty$"):
        class_report(gt, gt, win, CD, alpha_grid=())


def test_class_report_rejects_an_alpha_listed_twice():
    """An alpha listed twice would count twice in the HOTA mean."""
    gt = seq_from_positions({f: [(0.0, 0.0, 1)] for f in range(3)})
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    with pytest.raises(ValueError, match="^alpha 0.5 is listed twice in alpha_grid$"):
        class_report(gt, gt, win, CD, alpha_grid=(0.25, 0.5, 0.75, 0.5))


def test_class_report_perfect_and_empty_class():
    gt_a = seq_from_positions({f: [(0.0, 0.0, 1)] for f in range(5)}, class_id=0)
    gt_b = seq_from_positions({f: [(9.0, 9.0, 1)] for f in range(5)}, class_id=1)
    gt = make_sequence(
        {f: list(gt_a.frames[f][1]) + list(gt_b.frames[f][1]) for f in range(5)},
        native_fps=1.0,
    )
    pred = gt_a  # class 1 has no predictions
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    rep = class_report(gt, pred, win, CD)
    assert rep.per_class[0].hota == 1.0
    assert rep.per_class[1].hota == 0.0
    assert rep.class_average.hota == 0.5


def test_class_report_three_class_mean():
    frames = {}
    for f in range(4):
        frames[f] = [
            det(0.0, 0.0, 1, class_id=0),
            det(5.0, 0.0, 1, class_id=1),
            det(0.0, 5.0, 1, class_id=2),
        ]
    gt = make_sequence(frames, native_fps=1.0)
    # class 0 perfect, class 1 shifted (sim 0.5), class 2 missing
    pframes = {}
    for f in range(4):
        pframes[f] = [
            det(0.0, 0.0, 1, class_id=0),
            det(5.5, 0.0, 1, class_id=1),
        ]
    pred = make_sequence(pframes, native_fps=1.0)
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    rep = class_report(gt, pred, win, CD)
    expected = np.mean(
        [rep.per_class[0].hota, rep.per_class[1].hota, rep.per_class[2].hota]
    )
    assert rep.class_average.hota == pytest.approx(float(expected), abs=1e-15)


def test_class_report_drops_gt_absent_pred_classes():
    gt = seq_from_positions({0: [(0.0, 0.0, 1)]}, class_id=0)
    pred = make_sequence(
        {0: [det(0.0, 0.0, 1, class_id=0), det(1.0, 1.0, 2, class_id=5)]},
        native_fps=1.0,
    )
    win = EvalWindow(frame_indices=(0,), f0=1.0)
    rep = class_report(gt, pred, win, CD)
    assert set(rep.per_class) == {0}
    assert any("5" in n for n in rep.notes)


def test_class_report_permutation_invariance():
    rng = np.random.default_rng(11)
    frames, pframes = {}, {}
    for f in range(6):
        frames[f] = [det(*rng.uniform(-3, 3, 2), i) for i in range(4)]
        pframes[f] = [det(*rng.uniform(-3, 3, 2), i) for i in range(4)]
    gt = make_sequence(frames, native_fps=1.0)
    pred = make_sequence(pframes, native_fps=1.0)
    shuffled = make_sequence(
        {f: list(reversed(d)) for f, d in pframes.items()}, native_fps=1.0
    )
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    assert class_report(gt, pred, win, CD4) == class_report(gt, shuffled, win, CD4)


# --- metric-level invariants -------------------------------------------------


def test_dur_upper_bound_and_perfect_equality():
    gt = seq_from_positions({f: [(0.0, 0.0, 1)] for f in range(8)}, fps=2.0)
    win = EvalWindow(frame_indices=gt.frame_indices, f0=2.0)
    rep = class_report(gt, gt, win, CD)
    assert rep.per_class[0].avg_track_dur_seconds == len(win) / win.f0


def test_id_switch_strictly_decreases_dur_not_deta():
    gt = seq_from_positions({f: [(float(f), 0.0, 1)] for f in range(10)})
    stable = seq_from_positions({f: [(float(f), 0.0, 7)] for f in range(10)})
    split = make_sequence(
        {f: [det(float(f), 0.0, 7 if f < 5 else 8)] for f in range(10)},
        native_fps=1.0,
    )
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    rep_stable = class_report(gt, stable, win, CD)
    rep_split = class_report(gt, split, win, CD)
    assert (
        rep_split.per_class[0].avg_track_dur_seconds
        < rep_stable.per_class[0].avg_track_dur_seconds
    )
    assert rep_split.per_class[0].deta == rep_stable.per_class[0].deta


def test_false_positive_indifference():
    gt = seq_from_positions({f: [(0.0, 0.0, 1)] for f in range(6)})
    pred = seq_from_positions({f: [(0.0, 0.0, 9)] for f in range(6)})
    with_fp = make_sequence(
        {f: [det(0.0, 0.0, 9), det(100.0, 100.0, 50 + f)] for f in range(6)},
        native_fps=1.0,
    )
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    rep_clean = class_report(gt, pred, win, CD)
    rep_fp = class_report(gt, with_fp, win, CD)
    assert (
        rep_fp.per_class[0].avg_track_dur_seconds
        == rep_clean.per_class[0].avg_track_dur_seconds
    )
    assert rep_fp.per_class[0].deta <= rep_clean.per_class[0].deta


def test_report_serialization_deterministic():
    gt = seq_from_positions({f: [(0.0, 0.0, 1)] for f in range(3)})
    win = EvalWindow(frame_indices=gt.frame_indices, f0=1.0)
    rep = class_report(gt, gt, win, CD)
    assert report_to_json(rep) == report_to_json(rep)
    text = report_to_text(rep)
    assert "HOTA" in text and "AvgTrackDur" in text
    assert "100.0" in text
