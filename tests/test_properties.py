"""Properties of class_report over seeded synthetic scenes.

Hypothesis runs derandomized with few examples, so the suite stays
deterministic and fast.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtmceval.datamodel import FLOAT_COLUMNS, Box3D, Detection, EvalWindow, Sequence, make_sequence
from mtmceval.matching import SimilaritySpec
from mtmceval.metrics import _ap_hits, _class_edges, _levels, _on_window, class_report
from mtmceval.synthgen import DegradeSpec, degrade, gen_scene, merge_sequences, oracle_metrics

BOUNDS = (-4.0, -4.0, 4.0, 4.0)
FIELDS = ("hota", "deta", "assa", "loca", "avg_track_dur_seconds", "ap")
ROW_COLUMNS = ("track_id", "class_id") + FLOAT_COLUMNS
PROPERTY = settings(derandomize=True, database=None, max_examples=30, deadline=None)


@st.composite
def scenes(draw):
    """(gt, pred, window, similarity) of one or two classes, at most three
    objects per class, degraded with every kind of error."""
    n_frames = draw(st.integers(2, 6))
    motion = draw(st.sampled_from(["static", "constant_velocity", "waypoint"]))
    seed = draw(st.integers(0, 2**16))
    gt = merge_sequences([
        gen_scene(draw(st.integers(1, 3)), n_frames / 2, 2.0, BOUNDS, motion, seed + c, c)
        for c in range(draw(st.integers(1, 2)))
    ])
    pred = degrade(gt, DegradeSpec(
        drop_prob=draw(st.floats(0.0, 0.4)),
        loc_noise_sigma=draw(st.floats(0.0, 0.6)),
        id_switch_prob=draw(st.floats(0.0, 0.3)),
        fp_rate=draw(st.floats(0.0, 0.6)),
        seed=seed,
        fp_bounds=BOUNDS,
        fp_class_id=draw(st.integers(0, 1)),
    ))
    first = draw(st.integers(0, n_frames - 1))
    window = EvalWindow(tuple(range(first, n_frames)), f0=2.0)
    sim = draw(st.sampled_from([
        SimilaritySpec(mode="center_distance", d_max=2.0), SimilaritySpec(mode="bev_iou"),
    ]))
    return gt, pred, window, sim


def with_columns(seq, **columns):
    return Sequence.from_table(
        dataclasses.replace(seq.table, **columns), seq.native_fps, seq.scene_name
    )


def metrics(report):
    per_class = {c: [getattr(m, f) for f in FIELDS] for c, m in report.per_class.items()}
    return per_class, [getattr(report.class_average, f) for f in FIELDS]


@PROPERTY
@given(scenes(), st.integers(0, 2**32))
def test_class_report_ignores_row_order_within_frames(scene, seed):
    """Shuffling the rows within each frame, splitting one frame into two
    entries of ``frame_index`` and permuting the entries leave every score
    as it is: the window positions, not the table's frame order, order the
    rows."""
    gt, pred, window, sim = scene
    rng = np.random.default_rng(seed)

    def shuffled(seq):
        t = seq.table
        k = rng.integers(t.frame_index.size)
        cut = rng.integers(t.offsets[k], t.offsets[k + 1] + 1)
        starts = np.insert(t.offsets[:-1], k + 1, cut)
        ends = np.insert(t.offsets[1:], k, cut)
        entries = rng.permutation(starts.size)
        perm = np.concatenate([rng.permutation(np.arange(starts[e], ends[e])) for e in entries])
        return with_columns(
            seq,
            frame_index=np.insert(t.frame_index, k, t.frame_index[k])[entries],
            offsets=np.concatenate(([0], np.cumsum((ends - starts)[entries]))),
            **{n: getattr(t, n)[perm] for n in ROW_COLUMNS},
        )

    assert metrics(class_report(shuffled(gt), shuffled(pred), window, sim)) == metrics(
        class_report(gt, pred, window, sim)
    )


@PROPERTY
@given(scenes(), st.data())
def test_class_report_ignores_an_order_keeping_track_id_relabelling(scene, data):
    gt, pred, window, sim = scene
    old = np.unique(np.concatenate((gt.table.track_id, pred.table.track_id)))
    gaps = data.draw(st.lists(st.integers(1, 2**20), min_size=old.size, max_size=old.size))
    # one gap jumps past 2**40, so ids on both sides of it occur
    gaps[data.draw(st.integers(0, old.size - 1))] += 2**40 + data.draw(st.integers(0, 2**60))
    new = np.cumsum(np.array(gaps, dtype=np.int64))
    assert new[-1] >= 2**40

    def relabelled(seq):
        return with_columns(seq, track_id=new[np.searchsorted(old, seq.table.track_id)])

    assert metrics(class_report(relabelled(gt), relabelled(pred), window, sim)) == metrics(
        class_report(gt, pred, window, sim)
    )


@PROPERTY
@given(scenes(), st.integers(1, 2**40))
def test_class_report_ignores_a_frame_shift(scene, shift):
    gt, pred, window, sim = scene

    def shifted(seq):
        t = seq.table
        return with_columns(seq, frame_index=t.frame_index + shift)

    moved = EvalWindow(tuple(f + shift for f in window.frame_indices), window.f0)
    assert metrics(class_report(shifted(gt), shifted(pred), moved, sim)) == metrics(
        class_report(gt, pred, window, sim)
    )


@PROPERTY
@given(scenes())
def test_class_report_agrees_with_oracle(scene):
    gt, pred, window, sim = scene
    # the oracle enumerates matchings of at most six objects a side
    assume(all(len(dets) <= 6 for _, dets in pred.frames))
    got, want = metrics(class_report(gt, pred, window, sim)), metrics(
        oracle_metrics(gt, pred, window, sim)
    )
    assert got[0].keys() == want[0].keys()
    for c in got[0]:
        assert got[0][c] == pytest.approx(want[0][c], abs=1e-12), c
    assert got[1] == pytest.approx(want[1], abs=1e-12)


@st.composite
def tied_tables(draw):
    """(gt, pred, window, similarity) of one class: boxes on a 1 m grid and
    three confidence values, so exact similarity and confidence ties are
    common; each frame holds up to six rows a side with distinct ids."""
    n_frames = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))

    def side():
        frames = {}
        for f in range(n_frames):
            ids = rng.permutation(12)[: rng.integers(0, 7)]
            frames[f] = [
                Detection(Box3D(*rng.integers(0, 4, 2).astype(float), 0.9, 1.0, 1.0, 1.8),
                          class_id=0, confidence=float(rng.choice([0.25, 0.5, 0.75])),
                          track_id=int(i))
                for i in ids
            ]
        return make_sequence(frames, native_fps=1.0)

    sim = draw(st.sampled_from([
        SimilaritySpec(mode="center_distance", d_max=2.0), SimilaritySpec(mode="bev_iou"),
    ]))
    return side(), side(), EvalWindow(tuple(range(n_frames)), f0=1.0), sim


def reference_ap_hits(e, level, n_gt, alpha):
    """The AP greedy pass walked one edge at a time in the order of the
    explicit lexsort key (level, prediction row, descending similarity, GT
    row): each prediction takes its first edge to an available GT."""
    keep = e.sim >= alpha
    g, p, s = e.gt[keep], e.pred[keep], e.sim[keep]
    available = np.ones(n_gt, dtype=bool)
    hit = np.zeros(level.size, dtype=bool)
    done = set()
    for k in np.lexsort((g, -s, p, level[p])).tolist():
        if p[k] not in done and available[g[k]]:
            available[g[k]] = False
            hit[p[k]] = True
            done.add(p[k])
    return hit


def class_edges(gt, pred, window, sim):
    """The class-0 pass over the window."""
    return _class_edges(_on_window(gt.table, window.frames), _on_window(pred.table, window.frames),
                        sim, 0)


def lexsort_ranked(pred, window):
    """The AP rank of the class-0 prediction rows by the explicit lexsort
    key (descending confidence, frame, track id, x, y, z)."""
    t, rows, _ = _on_window(pred.table, window.frames)
    rows = rows[t.class_id[rows] == 0]
    return np.lexsort((t.z[rows], t.y[rows], t.x[rows], t.track_id[rows], t.frame[rows], -t.conf[rows]))


def lexsort_levels(frame, ranked):
    """Each row's place among its frame's rows in rank order, by an explicit
    stable sort on frame."""
    n = ranked.size
    f = frame[ranked]
    by_frame = np.argsort(f, kind="stable")
    level = np.empty(n, dtype=np.int64)
    level[ranked[by_frame]] = np.arange(n) - np.searchsorted(f[by_frame], f[by_frame])
    return level


@PROPERTY
@given(tied_tables())
def test_ap_rank_and_level_order_equal_their_lexsort_keys(scene):
    """The AP rank (confidence, ties in (frame, track id) row order) and the
    levels give the permutations of the explicit multi-key lexsorts, and the
    AP greedy pass takes the same predictions as a greedy pass that walks
    the edges in lexsort order."""
    gt, pred, window, sim = scene
    data = class_edges(gt, pred, window, sim)
    ranked = lexsort_ranked(pred, window)
    assert np.array_equal(data.ranked, ranked)

    e = data.edges
    level = lexsort_levels(e.pred_frame, ranked)
    assert np.array_equal(_levels(e.pred_frame, data.ranked), level)
    for alpha in (0.05, 0.3, 0.5, 1.0):
        want = reference_ap_hits(e, level, data.g_dense.size, alpha)
        assert np.array_equal(_ap_hits(data, alpha), want)


def grid_scene(n_frames, n_gt, n_pred, seed):
    """(gt, pred) of one class, ``n_gt`` and ``n_pred`` rows in each of
    ``n_frames`` frames, centres on a 1 m grid of 12 x 12 and three
    confidence values, so similarity and confidence ties are common."""
    rng = np.random.default_rng(seed)

    def side(n):
        return make_sequence({
            f: [Detection(Box3D(*rng.integers(0, 12, 2).astype(float), 0.9, 1.0, 1.0, 1.8),
                          class_id=0, confidence=float(rng.choice([0.25, 0.5, 0.75])),
                          track_id=i)
                for i in range(n)]
            for f in range(n_frames)
        }, native_fps=1.0)

    return side(n_gt), side(n_pred)


@pytest.mark.parametrize(
    "n_frames, n_gt, n_pred", [(1, 120, 300), (300, 2, 2)], ids=["300-in-a-frame", "300-frames"]
)
def test_ap_levels_and_greedy_past_256_levels_or_frames(n_frames, n_gt, n_pred):
    """The level and frame-rank sort keys outgrow uint8, once in the levels
    of one frame of 300 predictions and once in the ranks of 300 frames
    holding predictions; the levels and the AP greedy pass still equal their
    lexsort references."""
    gt, pred = grid_scene(n_frames, n_gt, n_pred, seed=n_frames)
    window = EvalWindow(tuple(range(n_frames)), f0=1.0)
    sim = SimilaritySpec(mode="center_distance", d_max=2.0)
    data = class_edges(gt, pred, window, sim)
    assert np.array_equal(data.ranked, lexsort_ranked(pred, window))
    e = data.edges
    level = lexsort_levels(e.pred_frame, data.ranked)
    assert max(level.max() + 1, e.pred_frame[-1] + 1) == 300
    assert np.array_equal(_levels(e.pred_frame, data.ranked), level)
    for alpha in (0.05, 0.3, 0.5, 1.0):
        want = reference_ap_hits(e, level, data.g_dense.size, alpha)
        assert want.any()
        assert np.array_equal(_ap_hits(data, alpha), want)
