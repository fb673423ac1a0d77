import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtmceval import matching
from mtmceval.datamodel import Box3D, Detection, EvalWindow
from mtmceval.matching import (
    FrameMatchSet,
    SimilaritySpec,
    edge_list,
    hungarian,
    match_edges,
    match_frame,
    similarity_matrix,
)
from mtmceval.metrics import (
    DEFAULT_ALPHA_GRID, _class_edges, _on_window, class_report, report_to_json,
)
from mtmceval.synthgen import DegradeSpec, degrade, gen_scene

BEV = SimilaritySpec(mode="bev_iou")
CD = SimilaritySpec(mode="center_distance", d_max=1.0)


def box(x, y, w=2.0, l=2.0):
    return Box3D(x, y, 0.5, w, l, 1.0)


def det(x, y, track_id, class_id=0, conf=1.0, w=2.0, l=2.0):
    return Detection(box=box(x, y, w, l), class_id=class_id, confidence=conf, track_id=track_id)


def similarity(a, b, spec):
    """Similarity of two boxes, read off a 1 x 1 similarity_matrix."""
    sim = similarity_matrix(
        [Detection(box=a, class_id=0, track_id=0)],
        [Detection(box=b, class_id=0, track_id=0)],
        spec,
    )
    assert sim.shape == (1, 1)
    return float(sim[0, 0])


def brute_force_min_cost(cost):
    n, m = cost.shape
    best = None
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            total = sum(cost[i, perm[i]] for i in range(n))
            if best is None or total < best:
                best = total
    else:
        for perm in itertools.permutations(range(n), m):
            total = sum(cost[perm[j], j] for j in range(m))
            if best is None or total < best:
                best = total
    return best


def brute_force_gated_match(sim, alpha):
    """Max total similarity over all gated partial matchings."""
    n, m = sim.shape
    edges = [(i, j) for i in range(n) for j in range(m) if sim[i, j] >= alpha]
    best = 0.0
    for r in range(0, min(n, m) + 1):
        for combo in itertools.combinations(edges, r):
            rows = [e[0] for e in combo]
            cols = [e[1] for e in combo]
            if len(set(rows)) == r and len(set(cols)) == r:
                total = sum(sim[i, j] for i, j in combo)
                best = max(best, total)
    return best


def test_similarity_identity():
    b = box(1.0, 2.0)
    assert similarity(b, b, BEV) == 1.0
    assert similarity(b, b, CD) == 1.0


def test_bev_iou_hand_geometry():
    a = box(0.0, 0.0)
    b = box(1.0, 0.0)
    # 2x2 footprints offset by 1 m: inter 1*2=2, union 4+4-2=6
    assert similarity(a, b, BEV) == pytest.approx(1 / 3)


def test_bev_iou_disjoint():
    assert similarity(box(0, 0), box(10, 0), BEV) == 0.0


def test_center_distance_linear_ramp():
    assert similarity(box(0, 0), box(0.5, 0), CD) == pytest.approx(0.5)
    assert similarity(box(0, 0), box(2.0, 0), CD) == 0.0


def test_similarity_symmetry():
    rng = np.random.default_rng(1)

    def random_dets():
        xy = rng.uniform(-5, 5, (1000, 2))
        wl = rng.uniform(0.5, 3, (1000, 2))
        return [det(*xy[i], i, w=wl[i, 0], l=wl[i, 1]) for i in range(1000)]

    a, b = random_dets(), random_dets()
    for spec in (BEV, SimilaritySpec(mode="center_distance", d_max=4.0)):
        sab = similarity_matrix(a, b, spec)
        assert sab.shape == (1000, 1000)
        assert np.array_equal(sab, similarity_matrix(b, a, spec).T)
        assert np.all((0.0 <= sab) & (sab <= 1.0))
        # the matrix agrees with pairwise 1 x 1 evaluations
        for i in range(0, 1000, 97):
            assert similarity(a[i].box, b[i].box, spec) == sab[i, i]
    assert np.count_nonzero(similarity_matrix(a, b, BEV)) > 0


def test_hungarian_diagonal_optimum():
    cost = np.ones((3, 3)) - np.eye(3)
    assert hungarian(cost) == [(0, 0), (1, 1), (2, 2)]


def test_hungarian_hand_checked():
    assert hungarian([[1, 2], [3, 1]]) == [(0, 0), (1, 1)]


def test_hungarian_empty():
    assert hungarian(np.zeros((0, 3))) == []
    assert hungarian(np.zeros((0, 0))) == []


def test_hungarian_rejects_nonfinite():
    with pytest.raises(ValueError):
        hungarian([[np.inf, 1.0], [1.0, 2.0]])


@pytest.mark.parametrize("seed", range(20))
def test_hungarian_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n, m = rng.integers(1, 7, size=2)
    cost = rng.uniform(-5, 5, size=(int(n), int(m)))
    assign = hungarian(cost)
    assert len(assign) == min(n, m)
    total = sum(cost[i, j] for i, j in assign)
    assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-12)


def test_match_frame_accepts_above_gate():
    m = match_frame([det(0, 0, 1)], [det(0.1, 0, 2)], alpha=0.5, spec=BEV)
    assert len(m.pairs) == 1
    g, p, s = m.pairs[0]
    assert (g, p) == (1, 2)
    assert s >= 0.5
    assert m.unmatched_gt == () and m.unmatched_pred == ()


def test_match_frame_gate_rejection():
    m = match_frame([det(0, 0, 1)], [det(1.5, 0, 2)], alpha=0.5, spec=BEV)
    assert m.pairs == ()
    assert m.unmatched_gt == (1,) and m.unmatched_pred == (2,)


def test_match_frame_requires_track_ids():
    free = Detection(box=box(0, 0), class_id=0, confidence=1.0)
    with pytest.raises(ValueError, match="track_id"):
        match_frame([free], [det(0, 0, 1)], alpha=0.5, spec=BEV)


def test_match_frame_rejects_a_track_id_given_twice():
    """Two GT boxes with id 1 used to give the pair (1, 2) twice against two
    predictions with id 2, and against one prediction id 1 came back both
    matched and unmatched. The side given the id twice is named, GT first."""
    twice = [det(0, 0, 1), det(0.1, 0, 1)]
    for preds in ([det(0, 0, 2), det(0.1, 0, 2)], [det(0, 0, 2)]):
        with pytest.raises(ValueError, match="^ground-truth track_id 1 appears twice$"):
            match_frame(twice, preds, alpha=0.5, spec=BEV)
    with pytest.raises(ValueError, match="^predicted track_id 1 appears twice$"):
        match_frame([det(0, 0, 2)], twice, alpha=0.5, spec=BEV)


@pytest.mark.parametrize(
    "alpha, shown", [(0.0, "0.0"), (-0.5, "-0.5"), (1.5, "1.5"), (math.nan, "nan")]
)
def test_matching_rejects_an_alpha_outside_the_unit_interval(alpha, shown):
    edges = edge_list(
        np.array([[0.0, 0.0, 2.0, 2.0]]), np.array([[0.1, 0.0, 2.0, 2.0]]),
        np.zeros(1, int), np.zeros(1, int), BEV,
    )
    message = rf"^alpha must be in \(0, 1\], got {shown}$"
    with pytest.raises(ValueError, match=message):
        match_edges(edges, (0.5, alpha))
    with pytest.raises(ValueError, match=message):
        match_frame([det(0, 0, 1)], [det(0.1, 0, 2)], alpha=alpha, spec=BEV)


def test_matching_rejects_a_bool_alpha_as_tool_config_does():
    edges = edge_list(
        np.array([[0.0, 0.0, 2.0, 2.0]]), np.array([[0.1, 0.0, 2.0, 2.0]]),
        np.zeros(1, int), np.zeros(1, int), BEV,
    )
    message = r"^alpha must be in \(0, 1\], got True$"
    with pytest.raises(ValueError, match=message):
        match_edges(edges, (True,))
    with pytest.raises(ValueError, match=message):
        match_frame([det(0, 0, 1)], [det(0.1, 0, 2)], alpha=True, spec=BEV)


@pytest.mark.parametrize("seed", range(30))
def test_match_frame_equals_brute_force(seed):
    rng = np.random.default_rng(100 + seed)
    n, m = rng.integers(1, 5, size=2)
    gt = [det(*rng.uniform(-3, 3, 2), track_id=i) for i in range(int(n))]
    pred = [det(*rng.uniform(-3, 3, 2), track_id=i) for i in range(int(m))]
    spec = SimilaritySpec(mode="center_distance", d_max=4.0)
    alpha = float(rng.uniform(0.1, 0.9))
    result = match_frame(gt, pred, alpha, spec)
    sim = similarity_matrix(gt, pred, spec)
    total = sum(s for _, _, s in result.pairs)
    assert total == pytest.approx(brute_force_gated_match(sim, alpha), abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_match_frame_properties(seed):
    rng = np.random.default_rng(200 + seed)
    n, m = rng.integers(0, 7, size=2)
    gt = [det(*rng.uniform(-2, 2, 2), track_id=i) for i in range(int(n))]
    pred = [det(*rng.uniform(-2, 2, 2), track_id=i) for i in range(int(m))]
    spec = SimilaritySpec(mode="center_distance", d_max=3.0)
    prev_pairs = None
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        result = match_frame(gt, pred, alpha, spec)
        # gate soundness
        assert all(s >= alpha for _, _, s in result.pairs)
        # conservation
        assert len(result.pairs) + len(result.unmatched_gt) == len(gt)
        assert len(result.pairs) + len(result.unmatched_pred) == len(pred)
        # each id appears once
        gt_ids = [g for g, _, _ in result.pairs] + list(result.unmatched_gt)
        pred_ids = [p for _, p, _ in result.pairs] + list(result.unmatched_pred)
        assert len(gt_ids) == len(set(gt_ids))
        assert len(pred_ids) == len(set(pred_ids))
        # monotone gating
        if prev_pairs is not None:
            assert len(result.pairs) <= prev_pairs
        prev_pairs = len(result.pairs)
        # determinism and permutation invariance
        again = match_frame(list(reversed(gt)), list(reversed(pred)), alpha, spec)
        assert again == result


# --- edge lists over many frames ----------------------------------------------


def grid_footprints(rng, n, origin, y_origin=0.0):
    """n footprints on a 0.25 m grid around (origin, y_origin): exact at any
    origin up to 1e12, so boxes touch exactly and centres lie exactly d_max
    apart."""
    return np.column_stack([
        origin + 0.25 * rng.integers(-12, 13, n),
        y_origin + 0.25 * rng.integers(-4, 5, n),
        rng.choice([0.5, 1.0, 1.5, 2.0], n),
        rng.choice([0.5, 1.0, 2.0], n),
    ]).reshape(-1, 4)


def nonzero_entries(gt, pred, gt_frame, pred_frame, spec):
    """(GT row, prediction row, similarity) of every nonzero entry of each
    frame's full similarity matrix, in (GT row, prediction row) order."""
    parts = [(np.empty(0, int), np.empty(0, int), np.empty(0))]
    for f in np.union1d(gt_frame, pred_frame):
        gi, pi = np.flatnonzero(gt_frame == f), np.flatnonzero(pred_frame == f)
        sim = similarity_matrix(gt[gi], pred[pi], spec)
        r, c = np.nonzero(sim)
        parts.append((gi[r], pi[c], sim[r, c]))
    return [np.concatenate(c) for c in zip(*parts)]


@pytest.mark.parametrize("spec", [BEV, SimilaritySpec(mode="center_distance", d_max=1.5)])
def test_edge_list_equals_nonzero_matrix_entries(spec):
    """Sweep and prune drops no pair of nonzero similarity: the edges are the
    nonzero entries of the per-frame matrices, bit for bit and in order."""
    reach = spec.d_max if spec.mode == "center_distance" else None
    origins = [0.0, 1e3, -1e6, 1e12, -1e12]
    for seed in range(40):
        rng = np.random.default_rng([seed, 11])
        origin, y_origin = origins[seed % 5], origins[(seed // 5 + 2) % 5]
        gt_parts, pred_parts, gt_frame, pred_frame = [], [], [], []
        for f in range(int(rng.integers(1, 6))):
            # either side may be empty on a frame
            gt_f = grid_footprints(rng, int(rng.integers(0, 6)), origin, y_origin)
            pred_f = grid_footprints(rng, int(rng.integers(0, 6)), origin, y_origin)
            if gt_f.size and pred_f.size:
                # predictions just inside the x and the y reach of the first
                # GT row, and exactly at them (touching boxes or centres
                # d_max apart)
                g, dims = gt_f[0], pred_f[0, 2:]
                at = g[0] + (reach or (g[2] + dims[0]) / 2)
                y_at = g[1] + (reach or (g[3] + dims[1]) / 2)
                pred_f = np.vstack([
                    pred_f,
                    [at, g[1], *dims], [np.nextafter(at, -np.inf), g[1], *dims],
                    [g[0], y_at, *dims], [g[0], np.nextafter(y_at, -np.inf), *dims],
                ])
            if f == 1 and seed % 3 == 0:
                # one very wide box, on either side
                (gt_f if seed % 2 else pred_f)[:1, 2] = 400.0
            if f == 1 and seed % 3 == 1:
                # one very long box, on either side
                (gt_f if seed % 2 else pred_f)[:1, 3] = 400.0
            gt_parts.append(gt_f)
            pred_parts.append(pred_f)
            gt_frame += [f] * len(gt_f)
            pred_frame += [f] * len(pred_f)
        gt, pred = np.vstack(gt_parts), np.vstack(pred_parts)
        gt_frame, pred_frame = np.array(gt_frame, int), np.array(pred_frame, int)
        edges = edge_list(gt, pred, gt_frame, pred_frame, spec)
        g, p, sim = nonzero_entries(gt, pred, gt_frame, pred_frame, spec)
        assert np.array_equal(edges.gt, g) and np.array_equal(edges.pred, p), seed
        assert edges.sim.tobytes() == sim.tobytes(), seed


@st.composite
def framed_footprints(draw):
    """(gt, pred, gt_frame, pred_frame, spec): footprints on a 0.25 m grid
    around one origin of |x| up to 1e9 and |y| up to 1e12, on up to 12
    frames drawn from a million window positions, either side of a frame
    possibly empty, with touching boxes and centres exactly d_max apart."""
    origin = float(draw(st.sampled_from([0, -10**9, 10**9]) | st.integers(-10**9, 10**9)))
    y_origin = float(draw(st.sampled_from([0, -10**12, 10**12]) | st.integers(-10**12, 10**12)))
    labels = sorted(draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=12)))
    spec = draw(st.sampled_from([BEV, CD, SimilaritySpec(mode="center_distance", d_max=1.5)]))
    box = st.tuples(st.integers(-12, 12), st.integers(-4, 4),
                    st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.sampled_from([0.5, 1.0, 2.0]))
    sides = ([], []), ([], [])
    for f in labels:
        for rows, frame in sides:
            for kx, ky, w, l in draw(st.lists(box, max_size=5)):
                rows.append((origin + 0.25 * kx, y_origin + 0.25 * ky, w, l))
                frame.append(f)
    (gt, gt_frame), (pred, pred_frame) = (
        (np.array(rows, float).reshape(-1, 4), np.array(frame, np.int64)) for rows, frame in sides
    )
    return gt, pred, gt_frame, pred_frame, spec


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(framed_footprints())
def test_edge_list_arrays_are_the_nonzero_matrix_entries(case):
    """Far from the origin, at negative x and over sparse window positions,
    the edge list holds exactly the nonzero entries of the per-frame
    matrices, in (GT row, prediction row) order, and keeps the frames."""
    gt, pred, gt_frame, pred_frame, spec = case
    edges = edge_list(gt, pred, gt_frame, pred_frame, spec)
    g, p, sim = nonzero_entries(gt, pred, gt_frame, pred_frame, spec)
    assert edges.gt.tolist() == g.tolist() and edges.pred.tolist() == p.tolist()
    assert edges.sim.tobytes() == sim.tobytes()
    assert edges.gt_frame is gt_frame and edges.pred_frame is pred_frame


@pytest.mark.parametrize("spec", [BEV, SimilaritySpec(mode="center_distance", d_max=1.5)])
def test_edge_list_keeps_its_order_across_block_boundaries(spec, monkeypatch):
    """Each block of candidates is put in final order on its own: with a
    block of 1, 7 or 40 candidates, the scenes of
    test_edge_list_equals_nonzero_matrix_entries give the edges of one
    block, bit for bit."""
    calls = []

    def in_small_blocks(*args):
        whole = matching.edge_list(*args)
        for block in (1, 7, 40):
            with mock.patch.object(matching, "EDGE_BLOCK", block):
                small = matching.edge_list(*args)
            for name in ("gt", "pred", "sim"):
                assert getattr(small, name).tobytes() == getattr(whole, name).tobytes(), block
        calls.append(whole.sim.size)
        return whole

    monkeypatch.setitem(globals(), "edge_list", in_small_blocks)
    test_edge_list_equals_nonzero_matrix_entries(spec)
    assert len(calls) == 40 and sum(calls) > 40


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(framed_footprints())
def test_edge_list_is_the_same_in_either_orientation(case):
    """Swapping x with y and width with length in every footprint leaves the
    edges as they are, (GT row, prediction row, similarity) bit for bit,
    under either similarity."""
    gt, pred, gt_frame, pred_frame, _ = case
    swap = [1, 0, 3, 2]
    for spec in (BEV, CD):
        edges = edge_list(gt, pred, gt_frame, pred_frame, spec)
        turned = edge_list(gt[:, swap], pred[:, swap], gt_frame, pred_frame, spec)
        for name in ("gt", "pred", "sim"):
            assert getattr(turned, name).tobytes() == getattr(edges, name).tobytes(), spec


@pytest.mark.parametrize("spec", [BEV, CD])
def test_edge_list_scores_a_queue_in_linear_work(spec, monkeypatch):
    """1,000 people queueing along x = 0, 1 m apart in y, each with a
    prediction 0.25 m behind: every pair is within x reach, but the y prune
    leaves pair_similarity a small multiple of the edges to score, not the
    10**6 pairs of the frame."""
    y = np.arange(1000.0)
    gt = np.column_stack([np.zeros(1000), y, np.full(1000, 0.6), np.full(1000, 0.6)])
    pred = gt + [0.0, 0.25, 0.0, 0.0]
    frame = np.zeros(1000, int)
    scored = []
    real = matching.pair_similarity

    def counting(g, p, spec):
        scored.append(np.broadcast(*g, *p).size)
        return real(g, p, spec)

    monkeypatch.setattr(matching, "pair_similarity", counting)
    edges = edge_list(gt, pred, frame, frame, spec)
    monkeypatch.undo()
    assert 1000 <= edges.sim.size <= 2000
    assert sum(scored) <= 3 * edges.sim.size
    g, p, sim = nonzero_entries(gt, pred, frame, frame, spec)
    assert np.array_equal(edges.gt, g) and np.array_equal(edges.pred, p)
    assert edges.sim.tobytes() == sim.tobytes()


def test_edge_list_memory_follows_its_blocks():
    """One bev_iou edge_list call over 60,000 GT rows and about 57,000
    predictions holds, beyond its inputs and its edges, only a block's
    scratch: its tracemalloc peak stays under 2.2x the footprints plus the
    edges. Whole-side similarity columns (box edges and areas) built before
    the block loop took it to 2.7x."""
    gt = gen_scene(20, 100.0, 30.0, (-10, -10, 10, 10), seed=1)
    pred = degrade(gt, DegradeSpec(drop_prob=0.05, loc_noise_sigma=0.05, seed=2))
    (g, g_frame), (p, p_frame) = (
        (np.column_stack((t.x, t.y, t.w, t.l)), t.frame) for t in (gt.table, pred.table)
    )
    tracemalloc.start()
    try:
        edges = edge_list(g, p, g_frame, p_frame, BEV)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges.sim.size > g.shape[0]
    held = g.nbytes + p.nbytes + sum(a.nbytes for a in (edges.gt, edges.pred, edges.sim))
    assert peak < 2.2 * held


def test_match_edges_solves_a_frame_only_when_its_pairs_fall_below_the_gate(monkeypatch):
    """Over the alpha grid, the solver runs once per (frame, alpha) at which
    the frame is conflicted and either the alpha is the first or a pair
    matched at the alpha before fell below the gate; every other conflicted
    frame keeps its pairs. Every alpha gives each frame the pairs that
    match_frame gives it alone."""
    alphas = tuple(round(0.05 * i, 2) for i in range(1, 20))
    rng = np.random.default_rng(5)
    frames = [
        tuple([det(*rng.uniform(0, 2, 2), track_id=i) for i in range(int(k))]
              for k in rng.integers(0, 7, size=2))
        for _ in range(40)
    ]

    def side(k):
        dets = [d for frame in frames for d in frame[k]]
        label = np.repeat(np.arange(len(frames)), [len(frame[k]) for frame in frames])
        return matching._footprints(dets), label

    (gt, gt_frame), (pred, pred_frame) = side(0), side(1)
    edges = edge_list(gt, pred, gt_frame, pred_frame, CD)
    solves = kept = 0
    for i, alpha in enumerate(alphas):
        keep = edges.sim >= alpha
        for f, (gt_f, pred_f) in enumerate(frames):
            mine = keep & (gt_frame[edges.gt] == f)
            g, p = edges.gt[mine].tolist(), edges.pred[mine].tolist()
            if len(set(g)) == len(g) and len(set(p)) == len(p):
                continue
            before = match_frame(gt_f, pred_f, alphas[i - 1], CD).pairs if i else ()
            if i == 0 or any(s < alpha for _, _, s in before):
                solves += 1
            else:
                kept += 1
    calls = []
    real = matching.linear_sum_assignment

    def counting(cost):
        calls.append(cost.shape)
        return real(cost)

    monkeypatch.setattr(matching, "linear_sum_assignment", counting)
    matched = list(match_edges(edges, alphas))
    monkeypatch.undo()
    assert solves >= 30 and kept >= 30
    assert len(calls) == solves
    g0 = np.searchsorted(gt_frame, np.arange(len(frames)))
    p0 = np.searchsorted(pred_frame, np.arange(len(frames)))
    for alpha, mask in zip(alphas, matched):
        g, p, sim = edges.gt[mask], edges.pred[mask], edges.sim[mask]
        f = gt_frame[g]
        got = sorted(zip(f.tolist(), (g - g0[f]).tolist(), (p - p0[f]).tolist(), sim.tolist()))
        want = sorted(
            (f, gi, pi, s)
            for f, (gt_f, pred_f) in enumerate(frames)
            for gi, pi, s in match_frame(gt_f, pred_f, alpha, CD).pairs
        )
        assert got == want, alpha


# --- loading the solver ---------------------------------------------------------


def test_solver_loads_without_scipy_optimize_and_is_the_public_function():
    """A fresh process solves without importing scipy.optimize, and a later
    public import hands out the very function that was loaded."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from mtmceval import matching\n"
        "r, c = matching.linear_sum_assignment(np.array([[1.0, 0.0], [0.0, 1.0]]))\n"
        "assert (r.tolist(), c.tolist()) == ([0, 1], [1, 0]), (r, c)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "import scipy.optimize\n"
        "from scipy.optimize import _lsap\n"
        "assert matching._solver() is scipy.optimize.linear_sum_assignment\n"
        "assert _lsap is sys.modules['scipy.optimize._lsap']\n"
    )
    src = str(Path(matching.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_an_extension_that_fails_to_execute_is_not_left_registered():
    """A failed load by file leaves no half-built ``scipy.optimize._lsap`` in
    sys.modules, so the next load starts afresh and solves."""
    script = (
        "import importlib.machinery, sys\n"
        "import numpy as np\n"
        "from mtmceval import matching\n"
        "loader = importlib.machinery.ExtensionFileLoader\n"
        "real = loader.exec_module\n"
        "def failing(self, module):\n"
        "    raise ImportError('cannot execute')\n"
        "loader.exec_module = failing\n"
        "try:\n"
        "    matching._lsap_from_file()\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('the failing load returned')\n"
        "finally:\n"
        "    loader.exec_module = real\n"
        "assert 'scipy.optimize._lsap' not in sys.modules\n"
        "r, c = matching._lsap_from_file().linear_sum_assignment(np.eye(2))\n"
        "assert (r.tolist(), c.tolist()) == ([0, 1], [1, 0]), (r, c)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    src = str(Path(matching.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_usable_cpus_falls_back_to_the_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert matching._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert matching._usable_cpus() == 1


def test_solver_falls_back_to_the_public_import(monkeypatch):
    """When the extension cannot be loaded by file, the solver comes from
    scipy.optimize, and every alpha matches the same pairs."""
    rng = np.random.default_rng(11)
    label = np.repeat(np.arange(30), 4)
    gt, pred = (np.column_stack((rng.uniform(0, 2, (120, 2)), np.full((120, 2), 0.6)))
                for _ in range(2))
    edges = edge_list(gt, pred, label, label, CD)
    alphas = tuple(round(0.1 * i, 1) for i in range(1, 11))
    want = list(match_edges(edges, alphas))
    tried = []

    def broken():
        tried.append(True)
        raise ImportError("no extension here")

    monkeypatch.setattr(matching, "_lsap_from_file", broken)
    matching._solver.cache_clear()
    try:
        got = list(match_edges(edges, alphas))
        fallback = matching._solver()
    finally:
        matching._solver.cache_clear()
    import scipy.optimize

    assert tried == [True]
    assert fallback is scipy.optimize.linear_sum_assignment
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# --- the matcher against a reference ------------------------------------------


def reference_match_edges(edges, alphas):
    """The matcher as it was before frames got a layout: at each alpha, a
    degree test over the gated edges finds the conflicted frames. A frame
    conflicted at the alpha before too, with no more gated edges than there
    and no pair matched there now below the gate, keeps that alpha's pairs;
    every other conflicted frame is solved inline."""
    prev_hard = prev_count = np.empty(0, np.int64)
    prev = np.zeros(edges.sim.size, bool)
    for alpha in alphas:
        mask = edges.sim >= alpha
        lost = set(edges.gt_frame[edges.gt[prev & ~mask]].tolist())
        g, p = edges.gt[mask], edges.pred[mask]
        frame = edges.gt_frame[g]
        clash = (np.bincount(g)[g] > 1) | (np.bincount(p)[p] > 1)
        hard = frame[clash]
        if hard.size:
            hard = hard[np.r_[True, hard[1:] != hard[:-1]]]
            a, b = np.searchsorted(frame, hard, "left"), np.searchsorted(frame, hard, "right")
            same = np.zeros(hard.size, bool)
            if prev_hard.size:
                at = np.minimum(np.searchsorted(prev_hard, hard), prev_hard.size - 1)
                same = (prev_hard[at] == hard) & (prev_count[at] >= b - a)
                same &= [f not in lost for f in hard.tolist()]
            gated = np.flatnonzero(mask)
            for f, k0, k1, keep in zip(hard.tolist(), a.tolist(), b.tolist(), same.tolist()):
                mine = gated[k0:k1]
                if keep:
                    mask[mine] = prev[mine]
                    continue
                (g0, g1), (p0, p1) = (
                    (np.searchsorted(labels, f, "left"), np.searchsorted(labels, f, "right"))
                    for labels in (edges.gt_frame, edges.pred_frame)
                )
                cost = np.zeros((g1 - g0, p1 - p0))
                cost[edges.gt[mine] - g0, edges.pred[mine] - p0] = -edges.sim[mine]
                r, c = matching.linear_sum_assignment(cost)
                won = set(zip((r + g0).tolist(), (c + p0).tolist()))
                pairs = zip(edges.gt[mine].tolist(), edges.pred[mine].tolist())
                mask[mine] = [pair in won for pair in pairs]
            prev_count = b - a
        prev_hard, prev = hard, mask
        yield mask


TIED_SIMS = (0.25, 0.3, 0.5, 0.5, 0.75, 1.0)


@st.composite
def tied_edge_lists(draw):
    """(edges, alphas): frames of up to 7 x 7 rows whose similarities come
    from a handful of values, so exact ties are common; frames with rows but
    no edge, frames of one side only, and rows of a single edge occur.
    Alphas include the similarity values themselves, in any order, repeated
    or descending, or as an ascending chain over the similarity values of
    one conflicted frame (one with a row of two edges), so that the frame's
    matching at one alpha decides what it keeps at the next."""
    gt_frame, pred_frame, cells, conflicted = [], [], [], []
    for f in range(draw(st.integers(1, 8))):
        n, m = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        g0, p0 = len(gt_frame), len(pred_frame)
        gt_frame += [f] * n
        pred_frame += [f] * m
        density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
        mine = [
            (g0 + i, p0 + j, draw(st.sampled_from(TIED_SIMS)))
            for i in range(n)
            for j in range(m)
            if draw(st.floats(0, 1)) < density
        ]
        cells += mine
        g_rows, p_rows = [c[0] for c in mine], [c[1] for c in mine]
        if len(set(g_rows)) < len(g_rows) or len(set(p_rows)) < len(p_rows):
            conflicted.append(sorted({c[2] for c in mine}))
    g, p, sim = np.array(cells, float).reshape(-1, 3).T
    edges = matching.EdgeList(g.astype(np.int64), p.astype(np.int64), sim,
                              np.array(gt_frame, np.int64), np.array(pred_frame, np.int64))
    grid = st.sampled_from(TIED_SIMS + (0.05, 0.2, 0.4, 0.6, 0.95))
    alphas = draw(st.lists(grid, min_size=1, max_size=8))
    order = draw(st.sampled_from(["drawn", "descending", "chain"]))
    if order == "descending":
        alphas = sorted(alphas, reverse=True)
    elif order == "chain" and conflicted:
        chain = draw(st.sampled_from(conflicted))
        alphas = [a for a in chain if draw(st.booleans())] or chain
    return edges, tuple(alphas)


@pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(tied_edge_lists(), st.sampled_from([1, 7, 40, 1 << 16]))
def test_match_edges_equals_the_reference_matcher(pooled, case, block):
    """Every alpha's mask is that of the reference matcher, inline or on
    the thread pool (any matrix size, two CPUs), for any chunk size."""
    edges, alphas = case
    with mock.patch.multiple(matching, EDGE_BLOCK=block, POOL_CELLS=0 if pooled else 1 << 62,
                             _usable_cpus=lambda: 2):
        got = list(match_edges(edges, alphas))
    want = list(reference_match_edges(edges, alphas))
    assert len(got) == len(want) == len(alphas)
    for a, b in zip(got, want):
        assert a.tolist() == b.tolist()


def test_a_tied_frame_keeps_the_matching_of_the_alpha_before():
    """One frame, GT rows 0-5 and prediction rows 0-4, whose gated optimum
    at 0.5 is not unique: GT 5 may take prediction 2 or 3. Both pairs
    matched at 0.3 still clear 0.5, so that matching is optimal there too,
    and the frame keeps it instead of solving its smaller matrix afresh."""
    cells = [(4, 2, 0.3), (4, 4, 0.5), (5, 2, 0.5), (5, 3, 0.5)]
    g, p, sim = np.array(cells).T
    edges = matching.EdgeList(g.astype(np.int64), p.astype(np.int64), sim,
                              np.zeros(6, np.int64), np.zeros(5, np.int64))

    def pairs(mask):
        return list(zip(edges.gt[mask].tolist(), edges.pred[mask].tolist()))

    low, high = match_edges(edges, (0.3, 0.5))
    (alone,) = match_edges(edges, (0.5,))
    assert pairs(low) == pairs(high) == [(4, 4), (5, 3)]
    assert edges.sim[alone].sum() == edges.sim[high].sum() == 1.0


# --- the solver thread pool ---------------------------------------------------


# chunks of a few frames each, so that an alpha's chunks run on both threads
POOLED = dict(POOL_CELLS=0, EDGE_BLOCK=1 << 12, _usable_cpus=lambda: 2)
INLINE = dict(POOL_CELLS=1 << 62, EDGE_BLOCK=1 << 12, _usable_cpus=lambda: 2)


def crowd():
    """30 people in 6 x 6 m over 20 frames with false positives: most frames
    of every gate reach the solver."""
    bounds = (0.0, 0.0, 6.0, 6.0)
    gt = gen_scene(30, 10.0, 2.0, bounds, "constant_velocity", seed=3)
    pred = degrade(gt, DegradeSpec(drop_prob=0.05, loc_noise_sigma=0.2, id_switch_prob=0.05,
                                   fp_rate=3.0, seed=3, fp_bounds=bounds))
    return gt, pred, EvalWindow(gt.frame_indices, f0=2.0)


def solver_threads(patches):
    """class_report of the crowd under ``patches``: the report bytes and the
    names of the threads the solver ran on."""
    names = []
    real = matching.linear_sum_assignment

    def recording(cost):
        names.append(threading.current_thread().name)
        return real(cost)

    gt, pred, window = crowd()
    with mock.patch.multiple(matching, linear_sum_assignment=recording, **patches):
        report = report_to_json(class_report(gt, pred, window, CD))
    return report, set(names)


def test_crowded_report_bytes_are_the_same_pooled_and_inline():
    inline, inline_threads = solver_threads(INLINE)
    pooled, pooled_threads = solver_threads(POOLED)
    assert inline_threads == {threading.current_thread().name}
    assert pooled_threads and all(n.startswith("mtmceval-solve") for n in pooled_threads)
    assert pooled == inline


def test_no_solver_thread_outlives_its_matching():
    """The pool is shut down when class_report is done, when match_frame
    has matched at its one alpha, and when a solve raises."""
    baseline = threading.active_count()
    gt, pred, window = crowd()
    with mock.patch.multiple(matching, **POOLED):
        class_report(gt, pred, window, CD)
        assert threading.active_count() == baseline
        dets = [det(0.1 * i, 0.0, track_id=i) for i in range(4)]
        assert len(match_frame(dets, dets, 0.5, CD).pairs) == 4
        assert threading.active_count() == baseline

        def failing(cost):
            raise RuntimeError("solver failed")

        with mock.patch.object(matching, "linear_sum_assignment", failing):
            with pytest.raises(RuntimeError, match="solver failed"):
                class_report(gt, pred, window, CD)
        assert threading.active_count() == baseline


def test_one_usable_cpu_starts_no_thread():
    started = []
    real = threading.Thread.start

    def counting(thread):
        started.append(thread.name)
        real(thread)

    gt, pred, window = crowd()
    with mock.patch.multiple(matching, POOL_CELLS=0, _usable_cpus=lambda: 1), \
            mock.patch.object(threading.Thread, "start", counting):
        class_report(gt, pred, window, CD)
    assert started == []


def test_pooled_masks_hold_with_more_workers_than_cores_and_fast_switching():
    """Eight solver threads on many small chunks, switching every
    microsecond, give the inline masks."""
    gt, pred, window = crowd()
    views = (_on_window(s.table, window.frames) for s in (gt, pred))
    edges = _class_edges(*views, CD, 0).edges
    alphas = tuple(round(0.05 * i, 2) for i in range(1, 20))
    with mock.patch.multiple(matching, **INLINE):
        want = [m.tolist() for m in match_edges(edges, alphas)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.multiple(matching, EDGE_BLOCK=64, POOL_WORKERS=8,
                                 POOL_CELLS=0, _usable_cpus=lambda: 16):
            for _ in range(3):
                assert [m.tolist() for m in match_edges(edges, alphas)] == want
    finally:
        sys.setswitchinterval(interval)


def test_a_crowded_frame_costs_one_float_per_matrix_cell():
    """One frame of 1,000 people, each predicted 0.15 m off, is solved on
    its whole 1,000 x 1,000 gated matrix at most gates: the cost buffer, 8
    bytes a cell, is all the matching holds per cell, with no index beside
    it mapping a cell back to its edge."""
    rng = np.random.default_rng(0)
    n = 1000
    gt = np.column_stack((rng.uniform(0, 30, (n, 2)), np.full((n, 2), 0.6)))
    pred = gt.copy()
    pred[:, :2] += rng.normal(0, 0.15, (n, 2))
    frame = np.zeros(n, np.int64)
    edges = edge_list(gt, pred, frame, frame, BEV)
    matching._solver()
    with mock.patch.multiple(matching, POOL_CELLS=1 << 62):
        tracemalloc.start()
        try:
            masks = list(match_edges(edges, DEFAULT_ALPHA_GRID))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert masks[0].sum() > 900
    assert peak < 1.5 * 8 * n * n


def test_a_replaced_solver_is_never_entered_by_two_threads():
    """A function put in place of the solver, say one that times each call,
    need not be thread-safe: with the pool running, it is called by one
    thread at a time, and still from the solver threads."""
    inside, most, names = [], [], set()
    real = matching.linear_sum_assignment

    def timing(cost):
        inside.append(1)
        most.append(len(inside))
        names.add(threading.current_thread().name)
        time.sleep(0.0005)
        inside.pop()
        return real(cost)

    gt, pred, window = crowd()
    with mock.patch.multiple(matching, linear_sum_assignment=timing, **POOLED):
        class_report(gt, pred, window, CD)
    assert max(most) == 1
    assert any(n.startswith("mtmceval-solve") for n in names)
