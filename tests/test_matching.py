import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mtmceval import matching
from mtmceval.datamodel import Box3D, Detection
from mtmceval.matching import (
    FrameMatchSet,
    SimilaritySpec,
    edge_list,
    hungarian,
    match_edges,
    match_frame,
    similarity_matrix,
)

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


def grid_footprints(rng, n, origin):
    """n footprints on a 0.25 m grid around x = origin: exact at any origin
    up to 1e12, so boxes touch exactly and centres lie exactly d_max apart."""
    return np.column_stack([
        origin + 0.25 * rng.integers(-12, 13, n),
        0.25 * rng.integers(-4, 5, n),
        rng.choice([0.5, 1.0, 1.5, 2.0], n),
        rng.choice([0.5, 1.0, 2.0], n),
    ]).reshape(-1, 4)


def nonzero_entries(gt, pred, gt_frame, pred_frame, spec):
    """(GT row, prediction row, similarity) of every nonzero entry of each
    frame's full similarity matrix, in (GT row, prediction row) order."""
    parts = []
    for f in range(1 + max(gt_frame.max(initial=0), pred_frame.max(initial=0))):
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
    for seed in range(40):
        rng = np.random.default_rng([seed, 11])
        origin = [0.0, 1e3, -1e6, 1e12, -1e12][seed % 5]
        gt_parts, pred_parts, gt_frame, pred_frame = [], [], [], []
        for f in range(int(rng.integers(1, 6))):
            # either side may be empty on a frame
            gt_f = grid_footprints(rng, int(rng.integers(0, 6)), origin)
            pred_f = grid_footprints(rng, int(rng.integers(0, 6)), origin)
            if gt_f.size and pred_f.size:
                # a prediction just inside the reach of the first GT row, and
                # one exactly at it (touching boxes or centres d_max apart)
                g = gt_f[0]
                at = g[0] + (reach or (g[2] + pred_f[0, 2]) / 2)
                pred_f = np.vstack([pred_f, [at, g[1], *pred_f[0, 2:]],
                                    [np.nextafter(at, -np.inf), g[1], *pred_f[0, 2:]]])
            if f == 1 and seed % 3 == 0:
                # one very wide box, on either side
                (gt_f if seed % 2 else pred_f)[:1, 2] = 400.0
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


def test_match_edges_solves_each_distinct_matrix_once(monkeypatch):
    """Over the alpha grid, the solver runs once per distinct (frame, gated
    edge set) of a conflicted frame, and every alpha gives each frame the
    pairs that match_frame gives it alone."""
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
    distinct = set()
    for alpha in alphas:
        keep = edges.sim >= alpha
        for f in range(len(frames)):
            mine = keep & (gt_frame[edges.gt] == f)
            g, p = edges.gt[mine].tolist(), edges.pred[mine].tolist()
            if len(set(g)) < len(g) or len(set(p)) < len(p):
                distinct.add((f, tuple(zip(g, p))))
    calls = []
    real = matching.linear_sum_assignment

    def counting(cost):
        calls.append(cost.shape)
        return real(cost)

    monkeypatch.setattr(matching, "linear_sum_assignment", counting)
    matched = list(match_edges(edges, alphas))
    monkeypatch.undo()
    assert len(distinct) >= 30
    assert len(calls) == len(distinct)
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
