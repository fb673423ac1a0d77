import hashlib
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtmceval import anchors
from mtmceval.anchors import (
    AnchorBank,
    collect_centers,
    emit_anchor_bank,
    kmeans,
    parse_anchor_bank,
)
from mtmceval.datamodel import Box3D, Detection, make_sequence


def det(x, y, z, track_id):
    return Detection(
        box=Box3D(x, y, z, 0.6, 0.6, 1.8),
        class_id=0,
        confidence=1.0,
        track_id=track_id,
    )


def test_collect_centers_counts_and_order():
    seq = make_sequence(
        {
            0: [det(1.0, 2.0, 0.9, 5), det(-1.0, 0.0, 0.9, 2)],
            3: [det(4.0, 4.0, 0.9, 2)],
        },
        native_fps=1.0,
    )
    pts = collect_centers(seq)
    assert pts.shape == (3, 3)
    # ordered by (frame, track_id)
    np.testing.assert_allclose(pts[0], [-1.0, 0.0, 0.9])
    np.testing.assert_allclose(pts[1], [1.0, 2.0, 0.9])
    np.testing.assert_allclose(pts[2], [4.0, 4.0, 0.9])


def test_collect_centers_empty_errors():
    with pytest.raises(ValueError):
        collect_centers(make_sequence({}, native_fps=1.0))


def test_kmeans_k_equals_n_zero_inertia():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0], [3, 3, 3]])
    bank = kmeans(pts, k=4, seed=0)
    assert bank.inertia == 0.0
    assert sorted(map(tuple, bank.centers)) == sorted(map(tuple, pts))


def test_kmeans_two_blobs_recovers_means():
    rng = np.random.default_rng(0)
    a = rng.normal([0, 0, 0], 0.05, size=(200, 3))
    b = rng.normal([10, 10, 10], 0.05, size=(200, 3))
    pts = np.vstack([a, b])
    bank = kmeans(pts, k=2, seed=7)
    centers = sorted(map(tuple, bank.centers))
    np.testing.assert_allclose(centers[0], a.mean(axis=0), atol=1e-9)
    np.testing.assert_allclose(centers[1], b.mean(axis=0), atol=1e-9)


def test_kmeans_deterministic_for_seed():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-5, 5, size=(500, 3))
    b1 = kmeans(pts, k=20, seed=3)
    b2 = kmeans(pts, k=20, seed=3)
    np.testing.assert_array_equal(b1.centers, b2.centers)
    assert b1.inertia == b2.inertia
    assert b1.inertia_history == b2.inertia_history


def test_kmeans_inertia_history_non_increasing():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-5, 5, size=(800, 3))
    for seed in range(5):
        hist = kmeans(pts, k=25, seed=seed).inertia_history
        assert len(hist) >= 1
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_kmeans_centers_inside_bounding_box():
    rng = np.random.default_rng(3)
    pts = rng.uniform([-2, -9, 0], [9, 3, 2], size=(1000, 3))
    bank = kmeans(pts, k=50, seed=0)
    assert (bank.centers >= pts.min(axis=0) - 1e-12).all()
    assert (bank.centers <= pts.max(axis=0) + 1e-12).all()


def test_kmeans_local_optimality():
    # at convergence each center is the mean of its assigned points
    rng = np.random.default_rng(4)
    pts = rng.uniform(-5, 5, size=(400, 3))
    bank = kmeans(pts, k=10, seed=1)
    d2 = ((pts[:, None, :] - bank.centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    for j in range(10):
        mask = labels == j
        if mask.any():
            np.testing.assert_allclose(
                bank.centers[j], pts[mask].mean(axis=0), atol=1e-5
            )


def test_kmeans_validates_arguments():
    pts = np.zeros((3, 3))
    with pytest.raises(ValueError):
        kmeans(pts, k=0)
    with pytest.raises(ValueError):
        kmeans(pts, k=4)
    with pytest.raises(ValueError):
        kmeans(np.zeros(5), k=1)
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        kmeans(np.zeros((5, 2)), k=1)


def test_emit_parse_roundtrip():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(120, 3))
    bank = kmeans(pts, k=9, seed=42)
    buf = io.StringIO()
    assert emit_anchor_bank(bank, buf) == 9
    back = parse_anchor_bank(buf.getvalue())
    assert back.k == 9
    assert back.seed == 42
    assert back.inertia == bank.inertia
    np.testing.assert_array_equal(back.centers, bank.centers)


def test_parsed_inertia_matches_recompute():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-3, 3, size=(200, 3))
    bank = kmeans(pts, k=15, seed=0)
    buf = io.StringIO()
    emit_anchor_bank(bank, buf)
    back = parse_anchor_bank(buf.getvalue())
    d2 = ((pts[:, None, :] - back.centers[None, :, :]) ** 2).sum(axis=2)
    assert back.inertia == pytest.approx(d2.min(axis=1).sum(), abs=1e-9)


def test_parse_rejects_bad_files():
    with pytest.raises(ValueError, match="header"):
        parse_anchor_bank("1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="rows"):
        parse_anchor_bank("# k=2, seed=0, inertia=0.0\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_anchor_bank("# k=1, seed=0, inertia=0.0\n1.0,x,3.0\n")


def test_parse_names_the_line_of_a_row_with_the_wrong_column_count():
    with pytest.raises(ValueError, match="^line 3: expected 3 columns, got 2$"):
        parse_anchor_bank("# k=1, seed=0, inertia=0.0\n\n1.0,2.0\n")


def test_anchor_bank_validates():
    with pytest.raises(ValueError):
        AnchorBank(centers=np.zeros((2, 3)), k=3, seed=0, inertia=0.0)
    with pytest.raises(ValueError):
        AnchorBank(centers=np.zeros((2, 3)), k=2, seed=0, inertia=-1.0)


def test_kmeans_rejects_non_integer_k():
    pts = np.zeros((5, 3))
    for k in (2.0, np.float64(2.0), True, "2", None):
        with pytest.raises(ValueError, match="^k must be an integer"):
            kmeans(pts, k=k)
    assert kmeans(pts, k=np.int64(2)).k == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_points(bad):
    pts = np.arange(15.0).reshape(5, 3)
    pts[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^points must be finite$"):
            kmeans(pts, k=2)


def _rows_not_multiple():
    # 1000 points: not a multiple of the default block's 436 rows at k = 300
    rng = np.random.default_rng(11)
    return rng.uniform(-10, 10, (1000, 3)), 300, 0


def _k_above_block():
    # with the block patched below k cells, every block is one row
    rng = np.random.default_rng(12)
    return rng.normal(0, 3, (500, 3)), 100, 1


def _empty_reseed():
    # 8 distinct points for k = 12: the seeding repeats centers, whose
    # duplicates win no point and are reseeded
    rng = np.random.default_rng(6)
    base = rng.uniform(-5, 5, (8, 3))
    return base[rng.integers(8, size=60)], 12, 0


def _far_duplicates():
    # duplicated points 3e7 from the origin: the expanded distance cancels
    # below 0 for many pairs, so the clip to 0 and the first-center tie-break
    # decide the labels, and clusters empty and are reseeded for 109 steps
    rng = np.random.default_rng(7)
    base = rng.uniform(-1, 1, (60, 3)) + np.array([3e7, -1.5e7, 1e7])
    return base[rng.integers(60, size=100)], 10, 0


# SHA-256 of emit_anchor_bank output followed by repr(inertia_history), taken
# from the k-means that built the whole (n, k) distance matrix at every step
BANK_DIGESTS = {
    _rows_not_multiple: "d718c4cf0e4df231cfe6de0df6e4be9a7f779578bf5da5d32e1e979aa0be0a02",
    _k_above_block: "669b6a38a91d1017d59d467da789f1d63b1229111233afdbd3f83a4b3dd276b3",
    _empty_reseed: "c59674ac410b9891ddbe551550fa5714256e88d0babd583fdacd082cee474e73",
    _far_duplicates: "cc0521cad1e4f521df415139f7794f3d3edfec98a0b4dea7bc7b370880da9b37",
}


@pytest.mark.parametrize("cells", [None, 64, 1000])
@pytest.mark.parametrize("case", list(BANK_DIGESTS), ids=lambda f: f.__name__.strip("_"))
def test_bank_bytes_are_pinned_for_any_block_size(monkeypatch, case, cells):
    if cells is not None:
        monkeypatch.setattr(anchors, "NEAREST_BLOCK", cells)
    points, k, seed = case()
    bank = kmeans(points, k=k, seed=seed)
    sink = io.StringIO()
    emit_anchor_bank(bank, sink)
    text = sink.getvalue() + repr(bank.inertia_history)
    assert hashlib.sha256(text.encode()).hexdigest() == BANK_DIGESTS[case]


def test_every_empty_cluster_takes_the_same_farthest_point():
    points, k, seed = _empty_reseed()
    bank = kmeans(points, k=k, seed=seed)
    # 8 distinct points for 12 centers: the 4 seeded last win no point at
    # any step, and each step reseeds all of them to one point
    n_distinct = len(np.unique(points, axis=0))
    surplus = bank.centers[n_distinct:]
    assert len(surplus) == k - n_distinct == 4
    assert (surplus == surplus[0]).all()
    assert (points == surplus[0]).all(axis=1).any()


def test_kmeans_peak_memory_stays_near_one_distance_matrix():
    rng = np.random.default_rng(8)
    points = rng.uniform(-10, 10, (4000, 3))
    k = 300
    tracemalloc.start()
    try:
        kmeans(points, k=k, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(points) * k * 8


# --- input bounds --------------------------------------------------------------


def test_kmeans_refuses_coordinates_whose_squares_overflow():
    pts = np.array([[1e160, 0.0, 0.9], [-1e160, 0.0, 0.9], [0.0, 1.0, 0.9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"1e\+150"):
            kmeans(pts, k=2)


def test_kmeans_accepts_coordinates_at_the_bound():
    pts = np.array([[1e150, -1e150, 1e150], [-1e150, 1e150, -1e150], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bank = kmeans(pts, k=2, seed=0)
    assert np.isfinite(bank.centers).all() and np.isfinite(bank.inertia)


@pytest.mark.parametrize(
    "text, match",
    [
        ("# k=1, inertia=0.0\n1.0,2.0,3.0\n", "no seed="),
        ("# k=1, seed=0\n1.0,2.0,3.0\n", "no inertia="),
        ("# seed=0, inertia=0.0\n1.0,2.0,3.0\n", "no k="),
        ("# k=1, seed=0, inertia=nan\n1.0,2.0,3.0\n", "inertia"),
        ("# k=1, seed=0, inertia=inf\n1.0,2.0,3.0\n", "inertia"),
        ("# k=1, seed=0, inertia=0.0\n1.0,inf,3.0\n", "finite"),
        ("# k=1, seed=0, inertia=0.0\nnan,2.0,3.0\n", "finite"),
        ("# k=0, seed=0, inertia=0.0\n", "k must be"),
        ("# k=abc, seed=0, inertia=0.0\n", "^line 1: anchor-bank header k=abc is not an integer$"),
        ("# k=1.5, seed=0, inertia=0.0\n", "^line 1: anchor-bank header k=1.5 is not an integer$"),
        ("\n# k=1, seed=x, inertia=0.0\n", "^line 2: anchor-bank header seed=x is not an integer$"),
        ("# k=1, seed=0, inertia=zz\n", "^line 1: anchor-bank header inertia=zz is not a number$"),
        ("# k=1, seed=0, inertia=0.0\n# x,y,z\n# k=2, seed=0, inertia=0.0\n1.0,2.0,3.0\n",
         "^line 3: a second anchor-bank header$"),
    ],
    ids=["no-seed", "no-inertia", "no-k", "nan-inertia", "inf-inertia", "inf-coordinate",
         "nan-coordinate", "k-0", "k-not-a-number", "k-not-an-integer", "seed-not-a-number",
         "inertia-not-a-number", "second-header"],
)
def test_parse_rejects_broken_banks(text, match):
    with pytest.raises(ValueError, match=match):
        parse_anchor_bank(text)


@pytest.mark.parametrize(
    "centers, k, inertia",
    [
        (np.zeros((0, 3)), 0, 0.0),
        (np.zeros(0), 0, 0.0),
        (np.zeros((2, 2)), 2, 0.0),
        (np.array([[0.0, np.nan, 0.0]]), 1, 0.0),
        (np.zeros((1, 3)), 1, np.nan),
        (np.zeros((1, 3)), 1, np.inf),
    ],
    ids=["k-0", "k-0-flat", "two-columns", "nan-center", "nan-inertia", "inf-inertia"],
)
def test_anchor_bank_refuses_broken_fields(centers, k, inertia):
    with pytest.raises(ValueError):
        AnchorBank(centers=centers, k=k, seed=0, inertia=inertia)


# --- incremental nearest-center step -----------------------------------------


def _reference_kmeans(points, k, seed):
    """The Lloyd loop that evaluates every point against every center at
    every step: the one product, then every cell of every row block."""
    points = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)
    cols = np.ascontiguousarray(points.T)
    centers = anchors._kmeans_pp_init(cols, k, rng)
    pp = (points**2).sum(axis=1)
    n = len(points)
    g = np.empty((n, k))

    def nearest(centers):
        cc = (centers**2).sum(axis=1)
        np.matmul(2.0 * points, centers.T, out=g)
        rows = max(1, anchors.NEAREST_BLOCK // k)
        labels = np.empty(n, dtype=np.intp)
        for s in range(0, n, rows):
            e = min(s + rows, n)
            t = pp[s:e, None] + cc
            np.subtract(t, g[s:e], out=t)
            np.maximum(t, 0.0, out=t)
            t.argmin(axis=1, out=labels[s:e])
        return labels

    history = []
    for _ in range(anchors.MAX_ITER):
        labels = nearest(centers)
        assigned = ((points - centers[labels]) ** 2).sum(axis=1)
        history.append(float(assigned.sum()))
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=c, minlength=k) for c in cols], axis=1)
        new_centers = sums / np.maximum(counts, 1)[:, None]
        new_centers[counts == 0] = points[assigned.argmax()]
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift < anchors.TOL:
            break
    labels = nearest(centers)
    history.append(float(((points - centers[labels]) ** 2).sum()))
    return centers, tuple(history)


def _assert_matches_reference(points, k, seed):
    bank = kmeans(points, k=k, seed=seed)
    centers, history = _reference_kmeans(points, k, seed)
    assert bank.centers.tobytes() == centers.tobytes()
    assert bank.inertia_history == history


def _lattice(rng):
    # integer lattice points: many exact distance ties between centers
    return rng.integers(-4, 5, (300, 3)).astype(float), 40


def _duplicated(rng):
    base = rng.uniform(-5, 5, (50, 3))
    return base[rng.integers(50, size=400)], 30


def _far_duplicated(rng):
    # 3e7 from the origin the expanded distance cancels below 0 and the clip
    # to 0 with the first-center tie-break decides the labels
    base = rng.uniform(-1, 1, (40, 3)) + np.array([3e7, -1.5e7, 1e7])
    return base[rng.integers(40, size=200)], 12


def _reseeded(rng):
    # fewer distinct points than centers: empty clusters are reseeded
    base = rng.uniform(-5, 5, (9, 3))
    return base[rng.integers(9, size=80)], 14


def _floor_grid(rng):
    # centers on a 2.5 cm floor grid at one height, as gen-anchors sees them
    cells = rng.integers(0, [480, 1440], (1500, 2))
    xy = np.array([-3.0, -9.0]) + 0.025 * cells
    return np.column_stack([xy, np.full(len(xy), 0.9)]), 120


@pytest.mark.parametrize("cells", [None, 5, 257])
@pytest.mark.parametrize(
    "case", [_lattice, _duplicated, _far_duplicated, _reseeded, _floor_grid],
    ids=lambda f: f.__name__.strip("_"),
)
def test_kmeans_equals_the_whole_pass_reference(monkeypatch, case, cells):
    if cells is not None:
        monkeypatch.setattr(anchors, "NEAREST_BLOCK", cells)
    for seed in range(3):
        points, k = case(np.random.default_rng(seed))
        _assert_matches_reference(points, k, seed)


@st.composite
def _point_sets(draw):
    n = draw(st.integers(1, 40))
    distinct = draw(st.integers(1, n))
    base = np.array(
        draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=distinct, max_size=distinct)),
        dtype=float,
    )
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 0.5, 0.1]))
    offset = draw(st.sampled_from([0.0, 3e7]))
    k = draw(st.integers(1, n))
    return base[picks] * scale + offset, k, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_point_sets(), st.sampled_from([None, 1, 3, 16]))
def test_kmeans_equals_the_whole_pass_reference_on_any_tied_set(case, cells):
    points, k, seed = case
    saved = anchors.NEAREST_BLOCK
    if cells is not None:
        anchors.NEAREST_BLOCK = cells
    try:
        _assert_matches_reference(points, k, seed)
    finally:
        anchors.NEAREST_BLOCK = saved


def test_late_steps_evaluate_only_the_moved_centers_cells(monkeypatch):
    points, k = _floor_grid(np.random.default_rng(9))
    n = len(points)
    cells = []
    monkeypatch.setattr(anchors, "_cells", cells.append)
    bank = kmeans(points, k=k, seed=0)
    # one pass per Lloyd step and one final relabel
    assert len(cells) == len(bank.inertia_history) < anchors.MAX_ITER
    assert cells[0] == n * k
    # the last three Lloyd steps move a few centers each
    assert len(cells) > 4 and max(cells[-4:-1]) < n * k / 8
    # the loop stopped on a step that moved no center: nothing to relabel
    assert cells[-1] == 0
