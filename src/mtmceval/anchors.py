"""Anchor-bank regeneration: k-means over ground-truth box centers.

Lloyd iterations from k-means++ seeding (Arthur & Vassilvitskii, SODA 2007)
on raw metric coordinates (all axes share units, so no normalization).
Deterministic for a fixed (points, k, seed). All clusters that are empty
after a step are reseeded to the same point: the one farthest from its
assigned centroid.

The nearest-center step computes the product of all points with all centers
in one matrix multiply, into an (n, k) buffer allocated once per call, so a
call needs about n * k * 8 bytes. The distance sums, the clip to 0 and the
argmin then run on row blocks of about NEAREST_BLOCK cells, which stay in
cache. The product itself is not split into row chunks: BLAS rounds the last
bit of some cells differently when it gets fewer rows, and that can move a
point to another center and change the bank.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .datamodel import Sequence, check_int


@dataclass(frozen=True)
class AnchorBank:
    centers: np.ndarray  # (k, 3) float64
    k: int
    seed: int
    inertia: float
    inertia_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.k != len(self.centers):
            raise ValueError("k must equal the number of centers")
        if self.inertia < 0:
            raise ValueError("inertia must be non-negative")


def collect_centers(gt: Sequence) -> np.ndarray:
    """(x, y, z) center of every GT detection, one row per annotation,
    ordered by (frame, track_id), ties in table order."""
    t = gt.table
    if t.frame.size == 0:
        raise ValueError("ground truth has no detections to collect")
    order = np.lexsort((t.track_id, t.frame))
    return np.column_stack((t.x, t.y, t.z))[order]


# distance cells per row block of the nearest-center step
NEAREST_BLOCK = 1 << 17
# Lloyd steps stop after MAX_ITER steps, or once no centroid moves by TOL
MAX_ITER = 300
TOL = 1e-6


def _nearest(
    points: np.ndarray, pp: np.ndarray, centers: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Index of each point's nearest center, ties to the first, by the
    expanded |p|^2 + |c|^2 - 2 p.c clipped at 0; g is the reused (n, k)
    buffer of the product."""
    n, k = g.shape
    cc = (centers**2).sum(axis=1)
    np.matmul(2.0 * points, centers.T, out=g)
    rows = max(1, NEAREST_BLOCK // k)
    buf = np.empty((min(rows, n), k))
    labels = np.empty(n, dtype=np.intp)
    for s in range(0, n, rows):
        e = min(s + rows, n)
        t = buf[: e - s]
        np.add(pp[s:e, None], cc, out=t)
        np.subtract(t, g[s:e], out=t)
        np.maximum(t, 0.0, out=t)
        t.argmin(axis=1, out=labels[s:e])
    return labels


def _kmeans_pp_init(cols: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding from the (3, n) coordinate columns."""
    x, y, z = cols
    n = len(x)
    centers = np.empty((k, 3))
    d2 = np.full(n, np.inf)
    idx = rng.integers(n)
    for i in range(k):
        if i:
            total = d2.sum()
            if total <= 0:
                idx = rng.integers(n)
            else:
                # what rng.choice(n, p=d2 / total) does for one draw,
                # without its checks and copies of p
                cdf = np.cumsum(d2 / total)
                cdf /= cdf[-1]
                idx = cdf.searchsorted(rng.random(), side="right")
        cx, cy, cz = cols[:, idx]
        centers[i] = cx, cy, cz
        # summed in the order of a row sum over (x, y, z)
        d = (x - cx) ** 2
        d += (y - cy) ** 2
        d += (z - cz) ** 2
        np.minimum(d2, d, out=d2)
    return centers


def kmeans(
    points: np.ndarray | list[tuple[float, float, float]],
    k: int,
    seed: int = 0,
) -> AnchorBank:
    """Seeded k-means returning the anchor bank with its inertia history.

    Stops when the largest centroid movement drops below TOL or after
    MAX_ITER Lloyd iterations; the recorded inertia sequence is
    non-increasing.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must be an (n, 3) array")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    check_int("k", k, low=1)
    n = len(points)
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(seed)
    cols = np.ascontiguousarray(points.T)
    centers = _kmeans_pp_init(cols, k, rng)
    pp = (points**2).sum(axis=1)
    g = np.empty((n, k))
    history: list[float] = []
    for _ in range(MAX_ITER):
        labels = _nearest(points, pp, centers, g)
        assigned = ((points - centers[labels]) ** 2).sum(axis=1)
        history.append(float(assigned.sum()))
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=c, minlength=k) for c in cols], axis=1)
        new_centers = sums / np.maximum(counts, 1)[:, None]
        # every empty cluster takes the one point farthest from its centroid
        new_centers[counts == 0] = points[assigned.argmax()]
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift < TOL:
            break
    labels = _nearest(points, pp, centers, g)
    inertia = float(((points - centers[labels]) ** 2).sum())
    history.append(inertia)
    return AnchorBank(
        centers=centers,
        k=k,
        seed=seed,
        inertia=inertia,
        inertia_history=tuple(history),
    )


def emit_anchor_bank(bank: AnchorBank, sink: TextIO) -> int:
    """Write the bank as CSV x,y,z rows under a metadata header comment."""
    sink.write(f"# k={bank.k}, seed={bank.seed}, inertia={bank.inertia!r}\n")
    sink.write("# x,y,z\n")
    for x, y, z in bank.centers:
        sink.write(f"{float(x)!r},{float(y)!r},{float(z)!r}\n")
    return bank.k


def parse_anchor_bank(stream: TextIO | str) -> AnchorBank:
    """Round-trip parse of emit_anchor_bank output."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    k = seed = None
    inertia = None
    rows: list[tuple[float, float, float]] = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "k=" in line and "inertia=" in line:
                meta = dict(
                    part.strip().split("=", 1)
                    for part in line.lstrip("# ").split(",")
                    if "=" in part
                )
                k = int(meta["k"])
                seed = int(meta["seed"])
                inertia = float(meta["inertia"])
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {line_no}: expected 3 columns, got {len(parts)}")
        try:
            rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError:
            raise ValueError(f"line {line_no}: malformed number") from None
    if k is None or seed is None or inertia is None:
        raise ValueError("missing anchor-bank header (k, seed, inertia)")
    if len(rows) != k:
        raise ValueError(f"header says k={k} but file has {len(rows)} rows")
    return AnchorBank(
        centers=np.array(rows, dtype=float), k=k, seed=seed, inertia=inertia
    )
