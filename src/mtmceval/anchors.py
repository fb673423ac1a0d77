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

Each step after the first evaluates only the cells that can change a label.
A product of one shape rounds each cell from its own point and center alone,
so a center whose bits did not change keeps every cell of its column, bit
for bit. A point whose own center stayed was labelled with the first minimum
over all columns, so that center is still the first minimum over the columns
that stayed; the point keeps its old value and meets only the moved columns,
and a moved column takes it when it is lower, or equal with a lower index. A
point whose own center moved gets its whole row. The labels, the centers and
the inertia history are therefore those of a pass over every cell, which is
still what the first step does, and every step once the moved columns and
the redone rows would cover more than WHOLE_PASS of the cells. A step that
moves no center needs no relabel.

Coordinates are limited to COORD_LIMIT in magnitude, so that squares,
products and their sums stay finite and no label is picked from a NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .datamodel import Sequence, check_int
from .ingest import TextInput, _lines


@dataclass(frozen=True)
class AnchorBank:
    centers: np.ndarray  # (k, 3) float64
    k: int
    seed: int
    inertia: float
    inertia_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        check_int("k", self.k, low=1)
        if np.shape(self.centers) != (self.k, 3):
            raise ValueError(
                f"centers must be a (k, 3) array with k={self.k}, got shape "
                f"{np.shape(self.centers)}"
            )
        if not np.isfinite(self.centers).all():
            raise ValueError("centers must be finite")
        if not (math.isfinite(self.inertia) and self.inertia >= 0):
            raise ValueError(f"inertia must be finite and non-negative, got {self.inertia!r}")


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
# a step redoes every row once the cells it would evaluate exceed this share
# of the n * k cells
WHOLE_PASS = 0.6
# Lloyd steps stop after MAX_ITER steps, or once no centroid moves by TOL
MAX_ITER = 300
TOL = 1e-6
# largest |coordinate| that kmeans accepts
COORD_LIMIT = 1e150


def _cells(count: int) -> None:
    """Receives the number of distance cells each nearest-center pass
    evaluates; tests replace it to see which passes were incremental."""


def _nearest(
    points: np.ndarray,
    pp: np.ndarray,
    centers: np.ndarray,
    g: np.ndarray,
    labels: np.ndarray | None = None,
    moved: np.ndarray | None = None,
) -> np.ndarray:
    """Index of each point's nearest center, ties to the first, by the
    expanded |p|^2 + |c|^2 - 2 p.c clipped at 0; g is the reused (n, k)
    buffer of the product.

    labels are the nearest centers before the centers flagged in moved took
    their current values (None: no earlier pass). They are updated in place
    and returned. A point whose own center stayed keeps the value of that
    cell, which was its first minimum, and meets only the moved columns;
    a point whose center moved gets its whole row, and so does every point
    on the first pass or once that is cheaper."""
    n, k = g.shape
    if labels is None:
        labels = np.zeros(n, dtype=np.intp)
        moved = np.ones(k, dtype=bool)
    cols = np.flatnonzero(moved)
    if not cols.size:
        _cells(0)
        return labels
    cc = (centers**2).sum(axis=1)
    np.matmul(2.0 * points, centers.T, out=g)
    redo = moved[labels]
    if cols.size * n + np.count_nonzero(redo) * k > WHOLE_PASS * n * k:
        redo[:] = True
    # two row blocks of scratch cells, shared by both loops
    work = np.empty((2, max(NEAREST_BLOCK, k)))
    cells = 0
    if not redo.all():
        # the old cell against the moved columns; rows being redone are
        # overwritten below
        old = np.maximum((pp + cc[labels]) - g[np.arange(n), labels], 0.0)
        ccm = cc[cols]
        rows = max(1, NEAREST_BLOCK // cols.size)
        for s in range(0, n, rows):
            e = min(s + rows, n)
            t, u = work[:, : (e - s) * cols.size].reshape(2, e - s, cols.size)
            np.add(pp[s:e, None], ccm, out=t)
            # mode="clip" lets take write to u unbuffered; no index is out of range
            np.subtract(t, np.take(g[s:e], cols, axis=1, out=u, mode="clip"), out=t)
            np.maximum(t, 0.0, out=t)
            j = t.argmin(axis=1)
            d = np.take_along_axis(t, j[:, None], axis=1)[:, 0]
            c = cols[j]
            lab = labels[s:e]
            win = (d < old[s:e]) | ((d == old[s:e]) & (c < lab))
            np.copyto(lab, c, where=win)
        cells += n * cols.size
    idx = np.flatnonzero(redo)
    rows = max(1, NEAREST_BLOCK // k)
    for s in range(0, idx.size, rows):
        r = idx[s : s + rows]
        t, u = work[:, : r.size * k].reshape(2, r.size, k)
        if r[-1] - r[0] == r.size - 1:  # a run of rows is read in place
            r = slice(r[0], r[-1] + 1)
            u = g[r]
        else:
            np.take(g, r, axis=0, out=u, mode="clip")
        np.add(pp[r, None], cc, out=t)
        np.subtract(t, u, out=t)
        np.maximum(t, 0.0, out=t)
        labels[r] = t.argmin(axis=1)
    _cells(cells + idx.size * k)
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
    if (np.abs(points) > COORD_LIMIT).any():
        raise ValueError(
            f"point coordinates must be at most {COORD_LIMIT:g} in magnitude, "
            "so that squared distances stay finite"
        )
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
    labels = moved = None
    for _ in range(MAX_ITER):
        labels = _nearest(points, pp, centers, g, labels, moved)
        assigned = ((points - centers[labels]) ** 2).sum(axis=1)
        history.append(float(assigned.sum()))
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=c, minlength=k) for c in cols], axis=1)
        new_centers = sums / np.maximum(counts, 1)[:, None]
        # every empty cluster takes the one point farthest from its centroid
        new_centers[counts == 0] = points[assigned.argmax()]
        shift = float(np.abs(new_centers - centers).max())
        # a center equal to its old self keeps every cell's distance
        moved = (new_centers != centers).any(axis=1)
        centers = new_centers
        if shift < TOL:
            break
    labels = _nearest(points, pp, centers, g, labels, moved)
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


def parse_anchor_bank(stream: TextInput) -> AnchorBank:
    """Round-trip parse of emit_anchor_bank output, under the input and line
    rules of the ``ingest`` module docstring; of its '#' lines, the one that
    carries k=, seed= and inertia= is the header."""
    k = seed = inertia = None
    rows: list[tuple[float, float, float]] = []
    for line_no, raw in enumerate(_lines(stream), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            meta = dict(
                part.strip().split("=", 1) for part in line.lstrip("# ").split(",") if "=" in part
            )
            if meta.keys() & {"k", "seed", "inertia"}:
                if k is not None:
                    raise ValueError(f"line {line_no}: a second anchor-bank header")
                values = []
                for key, kind in (("k", int), ("seed", int), ("inertia", float)):
                    if key not in meta:
                        raise ValueError(f"line {line_no}: anchor-bank header has no {key}=")
                    try:
                        values.append(kind(meta[key]))
                    except ValueError:
                        what = "an integer" if kind is int else "a number"
                        raise ValueError(
                            f"line {line_no}: anchor-bank header {key}={meta[key]} is not {what}"
                        ) from None
                k, seed, inertia = values
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {line_no}: expected 3 columns, got {len(parts)}")
        try:
            rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError:
            raise ValueError(f"line {line_no}: malformed number") from None
    if k is None:
        raise ValueError("missing anchor-bank header (k, seed, inertia)")
    if len(rows) != k:
        raise ValueError(f"header says k={k} but file has {len(rows)} rows")
    return AnchorBank(
        centers=np.array(rows, dtype=float), k=k, seed=seed, inertia=inertia
    )
