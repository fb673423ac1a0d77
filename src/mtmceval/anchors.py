"""Anchor-bank regeneration: k-means over ground-truth box centers.

Lloyd iterations from k-means++ seeding on raw metric coordinates (all axes
share units, so no normalization). Deterministic for a fixed
(points, k, seed); empty clusters are reseeded to the point farthest from its
current centroid.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .datamodel import Sequence


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


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # |p - c|^2 via the expanded form; clip tiny negatives from cancellation
    d2 = (
        (points**2).sum(axis=1)[:, None]
        + (centers**2).sum(axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    return np.maximum(d2, 0.0)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = points[idx]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def kmeans(
    points: np.ndarray | list[tuple[float, float, float]],
    k: int,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> AnchorBank:
    """Seeded k-means returning the anchor bank with its inertia history.

    Stops when the largest centroid movement drops below tol or after
    max_iter Lloyd iterations; the recorded inertia sequence is
    non-increasing.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(points) < k:
        raise ValueError(f"need at least k={k} points, got {len(points)}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(points, k, rng)
    history: list[float] = []
    labels = np.zeros(len(points), dtype=int)
    for _ in range(max_iter):
        d2 = _sq_dists(points, centers)
        labels = d2.argmin(axis=1)
        assigned = ((points - centers[labels]) ** 2).sum(axis=1)
        history.append(float(assigned.sum()))
        counts = np.bincount(labels, minlength=k)
        sums = np.stack(
            [np.bincount(labels, weights=col, minlength=k) for col in points.T], axis=1
        )
        new_centers = sums / np.maximum(counts, 1)[:, None]
        # reseed an empty cluster to the point farthest from its assigned centroid
        new_centers[counts == 0] = points[assigned.argmax()]
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift < tol:
            break
    labels = _sq_dists(points, centers).argmin(axis=1)
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
