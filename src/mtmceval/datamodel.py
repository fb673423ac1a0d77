"""Core value types shared by every module.

A Sequence stores its detections as one TrackTable and nothing else: a
struct of arrays with one row per detection, rows grouped by ascending frame
in input order, plus the frame-index array and per-frame row offsets, so a
frame without rows survives; a row's frame is derived from those two, never
stored. Every reader hands its 1-D columns to ``table_from_columns``. Box3D
and Detection are only the per-row view of that table, built by
``_frames_from_table`` when a caller walks ``Sequence.frames``; a Sequence
built from Detection objects converts them at construction and keeps no
reference to them. The row rules live once, in ``_row_rules``, for
validate_sequence and the track CSV row check alike. A repeated identity is
decided once too, by the table's duplicate mask ``TrackTable.repeat``: a row
with a track id repeats when an earlier row at the same frame index, in any
entry of the frame list, carries its (track_id, class_id). The row rules and
``ingest.estimate_velocities`` read that mask.
An EvalWindow likewise stores its frames once, as a sorted int64 array.
Frame indices and ids are integers in [-2**63, 2**63): a constructor refuses
any other value, a bool, float or string included, rather than truncate it,
and negative values stay representable for validate_sequence to report.
Timestamps are never stored; time in seconds is always frame_index / native_fps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np


_INT64_MIN = -(2**63)


def check_int(name: str, value: object, low: int = 0) -> None:
    """Raise ValueError naming the value unless it is an integer in
    [low, 2**63), the track CSV's id range; bools, floats and strings are
    refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not (
        low <= value < 2**63
    ):
        shown = "-2**63" if low == _INT64_MIN else low
        raise ValueError(f"{name} must be an integer in [{shown}, 2**63), got {value!r}")


def _int64_array(name: str, values: Iterable[int] | np.ndarray) -> np.ndarray:
    """``values`` as an int64 array, an int64 array itself without a copy.
    The first value that is not an integer in [-2**63, 2**63) raises
    ValueError naming it, as check_int does."""
    a = np.asarray(values)
    if a.dtype != np.int64 or not isinstance(values, np.ndarray):
        # as given: np.asarray turns [-1, 2**63] into floats, [1, "a"] into
        # strings and [True, 5] into integers
        for v in np.asarray(values, dtype=object).ravel().tolist():
            check_int(name, v, low=_INT64_MIN)
    return a.astype(np.int64, copy=False)


def check_real(name: str, value: object, upper: float = math.inf, zero: bool = False) -> None:
    """Raise ValueError naming the value unless it is a finite real number,
    not a bool, in (0, upper], or in [0, upper] when zero is set."""
    if not (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and (0 <= value if zero else 0 < value)
        and value <= upper
        and math.isfinite(value)
    ):
        low = "[0" if zero else "(0"
        rule = "finite and positive" if upper == math.inf else f"in {low}, {upper:g}]"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_finite(name: str, value: object) -> None:
    """Raise ValueError naming the value unless it is a finite real number,
    not a bool."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def normalize_yaw(yaw: float) -> float:
    """Wrap a heading angle into [-pi, pi)."""
    wrapped = math.fmod(yaw + math.pi, 2.0 * math.pi)
    if wrapped < 0:
        wrapped += 2.0 * math.pi
    # 2 pi - tiny rounds to 2 pi for a yaw a few ulps below -pi
    return wrapped - math.pi if wrapped < 2.0 * math.pi else -math.pi


def normalize_yaws(yaw: np.ndarray) -> np.ndarray:
    """normalize_yaw on a column, bit for bit: the same operations in the
    same order. Like Box3D, it leaves non-finite values as they are."""
    with np.errstate(invalid="ignore"):
        wrapped = np.fmod(yaw + math.pi, 2.0 * math.pi)
    wrapped = np.where(wrapped < 0, wrapped + 2.0 * math.pi, wrapped)
    wrapped = np.where(wrapped < 2.0 * math.pi, wrapped - math.pi, -math.pi)
    return np.where(np.isfinite(yaw), wrapped, yaw)


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D bounding box in world coordinates (meters, radians).

    Construction is permissive so that malformed data stays representable;
    validate_sequence reports invariant violations instead of aborting.
    """

    x: float
    y: float
    z: float
    width: float
    length: float
    height: float
    yaw: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x", "y", "z", "width", "length", "height", "yaw"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if math.isfinite(self.yaw):
            object.__setattr__(self, "yaw", normalize_yaw(self.yaw))


@dataclass(frozen=True)
class Detection:
    """One object observation: box + class + confidence + optional identity."""

    box: Box3D
    class_id: int
    confidence: float = 1.0
    track_id: int | None = None
    velocity: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        # ids may be negative, for validate_sequence to report, but never
        # truncated: the table holds them as int64
        check_int("class_id", self.class_id, low=_INT64_MIN)
        if self.track_id is not None:
            check_int("track_id", self.track_id, low=_INT64_MIN)
        object.__setattr__(self, "confidence", float(self.confidence))
        if self.velocity is not None:
            vx, vy = self.velocity
            object.__setattr__(self, "velocity", (float(vx), float(vy)))


FLOAT_COLUMNS = ("x", "y", "z", "w", "l", "h", "yaw", "conf")
# a table's per-row columns, bar the optional vx and vy
ROW_COLUMNS = ("track_id", "class_id") + FLOAT_COLUMNS
_BOX_FIELDS = ("x", "y", "z", "width", "length", "height", "yaw")
_Rule = tuple[str, np.ndarray, Callable[[int], str]]


@dataclass(frozen=True, eq=False)
class TrackTable:
    """Detections as columns, one row each, grouped by frame in input order.

    Frame k of ``frame_index`` owns rows ``offsets[k]:offsets[k + 1]``; a
    frame may own none. ``owner`` (each row's k) and ``frame`` (each row's
    frame index) are derived from these on first read, never stored, and
    so are ``order`` and the duplicate mask ``repeat``, which marks a row
    with a track id when an earlier row at the same frame index carries its
    (track_id, class_id), whichever entry of ``frame_index`` holds it.
    ``track_id`` is -1 where a row has no track id; ``vx``/``vy`` are None
    when no row carries a velocity and NaN on rows without one.
    """

    frame_index: np.ndarray
    offsets: np.ndarray
    track_id: np.ndarray
    class_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w: np.ndarray
    l: np.ndarray
    h: np.ndarray
    yaw: np.ndarray
    conf: np.ndarray
    vx: np.ndarray | None = None
    vy: np.ndarray | None = None

    def _row_columns(self) -> tuple[str, ...]:
        return ROW_COLUMNS + (("vx", "vy") if self.vx is not None else ())

    @cached_property
    def owner(self) -> np.ndarray:
        """Each row's position in ``frame_index``."""
        return np.repeat(np.arange(self.frame_index.size), np.diff(self.offsets))

    @cached_property
    def frame(self) -> np.ndarray:
        """Each row's frame index."""
        return self.frame_index[self.owner]

    @cached_property
    def order(self) -> np.ndarray:
        """Row indices in (frame, class_id, track_id) order; ties keep input
        order."""
        return np.lexsort((self.track_id, self.class_id, self.frame))

    @cached_property
    def repeat(self) -> np.ndarray:
        """The duplicate mask: the rows with a track id whose (track_id,
        class_id) an earlier row at the same frame index already carries,
        read off ``order``."""
        o = self.order
        same = [k[1:] == k[:-1] for k in (self.frame[o], self.class_id[o], self.track_id[o])]
        repeat = np.zeros(o.size, bool)
        repeat[o[1:]] = same[0] & same[1] & same[2] & (self.track_id[o[1:]] != -1)
        return repeat

    def select(
        self, frames: np.ndarray | None = None, rows: np.ndarray | None = None
    ) -> TrackTable:
        """The rows that the boolean mask ``rows`` keeps, under the frames
        that the boolean mask ``frames`` keeps; a kept frame stays even when
        none of its rows does."""
        keep_frames = np.ones(self.frame_index.size, bool) if frames is None else frames
        keep = keep_frames[self.owner]
        if rows is not None:
            keep &= rows
        kept = np.bincount(self.owner[keep], minlength=keep_frames.size)[keep_frames]
        cols = {n: getattr(self, n)[keep] for n in self._row_columns()}
        return TrackTable(
            frame_index=self.frame_index[keep_frames],
            offsets=np.concatenate(([0], np.cumsum(kept))),
            **cols,
        )


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index and the length of each run of equal values of ``key``."""
    starts = np.ones(key.size, bool)
    starts[1:] = key[1:] != key[:-1]
    first = np.flatnonzero(starts)
    return first, np.diff(np.append(first, key.size))


def table_from_columns(frame: np.ndarray, *columns: np.ndarray) -> TrackTable:
    """A table from 1-D columns of rows grouped by frame: frame, track_id,
    class_id, the FLOAT_COLUMNS and optionally vx and vy. Each column is
    copied once into a contiguous array; the yaw is normalised as Box3D
    does. The frame column gives only the frame indices and offsets."""
    starts, _ = _runs(frame)
    cols = {n: np.array(c, np.float64 if k > 1 else np.int64)
            for k, (n, c) in enumerate(zip(ROW_COLUMNS + ("vx", "vy"), columns))}
    cols["yaw"] = normalize_yaws(cols["yaw"])
    return TrackTable(np.asarray(frame, np.int64)[starts], np.append(starts, frame.size), **cols)


def _table_from_frames(frames: Iterable[tuple[int, Iterable[Detection]]]) -> TrackTable:
    frames = [(fi, tuple(ds)) for fi, ds in frames]
    frame_index = _int64_array("frame_index", [fi for fi, _ in frames])
    dets = [d for _, ds in frames for d in ds]
    boxes = [d.box for d in dets]
    n = len(dets)

    def column(items: list, attr: str, dtype: type = float) -> np.ndarray:
        return np.fromiter(map(attrgetter(attr), items), dtype, n)

    ids = list(map(attrgetter("track_id"), dets))
    counts = np.array([len(ds) for _, ds in frames], dtype=np.int64)
    if -1 in ids:
        k = int(np.searchsorted(np.cumsum(counts), ids.index(-1), "right"))
        raise ValueError(
            f"track_id -1 in frame {frames[k][0]}: -1 is the track table's no-id marker; "
            "give track_id=None for a detection without one"
        )
    track_id = np.fromiter((-1 if tid is None else tid for tid in ids), np.int64, n)
    velocity = [d.velocity for d in dets]
    vx = vy = None
    if any(v is not None for v in velocity):
        nan = (math.nan, math.nan)
        vx, vy = np.array([v or nan for v in velocity], dtype=float).reshape(n, 2).T.copy()
    return TrackTable(
        frame_index, np.concatenate(([0], np.cumsum(counts))),
        track_id, column(dets, "class_id", np.int64),
        *(column(boxes, a) for a in _BOX_FIELDS), column(dets, "confidence"), vx=vx, vy=vy,
    )


def _frozen(cls: type, **values: object):
    # a frozen dataclass holding the values as given, skipping __post_init__:
    # a row view repeats its table's columns bit for bit
    obj = cls.__new__(cls)
    obj.__dict__.update(values)
    return obj


def _frames_from_table(t: TrackTable) -> tuple[tuple[int, tuple[Detection, ...]], ...]:
    velocity = [None] * t.track_id.size
    if t.vx is not None:
        velocity = [None if a != a else (a, b) for a, b in zip(t.vx.tolist(), t.vy.tolist())]
    cols = [getattr(t, c).tolist() for c in ROW_COLUMNS]
    dets = [
        _frozen(
            Detection,
            box=_frozen(Box3D, x=x, y=y, z=z, width=w, length=l, height=h, yaw=yaw),
            class_id=c,
            confidence=conf,
            track_id=None if tid == -1 else tid,
            velocity=v,
        )
        for tid, c, x, y, z, w, l, h, yaw, conf, v in zip(*cols, velocity)
    ]
    bounds = t.offsets.tolist()
    return tuple(
        (fi, tuple(dets[a:b])) for fi, a, b in zip(t.frame_index.tolist(), bounds, bounds[1:])
    )


def _velocity(t: TrackTable) -> np.ndarray:
    # absent velocity columns read as all NaN, as the row view reads both
    return np.full((2, t.track_id.size), math.nan) if t.vx is None else np.stack((t.vx, t.vy))


class Sequence:
    """Ordered frames of detections plus frame-rate metadata.

    Frames absent from the table mean "no detections at that timestep".
    Used for both ground truth and tracker output; all detections share one
    world coordinate frame. ``table`` is the only stored form: a Sequence
    built from Detection objects converts them once, here, and keeps no
    reference to them, and ``frames`` is the per-row view, built on demand
    and cached.

    Two Sequences are equal when native_fps, scene_name, the frame indices,
    the per-frame offsets and every column are equal. A NaN velocity equals
    a NaN velocity, and a table without velocity columns equals one whose
    velocities are all NaN: both read as ``velocity=None`` in the view.
    """

    def __init__(
        self,
        frames: tuple[tuple[int, tuple[Detection, ...]], ...],
        native_fps: float,
        scene_name: str = "",
    ) -> None:
        self._init(native_fps, scene_name)
        self.table = _table_from_frames(frames)

    @classmethod
    def from_table(cls, table: TrackTable, native_fps: float, scene_name: str = "") -> Sequence:
        seq = cls.__new__(cls)
        seq._init(native_fps, scene_name)
        seq.table = table
        return seq

    def _init(self, native_fps: float, scene_name: str) -> None:
        check_real("native_fps", native_fps)
        self.native_fps = native_fps
        self.scene_name = scene_name

    @cached_property
    def frames(self) -> tuple[tuple[int, tuple[Detection, ...]], ...]:
        return _frames_from_table(self.table)

    @property
    def frame_indices(self) -> tuple[int, ...]:
        return tuple(self.table.frame_index.tolist())

    def as_dict(self) -> dict[int, tuple[Detection, ...]]:
        return {idx: dets for idx, dets in self.frames}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        a, b = self.table, other.table
        names = ("frame_index", "offsets") + ROW_COLUMNS
        return (
            (self.native_fps, self.scene_name) == (other.native_fps, other.scene_name)
            and all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)
            and np.array_equal(_velocity(a), _velocity(b), equal_nan=True)
        )

    def __repr__(self) -> str:
        return (
            f"Sequence({self.scene_name!r}, {self.table.frame_index.size} frames, "
            f"native_fps={self.native_fps!r})"
        )


@dataclass(frozen=True, init=False, eq=False)
class EvalWindow:
    """The fixed set of frames to score, plus the reference rate f0 used to
    convert run lengths from frames to seconds.

    ``frames`` is the one stored form: a sorted, unique, read-only int64
    array of native frame indices. The frames may be given as a tuple, list,
    range or integer array, in any order, with repeats; input already
    strictly increasing is kept as it is, an int64 array without a copy, so
    its owner must not write to it afterwards. ``frame_indices`` is a tuple
    view, built on first read. Windows compare by identity.
    """

    frames: np.ndarray
    f0: float

    def __init__(self, frame_indices: Iterable[int] | np.ndarray, f0: float) -> None:
        frames = _int64_array("frame_index", frame_indices).view()
        if not frames.size:
            raise ValueError("EvalWindow needs at least one frame")
        check_real("f0", f0)
        if not np.all(frames[1:] > frames[:-1]):
            # with return_counts, np.unique does not import numpy.ma (numpy 2.4)
            frames = np.unique(frames, return_counts=True)[0]
        frames.flags.writeable = False
        self.__dict__.update(frames=frames, f0=f0)

    @cached_property
    def frame_indices(self) -> tuple[int, ...]:
        return tuple(self.frames.tolist())

    def __len__(self) -> int:
        return self.frames.size


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate_sequence."""

    frame_index: int | None
    field: str
    message: str

    def __str__(self) -> str:
        where = f"frame {self.frame_index}: " if self.frame_index is not None else ""
        return f"{where}{self.field}: {self.message}"


def _row_rules(t: TrackTable, has_id: np.ndarray) -> list[_Rule]:
    """Every per-row rule as (field, mask of the rows breaking it, message
    for row i), in the order they are reported within a row. ``has_id``
    marks the rows that carry a track_id; a duplicate is a row of the
    table's duplicate mask, ``TrackTable.repeat``."""
    box = dict(zip(_BOX_FIELDS, (t.x, t.y, t.z, t.w, t.l, t.h, t.yaw)))
    rules: list[_Rule] = [
        ("confidence", ~((t.conf >= 0.0) & (t.conf <= 1.0)),
         lambda i: f"{float(t.conf[i])} outside [0, 1]"),
    ]
    rules += [(n, ~np.isfinite(col), lambda i: "not finite") for n, col in box.items()]
    rules += [(n, box[n] <= 0, lambda i: "must be positive") for n in ("width", "length", "height")]
    rules += [
        ("class_id", t.class_id < 0, lambda i: "must be non-negative"),
        ("track_id", has_id & (t.track_id < 0), lambda i: "must be non-negative"),
        ("yaw", ~((t.yaw >= -math.pi) & (t.yaw < math.pi)),
         lambda i: f"{float(t.yaw[i])} not in [-pi, pi)"),
        ("track_id", t.repeat,
         lambda i: f"duplicate (track_id={int(t.track_id[i])}, "
         f"class_id={int(t.class_id[i])}) in frame {int(t.frame[i])}"),
    ]
    return rules


def validate_sequence(seq: Sequence) -> list[Violation]:
    """Check Sequence invariants, reporting (never raising) violations.

    Idempotent and side-effect free. Covers: strictly increasing frame
    indices, per-field finiteness and bounds, and uniqueness of
    (track_id, class_id) among identity-carrying detections in one frame.
    Violations come frame by frame, each frame's own first, then row by row.
    """
    t = seq.table
    fi = t.frame_index.tolist()
    found: list[tuple[tuple[int, int, int], Violation]] = []
    for k, idx in enumerate(fi):
        if idx < 0:
            found.append(((k, -1, 0), Violation(idx, "frame_index", "must be non-negative")))
        if k and idx <= fi[k - 1]:
            found.append(((k, -1, 1), Violation(
                idx, "frame_index", f"not strictly increasing (previous {fi[k - 1]})"
            )))
    for r, (name, broken, message) in enumerate(_row_rules(t, t.track_id != -1)):
        for i in np.flatnonzero(broken).tolist():
            k = int(t.owner[i])
            found.append(((k, i, r), Violation(fi[k], name, message(i))))
    return [v for _, v in sorted(found, key=lambda kv: kv[0])]


def make_sequence(
    frames: dict[int, list[Detection]] | list[tuple[int, list[Detection]]],
    native_fps: float,
    scene_name: str = "",
) -> Sequence:
    """Build a Sequence from a frame mapping, sorting frames by index."""
    items = sorted(frames.items() if isinstance(frames, dict) else frames)
    return Sequence(items, native_fps=float(native_fps), scene_name=scene_name)
