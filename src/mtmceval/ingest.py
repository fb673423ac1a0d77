"""On-disk track formats and WILDTRACK-style grid-annotation conversion.

Track CSV format (UTF-8, LF, optional '#'-prefixed header lines):

    frame,track_id,class_id,x,y,z,width,length,height,yaw,confidence[,vx,vy]

track_id may be empty for detector-only files; the two velocity columns are
optional and emitted only when any detection carries a velocity. Floats are
written with the shortest decimal representation that round-trips exactly.

Position-record CSV (grid annotations): frame,person_id,position_id
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, TextIO

from .datamodel import Box3D, Detection, Sequence, make_sequence

TRACK_COLUMNS = (
    "frame",
    "track_id",
    "class_id",
    "x",
    "y",
    "z",
    "width",
    "length",
    "height",
    "yaw",
    "confidence",
)


class ParseError(ValueError):
    """Malformed input row; carries line number and column name."""

    def __init__(self, line_no: int, column: str, message: str) -> None:
        super().__init__(f"line {line_no}, column '{column}': {message}")
        self.line_no = line_no
        self.column = column


@dataclass(frozen=True)
class GridConfig:
    """Parameters mapping a ground-plane grid cell index to metric space.

    positionID decodes as row * grid_width + col; the cell center lands at
    origin + step * (col, row), optionally translated by (recenter_x,
    recenter_y). Boxes are person-sized with centers lifted to half the
    assumed person height.
    """

    origin_x: float = -3.0
    origin_y: float = -9.0
    step: float = 0.025
    grid_width: int = 480
    grid_height: int | None = None
    person_height: float = 1.8
    person_width: float = 0.6
    person_length: float = 0.6
    recenter_x: float = 0.0
    recenter_y: float = 0.0
    class_id: int = 0

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.grid_width < 1:
            raise ValueError("grid_width must be >= 1")
        if self.person_height <= 0:
            raise ValueError("person_height must be positive")

    def cell_to_xy(self, position_id: int) -> tuple[float, float]:
        col = position_id % self.grid_width
        row = position_id // self.grid_width
        if self.grid_height is not None and row >= self.grid_height:
            raise ValueError(
                f"position_id {position_id} lies outside the "
                f"{self.grid_width}x{self.grid_height} grid"
            )
        x = self.origin_x + self.step * col + self.recenter_x
        y = self.origin_y + self.step * row + self.recenter_y
        return x, y


def _fmt(v: float) -> str:
    # shortest representation that parses back to the same float
    return repr(float(v))


def _parse_float(token: str, line_no: int, column: str) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ParseError(line_no, column, f"not a number: {token!r}") from None
    if not math.isfinite(v):
        raise ParseError(line_no, column, f"non-finite value: {token!r}")
    return v


def _parse_int(token: str, line_no: int, column: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, column, f"not an integer: {token!r}") from None


def parse_tracks(
    stream: TextIO | io.IOBase | bytes | str,
    native_fps: float = 30.0,
    scene_name: str = "",
) -> Sequence:
    """Parse the track CSV format into a Sequence.

    Rows must be grouped by frame with ascending frame indices; a decreasing
    frame index is rejected as a frame regression.
    """
    if isinstance(stream, bytes):
        stream = io.StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)
    elif isinstance(stream, io.IOBase) and not isinstance(stream, io.TextIOBase):
        stream = io.TextIOWrapper(stream, encoding="utf-8")

    frames: list[tuple[int, list[Detection]]] = []
    last_frame: int | None = None
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (11, 13):
            raise ParseError(
                line_no, "row", f"expected 11 or 13 columns, got {len(parts)}"
            )
        frame = _parse_int(parts[0], line_no, "frame")
        if frame < 0:
            raise ParseError(line_no, "frame", "must be non-negative")
        if last_frame is not None and frame < last_frame:
            raise ParseError(
                line_no, "frame", f"frame regression: {frame} after {last_frame}"
            )
        track_id = None if parts[1] == "" else _parse_int(parts[1], line_no, "track_id")
        class_id = _parse_int(parts[2], line_no, "class_id")
        vals = [
            _parse_float(parts[3 + i], line_no, TRACK_COLUMNS[3 + i])
            for i in range(8)
        ]
        velocity = None
        if len(parts) == 13 and (parts[11] or parts[12]):
            vx = _parse_float(parts[11], line_no, "vx")
            vy = _parse_float(parts[12], line_no, "vy")
            velocity = (vx, vy)
        if not (0.0 <= vals[7] <= 1.0):
            raise ParseError(line_no, "confidence", f"{vals[7]} outside [0, 1]")
        for dim, name in zip(vals[3:6], ("width", "length", "height")):
            if dim <= 0:
                raise ParseError(line_no, name, "must be positive")
        if class_id < 0:
            raise ParseError(line_no, "class_id", "must be non-negative")
        if track_id is not None and track_id < 0:
            raise ParseError(line_no, "track_id", "must be non-negative")
        det = Detection(
            box=Box3D(*vals[:7]),
            class_id=class_id,
            confidence=vals[7],
            track_id=track_id,
            velocity=velocity,
        )
        if last_frame != frame:
            frames.append((frame, []))
            seen_ids: set[tuple[int, int]] = set()
            last_frame = frame
        if track_id is not None:
            if (track_id, class_id) in seen_ids:
                raise ParseError(
                    line_no,
                    "track_id",
                    f"duplicate (track_id={track_id}, class_id={class_id}) in "
                    f"frame {frame}",
                )
            seen_ids.add((track_id, class_id))
        frames[-1][1].append(det)
    return make_sequence(frames, native_fps=native_fps, scene_name=scene_name)


def _row_key(frame: int, det: Detection) -> tuple[int, int, int]:
    tid = -1 if det.track_id is None else det.track_id
    return (frame, det.class_id, tid)


def emit_tracks(seq: Sequence, sink: TextIO) -> int:
    """Write a Sequence in the track CSV format; returns the row count.

    Rows are sorted by (frame, class_id, track_id); the velocity columns
    appear iff any detection carries a velocity.
    """
    rows: list[tuple[tuple[int, int, int], int, Detection]] = []
    for frame, dets in seq.frames:
        for det in dets:
            rows.append((_row_key(frame, det), frame, det))
    rows.sort(key=lambda r: r[0])
    with_velocity = any(det.velocity is not None for _, _, det in rows)

    header = ",".join(TRACK_COLUMNS) + (",vx,vy" if with_velocity else "")
    sink.write(f"# {header}\n")
    count = 0
    for _, frame, det in rows:
        b = det.box
        fields = [
            str(frame),
            "" if det.track_id is None else str(det.track_id),
            str(det.class_id),
            _fmt(b.x),
            _fmt(b.y),
            _fmt(b.z),
            _fmt(b.width),
            _fmt(b.length),
            _fmt(b.height),
            _fmt(b.yaw),
            _fmt(det.confidence),
        ]
        if with_velocity:
            if det.velocity is None:
                fields += ["", ""]
            else:
                fields += [_fmt(det.velocity[0]), _fmt(det.velocity[1])]
        sink.write(",".join(fields) + "\n")
        count += 1
    return count


def parse_positions(stream: TextIO | str) -> list[tuple[int, int, int]]:
    """Parse position-record CSV rows (frame, person_id, position_id)."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    records: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError(line_no, "row", f"expected 3 columns, got {len(parts)}")
        frame = _parse_int(parts[0], line_no, "frame")
        person = _parse_int(parts[1], line_no, "person_id")
        pos = _parse_int(parts[2], line_no, "position_id")
        if pos < 0:
            raise ParseError(line_no, "position_id", "must be non-negative")
        records.append((frame, person, pos))
    return records


def convert_positions(
    records: Iterable[tuple[int, int, int]],
    grid: GridConfig,
    native_fps: float,
    scene_name: str = "",
) -> Sequence:
    """Turn (frame, person_id, position_id) grid records into a metric
    3D Sequence.

    Each record becomes a person-sized box whose (x, y) comes from the grid
    mapping and whose center sits at half the person height above ground,
    with yaw 0, confidence 1 and track_id = person_id.
    """
    frames: dict[int, list[Detection]] = {}
    for frame, person_id, position_id in records:
        if position_id < 0:
            raise ValueError(f"position_id must be non-negative, got {position_id}")
        x, y = grid.cell_to_xy(position_id)
        det = Detection(
            box=Box3D(
                x=x,
                y=y,
                z=grid.person_height / 2.0,
                width=grid.person_width,
                length=grid.person_length,
                height=grid.person_height,
                yaw=0.0,
            ),
            class_id=grid.class_id,
            confidence=1.0,
            track_id=person_id,
        )
        frames.setdefault(frame, []).append(det)
    return make_sequence(frames, native_fps=native_fps, scene_name=scene_name)


def estimate_velocities(seq: Sequence) -> Sequence:
    """Attach (vx, vy) estimates from identity motion across frames.

    Central difference over the nearest earlier and later frames carrying the
    same (class_id, track_id); one-sided at identity endpoints; (0, 0) for
    identities seen exactly once. Box geometry, identities, confidences and
    frame structure are untouched.
    """
    tracks: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
    for frame, dets in seq.frames:
        for det in dets:
            if det.track_id is None:
                continue
            key = (det.class_id, det.track_id)
            tracks.setdefault(key, []).append((frame, det.box.x, det.box.y))

    velocity_at: dict[tuple[int, int, int], tuple[float, float]] = {}
    for key, obs in tracks.items():
        obs.sort()
        n = len(obs)
        for i, (frame, _, _) in enumerate(obs):
            if n == 1:
                v = (0.0, 0.0)
            else:
                lo = obs[i - 1] if i > 0 else obs[i]
                hi = obs[i + 1] if i < n - 1 else obs[i]
                dt = (hi[0] - lo[0]) / seq.native_fps
                v = ((hi[1] - lo[1]) / dt, (hi[2] - lo[2]) / dt)
            velocity_at[(key[0], key[1], frame)] = v

    new_frames: list[tuple[int, list[Detection]]] = []
    for frame, dets in seq.frames:
        out: list[Detection] = []
        for det in dets:
            if det.track_id is None:
                out.append(det)
            else:
                v = velocity_at[(det.class_id, det.track_id, frame)]
                out.append(
                    Detection(
                        box=det.box,
                        class_id=det.class_id,
                        confidence=det.confidence,
                        track_id=det.track_id,
                        velocity=v,
                    )
                )
        new_frames.append((frame, out))
    return make_sequence(new_frames, native_fps=seq.native_fps, scene_name=seq.scene_name)
