"""On-disk track formats and WILDTRACK-style grid-annotation conversion.

Every text reader (parse_tracks, parse_positions and
``anchors.parse_anchor_bank``) takes a str, bytes, a text stream or a binary
stream, reads it as UTF-8 and skips a leading byte order mark, all in
``_lines``. Blank lines and lines whose first non-space character is '#'
hold no data row (an anchor bank's header is one of the latter):
``_data_lines`` yields the others, numbered from 1 in the whole text, so an
error names the file's own line.

Track CSV format (LF, optional '#'-prefixed header lines):

    frame,track_id,class_id,x,y,z,width,length,height,yaw,confidence[,vx,vy]

track_id may be empty for detector-only files; the two velocity columns are
optional and emitted only when any detection carries a velocity. frame,
track_id and class_id must fit a signed 64-bit integer, and '#' starts a
comment only at the start of a line. Floats are written with the shortest
decimal representation that round-trips exactly.

Every function here reads and writes a Sequence's TrackTable column by
column. parse_tracks reads a file with numpy's C reader (``np.loadtxt``),
or, when that cannot read it, with the row-by-row reader, which checks only
tokens and stops at the first bad one. Either table goes through one column
check, ``_check_rows``: the frame rules and ``datamodel._row_rules``, the
only place the row rules are written. It raises the ParseError of the first
broken (data row, rule), naming the line and column.

Position-record CSV (grid annotations): frame,person_id,position_id
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, TextIO

import numpy as np

from .datamodel import (
    FLOAT_COLUMNS,
    Sequence,
    TrackTable,
    _row_rules,
    check_finite,
    check_int,
    check_real,
    table_from_columns,
)

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

# np.loadtxt's row types for the 11- and 13-column layouts
_LOADTXT_DTYPES = {
    n: np.dtype(
        [(c, np.int64) for c in TRACK_COLUMNS[:3]]
        + [(c, np.float64) for c in (TRACK_COLUMNS[3:] + ("vx", "vy"))[: n - 3]]
    )
    for n in (11, 13)
}
_Read = tuple[TrackTable, np.ndarray, int | None, "ParseError | None"]
TextInput = TextIO | io.IOBase | bytes | str


class ParseError(ValueError):
    """Malformed input row; carries line number and column name."""

    def __init__(self, line_no: int, column: str, message: str) -> None:
        super().__init__(f"line {line_no}, column '{column}': {message}")
        self.line_no = line_no
        self.column = column


@dataclass(frozen=True)
class GridConfig:
    """Parameters mapping a ground-plane grid cell index to metric space;
    convert_positions applies them.

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
        for name in ("step", "person_height", "person_width", "person_length"):
            check_real(name, getattr(self, name))
        for name in ("origin_x", "origin_y", "recenter_x", "recenter_y"):
            check_finite(name, getattr(self, name))
        check_int("grid_width", self.grid_width, low=1)
        if self.grid_height is not None:
            check_int("grid_height", self.grid_height, low=1)
        check_int("class_id", self.class_id)


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
        v = int(token)
    except ValueError:
        raise ParseError(line_no, column, f"not an integer: {token!r}") from None
    if not -(2**63) <= v < 2**63:
        raise ParseError(line_no, column, "outside the signed 64-bit range")
    return v


def _lines(stream: TextInput) -> list[str]:
    """The lines of UTF-8 text, a leading byte order mark skipped. A binary
    stream is read as its bytes, and stays open for its caller."""
    if isinstance(stream, io.IOBase) and not isinstance(stream, io.TextIOBase):
        stream = stream.read()
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    lines = list(stream)
    if lines:
        lines[0] = lines[0].removeprefix("\ufeff")
    return lines


def _data_lines(lines: list[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each line that is neither blank nor
    '#'-led."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _parse_rows(lines: list[str]) -> _Read:
    """The row-by-row reader, for files np.loadtxt cannot read. It checks
    tokens only and stops at the first bad one. It returns the rows read
    before it, the mask of those given a track_id (the table holds -1 for an
    empty one), and the frame, if read, and the ParseError of the bad row."""
    ints: list[tuple[int, int, int]] = []
    floats: list[list[float]] = []
    velocities: list[tuple[float, float] | None] = []
    has_id: list[bool] = []
    frame = error = None
    try:
        for line_no, line in _data_lines(lines):
            parts = [p.strip() for p in line.split(",")]
            frame = None
            if len(parts) not in (11, 13):
                raise ParseError(line_no, "row", f"expected 11 or 13 columns, got {len(parts)}")
            frame = _parse_int(parts[0], line_no, "frame")
            track_id = -1 if parts[1] == "" else _parse_int(parts[1], line_no, "track_id")
            class_id = _parse_int(parts[2], line_no, "class_id")
            vals = [_parse_float(parts[i], line_no, TRACK_COLUMNS[i]) for i in range(3, 11)]
            velocity = None
            if len(parts) == 13 and (parts[11] or parts[12]):
                velocity = (_parse_float(parts[11], line_no, "vx"),
                            _parse_float(parts[12], line_no, "vy"))
            ints.append((frame, track_id, class_id))
            floats.append(vals)
            velocities.append(velocity)
            has_id.append(parts[1] != "")
    except ParseError as exc:
        error = exc
    nan = (math.nan, math.nan)
    table = table_from_columns(
        *np.array(ints, dtype=np.int64).reshape(-1, 3).T,
        *np.array(floats, dtype=np.float64).reshape(-1, 8).T,
        *(np.array([v or nan for v in velocities]).T if any(velocities) else ()),
    )
    return table, np.array(has_id, bool), frame if error else None, error


def _parse_fast(lines: list[str]) -> _Read | None:
    """The file through np.loadtxt, or None when the row reader must read
    its tokens: loadtxt cannot read them (an empty track_id or velocity) or
    reads a non-finite value, or the file has a '#' after data on a line,
    which loadtxt would cut as a comment and the row reader rejects."""
    first = next(_data_lines(lines), None)
    dtype = None if first is None else _LOADTXT_DTYPES.get(first[1].count(",") + 1)
    if dtype is None or any(not l.startswith("#") for l in lines if "#" in l):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments="#", ndmin=1)
    except (ValueError, Warning):
        return None
    columns = [rows[c] for c in dtype.names]
    if not all(np.isfinite(c).all() for c in columns[3:]):
        return None
    t = table_from_columns(*columns)
    return t, np.ones(t.track_id.size, bool), None, None


def _check_rows(lines: list[str], t: TrackTable, has_id: np.ndarray,
                bad_frame: int | None, error: ParseError | None) -> None:
    """Raise the ParseError of the first broken (data row, rule) of a
    reader's table. A row's frame rules come first, then, on the row that
    failed to read, its bad token, then the row rules of _row_rules."""
    frame = t.frame if bad_frame is None else np.append(t.frame, bad_frame)
    rules = [
        ("frame", frame < 0, lambda i: "must be non-negative"),
        ("frame", np.concatenate(([False], frame[1:] < frame[:-1])),
         lambda i: f"frame regression: {frame[i]} after {frame[i - 1]}"),
        *_row_rules(t, has_id),
    ]
    broken = [(int(np.argmax(b)), r) for r, (_, b, _) in enumerate(rules) if b.any()]
    if error is not None:
        # the bad row is not in the table: only its frame rules come first
        broken.append((t.frame.size, len(rules)))
    if not broken:
        return
    i, r = min(broken)
    if r == len(rules):
        raise error
    line_no = [n for n, _ in _data_lines(lines)][i]
    name, _, message = rules[r]
    raise ParseError(line_no, name, message(i))


def parse_tracks(
    stream: TextInput,
    native_fps: float = 30.0,
    scene_name: str = "",
) -> Sequence:
    """Parse the track CSV format into a Sequence.

    Rows must be grouped by frame with ascending frame indices; a decreasing
    frame index is rejected as a frame regression. Rows keep their file
    order within a frame.
    """
    lines = _lines(stream)
    read = _parse_fast(lines) or _parse_rows(lines)
    _check_rows(lines, *read)
    return Sequence.from_table(read[0], native_fps=float(native_fps), scene_name=scene_name)


def emit_tracks(seq: Sequence, sink: TextIO) -> int:
    """Write a Sequence in the track CSV format; returns the row count.

    Rows are sorted by (frame, class_id, track_id), ties in table order; the
    velocity columns appear iff any detection carries a velocity.
    """
    t = seq.table
    o = t.order
    with_velocity = t.vx is not None and not np.isnan(t.vx).all()
    header = ",".join(TRACK_COLUMNS) + (",vx,vy" if with_velocity else "")
    sink.write(f"# {header}\n")
    track_ids = ["" if v == -1 else v for v in t.track_id[o].tolist()]
    cols = [t.frame[o].tolist(), track_ids, t.class_id[o].tolist()]
    cols += [getattr(t, c)[o].tolist() for c in FLOAT_COLUMNS]
    # repr gives the shortest text that parses back to the same float
    rows = [
        f"{f},{i},{c},{x!r},{y!r},{z!r},{w!r},{l!r},{h!r},{a!r},{p!r}"
        for f, i, c, x, y, z, w, l, h, a, p in zip(*cols)
    ]
    if with_velocity:
        rows = [
            f"{r},," if vx != vx else f"{r},{vx!r},{vy!r}"
            for r, vx, vy in zip(rows, t.vx[o].tolist(), t.vy[o].tolist())
        ]
    sink.writelines(f"{r}\n" for r in rows)
    return len(rows)


def parse_positions(stream: TextInput) -> list[tuple[int, int, int]]:
    """Parse position-record CSV rows (frame, person_id, position_id)."""
    records: list[tuple[int, int, int]] = []
    for line_no, line in _data_lines(_lines(stream)):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError(line_no, "row", f"expected 3 columns, got {len(parts)}")
        frame = _parse_int(parts[0], line_no, "frame")
        person = _parse_int(parts[1], line_no, "person_id")
        pos = _parse_int(parts[2], line_no, "position_id")
        for column, v in (("frame", frame), ("position_id", pos), ("person_id", person)):
            if v < 0:
                raise ParseError(line_no, column, "must be non-negative")
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
    with yaw 0, confidence 1 and track_id = person_id (which must be
    non-negative: -1 marks a row without track id). Rows are ordered by
    frame, records of one frame in input order. The first bad record in
    input order raises ValueError: a negative position_id, then one beyond
    grid_height rows, then a negative person_id.
    """
    frame, person, pos = np.array(list(records), dtype=np.int64).reshape(-1, 3).T
    col, row = pos % grid.grid_width, pos // grid.grid_width
    outside = row >= (grid.grid_height or math.inf)
    bad = (pos < 0) | outside | (person < 0)
    if bad.any():
        i = int(np.argmax(bad))
        if pos[i] < 0:
            raise ValueError(f"position_id must be non-negative, got {pos[i]}")
        if outside[i]:
            raise ValueError(f"position_id {pos[i]} lies outside the "
                             f"{grid.grid_width}x{grid.grid_height} grid")
        raise ValueError(f"person_id must be non-negative, got {person[i]}")
    order = np.argsort(frame, kind="stable")
    col, row = col[order], row[order]
    per_row = (grid.person_height / 2.0, grid.person_width, grid.person_length,
               grid.person_height, 0.0, 1.0)
    return Sequence.from_table(
        table_from_columns(
            frame[order], person[order], np.full(frame.size, grid.class_id),
            grid.origin_x + grid.step * col + grid.recenter_x,
            grid.origin_y + grid.step * row + grid.recenter_y,
            *(np.full(frame.size, float(v)) for v in per_row),
        ),
        native_fps=float(native_fps),
        scene_name=scene_name,
    )


def estimate_velocities(seq: Sequence) -> Sequence:
    """Attach (vx, vy) estimates from identity motion across frames.

    Central difference over the nearest earlier and later frames carrying the
    same (class_id, track_id); one-sided at identity endpoints; (0, 0) for
    identities seen exactly once. Box geometry, identities, confidences and
    frame structure are untouched; rows without a track id get no velocity.
    An identity twice at one frame index (the table's duplicate mask) raises
    ValueError.
    """
    t = seq.table
    rows = np.flatnonzero(t.track_id != -1)
    rows = rows[np.lexsort((t.frame[rows], t.track_id[rows], t.class_id[rows]))]
    f = t.frame[rows]
    # same[k]: rows k and k + 1 of the identity order share an identity
    same = (np.diff(t.class_id[rows]) == 0) & (np.diff(t.track_id[rows]) == 0)
    twice = rows[t.repeat[rows]]
    if twice.size:
        r = twice[0]
        raise ValueError(
            f"track_id {t.track_id[r]} of class {t.class_id[r]} appears twice "
            f"in frame {t.frame[r]}"
        )
    k = np.arange(rows.size)
    lo = np.where(np.concatenate(([False], same)), k - 1, k)
    hi = np.where(np.concatenate((same, [False])), k + 1, k)
    dt = np.where(hi == lo, 1.0, (f[hi] - f[lo]) / seq.native_fps)
    vx = np.full(t.frame.size, math.nan)
    vy = np.full(t.frame.size, math.nan)
    for out, col in ((vx, t.x[rows]), (vy, t.y[rows])):
        out[rows] = np.where(hi == lo, 0.0, (col[hi] - col[lo]) / dt)
    return Sequence.from_table(
        replace(t, vx=vx, vy=vy), native_fps=seq.native_fps, scene_name=seq.scene_name
    )
