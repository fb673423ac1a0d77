import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest

from mtmceval import ingest
from mtmceval.anchors import parse_anchor_bank
from mtmceval.datamodel import (
    FLOAT_COLUMNS,
    Box3D,
    Detection,
    Sequence,
    make_sequence,
    normalize_yaw,
    normalize_yaws,
    validate_sequence,
)
from mtmceval.ingest import (
    GridConfig,
    ParseError,
    convert_positions,
    emit_tracks,
    estimate_velocities,
    parse_positions,
    parse_tracks,
)


def roundtrip(seq):
    buf = io.StringIO()
    emit_tracks(seq, buf)
    return parse_tracks(buf.getvalue(), native_fps=seq.native_fps, scene_name=seq.scene_name)


def random_sequence(seed, n_frames=20, max_dets=5, native_fps=30.0):
    rng = np.random.default_rng(seed)
    frames = {}
    for fi in range(n_frames):
        dets = []
        used = set()
        for _ in range(int(rng.integers(0, max_dets + 1))):
            tid = int(rng.integers(0, 50))
            cid = int(rng.integers(0, 3))
            if (tid, cid) in used:
                continue
            used.add((tid, cid))
            dets.append(
                Detection(
                    box=Box3D(
                        *rng.uniform(-50, 50, size=3),
                        *rng.uniform(0.1, 5.0, size=3),
                        rng.uniform(-3, 3),
                    ),
                    class_id=cid,
                    confidence=float(rng.uniform(0, 1)),
                    track_id=tid,
                    velocity=(float(rng.normal()), float(rng.normal()))
                    if rng.random() < 0.5
                    else None,
                )
            )
        # canonical emit order so round-trip equality is structural; empty
        # frames are unrepresentable in the CSV (absent means empty)
        if dets:
            dets.sort(key=lambda d: (d.class_id, d.track_id))
            frames[fi] = dets
    return make_sequence(frames, native_fps=native_fps, scene_name="rand")


def test_parse_single_row():
    seq = parse_tracks("0,7,0,1.0,2.0,0.9,0.6,0.6,1.8,0.0,0.98\n", native_fps=30.0)
    assert len(seq.frames) == 1
    frame, dets = seq.frames[0]
    assert frame == 0
    assert len(dets) == 1
    d = dets[0]
    assert d.track_id == 7
    assert d.class_id == 0
    assert (d.box.x, d.box.y, d.box.z) == (1.0, 2.0, 0.9)
    assert d.confidence == 0.98


def test_parse_empty_file():
    assert parse_tracks("", native_fps=30.0).frames == ()
    assert parse_tracks("# frame,track_id\n", native_fps=30.0).frames == ()


def test_emit_empty_sequence():
    buf = io.StringIO()
    n = emit_tracks(make_sequence({}, native_fps=30.0), buf)
    assert n == 0
    # only the header comment remains
    assert all(line.startswith("#") for line in buf.getvalue().splitlines())


def test_emit_sorted_rows():
    seq = make_sequence(
        {
            0: [
                Detection(Box3D(1, 1, 1, 1, 1, 1), class_id=1, track_id=2),
                Detection(Box3D(0, 0, 0, 1, 1, 1), class_id=0, track_id=5),
            ]
        },
        native_fps=10.0,
    )
    buf = io.StringIO()
    assert emit_tracks(seq, buf) == 2
    rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    assert rows[0].startswith("0,5,0,")
    assert rows[1].startswith("0,2,1,")


@pytest.mark.parametrize("seed", range(10))
def test_roundtrip_random_sequences(seed):
    seq = random_sequence(seed)
    assert roundtrip(seq) == seq


def test_roundtrip_9000_frames():
    seq = random_sequence(99, n_frames=9000, max_dets=2)
    assert roundtrip(seq) == seq


def test_parse_errors_name_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_tracks("0,1,0,bad,2,3,1,1,1,0,0.5\n")
    assert "line 1" in str(exc.value) and "x" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_tracks("0,1,0,1,2,3,1,1,1,0,0.5\n0,1,0,1,2,inf,1,1,1,0,0.5\n")
    assert "line 2" in str(exc.value)

    with pytest.raises(ParseError, match="regression"):
        parse_tracks("5,1,0,1,2,3,1,1,1,0,0.5\n4,1,0,1,2,3,1,1,1,0,0.5\n")

    with pytest.raises(ParseError, match="confidence"):
        parse_tracks("0,1,0,1,2,3,1,1,1,0,1.5\n")


def test_parse_rejects_negative_frame():
    with pytest.raises(ParseError) as exc:
        parse_tracks("-1,1,0,1,2,3,1,1,1,0,0.5\n")
    assert exc.value.line_no == 1 and exc.value.column == "frame"
    assert "non-negative" in str(exc.value)


def test_parse_duplicate_identity_is_per_frame():
    row = "{f},{t},{c},1,2,3,1,1,1,0,0.5\n"
    ok = row.format(f=0, t=1, c=0) + row.format(f=0, t=1, c=1) + row.format(f=1, t=1, c=0)
    assert [len(d) for _, d in parse_tracks(ok).frames] == [2, 1]
    with pytest.raises(ParseError) as exc:
        parse_tracks(ok + row.format(f=1, t=2, c=0) + row.format(f=1, t=1, c=0))
    assert exc.value.line_no == 5
    assert "duplicate (track_id=1, class_id=0) in frame 1" in str(exc.value)


def test_parse_detector_only_rows():
    seq = parse_tracks("0,,0,1,2,3,1,1,1,0,0.5\n")
    assert seq.frames[0][1][0].track_id is None


def test_convert_origin_cell():
    grid = GridConfig()
    seq = convert_positions([(0, 3, 0)], grid, native_fps=2.0)
    d = seq.frames[0][1][0]
    assert (d.box.x, d.box.y) == (grid.origin_x, grid.origin_y)
    assert d.box.z == grid.person_height / 2
    assert d.track_id == 3
    assert d.confidence == 1.0


def test_convert_grid_arithmetic():
    grid = GridConfig(origin_x=-3.0, origin_y=-9.0, step=0.025, grid_width=480)
    seq = convert_positions([(0, 0, 481)], grid, native_fps=2.0)
    d = seq.frames[0][1][0]
    assert d.box.x == pytest.approx(-2.975, abs=1e-12)
    assert d.box.y == pytest.approx(-8.975, abs=1e-12)


def test_convert_half_height_centers():
    grid = GridConfig(person_height=1.8)
    seq = convert_positions([(0, 0, 0), (1, 1, 99), (1, 2, 500)], grid, native_fps=2.0)
    for _, dets in seq.frames:
        for d in dets:
            assert d.box.z == 0.9


def test_convert_injective_per_frame():
    grid = GridConfig(grid_width=10, step=0.5)
    records = [(0, i, i) for i in range(50)]
    seq = convert_positions(records, grid, native_fps=2.0)
    centers = {(d.box.x, d.box.y) for d in seq.frames[0][1]}
    assert len(centers) == 50


def test_convert_row_bound():
    grid = GridConfig(grid_width=10, grid_height=5)
    with pytest.raises(ValueError, match="outside"):
        convert_positions([(0, 0, 51)], grid, native_fps=2.0)


@pytest.mark.parametrize("records, message", [
    ([(0, 3, 0), (1, 3, -1)], "position_id must be non-negative, got -1"),
    ([(0, 3, 0), (1, -2, 4)], "person_id must be non-negative, got -2"),
    ([(0, -2, -1)], "position_id must be non-negative, got -1"),
    ([(0, 3, 50), (0, -2, 0), (0, 3, -1)], "position_id 50 lies outside the 10x5 grid"),
    ([(0, -2, 0), (0, 3, 50), (0, 3, -1)], "person_id must be non-negative, got -2"),
])
def test_convert_names_the_first_bad_record(records, message):
    grid = GridConfig(grid_width=10, grid_height=5)
    with pytest.raises(ValueError, match=f"^{message}$"):
        convert_positions(records, grid, native_fps=2.0)


def test_convert_recenter():
    grid = GridConfig(recenter_x=1.0, recenter_y=-2.0)
    seq = convert_positions([(0, 0, 0)], grid, native_fps=2.0)
    d = seq.frames[0][1][0]
    assert d.box.x == grid.origin_x + 1.0
    assert d.box.y == grid.origin_y - 2.0


def test_parse_positions_rows():
    recs = parse_positions("# frame,person_id,position_id\n0,1,5\n1,1,6\n")
    assert recs == [(0, 1, 5), (1, 1, 6)]
    with pytest.raises(ParseError, match="line 1"):
        parse_positions("0,1\n")


def test_parse_positions_rejects_a_negative_frame():
    """convert once wrote frame -1, which the track reader then refused."""
    with pytest.raises(ParseError, match="line 1, column 'frame': must be non-negative"):
        parse_positions("-1,3,0\n0,3,1\n")


@pytest.mark.parametrize("header", ["", "# frame,track_id\n"])
def test_a_leading_byte_order_mark_is_skipped(header):
    """A file saved with a UTF-8 byte order mark once failed on its first
    line: the mark was read as part of the frame token or the comment."""
    text = header + "0,7,0,1.0,2.0,0.9,0.6,0.6,1.8,0.0,0.98\n"
    want = parse_tracks(text).frames
    assert want and parse_tracks("\ufeff" + text).frames == want
    assert parse_tracks(b"\xef\xbb\xbf" + text.encode()).frames == want


def test_parse_positions_rejects_a_negative_position_id():
    with pytest.raises(
        ParseError, match=r"^line 3, column 'position_id': must be non-negative$"
    ):
        parse_positions("# frame,person_id,position_id\n0,1,5\n1,2,-3\n")


def test_parse_positions_names_the_line_of_a_negative_person_id():
    """convert once reported a negative person_id without its line, from
    convert_positions."""
    with pytest.raises(
        ParseError, match=r"^line 3, column 'person_id': must be non-negative$"
    ):
        parse_positions("# frame,person_id,position_id\n0,1,5\n1,-3,0\n")
    with pytest.raises(ParseError, match=r"^line 1, column 'position_id'"):
        parse_positions("0,-3,-1\n")


def _input_forms(text):
    """``text`` as a str, bytes, a text stream and a binary stream, each
    without and with a leading byte order mark."""
    for t in (text, "\ufeff" + text):
        yield from (t, t.encode(), io.StringIO(t), io.BytesIO(t.encode()))


def _bank(text):
    bank = parse_anchor_bank(text)
    return bank.k, bank.seed, bank.inertia, bank.centers.tobytes()


READER_TEXTS = pytest.mark.parametrize(
    "read, text",
    [
        (parse_tracks, "# frame,track_id\n0,7,0,1.0,2.0,0.9,0.6,0.6,1.8,0.0,0.98\n\n"
                       "2,7,0,1.5,2.0,0.9,0.6,0.6,1.8,0.0,0.5\n"),
        (parse_positions, "# frame,person_id,position_id\n0,1,5\n\n1,1,6\n"),
        (_bank, "# k=2, seed=3, inertia=0.5\n# x,y,z\n1.0,2.0,3.0\n\n-1.5,0.25,4.0\n"),
    ],
    ids=["tracks", "positions", "anchor-bank"],
)


@READER_TEXTS
def test_every_reader_takes_each_input_form_with_or_without_a_byte_order_mark(read, text):
    """parse_positions and parse_anchor_bank once took only str and text
    streams, and read a byte order mark as part of the first line."""
    want = read(text)
    got = [read(form) for form in _input_forms(text)]
    assert len(got) == 8 and all(g == want for g in got)


@READER_TEXTS
def test_every_reader_leaves_a_binary_stream_open(read, text):
    """A binary stream was once wrapped in a TextIOWrapper, which closed the
    caller's stream when the reader dropped it."""
    stream = io.BytesIO(text.encode())
    read(stream)
    assert not stream.closed


def _seq_with_track(xs, frames, fps, track_id=0):
    frame_map = {}
    for f, x in zip(frames, xs):
        frame_map[f] = [
            Detection(Box3D(x, 0.0, 0.9, 0.6, 0.6, 1.8), class_id=0, track_id=track_id)
        ]
    return make_sequence(frame_map, native_fps=fps)


def test_velocity_constant_motion():
    seq = estimate_velocities(_seq_with_track([0.0, 1.0, 2.0], [0, 1, 2], fps=1.0))
    for _, dets in seq.frames:
        assert dets[0].velocity == pytest.approx((1.0, 0.0))


def test_velocity_singleton_identity():
    seq = estimate_velocities(_seq_with_track([5.0], [3], fps=1.0))
    assert seq.frames[0][1][0].velocity == (0.0, 0.0)


def test_velocity_rejects_an_identity_twice_in_a_frame():
    seq = convert_positions([(0, 3, 0), (0, 3, 1), (1, 3, 2)], GridConfig(), native_fps=2.0)
    with pytest.raises(ValueError, match="^track_id 3 of class 0 appears twice in frame 0$"):
        estimate_velocities(seq)


def test_velocity_across_gap():
    # 2 fps, identity only at frames 0 and 3: dt = 1.5 s, dx = 0.75 m
    seq = estimate_velocities(_seq_with_track([0.0, 0.75], [0, 3], fps=2.0))
    for _, dets in seq.frames:
        assert dets[0].velocity[0] == pytest.approx(0.5)
        assert dets[0].velocity[1] == 0.0


def test_velocity_preserves_everything_else():
    seq = random_sequence(5)
    out = estimate_velocities(seq)
    assert out.native_fps == seq.native_fps
    assert out.frame_indices == seq.frame_indices
    for (f1, d1), (f2, d2) in zip(seq.frames, out.frames):
        assert f1 == f2
        for a, b in zip(d1, d2):
            assert a.box == b.box
            assert a.track_id == b.track_id
            assert a.class_id == b.class_id
            assert a.confidence == b.confidence


# --- int64 range ----------------------------------------------------------------


@pytest.mark.parametrize(
    "column, row",
    [
        ("frame", "100000000000000000000,1,0,1,2,3,1,1,1,0,0.5\n"),
        ("track_id", "0,99999999999999999999999,0,1,2,3,1,1,1,0,0.5\n"),
        ("class_id", "0,1,9223372036854775808,1,2,3,1,1,1,0,0.5\n"),
    ],
)
def test_parse_rejects_ids_outside_int64(column, row, tmp_path, capsys):
    from mtmceval.cli import main

    with pytest.raises(ParseError) as exc:
        parse_tracks("# header\n" + row)
    assert exc.value.line_no == 2 and exc.value.column == column
    assert "outside the signed 64-bit range" in str(exc.value)
    path = tmp_path / "t.csv"
    path.write_text(row)
    assert main(["evaluate", "--gt", str(path), "--pred", str(path)]) == 2
    assert f"column '{column}': outside the signed 64-bit range" in capsys.readouterr().err


def test_parse_accepts_int64_extremes():
    top = 2**63 - 1
    seq = parse_tracks(f"{top},{top},{top},1,2,3,1,1,1,0,0.5\n")
    (frame, (det,)), = seq.frames
    assert (frame, det.track_id, det.class_id) == (top, top, top)


# --- fast reader against the row reader -----------------------------------------


def _same_table(a, b):
    for name in ("frame_index", "offsets", "frame", "track_id", "class_id",
                 *FLOAT_COLUMNS, "vx", "vy"):
        u, v = getattr(a, name), getattr(b, name)
        if u is None or v is None:
            assert u is v, name
        else:
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name


_IDS = (0, 1, 7, 2**31, 2**53 + 1, 2**62 + 3, 2**63 - 1)


def _number(rng, v):
    """v written as repr, with a signed 17-digit exponent, rounded to a short
    exponent form, or padded with spaces."""
    form = int(rng.integers(4))
    if form == 0:
        return repr(v)
    if form == 1:
        return f"{v:+.17e}"
    if form == 2:
        return f"{v:.6E}"
    return f" {v!r} "


def _valid_rows(rng, velocity, detector_only=False):
    """Data rows of a valid track file, frames ascending with gaps; with
    detector_only, about half the rows have an empty track_id."""
    frames = np.unique(rng.integers(0, 2**40, size=int(rng.integers(1, 12))))
    rows = []
    for f in frames.tolist():
        n_rows = rng.integers(1, 6)
        pairs = {(_IDS[rng.integers(len(_IDS))], int(rng.integers(0, 4))) for _ in range(n_rows)}
        for tid, cls in sorted(pairs, key=lambda p: rng.random()):
            vals = [*rng.uniform(-1e3, 1e3, 3), *rng.uniform(1e-3, 5.0, 3),
                    float(rng.uniform(-20, 20)), (0.0, 1.0, rng.random())[rng.integers(3)]]
            if velocity:
                vals += list(rng.normal(size=2))
            sign = "+" if rng.random() < 0.2 else ""
            track_id = "" if detector_only and rng.random() < 0.5 else f"{sign}{tid}"
            rows.append(",".join([f"{sign}{f}", track_id, str(cls)]
                                 + [_number(rng, float(v)) for v in vals]))
    return rows


def _file(rng, rows):
    """Rows under a header, with comment and blank lines, LF or CRLF."""
    lines = ["# frame,track_id,class_id,x,y,z,width,length,height,yaw,confidence"]
    for r in rows:
        if rng.random() < 0.1:
            lines.append("#" + " comment # with hash" * int(rng.integers(2)))
        if rng.random() < 0.1:
            lines.append("")
        lines.append(r)
    end = "\r\n" if rng.random() < 0.3 else "\n"
    return end.join(lines) + end


def _corrupt(rng, rows, kind):
    """rows with one more defect of the given kind, put on a data row, so
    that it can be applied to its own output."""
    rows = list(rows)
    data = [k for k, r in enumerate(rows) if r.strip()]
    i = data[int(rng.integers(len(data)))]
    parts = rows[i].split(",")
    if kind == "mid-line #":
        parts[-1] += " # note"
    elif kind in ("float in int column", "underscore", "outside int64"):
        parts[int(rng.integers(3))] = {"float in int column": "5.0", "underscore": "1_0",
                                       "outside int64": str(2**63)}[kind]
    elif kind in ("nan", "inf", "1e400"):
        parts[int(rng.integers(3, 11))] = kind
    elif kind == "empty track_id":
        parts[1] = ""
    elif kind == "12 columns":
        parts.append("1")
    elif kind == "mixed 11/13":
        parts += ["0.5", "-0.5"]
    elif kind == "negative id":
        parts[int(rng.integers(1, 3))] = "-3"
    elif kind == "bad confidence":
        parts[10] = "1.5"
    elif kind == "zero width":
        parts[6] = "0"
    rows[i] = ",".join(parts)
    if kind == "frame regression":
        rows.append(rows[data[0]])  # a duplicate instead when the file has one frame
    elif kind == "duplicate identity":
        rows.insert(i, rows[i])
    elif kind == "whitespace line":
        rows.insert(i, "   ")
    return rows


CORRUPTIONS = ("mid-line #", "float in int column", "underscore", "nan", "inf", "1e400",
               "empty track_id", "12 columns", "mixed 11/13", "frame regression",
               "negative id", "duplicate identity", "outside int64", "whitespace line",
               "bad confidence", "zero width")


def _corpus(n_files=2000):
    """Seeded track files, each with 0-3 defects; every third has
    detector-only rows and every fourth velocity columns. Yields whether a
    file is plain (neither defects nor detector-only rows) and its text."""
    rng = np.random.default_rng(20261019)
    for case in range(n_files):
        rows = _valid_rows(rng, velocity=case % 4 == 0, detector_only=case % 3 == 0)
        defects = rng.integers(len(CORRUPTIONS), size=int(rng.integers(4))).tolist()
        for k in defects:
            rows = _corrupt(rng, rows, CORRUPTIONS[k])
        yield not defects and case % 3 != 0, _file(rng, rows)


def _outcome(text):
    """parse_tracks' ParseError text, or the bytes of every table column."""
    try:
        t = parse_tracks(text).table
    except ParseError as exc:
        return f"ParseError: {exc}".encode()
    cols = [getattr(t, name) for name in ("frame_index", "offsets", "frame", "track_id",
                                         "class_id", *FLOAT_COLUMNS, "vx", "vy")]
    return b"|".join(b"None" if c is None else c.dtype.str.encode() + c.tobytes() for c in cols)


# SHA-256 over the outcomes of the corpus, taken before the row rules left the
# row-by-row reader: every ParseError message and every table bit unchanged.
CORPUS_DIGEST = "ceaaaac749e2cb02c22ccb3a237222fcccf7236b687937c56818667655b90297"


def test_fast_reader_equals_row_reader():
    """Every file of the corpus parses to the pinned errors and tables; a
    plain file is read by np.loadtxt, and a file that np.loadtxt reads, the
    row reader reads whole, to an equal table with a track_id on every row."""
    digest = hashlib.sha256()
    fast_read = rejected = 0
    for plain, text in _corpus():
        outcome = _outcome(text)
        digest.update(hashlib.sha256(outcome).digest())
        rejected += outcome.startswith(b"ParseError")
        lines = ingest._lines(text)
        fast = ingest._parse_fast(lines)
        assert fast is not None or not plain, text
        if fast is not None:
            table, has_id, frame, error = ingest._parse_rows(lines)
            assert error is None and frame is None and has_id.all(), text
            _same_table(fast[0], table)
            fast_read += 1
    assert digest.hexdigest() == CORPUS_DIGEST
    assert fast_read >= 400 and rejected >= 1000


ROW = "{f},{t},{c},1,2,3,{w},1,1,0,{p}\n"


def _parse_error(text):
    with pytest.raises(ParseError) as exc:
        parse_tracks(text)
    return str(exc.value)


def test_confidence_is_reported_before_class_id():
    assert _parse_error(ROW.format(f=0, t=1, c=-1, w=1, p=1.5)) == (
        "line 1, column 'confidence': 1.5 outside [0, 1]"
    )


def test_rule_break_is_reported_before_a_later_bad_token():
    # data line 2 is file line 4; the bad token is on data line 4
    text = ("# header\n" + ROW.format(f=0, t=1, c=0, w=1, p=0.5) + "\n"
            + ROW.format(f=0, t=2, c=0, w=0, p=0.5) + "# note\n"
            + ROW.format(f=1, t=1, c=0, w=1, p=0.5) + ROW.format(f=1, t=2, c=0, w="x", p=0.5))
    assert _parse_error(text) == "line 4, column 'width': must be positive"


def test_frame_regression_is_reported_before_a_bad_token_on_its_row():
    text = ROW.format(f=5, t=1, c=0, w=1, p=0.5) + ROW.format(f=4, t=1, c=0, w="x", p=0.5)
    assert _parse_error(text) == "line 2, column 'frame': frame regression: 4 after 5"


def test_literal_minus_one_track_id_is_rejected_and_an_empty_one_accepted():
    literal = ROW.format(f=0, t=-1, c=0, w=1, p=0.5)
    assert _parse_error(literal) == "line 1, column 'track_id': must be non-negative"
    empty = ROW.format(f=0, t="", c=0, w=1, p=0.5)
    assert parse_tracks(empty).frames[0][1][0].track_id is None
    # the row reader's table holds -1 for both, its mask tells them apart
    assert _parse_error(empty + literal) == "line 2, column 'track_id': must be non-negative"


def test_rule_break_alone_is_reported_without_the_row_reader(monkeypatch):
    calls = []
    row_reader = ingest._parse_rows
    monkeypatch.setattr(ingest, "_parse_rows", lambda lines: calls.append(1) or row_reader(lines))
    text = ROW.format(f=0, t=1, c=0, w=1, p=0.5) + ROW.format(f=0, t=2, c=0, w=1, p=1.5)
    assert _parse_error(text) == "line 2, column 'confidence': 1.5 outside [0, 1]"
    assert calls == []
    assert parse_tracks(ROW.format(f=0, t="", c=0, w=1, p=0.5)).table.track_id.tolist() == [-1]
    assert calls == [1]


def test_yaw_just_below_minus_pi_wraps_to_minus_pi():
    yaw = math.nextafter(-math.pi, -4.0)
    assert yaw == -3.1415926535897936
    box = Box3D(1, 2, 0.9, 0.6, 0.6, 1.8, yaw)
    assert box.yaw == -math.pi
    seq = make_sequence({0: [Detection(box, class_id=0, track_id=1)]}, native_fps=10.0)
    assert validate_sequence(seq) == []
    assert roundtrip(seq) == seq
    parsed = parse_tracks(f"0,1,0,1,2,0.9,0.6,0.6,1.8,{yaw!r},1.0\n", native_fps=10.0)
    assert parsed.table.yaw.tolist() == [-math.pi]
    assert validate_sequence(parsed) == [] and parsed == seq
    # a few ulps on either side of odd multiples of pi: in range, and the
    # scalar and column forms agree bit for bit
    yaws = []
    for centre in (-3 * math.pi, -math.pi, math.pi, 3 * math.pi):
        for direction in (-10.0, 10.0):
            v = centre
            for _ in range(4):
                v = math.nextafter(v, direction)
                yaws.append(v)
    wrapped = [normalize_yaw(v) for v in yaws]
    assert all(-math.pi <= w < math.pi for w in wrapped)
    assert np.array(wrapped).tobytes() == normalize_yaws(np.array(yaws)).tobytes()


def test_fast_reader_rejects_mid_line_comment():
    text = "0,1,0,1,2,3,1,1,1,0,0.5 # note\n"
    assert ingest._parse_fast(ingest._lines(text)) is None
    with pytest.raises(ParseError, match="not a number: '0.5 # note'"):
        parse_tracks(text)


def test_parse_builds_no_row_objects_until_frames_is_read(row_objects, tmp_path):
    from mtmceval.cli import main

    gt = tmp_path / "gt.csv"
    with gt.open("w") as fh:
        emit_tracks(random_sequence(3, n_frames=50), fh)
    row_objects.clear()
    for per_class in ([], ["--per-class"]):
        assert main(["evaluate", "--gt", str(gt), "--pred", str(gt), *per_class]) == 0
    assert row_objects == []
    assert parse_tracks(gt.read_text()).frames
    assert Detection in row_objects and Box3D in row_objects


def test_equal_parses_compare_without_row_objects(row_objects):
    buf = io.StringIO()
    emit_tracks(random_sequence(3, n_frames=50), buf)
    row_objects.clear()
    a, b = parse_tracks(buf.getvalue()), parse_tracks(buf.getvalue())
    assert a == b
    assert a != parse_tracks(buf.getvalue(), scene_name="other")
    assert row_objects == []


def test_rows_without_velocity_equal_in_every_file_form(row_objects):
    still = [Detection(box=Box3D(1, 2, 0.9, 0.6, 0.6, 1.8), class_id=0, track_id=1)]
    moving = Detection(
        box=Box3D(4, 5, 0.9, 0.6, 0.6, 1.8), class_id=0, track_id=2, velocity=(0.5, -0.25)
    )
    seq = make_sequence({0: still + [moving], 1: still, 2: still}, native_fps=2.0)
    back = roundtrip(seq)  # 13 columns, with empty velocity cells
    assert back == seq
    # the rows of frames 1 and 2 read back NaN velocities from that file,
    # and no velocity columns from an 11-column file
    later = Sequence.from_table(back.table.select(frames=back.table.frame_index > 0), 2.0)
    assert np.isnan(later.table.vx).all()
    plain = make_sequence({1: still, 2: still}, native_fps=2.0)
    assert plain.table.vx is None and roundtrip(plain).table.vx is None
    row_objects.clear()
    assert later == plain and roundtrip(plain) == later
    assert row_objects == []
    assert later.frames == plain.frames


def test_parse_peak_memory_stays_under_five_times_the_file(tmp_path):
    """A 120k-row file is held as its lines, np.loadtxt's rows and one copy
    of each column, each in a buffer of its own: the tracemalloc peak of
    parse_tracks stays under 5x the file size. Stacking the rows into 2-D
    arrays and transposing them back to columns took it to 5.9x."""
    rng = np.random.default_rng(5)
    per = 20
    x, y = rng.uniform(-10, 10, (2, 6000 * per)).tolist()
    path = tmp_path / "gt.csv"
    path.write_text("".join(
        f"{i // per},{i % per},0,{a!r},{b!r},0.9,0.6,0.6,1.8,0.0,1.0\n"
        for i, (a, b) in enumerate(zip(x, y))
    ))
    with path.open() as fh:
        tracemalloc.start()
        try:
            t = parse_tracks(fh).table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert t.track_id.size == 6000 * per and t.frame_index.size == 6000
    assert peak < 5.0 * path.stat().st_size
    for name in ("frame_index", "offsets", "track_id", "class_id") + FLOAT_COLUMNS:
        col = getattr(t, name)
        assert col.base is None and col.flags.c_contiguous, name
