import io

import numpy as np
import pytest

from mtmceval.datamodel import Box3D, Detection, make_sequence
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
