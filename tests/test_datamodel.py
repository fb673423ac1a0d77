import dataclasses
import math

import numpy as np
import pytest

from mtmceval.datamodel import (
    Box3D,
    Detection,
    EvalWindow,
    Sequence,
    make_sequence,
    normalize_yaw,
    validate_sequence,
)
from mtmceval.ingest import estimate_velocities


def _det(x=0.0, y=0.0, track_id=0, class_id=0, confidence=1.0):
    return Detection(
        box=Box3D(x, y, 0.9, 0.6, 0.6, 1.8, 0.0),
        class_id=class_id,
        confidence=confidence,
        track_id=track_id,
    )


def test_yaw_normalized_into_range():
    rng = np.random.default_rng(42)
    for yaw in rng.uniform(-10 * math.pi, 10 * math.pi, size=1000):
        w = normalize_yaw(float(yaw))
        assert -math.pi <= w < math.pi
        # idempotent
        assert normalize_yaw(w) == w


def test_box_constructor_normalizes_yaw():
    b = Box3D(0, 0, 0, 1, 1, 1, yaw=3 * math.pi)
    assert -math.pi <= b.yaw < math.pi
    assert math.isclose(b.yaw, math.pi) or math.isclose(b.yaw, -math.pi)


def test_validate_well_formed_sequence():
    seq = make_sequence(
        {0: [_det(track_id=1)], 1: [_det(x=1.0, track_id=1)]}, native_fps=2.0
    )
    assert validate_sequence(seq) == []


def test_validate_confidence_out_of_bounds():
    seq = make_sequence({3: [_det(confidence=1.5)]}, native_fps=1.0)
    violations = validate_sequence(seq)
    assert len(violations) == 1
    assert violations[0].frame_index == 3
    assert violations[0].field == "confidence"


def test_validate_duplicate_identity_in_frame():
    seq = make_sequence(
        {4: [_det(track_id=7), _det(x=2.0, track_id=7)]}, native_fps=1.0
    )
    violations = validate_sequence(seq)
    assert len(violations) == 1
    assert violations[0].frame_index == 4
    assert "duplicate" in violations[0].message


def test_validate_reports_each_row_in_the_track_reader_order():
    first = Detection(box=Box3D(0, 0, 0.9, 0.6, 0.6, 1.8), class_id=-1, track_id=-2)
    second = Detection(
        box=Box3D(math.nan, 0, 0.9, -1.0, 0.6, 1.8), class_id=-1, confidence=1.5, track_id=-2
    )
    seq = make_sequence({4: [first, second]}, native_fps=1.0)
    assert [str(v) for v in validate_sequence(seq)] == [
        "frame 4: class_id: must be non-negative",
        "frame 4: track_id: must be non-negative",
        "frame 4: confidence: 1.5 outside [0, 1]",
        "frame 4: x: not finite",
        "frame 4: width: must be positive",
        "frame 4: class_id: must be non-negative",
        "frame 4: track_id: must be non-negative",
        "frame 4: track_id: duplicate (track_id=-2, class_id=-1) in frame 4",
    ]


def test_validate_is_idempotent():
    seq = make_sequence({0: [_det(confidence=2.0)]}, native_fps=1.0)
    first = validate_sequence(seq)
    second = validate_sequence(seq)
    assert first == second


def test_validate_frame_regression_and_negative_dims():
    bad = Detection(
        box=Box3D(0, 0, 0, -1.0, 0.6, 1.8), class_id=0, confidence=1.0, track_id=0
    )
    seq = Sequence(frames=((2, (bad,)), (1, ())), native_fps=1.0)
    fields = {v.field for v in validate_sequence(seq)}
    assert "frame_index" in fields
    assert "width" in fields


def test_validate_reports_a_duplicate_across_two_entries_of_one_frame():
    """Parsing, validate_sequence, scoring and estimate_velocities count
    one identity per frame index, not per entry of the frame list."""
    a, b = _det(track_id=1), _det(x=2.0, track_id=1)
    seq = Sequence(((0, (a,)), (0, (b,))), 1.0)
    assert [str(v) for v in validate_sequence(seq)] == [
        "frame 0: frame_index: not strictly increasing (previous 0)",
        "frame 0: track_id: duplicate (track_id=1, class_id=0) in frame 0",
    ]
    with pytest.raises(ValueError, match="^track_id 1 of class 0 appears twice in frame 0$"):
        estimate_velocities(seq)


def test_same_track_id_different_class_is_allowed():
    seq = make_sequence(
        {0: [_det(track_id=7, class_id=0), _det(x=3.0, track_id=7, class_id=1)]},
        native_fps=1.0,
    )
    assert validate_sequence(seq) == []


def test_eval_window_sorts_and_validates():
    w = EvalWindow(frame_indices=(5, 1, 3), f0=2.0)
    assert w.frame_indices == (1, 3, 5)
    assert len(w) == 3
    for given in ([7, 3, 7, 1, 3], (1, 3, 7), range(1, 8, 2), np.array([1, 3, 7], np.int64),
                  np.array([3, -1], np.int32), np.array([3, 1], np.uint64), [2**63 - 1, -(2**63)]):
        w = EvalWindow(given, 2.0)
        want = sorted(set(given.tolist() if isinstance(given, np.ndarray) else given))
        assert w.frames.dtype == np.int64 and w.frames.tolist() == want
        assert len(w) == len(want) and w.f0 == 2.0
        assert type(w.frame_indices) is tuple and w.frame_indices == tuple(want)
        assert all(type(i) is int for i in w.frame_indices)
    given = np.arange(0, 9, 2)
    assert np.shares_memory(EvalWindow(given, 1.0).frames, given) and given.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w.frames[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.f0 = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.frames = np.arange(3)
    with pytest.raises(ValueError):
        EvalWindow(frame_indices=(), f0=1.0)
    with pytest.raises(ValueError):
        EvalWindow(frame_indices=(0,), f0=0.0)


INT64_RULE = r"{} must be an integer in \[-2\*\*63, 2\*\*63\)"


@pytest.mark.parametrize("given, shown", [
    ([0.5, 1.7, 2.2], "0.5"),
    (np.array([1.9, 3.9]), "1.9"),
    ([True, False], "True"),
    (["1", "2"], "'1'"),
    ([2**63], str(2**63)),
    ([1, 2**64], str(2**64)),
    ([-1, 2**63], str(2**63)),
    ([1, "a"], "'a'"),
])
def test_eval_window_refuses_frames_that_are_not_int64_integers(given, shown):
    with pytest.raises(ValueError, match=rf"^{INT64_RULE.format('frame_index')}, got {shown}$"):
        EvalWindow(given, 1.0)


@pytest.mark.parametrize("build, field, shown", [
    (lambda: Sequence(((0.5, (_det(),)),), 1.0), "frame_index", "0.5"),
    (lambda: Sequence(((np.float64(2.0), ()),), 1.0), "frame_index", r"np.float64\(2.0\)"),
    (lambda: Sequence(((2**63, ()),), 1.0), "frame_index", str(2**63)),
    (lambda: _det(track_id=1.7), "track_id", "1.7"),
    (lambda: _det(class_id=0.9), "class_id", "0.9"),
    (lambda: _det(track_id=True), "track_id", "True"),
    (lambda: _det(class_id="0"), "class_id", "'0'"),
    (lambda: _det(track_id=-(2**63) - 1), "track_id", str(-(2**63) - 1)),
])
def test_sequences_and_detections_refuse_ids_that_are_not_int64_integers(build, field, shown):
    with pytest.raises(ValueError, match=rf"^{INT64_RULE.format(field)}, got {shown}$"):
        build()


def test_negative_ids_and_frames_stay_representable():
    d = _det(track_id=-2, class_id=np.int64(-1))
    seq = Sequence(((np.int32(-3), (d,)),), 1.0)
    assert seq.table.frame_index.tolist() == [-3] and seq.frames[0][1] == (d,)
    assert {v.field for v in validate_sequence(seq)} == {"frame_index", "class_id", "track_id"}


def test_a_detection_with_track_id_minus_one_is_refused_naming_its_frame():
    """-1 is the track table's no-id marker: a Detection carrying it is
    refused, not turned into a detection without a track id."""
    frames = {3: [_det(track_id=0)], 7: [], 8: [_det(track_id=1), _det(track_id=-1)]}
    with pytest.raises(ValueError, match=r"^track_id -1 in frame 8: .*no-id marker.*None"):
        make_sequence(frames, 1.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
def test_rates_must_be_finite_and_positive(rate):
    with pytest.raises(ValueError, match="f0 must be finite and positive"):
        EvalWindow(frame_indices=(0,), f0=rate)
    with pytest.raises(ValueError, match="native_fps must be finite and positive"):
        make_sequence({0: [_det()]}, native_fps=rate)


def test_absent_frames_mean_no_detections():
    seq = make_sequence({0: [_det()], 10: [_det()]}, native_fps=1.0)
    assert seq.frame_indices == (0, 10)
    assert seq.as_dict().get(5, ()) == ()
    assert len(seq.as_dict()[0]) == 1
