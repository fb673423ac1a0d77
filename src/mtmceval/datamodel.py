"""Core value types shared by every module.

All types are immutable after construction and carry no I/O logic.
Timestamps are never stored; time in seconds is always frame_index / native_fps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def normalize_yaw(yaw: float) -> float:
    """Wrap a heading angle into [-pi, pi)."""
    wrapped = math.fmod(yaw + math.pi, 2.0 * math.pi)
    if wrapped < 0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


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
        object.__setattr__(self, "confidence", float(self.confidence))
        if self.velocity is not None:
            vx, vy = self.velocity
            object.__setattr__(self, "velocity", (float(vx), float(vy)))


@dataclass(frozen=True)
class Sequence:
    """Ordered frames of detections plus frame-rate metadata.

    Frames absent from the list mean "no detections at that timestep".
    Used for both ground truth and tracker output; all detections share one
    world coordinate frame.
    """

    frames: tuple[tuple[int, tuple[Detection, ...]], ...]
    native_fps: float
    scene_name: str = ""

    def __post_init__(self) -> None:
        if self.native_fps <= 0:
            raise ValueError("native_fps must be positive")
        frames = tuple(
            (int(idx), tuple(dets)) for idx, dets in self.frames
        )
        object.__setattr__(self, "frames", frames)

    @property
    def frame_indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.frames)

    def as_dict(self) -> dict[int, tuple[Detection, ...]]:
        return {idx: dets for idx, dets in self.frames}


@dataclass(frozen=True)
class EvalWindow:
    """The fixed set of frames to score, plus the reference rate f0 used to
    convert run lengths from frames to seconds."""

    frame_indices: tuple[int, ...]
    f0: float

    def __post_init__(self) -> None:
        if not self.frame_indices:
            raise ValueError("EvalWindow needs at least one frame")
        if self.f0 <= 0:
            raise ValueError("f0 must be positive")
        idx = tuple(sorted(set(int(i) for i in self.frame_indices)))
        object.__setattr__(self, "frame_indices", idx)

    def __len__(self) -> int:
        return len(self.frame_indices)


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate_sequence."""

    frame_index: int | None
    field: str
    message: str

    def __str__(self) -> str:
        where = f"frame {self.frame_index}: " if self.frame_index is not None else ""
        return f"{where}{self.field}: {self.message}"


def validate_sequence(seq: Sequence) -> list[Violation]:
    """Check Sequence invariants, reporting (never raising) violations.

    Idempotent and side-effect free. Covers: strictly increasing frame
    indices, per-field finiteness and bounds, and uniqueness of
    (track_id, class_id) among identity-carrying detections in one frame.
    """
    violations: list[Violation] = []
    prev_idx: int | None = None
    for frame_index, dets in seq.frames:
        if frame_index < 0:
            violations.append(
                Violation(frame_index, "frame_index", "must be non-negative")
            )
        if prev_idx is not None and frame_index <= prev_idx:
            violations.append(
                Violation(
                    frame_index,
                    "frame_index",
                    f"not strictly increasing (previous {prev_idx})",
                )
            )
        prev_idx = frame_index

        seen_ids: set[tuple[int, int]] = set()
        for det in dets:
            if det.class_id < 0:
                violations.append(
                    Violation(frame_index, "class_id", "must be non-negative")
                )
            if det.track_id is not None and det.track_id < 0:
                violations.append(
                    Violation(frame_index, "track_id", "must be non-negative")
                )
            if not (0.0 <= det.confidence <= 1.0):
                violations.append(
                    Violation(
                        frame_index,
                        "confidence",
                        f"{det.confidence} outside [0, 1]",
                    )
                )
            box = det.box
            for name in ("x", "y", "z", "width", "length", "height", "yaw"):
                if not math.isfinite(getattr(box, name)):
                    violations.append(
                        Violation(frame_index, name, "not finite")
                    )
            for name in ("width", "length", "height"):
                if getattr(box, name) <= 0:
                    violations.append(
                        Violation(frame_index, name, "must be positive")
                    )
            if not (-math.pi <= box.yaw < math.pi):
                violations.append(
                    Violation(frame_index, "yaw", f"{box.yaw} not in [-pi, pi)")
                )
            if det.track_id is not None:
                key = (det.track_id, det.class_id)
                if key in seen_ids:
                    violations.append(
                        Violation(
                            frame_index,
                            "track_id",
                            f"duplicate (track_id={det.track_id}, "
                            f"class_id={det.class_id}) in frame",
                        )
                    )
                seen_ids.add(key)
    return violations


def make_sequence(
    frames: dict[int, list[Detection]] | list[tuple[int, list[Detection]]],
    native_fps: float,
    scene_name: str = "",
) -> Sequence:
    """Build a Sequence from a frame mapping, sorting frames by index."""
    if isinstance(frames, dict):
        items = sorted(frames.items())
    else:
        items = sorted(frames)
    return Sequence(
        frames=tuple((idx, tuple(dets)) for idx, dets in items),
        native_fps=float(native_fps),
        scene_name=scene_name,
    )
