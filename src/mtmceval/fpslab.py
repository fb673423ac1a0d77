"""Low-FPS robustness protocol: stride subsampling and a fixed controlled
evaluation window shared by every inference rate.

Subsampling anchors at position 0 of the ordered frame list, so windows at
different rates nest: the 1 FPS window is contained in every higher-rate
subsample of the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import json

from .datamodel import EvalWindow, Sequence
from .matching import SimilaritySpec
from .metrics import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_DUR_ALPHA,
    MetricsReport,
    _pct,
    _table,
    class_report,
)


@dataclass(frozen=True)
class SweepSpec:
    """Configuration for a frame-rate sweep."""

    native_fps: float
    inference_rates: tuple[float, ...]
    eval_fps: float
    dur_alpha: float = DEFAULT_DUR_ALPHA
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    similarity: SimilaritySpec = SimilaritySpec()
    primary_class: int = 0

    def __post_init__(self) -> None:
        if not self.inference_rates:
            raise ValueError("inference_rates must be nonempty")
        for rate in self.inference_rates:
            stride_for(self.native_fps, rate)
        if self.eval_fps > min(self.inference_rates):
            raise ValueError(
                "eval_fps must not exceed the lowest inference rate"
            )


def stride_for(native_fps: float, rate: float) -> int:
    """keep-1-of-n stride realizing an inference rate; native_fps must divide
    evenly."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    n = round(native_fps / rate)
    if n < 1 or abs(native_fps - n * rate) > 1e-9:
        raise ValueError(
            f"rate {rate} does not divide native_fps {native_fps} into an "
            f"integer stride"
        )
    return n


def stride_subsample(seq: Sequence, keep_one_of: int) -> Sequence:
    """Retain positions 0, n, 2n, ... of the ordered frame list.

    The effective frame rate drops to native_fps / n; retained frames keep
    their native indices.
    """
    if keep_one_of < 1:
        raise ValueError("keep_one_of must be >= 1")
    kept = [seq.frames[i] for i in range(0, len(seq.frames), keep_one_of)]
    return Sequence(
        frames=tuple(kept),
        native_fps=seq.native_fps / keep_one_of,
        scene_name=seq.scene_name,
    )


def controlled_window(gt: Sequence, native_fps: float, eval_fps: float) -> EvalWindow:
    """The fixed evaluation subset: positions 0, s, 2s, ... of the GT frame
    list with s = native_fps / eval_fps; f0 = eval_fps."""
    s = stride_for(native_fps, eval_fps)
    indices = [gt.frames[i][0] for i in range(0, len(gt.frames), s)]
    if not indices:
        raise ValueError("ground truth has no frames to window")
    return EvalWindow(frame_indices=tuple(indices), f0=eval_fps)


def fps_sweep(
    gt: Sequence,
    tracker_outputs: dict[float, Sequence],
    spec: SweepSpec,
) -> list[tuple[float, MetricsReport]]:
    """Score each rate's tracker output on the identical controlled window.

    Rows come back ordered by descending rate. A tracker output missing any
    window frame is rejected, naming the rate and the missing frames.
    """
    window = controlled_window(gt, spec.native_fps, spec.eval_fps)
    rows: list[tuple[float, MetricsReport]] = []
    for rate in sorted(spec.inference_rates, reverse=True):
        if rate not in tracker_outputs:
            raise ValueError(f"no tracker output supplied for rate {rate}")
        out = tracker_outputs[rate]
        missing = sorted(set(window.frame_indices) - set(out.frame_indices))
        if missing:
            raise ValueError(
                f"tracker output at rate {rate} is missing window frames "
                f"{missing[:10]}{'...' if len(missing) > 10 else ''}"
            )
        report = class_report(
            gt,
            out,
            window,
            spec.similarity,
            alpha_grid=spec.alpha_grid,
            dur_alpha=spec.dur_alpha,
            primary_class=spec.primary_class,
        )
        rows.append((rate, report))
    return rows


def sweep_to_json(rows: list[tuple[float, MetricsReport]]) -> str:
    payload = [
        {"inference_fps": rate, "report": report.as_dict()} for rate, report in rows
    ]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def sweep_to_text(rows: list[tuple[float, MetricsReport]]) -> str:
    """Plain text table of class-averaged metrics, one row per rate."""
    headers = ["Inference FPS", "HOTA", "DetA", "AssA", "LocA", "AvgTrackDur (s)"]
    body: list[list[str]] = []
    for rate, report in rows:
        m = report.class_average
        cells = [_pct(v) for v in (m.hota, m.deta, m.assa, m.loca)]
        body.append([f"{rate:g}", *cells, f"{m.avg_track_dur_seconds:.1f}"])
    return "\n".join(_table(headers, body)) + "\n"
