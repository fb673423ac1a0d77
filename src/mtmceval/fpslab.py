"""Low-FPS robustness protocol on the native frame grid.

Every frame selection is the grid first + k*s of native frame indices,
anchored at the first GT frame. The controlled window spans the first to the
last GT frame at s = native_fps / eval_fps; a frame without rows has no
detections. Each rate's stride divides the window's, so windows nest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .datamodel import EvalWindow, Sequence, check_real
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
    class_names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.inference_rates:
            raise ValueError("inference_rates must be nonempty")
        window_stride = stride_for(self.native_fps, self.eval_fps)
        for rate in self.inference_rates:
            if window_stride % stride_for(self.native_fps, rate):
                raise ValueError(f"eval_fps {self.eval_fps:g} must divide rate {rate:g}")


def stride_for(native_fps: float, rate: float) -> int:
    """keep-1-of-n stride realizing an inference rate; native_fps must divide
    evenly."""
    check_real("rate", rate)
    n = round(native_fps / rate)
    if n < 1 or abs(native_fps - n * rate) > 1e-9:
        raise ValueError(
            f"rate {rate} does not divide native_fps {native_fps} into an "
            f"integer stride"
        )
    return n


def stride_subsample(seq: Sequence, keep_one_of: int) -> Sequence:
    """Keep the frames on the grid first + k*n, where first is the sequence's
    first frame index; frames between grid points are dropped.

    The effective frame rate drops to native_fps / n; retained frames keep
    their native indices.
    """
    if keep_one_of < 1:
        raise ValueError("keep_one_of must be >= 1")
    fi = seq.table.frame_index
    on_grid = (fi - (fi[0] if fi.size else 0)) % keep_one_of == 0
    return Sequence.from_table(
        seq.table.select(frames=on_grid),
        native_fps=seq.native_fps / keep_one_of,
        scene_name=seq.scene_name,
    )


def controlled_window(gt: Sequence, native_fps: float, eval_fps: float) -> EvalWindow:
    """The fixed evaluation window: native frames first, first + s, ... up to
    the last GT frame, with s = native_fps / eval_fps and first the first GT
    frame; f0 = eval_fps. Grid frames without GT rows stay in the window.
    A window of 2**63 frames or more, which no int64 array can index, raises
    ValueError naming its first and last frame."""
    s = stride_for(native_fps, eval_fps)
    fi = gt.table.frame_index
    if not fi.size:
        raise ValueError("ground truth has no frames to window")
    # counted in Python integers: int64 arithmetic wraps at the top frame
    first, last = fi[[0, -1]].tolist()
    n = (last - first) // s + 1
    if n >= 2**63:
        raise ValueError(
            f"the window from frame {first} to frame {last} holds 2**63 frames or more"
        )
    return EvalWindow(first + s * np.arange(n), f0=eval_fps)


def fps_sweep(
    gt: Sequence,
    tracker_outputs: dict[float, Sequence],
    spec: SweepSpec,
) -> list[tuple[float, MetricsReport]]:
    """Score each rate's tracker output on the identical controlled window.

    Rows come back ordered by descending rate. A window frame without rows
    has no detections; rows off the rate's grid (first GT frame + k *
    native_fps / rate) are rejected, naming the rate and the frames.
    """
    window = controlled_window(gt, spec.native_fps, spec.eval_fps)
    rows: list[tuple[float, MetricsReport]] = []
    for rate in sorted(spec.inference_rates, reverse=True):
        if rate not in tracker_outputs:
            raise ValueError(f"no tracker output supplied for rate {rate}")
        out = tracker_outputs[rate]
        s = stride_for(spec.native_fps, rate)
        fi = out.table.frame_index
        off = fi[(fi - window.frames[0]) % s != 0].tolist()
        if off:
            raise ValueError(
                f"tracker output at rate {rate} has rows off its frame grid: "
                f"frames {off[:10]}{'...' if len(off) > 10 else ''}"
            )
        report = class_report(
            gt,
            out,
            window,
            spec.similarity,
            alpha_grid=spec.alpha_grid,
            dur_alpha=spec.dur_alpha,
            primary_class=spec.primary_class,
            class_names=spec.class_names,
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
