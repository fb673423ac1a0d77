"""Multi-target multi-camera tracking evaluation toolkit.

Scores world-frame 3D tracker outputs against ground truth with the HOTA
metric family, detection AP, and an identity-persistence score (average
track duration in seconds), plus harnesses for frame-rate robustness sweeps,
grid-annotation conversion, k-means anchor banks and synthetic scenes.
"""

from .datamodel import (
    Box3D,
    Detection,
    EvalWindow,
    Sequence,
    make_sequence,
    validate_sequence,
)
from .ingest import (
    GridConfig,
    ParseError,
    convert_positions,
    emit_tracks,
    estimate_velocities,
    parse_positions,
    parse_tracks,
)
from .matching import FrameMatchSet, SimilaritySpec, hungarian, match_frame
from .metrics import (
    MetricsReport,
    avg_track_dur,
    class_report,
    detection_ap,
    postprocess_filter,
)
from .fpslab import SweepSpec, controlled_window, fps_sweep, stride_subsample
from .anchors import AnchorBank, collect_centers, kmeans
from .synthgen import DegradeSpec, degrade, gen_scene, oracle_metrics

__version__ = "0.1.0"

__all__ = [
    "Box3D",
    "Detection",
    "EvalWindow",
    "Sequence",
    "make_sequence",
    "validate_sequence",
    "GridConfig",
    "ParseError",
    "convert_positions",
    "emit_tracks",
    "estimate_velocities",
    "parse_positions",
    "parse_tracks",
    "FrameMatchSet",
    "SimilaritySpec",
    "hungarian",
    "match_frame",
    "MetricsReport",
    "avg_track_dur",
    "class_report",
    "detection_ap",
    "postprocess_filter",
    "SweepSpec",
    "controlled_window",
    "fps_sweep",
    "stride_subsample",
    "AnchorBank",
    "collect_centers",
    "kmeans",
    "DegradeSpec",
    "degrade",
    "gen_scene",
    "oracle_metrics",
]
