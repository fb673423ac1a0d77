"""Command-line front end: evaluate, sweep-fps, convert, gen-anchors, synth.

Configuration precedence is built-in defaults < JSON config file < command
line flags. Exit codes: 0 success, 2 input error (missing or malformed
files, bad arguments), 1 internal error. Identical inputs and configuration
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .anchors import collect_centers, emit_anchor_bank, kmeans
from .datamodel import Sequence, make_sequence
from .fpslab import (
    SweepSpec,
    controlled_window,
    fps_sweep,
    stride_for,
    sweep_to_json,
    sweep_to_text,
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
from .matching import SimilaritySpec
from .metrics import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_DUR_ALPHA,
    _roi_contains,
    class_report,
    postprocess_filter,
    report_to_json,
    report_to_text,
)
from .synthgen import DegradeSpec, degrade, gen_scene


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


@dataclass(frozen=True)
class ToolConfig:
    """Every tunable in one serializable record."""

    similarity_mode: str = "bev_iou"
    d_max: float = 2.0
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    dur_alpha: float = DEFAULT_DUR_ALPHA
    class_names: dict[int, str] = field(default_factory=dict)
    primary_class: int = 0
    roi: tuple[float, float, float, float] | list[tuple[float, float]] | None = None
    conf_threshold: float = 0.0
    native_fps: float = 30.0
    eval_fps: float | None = None
    grid: GridConfig = field(default_factory=GridConfig)
    anchor_k: int = 900
    seed: int = 0

    def __post_init__(self) -> None:
        self.similarity_spec()
        if not self.alpha_grid:
            raise ValueError("alpha_grid must be nonempty")
        for alpha in self.alpha_grid:
            _require("alpha_grid entry", alpha, 1.0)
        _require("dur_alpha", self.dur_alpha, 1.0)
        _require("native_fps", self.native_fps)
        if self.eval_fps is not None:
            _require("eval_fps", self.eval_fps)
        if self.roi is not None:
            try:
                _roi_contains(self.roi)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"roi {self.roi!r}: {exc}") from None

    def similarity_spec(self) -> SimilaritySpec:
        return SimilaritySpec(mode=self.similarity_mode, d_max=self.d_max)


def _require(key: str, value: object, upper: float = math.inf) -> None:
    """Raise ValueError naming key and value unless 0 < value <= upper."""
    if not (isinstance(value, numbers.Real) and 0 < value <= upper):
        rule = "positive" if upper == math.inf else f"in (0, {upper:g}]"
        raise ValueError(f"{key} must be {rule}, got {value!r}")


def load_config(path: str | None) -> ToolConfig:
    cfg = ToolConfig()
    if path is None:
        return cfg
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path}: {exc}") from None
    kwargs: dict = {}
    simple = {
        "similarity_mode",
        "d_max",
        "dur_alpha",
        "primary_class",
        "conf_threshold",
        "native_fps",
        "eval_fps",
        "anchor_k",
        "seed",
    }
    try:
        for key, value in raw.items():
            if key in simple:
                kwargs[key] = value
            elif key == "alpha_grid":
                kwargs[key] = tuple(value)
            elif key == "class_names":
                kwargs[key] = {int(k): str(v) for k, v in value.items()}
            elif key == "roi":
                if value is None:
                    kwargs[key] = None
                elif value and isinstance(value[0], list):
                    kwargs[key] = [tuple(v) for v in value]
                else:
                    kwargs[key] = tuple(value)
            elif key == "grid":
                kwargs[key] = GridConfig(**value)
            else:
                raise InputError(f"config file {path}: unknown key {key!r}")
        return replace(cfg, **kwargs)
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"config file {path}: {exc}") from None


def _load_tracks(path: str, native_fps: float) -> Sequence:
    p = Path(path)
    if not p.exists():
        raise InputError(f"track file not found: {path}")
    try:
        with p.open("r", encoding="utf-8") as fh:
            return parse_tracks(fh, native_fps=native_fps, scene_name=p.stem)
    except ParseError as exc:
        raise InputError(f"{path}: {exc}") from None


def _apply_overrides(cfg: ToolConfig, args: argparse.Namespace) -> ToolConfig:
    updates: dict = {}
    for flag, key in (
        ("native_fps", "native_fps"),
        ("eval_fps", "eval_fps"),
        ("dur_alpha", "dur_alpha"),
        ("seed", "seed"),
        ("k", "anchor_k"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            updates[key] = value
    try:
        return replace(cfg, **updates)
    except ValueError as exc:
        raise InputError(f"bad flag value: {exc}") from None


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    gt = _load_tracks(args.gt, cfg.native_fps)
    pred = _load_tracks(args.pred, cfg.native_fps)
    pred = postprocess_filter(pred, cfg.roi, cfg.conf_threshold)
    try:
        window = controlled_window(gt, cfg.native_fps, cfg.eval_fps or cfg.native_fps)
        if args.max_frames is not None:
            kept = [f for f in window.frame_indices if f < args.max_frames]
            window = replace(window, frame_indices=kept)
        report = class_report(
            gt,
            pred,
            window,
            cfg.similarity_spec(),
            alpha_grid=cfg.alpha_grid,
            dur_alpha=cfg.dur_alpha,
            primary_class=cfg.primary_class,
            class_names=cfg.class_names,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None
    sys.stdout.write(report_to_text(report))
    if args.per_class:
        for c, m in sorted(report.per_class.items()):
            name = cfg.class_names.get(c, str(c))
            sys.stdout.write(
                f"class {name}: hota={m.hota:.6f} deta={m.deta:.6f} "
                f"assa={m.assa:.6f} loca={m.loca:.6f} ap={m.ap:.6f} "
                f"dur={m.avg_track_dur_seconds:.6f}s\n"
            )
    if args.out:
        Path(args.out).write_text(report_to_json(report))
    return 0


def cmd_sweep_fps(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if cfg.eval_fps is None:
        raise InputError("sweep-fps requires --eval-fps (or eval_fps in config)")
    try:
        rates = tuple(float(r) for r in args.rates.split(","))
    except ValueError:
        raise InputError(f"bad --rates list: {args.rates!r}") from None
    try:
        spec = SweepSpec(
            native_fps=cfg.native_fps,
            inference_rates=rates,
            eval_fps=cfg.eval_fps,
            dur_alpha=cfg.dur_alpha,
            alpha_grid=cfg.alpha_grid,
            similarity=cfg.similarity_spec(),
            primary_class=cfg.primary_class,
            class_names=cfg.class_names,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None
    gt = _load_tracks(args.gt, cfg.native_fps)
    pred_dir = Path(args.pred_dir)
    outputs: dict[float, Sequence] = {}
    for rate in rates:
        path = pred_dir / f"{rate:g}fps.csv"
        if not path.exists():
            raise InputError(f"missing prediction file for rate {rate:g}: {path}")
        pred = _load_tracks(str(path), cfg.native_fps / stride_for(cfg.native_fps, rate))
        outputs[rate] = postprocess_filter(pred, cfg.roi, cfg.conf_threshold)
    try:
        rows = fps_sweep(gt, outputs, spec)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    sys.stdout.write(sweep_to_text(rows))
    if args.out:
        Path(args.out).write_text(sweep_to_json(rows))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    grid = cfg.grid
    if args.grid_config:
        try:
            grid = GridConfig(**json.loads(Path(args.grid_config).read_text()))
        except FileNotFoundError:
            raise InputError(f"grid config not found: {args.grid_config}") from None
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise InputError(f"grid config {args.grid_config}: {exc}") from None
    path = Path(args.positions)
    if not path.exists():
        raise InputError(f"positions file not found: {args.positions}")
    try:
        with path.open("r", encoding="utf-8") as fh:
            records = parse_positions(fh)
        seq = convert_positions(records, grid, native_fps=args.fps, scene_name=path.stem)
    except (ParseError, ValueError) as exc:
        raise InputError(f"{args.positions}: {exc}") from None
    seq = estimate_velocities(seq)
    out = Path(args.out)
    if args.split is None:
        with out.open("w", encoding="utf-8", newline="\n") as fh:
            emit_tracks(seq, fh)
        return 0
    split_at = args.split
    train = [f for f in seq.frames if f[0] < split_at]
    test = [f for f in seq.frames if f[0] >= split_at]
    train_path = out.with_name(out.stem + "_train" + out.suffix)
    test_path = out.with_name(out.stem + "_test" + out.suffix)
    for frames, dest in ((train, train_path), (test, test_path)):
        part = make_sequence(
            [(fi, list(dets)) for fi, dets in frames],
            native_fps=seq.native_fps,
            scene_name=seq.scene_name,
        )
        with dest.open("w", encoding="utf-8", newline="\n") as fh:
            emit_tracks(part, fh)
    return 0


def cmd_gen_anchors(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    gt = _load_tracks(args.gt, cfg.native_fps)
    try:
        points = collect_centers(gt)
        bank = kmeans(points, k=cfg.anchor_k, seed=cfg.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    with Path(args.out).open("w", encoding="utf-8", newline="\n") as fh:
        emit_anchor_bank(bank, fh)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    path = Path(args.spec)
    if not path.exists():
        raise InputError(f"spec file not found: {args.spec}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.spec}: {exc}") from None
    scene = raw.get("scene", {})
    deg = raw.get("degrade", {})
    try:
        gt = gen_scene(
            n_objects=scene.get("n_objects", 5),
            duration_s=scene.get("duration_s", 10.0),
            fps=scene.get("fps", 30.0),
            bounds=tuple(scene.get("bounds", (-10.0, -10.0, 10.0, 10.0))),
            motion=scene.get("motion", "constant_velocity"),
            seed=scene.get("seed", 0),
            class_id=scene.get("class_id", 0),
        )
        if "fp_bounds" not in deg and deg.get("fp_rate", 0) > 0:
            deg["fp_bounds"] = tuple(scene.get("bounds", (-10.0, -10.0, 10.0, 10.0)))
        if "fp_bounds" in deg and deg["fp_bounds"] is not None:
            deg["fp_bounds"] = tuple(deg["fp_bounds"])
        pred = degrade(gt, DegradeSpec(**deg))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{args.spec}: {exc}") from None
    with Path(args.out_gt).open("w", encoding="utf-8", newline="\n") as fh:
        emit_tracks(gt, fh)
    with Path(args.out_pred).open("w", encoding="utf-8", newline="\n") as fh:
        emit_tracks(pred, fh)
    out_spec = args.out_spec or str(Path(args.out_pred)) + ".spec.json"
    Path(out_spec).write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtmceval",
        description="Multi-target multi-camera tracking evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--config",
            default=None,
            help="JSON config file (defaults < config < flags); default: none",
        )
        p.add_argument(
            "--native-fps",
            dest="native_fps",
            type=float,
            default=None,
            help="native frame rate [config key: native_fps; default 30]",
        )

    p_eval = sub.add_parser("evaluate", help="score one tracker output against GT")
    p_eval.add_argument("--gt", required=True, help="ground-truth track CSV")
    p_eval.add_argument("--pred", required=True, help="tracker-output track CSV")
    common(p_eval)
    p_eval.add_argument(
        "--eval-fps",
        dest="eval_fps",
        type=float,
        default=None,
        help="controlled evaluation rate [config key: eval_fps; default: full rate]",
    )
    p_eval.add_argument(
        "--dur-alpha",
        dest="dur_alpha",
        type=float,
        default=None,
        help="gate for AvgTrackDur and AP [config key: dur_alpha; default 0.5]",
    )
    p_eval.add_argument(
        "--max-frames",
        type=int,
        default=None,
        help="evaluate only frames with index < N; default: all",
    )
    p_eval.add_argument(
        "--per-class", action="store_true", help="also print raw per-class values"
    )
    p_eval.add_argument("--out", default=None, help="write report JSON here")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep-fps", help="score one output per inference rate")
    p_sweep.add_argument("--gt", required=True)
    p_sweep.add_argument(
        "--pred-dir", required=True, help="directory with <rate>fps.csv files"
    )
    p_sweep.add_argument(
        "--rates", required=True, help="comma-separated inference rates, e.g. 30,15,10"
    )
    common(p_sweep)
    p_sweep.add_argument(
        "--eval-fps",
        dest="eval_fps",
        type=float,
        default=None,
        help="controlled evaluation rate [config key: eval_fps]",
    )
    p_sweep.add_argument("--out", default=None, help="write sweep JSON here")
    p_sweep.set_defaults(func=cmd_sweep_fps)

    p_conv = sub.add_parser(
        "convert", help="convert grid positionID annotations to track CSV"
    )
    p_conv.add_argument("--positions", required=True, help="frame,person_id,position_id CSV")
    p_conv.add_argument(
        "--grid-config", default=None, help="JSON GridConfig [config key: grid]"
    )
    p_conv.add_argument("--fps", type=float, default=2.0, help="native fps; default 2")
    p_conv.add_argument("--out", required=True, help="output track CSV")
    p_conv.add_argument(
        "--split",
        type=int,
        default=None,
        help="write <out>_train/<out>_test split at this frame index; default: no split",
    )
    p_conv.add_argument("--config", default=None, help="JSON config file")
    p_conv.set_defaults(func=cmd_convert)

    p_anch = sub.add_parser("gen-anchors", help="k-means anchor bank from GT centers")
    p_anch.add_argument("--gt", required=True)
    common(p_anch)
    p_anch.add_argument(
        "--k", type=int, default=None, help="anchor count [config key: anchor_k; default 900]"
    )
    p_anch.add_argument(
        "--seed", type=int, default=None, help="RNG seed [config key: seed; default 0]"
    )
    p_anch.add_argument("--out", required=True, help="output anchor CSV")
    p_anch.set_defaults(func=cmd_gen_anchors)

    p_synth = sub.add_parser("synth", help="generate synthetic GT + degraded output")
    p_synth.add_argument(
        "--spec", required=True, help='JSON with "scene" and "degrade" sections'
    )
    p_synth.add_argument("--out-gt", required=True)
    p_synth.add_argument("--out-pred", required=True)
    p_synth.add_argument(
        "--out-spec", default=None, help="provenance copy; default <out-pred>.spec.json"
    )
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
