"""Command-line front end: evaluate, sweep-fps, convert, gen-anchors, synth.

Configuration precedence is built-in defaults < JSON config file < command
line flags. Exit codes: 0 success, 2 input error (missing or malformed
files, bad arguments), 1 internal error. Identical inputs and configuration
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, TextIO

from .anchors import collect_centers, emit_anchor_bank, kmeans
from .datamodel import EvalWindow, Sequence, check_int, check_real
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
    _check_alpha_grid,
    _roi_contains,
    class_report,
    postprocess_filter,
    report_to_json,
    report_to_text,
)
from .synthgen import DegradeSpec, degrade, gen_scene


# the keys of a synth spec's "scene" section and their defaults
_SCENE_DEFAULTS = {
    "n_objects": 5,
    "duration_s": 10.0,
    "fps": 30.0,
    "bounds": (-10.0, -10.0, 10.0, 10.0),
    "motion": "constant_velocity",
    "seed": 0,
    "class_id": 0,
}


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


@contextlib.contextmanager
def _reading(path: str | Path, what: str) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text, a leading byte order mark skipped; a file
    that cannot be opened or read, or is not UTF-8, raises InputError
    naming it as ``what``."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except FileNotFoundError:
        raise InputError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path} is not UTF-8 text: {exc}") from None


@contextlib.contextmanager
def _writing(path: str | Path) -> Iterator[TextIO]:
    """``path`` open for UTF-8 text with LF line endings; a file that cannot
    be written raises InputError naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _load_json(path: str, what: str) -> dict:
    """The JSON object in a file, which InputError names as ``what``."""
    with _reading(path, what) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{what} {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"{what} {path}: expected a JSON object")
    return raw


@dataclass(frozen=True)
class ToolConfig:
    """Every tunable in one serializable record. Its fields are the config
    file's keys, and each flag that overrides one has the field's name as
    its dest."""

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
        for alpha in self.alpha_grid:
            check_real("alpha_grid entry", alpha, 1.0)
        _check_alpha_grid(self.alpha_grid)
        check_real("dur_alpha", self.dur_alpha, 1.0)
        check_real("conf_threshold", self.conf_threshold, 1.0, zero=True)
        check_real("native_fps", self.native_fps)
        if self.eval_fps is not None:
            check_real("eval_fps", self.eval_fps)
        for c, name in self.class_names.items():
            check_int("class_names key", c)
            if not isinstance(name, str):
                raise ValueError(f"class_names[{c}] must be a string, got {name!r}")
        check_int("primary_class", self.primary_class)
        check_int("anchor_k", self.anchor_k, low=1)
        check_int("seed", self.seed)
        if self.roi is not None:
            try:
                _roi_contains(self.roi)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"roi {self.roi!r}: {exc}") from None

    def similarity_spec(self) -> SimilaritySpec:
        return SimilaritySpec(mode=self.similarity_mode, d_max=self.d_max)


# JSON forms of the fields that are not stored as they are read
_FROM_JSON = {
    "alpha_grid": tuple,
    "class_names": lambda v: {int(k): n for k, n in v.items()},
    "roi": lambda v: (
        None if v is None else [tuple(p) for p in v] if v and isinstance(v[0], list) else tuple(v)
    ),
    "grid": lambda v: GridConfig(**v),
}


def load_config(path: str | None) -> ToolConfig:
    """The ToolConfig a JSON config file sets; its keys are ToolConfig's
    fields, every one optional."""
    if path is None:
        return ToolConfig()
    raw = _load_json(path, "config file")
    keys = {f.name for f in fields(ToolConfig)}
    kwargs: dict = {}
    for key, value in raw.items():
        if key not in keys:
            raise InputError(f"config file {path}: unknown key {key!r}")
        try:
            kwargs[key] = _FROM_JSON[key](value) if key in _FROM_JSON else value
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"config file {path}: {key}: {exc}") from None
    try:
        return ToolConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InputError(f"config file {path}: {exc}") from None


def _load_tracks(path: str | Path, native_fps: float) -> Sequence:
    with _reading(path, "track file") as fh:
        try:
            return parse_tracks(fh, native_fps=native_fps, scene_name=Path(path).stem)
        except ParseError as exc:
            raise InputError(f"{path}: {exc}") from None


def _apply_overrides(cfg: ToolConfig, args: argparse.Namespace) -> ToolConfig:
    """cfg with every field that a flag set, under the field's own dest."""
    updates = {f.name: getattr(args, f.name, None) for f in fields(ToolConfig)}
    try:
        return replace(cfg, **{k: v for k, v in updates.items() if v is not None})
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
            kept = window.frames[window.frames < args.max_frames]
            if not kept.size:
                raise InputError(
                    f"--max-frames {args.max_frames}: no window frame lies below "
                    f"{args.max_frames} (the window starts at frame {window.frames[0]})"
                )
            window = EvalWindow(kept, window.f0)
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
        with _writing(args.out) as fh:
            fh.write(report_to_json(report))
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
    pred_dir = Path(args.pred_dir)
    files: dict[Path, float] = {}
    for rate in rates:
        path = pred_dir / f"{rate:g}fps.csv"
        if path in files:
            raise InputError(
                f"rates {files[path]!r} and {rate!r} both name the prediction file {path}"
            )
        files[path] = rate
    gt = _load_tracks(args.gt, cfg.native_fps)
    outputs: dict[float, Sequence] = {}
    for path, rate in files.items():
        if not path.exists():
            raise InputError(f"missing prediction file for rate {rate:g}: {path}")
        pred = _load_tracks(path, cfg.native_fps / stride_for(cfg.native_fps, rate))
        outputs[rate] = postprocess_filter(pred, cfg.roi, cfg.conf_threshold)
    try:
        rows = fps_sweep(gt, outputs, spec)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    sys.stdout.write(sweep_to_text(rows))
    if args.out:
        with _writing(args.out) as fh:
            fh.write(sweep_to_json(rows))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    grid = cfg.grid
    if args.grid_config:
        try:
            grid = GridConfig(**_load_json(args.grid_config, "grid config"))
        except (TypeError, ValueError) as exc:
            raise InputError(f"grid config {args.grid_config}: {exc}") from None
    with _reading(args.positions, "positions file") as fh:
        try:
            records = parse_positions(fh)
        except ParseError as exc:
            raise InputError(f"{args.positions}: {exc}") from None
    try:
        seq = convert_positions(
            records, grid, native_fps=args.fps, scene_name=Path(args.positions).stem
        )
        seq = estimate_velocities(seq)
    except ValueError as exc:
        raise InputError(f"{args.positions}: {exc}") from None
    out = Path(args.out)
    if args.split is None:
        with _writing(out) as fh:
            emit_tracks(seq, fh)
        return 0
    train = seq.table.frame_index < args.split
    for keep, part in ((train, "_train"), (~train, "_test")):
        with _writing(out.with_name(out.stem + part + out.suffix)) as fh:
            emit_tracks(Sequence.from_table(seq.table.select(frames=keep), seq.native_fps), fh)
    return 0


def cmd_gen_anchors(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    gt = _load_tracks(args.gt, cfg.native_fps)
    try:
        points = collect_centers(gt)
        bank = kmeans(points, k=cfg.anchor_k, seed=cfg.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    with _writing(args.out) as fh:
        emit_anchor_bank(bank, fh)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    raw = _load_json(args.spec, "spec file")
    for key in raw:
        if key not in ("scene", "degrade"):
            raise InputError(f"{args.spec}: unknown spec key {key!r}")
    scene, deg = raw.get("scene", {}), raw.get("degrade", {})
    for part, section in (("scene", scene), ("degrade", deg)):
        if not isinstance(section, dict):
            raise InputError(f"{args.spec}: {part}: expected a JSON object")
    for key in scene:
        if key not in _SCENE_DEFAULTS:
            raise InputError(f"{args.spec}: unknown scene key {key!r}")
    scene = {**_SCENE_DEFAULTS, **scene}
    try:
        gt = gen_scene(**scene)
        # false positives fall in the arena unless fp_bounds says otherwise;
        # defaults go into a copy, so the provenance copy stays the input
        pred = degrade(gt, DegradeSpec(**{"fp_bounds": scene["bounds"], **deg}))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{args.spec}: {exc}") from None
    with _writing(args.out_gt) as fh:
        emit_tracks(gt, fh)
    with _writing(args.out_pred) as fh:
        emit_tracks(pred, fh)
    with _writing(args.out_spec or args.out_pred + ".spec.json") as fh:
        fh.write(json.dumps(raw, sort_keys=True, indent=2) + "\n")
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
        "--k",
        dest="anchor_k",
        metavar="K",
        type=int,
        default=None,
        help="anchor count [config key: anchor_k; default 900]",
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
    if isinstance(sys.stdout, io.TextIOWrapper):
        # reports go out as UTF-8 whatever the locale, as files do
        sys.stdout.reconfigure(encoding="utf-8")
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
