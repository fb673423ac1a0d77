import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import mtmceval
from mtmceval.anchors import parse_anchor_bank
from mtmceval.cli import ToolConfig, _apply_overrides, build_parser, load_config, main
from mtmceval.datamodel import Box3D, Detection, make_sequence
from mtmceval.ingest import GridConfig, emit_tracks, parse_tracks


def write_tracks(path, n_frames=6, fps_step=0.1, n_objects=2):
    frames = {}
    for f in range(n_frames):
        frames[f] = [
            Detection(
                box=Box3D(fps_step * f + 2.0 * i, 1.0 * i, 0.9, 0.6, 0.6, 1.8),
                class_id=0,
                confidence=1.0,
                track_id=i,
            )
            for i in range(n_objects)
        ]
    seq = make_sequence(frames, native_fps=2.0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        emit_tracks(seq, fh)
    return seq


# --- evaluate -----------------------------------------------------------------


def test_evaluate_perfect(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt)
    out = tmp_path / "report.json"
    code = main(
        ["evaluate", "--gt", str(gt), "--pred", str(gt), "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "HOTA" in text and "100.0" in text
    payload = json.loads(out.read_text())
    assert payload["class_average"]["hota"] == 1.0
    assert payload["class_average"]["deta"] == 1.0
    assert payload["window"]["size"] == 6


def test_evaluate_missing_file_names_path(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt)
    code = main(["evaluate", "--gt", str(gt), "--pred", str(tmp_path / "nope.csv")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_evaluate_malformed_csv(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt)
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,0,oops,2,3,1,1,1,0,0.5\n")
    code = main(["evaluate", "--gt", str(gt), "--pred", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and "line 1" in err


def test_evaluate_config_unknown_key(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    code = main(
        ["evaluate", "--gt", str(gt), "--pred", str(gt), "--config", str(cfg)]
    )
    assert code == 2
    assert "no_such_option" in capsys.readouterr().err


def test_evaluate_flag_overrides_config(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dur_alpha": 0.3}))
    out = tmp_path / "r.json"
    code = main(
        [
            "evaluate",
            "--gt",
            str(gt),
            "--pred",
            str(gt),
            "--config",
            str(cfg),
            "--dur-alpha",
            "0.7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["dur_alpha"] == 0.7


def test_evaluate_config_applies_without_flag(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dur_alpha": 0.3}))
    out = tmp_path / "r.json"
    main(
        ["evaluate", "--gt", str(gt), "--pred", str(gt),
         "--config", str(cfg), "--out", str(out)]
    )
    assert json.loads(out.read_text())["dur_alpha"] == 0.3


def test_evaluate_controlled_window(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt, n_frames=8)  # 2 fps native
    out = tmp_path / "r.json"
    code = main(
        ["evaluate", "--gt", str(gt), "--pred", str(gt),
         "--native-fps", "2", "--eval-fps", "1", "--out", str(out)]
    )
    assert code == 0
    win = json.loads(out.read_text())["window"]
    assert win["size"] == 4
    assert win["f0"] == 1.0


def test_evaluate_max_frames(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt, n_frames=8)
    out = tmp_path / "r.json"
    main(["evaluate", "--gt", str(gt), "--pred", str(gt),
          "--max-frames", "3", "--out", str(out)])
    assert json.loads(out.read_text())["window"]["size"] == 3


def test_evaluate_default_window_counts_frames_without_gt(tmp_path, capsys):
    # GT on frames 0 and 2 only; the prediction adds a far false positive on 1
    box = Box3D(0.0, 0.0, 0.9, 0.6, 0.6, 1.8)
    far = Detection(box=Box3D(50.0, 50.0, 0.9, 0.6, 0.6, 1.8), class_id=0, track_id=9)
    gt = make_sequence({f: [Detection(box=box, class_id=0, track_id=1)] for f in (0, 2)},
                       native_fps=2.0)
    pred = make_sequence({**gt.as_dict(), 1: (far,)}, native_fps=2.0)
    paths = []
    for name, seq in (("gt", gt), ("pred", pred)):
        paths.append(tmp_path / f"{name}.csv")
        with paths[-1].open("w", newline="\n") as fh:
            emit_tracks(seq, fh)
    out = tmp_path / "r.json"
    code = main(["evaluate", "--gt", str(paths[0]), "--pred", str(paths[1]),
                 "--native-fps", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["window"]["size"] == 3
    assert payload["class_average"]["deta"] == pytest.approx(2 / 3, abs=1e-12)


def test_evaluate_confidence_filter_keeps_far_detections(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    seq = make_sequence(
        {f: [Detection(box=Box3D(2e9, 0.0, 0.9, 0.6, 0.6, 1.8), class_id=0,
                       confidence=0.9, track_id=1)] for f in range(3)},
        native_fps=2.0,
    )
    with gt.open("w", newline="\n") as fh:
        emit_tracks(seq, fh)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"conf_threshold": 0.5}))
    out = tmp_path / "r.json"
    code = main(["evaluate", "--gt", str(gt), "--pred", str(gt), "--native-fps", "2",
                 "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["class_average"]["hota"] == 1.0


def test_evaluate_detector_only_prediction_exits_2(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt)
    pred = tmp_path / "det.csv"
    pred.write_text("0,,0,0,0,0.9,0.6,0.6,1.8,0,0.5\n")
    code = main(["evaluate", "--gt", str(gt), "--pred", str(pred)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: predicted detection missing track_id in frame 0 of class 0\n"


@pytest.mark.parametrize(
    "config, flags, named",
    [
        ({"similarity_mode": "foo"}, [], "similarity mode"),
        ({"roi": []}, [], "roi"),
        ({"roi": [0, 0, 0, 0]}, [], "roi"),
        ({"alpha_grid": [0]}, [], "alpha_grid"),
        ({"alpha_grid": [1.5]}, [], "alpha_grid"),
        ({"alpha_grid": []}, [], "alpha_grid"),
        ({"alpha_grid": 0.5}, [], "float"),
        ({"dur_alpha": 0}, [], "dur_alpha"),
        ({"d_max": "x"}, [], "d_max"),
        ({"eval_fps": 0}, [], "eval_fps"),
        ({}, ["--dur-alpha", "0"], "dur_alpha"),
        ({}, ["--native-fps", "0"], "native_fps"),
        ({"class_names": 5}, [], "class_names"),
        ({"roi": 5}, [], "roi"),
        ({}, ["--max-frames", "0"], "no window frame lies below 0"),
        ({"conf_threshold": "x"}, [], "conf_threshold"),
        ({"conf_threshold": None}, [], "conf_threshold"),
        ({"conf_threshold": math.nan}, [], "conf_threshold"),
        ({"conf_threshold": True}, [], "conf_threshold"),
        ({"conf_threshold": 1.5}, [], "conf_threshold"),
        ({"anchor_k": "x"}, [], "anchor_k"),
        ({"anchor_k": 2.5}, [], "anchor_k"),
        ({"anchor_k": True}, [], "anchor_k"),
        ({"anchor_k": 0}, [], "anchor_k"),
        ({"seed": None}, [], "seed"),
        ({"seed": "x"}, [], "seed"),
        ({"seed": -1}, [], "seed"),
        ({"primary_class": "x"}, [], "primary_class"),
        ({"class_names": {"0": None}}, [], "class_names"),
        ({"class_names": {"0": 7}}, [], "class_names"),
        ({"roi": {"a": 1}}, [], "roi"),
        ({}, ["--eval-fps", "inf"], "eval_fps"),
        ({"d_max": True}, [], "d_max"),
        ({"roi": [-100, -100, math.nan, 100]}, [], "roi"),
        ({"roi": [0, 0, math.inf, 4]}, [], "roi"),
        ({"roi": [[math.nan, 0], [4, 0], [0, 4]]}, [], "roi"),
        ({"roi": [True, 0, 4, 4]}, [], "roi"),
        ({"roi": [[0, 0], [10, 0], [10, 10], [5, 2], [0, 10]]}, [], "roi"),
        ({"roi": [[0, 10], [6, -8], [-10, 3], [10, 3], [-6, -8]]}, [], "roi"),
        ({}, ["--native-fps", "1e300", "--eval-fps", "1"], "stride of 2**63 frames or more"),
        ({}, ["--eval-fps", "1e-320"], "stride of 2**63 frames or more"),
        ({}, ["sweep-fps", "--rates", "2,1,2"], "rate 2 is listed twice"),
        ({}, ["sweep-fps", "--rates", "2,2.0000000000001"],
         "rates 2.0 and 2.0000000000001 both name the prediction file"),
        ({"alpha_grid": [0.5, 0.25, 0.5]}, [], "alpha 0.5 is listed twice in alpha_grid"),
    ],
)
def test_bad_config_or_flag_exits_2(tmp_path, capsys, config, flags, named):
    """evaluate, or sweep-fps at 2 fps native and 1 fps eval where the flags
    start with that command."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    if flags[:1] == ["sweep-fps"]:
        gt, pred_dir = make_sweep_dir(tmp_path)
        code = main(["sweep-fps", "--gt", str(gt), "--pred-dir", str(pred_dir),
                     "--native-fps", "2", "--eval-fps", "1", "--config", str(cfg), *flags[1:]])
    else:
        gt = tmp_path / "gt.csv"
        write_tracks(gt)
        code = main(["evaluate", "--gt", str(gt), "--pred", str(gt),
                     "--config", str(cfg), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_config_with_every_key_loads_each(tmp_path):
    raw = {
        "similarity_mode": "center_distance",
        "d_max": 1.5,
        "alpha_grid": [0.25, 0.75],
        "dur_alpha": 0.25,
        "class_names": {"0": "person", "3": "cart"},
        "primary_class": 3,
        "roi": [[0, 0], [4, 0], [0, 4]],
        "conf_threshold": 0.4,
        "native_fps": 10,
        "eval_fps": 5,
        "grid": {"step": 0.5, "grid_width": 12},
        "anchor_k": 7,
        "seed": 11,
    }
    assert set(raw) == {f.name for f in fields(ToolConfig)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert load_config(str(cfg)) == ToolConfig(
        similarity_mode="center_distance",
        d_max=1.5,
        alpha_grid=(0.25, 0.75),
        dur_alpha=0.25,
        class_names={0: "person", 3: "cart"},
        primary_class=3,
        roi=[(0, 0), (4, 0), (0, 4)],
        conf_threshold=0.4,
        native_fps=10,
        eval_fps=5,
        grid=GridConfig(step=0.5, grid_width=12),
        anchor_k=7,
        seed=11,
    )
    assert load_config(str(cfg)) != ToolConfig()


@pytest.mark.parametrize(
    "command, flag, key, value",
    [
        ("evaluate", "--native-fps", "native_fps", 12.0),
        ("evaluate", "--eval-fps", "eval_fps", 4.0),
        ("evaluate", "--dur-alpha", "dur_alpha", 0.3),
        ("gen-anchors", "--k", "anchor_k", 17),
        ("gen-anchors", "--seed", "seed", 5),
    ],
)
def test_each_flag_overrides_its_config_key(tmp_path, command, flag, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"native_fps": 24, "eval_fps": 2, "dur_alpha": 0.6,
                               "anchor_k": 3, "seed": 9}))
    args = build_parser().parse_args(
        [command, "--gt", "g.csv", "--pred", "p.csv", "--out", "o", flag, str(value)]
        if command == "evaluate"
        else [command, "--gt", "g.csv", "--out", "o", flag, str(value)]
    )
    before = load_config(str(cfg))
    after = _apply_overrides(before, args)
    assert getattr(after, key) == value != getattr(before, key)
    assert after == ToolConfig(**{**before.__dict__, key: value})


def test_help_config_keys_are_tool_config_fields():
    sub = {a.dest: a for a in build_parser()._actions}["command"]
    named = set()
    for parser in sub.choices.values():
        named |= set(re.findall(r"\[config\s+key:\s+(\w+)", parser.format_help()))
    assert named == {"native_fps", "eval_fps", "dur_alpha", "grid", "anchor_k", "seed"}
    assert named <= {f.name for f in fields(ToolConfig)}


def test_evaluate_per_class_lines(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt)
    code = main(["evaluate", "--gt", str(gt), "--pred", str(gt), "--per-class"])
    assert code == 0
    assert "class 0: hota=1.000000" in capsys.readouterr().out


def test_evaluate_rerun_byte_identical(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["evaluate", "--gt", str(gt), "--pred", str(gt), "--out", str(out1)])
    main(["evaluate", "--gt", str(gt), "--pred", str(gt), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


# --- convert ------------------------------------------------------------------


def test_convert_geometry_and_roundtrip(tmp_path, capsys):
    pos = tmp_path / "pos.csv"
    pos.write_text("# frame,person_id,position_id\n0,3,0\n0,4,481\n1,3,0\n")
    out = tmp_path / "tracks.csv"
    code = main(["convert", "--positions", str(pos), "--out", str(out), "--fps", "2"])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0].startswith("0,3,0,-3.0,-9.0,0.9,")
    assert rows[1].startswith("0,4,0,-2.975,-8.975,0.9,")


def test_convert_split(tmp_path, capsys):
    pos = tmp_path / "pos.csv"
    lines = [f"{f},1,{f}" for f in range(10)]
    pos.write_text("\n".join(lines) + "\n")
    out = tmp_path / "w.csv"
    code = main(
        ["convert", "--positions", str(pos), "--out", str(out), "--split", "6"]
    )
    assert code == 0
    train = (tmp_path / "w_train.csv").read_text()
    test = (tmp_path / "w_test.csv").read_text()
    train_frames = {int(l.split(",")[0]) for l in train.splitlines() if not l.startswith("#")}
    test_frames = {int(l.split(",")[0]) for l in test.splitlines() if not l.startswith("#")}
    assert train_frames == set(range(6))
    assert test_frames == set(range(6, 10))


@pytest.mark.parametrize("fps", ["nan", "inf", "0"])
def test_convert_bad_fps_exits_2(tmp_path, capsys, fps):
    pos = tmp_path / "pos.csv"
    pos.write_text("0,3,0\n1,3,1\n")
    code = main(["convert", "--positions", str(pos), "--out", str(tmp_path / "t.csv"),
                 "--fps", fps])
    assert code == 2
    assert "native_fps must be finite and positive" in capsys.readouterr().err


def test_convert_refuses_a_negative_frame(tmp_path, capsys):
    """convert once wrote frame -1, and gen-anchors then refused the file."""
    pos = tmp_path / "pos.csv"
    pos.write_text("-1,3,0\n0,3,1\n")
    out = tmp_path / "t.csv"
    assert main(["convert", "--positions", str(pos), "--out", str(out)]) == 2
    assert "line 1, column 'frame': must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_convert_refuses_a_person_twice_in_a_frame(tmp_path, capsys):
    pos = tmp_path / "pos.csv"
    pos.write_text("0,3,0\n0,3,1\n1,3,2\n")
    out = tmp_path / "t.csv"
    assert main(["convert", "--positions", str(pos), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {pos}: track_id 3 of class 0 appears twice in frame 0\n"
    assert not out.exists()


def test_convert_missing_positions(tmp_path, capsys):
    code = main(
        ["convert", "--positions", str(tmp_path / "x.csv"), "--out", str(tmp_path / "o.csv")]
    )
    assert code == 2
    assert "x.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid, named",
    [
        ({"person_width": 0}, "person_width"),
        ({"person_length": -0.5}, "person_length"),
        ({"person_height": math.inf}, "person_height"),
        ({"step": math.nan}, "step"),
        ({"class_id": -1}, "class_id"),
        ({"class_id": 1.5}, "class_id"),
        ({"origin_x": math.inf}, "origin_x"),
        ({"origin_y": "x"}, "origin_y"),
        ({"recenter_x": math.nan}, "recenter_x"),
        ({"recenter_y": True}, "recenter_y"),
        ({"grid_width": 2.5}, "grid_width"),
        ({"grid_height": 0}, "grid_height"),
    ],
)
def test_convert_bad_grid_config_exits_2_naming_the_field(tmp_path, capsys, grid, named):
    """Each of these once wrote a track file (or crashed), and gen-anchors
    then refused that file."""
    pos = tmp_path / "pos.csv"
    pos.write_text("0,3,0\n1,3,1\n")
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    out = tmp_path / "t.csv"
    code = main(["convert", "--positions", str(pos), "--out", str(out),
                 "--grid-config", str(cfg)])
    assert code == 2
    assert f"{named} must be" in capsys.readouterr().err
    assert not out.exists()


# --- gen-anchors --------------------------------------------------------------


def test_gen_anchors_roundtrip(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt, n_frames=20, n_objects=3)
    out = tmp_path / "anchors.csv"
    code = main(
        ["gen-anchors", "--gt", str(gt), "--out", str(out), "--k", "4", "--seed", "1"]
    )
    assert code == 0
    bank = parse_anchor_bank(out.read_text())
    assert bank.k == 4
    assert bank.seed == 1


def test_gen_anchors_too_few_points(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt, n_frames=1, n_objects=1)
    code = main(
        ["gen-anchors", "--gt", str(gt), "--out", str(tmp_path / "a.csv"), "--k", "5"]
    )
    assert code == 2


def test_gen_anchors_refuses_centers_whose_squares_overflow(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    frames = {
        f: [
            Detection(box=Box3D(x, 1.0, 0.9, 0.6, 0.6, 1.8), class_id=0, confidence=1.0, track_id=i)
            for i, x in enumerate((1e160, -1e160, 2.0))
        ]
        for f in range(3)
    }
    with open(gt, "w", encoding="utf-8", newline="\n") as fh:
        emit_tracks(make_sequence(frames, native_fps=2.0), fh)
    out = tmp_path / "anchors.csv"
    code = main(["gen-anchors", "--gt", str(gt), "--out", str(out), "--k", "2"])
    assert code == 2
    assert "1e+150" in capsys.readouterr().err
    assert not out.exists()


def test_gen_anchors_rerun_byte_identical(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    write_tracks(gt, n_frames=20, n_objects=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gen-anchors", "--gt", str(gt), "--out", str(a), "--k", "4"])
    main(["gen-anchors", "--gt", str(gt), "--out", str(b), "--k", "4"])
    assert a.read_bytes() == b.read_bytes()


# --- start-up -----------------------------------------------------------------


def test_only_matching_imports_the_solver(tmp_path):
    """Loading the assignment solver costs start-up time: a fresh process
    that imports the CLI and runs convert and gen-anchors never loads its
    extension, scipy.optimize._lsap, and the first matching (evaluate)
    does."""
    pos = tmp_path / "pos.csv"
    pos.write_text("0,3,0\n0,4,481\n1,3,1\n1,4,482\n")
    tracks = tmp_path / "tracks.csv"
    steps = [
        [],
        ["convert", "--positions", str(pos), "--out", str(tracks), "--fps", "2"],
        ["gen-anchors", "--gt", str(tracks), "--out", str(tmp_path / "a.csv"), "--k", "2"],
        ["evaluate", "--gt", str(tracks), "--pred", str(tracks), "--native-fps", "2"],
    ]
    assert modules_after(steps, "scipy.optimize._lsap") == [False, False, False, True]


def modules_after(steps, module):
    """Whether ``module`` or a submodule of it is in sys.modules of a fresh
    process that imports the CLI and then runs each step's argv (none for an
    empty one), after each step."""
    script = (
        "import json, sys\n"
        "from mtmceval.cli import main\n"
        "loaded = []\n"
        f"for argv in {steps!r}:\n"
        "    assert not argv or main(argv) == 0, argv\n"
        f"    loaded.append(any(m == {module!r} or m.startswith({module + '.'!r})\n"
        "                      for m in sys.modules))\n"
        "print(json.dumps(loaded))\n"
    )
    src = str(Path(mtmceval.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_evaluate_and_sweep_fps_never_import_numpy_ma(tmp_path):
    """numpy.ma and its submodules add about 0.06 s to an interpreter's
    start; neither scoring command loads them."""
    gt_path, pred_dir = make_sweep_dir(tmp_path)
    steps = [
        [],
        ["evaluate", "--gt", str(gt_path), "--pred", str(pred_dir / "2fps.csv"),
         "--native-fps", "2", "--per-class"],
        ["sweep-fps", "--gt", str(gt_path), "--pred-dir", str(pred_dir),
         "--rates", "2,1", "--native-fps", "2", "--eval-fps", "1"],
    ]
    assert modules_after(steps, "numpy.ma") == [False, False, False]


def test_start_up_loads_neither_scipy_nor_the_solver_pool(tmp_path):
    """Importing the CLI loads no scipy, numpy.ma or concurrent.futures. An
    evaluate whose conflicted matrices (two overlapping people here) are all
    smaller than POOL_CELLS solves them inline: it loads the solver's
    extension, but starts no pool, so concurrent.futures stays unloaded."""
    tracks = tmp_path / "tracks.csv"
    tracks.write_text("0,1,0,0.0,0,0.9,0.6,0.6,1.8,0,1\n0,2,0,0.2,0,0.9,0.6,0.6,1.8,0,1\n")
    steps = [[], ["evaluate", "--gt", str(tracks), "--pred", str(tracks)]]
    assert modules_after(steps, "scipy") == [False, True]
    assert modules_after(steps, "scipy.optimize._lsap") == [False, True]
    assert modules_after(steps, "numpy.ma") == [False, False]
    assert modules_after(steps, "concurrent.futures") == [False, False]


# --- synth --------------------------------------------------------------------


def synth_spec(tmp_path, **degrade):
    spec = {
        "scene": {
            "n_objects": 3,
            "duration_s": 5.0,
            "fps": 2.0,
            "bounds": [-8, -8, 8, 8],
            "seed": 1,
        },
        "degrade": {"seed": 2, **degrade},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_synth_outputs_and_provenance(tmp_path, capsys):
    spec = synth_spec(tmp_path, drop_prob=0.2)
    gt_out = tmp_path / "gt.csv"
    pred_out = tmp_path / "pred.csv"
    code = main(
        ["synth", "--spec", str(spec), "--out-gt", str(gt_out), "--out-pred", str(pred_out)]
    )
    assert code == 0
    assert gt_out.exists() and pred_out.exists()
    prov = json.loads((tmp_path / "pred.csv.spec.json").read_text())
    assert prov["scene"]["n_objects"] == 3
    assert prov["degrade"]["drop_prob"] == 0.2


def test_synth_provenance_copy_equals_input(tmp_path, capsys):
    # fp_rate > 0 without fp_bounds: the scene bounds are used, but not
    # written into the copy
    spec = synth_spec(tmp_path, fp_rate=0.3)
    assert "fp_bounds" not in json.loads(spec.read_text())["degrade"]
    pred_out = tmp_path / "pred.csv"
    code = main(
        ["synth", "--spec", str(spec), "--out-gt", str(tmp_path / "gt.csv"),
         "--out-pred", str(pred_out)]
    )
    assert code == 0
    prov = tmp_path / "pred.csv.spec.json"
    assert json.loads(prov.read_text()) == json.loads(spec.read_text())


def test_synth_then_evaluate_pipeline(tmp_path, capsys):
    spec = synth_spec(tmp_path)
    gt_out = tmp_path / "gt.csv"
    pred_out = tmp_path / "pred.csv"
    main(["synth", "--spec", str(spec), "--out-gt", str(gt_out), "--out-pred", str(pred_out)])
    out = tmp_path / "r.json"
    code = main(
        ["evaluate", "--gt", str(gt_out), "--pred", str(pred_out),
         "--native-fps", "2", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["class_average"]["hota"] == 1.0


def test_synth_deterministic(tmp_path, capsys):
    spec = synth_spec(tmp_path, drop_prob=0.3, fp_rate=0.5)
    a1, b1 = tmp_path / "g1.csv", tmp_path / "p1.csv"
    a2, b2 = tmp_path / "g2.csv", tmp_path / "p2.csv"
    main(["synth", "--spec", str(spec), "--out-gt", str(a1), "--out-pred", str(b1)])
    main(["synth", "--spec", str(spec), "--out-gt", str(a2), "--out-pred", str(b2)])
    assert a1.read_bytes() == a2.read_bytes()
    assert b1.read_bytes() == b2.read_bytes()


def test_synth_bad_spec(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"degrade": {"drop_prob": 2.0}}))
    code = main(
        ["synth", "--spec", str(path), "--out-gt", str(tmp_path / "g.csv"),
         "--out-pred", str(tmp_path / "p.csv")]
    )
    assert code == 2


@pytest.mark.parametrize("part, key", [("scene", "class_id"), ("degrade", "fp_class_id")])
@pytest.mark.parametrize("bad", [1.5, "1", True, -1])
def test_synth_bad_class_id_exits_2_naming_it(tmp_path, capsys, part, key, bad):
    spec = json.loads(synth_spec(tmp_path).read_text())
    spec[part][key] = bad
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(
        ["synth", "--spec", str(path), "--out-gt", str(tmp_path / "g.csv"),
         "--out-pred", str(tmp_path / "p.csv")]
    )
    assert code == 2
    assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, named",
    [
        ([1, 2], "expected a JSON object"),
        ({"scene": [1]}, "scene: expected a JSON object"),
        ({"degrade": "x"}, "degrade: expected a JSON object"),
        ({"scene": {"n_object": 3}}, "unknown scene key 'n_object'"),
        ({"scene": {"speed_range": [1, 2]}}, "unknown scene key 'speed_range'"),
        ({"scnee": {"n_objects": 2}}, "unknown spec key 'scnee'"),
    ],
)
def test_synth_bad_spec_shape_exits_2_naming_it(tmp_path, capsys, spec, named):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(
        ["synth", "--spec", str(path), "--out-gt", str(tmp_path / "g.csv"),
         "--out-pred", str(tmp_path / "p.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "part, values, named",
    [
        ("degrade", {"loc_noise_sigma": math.nan}, "loc_noise_sigma must be"),
        ("degrade", {"drop_prob": "x"}, "drop_prob must be"),
        ("degrade", {"id_switch_prob": math.nan}, "id_switch_prob must be"),
        ("degrade", {"fp_rate": math.inf}, "fp_rate must be"),
        ("degrade", {"fp_rate": "x"}, "fp_rate must be"),
        ("degrade", {"seed": -1}, "seed must be"),
        ("degrade", {"fp_rate": 0.5, "fp_bounds": [0, 0, math.nan, 1]}, "fp_bounds entry must be"),
        ("degrade", {"fp_bounds": [0, 0, 1]}, "fp_bounds must be"),
        ("degrade", {"fp_bounds": 5}, "fp_bounds must be"),
        ("scene", {"bounds": 5}, "bounds must be"),
        ("scene", {"bounds": [math.nan, -8, 8, 8]}, "bounds entry must be"),
        ("scene", {"bounds": [8, -8, -8, 8]}, "bounds must enclose a positive area"),
        ("scene", {"n_objects": 2.5}, "n_objects must be"),
        ("scene", {"seed": -1}, "seed must be"),
        ("scene", {"fps": math.inf}, "fps must be"),
        ("scene", {"duration_s": math.nan}, "duration_s must be"),
    ],
)
def test_synth_bad_spec_value_exits_2_naming_it(tmp_path, capsys, part, values, named):
    spec = json.loads(synth_spec(tmp_path).read_text())
    spec[part].update(values)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    pred = tmp_path / "p.csv"
    code = main(
        ["synth", "--spec", str(path), "--out-gt", str(tmp_path / "g.csv"),
         "--out-pred", str(pred)]
    )
    assert code == 2
    assert named in capsys.readouterr().err
    assert not pred.exists()


# --- exit 2 on unreadable inputs ---------------------------------------------


# a case whose input path is a directory
DIRECTORY = "<directory>"


@pytest.mark.parametrize(
    "command, given, named",
    [
        ("evaluate", None, "input.json"),
        ("evaluate", "{", "input.json"),
        ("evaluate", "[1, 2]", "input.json"),
        ("evaluate", DIRECTORY, "input.json"),
        ("evaluate --gt", DIRECTORY, "input.json"),
        ("evaluate --gt", b"\xff\n", "input.json"),
        ("evaluate --out", None, "input.json"),
        ("convert", None, "input.json"),
        ("convert", "{", "input.json"),
        ("convert", '{"stepp": 1}', "input.json"),
        ("convert --positions", DIRECTORY, "input.json"),
        ("gen-anchors --out", None, "input.json"),
        ("synth", None, "input.json"),
        ("synth", "{", "input.json"),
        ("synth --out-gt", None, "input.json"),
        ("sweep-fps", "2,x", "--rates"),
        ("sweep-fps", "2,1", "rate 1.0 has rows off its frame grid"),
    ],
)
def test_unreadable_input_exits_2_naming_it(tmp_path, capsys, command, given, named):
    """A config, grid config or spec file that is missing (None), not JSON
    or not valid; a config, track or positions file that is a directory or
    not UTF-8; an output under a directory that does not exist; for
    sweep-fps, a --rates list that is not numbers and a 1 fps file holding
    every 2 fps frame."""
    gt, pred_dir = make_sweep_dir(tmp_path)
    path = tmp_path / "input.json"
    if given == DIRECTORY:
        path.mkdir()
    elif isinstance(given, bytes):
        path.write_bytes(given)
    elif given is not None:
        path.write_text(given)
    (pred_dir / "1fps.csv").write_bytes((pred_dir / "2fps.csv").read_bytes())
    pos = tmp_path / "pos.csv"
    pos.write_text("0,3,0\n")
    spec = synth_spec(tmp_path)
    out = str(tmp_path / "out.csv")
    lost = str(path / "out.csv")
    args = {
        "evaluate": ["--gt", str(gt), "--pred", str(gt), "--config", str(path)],
        "evaluate --gt": ["--gt", str(path), "--pred", str(gt)],
        "evaluate --out": ["--gt", str(gt), "--pred", str(gt), "--out", lost],
        "convert": ["--positions", str(pos), "--out", out, "--grid-config", str(path)],
        "convert --positions": ["--positions", str(path), "--out", out],
        "gen-anchors --out": ["--gt", str(gt), "--out", lost, "--k", "2"],
        "synth": ["--spec", str(path), "--out-gt", out, "--out-pred", out],
        "synth --out-gt": ["--spec", str(spec), "--out-gt", lost, "--out-pred", out],
        "sweep-fps": ["--gt", str(gt), "--pred-dir", str(pred_dir), "--native-fps", "2",
                      "--eval-fps", "1", "--rates", str(given)],
    }[command]
    assert main([command.split()[0], *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Under an ASCII locale, a config naming a class in UTF-8 is read as
    UTF-8, a track file that starts with a UTF-8 byte order mark scores as
    the same file without it, and the report goes to stdout as UTF-8 whether
    or not PYTHONIOENCODING asks for it (an ASCII stdout once made evaluate
    exit 1 on the class name)."""
    gt = tmp_path / "gt.csv"
    write_tracks(gt)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + gt.read_bytes())
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes('{"class_names": {"0": "café"}}'.encode())
    src = str(Path(mtmceval.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env |= {"LC_ALL": "C", "PYTHONUTF8": "0",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    reports = []
    for pred, io_encoding, extra in (
        (gt, "utf-8", []), (bom, "utf-8", []), (gt, None, []), (gt, None, ["--per-class"])
    ):
        run = subprocess.run(
            [sys.executable, "-m", "mtmceval.cli", "evaluate", "--gt", str(bom),
             "--pred", str(pred), "--config", str(cfg), *extra],
            env=env | ({"PYTHONIOENCODING": io_encoding} if io_encoding else {}),
            capture_output=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        reports.append(run.stdout.decode())
    assert "café" in reports[0] and reports[0] == reports[1] == reports[2]
    assert reports[3].startswith(reports[0]) and "\nclass café: hota=" in reports[3]


# --- sweep-fps ----------------------------------------------------------------


def make_sweep_dir(tmp_path):
    gt_path = tmp_path / "gt.csv"
    seq = write_tracks(gt_path, n_frames=8)  # 2 fps native
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    # full-rate output and a 1 fps output (every other frame)
    with (pred_dir / "2fps.csv").open("w", newline="\n") as fh:
        emit_tracks(seq, fh)
    half = make_sequence(
        [(f, list(d)) for f, d in seq.frames if f % 2 == 0], native_fps=1.0
    )
    with (pred_dir / "1fps.csv").open("w", newline="\n") as fh:
        emit_tracks(half, fh)
    return gt_path, pred_dir


def test_sweep_fps_end_to_end(tmp_path, capsys):
    gt_path, pred_dir = make_sweep_dir(tmp_path)
    out = tmp_path / "sweep.json"
    code = main(
        ["sweep-fps", "--gt", str(gt_path), "--pred-dir", str(pred_dir),
         "--rates", "2,1", "--native-fps", "2", "--eval-fps", "1",
         "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "Inference FPS" in text
    payload = json.loads(out.read_text())
    assert [row["inference_fps"] for row in payload] == [2.0, 1.0]
    for row in payload:
        assert row["report"]["class_average"]["hota"] == 1.0


def test_sweep_fps_missing_rate_file(tmp_path, capsys):
    gt_path, pred_dir = make_sweep_dir(tmp_path)
    (pred_dir / "1fps.csv").unlink()
    code = main(
        ["sweep-fps", "--gt", str(gt_path), "--pred-dir", str(pred_dir),
         "--rates", "2,1", "--native-fps", "2", "--eval-fps", "1"]
    )
    assert code == 2
    assert "rate 1" in capsys.readouterr().err


def test_sweep_fps_rate_above_native_names_rate(tmp_path, capsys):
    gt_path, pred_dir = make_sweep_dir(tmp_path)
    (pred_dir / "100fps.csv").write_bytes((pred_dir / "2fps.csv").read_bytes())
    code = main(
        ["sweep-fps", "--gt", str(gt_path), "--pred-dir", str(pred_dir),
         "--rates", "100", "--native-fps", "30", "--eval-fps", "1"]
    )
    assert code == 2
    assert "rate 100" in capsys.readouterr().err


def test_sweep_fps_applies_config_like_evaluate(tmp_path, capsys):
    gt_path, pred_dir = make_sweep_dir(tmp_path)
    seq = parse_tracks(gt_path.read_text(), native_fps=2.0)
    # low-confidence false positives far from any GT box
    noisy = make_sequence(
        [(f, [*d, Detection(box=Box3D(40.0, 40.0 + f, 0.9, 0.6, 0.6, 1.8), class_id=0,
                            confidence=0.2, track_id=7)]) for f, d in seq.frames],
        native_fps=2.0,
    )
    with (pred_dir / "2fps.csv").open("w", newline="\n") as fh:
        emit_tracks(noisy, fh)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"conf_threshold": 0.5, "class_names": {"0": "person"},
                               "native_fps": 2, "eval_fps": 1}))
    sweep_out, eval_out = tmp_path / "sweep.json", tmp_path / "report.json"
    assert main(["sweep-fps", "--gt", str(gt_path), "--pred-dir", str(pred_dir),
                 "--rates", "2", "--config", str(cfg), "--out", str(sweep_out)]) == 0
    assert main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_dir / "2fps.csv"),
                 "--config", str(cfg), "--out", str(eval_out)]) == 0
    swept = json.loads(sweep_out.read_text())[0]["report"]
    evaluated = json.loads(eval_out.read_text())
    assert swept["class_names"] == evaluated["class_names"] == {"0": "person"}
    assert swept["class_average"] == evaluated["class_average"]
    assert swept["class_average"]["deta"] == 1.0


@pytest.mark.parametrize("rates, named", [("2,nan", "got nan"), ("2,-10", "got -10")])
def test_sweep_fps_names_a_bad_rate(tmp_path, capsys, rates, named):
    gt_path, pred_dir = make_sweep_dir(tmp_path)
    code = main(
        ["sweep-fps", "--gt", str(gt_path), "--pred-dir", str(pred_dir),
         "--rates", rates, "--native-fps", "2", "--eval-fps", "1"]
    )
    assert code == 2
    assert f"rate must be finite and positive, {named}" in capsys.readouterr().err


def test_sweep_fps_requires_eval_fps(tmp_path, capsys):
    gt_path, pred_dir = make_sweep_dir(tmp_path)
    code = main(
        ["sweep-fps", "--gt", str(gt_path), "--pred-dir", str(pred_dir),
         "--rates", "2,1", "--native-fps", "2"]
    )
    assert code == 2
    assert "eval" in capsys.readouterr().err


# --- help text ----------------------------------------------------------------


def test_help_names_defaults_and_config_keys():
    parser = build_parser()
    sub = {a.dest: a for a in parser._actions}["command"]
    eval_help = sub.choices["evaluate"].format_help()
    assert "eval_fps" in eval_help
    assert "dur_alpha" in eval_help
    assert "native_fps" in eval_help
    anch_help = sub.choices["gen-anchors"].format_help()
    assert "anchor_k" in anch_help and "900" in anch_help
