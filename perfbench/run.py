"""End-to-end benchmark of the mtmceval CLI on four seeded synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload long-window --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke

One client runs one CLI command at a time as a fresh process and waits for
it (a closed loop). Inputs are generated from the seed before anything is
timed. A run repeats whole rounds of the workload's commands until
``--seconds`` have passed, checks every output, and prints one JSON line:
with ``--trace 0`` the end-to-end metrics (medians over rounds), with
``--trace 1`` the per-layer metrics of a traced run of the same commands.
``--smoke`` runs every workload at toy size in both modes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
CLI = [sys.executable, "-c", "import sys; from mtmceval.cli import main; sys.exit(main())"]
IMPORT_CLI = [sys.executable, "-c", "import mtmceval.cli"]
TRACED_CLI = [sys.executable, str(HERE / "tracer.py")]
CHILD_TIMEOUT_S = 170.0
SETUP_REPEATS = {"full": 3, "smoke": 1}


class Tally:
    """Operations attempted and failed, and the problems the checks found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)
        return ok

    def call(self, what: str, fn):
        """Run fn as one operation; None if it raised."""
        try:
            out = fn()
        except Exception:  # noqa: BLE001 - counted as a failed operation
            traceback.print_exc()
            self.op(False, what)
            return None
        self.op(True, what)
        return out

    def expect(self, problems: list[str]) -> None:
        for p in problems:
            print(f"incorrect: {p}", file=sys.stderr)
        self.problems += problems


def run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with log.open("ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def spec_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(name: str, seed: int, seconds: float, traced: bool, size: str = "full") -> dict:
    import tracer
    from workloads import SIZES, WORKLOADS

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "children.log"
    tally = Tally()

    setup = []
    if not traced:
        for _ in range(SETUP_REPEATS[size]):
            wall, _, code = run_child(IMPORT_CLI, log)
            if tally.op(code == 0, f"import mtmceval.cli exited {code}"):
                setup.append(wall)

    wl = WORKLOADS[name](SIZES[size][name], work)
    wl.generate(seed)

    walls, traced_walls, scores, rss, layer_rounds = [], [], [], [], []
    output = None
    began = time.perf_counter()
    for r in itertools.count():
        wall, ok = 0.0, True
        for args in wl.commands(r):
            w, mb, code = run_child(CLI + args, log)
            ok &= tally.op(code == 0, f"mtmceval {args[0]} exited {code}")
            wall += w
            rss.append(mb)
        walls.append(wall)
        got = b"".join((work / f).read_bytes() for f in wl.outputs) if ok else None
        if traced:
            wall, files = 0.0, []
            for i, args in enumerate(wl.commands(r)):
                files.append(work / f"spans-{r}-{i}.json")
                w, _, code = run_child(TRACED_CLI + ["--spans", str(files[-1]), "--"] + args, log)
                tally.op(code == 0, f"traced mtmceval {args[0]} exited {code}")
                wall += w
            traced_walls.append(wall)
            layers, breakdown, faults = tracer.summarize(files)
            layer_rounds.append(layers)
            tally.expect(faults)
            if got is not None and b"".join((work / f).read_bytes() for f in wl.outputs) != got:
                tally.expect([f"{name}: traced output differs from the untraced one"])
        for _ in range(wl.score_repeats):
            start = time.perf_counter()
            expected = tally.call(f"{name} in-process scoring", lambda: wl.score(r))
            if expected is not None:
                scores.append(time.perf_counter() - start)
                if got is not None and got != expected:
                    tally.expect([f"{name}: CLI output of round {r} differs from the in-process result"])
        output = got if got is not None else output
        if time.perf_counter() - began >= seconds:
            break

    print(f"{name}: {len(walls)} rounds, wall_s {[round(w, 3) for w in walls]}, "
          f"score_s {[round(t, 3) for t in scores]}", file=sys.stderr)
    if output is not None:
        tally.expect(wl.check(output))
    tally.expect(tally.call(f"{name} control", wl.control) or [])

    if traced:
        values = {k: statistics.median(lr[k] for lr in layer_rounds) for k in layer_rounds[0]}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        for parent in ("metrics.class_report", "fpslab.fps_sweep", "cli.main"):
            if parent in breakdown:
                parts = ", ".join(f"{k}={v:.4f}" for k, v in sorted(breakdown[parent].items()))
                print(f"{name} {parent}: {parts}", file=sys.stderr)
        units = spec_units("per_layer")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "score_s": statistics.median(scores),
            "peak_rss_mb": max(rss),
        }
        units = spec_units("end_to_end")
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def smoke() -> int:
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for traced in (False, True):
            start = time.perf_counter()
            result = run(name, seed=0, seconds=0, traced=traced, size="smoke")
            ok &= result["correct"] and result["failed"] == 0
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items() if v["value"]}
            shown = dict(list(shown.items())[:5])
            print(f"{name:12s} trace={int(traced)} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({time.perf_counter() - start:.1f}s) {shown}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="long-window, dense-crowd, fps-sweep or anchors")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads at toy size, both modes")
    args = parser.parse_args()
    if not (SRC / "mtmceval" / "cli.py").is_file():
        print(f"error: no mtmceval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mtmceval
    from workloads import WORKLOADS

    if Path(mtmceval.__file__).resolve().parent != SRC / "mtmceval":
        print(f"error: imported mtmceval from {mtmceval.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
