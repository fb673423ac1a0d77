"""Run one mtmceval CLI command in-process with a timing span around each
layer's public functions, then write the spans and counts out as JSON.

    python3 perfbench/tracer.py --spans FILE -- <mtmceval arguments>

Each function is wrapped under every module name its callers look it up by
(``cli.parse_tracks`` as well as ``ingest.parse_tracks``), because a caller
that imported the name holds its own reference. A span is (name, start, end,
parent); spans and counts stay in memory until the command returns. A name
that no longer exists is skipped and reports zero calls.

``summarize`` turns the span files of one round into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (span name, modules whose globals callers look the function up in, attribute)
LAYERS = (
    ("ingest.parse_tracks", ("cli", "ingest"), "parse_tracks"),
    ("ingest.parse_positions", ("cli", "ingest"), "parse_positions"),
    ("ingest.convert_positions", ("cli", "ingest"), "convert_positions"),
    ("ingest.estimate_velocities", ("cli", "ingest"), "estimate_velocities"),
    ("ingest.emit_tracks", ("cli", "ingest"), "emit_tracks"),
    ("fpslab.controlled_window", ("cli", "fpslab"), "controlled_window"),
    ("fpslab.fps_sweep", ("cli", "fpslab"), "fps_sweep"),
    ("matching.similarity_matrix", ("metrics", "matching"), "similarity_matrix"),
    ("matching.match_arrays", ("metrics", "matching"), "match_arrays"),
    ("matching.lsa", ("matching",), "linear_sum_assignment"),
    ("metrics.class_report", ("cli", "fpslab", "metrics"), "class_report"),
    ("metrics.detection_ap", ("metrics",), "detection_ap"),
    ("metrics.postprocess_filter", ("cli", "metrics"), "postprocess_filter"),
    ("metrics.render", ("cli", "metrics"), "report_to_json"),
    ("metrics.render", ("cli", "metrics"), "report_to_text"),
    ("metrics.render", ("cli", "fpslab"), "sweep_to_json"),
    ("metrics.render", ("cli", "fpslab"), "sweep_to_text"),
    ("anchors.collect_centers", ("cli", "anchors"), "collect_centers"),
    ("anchors.kmeans", ("cli", "anchors"), "kmeans"),
    ("anchors.emit_anchor_bank", ("cli", "anchors"), "emit_anchor_bank"),
)

MAX_COUNTS = {"matching.lsa.max_side"}


def _rows(out, fn, args, kwargs):
    return {"ingest.parse_tracks.rows": sum(len(dets) for _, dets in out.frames)}


def _window(out, fn, args, kwargs):
    return {"fpslab.window_frames": len(out)}


def _sim(out, fn, args, kwargs):
    return {"matching.sim_entries": int(out.size), "matching.sim_nonzero": int(np.count_nonzero(out))}


def _lsa(out, fn, args, kwargs):
    cost = args[0] if args else kwargs["cost_matrix"]
    return {"matching.lsa.max_side": max(np.shape(cost))}


def _ranked(out, fn, args, kwargs):
    """Predictions of the scored class inside the window: the length of the
    ranked list detection_ap walks."""
    args = inspect.signature(fn).bind(*args, **kwargs).arguments
    win = set(args["window"].frame_indices)
    cid = args.get("class_id")
    n = sum(
        1
        for fi, dets in args["pred"].frames
        if fi in win
        for d in dets
        if cid is None or d.class_id == cid
    )
    return {"metrics.detection_ap.ranked": n}


def _iters(out, fn, args, kwargs):
    return {"anchors.kmeans.iters": len(out.inertia_history) - 1}


COUNTERS = {
    "ingest.parse_tracks": _rows,
    "fpslab.controlled_window": _window,
    "matching.similarity_matrix": _sim,
    "matching.lsa": _lsa,
    "metrics.detection_ap": _ranked,
    "anchors.kmeans": _iters,
}


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.counter_errors: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if counter is not None:
                self._count(name, counter, out, fn, args, kwargs)
            return out

        return traced

    def _count(self, name, counter, out, fn, args, kwargs) -> None:
        # a counter that no longer fits the program's signatures must not
        # change what the traced command does
        try:
            for key, value in counter(out, fn, args, kwargs).items():
                if key in MAX_COUNTS:
                    self.counts[key] = max(self.counts[key], value)
                else:
                    self.counts[key] += value
        except Exception as exc:  # noqa: BLE001 - reported in the span file
            self.counter_errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def install(self) -> None:
        for name, modules, attr in LAYERS:
            for mod_name in modules:
                module = importlib.import_module(f"mtmceval.{mod_name}")
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self.wrap(name, fn))

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[index[n], start, end, parent] for n, start, end, parent in self.spans],
            "counts": dict(self.counts),
            "counter_errors": self.counter_errors,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def summarize(paths: list[Path]) -> tuple[dict[str, float], dict[str, dict[str, float]], list[str]]:
    """Per-layer metrics over the span files of one round, the breakdown of
    each span name into self time and direct children, and any faults found
    in the span tree."""
    total: defaultdict[str, float] = defaultdict(float)
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    breakdown: defaultdict[str, defaultdict[str, float]] = defaultdict(lambda: defaultdict(float))
    faults: list[str] = []
    for path in paths:
        data = json.loads(path.read_text())
        names = data["names"]
        spans = [(names[n], s, e, p) for n, s, e, p in data["spans"]]
        faults += [f"{path.name}: counter {e}" for e in data["counter_errors"]]
        for key, value in data["counts"].items():
            counts[key] = max(counts[key], value) if key in MAX_COUNTS else counts[key] + value
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                pname, pstart, pend, _ = spans[parent]
                if not pstart <= start <= end <= pend:
                    faults.append(f"{path.name}: span {name} is not inside its parent {pname}")
                child[parent] += end - start
                breakdown[pname][name] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            own = end - start - child[i]
            if own < 0:
                faults.append(f"{path.name}: {name} children outlast it")
            self_s[name] += own
            breakdown[name]["self"] += own
            # a span inside another span of the same name is already counted
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] += end - start
                breakdown[name]["total"] += end - start

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {
        f"{name}.s": total[name]
        for name in sorted({layer[0] for layer in LAYERS} | {"cli.main"})
    }
    metrics.update({
        "ingest.parse_tracks.rows": counts["ingest.parse_tracks.rows"],
        "ingest.parse_tracks.rows_per_s": ratio(counts["ingest.parse_tracks.rows"], total["ingest.parse_tracks"]),
        "fpslab.window_frames": counts["fpslab.window_frames"],
        "fpslab.fps_sweep.self_s": self_s["fpslab.fps_sweep"],
        "matching.similarity_matrix.calls": calls["matching.similarity_matrix"],
        "matching.sim_entries": counts["matching.sim_entries"],
        "matching.sim_nonzero_ratio": ratio(counts["matching.sim_nonzero"], counts["matching.sim_entries"]),
        "matching.match_arrays.calls": calls["matching.match_arrays"],
        "matching.lsa.calls": calls["matching.lsa"],
        "matching.lsa_per_match": ratio(calls["matching.lsa"], calls["matching.match_arrays"]),
        "matching.lsa.max_side": counts["matching.lsa.max_side"],
        "metrics.class_report.self_s": self_s["metrics.class_report"],
        "metrics.detection_ap.ranked": counts["metrics.detection_ap.ranked"],
        "anchors.kmeans.iters": counts["anchors.kmeans.iters"],
        "cli.self_s": self_s["cli.main"],
    })
    return metrics, {k: dict(v) for k, v in breakdown.items()}, faults


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans FILE -- <mtmceval arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("mtmceval.cli")
    try:
        return tracer.wrap("cli.main", cli.main)(argv[3:])
    finally:
        tracer.write(Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
