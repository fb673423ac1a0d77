"""Seeded inputs, the CLI commands and the output checks of each workload.

Every workload draws its inputs from numpy generators keyed by the run seed,
writes them as the files a user would hand to ``mtmceval``, and keeps the
same data in memory as library objects. The checks compare the CLI outputs
with the same scoring done in-process on those objects, and with properties
that the metrics must have whatever the seed.

Objects in every scene are present in every frame, so a perfect tracker
scores one run per object spanning the whole window; the GT-vs-GT control
relies on that.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from mtmceval.anchors import collect_centers, emit_anchor_bank, kmeans
from mtmceval.datamodel import Box3D, Detection, EvalWindow, Sequence
from mtmceval.fpslab import SweepSpec, fps_sweep, sweep_to_json
from mtmceval.matching import SimilaritySpec
from mtmceval.metrics import class_report, postprocess_filter, report_to_json

PERSON = (0.6, 0.6, 1.8)  # width (x), length (y), height in metres
RATE_KEYS = ("hota", "deta", "assa", "loca", "ap")


@dataclass
class Table:
    """Detection rows as columns, grouped by ascending frame.

    z is always height / 2 and yaw always 0, as for people standing on the
    ground plane."""

    frame: np.ndarray
    tid: np.ndarray
    cls: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    l: np.ndarray
    h: np.ndarray
    conf: np.ndarray

    def take(self, idx: np.ndarray) -> "Table":
        return Table(*(getattr(self, f.name)[idx] for f in fields(self)))

    @staticmethod
    def concat_by_frame(parts: list["Table"]) -> "Table":
        """Concatenate, then order rows by frame, keeping part order within
        a frame."""
        cols = [np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(Table)]
        merged = Table(*cols)
        return merged.take(np.argsort(merged.frame, kind="stable"))

    def _columns(self) -> list[list]:
        return [
            self.frame.tolist(), self.tid.tolist(), self.cls.tolist(),
            self.x.tolist(), self.y.tolist(), (self.h / 2).tolist(),
            self.w.tolist(), self.l.tolist(), self.h.tolist(), self.conf.tolist(),
        ]

    def write_csv(self, path: Path) -> None:
        """Write the track CSV format; repr gives the shortest float text that
        parses back to the same value."""
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("# frame,track_id,class_id,x,y,z,width,length,height,yaw,confidence\n")
            fh.writelines(
                f"{f},{t},{c},{x!r},{y!r},{z!r},{w!r},{l!r},{h!r},0.0,{cf!r}\n"
                for f, t, c, x, y, z, w, l, h, cf in zip(*self._columns())
            )

    def to_sequence(self, native_fps: float) -> Sequence:
        dets = [
            Detection(box=Box3D(x, y, z, w, l, h, 0.0), class_id=c, confidence=cf, track_id=t)
            for f, t, c, x, y, z, w, l, h, cf in zip(*self._columns())
        ]
        starts = np.flatnonzero(np.r_[True, np.diff(self.frame) != 0])
        ends = np.r_[starts[1:], len(dets)]
        frames = tuple(
            (int(self.frame[a]), tuple(dets[a:b])) for a, b in zip(starts.tolist(), ends.tolist())
        )
        return Sequence(frames=frames, native_fps=native_fps)


def reflect(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold free motion back into [lo, hi] as if walls were mirrors."""
    span = hi - lo
    u = np.mod(v - lo, 2 * span)
    return lo + np.where(u > span, 2 * span - u, u)


def walk(rng, n: int, n_frames: int, fps: float, bounds) -> tuple[np.ndarray, np.ndarray]:
    """(n_frames, n) positions of objects at constant speed 0.5-1.5 m/s,
    bouncing off the arena walls."""
    xmin, ymin, xmax, ymax = bounds
    x0 = rng.uniform(xmin, xmax, n)
    y0 = rng.uniform(ymin, ymax, n)
    speed = rng.uniform(0.5, 1.5, n)
    heading = rng.uniform(-math.pi, math.pi, n)
    t = (np.arange(n_frames) / fps)[:, None]
    x = reflect(x0 + speed * np.cos(heading) * t, xmin, xmax)
    y = reflect(y0 + speed * np.sin(heading) * t, ymin, ymax)
    return x, y


def rows_table(frame, tid, cls, x, y, dims, conf) -> Table:
    """Rows from equally long 1-D columns; dims is (w, l, h) per row or one
    triple for all rows."""
    dims = np.broadcast_to(np.asarray(dims, dtype=float), (len(frame), 3))
    return Table(
        frame=np.asarray(frame, dtype=np.int64), tid=np.asarray(tid, dtype=np.int64),
        cls=np.asarray(cls, dtype=np.int64), x=np.asarray(x, dtype=float),
        y=np.asarray(y, dtype=float), w=dims[:, 0].copy(), l=dims[:, 1].copy(),
        h=dims[:, 2].copy(), conf=np.asarray(conf, dtype=float),
    )


def scene_pair(rng, n, n_frames, fps, bounds, drop, jitter, switch, tp_conf, fp_rate, fp_bounds):
    """GT of n people present in every frame, and a tracker output with
    drops, centre jitter, per-appearance identity switches and uniformly
    placed false positives."""
    x, y = walk(rng, n, n_frames, fps, bounds)
    frame = np.repeat(np.arange(n_frames), n)
    obj = np.tile(np.arange(n), n_frames)
    gt = rows_table(frame, obj, np.zeros_like(obj), x.ravel(), y.ravel(), PERSON, np.ones(frame.size))

    keep = rng.random(frame.size) >= drop
    switches = (rng.random((n_frames, n)) < switch).cumsum(axis=0).ravel()
    px = x.ravel() + rng.normal(0.0, jitter, frame.size)
    py = y.ravel() + rng.normal(0.0, jitter, frame.size)
    conf = rng.uniform(*tp_conf, frame.size)
    tp = rows_table(frame, obj + n * switches, np.zeros_like(obj), px, py, PERSON, conf).take(keep)

    n_fp = rng.poisson(fp_rate, n_frames)
    fp_frame = np.repeat(np.arange(n_frames), n_fp)
    k = fp_frame.size
    xmin, ymin, xmax, ymax = fp_bounds
    fp = rows_table(
        fp_frame, n * (int(switches.max()) + 1) + np.arange(k), np.zeros(k, dtype=np.int64),
        rng.uniform(xmin, xmax, k), rng.uniform(ymin, ymax, k), PERSON, rng.uniform(0.05, 0.95, k),
    )
    return gt, Table.concat_by_frame([tp, fp])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_report(d: dict, tag: str, window: tuple[int, int, int], f0: float) -> list[str]:
    """Window bounds, metric ranges, HOTA <= sqrt(DetA * AssA) and the
    AvgTrackDur range on one report dict."""
    size = window[0]
    bad = []
    got = (d["window"]["size"], d["window"]["first_frame"], d["window"]["last_frame"])
    if got != window or d["window"]["f0"] != f0:
        bad.append(f"{tag}: window {got} f0={d['window']['f0']}, expected {window} f0={f0}")
    for name, m in [("class_average", d["class_average"])] + sorted(d["per_class"].items()):
        for key in RATE_KEYS:
            if not 0.0 <= m[key] <= 1.0:
                bad.append(f"{tag} {name}: {key}={m[key]} outside [0, 1]")
        if m["hota"] > math.sqrt(m["deta"] * m["assa"]) + 1e-12:
            bad.append(f"{tag} {name}: HOTA {m['hota']} > sqrt(DetA*AssA)")
        dur = m["avg_track_dur_seconds"]
        if not 1.0 / f0 <= dur <= size / f0:
            bad.append(f"{tag} {name}: AvgTrackDur {dur} outside [1/f0, |window|/f0]")
    return bad


def check_perfect(report, tag: str, f0: float) -> list[str]:
    """GT scored against itself: every rate metric 1, one run per object
    spanning the window."""
    bad = []
    for name, m in [("average", report.class_average)] + sorted(report.per_class.items()):
        for key in RATE_KEYS:
            if abs(getattr(m, key) - 1.0) > 1e-12:
                bad.append(f"{tag} control {name}: {key}={getattr(m, key)}, expected 1")
        if abs(m.avg_track_dur_seconds - report.window_size / f0) > 1e-12 * report.window_size / f0:
            bad.append(f"{tag} control {name}: AvgTrackDur {m.avg_track_dur_seconds}, "
                       f"expected {report.window_size / f0}")
    return bad


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One seeded input set, the CLI commands run on it, and its checks.

    ``generate`` writes the input files and keeps the data in memory;
    ``commands`` gives the CLI argument lists of round ``r``; ``score`` is
    the in-process library call of that round, timed as score_s, and returns
    the bytes the CLI must have written to the files named in ``outputs``,
    concatenated."""

    name = ""
    outputs: tuple[str, ...] = ()
    score_repeats = 1  # in-process scoring calls per round

    def __init__(self, size: dict, work: Path) -> None:
        self.size = size
        self.work = work

    def generate(self, seed: int) -> None:
        raise NotImplementedError

    def commands(self, r: int) -> list[list[str]]:
        raise NotImplementedError

    def score(self, r: int) -> bytes:
        raise NotImplementedError

    def check(self, output: bytes) -> list[str]:
        """Checks on the CLI output (already byte-compared with score)."""
        raise NotImplementedError

    def control(self) -> list[str]:
        """An untimed check of the scorer on known inputs."""
        return []


class EvaluateWorkload(Workload):
    """``evaluate`` of one tracker output on the full-rate window."""

    seed_tag: int  # keys the generator together with the run seed
    outputs = ("report.json",)
    control_stride = 1  # the control scores every n-th window frame
    fps = 30.0
    spec = SimilaritySpec()
    config: dict | None = None
    class_names: dict[int, str] = {}

    def _tables(self, rng) -> tuple[Table, Table]:
        raise NotImplementedError

    def generate(self, seed: int) -> None:
        gt, pred = self._tables(np.random.default_rng([seed, self.seed_tag]))
        gt.write_csv(self.work / "gt.csv")
        pred.write_csv(self.work / "pred.csv")
        if self.config is not None:
            (self.work / "config.json").write_text(json.dumps(self.config, indent=2) + "\n")
        self.n_frames = int(gt.frame[-1]) + 1
        self.gt = gt.to_sequence(self.fps)
        self.pred = pred.to_sequence(self.fps)
        self.scored = self.pred  # the tracker output as the CLI scores it
        self.pred_table = pred
        self.window = EvalWindow(frame_indices=tuple(range(self.n_frames)), f0=self.fps)

    def commands(self, r: int) -> list[list[str]]:
        cmd = ["evaluate", "--gt", str(self.work / "gt.csv"), "--pred", str(self.work / "pred.csv"),
               "--native-fps", f"{self.fps:g}", "--out", str(self.work / self.outputs[0])]
        if self.config is not None:
            cmd += ["--config", str(self.work / "config.json")]
        return [cmd]

    def score(self, r: int) -> bytes:
        report = class_report(self.gt, self.scored, self.window, self.spec,
                              class_names=self.class_names)
        return report_to_json(report).encode()

    def check(self, output: bytes) -> list[str]:
        return check_report(json.loads(output), self.name,
                            (self.n_frames, 0, self.n_frames - 1), self.fps)

    def control(self) -> list[str]:
        f0 = self.fps / self.control_stride
        window = EvalWindow(frame_indices=self.window.frame_indices[:: self.control_stride], f0=f0)
        return check_perfect(class_report(self.gt, self.gt, window, self.spec), self.name, f0)


class LongWindow(EvaluateWorkload):
    """Many frames, few conflicts: parsing and per-frame overhead dominate."""

    name = "long-window"
    seed_tag = 1
    control_stride = 10  # a full-window control would cost as much as the scoring
    score_repeats = 2  # only one round fits in a run, so take two score samples

    def _tables(self, rng):
        s = self.size
        return scene_pair(rng, s["people"], s["frames"], self.fps, (-10.0, -10.0, 10.0, 10.0),
                          drop=0.05, jitter=0.05, switch=0.0005, tp_conf=(0.5, 1.0),
                          fp_rate=0.05, fp_bounds=(-10.0, -10.0, 10.0, 10.0))


class DenseCrowd(EvaluateWorkload):
    """A crowded arena: nearly every frame and gate reaches the solver."""

    name = "dense-crowd"
    seed_tag = 2
    spec = SimilaritySpec(mode="center_distance", d_max=2.0)
    conf_threshold = 0.3
    class_names = {0: "person"}
    # regular octagon around the arena centre with sides facing the axes
    roi = [
        (round(5.0 + 5.4 * math.cos(math.radians(22.5 + 45 * i)), 6),
         round(5.0 + 5.4 * math.sin(math.radians(22.5 + 45 * i)), 6))
        for i in range(8)
    ]
    config = {
        "similarity_mode": "center_distance",
        "d_max": 2.0,
        "roi": [list(v) for v in roi],
        "conf_threshold": conf_threshold,
        "class_names": {"0": "person"},
    }

    def _tables(self, rng):
        s = self.size
        return scene_pair(rng, s["people"], s["frames"], self.fps, (0.0, 0.0, 10.0, 10.0),
                          drop=0.05, jitter=0.1, switch=0.002, tp_conf=(0.25, 1.0),
                          fp_rate=4.0, fp_bounds=(-1.0, -1.0, 11.0, 11.0))

    def _inside(self, t: Table) -> np.ndarray:
        keep = t.conf >= self.conf_threshold
        verts = self.roi
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
            keep &= (x2 - x1) * (t.y - y1) - (y2 - y1) * (t.x - x1) >= 0  # counter-clockwise
        return keep

    def generate(self, seed: int) -> None:
        super().generate(seed)
        self.scored = postprocess_filter(self.pred, self.roi, self.conf_threshold)
        self.kept = int(self._inside(self.pred_table).sum())

    def check(self, output: bytes) -> list[str]:
        bad = super().check(output)
        got = sum(len(d) for _, d in self.scored.frames)
        if got != self.kept or len(self.scored.frames) != len(self.pred.frames):
            bad.append(f"{self.name}: ROI/confidence filter kept {got} rows, expected {self.kept}")
        return bad


class FpsSweep(Workload):
    """``sweep-fps`` over five inference rates on one 1 FPS window.

    Detections (drops, jitter) are shared by every rate; only association
    degrades. Switch events are nested: a switch that happens at a higher
    rate happens at every lower rate too, so AssA and AvgTrackDur fall
    strictly as the rate drops."""

    name = "fps-sweep"
    outputs = ("sweep.json",)
    fps = 30.0
    eval_fps = 1.0
    rates = (30.0, 10.0, 5.0, 2.0, 1.0)
    # identity switches per object and second, by inference rate
    switch_per_s = {30.0: 0.002, 10.0: 0.02, 5.0: 0.05, 2.0: 0.15, 1.0: 0.4}
    class_dims = {0: PERSON, 1: (1.2, 2.0, 2.0), 2: (0.8, 0.8, 1.2)}

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        per_class, n_frames = self.size["per_class"], self.size["frames"]
        n = per_class * len(self.class_dims)
        cls = np.repeat(np.array(sorted(self.class_dims)), per_class)
        dims = np.array([self.class_dims[c] for c in cls.tolist()])
        x, y = walk(rng, n, n_frames, self.fps, (-10.0, -10.0, 10.0, 10.0))
        frame = np.repeat(np.arange(n_frames), n)
        obj = np.tile(np.arange(n), n_frames)
        row_dims = np.tile(dims, (n_frames, 1))
        gt = rows_table(frame, obj, cls[obj], x.ravel(), y.ravel(), row_dims, np.ones(frame.size))

        detected = rng.random((n_frames, n)) >= 0.03
        px = x + rng.normal(0.0, 0.05, x.shape)
        py = y + rng.normal(0.0, 0.05, y.shape)
        conf = rng.uniform(0.5, 1.0, x.shape)
        u = rng.random((n_frames, n))
        (self.work / "preds").mkdir()
        self.by_rate: dict[float, Sequence] = {}
        for rate in self.rates:
            stride = round(self.fps / rate)
            switches = (u < self.switch_per_s[rate] / self.fps).cumsum(axis=0)
            f = np.arange(0, n_frames, stride)
            keep = detected[f].ravel()
            table = rows_table(
                np.repeat(f, n), (obj[: n] + n * switches[f]).ravel(), np.tile(cls, f.size),
                px[f].ravel(), py[f].ravel(), np.tile(dims, (f.size, 1)), conf[f].ravel(),
            ).take(keep)
            table.write_csv(self.work / "preds" / f"{rate:g}fps.csv")
            self.by_rate[rate] = table.to_sequence(self.fps / stride)
        gt.write_csv(self.work / "gt.csv")
        self.gt = gt.to_sequence(self.fps)
        self.n_frames = n_frames

    def commands(self, r: int) -> list[list[str]]:
        return [["sweep-fps", "--gt", str(self.work / "gt.csv"),
                 "--pred-dir", str(self.work / "preds"),
                 "--rates", ",".join(f"{rate:g}" for rate in self.rates),
                 "--native-fps", f"{self.fps:g}", "--eval-fps", f"{self.eval_fps:g}",
                 "--out", str(self.work / self.outputs[0])]]

    def score(self, r: int) -> bytes:
        spec = SweepSpec(native_fps=self.fps, inference_rates=self.rates, eval_fps=self.eval_fps)
        return sweep_to_json(fps_sweep(self.gt, self.by_rate, spec)).encode()

    def check(self, output: bytes) -> list[str]:
        rows = json.loads(output)
        stride = round(self.fps / self.eval_fps)
        last = (self.n_frames - 1) // stride * stride
        window = (last // stride + 1, 0, last)
        bad = []
        if [r["inference_fps"] for r in rows] != sorted(self.rates, reverse=True):
            bad.append(f"{self.name}: rows {[r['inference_fps'] for r in rows]}")
        for r in rows:
            bad += check_report(r["report"], f"{self.name} @{r['inference_fps']:g}",
                                window, self.eval_fps)
            if r["report"]["window"] != rows[0]["report"]["window"]:
                bad.append(f"{self.name}: rows do not share one window")
        avg = [r["report"]["class_average"] for r in rows]
        deta = [a["deta"] for a in avg]
        if max(deta) - min(deta) >= 0.01:
            bad.append(f"{self.name}: DetA spreads {max(deta) - min(deta):.4f} across rates")
        for key in ("assa", "avg_track_dur_seconds"):
            vals = [a[key] for a in avg]
            if not all(a > b for a, b in zip(vals, vals[1:])):
                bad.append(f"{self.name}: {key} does not fall strictly with the rate: {vals}")
        return bad

    def control(self) -> list[str]:
        stride = round(self.fps / self.eval_fps)
        window = EvalWindow(frame_indices=tuple(range(0, self.n_frames, stride)), f0=self.eval_fps)
        report = class_report(self.gt, self.gt, window, SimilaritySpec())
        return check_perfect(report, self.name, self.eval_fps)


class Anchors(Workload):
    """``convert`` of grid position records, then ``gen-anchors``.

    Identities walk for a limited time across a WILDTRACK-sized grid
    (480 x 1440 cells of 2.5 cm), so the point cloud covers the floor. The
    number of Lloyd iterations depends on the k-means++ draw (14 to 22 on
    one point set), so each round draws its own k-means seed and the median
    over rounds averages the draws."""

    name = "anchors"
    outputs = ("anchors.csv",)
    fps = 2.0
    grid = {
        "origin_x": -3.0, "origin_y": -9.0, "step": 0.025, "grid_width": 480,
        "grid_height": 1440, "person_width": 0.6, "person_length": 0.6, "person_height": 1.8,
    }

    def generate(self, seed: int) -> None:
        s = self.size
        rng = np.random.default_rng([seed, 4])
        n, life, n_frames = s["identities"], s["life"], s["frames"]
        gw, gh, step = self.grid["grid_width"], self.grid["grid_height"], self.grid["step"]
        start = rng.integers(0, n_frames - life + 1, n)
        cells_per_frame = rng.uniform(0.5, 1.5, n) / step / self.fps
        heading = rng.uniform(-math.pi, math.pi, n)
        t = np.arange(life)[None, :]
        col = reflect(rng.uniform(0, gw, n)[:, None] + (cells_per_frame * np.cos(heading))[:, None] * t, 0, gw)
        row = reflect(rng.uniform(0, gh, n)[:, None] + (cells_per_frame * np.sin(heading))[:, None] * t, 0, gh)
        col = np.minimum(col.astype(np.int64), gw - 1)
        row = np.minimum(row.astype(np.int64), gh - 1)
        frame = start[:, None] + t
        person = np.broadcast_to(np.arange(n)[:, None], frame.shape)
        order = np.lexsort((person.ravel(), frame.ravel()))  # by frame, then person
        self.frame = frame.ravel()[order]
        self.person = person.ravel()[order]
        col = col.ravel()[order]
        row = row.ravel()[order]
        self.k = s["k"]
        self.seed = seed
        with (self.work / "positions.csv").open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("# frame,person_id,position_id\n")
            fh.writelines(
                f"{f},{p},{pos}\n"
                for f, p, pos in zip(self.frame.tolist(), self.person.tolist(),
                                     (row * gw + col).tolist())
            )
        (self.work / "grid.json").write_text(json.dumps(self.grid, indent=2) + "\n")
        g = self.grid
        # the operations of GridConfig.cell_to_xy in its order (recentre 0),
        # so the converted rows must match exactly
        self.x = g["origin_x"] + step * col.astype(float) + 0.0
        self.y = g["origin_y"] + step * row.astype(float) + 0.0
        self.gt = rows_table(
            self.frame, self.person, np.zeros_like(self.frame), self.x, self.y,
            (g["person_width"], g["person_length"], g["person_height"]), np.ones(self.frame.size),
        ).to_sequence(self.fps)

    def kmeans_seed(self, r: int) -> int:
        return self.seed * 1000 + r

    def commands(self, r: int) -> list[list[str]]:
        w = self.work
        return [
            ["convert", "--positions", str(w / "positions.csv"), "--grid-config", str(w / "grid.json"),
             "--fps", f"{self.fps:g}", "--out", str(w / "tracks.csv")],
            ["gen-anchors", "--gt", str(w / "tracks.csv"), "--native-fps", f"{self.fps:g}",
             "--k", str(self.k), "--seed", str(self.kmeans_seed(r)), "--out", str(w / self.outputs[0])],
        ]

    def score(self, r: int) -> bytes:
        bank = kmeans(collect_centers(self.gt), k=self.k, seed=self.kmeans_seed(r))
        sink = io.StringIO()
        emit_anchor_bank(bank, sink)
        return sink.getvalue().encode()

    def _velocities(self) -> tuple[np.ndarray, np.ndarray]:
        """Central differences per identity over the nearest frames, one-sided
        at the ends, in the (person, frame) order of the rows."""
        order = np.lexsort((self.frame, self.person))
        f, p = self.frame[order], self.person[order]
        x, y = self.x[order], self.y[order]
        first = np.r_[True, p[1:] != p[:-1]]
        last = np.r_[p[1:] != p[:-1], True]
        idx = np.arange(f.size)
        lo = np.where(first, idx, idx - 1)
        hi = np.where(last, idx, idx + 1)
        dt = (f[hi] - f[lo]) / self.fps
        vx = np.empty_like(x)
        vy = np.empty_like(y)
        vx[order] = (x[hi] - x[lo]) / dt
        vy[order] = (y[hi] - y[lo]) / dt
        return vx, vy

    def check(self, output: bytes) -> list[str]:
        bad = []
        g = self.grid
        rows = np.loadtxt(self.work / "tracks.csv", delimiter=",", comments="#", ndmin=2)
        vx, vy = self._velocities()
        expect = np.column_stack([
            self.frame, self.person, np.zeros(self.frame.size), self.x, self.y,
            np.full(self.frame.size, g["person_height"] / 2), np.full(self.frame.size, g["person_width"]),
            np.full(self.frame.size, g["person_length"]), np.full(self.frame.size, g["person_height"]),
            np.zeros(self.frame.size), np.ones(self.frame.size), vx, vy,
        ])
        if rows.shape != expect.shape:
            bad.append(f"{self.name}: converted table {rows.shape}, expected {expect.shape}")
        elif not np.array_equal(rows, expect):
            r, c = np.argwhere(rows != expect)[0]
            bad.append(f"{self.name}: converted row {r} column {c} is {rows[r, c]!r}, "
                       f"expected {expect[r, c]!r}")

        # the bank: K rows inside the points' bounding box, and a header
        # inertia equal to the sum of squared distances to the nearest anchor
        points = np.column_stack([self.x, self.y, np.full(self.x.size, g["person_height"] / 2)])
        lines = output.decode().splitlines()
        header = dict(part.strip().split("=", 1) for part in lines[0].lstrip("# ").split(","))
        centers = np.array([[float(v) for v in ln.split(",")] for ln in lines if not ln.startswith("#")])
        if centers.shape != (self.k, 3) or int(header["k"]) != self.k:
            return bad + [f"{self.name}: bank has {centers.shape} rows, header k={header['k']}"]
        # a centroid is a float mean, which may sit an ulp outside its points
        slack = 1e-12 * np.abs(points).max()
        if (centers < points.min(axis=0) - slack).any() or (centers > points.max(axis=0) + slack).any():
            bad.append(f"{self.name}: an anchor lies outside the points' bounding box")
        inertia = sum(
            float(((chunk[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1).sum())
            for chunk in np.array_split(points, max(1, points.shape[0] // 500))
        )
        stated = float(header["inertia"])
        if abs(stated - inertia) > 1e-9 * inertia:
            bad.append(f"{self.name}: header inertia {stated!r}, recomputed {inertia!r}")
        return bad


WORKLOADS = {w.name: w for w in (LongWindow, DenseCrowd, FpsSweep, Anchors)}

SIZES = {
    "full": {
        "long-window": {"people": 20, "frames": 9000},
        "dense-crowd": {"people": 60, "frames": 600},
        "fps-sweep": {"per_class": 3, "frames": 9000},
        "anchors": {"identities": 250, "life": 40, "frames": 400, "k": 900},
    },
    "smoke": {
        "long-window": {"people": 5, "frames": 300},
        "dense-crowd": {"people": 20, "frames": 60},
        "fps-sweep": {"per_class": 2, "frames": 3600},
        "anchors": {"identities": 20, "life": 10, "frames": 40, "k": 20},
    },
}
