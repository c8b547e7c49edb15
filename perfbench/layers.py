"""Per-layer metrics computed from the spans of a traced run.

A timing is reported as its median (`.ms`), the highest of TAIL_LEVELS that
has at least ten samples beyond it (`.ms_tail`, with the level in
`.tail_pct`; the maximum when there are fewer than 20 samples) and the sample
count (`.n`). Per-frame figures divide by the frames streamed while tracing;
`codec.*` and `nn.*` per-frame figures count only codec-session frames.
A layer the workload does not call reports 0.
"""

from __future__ import annotations

import math

import numpy as np
from pcvstream.sim import CSV_COLUMNS

ROOT_SPANS = ("sim.run_session", "codec.train", "scheduler.train_scheduler")
TIMED = ("roi.select_roi", "roi.coarse_select_details",
         "roi.fine_select_details", "roi.frustum_cull", "roi.estimate_flow",
         "codec.chunk_blocks", "codec.octree_encode", "codec.octree_decode",
         "cloud.chamfer_distance", "cloud.hausdorff_distance")
TAIL_LEVELS = (99, 95, 90, 75, 50)


def timing(durations) -> tuple[float, float, float, int]:
    """(p50, tail, tail level, count) of durations."""
    n = len(durations)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    level = next((q for q in TAIL_LEVELS if n * (100 - q) / 100 >= 10), 100)
    return (float(np.percentile(durations, 50)),
            float(np.percentile(durations, level)), float(level), n)


def _ratio(a, b) -> float:
    return float(a) / b if b else 0.0


class SpanTable:
    """Column view of Tracer.spans, with each span's root call
    (run_session, codec.train or train_scheduler) resolved."""

    def __init__(self, spans):
        self.names = np.array([s[0] for s in spans], dtype=object)
        self.dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.info = [s[5] for s in spans]
        self.root = np.full(len(spans), -1, dtype=np.int64)
        for i, name in enumerate(self.names):  # parents precede children
            if name in ROOT_SPANS:
                self.root[i] = i
            elif self.parent[i] >= 0:
                self.root[i] = self.root[self.parent[i]]

    def find(self, name, roots=None) -> np.ndarray:
        mask = self.names == name
        if roots is not None:
            mask &= np.isin(self.root, list(roots))
        return np.nonzero(mask)[0]

    def total(self, name, roots=None) -> float:
        return float(self.dur[self.find(name, roots)].sum())


def layer_metrics(spans, frame_rows, setup_spans, setup_repeats) -> dict:
    """Every per-layer metric except trace_overhead_frac.

    frame_rows are the session records (sim.CSV_COLUMNS order) produced
    while tracing; setup_spans the spans of the traced set-up repetitions.
    """
    t = SpanTable(spans)
    sessions = t.find("sim.run_session")
    codec_sessions = [i for i in sessions
                      if not t.info[i][0].startswith("octree:")]
    frames = sum(t.info[i][1] for i in sessions)
    codec_frames = sum(t.info[i][1] for i in codec_sessions)
    ms = 1e3
    out = {}

    for name in TIMED:
        p50, tail, level, n = timing(t.dur[t.find(name)] * ms)
        out.update({f"{name}.ms": p50, f"{name}.ms_tail": tail,
                    f"{name}.tail_pct": level, f"{name}.n": n})

    def per_frame(name, roots, n_frames):
        idx = t.find(name, roots)
        out[f"{name}.calls_per_frame"] = _ratio(len(idx), n_frames)
        out[f"{name}.ms_per_frame"] = _ratio(t.dur[idx].sum() * ms, n_frames)

    for name in ("codec.encode", "codec.decode", "nn.forward"):
        per_frame(name, codec_sessions, codec_frames)
    per_frame("cloud.nearest_distances", sessions, frames)
    out["roi.estimate_flow.calls_per_frame"] = _ratio(
        len(t.find("roi.estimate_flow")), frames)
    out["roi.texture_descriptor.calls_per_frame"] = _ratio(
        len(t.find("roi.texture_descriptor")), frames)
    forwards = t.find("nn.forward", codec_sessions)
    out["nn.forward.rows_per_call"] = _ratio(
        sum(t.info[i] for i in forwards), len(forwards))
    out["codec.blocks_per_frame"] = _ratio(
        sum(t.info[i] for i in t.find("codec.chunk_blocks")), codec_frames)
    out["roi.empty_frustum_frames"] = sum(
        1 for i in t.find("roi.select_roi") if t.info[i] == 0)

    if frame_rows:
        cols = {name: i for i, name in enumerate(CSV_COLUMNS)}
        out["roi.keep_frac"] = _ratio(
            sum(r[cols["roi_points"]] for r in frame_rows),
            sum(r[cols["input_points"]] for r in frame_rows))
        out["cloud.nan_frames"] = sum(
            1 for r in frame_rows
            if not (math.isfinite(r[cols["cd"]])
                    and math.isfinite(r[cols["hd"]])))
    else:
        out["roi.keep_frac"] = 0.0
        out["cloud.nan_frames"] = 0

    trains = t.find("codec.train")
    epochs = sum(t.info[i] for i in trains)
    out["codec.train.ms_per_epoch"] = _ratio(t.dur[trains].sum() * ms, epochs)
    out["nn.forward.ms_per_epoch"] = _ratio(
        t.total("nn.forward", trains) * ms, epochs)
    out["nn.backward.ms_per_epoch"] = _ratio(
        t.total("nn.backward", trains) * ms, epochs)

    sched = t.find("scheduler.train_scheduler")
    steps = len(t.find("sim.env_step", sched))
    us = 1e6
    grads = t.find("scheduler.a3c_gradients")
    out["scheduler.a3c_gradients.ms_per_episode"] = _ratio(
        t.dur[grads].sum() * ms, len(grads))
    out["scheduler.policy.us_per_step"] = _ratio(
        t.total("scheduler.policy", sched) * us, steps)
    out["sim.env_step.us_per_step"] = _ratio(
        t.total("sim.env_step", sched) * us, steps)
    out["sim.transmit_time.us"] = timing(
        t.dur[t.find("sim.transmit_time")] * us)[0]

    children = t.parent >= 0
    child_time = np.bincount(t.parent[children], weights=t.dur[children],
                             minlength=len(t.dur))
    self_time = (t.dur[sessions] - child_time[sessions]).sum()
    out["sim.run_session.self_ms_per_frame"] = _ratio(self_time * ms, frames)

    setup = SpanTable(setup_spans)
    out["sim.generate_scene.s"] = _ratio(setup.total("sim.generate_scene"),
                                         setup_repeats)
    return out
