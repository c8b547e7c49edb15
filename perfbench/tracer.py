"""Span recording around pcvstream's public functions, for the traced run.

pcvstream's modules import their helpers by name, so a helper is patched in
the module that calls it (`pcvstream.sim.encode`, not `pcvstream.codec
.encode`). `traced` swaps every patch point for a recording wrapper and puts
the originals back when it exits, also on error. Spans stay in memory; the
run writes them out when it ends.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute or Class.attribute, span name)
PATCH_POINTS = (
    ("sim", "generate_scene", "sim.generate_scene"),
    ("sim", "run_session", "sim.run_session"),
    ("sim", "pipeline_fps", "sim.pipeline_fps"),
    ("sim", "transmit_time", "sim.transmit_time"),
    ("sim", "StreamingSchedulerEnv.step", "sim.env_step"),
    ("sim", "select_roi", "roi.select_roi"),
    ("roi", "coarse_select_details", "roi.coarse_select_details"),
    ("roi", "fine_select_details", "roi.fine_select_details"),
    ("roi", "frustum_cull", "roi.frustum_cull"),
    ("roi", "estimate_flow", "roi.estimate_flow"),
    ("roi", "texture_descriptor", "roi.texture_descriptor"),
    ("sim", "chunk_blocks", "codec.chunk_blocks"),
    ("sim", "encode", "codec.encode"),
    ("sim", "decode", "codec.decode"),
    ("sim", "octree_encode", "codec.octree_encode"),
    ("sim", "octree_decode", "codec.octree_decode"),
    ("codec", "train", "codec.train"),
    ("codec", "forward", "nn.forward"),
    ("codec", "backward", "nn.backward"),
    ("sim", "chamfer_distance", "cloud.chamfer_distance"),
    ("sim", "hausdorff_distance", "cloud.hausdorff_distance"),
    ("cloud", "nearest_distances", "cloud.nearest_distances"),
    ("scheduler", "train_scheduler", "scheduler.train_scheduler"),
    ("scheduler", "a3c_gradients", "scheduler.a3c_gradients"),
    ("scheduler", "ActorCritic.policy", "scheduler.policy"),
)

def _forward_rows(args, kwargs, out):
    return int(np.prod(np.shape(args[1])[:-1]))


# what a span keeps of its call, besides timing
INFO = {
    "sim.run_session": lambda a, k, out: (a[1], len(out.records)),
    "roi.select_roi": lambda a, k, out: out.frustum_points,
    "codec.chunk_blocks": lambda a, k, out: len(out[0]),
    "nn.forward": _forward_rows,
    "codec.train": lambda a, k, out: len(out),
    "scheduler.train_scheduler": lambda a, k, out: len(out.epochs),
}


def resolve(pcv, module, path):
    """(owner object, attribute name) of a patch point."""
    owner = getattr(pcv, module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans as [name, start, end, parent index, frame, info] rows.

    `frame` is the 1-based frame of the enclosing `run_session` call (the
    same numbering as FrameRecord.frame_idx): a session starts at frame 1
    and each `pipeline_fps` call, the last step of a frame, advances it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.frame = None

    def wrap(self, name, fn):
        spans, stack, info = self.spans, self._open, INFO.get(name)
        starts_session = name == "sim.run_session"
        ends_frame = name == "sim.pipeline_fps"

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.frame,
                    None]
            stack.append(len(spans))
            spans.append(span)
            if starts_session:
                self.frame = 1
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if starts_session:
                    self.frame = None
            if ends_frame and self.frame is not None:
                self.frame += 1
            if info is not None:
                span[5] = info(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent",
                             "frame", "info"])
            for i, (name, start, end, parent, frame, info) in \
                    enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent,
                                 "" if frame is None else frame,
                                 "" if info is None else info])


@contextmanager
def traced(pcv, tracer: Tracer):
    """Patch every point in PATCH_POINTS with tracer wrappers, then restore.

    Yields the list of (owner, attribute, original) that was patched.
    """
    saved = []
    try:
        for module, path, name in PATCH_POINTS:
            owner, attr = resolve(pcv, module, path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield saved
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
