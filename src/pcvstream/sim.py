"""Trace-driven streaming simulator: synthetic scenes, bandwidth traces,
device models, and the per-frame encode/transmit/decode timeline.

One session is strictly sequential and fully seeded, so identical inputs
produce byte-identical logs. Per-block codec costs come from a model
registry built offline (costs are measured once and persisted, never
re-measured inside a session).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cloud import Intrinsics, PointCloud, Pose, chamfer_hausdorff
# unused here; kept because the benchmark's tracer patches these names
from .cloud import chamfer_distance, hausdorff_distance  # noqa: F401
from .codec import (
    DTYPE_BITS, CodecModel, chunk_blocks, decode, denormalize_block,
    deserialize, encode, normalize_block, octree_decode, octree_encode,
)
from .roi import PoseHistory, RoiConfig, select_roi
from .scheduler import (
    F_TARGET, ActorCritic, RewardSpec, StateWindow, normalized_accuracy,
    reward, select_action, state_slot,
)

TRACE_PRESETS = {"3g": 2.0, "4g": 25.0, "wifi": 60.0, "5g": 100.0}
TRACE_INTERVAL_S = 0.5
TRACE_JITTER = 0.3
ENV_BLOCKS_MEAN = 120.0  # mean blocks per frame of the training environment

DEVICE_PRESETS = {  # CPU clocks 2.92/2.30/2.20 GHz normalized to device-3
    "device-1": 2.92 / 2.20,
    "device-2": 2.30 / 2.20,
    "device-3": 1.0,
}

LATENT_BYTES_PER_VALUE = 4          # f32 latents
BLOCK_HEADER_BYTES = 16             # centroid f32x3 + scale f32
OCTREE_ENCODE_S_PER_POINT = 2e-7    # fixed octree cost model (not measured)
OCTREE_DECODE_S_PER_POINT = 3e-7


@dataclass(frozen=True)
class NetworkTrace:
    """Piecewise-constant bandwidth curve (timestamps in seconds, Mbps)."""

    times: np.ndarray
    bandwidth_mbps: np.ndarray
    tag: str = "custom"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        b = np.asarray(self.bandwidth_mbps, dtype=np.float64)
        if len(t) == 0 or len(t) != len(b):
            raise ValueError("trace needs matching, non-empty columns")
        if not (np.isfinite(t).all() and np.isfinite(b).all()):
            raise ValueError("trace times and bandwidths must be finite")
        if np.any(np.diff(t) < 0):
            raise ValueError("trace timestamps must be non-decreasing")
        if np.any(b <= 0):
            raise ValueError("trace bandwidth must be positive")
        t.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "bandwidth_mbps", b)

    @classmethod
    def preset(cls, name: str, seed: int = 0) -> "NetworkTrace":
        """Seeded +/-30% fluctuation every 0.5 s for 120 s around the preset
        mean."""
        if name not in TRACE_PRESETS:
            raise ValueError(f"unknown preset '{name}'; "
                             f"choose from {sorted(TRACE_PRESETS)}")
        return cls.fluctuating(TRACE_PRESETS[name], seed=seed, tag=name)

    @classmethod
    def fluctuating(cls, mean_mbps: float, duration_s: float = 120.0,
                    seed: int = 0,
                    tag: str = "fluctuating") -> "NetworkTrace":
        rng = np.random.default_rng(seed)
        t = np.arange(0.0, duration_s, TRACE_INTERVAL_S)
        bw = mean_mbps * (1.0 + rng.uniform(-TRACE_JITTER, TRACE_JITTER,
                                            size=len(t)))
        return cls(t, bw, tag)

    def bandwidth_at(self, t: float) -> float:
        """Bandwidth of the segment containing t (last segment extends)."""
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.bandwidth_mbps[max(0, i)])


def transmit_time(payload_bytes: float, trace: NetworkTrace,
                  start_t: float = 0.0) -> float:
    """Seconds to push the payload through the piecewise-constant trace,
    starting at start_t. The final trace segment extends indefinitely."""
    if payload_bytes < 0:
        raise ValueError("payload must be non-negative")
    bits = payload_bytes * 8.0
    if bits == 0.0:
        return 0.0
    t = start_t
    while True:
        i = int(np.searchsorted(trace.times, t, side="right")) - 1
        rate = float(trace.bandwidth_mbps[max(0, i)]) * 1e6
        if i + 1 >= len(trace.times):
            return t - start_t + bits / rate
        seg_end = float(trace.times[i + 1])
        window = max(0.0, seg_end - t)
        capacity = rate * window
        if bits <= capacity:
            return t - start_t + bits / rate
        bits -= capacity
        t = seg_end


@dataclass(frozen=True)
class DeviceModel:
    name: str
    compute_scale: float

    def __post_init__(self):
        if not 0.0 < self.compute_scale < np.inf:
            raise ValueError("compute_scale must be finite and positive")

    @classmethod
    def preset(cls, name: str) -> "DeviceModel":
        if name not in DEVICE_PRESETS:
            raise ValueError(f"unknown device '{name}'; "
                             f"choose from {sorted(DEVICE_PRESETS)}")
        return cls(name, DEVICE_PRESETS[name])

    def decode_time(self, base_decode_s: float) -> float:
        return base_decode_s / self.compute_scale


# ---------------------------------------------------------------------------
# model registry

@dataclass
class RegistryEntry:
    model_id: str
    file: str
    latent_dim: int
    bits: int
    encode_cost_s: float   # per block, reference host
    decode_cost_s: float   # per block, reference host
    test_cd: float

    def __post_init__(self):
        # registry.json is outside input: a CD of 0 would divide by zero
        # in `accuracy_table`, a NaN cost would poison every frame time
        if not 0.0 < self.test_cd < np.inf:
            raise ValueError(f"model '{self.model_id}': test_cd must be "
                             f"finite and positive, got {self.test_cd}")
        for name in ("encode_cost_s", "decode_cost_s"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValueError(f"model '{self.model_id}': {name} must be "
                                 f"finite and non-negative, got {value}")

    def payload_per_block(self) -> int:
        return self.latent_dim * LATENT_BYTES_PER_VALUE + BLOCK_HEADER_BYTES

    def frame_costs(self, blocks: int,
                    device: DeviceModel) -> tuple[int, float, float]:
        """(payload bytes, encode s, decode s) of a frame of `blocks`
        blocks, decode scaled to the device."""
        return (blocks * self.payload_per_block(),
                blocks * self.encode_cost_s,
                device.decode_time(blocks * self.decode_cost_s))


class ModelRegistry:
    """Trained codec models plus their offline measurements."""

    # what registry.json holds per model
    STORED_FIELDS = ("file", "latent_dim", "bits", "encode_cost_s",
                     "decode_cost_s", "test_cd")

    def __init__(self, root, entries=None):
        self.root = Path(root)
        self.entries: dict[str, RegistryEntry] = dict(entries or {})
        self._cache: dict[str, CodecModel] = {}

    def add(self, entry: RegistryEntry) -> None:
        self.entries[entry.model_id] = entry

    def accuracy_table(self) -> dict:
        """Model id -> accuracy 1/CD scaled so the best model scores 1,
        derived from the stored test CDs on every call."""
        return normalized_accuracy(
            {k: e.test_cd for k, e in self.entries.items()})

    def model(self, model_id: str) -> CodecModel:
        """The entry's model file, loaded once. Raises ValueError when the
        file's latent size or bit width differs from the entry's, which
        sets the bytes charged per block."""
        if model_id not in self._cache:
            entry = self.entries[model_id]
            model = deserialize(self.root / entry.file)
            found = (model.latent_dim, DTYPE_BITS[model.dtype])
            if found != (entry.latent_dim, entry.bits):
                raise ValueError(
                    f"model '{model_id}': the registry entry has latent_dim "
                    f"{entry.latent_dim} and bits {entry.bits}, but "
                    f"{entry.file} holds latent_dim {found[0]} and bits "
                    f"{found[1]}")
            self._cache[model_id] = model
        return self._cache[model_id]

    def save(self) -> None:
        payload = {
            "models": {k: {f: getattr(e, f) for f in self.STORED_FIELDS}
                       for k, e in sorted(self.entries.items())},
        }
        with open(self.root / "registry.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, root) -> "ModelRegistry":
        root = Path(root)
        with open(root / "registry.json") as fh:
            payload = json.load(fh)
        entries = {k: RegistryEntry(k, **{f: v[f] for f in cls.STORED_FIELDS})
                   for k, v in payload["models"].items()}
        return cls(root, entries)


def measure_block_costs(model: CodecModel, repeats: int = 30,
                        seed: int = 0) -> tuple[float, float]:
    """Median encode/decode wall time of a one-block stack on this host.

    Run once when building a registry; sessions must read the stored
    numbers so that repeated runs stay byte-identical.
    """
    rng = np.random.default_rng(seed)
    block = normalize_block(rng.normal(size=(1, model.n_points, 3)))[0]
    latent = encode(model, block)
    enc_times, dec_times = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        encode(model, block)
        t1 = time.perf_counter()
        decode(model, latent)
        t2 = time.perf_counter()
        enc_times.append(t1 - t0)
        dec_times.append(t2 - t1)
    return float(np.median(enc_times)), float(np.median(dec_times))


# ---------------------------------------------------------------------------
# synthetic scenes

@dataclass
class Scene:
    frames: list            # PointCloud per frame
    subject_masks: list     # boolean array per frame (True = moving subject)
    poses: list             # camera Pose per frame
    intrinsics: Intrinsics


def _room_background(rng, points: int):
    """Floor plus two walls plus a few box obstacles, sampled uniformly."""
    width = rng.uniform(4.0, 6.0)
    depth = rng.uniform(4.0, 6.0)
    height = 2.5
    surfaces = [
        (np.array([0, 0, 0.0]), np.array([width, 0.05, depth])),   # floor
        (np.array([0, 0, 0.0]), np.array([width, height, 0.05])),  # back wall
        (np.array([0, 0, 0.0]), np.array([0.05, height, depth])),  # side wall
    ]
    for _ in range(int(rng.integers(2, 5))):  # furniture boxes
        size = rng.uniform([0.4, 0.4, 0.4], [1.2, 1.0, 1.2])
        corner = rng.uniform([0.3, 0.0, 0.3],
                             [width - 1.5, 0.0, depth - 1.5])
        surfaces.append((corner, size))
    areas = np.array([s[1][0] * s[1][2] + s[1][0] * s[1][1]
                      + s[1][1] * s[1][2] for s in surfaces])
    weights = areas / areas.sum()
    counts = rng.multinomial(points, weights)
    parts = []
    for (corner, size), cnt in zip(surfaces, counts):
        parts.append(corner + rng.uniform(0, 1, size=(cnt, 3)) * size)
    return np.concatenate(parts), width, depth


def _subject_blob(rng, points: int):
    """Articulated blob: body plus head plus two limbs, normalized scale."""
    segments = [
        (np.array([0.0, 0.9, 0.0]), np.array([0.18, 0.30, 0.12]), 0.50),
        (np.array([0.0, 1.35, 0.0]), np.array([0.09, 0.09, 0.09]), 0.15),
        (np.array([-0.22, 0.55, 0.0]), np.array([0.06, 0.35, 0.06]), 0.175),
        (np.array([0.22, 0.55, 0.0]), np.array([0.06, 0.35, 0.06]), 0.175),
    ]
    weights = np.array([s[2] for s in segments])
    counts = rng.multinomial(points, weights / weights.sum())
    parts = []
    for (center, radii, _), cnt in zip(segments, counts):
        parts.append(center + rng.normal(size=(cnt, 3)) * radii)
    return np.concatenate(parts)


def generate_scene(rooms: int = 5, frames: int = 100,
                   subject_points: int = 2000,
                   background_points: int = 18000, seed: int = 0) -> Scene:
    """Procedural rooms with one moving subject each; `frames` frames per
    room. Subject masks double as flow ground truth (background is static).
    """
    if frames < 2:
        raise ValueError("need at least 2 frames per room")
    rng = np.random.default_rng(seed)
    out = Scene([], [], [], Intrinsics(70.0, 1.6, 0.1, 60.0))
    frame_idx = 0
    for room in range(rooms):
        background, width, depth = _room_background(rng, background_points)
        subject = _subject_blob(rng, subject_points) \
            if subject_points > 0 else np.empty((0, 3))
        # smooth seeded path inside the room
        cx, cz = width / 2.0, depth / 2.0
        ax = rng.uniform(0.2 * width, 0.35 * width)
        az = rng.uniform(0.2 * depth, 0.35 * depth)
        w1 = rng.uniform(0.5, 1.5) * 2 * np.pi / max(frames, 1)
        phase = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(0.8, 1.2)
        cam_pos = np.array([cx, 1.5, -0.35 * depth])
        for f in range(frames):
            t = f * speed
            center = np.array([cx + ax * np.sin(w1 * t + phase), 0.0,
                               cz + az * np.sin(2 * w1 * t)])
            pts = background if len(subject) == 0 else \
                np.concatenate([background, subject + center])
            mask = np.zeros(len(pts), dtype=bool)
            mask[len(background):] = True
            out.frames.append(PointCloud(pts.astype(np.float32),
                                         frame_index=frame_idx))
            out.subject_masks.append(mask)
            # camera drifts laterally, always facing +z into the room
            cam = cam_pos + np.array([0.3 * np.sin(0.05 * f), 0.0, 0.0])
            out.poses.append(Pose(cam, (1.0, 0.0, 0.0, 0.0),
                                  float(frame_idx)))
            frame_idx += 1
    return out


# ---------------------------------------------------------------------------
# streaming sessions

@dataclass
class FrameRecord:
    frame_idx: int
    input_points: int
    roi_points: int
    payload_bytes: int
    encode_s: float
    transmit_s: float
    decode_s: float
    cd: float
    hd: float
    model_id: str
    bandwidth_mbps: float
    fps: float
    latency_s: float


CSV_COLUMNS = [f.name for f in fields(FrameRecord)]


@dataclass
class StreamSession:
    records: list
    config: dict

    def to_csv(self, path) -> None:
        """Session log; the first line is a '#' comment with the config."""
        with open(path, "w", newline="") as fh:
            fh.write("# config: " + json.dumps(self.config, sort_keys=True)
                     + "\n")
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in self.records:
                row = []
                for col in CSV_COLUMNS:
                    value = getattr(rec, col)
                    row.append(repr(value) if isinstance(value, float)
                               else value)
                writer.writerow(row)

def _parse_policy(policy: str):
    if policy == "drl":
        return "drl", None
    if policy.startswith("fixed:"):
        return "fixed", policy.split(":", 1)[1]
    if policy.startswith("octree:"):
        return "octree", int(policy.split(":", 1)[1])
    raise ValueError(f"unknown policy '{policy}'; expected 'drl', "
                     "'fixed:<model>', or 'octree:<depth>'")


def run_session(scene: Scene, policy: str, trace: NetworkTrace,
                device: DeviceModel, registry: ModelRegistry | None = None,
                policy_net: ActorCritic | None = None, roi: str = "on",
                seed: int = 0) -> StreamSession:
    """Stream every frame of a scene after the first through encode ->
    transmit -> decode, one frame at a time; cut the scene to stream fewer.

    Codec policies score CD/HD against the ROI selection (what was meant to
    be sent); the octree baseline scores against the full frame. Frame
    timing comes from `frame_timing`, shared with the scheduler's training
    environment.
    """
    kind, arg = _parse_policy(policy)
    if kind in ("drl", "fixed") and registry is None:
        raise ValueError("codec policies need a model registry")
    if kind == "drl":
        if policy_net is None:
            raise ValueError("the drl policy needs a trained policy net")
        missing = sorted(set(policy_net.actions) - set(registry.entries))
        if missing:
            raise ValueError(f"policy actions {missing} are not in the "
                             "registry")
    if roi not in ("on", "off"):
        raise ValueError("roi must be 'on' or 'off'")
    if len(scene.frames) < 2:  # frame 0 only seeds the flow estimator
        raise ValueError("a session needs a scene of at least 2 frames")
    roi_cfg = RoiConfig()

    records = []
    clock_encode_end = 0.0
    clock_send_end = 0.0
    if kind == "fixed":
        current_model = arg
        if current_model not in registry.entries:
            raise KeyError(f"model '{current_model}' not in registry")
    elif kind == "drl":  # start from the most accurate model
        accuracy = registry.accuracy_table()
        current_model = max(accuracy, key=accuracy.get)
        window = StateWindow(policy_net.k)
    else:
        current_model = None

    for t in range(1, len(scene.frames)):  # frame 0 seeds the flow estimator
        frame = scene.frames[t]
        prev = scene.frames[t - 1]
        frame_seed = seed * 100003 + t
        if kind == "drl" and records:  # decide from the frames so far
            current_model = policy_net.actions[
                select_action(policy_net, window.state())]

        if roi == "on":
            history = PoseHistory(scene.poses[t - 1:t + 1])
            result = select_roi(frame, prev, history, roi_cfg,
                                scene.intrinsics, frame_seed)
            roi_cloud = result.cloud
        else:
            roi_cloud = frame

        if kind == "octree":
            ground_truth = frame
            stream = octree_encode(roi_cloud, arg)
            payload = len(stream)
            decoded = octree_decode(stream).points.astype(np.float64)
            encode_s = len(roi_cloud) * OCTREE_ENCODE_S_PER_POINT
            decode_s = device.decode_time(
                len(decoded) * OCTREE_DECODE_S_PER_POINT)
            model_id = f"octree:{arg}"
        else:
            ground_truth = roi_cloud
            model = registry.model(current_model)
            blocks, _ = chunk_blocks(roi_cloud.points, model.n_points)
            if len(blocks):
                norm, centroid, scale = normalize_block(blocks)
                rebuilt = decode(model, encode(model, norm))
                decoded = denormalize_block(rebuilt, centroid,
                                            scale).reshape(-1, 3)
            else:
                decoded = np.empty((0, 3))
            payload, encode_s, decode_s = \
                registry.entries[current_model].frame_costs(len(blocks),
                                                            device)
            model_id = current_model

        if len(decoded) and len(ground_truth):
            cd, hd = chamfer_hausdorff(decoded, ground_truth.points)
        else:
            cd = hd = float("nan")

        clock_encode_end += encode_s
        send_start = max(clock_send_end, clock_encode_end)
        transmit_s, bandwidth, fps = frame_timing(payload, encode_s, decode_s,
                                                  trace, send_start)
        clock_send_end = send_start + transmit_s
        records.append(FrameRecord(
            frame_idx=t, input_points=len(frame), roi_points=len(roi_cloud),
            payload_bytes=int(payload), encode_s=encode_s,
            transmit_s=transmit_s, decode_s=decode_s, cd=cd, hd=hd,
            model_id=model_id, bandwidth_mbps=bandwidth, fps=fps,
            latency_s=encode_s + transmit_s + decode_s))
        if kind == "drl":
            window.push(state_slot(len(frame), len(roi_cloud), decode_s,
                                   bandwidth))

    config = {"policy": policy, "roi": roi, "trace": trace.tag,
              "device": device.name, "seed": seed,
              "frames": len(scene.frames) - 1, "roi_cfg": vars(roi_cfg)}
    return StreamSession(records, config)


def frame_timing(payload: int, encode_s: float, decode_s: float,
                 trace: NetworkTrace,
                 send_start: float) -> tuple[float, float, float]:
    """(transmit s, effective bandwidth Mbps, fps) of one frame whose
    payload starts sending at send_start.

    An empty payload reports the trace bandwidth at send_start. This is the
    one timing model of both sessions and scheduler training.
    """
    transmit_s = transmit_time(payload, trace, send_start)
    bandwidth = payload * 8.0 / transmit_s / 1e6 if transmit_s > 0 \
        else trace.bandwidth_at(send_start)
    return transmit_s, bandwidth, pipeline_fps(encode_s, transmit_s, decode_s)


def pipeline_fps(encode_s: float, transmit_s: float, decode_s: float) -> float:
    """Three-stage pipeline throughput: the slowest stage sets the rate.

    A function of its own because the benchmark's tracer counts a frame as
    ended at each call: every streamed frame calls it exactly once.
    """
    bottleneck = max(encode_s, transmit_s, decode_s)
    return 1.0 / bottleneck if bottleneck > 0 else float("inf")


# ---------------------------------------------------------------------------
# scheduler training environment

class StreamingSchedulerEnv:
    """Lightweight frame-timing environment for scheduler training.

    Charges each frame with the session timing model (`frame_costs`, then
    `frame_timing`) and scores it with `scheduler.reward`, without
    geometry, so episodes are cheap. Each episode draws a fresh seeded
    trace around the configured mean and a fresh ROI-size profile. Each
    charged frame is pushed to a `scheduler.StateWindow`, as sessions push
    theirs, and `reset` and `step` return its read-only (3k,) state.
    """

    def __init__(self, registry: ModelRegistry, device: DeviceModel,
                 mean_bandwidth_mbps: float = 25.0, episode_len: int = 64,
                 k: int = 8):
        if episode_len < 1:
            raise ValueError("episode_len must be >= 1")
        self.entries = [registry.entries[k] for k in sorted(registry.entries)]
        self.actions = tuple(sorted(registry.entries))
        self.device = device
        self.mean_bw = mean_bandwidth_mbps
        self.spec = RewardSpec(accuracy_table=registry.accuracy_table())
        self.episode_len = episode_len
        self.k = k
        self._window = StateWindow(k)  # raises on k < 1
        self._trace = None
        self._t = 0.0
        self._left = 0
        self._rng = None

    def _blocks(self):
        return max(1, int(self._rng.normal(ENV_BLOCKS_MEAN,
                                           0.15 * ENV_BLOCKS_MEAN)))

    def reset(self, rng) -> np.ndarray:
        self._rng = rng
        self._trace = NetworkTrace.fluctuating(
            self.mean_bw, duration_s=(self.episode_len + 2) / 8.0,
            seed=int(rng.integers(2 ** 31)))
        self._window = StateWindow(self.k)
        self._t = 0.0
        self._left = self.episode_len
        return self._window.state()

    def step(self, action: int):
        if not 0 <= action < len(self.entries):
            raise ValueError(f"action {action} is outside "
                             f"[0, {len(self.entries)})")
        entry = self.entries[action]
        blocks = self._blocks()
        payload, encode_s, decode_s = entry.frame_costs(blocks, self.device)
        transmit_s, bandwidth, fps = frame_timing(payload, encode_s, decode_s,
                                                  self._trace, self._t)
        # every block is streamed: the ROI share of the points is 1
        self._window.push(state_slot(blocks, blocks, decode_s, bandwidth))
        self._t += max(transmit_s, 1.0 / F_TARGET)
        self._left -= 1
        return (self._window.state(), reward(fps, entry.model_id, self.spec),
                self._left <= 0)
