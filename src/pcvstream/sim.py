"""Trace-driven streaming simulator: synthetic scenes, bandwidth traces,
device models, and the per-frame encode/transmit/decode timeline.

A session is two steps. `scene_geometry` yields one `FrameGeometry` per
frame: the ROI selection and, per model, one round trip's payload, costs
and CD/HD. Codec models are scored against the ROI selection, the octree
baseline against the full frame. `replay` then builds the session records
from those counts and trip results alone, under one policy, trace and
device: the scheduler decision, the device's decode scaling and the clocks.
So one geometry pass serves any number of replays.

One session is strictly sequential and fully seeded, so identical inputs
produce byte-identical logs. Per-block codec costs are read from the model
registry (`registry.json`), never measured inside a session. A generated
scene keeps the state of its rooms and builds each frame and camera pose
when it is read, so a session holds the frames it streams, not the video.
"""

from __future__ import annotations

import csv
import json
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ._util import check_count, check_positive
from .cloud import Camera, Intrinsics, PointCloud, Pose, chamfer_hausdorff
# unused here; kept because the benchmark's tracer patches these names
from .cloud import chamfer_distance, hausdorff_distance  # noqa: F401
from .codec import (
    DTYPE_BITS, OCTREE_MAX_DEPTH, CodecModel, chunk_blocks, decode,
    denormalize_block, deserialize, encode, normalize_block, octree_decode,
    octree_encode,
)
from .roi import RoiConfig, predict_pose, select_roi
from .scheduler import (
    DEFAULT_WINDOW, F_TARGET, ActorCritic, StateWindow, normalized_accuracy,
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
        # sessions and the scheduler's environment start their clocks at 0,
        # and no rate is defined before the first timestamp
        if t[0] != 0.0:
            raise ValueError(f"trace times must start at 0, got {t[0]}")
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
        check_positive("duration_s", duration_s)
        rng = np.random.default_rng(seed)
        t = np.arange(0.0, duration_s, TRACE_INTERVAL_S)
        bw = mean_mbps * (1.0 + rng.uniform(-TRACE_JITTER, TRACE_JITTER,
                                            size=len(t)))
        return cls(t, bw, tag)

    def segment(self, t: float) -> int:
        """Index of the segment holding t; t < 0 or NaN raises ValueError."""
        if not t >= 0.0:
            raise ValueError(f"trace time must be >= 0, got {t}")
        return int(np.searchsorted(self.times, t, side="right")) - 1

    def bandwidth_at(self, t: float) -> float:
        """Bandwidth of the segment containing t (last segment extends)."""
        return float(self.bandwidth_mbps[self.segment(t)])


def transmit_time(payload_bytes: float, trace: NetworkTrace,
                  start_t: float = 0.0) -> float:
    """Seconds to push the payload through the piecewise-constant trace,
    starting at start_t. The final trace segment extends indefinitely."""
    if payload_bytes < 0:
        raise ValueError("payload must be non-negative")
    bits = payload_bytes * 8.0
    t = start_t
    for i in range(trace.segment(start_t), len(trace.times) - 1):
        rate = float(trace.bandwidth_mbps[i]) * 1e6
        seg_end = float(trace.times[i + 1])
        capacity = rate * (seg_end - t)
        if bits <= capacity:
            return t - start_t + bits / rate
        bits, t = bits - capacity, seg_end
    return t - start_t + bits / (float(trace.bandwidth_mbps[-1]) * 1e6)


@dataclass(frozen=True)
class DeviceModel:
    name: str
    compute_scale: float

    def __post_init__(self):
        check_positive("compute_scale", self.compute_scale)

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
        # in `accuracy_table`, a NaN cost would poison every frame time,
        # a latent of 0 would charge a block its header only
        where = f"model '{self.model_id}': "
        if not isinstance(self.file, str):
            raise ValueError(f"{where}file must be a string, "
                             f"got {self.file!r}")
        # the registry opens root / file, which must stay under root
        file = Path(self.file)
        if file.is_absolute() or ".." in file.parts:
            raise ValueError(f"{where}file must be a relative path "
                             f"without '..', got {self.file!r}")
        check_count(where + "latent_dim", self.latent_dim)
        check_count(where + "bits", self.bits)
        if self.bits not in DTYPE_BITS.values():
            raise ValueError(f"{where}bits must be one of "
                             f"{sorted(DTYPE_BITS.values())}, got {self.bits}")
        check_positive(where + "test_cd", self.test_cd)
        for name in ("encode_cost_s", "decode_cost_s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{where}{name} must be a real number, "
                                 f"got {value!r}")
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{where}{name} must be finite and "
                                 f"non-negative, got {value}")

    def payload_per_block(self) -> int:
        return self.latent_dim * LATENT_BYTES_PER_VALUE + BLOCK_HEADER_BYTES

    def frame_costs(self, blocks: int) -> tuple[int, float, float]:
        """(payload bytes, encode s, decode s) of a frame of `blocks`
        blocks on the reference host; a timeline scales decode to its
        device."""
        return (blocks * self.payload_per_block(),
                blocks * self.encode_cost_s, blocks * self.decode_cost_s)


class ModelRegistry:
    """Trained codec models plus their offline measurements."""

    # what registry.json holds per model
    STORED_FIELDS = ("file", "latent_dim", "bits", "encode_cost_s",
                     "decode_cost_s", "test_cd")

    def __init__(self, root, entries=None):
        self.root = Path(root)
        self.entries: dict[str, RegistryEntry] = dict(entries or {})
        self._loaded: tuple[str, CodecModel] | None = None

    def add(self, entry: RegistryEntry) -> None:
        self.entries[entry.model_id] = entry

    def accuracy_table(self) -> dict:
        """Model id -> accuracy 1/CD scaled so the best model scores 1,
        derived from the stored test CDs on every call."""
        return normalized_accuracy(
            {k: e.test_cd for k, e in self.entries.items()})

    def model(self, model_id: str) -> CodecModel:
        """The entry's model, loaded from its file. Only the model served
        last stays resident: asking for another id reloads and re-checks
        that id's file, then drops the model held before. Raises ValueError
        when the file's latent size or bit width differs from the entry's,
        which sets the bytes charged per block."""
        if self._loaded is None or self._loaded[0] != model_id:
            entry = self.entries[model_id]
            model = deserialize(self.root / entry.file)
            found = (model.latent_dim, DTYPE_BITS[model.dtype])
            if found != (entry.latent_dim, entry.bits):
                raise ValueError(
                    f"model '{model_id}': the registry entry has latent_dim "
                    f"{entry.latent_dim} and bits {entry.bits}, but "
                    f"{entry.file} holds latent_dim {found[0]} and bits "
                    f"{found[1]}")
            self._loaded = (model_id, model)
        return self._loaded[1]

    def save(self) -> None:
        payload = {
            "models": {k: {f: getattr(e, f) for f in self.STORED_FIELDS}
                       for k, e in sorted(self.entries.items())},
        }
        with open(self.root / "registry.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, root) -> "ModelRegistry":
        """Read root/registry.json. A malformed entry raises ValueError
        naming the model and the field; keys past STORED_FIELDS are
        ignored."""
        root = Path(root)
        with open(root / "registry.json") as fh:
            payload = json.load(fh)
        models = payload.get("models") if isinstance(payload, dict) else None
        if not isinstance(models, dict):
            raise ValueError("registry.json must hold a 'models' object")
        entries = {}
        for model_id, stored in models.items():
            if not isinstance(stored, dict):
                raise ValueError(f"model '{model_id}': entry must be an "
                                 f"object, got {stored!r}")
            missing = [f for f in cls.STORED_FIELDS if f not in stored]
            if missing:
                raise ValueError(f"model '{model_id}': missing "
                                 f"{', '.join(missing)}")
            entries[model_id] = RegistryEntry(
                model_id, **{f: stored[f] for f in cls.STORED_FIELDS})
        return cls(root, entries)


# ---------------------------------------------------------------------------
# synthetic scenes

class LazySequence(Sequence):
    """Read-only sequence of n items whose item i is `build(i)`, built anew
    on every read. Indices work as on a list. A slice is a LazySequence
    over the picked indices of `build`, as slicing a range gives a range.

    It keeps `build` and a range, never an item: what stays resident is
    whatever `build` holds, for a slice too."""

    def __init__(self, n: int, build):
        self._indices = range(n)
        self._build = build

    def __len__(self):
        return len(self._indices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            cut = LazySequence(0, self._build)
            cut._indices = self._indices[index]
            return cut
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError(f"index {index} is out of range for "
                             f"{len(self)} items")
        return self._build(self._indices[i])


@dataclass
class Scene:
    """Point cloud video with its ground truth and its viewer.

    `frames` and `poses` are lists or any sequence. From `generate_scene`
    they are `LazySequence`s that build a frame's float32 points, or a
    camera pose, each time it is read, and the frames of a room share one
    read-only subject mask. What a scene keeps resident is then its rooms'
    state and its masks, not its frames, also when it is built from slices
    of another scene's sequences: `Scene(scene.frames[:k], ...)` keeps
    every room of `scene`, and builds none of its k frames until read.
    """

    frames: Sequence        # PointCloud per frame, float32 points
    subject_masks: list     # read-only boolean array per frame (True =
                            # moving subject), one array per room
    poses: Sequence         # camera Pose per frame
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

    The scene keeps each room's state, drawn here: its background, cast
    once to float32, its subject and its seeded paths, about 264 KB for a
    room of the default sizes, plus one mask per room. Frames and poses
    draw nothing and are built each time they are read: a frame's points
    are written once, as float32, into the array its PointCloud keeps, the
    subject moved to its centre, summed in float64 and rounded once. The
    frames of a room share one read-only subject mask.

    Raises ValueError naming the argument, before drawing anything, when a
    count is not an integer (a bool included), when rooms < 1, frames < 2
    or a point count is negative, or when a frame would hold no points.
    """
    for name, value, low in (("rooms", rooms, 1), ("frames", frames, 2),
                             ("subject_points", subject_points, 0),
                             ("background_points", background_points, 0)):
        check_count(name, value, low)
    if subject_points + background_points == 0:
        raise ValueError("subject_points + background_points must be >= 1: "
                         "a frame needs a point")
    rng = np.random.default_rng(seed)
    rooms_state, masks = [], []
    for _ in range(rooms):
        background, width, depth = _room_background(rng, background_points)
        background = background.astype(np.float32)
        subject = _subject_blob(rng, subject_points) \
            if subject_points > 0 else np.empty((0, 3))
        n_bg = len(background)
        mask = np.zeros(n_bg + len(subject), dtype=bool)
        mask[n_bg:] = True
        mask.flags.writeable = False
        masks += [mask] * frames
        # smooth seeded path inside the room
        cx, cz = width / 2.0, depth / 2.0
        ax = rng.uniform(0.2 * width, 0.35 * width)
        az = rng.uniform(0.2 * depth, 0.35 * depth)
        w1 = rng.uniform(0.5, 1.5) * 2 * np.pi / frames
        phase = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(0.8, 1.2)
        cam_pos = np.array([cx, 1.5, -0.35 * depth])
        rooms_state.append((background, subject,
                            (cx, cz, ax, az, w1, phase, speed), cam_pos))

    def frame(i):
        room, f = divmod(i, frames)
        background, subject, (cx, cz, ax, az, w1, phase, speed), _ = \
            rooms_state[room]
        t = f * speed
        center = np.array([cx + ax * np.sin(w1 * t + phase), 0.0,
                           cz + az * np.sin(2 * w1 * t)])
        n_bg = len(background)
        pts = np.empty((n_bg + len(subject), 3), dtype=np.float32)
        pts[:n_bg] = background
        np.add(subject, center, out=pts[n_bg:], casting="same_kind")
        return PointCloud(pts, frame_index=i)

    def pose(i):
        room, f = divmod(i, frames)
        # camera drifts laterally, always facing +z into the room
        cam = rooms_state[room][3] + np.array([0.3 * np.sin(0.05 * f), 0.0,
                                               0.0])
        return Pose(cam, (1.0, 0.0, 0.0, 0.0), float(i))

    return Scene(LazySequence(len(masks), frame), masks,
                 LazySequence(len(masks), pose),
                 Intrinsics(70.0, 1.6, 0.1, 60.0))


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


def _parse_policy(policy: str, registry, policy_net) -> str | None:
    """The trip id a fixed policy streams every frame, a registry id or
    `octree:<depth>`, or None for `drl`. Raises ValueError when the policy
    is malformed or lacks the registry, the policy net or a model it names.
    """
    if (policy == "drl" or policy.startswith("fixed:")) and registry is None:
        raise ValueError("codec policies need a model registry")
    if policy == "drl":
        if policy_net is None:
            raise ValueError("the drl policy needs a trained policy net")
        missing = sorted(set(policy_net.actions) - set(registry.entries))
        if missing:
            raise ValueError(f"policy actions {missing} are not in the "
                             "registry")
        return None
    arg = policy.partition(":")[2]
    if policy.startswith("fixed:"):
        if arg not in registry.entries:
            raise ValueError(f"model '{arg}' is not in the registry, which "
                             f"holds {sorted(registry.entries)}")
        return arg
    if policy.startswith("octree:") and arg.isdecimal() \
            and 1 <= int(arg) <= OCTREE_MAX_DEPTH:
        return f"octree:{int(arg)}"
    raise ValueError(f"policy '{policy}' is not 'drl', 'fixed:<model>' or "
                     "'octree:<depth>' with an integer depth in "
                     f"[1, {OCTREE_MAX_DEPTH}]")


class FrameGeometry:
    """The geometry of one streamed frame: the full frame, the cloud that is
    streamed of it (`roi`: the ROI selection, or the frame itself with ROI
    off) and, per model, the outcome of one round trip.

    Nothing here depends on a policy, a trace or a device, so one geometry
    serves any number of replays. Round trips run when `trip` first asks
    for a model, so a frame pays only for the models a replay picks.
    """

    def __init__(self, frame: PointCloud, roi: PointCloud, registry=None):
        self.frame, self.roi, self.registry = frame, roi, registry
        self._trips: dict[str, tuple] = {}

    def trip(self, model_id: str) -> tuple[int, float, float, float, float]:
        """(payload bytes, encode s, reference-device decode s, CD, HD) of
        the streamed cloud through `model_id`, computed once per id. No
        decoded point is kept.

        A registry id cuts the cloud into blocks, round-trips them through
        its model and charges the entry's `frame_costs`; CD and HD are
        scored against the streamed cloud, what was meant to be sent.
        `octree:<depth>` sends the cloud's octree stream, charged per point;
        it is scored against the full frame. CD and HD are NaN when the
        decode or its reference is empty.
        """
        if model_id not in self._trips:
            if model_id.startswith("octree:"):
                stream = octree_encode(self.roi, int(model_id.split(":")[1]))
                decoded = octree_decode(stream).points.astype(np.float64)
                costs = (len(stream),
                         len(self.roi) * OCTREE_ENCODE_S_PER_POINT,
                         len(decoded) * OCTREE_DECODE_S_PER_POINT)
                truth = self.frame
            else:
                model = self.registry.model(model_id)
                blocks, _ = chunk_blocks(self.roi.points, model.n_points)
                decoded = np.empty((0, 3))
                if len(blocks):
                    norm, centroid, scale = normalize_block(blocks)
                    rebuilt = decode(model, encode(model, norm))
                    decoded = denormalize_block(rebuilt, centroid,
                                                scale).reshape(-1, 3)
                costs = self.registry.entries[model_id].frame_costs(
                    len(blocks))
                truth = self.roi
            quality = chamfer_hausdorff(decoded, truth.points) \
                if len(decoded) and len(truth) else (np.nan, np.nan)
            self._trips[model_id] = (*costs, *quality)
        return self._trips[model_id]


def scene_geometry(scene: Scene, roi: str = "on",
                   registry: ModelRegistry | None = None, seed: int = 0):
    """Generator of one FrameGeometry per frame of the scene after the
    first, each built when it is reached, so that a reader that drops the
    last one holds one frame at a time. Frame 0 only seeds the flow
    estimator; each frame and pose is read once.

    With ROI on, frame t is culled to the camera that `predict_pose`
    extrapolates from poses t-1 and t, and `select_roi` draws with seed
    `seed * 100003 + t`. The first read raises ValueError, before it reads
    a frame, when roi is not 'on' or 'off' or the scene has fewer than 2
    frames or not one pose per frame.
    """
    if roi not in ("on", "off"):
        raise ValueError("roi must be 'on' or 'off'")
    if len(scene.frames) < 2:
        raise ValueError("a session needs a scene of at least 2 frames")
    if len(scene.poses) != len(scene.frames):
        raise ValueError(f"a scene of {len(scene.frames)} frames needs one "
                         f"pose per frame, got {len(scene.poses)} poses")
    roi_cfg = RoiConfig()
    prev, prev_pose = scene.frames[0], scene.poses[0]
    for t in range(1, len(scene.frames)):
        frame, pose = scene.frames[t], scene.poses[t]
        streamed = frame
        if roi == "on":
            camera = Camera(predict_pose(prev_pose, pose), scene.intrinsics)
            streamed = select_roi(frame, prev, camera, roi_cfg,
                                  seed * 100003 + t).cloud
        yield FrameGeometry(frame, streamed, registry)
        prev, prev_pose = frame, pose


def replay(geometry, policy: str, trace: NetworkTrace, device: DeviceModel,
           registry: ModelRegistry | None = None,
           policy_net: ActorCritic | None = None) -> list[FrameRecord]:
    """The FrameRecords of streaming `geometry` under one policy, trace and
    device. `geometry` is read once, in order; its items are FrameGeometry
    records (or anything with `frame`, `roi` and `trip`), and item i is
    recorded as frame i + 1, the numbering of `scene_geometry`.

    The replay reads counts and `trip` results only, never a point. A
    `fixed:` or `octree:` policy trips every frame through its one model;
    `drl` starts from the most accurate model and then picks greedily from
    the state window of the frames before. The device scales each trip's
    reference decode time. The encoder runs frames back to back, a frame
    starts sending once it is encoded and the link is free, and
    `frame_timing` charges the rest. Raises ValueError, before it reads a
    geometry, when the policy cannot run.
    """
    fixed = _parse_policy(policy, registry, policy_net)
    model_id = fixed
    if fixed is None:  # drl: start from the most accurate model
        accuracy = registry.accuracy_table()
        model_id = max(accuracy, key=accuracy.get)
        window = StateWindow(policy_net.k)
    records = []
    clock_encode_end = clock_send_end = 0.0
    for t, geo in enumerate(geometry, start=1):
        if fixed is None and records:  # decide from the frames so far
            model_id = policy_net.actions[
                select_action(policy_net, window.state())]
        payload, encode_s, reference_decode_s, cd, hd = geo.trip(model_id)
        decode_s = device.decode_time(reference_decode_s)
        clock_encode_end += encode_s
        send_start = max(clock_send_end, clock_encode_end)
        transmit_s, bandwidth, fps = frame_timing(payload, encode_s, decode_s,
                                                  trace, send_start)
        clock_send_end = send_start + transmit_s
        records.append(FrameRecord(
            frame_idx=t, input_points=len(geo.frame),
            roi_points=len(geo.roi), payload_bytes=payload,
            encode_s=encode_s, transmit_s=transmit_s, decode_s=decode_s,
            cd=cd, hd=hd, model_id=model_id, bandwidth_mbps=bandwidth,
            fps=fps, latency_s=encode_s + transmit_s + decode_s))
        if fixed is None:
            window.push(state_slot(len(geo.frame), len(geo.roi), decode_s,
                                   bandwidth))
    return records


def run_session(scene: Scene, policy: str, trace: NetworkTrace,
                device: DeviceModel, registry: ModelRegistry | None = None,
                policy_net: ActorCritic | None = None, roi: str = "on",
                seed: int = 0) -> StreamSession:
    """Stream every frame of a scene after the first through encode ->
    transmit -> decode, one frame at a time; cut the scene to stream fewer.

    A session is a geometry pass and a replay over its counts:
    `scene_geometry` yields each frame's FrameGeometry (ROI selection and
    round trips), and `replay` turns them into records under the policy,
    trace and device. Codec policies score CD/HD against the ROI selection
    (what was meant to be sent); the octree baseline scores against the
    full frame. Frame timing comes from `frame_timing`, shared with the
    scheduler's training environment.
    """
    records = replay(scene_geometry(scene, roi, registry, seed), policy,
                     trace, device, registry, policy_net)
    config = {"policy": policy, "roi": roi, "trace": trace.tag,
              "device": device.name, "seed": seed,
              "frames": len(scene.frames) - 1, "roi_cfg": vars(RoiConfig())}
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

    Each step charges one frame without geometry, so episodes are cheap:
    a block count drawn from N(ENV_BLOCKS_MEAN, 0.15 * ENV_BLOCKS_MEAN),
    at least 1, costed by `frame_costs`, decode scaled to the device, and
    `frame_timing`, and scored by `scheduler.reward`. Each episode draws a
    fresh seeded trace around the configured mean. Unlike a session, it
    pushes an ROI share of 1.0, since every block is streamed (ROADMAP.md
    item 3), and its clock advances by max(transmit, 1 / F_TARGET) per
    frame, with no encode stage and no send queue (item 19). Each charged
    frame is pushed to a `scheduler.StateWindow`, as sessions push theirs,
    and `reset` and `step` return its read-only (3k,) state.
    """

    def __init__(self, registry: ModelRegistry, device: DeviceModel,
                 mean_bandwidth_mbps: float = 25.0, episode_len: int = 64,
                 k: int = DEFAULT_WINDOW):
        check_count("episode_len", episode_len)
        self.entries = [registry.entries[k] for k in sorted(registry.entries)]
        self.actions = tuple(sorted(registry.entries))
        self.device = device
        self.mean_bw = mean_bandwidth_mbps
        self.accuracy = registry.accuracy_table()
        self.episode_len = episode_len
        self.k = k
        self._window = StateWindow(k)  # checks k
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
        if self._rng is None:
            raise RuntimeError("the environment needs a reset before step")
        if not 0 <= action < len(self.entries):
            raise ValueError(f"action {action} is outside "
                             f"[0, {len(self.entries)})")
        entry = self.entries[action]
        blocks = self._blocks()
        payload, encode_s, decode_s = entry.frame_costs(blocks)
        decode_s = self.device.decode_time(decode_s)
        transmit_s, bandwidth, fps = frame_timing(payload, encode_s, decode_s,
                                                  self._trace, self._t)
        # every block is streamed: the ROI share of the points is 1
        self._window.push(state_slot(blocks, blocks, decode_s, bandwidth))
        self._t += max(transmit_s, 1.0 / F_TARGET)
        self._left -= 1
        return (self._window.state(),
                reward(fps, self.accuracy[entry.model_id]), self._left <= 0)
