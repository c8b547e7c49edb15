"""The benchmark's three workloads and the inputs they generate.

Every input is derived from the workload seed; pcvstream receives only the
generated scenes, traces, datasets and model registry. pcvstream functions
are always looked up through their module (`sim.run_session(...)`) so that
the traced run's patches apply.

A workload is a set of phases, one per throughput metric, and a cycle of
units. Each unit is one timed call of one phase (the sessions on one scene,
or one training run), repeated identically on every pass of the cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pcvstream import codec, scheduler, sim

BLOCK_POINTS = 128
DEVICE = "device-3"
TRACE_PRESET = "4g"
REFERENCE_SEED = 2210  # seed of the runs the committed reference records

# model id -> (latent size, bits, encode s/block, decode s/block, test CD).
# Weights are seeded `make_codec_model` draws (seed = latent size),
# quantized to `bits`; no training is involved, so a change to the training
# code cannot change what the stream workloads compute. The per-block costs
# are pinned so the simulated timeline does not depend on the host: they are
# `measure_block_costs` medians of these models on a 2-CPU x86-64 host with
# one BLAS thread, rounded. Test CDs are pinned too, ordered so that a larger
# latent or a wider code counts as more accurate; they only set the
# scheduler's accuracy table.
REGISTRY = {
    "4x4-q8": (16, 8, 1.1e-4, 6.0e-5, 0.060),
    "4x4-q16": (16, 16, 1.1e-4, 6.0e-5, 0.058),
    "8x8-q8": (64, 8, 1.6e-4, 6.5e-5, 0.045),
    "8x8-q16": (64, 16, 1.6e-4, 6.5e-5, 0.044),
    "16x16-q8": (256, 8, 2.3e-4, 7.0e-5, 0.035),
    "16x16-q16": (256, 16, 2.3e-4, 7.0e-5, 0.034),
}

# stream workloads: SCENES one-room scenes, STREAMED_FRAMES frames of each.
# Many short scenes rather than a few long ones: each scene brings its own
# room and bandwidth trace, and a session of a few frames sees only the
# trace's first 0.5 s segment, so the metrics vary with the number of scenes.
SCENES = 32
STREAMED_FRAMES = 1
REFERENCE_FRAMES = 2  # enough for the drl policy to pick a second model
ROOM_FRAMES = 24  # generate_scene sets the subject's speed from this length
CODEC_POLICY = "fixed:16x16-q8"
OCTREE_POLICY = "octree:10"

# train workload
CODEC_LATENT = 64
CODEC_SAMPLES = 32
CODEC_EPOCHS = 4
SCHED_WORKERS = 2
SCHED_EPOCHS = 16
SCHED_EPISODE = 64
REWARD_TAIL_EPOCHS = 4  # sched_reward_final averages these last epochs
TRAIN_RUNS = 4  # seeds cycled through by each training phase


@dataclass
class Unit:
    """Result of one timed call."""

    work: float       # what the phase's throughput counts
    seconds: float
    rows: list        # one row per operation: a frame or an epoch


def derive_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in
            np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=count)]


def make_scene(seed: int, streamed: int = STREAMED_FRAMES) -> sim.Scene:
    """One room, cut to the frames a session streams plus the flow seed
    frame."""
    scene = sim.generate_scene(rooms=1, frames=ROOM_FRAMES, seed=seed)
    keep = streamed + 1
    return sim.Scene(scene.frames[:keep], scene.subject_masks[:keep],
                     scene.poses[:keep], scene.intrinsics)


def _quantize(model: codec.CodecModel, bits: int) -> None:
    """Per-layer affine quantization, as `lightweight_train` finishes."""
    metas = []
    for layer in model.dense_layers():
        params = np.concatenate([layer.weights.ravel(), layer.bias])
        codes, meta = codec.quantize_weights(params, bits)
        meta["codes"] = codes
        restored = codec.dequantize(codes, meta)
        n_weights = layer.weights.size
        layer.weights = restored[:n_weights].reshape(layer.weights.shape)
        layer.bias = restored[n_weights:]
        metas.append(meta)
    model.quant_meta = metas
    model.dtype = f"q{bits}"


def build_registry(root: Path) -> sim.ModelRegistry:
    """Write the pinned registry under `root` and load it back, models
    included."""
    registry = sim.ModelRegistry(root)
    for model_id, (latent, bits, enc_s, dec_s, test_cd) in REGISTRY.items():
        model = codec.make_codec_model(latent, BLOCK_POINTS, seed=latent)
        _quantize(model, bits)
        filename = f"{model_id}.iscm"
        codec.serialize(model, root / filename)
        registry.add(sim.RegistryEntry(model_id, filename, latent, bits,
                                       enc_s, dec_s, test_cd))
    registry.save()
    registry = sim.ModelRegistry.load(root)
    for model_id in registry.entries:
        registry.model(model_id)
    return registry


def session_rows(session: sim.StreamSession) -> list[list]:
    return [[getattr(rec, col) for col in sim.CSV_COLUMNS]
            for rec in session.records]


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


class StreamWorkload:
    """Closed-loop streaming: each unit streams one scene with every policy
    of the workload, back to back."""

    phases = ("frames_per_s",)
    streams = True
    cycle = [("frames_per_s", k) for k in range(SCENES)]

    def __init__(self, name: str, seed: int, roi: str, policies: tuple):
        self.name, self.seed, self.roi, self.policies = \
            name, seed, roi, policies
        self.device = sim.DeviceModel.preset(DEVICE)

    def setup(self, root: Path) -> None:
        seeds = derive_seeds(self.seed, 2 * SCENES)
        self.scene_seeds = seeds[:SCENES]
        self.scenes = [make_scene(s) for s in self.scene_seeds]
        self.traces = [sim.NetworkTrace.preset(TRACE_PRESET, seed=s)
                       for s in seeds[SCENES:]]
        self.registry = build_registry(root)

    def unit_ops(self, phase: str) -> int:
        return STREAMED_FRAMES * len(self.policies)

    def _session(self, scene, policy, trace, seed, policy_net=None):
        return sim.run_session(scene, policy, trace, self.device,
                               self.registry, policy_net=policy_net,
                               roi=self.roi, seed=seed)

    def run(self, phase: str, k: int) -> Unit:
        sessions, seconds = [], 0.0
        for policy in self.policies:
            session, elapsed = _timed(self._session, self.scenes[k], policy,
                                      self.traces[k], self.scene_seeds[k])
            sessions.append(session)
            seconds += elapsed
        rows = [row for s in sessions for row in session_rows(s)]
        return Unit(len(rows), seconds, rows)

    def reference_runs(self) -> dict[str, list]:
        """Short fixed-seed sessions covering all three policy kinds."""
        scene = make_scene(REFERENCE_SEED, REFERENCE_FRAMES)
        trace = sim.NetworkTrace.preset(TRACE_PRESET, seed=REFERENCE_SEED)
        net = scheduler.ActorCritic.create(
            actions=tuple(sorted(self.registry.entries)),
            seed=REFERENCE_SEED)
        out = {}
        for policy in dict.fromkeys(self.policies + ("drl", OCTREE_POLICY)):
            session = self._session(scene, policy, trace, REFERENCE_SEED,
                                    policy_net=net)
            out[f"{policy}/roi-{self.roi}"] = session_rows(session)
        return out

    def quality(self, first_pass: dict) -> dict[str, float]:
        """Means over every frame of the first pass over all scenes."""
        rows = [row for _, rows in sorted(first_pass.items()) for row in rows]
        fps = sim.CSV_COLUMNS.index("fps")
        cd = sim.CSV_COLUMNS.index("cd")
        return {"sim_fps_mean": float(np.mean([r[fps] for r in rows])),
                "cd_mean": float(np.mean([r[cd] for r in rows]))}


class TrainWorkload:
    """The offline loops: codec training and scheduler training, alternating
    call by call so that both phases see the whole run's host speed."""

    name = "train"
    phases = ("codec_train_samples_per_s", "sched_train_steps_per_s")
    streams = False
    cycle = [(phase, k) for k in range(TRAIN_RUNS) for phase in
             ("codec_train_samples_per_s", "sched_train_steps_per_s")]

    def __init__(self, seed: int):
        self.seed = seed
        self.device = sim.DeviceModel.preset(DEVICE)

    def setup(self, root: Path) -> None:
        seeds = derive_seeds(self.seed, 2 * TRAIN_RUNS)
        self.codec_seeds = seeds[:TRAIN_RUNS]
        self.sched_seeds = seeds[TRAIN_RUNS:]
        self.datasets = [codec.toy_block_dataset(CODEC_SAMPLES, BLOCK_POINTS,
                                                 seed=s)
                         for s in self.codec_seeds]
        self.registry = build_registry(root)
        self.actions = tuple(sorted(self.registry.entries))

    def unit_ops(self, phase: str) -> int:
        return CODEC_EPOCHS if phase == self.phases[0] else SCHED_EPOCHS

    def _env(self, worker: int):
        return sim.StreamingSchedulerEnv(self.registry, self.device,
                                         episode_len=SCHED_EPISODE)

    def _codec_train(self, data, seed, epochs):
        model = codec.make_codec_model(CODEC_LATENT, BLOCK_POINTS, seed=seed)
        return _timed(codec.train, model, data, epochs=epochs, seed=seed)

    def _sched_train(self, seed, epochs):
        return _timed(scheduler.train_scheduler, self._env,
                      workers=SCHED_WORKERS, epochs=epochs,
                      actions=self.actions, seed=seed)

    def run(self, phase: str, k: int) -> Unit:
        if phase == self.phases[0]:
            curve, seconds = self._codec_train(self.datasets[k],
                                               self.codec_seeds[k],
                                               CODEC_EPOCHS)
            return Unit(CODEC_SAMPLES * CODEC_EPOCHS, seconds,
                        [[float(x)] for x in curve])
        result, seconds = self._sched_train(self.sched_seeds[k],
                                            SCHED_EPOCHS)
        steps = SCHED_EPOCHS * SCHED_WORKERS * SCHED_EPISODE
        return Unit(steps, seconds,
                    [[float(x)] for x in result.mean_reward])

    def reference_runs(self) -> dict[str, list]:
        data = codec.toy_block_dataset(8, BLOCK_POINTS, seed=REFERENCE_SEED)
        curve, _ = self._codec_train(data, REFERENCE_SEED, 2)
        result, _ = self._sched_train(REFERENCE_SEED, 3)
        return {"codec.train": [[float(x)] for x in curve],
                "train_scheduler": [[float(x)] for x in result.mean_reward]}

    def quality(self, first_pass: dict) -> dict[str, float]:
        """Means over the training runs of each phase."""
        codec_rows, sched_rows = (
            [rows for (p, _), rows in sorted(first_pass.items()) if p == phase]
            for phase in self.phases)
        return {
            "codec_train_loss_final": float(np.mean(
                [rows[-1][0] for rows in codec_rows])),
            "sched_reward_final": float(np.mean(
                [np.mean([r[0] for r in rows[-REWARD_TAIL_EPOCHS:]])
                 for rows in sched_rows])),
        }


def make(name: str, seed: int):
    if name == "stream-roi":
        return StreamWorkload(name, seed, "on", (CODEC_POLICY,))
    if name == "stream-full":
        return StreamWorkload(name, seed, "off", (CODEC_POLICY, OCTREE_POLICY))
    if name == "train":
        return TrainWorkload(seed)
    raise ValueError(f"unknown workload '{name}'")


WORKLOADS = ("stream-roi", "stream-full", "train")
