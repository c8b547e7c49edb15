import dataclasses
import hashlib
import json
import logging
import math
import re
import struct
import weakref
from collections.abc import Sequence
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import load_perfbench, traced_bytes
from pcvstream.cloud import PointCloud, Pose
from pcvstream.codec import (
    PruneConfig, lightweight_train, make_codec_model, mean_chamfer,
    quantize_model, serialize, toy_block_dataset, train,
)
from pcvstream import sim
from pcvstream.scheduler import (
    NEUTRAL_FILL, ActorCritic, state_slot, train_scheduler,
)
from pcvstream.sim import (
    DeviceModel, ModelRegistry, NetworkTrace, RegistryEntry, Scene,
    StreamingSchedulerEnv, frame_timing, generate_scene, pipeline_fps,
    run_session, transmit_time,
)


# ---------------------------------------------------------------------------
# traces and transmit time

def constant_trace(mbps, tag="constant"):
    return NetworkTrace(np.array([0.0]), np.array([mbps]), tag)


def test_trace_presets_and_validation():
    trace = NetworkTrace.preset("5g", seed=1)
    assert trace.tag == "5g"
    assert abs(trace.bandwidth_mbps.mean() - 100.0) < 15.0
    assert trace.bandwidth_mbps.min() >= 70.0 - 1e-9
    with pytest.raises(ValueError):
        NetworkTrace.preset("6g")
    with pytest.raises(ValueError):
        NetworkTrace(np.array([0.0, 1.0]), np.array([5.0, -1.0]))


def test_trace_tags_name_their_source():
    assert NetworkTrace.fluctuating(50.0, duration_s=2.0).tag == "fluctuating"
    assert NetworkTrace(np.array([0.0]), np.array([5.0])).tag == "custom"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_rejects_non_finite_values(bad):
    for times, mbps in (([0.0, bad], [5.0, 6.0]), ([0.0, 1.0], [5.0, bad])):
        with pytest.raises(ValueError, match="finite"):
            NetworkTrace(np.array(times), np.array(mbps))


def test_trace_rejects_a_first_timestamp_other_than_zero():
    # it would bill the time before 1.0 s at the first segment's rate
    with pytest.raises(ValueError, match="trace times must start at 0, "
                                         "got 1.0"):
        NetworkTrace(np.array([1.0, 2.0]), np.array([5.0, 6.0]))


def test_transmit_time_zero_payload():
    trace = constant_trace(50.0)
    assert transmit_time(0, trace) == 0.0


def test_transmit_time_unit_arithmetic():
    # 12.5 MB over a constant 100 Mbps link takes exactly one second
    trace = constant_trace(100.0)
    assert transmit_time(12_500_000, trace) == pytest.approx(1.0)


def test_transmit_time_two_segment_hand_integration():
    # 50 Mbps for 1 s (6.25 MB), then 100 Mbps: 12.5 MB total
    trace = NetworkTrace(np.array([0.0, 1.0]), np.array([50.0, 100.0]))
    payload = 12_500_000
    # first second carries 50 Mb = 6.25 MB; remaining 6.25 MB at 100 Mbps
    expect = 1.0 + (payload * 8 - 50e6) / 100e6
    assert transmit_time(payload, trace) == pytest.approx(expect, abs=1e-12)


def test_transmit_time_monotone_properties():
    rng = np.random.default_rng(4)
    trace = NetworkTrace.preset("4g", seed=5)
    sizes = np.sort(rng.integers(1, 10_000_000, size=10))
    times = [transmit_time(int(s), trace, start_t=2.0) for s in sizes]
    assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))
    # uniform bandwidth scaling never slows transmission
    double = NetworkTrace(trace.times, trace.bandwidth_mbps * 2.0)
    for s in sizes[:4]:
        assert transmit_time(int(s), double, 2.0) <= \
            transmit_time(int(s), trace, 2.0) + 1e-12


def test_transmit_time_skips_a_zero_length_segment():
    # the 999 Mbps segment at 1 s lasts no time and carries nothing
    trace = NetworkTrace(np.array([0.0, 1.0, 1.0]),
                         np.array([50.0, 999.0, 100.0]))
    assert transmit_time(12_500_000, trace) == \
        1.0 + (12_500_000 * 8 - 50e6) / 100e6
    assert transmit_time(12_500_000, trace, start_t=1.0) == \
        12_500_000 * 8 / 100e6
    assert trace.bandwidth_at(1.0) == 100.0


@pytest.mark.parametrize("t", [-1.0, -5.0, -1e-300, math.nan])
def test_trace_times_before_zero_raise(t):
    """Unchecked, the time before 0 is billed at the first segment's rate:
    transmit_time(1_250_000, trace, start_t=-1.0) reads 1.0 s and
    bandwidth_at(-5.0) reads 10.0."""
    trace = NetworkTrace(np.array([0.0, 1.0]), np.array([10.0, 100.0]))
    with pytest.raises(ValueError, match=r"^trace time must be >= 0, got "):
        transmit_time(1_250_000, trace, start_t=t)
    with pytest.raises(ValueError, match=r"^trace time must be >= 0, got "):
        trace.bandwidth_at(t)


def test_transmit_time_extends_last_sample():
    trace = NetworkTrace(np.array([0.0, 1.0]), np.array([80.0, 10.0]))
    # starting beyond the trace end uses the final rate indefinitely
    assert transmit_time(10_000_000, trace, start_t=50.0) == \
        pytest.approx(10_000_000 * 8 / 10e6)


# ---------------------------------------------------------------------------
# devices

def test_frame_timing_matches_its_parts():
    trace = NetworkTrace(np.array([0.0, 1.0]), np.array([50.0, 100.0]))
    payload = 12_500_000
    transmit_s, bandwidth, fps = frame_timing(payload, 0.5, 0.25, trace, 0.0)
    assert transmit_s == transmit_time(payload, trace, 0.0)
    assert bandwidth == pytest.approx(payload * 8 / transmit_s / 1e6)
    assert fps == pipeline_fps(0.5, transmit_s, 0.25)
    # an empty payload reports the trace bandwidth at the send time
    assert frame_timing(0, 0.1, 0.05, trace, 1.5) == (0.0, 100.0, 10.0)


def test_frame_costs_scale_with_blocks():
    entry = RegistryEntry("8x8-q8", "unused.iscm", 64, 8, 2e-4, 1e-4, 0.05)
    payload, encode_s, decode_s = entry.frame_costs(10)
    assert payload == 10 * (64 * 4 + 16)
    assert encode_s == pytest.approx(2e-3)
    assert decode_s == pytest.approx(1e-3)  # on the reference host
    # a timeline scales decode to its device: twice the reference speed
    assert DeviceModel("x2", 2.0).decode_time(decode_s) == pytest.approx(5e-4)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_device_model_rejects_bad_compute_scale(scale):
    with pytest.raises(ValueError, match="compute_scale must be finite and "
                       "positive"):
        DeviceModel("x", scale)


@pytest.mark.parametrize("field, value, message", [
    ("test_cd", 0.0, "test_cd must be finite and positive"),
    ("test_cd", -0.05, "test_cd must be finite and positive"),
    ("test_cd", math.nan, "test_cd must be finite and positive"),
    ("test_cd", math.inf, "test_cd must be finite and positive"),
    ("encode_cost_s", -1e-4, "encode_cost_s must be finite and non-negative"),
    ("encode_cost_s", math.nan, "encode_cost_s must be finite and "
     "non-negative"),
    ("decode_cost_s", math.inf, "decode_cost_s must be finite and "
     "non-negative"),
    # a latent-0 entry would charge the 16-byte block header only
    ("latent_dim", 0, "latent_dim must be >= 1, got 0"),
    ("latent_dim", -3, "latent_dim must be >= 1, got -3"),
    ("bits", 12, "bits must be one of [8, 16, 32], got 12"),
])
def test_registry_entry_rejects_bad_measurements(field, value, message):
    values = {"latent_dim": 64, "bits": 8, "encode_cost_s": 2e-4,
              "decode_cost_s": 1e-4, "test_cd": 0.05}
    values[field] = value
    with pytest.raises(ValueError,
                       match=re.escape(f"model '8x8-q8': {message}")):
        RegistryEntry("8x8-q8", "unused.iscm", **values)
    # free costs are allowed
    assert RegistryEntry("8x8-q8", "unused.iscm", 64, 8, 0.0, 0.0,
                         0.05).encode_cost_s == 0.0


def test_registry_load_rejects_a_zero_test_cd(tmp_path):
    registry = ModelRegistry(tmp_path, {"4x4-q8": RegistryEntry(
        "4x4-q8", "4x4-q8.iscm", 16, 8, 1e-4, 1e-4, 0.05)})
    registry.save()
    path = tmp_path / "registry.json"
    stored = json.loads(path.read_text())
    stored["models"]["4x4-q8"]["test_cd"] = 0.0
    path.write_text(json.dumps(stored))
    with pytest.raises(ValueError, match="model '4x4-q8': test_cd"):
        ModelRegistry.load(tmp_path)


def _set(field, value):
    def edit(payload):
        payload["models"]["4x4-q8"][field] = value
    return edit


# registry.json edits -> the ValueError each must raise
BAD_REGISTRY_FILES = {
    "missing-key": (lambda p: p["models"]["4x4-q8"].pop("bits"),
                    "model '4x4-q8': missing bits"),
    "number-file": (_set("file", 3),
                    "model '4x4-q8': file must be a string, got 3"),
    "string-latent": (_set("latent_dim", "16"),
                      "model '4x4-q8': latent_dim must be an integer, "
                      "got '16'"),
    "fractional-latent": (_set("latent_dim", 16.5),
                          "model '4x4-q8': latent_dim must be an integer, "
                          "got 16.5"),
    "bool-bits": (_set("bits", True),
                  "model '4x4-q8': bits must be an integer, got True"),
    "null-cost": (_set("encode_cost_s", None),
                  "model '4x4-q8': encode_cost_s must be a real number, "
                  "got None"),
    "list-cost": (_set("decode_cost_s", [1e-4]),
                  "model '4x4-q8': decode_cost_s must be a real number, "
                  "got [0.0001]"),
    "string-cd": (_set("test_cd", "0.05"),
                  "model '4x4-q8': test_cd must be finite and positive, "
                  "got '0.05'"),
    "list-entry": (lambda p: p["models"].update({"4x4-q8": [16]}),
                   "model '4x4-q8': entry must be an object, got [16]"),
    "list-models": (lambda p: p.update(models=["4x4-q8"]),
                    "registry.json must hold a 'models' object"),
}


@pytest.mark.parametrize("case", sorted(BAD_REGISTRY_FILES))
def test_registry_load_rejects_a_malformed_entry(tmp_path, case):
    """registry.json is outside input: each malformed entry raises a
    ValueError naming the model and the field, not a KeyError, TypeError
    or AttributeError, and a fractional latent_dim does not load."""
    edit, message = BAD_REGISTRY_FILES[case]
    ModelRegistry(tmp_path, {"4x4-q8": RegistryEntry(
        "4x4-q8", "4x4-q8.iscm", 16, 8, 1e-4, 1e-4, 0.05)}).save()
    path = tmp_path / "registry.json"
    stored = json.loads(path.read_text())
    edit(stored)
    path.write_text(json.dumps(stored))
    with pytest.raises(ValueError, match=re.escape(message)):
        ModelRegistry.load(tmp_path)


def test_device_presets_ordering():
    d1 = DeviceModel.preset("device-1")
    d3 = DeviceModel.preset("device-3")
    assert d1.compute_scale > d3.compute_scale == 1.0
    assert d1.decode_time(1.0) < d3.decode_time(1.0)
    with pytest.raises(ValueError):
        DeviceModel.preset("device-9")


# ---------------------------------------------------------------------------
# scenes

def test_scene_static_when_no_velocity_possible():
    scene = generate_scene(rooms=1, frames=2, subject_points=0,
                           background_points=500, seed=2)
    np.testing.assert_array_equal(scene.frames[0].points,
                                  scene.frames[1].points)
    assert not scene.subject_masks[0].any()


def test_scene_default_frame_count():
    scene = generate_scene(rooms=5, frames=100, subject_points=10,
                           background_points=50, seed=0)
    assert len(scene.frames) == 500
    assert len(scene.poses) == 500


def test_scene_subject_fraction_and_motion():
    scene = generate_scene(rooms=1, frames=4, subject_points=100,
                           background_points=1000, seed=3)
    mask = scene.subject_masks[0]
    assert mask.sum() == 100
    a = scene.frames[0].points[mask]
    b = scene.frames[1].points[mask]
    assert np.abs(a - b).max() > 0  # the subject moved
    bg_a = scene.frames[0].points[~mask]
    bg_b = scene.frames[1].points[~mask]
    np.testing.assert_array_equal(bg_a, bg_b)  # the background did not


def test_scene_deterministic():
    a = generate_scene(rooms=1, frames=3, subject_points=20,
                       background_points=100, seed=9)
    b = generate_scene(rooms=1, frames=3, subject_points=20,
                       background_points=100, seed=9)
    for fa, fb in zip(a.frames, b.frames):
        np.testing.assert_array_equal(fa.points, fb.points)


def scene_digests(scene):
    """sha256 of the frames (dtype, shape, index and bytes), of the masks
    and of the poses."""
    frames, masks, poses = (hashlib.sha256() for _ in range(3))
    for frame, mask, pose in zip(scene.frames, scene.subject_masks,
                                 scene.poses):
        pts = frame.points
        frames.update(f"{pts.dtype.str}{pts.shape}{frame.frame_index};"
                      .encode())
        frames.update(pts.tobytes())
        masks.update(f"{mask.dtype.str}{mask.shape};".encode())
        masks.update(mask.tobytes())
        poses.update(pose.position.tobytes() + pose.orientation.tobytes()
                     + struct.pack("<d", pose.timestamp))
    return (len(scene.frames), frames.hexdigest(), masks.hexdigest(),
            poses.hexdigest())


# recorded from the float64 concatenate-then-cast frame loop
PINNED_SCENES = [
    (dict(rooms=2, frames=3, subject_points=150, background_points=1200,
          seed=11),
     (6, "8923137357d266525ea280b83ac6a41e3638867d786cc36bce08509f5edd88c4",
      "e138f9ccf5f6fb5b84340eb6ff5d4840a31777c2fda92e34d448b0610eaa6514",
      "8c06dccc97d6d2b20e2e6703b61f1be1f0d7dfa0f505e346a5f5833c35a4fd28")),
    (dict(rooms=1, frames=4, subject_points=0, background_points=500,
          seed=2),
     (4, "be6bcf689b19af6140dc4634b38d89b5a6c3c1dcfe59dc03321680af129c4ec8",
      "083cc7a8b4baeedc273d0c163ca5422e84e252cc263fc4366c3c20967be1317e",
      "d15d18a714ce3ee14e37b6155ba93958bf1bed3d9c8c9a1cc239884b6f43e450")),
    (dict(rooms=2, frames=3, subject_points=300, background_points=0,
          seed=5),
     (6, "025aa90104f202161f4986c4c0fb2fe6c2ea95ee3f18052a73b42a0494be78fc",
      "366e3834264309ff78d9b5156d7e5fedd14b3236a1c2f21b089bd533b9954912",
      "8097892791d930e97d50496c569cbc8002db60c16caf79863e26791961cce3c2")),
    (dict(rooms=1, frames=24, seed=7),
     (24, "d605c91294051fc0aca1bb3f5a64c0ed16553144e4f97d506ffa97bd8297f772",
      "c34e112430c42d0b8e0c2527c602615cef427fe21b325290f89f796235f2509b",
      "e623a4f0870c875683ced4bfffb34281a40d1ca1da84ed59765da385d79d800b")),
]


def test_generate_scene_bytes_are_pinned():
    for config, digests in PINNED_SCENES:
        assert scene_digests(generate_scene(**config)) == digests, config


# the bytes of one default frame's float32 points
FRAME_BYTES = 20000 * 3 * np.dtype(np.float32).itemsize


def test_generate_scene_room_keeps_under_two_frames_and_peaks_under_four():
    """A room keeps its float32 background and its subject, not its frames.
    The peak is its background's float64 surfaces and their
    concatenation."""
    scene, kept, peak = traced_bytes(
        lambda: generate_scene(rooms=1, frames=24, seed=3))
    assert len(scene.frames) == 24
    assert all(f.points.dtype == np.float32 for f in scene.frames)
    assert kept < 2 * FRAME_BYTES, kept / FRAME_BYTES
    assert peak < 4 * FRAME_BYTES, peak / FRAME_BYTES


def test_a_default_scene_keeps_under_two_megabytes():
    scene, kept, _ = traced_bytes(generate_scene)
    assert len(scene.frames) == len(scene.poses) == 500
    assert kept < 2_000_000, kept


def test_lazy_sequence_reads_like_a_list():
    built = []

    def build(i):
        built.append(i)
        return 10 * i

    seq = sim.LazySequence(5, build)
    items = [0, 10, 20, 30, 40]
    assert isinstance(seq, Sequence)
    assert len(seq) == 5 and not built
    assert (seq[0], seq[4], seq[-1], seq[-5], seq[np.int64(2)]) == \
        (0, 40, 40, 0, 20)
    cuts = (slice(None), slice(1, 4), slice(None, None, 2),
            slice(None, None, -2), slice(4, 0, -3), slice(-2, None),
            slice(3, 1), slice(7, 9))
    for cut in cuts:
        built.clear()
        part = seq[cut]
        assert type(part) is sim.LazySequence
        assert len(part) == len(items[cut])
        assert not built, cut  # a slice builds nothing until read
        assert list(part) == items[cut], cut
        assert list(reversed(part)) == items[cut][::-1], cut
        for inner in cuts:  # a slice of a slice
            assert type(part[inner]) is sim.LazySequence
            assert list(part[inner]) == items[cut][inner], (cut, inner)
        for i in range(-len(part), len(part)):
            assert part[i] == items[cut][i], (cut, i)
        with pytest.raises(IndexError):
            part[len(part)]
    assert list(seq) == items
    assert list(reversed(seq)) == items[::-1]
    assert 30 in seq and seq.index(30) == 3
    for bad in (5, -6, 99):
        with pytest.raises(IndexError):
            seq[bad]
    for bad in ("1", 1.0):
        with pytest.raises(TypeError):
            seq[bad]
    with pytest.raises(TypeError):
        seq[0] = 1


def test_a_cut_scene_keeps_its_room_not_its_frames(monkeypatch):
    """A scene cut to its first two frames keeps the room's state, under
    1.5 frames' bytes, builds a frame only when one is read, and reads the
    uncut scene's frames and poses."""
    built = []
    point_cloud = sim.PointCloud

    def counted(*args, **kwargs):
        cloud = point_cloud(*args, **kwargs)
        built.append(cloud.frame_index)
        return cloud

    def cut():
        scene = generate_scene(rooms=1, frames=24, seed=3)
        return Scene(scene.frames[:2], scene.subject_masks[:2],
                     scene.poses[:2], scene.intrinsics)

    monkeypatch.setattr(sim, "PointCloud", counted)
    scene, kept, _ = traced_bytes(cut)
    assert built == [0]  # the helper's warm-up frame, not the cut's
    built.clear()
    assert kept < 1.5 * FRAME_BYTES, kept / FRAME_BYTES
    assert len(scene.frames) == len(scene.poses) == 2 and built == []
    uncut = generate_scene(rooms=1, frames=24, seed=3)
    for i in range(2):
        a, b = scene.frames[i], uncut.frames[i]
        assert a.frame_index == b.frame_index == i
        assert a.points.dtype == b.points.dtype == np.float32
        assert a.points.tobytes() == b.points.tobytes()
        p, q = scene.poses[i], uncut.poses[i]
        assert p.position.tobytes() == q.position.tobytes()
        assert p.orientation.tobytes() == q.orientation.tobytes()
        assert p.timestamp == q.timestamp
    assert built == [0, 0, 1, 1]


def test_generated_frames_and_poses_are_the_same_on_every_read():
    scene = generate_scene(rooms=2, frames=3, subject_points=50,
                           background_points=200, seed=4)
    a, b = scene.frames[4], scene.frames[-2]
    assert a is not b
    assert a.frame_index == b.frame_index == 4
    assert a.points.dtype == np.float32
    assert a.points.tobytes() == b.points.tobytes()
    assert scene.frames[3:5][1].points.tobytes() == a.points.tobytes()
    p, q = scene.poses[4], scene.poses[-2]
    assert p.position.tobytes() == q.position.tobytes()
    assert p.timestamp == q.timestamp == 4.0


def test_room_frames_share_one_read_only_mask():
    scene = generate_scene(rooms=2, frames=3, subject_points=50,
                           background_points=200, seed=4)
    masks = scene.subject_masks
    assert masks[0] is masks[1] is masks[2]
    assert masks[3] is masks[4] is masks[5]
    assert masks[3] is not masks[0]
    assert masks[0].sum() == 50 and masks[0][200:].all()
    with pytest.raises(ValueError, match="read-only"):
        masks[0][0] = True


# case -> (arguments, the name the error starts with)
BAD_COUNTS = {
    "rooms=0": (dict(rooms=0), "rooms"),
    "rooms=-2": (dict(rooms=-2), "rooms"),
    "rooms=True": (dict(rooms=True), "rooms"),
    "rooms=1.0": (dict(rooms=1.0), "rooms"),
    "frames=2.5": (dict(frames=2.5), "frames"),
    "frames=True": (dict(frames=True), "frames"),
    "subject_points=-5": (dict(subject_points=-5), "subject_points"),
    "subject_points=2.5": (dict(subject_points=2.5), "subject_points"),
    "subject_points=False": (dict(subject_points=False), "subject_points"),
    "background_points=-1": (dict(background_points=-1),
                             "background_points"),
    "background_points=100.0": (dict(background_points=100.0),
                                "background_points"),
    "no points": (dict(subject_points=0, background_points=0),
                  r"subject_points \+ background_points"),
}


@pytest.mark.parametrize("case", BAD_COUNTS)
def test_generate_scene_rejects_bad_counts_before_drawing(monkeypatch, case):
    kwargs, name = BAD_COUNTS[case]

    def no_draws(*args):
        raise AssertionError("drew from the generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    config = dict(rooms=1, frames=3, subject_points=20,
                  background_points=100, seed=0) | kwargs
    with pytest.raises(ValueError, match=f"^{name} must be"):
        generate_scene(**config)


# ---------------------------------------------------------------------------
# registry

# pinned (encode s, decode s) per block by latent size, so that sessions
# over the toy registry do not depend on this host's speed
TOY_COSTS = {16: (1.1e-4, 6.0e-5), 64: (1.6e-4, 6.5e-5)}


def toy_registry(tmp_path, latents=(16, 64), bits=(8,)):
    data = toy_block_dataset(24, 32, seed=1)
    registry = ModelRegistry(tmp_path)
    for latent in latents:
        model = make_codec_model(latent, 32, seed=latent,
                                 enc_hidden=(8,), dec_hidden=(16,))
        train(model, data, epochs=2, lr=0.002, seed=0)
        for m in bits:
            label = {16: "4x4", 64: "8x8", 256: "16x16"}[latent]
            q = lightweight_train(model, data,
                                  PruneConfig(zeta=0.25, rounds=1,
                                              finetune_epochs=1),
                                  m=m, seed=0)
            fname = f"{label}-q{m}.iscm"
            serialize(q, tmp_path / fname)
            enc_s, dec_s = TOY_COSTS[latent]
            registry.add(RegistryEntry(
                model_id=f"{label}-q{m}", file=fname, latent_dim=latent,
                bits=m, encode_cost_s=enc_s, decode_cost_s=dec_s,
                test_cd=mean_chamfer(q, data[:6])))
    registry.save()
    return registry


def test_registry_round_trip(tmp_path):
    registry = toy_registry(tmp_path)
    back = ModelRegistry.load(tmp_path)
    assert set(back.entries) == set(registry.entries)
    table = back.accuracy_table()
    assert max(table.values()) == pytest.approx(1.0)
    model = back.model(sorted(back.entries)[0])
    assert model.n_points == 32


def tiny_files(root):
    """A latent-16 model saved as f32 (tiny.iscm) and as q8 (tiny-q8.iscm)."""
    model = make_codec_model(16, 32, seed=16, enc_hidden=(8,),
                             dec_hidden=(16,))
    serialize(model, root / "tiny.iscm")
    quantize_model(model, 8)
    serialize(model, root / "tiny-q8.iscm")


@pytest.mark.parametrize("file, latent, bits", [
    ("tiny.iscm", 256, 8),     # would charge 65,520 B/frame, not 5,040
    ("tiny.iscm", 16, 8),
    ("tiny-q8.iscm", 64, 8),
    ("tiny-q8.iscm", 16, 16),
    ("tiny-q8.iscm", 16, 32),
])
def test_registry_model_rejects_an_entry_that_disagrees_with_its_file(
        tmp_path, file, latent, bits):
    tiny_files(tmp_path)
    registry = ModelRegistry(tmp_path, {"m": RegistryEntry(
        "m", file, latent, bits, 1e-4, 5e-5, 0.05)})
    with pytest.raises(ValueError, match=f"model 'm': .* latent_dim {latent} "
                       f"and bits {bits}, but {file} holds latent_dim 16"):
        registry.model("m")


@pytest.mark.parametrize("file", ["/etc/passwd", "../x.iscm",
                                  "models/../../x.iscm"])
def test_a_model_file_outside_the_registry_root_is_rejected(tmp_path, file):
    """The registry opens root / file: an absolute path or a '..' part
    would open a file outside the root."""
    message = (f"model '4x4-q8': file must be a relative path without "
               f"'..', got {file!r}")
    with pytest.raises(ValueError, match=re.escape(message)):
        RegistryEntry("4x4-q8", file, 16, 8, 1e-4, 1e-4, 0.05)
    ModelRegistry(tmp_path, {"4x4-q8": RegistryEntry(
        "4x4-q8", "models/4x4-q8.iscm", 16, 8, 1e-4, 1e-4, 0.05)}).save()
    path = tmp_path / "registry.json"
    stored = json.loads(path.read_text())
    stored["models"]["4x4-q8"]["file"] = file
    path.write_text(json.dumps(stored))
    with pytest.raises(ValueError, match=re.escape(message)):
        ModelRegistry.load(tmp_path)


def test_the_registry_keeps_only_the_model_it_served_last(tmp_path):
    tiny_files(tmp_path)
    registry = ModelRegistry(tmp_path, {
        "a": RegistryEntry("a", "tiny.iscm", 16, 32, 1e-4, 5e-5, 0.05),
        "b": RegistryEntry("b", "tiny-q8.iscm", 16, 8, 1e-4, 5e-5, 0.05)})
    first = weakref.ref(registry.model("a"))
    assert registry.model("a") is first()  # served again, not reloaded
    assert registry.model("b").dtype == "q8"
    assert first() is None


def test_a_registry_that_loaded_every_bench_model_keeps_under_two_megabytes(
        tmp_path):
    """The benchmark's six models take 8.5 MB loaded; the registry keeps
    one of them."""
    workloads = load_perfbench("workloads")

    def load_all():
        registry = workloads.build_registry(tmp_path)
        for model_id in sorted(registry.entries):
            registry.model(model_id)
        return registry

    registry, kept, _ = traced_bytes(load_all)
    assert len(registry.entries) == 6
    assert kept < 2_000_000, kept


def test_sessions_that_alternate_models_share_a_registry(tmp_path,
                                                         monkeypatch):
    """Sessions on one registry give the records that fresh registries
    give, and each switch of model loads its file once."""
    toy_registry(tmp_path)
    scene = small_scene(frames=4)
    policies = ["fixed:4x4-q8", "fixed:8x8-q8", "fixed:4x4-q8",
                "fixed:8x8-q8"]

    def records(policy, registry):
        return run_session(scene, policy, constant_trace(25.0),
                           DeviceModel.preset("device-2"), registry,
                           seed=1).records

    fresh = [records(p, ModelRegistry.load(tmp_path)) for p in policies]
    loads = []
    deserialize = sim.deserialize

    def spy(path):
        loads.append(Path(path).name)
        return deserialize(path)

    monkeypatch.setattr(sim, "deserialize", spy)
    shared = ModelRegistry.load(tmp_path)
    assert [records(p, shared) for p in policies] == fresh
    assert loads == ["4x4-q8.iscm", "8x8-q8.iscm", "4x4-q8.iscm",
                     "8x8-q8.iscm"]


# ---------------------------------------------------------------------------
# sessions

def small_scene(frames=6, seed=5):
    return generate_scene(rooms=1, frames=frames, subject_points=150,
                          background_points=1200, seed=seed)


def test_session_octree_policy_runs():
    scene = small_scene()
    trace = NetworkTrace.preset("wifi", seed=1)
    session = run_session(scene, "octree:5", trace,
                          DeviceModel.preset("device-2"), roi="off", seed=1)
    assert len(session.records) == 5
    for rec in session.records:
        assert rec.payload_bytes > 0
        assert rec.roi_points == rec.input_points  # roi off
        assert math.isfinite(rec.cd)
        assert rec.fps == pipeline_fps(rec.encode_s, rec.transmit_s,
                                       rec.decode_s)


def test_session_fixed_policy_with_roi(tmp_path):
    registry = toy_registry(tmp_path)
    scene = small_scene()
    trace = NetworkTrace.preset("wifi", seed=2)
    model_id = sorted(registry.entries)[0]
    session = run_session(scene, f"fixed:{model_id}", trace,
                          DeviceModel.preset("device-1"), registry=registry,
                          roi="on", seed=2)
    for rec in session.records:
        assert rec.roi_points <= rec.input_points
        assert rec.model_id == model_id
        assert rec.payload_bytes % 1 == 0


def test_session_roi_reduces_payload(tmp_path):
    registry = toy_registry(tmp_path, latents=(16,))
    scene = small_scene(frames=5)
    trace = constant_trace(60.0, tag="wifi")
    model_id = sorted(registry.entries)[0]
    on = run_session(scene, f"fixed:{model_id}", trace,
                     DeviceModel.preset("device-2"), registry=registry,
                     roi="on", seed=3)
    off = run_session(scene, f"fixed:{model_id}", trace,
                      DeviceModel.preset("device-2"), registry=registry,
                      roi="off", seed=3)
    on_pay = np.mean([r.payload_bytes for r in on.records])
    off_pay = np.mean([r.payload_bytes for r in off.records])
    assert on_pay < off_pay
    for a, b in zip(on.records, off.records):
        assert a.roi_points <= b.input_points
        assert b.payload_bytes >= a.payload_bytes


def test_session_over_a_constant_trace_records_its_tag(tmp_path):
    registry = toy_registry(tmp_path, latents=(16,))
    model_id = sorted(registry.entries)[0]
    session = run_session(small_scene(frames=2), f"fixed:{model_id}",
                          constant_trace(60.0),
                          DeviceModel.preset("device-2"), registry=registry,
                          roi="off", seed=3)
    assert session.config["trace"] == "constant"


def test_session_deterministic_csv(tmp_path):
    registry = toy_registry(tmp_path, latents=(16,))
    scene = small_scene(frames=4)
    trace = NetworkTrace.preset("4g", seed=4)
    model_id = sorted(registry.entries)[0]
    paths = []
    for i in range(2):
        session = run_session(scene, f"fixed:{model_id}", trace,
                              DeviceModel.preset("device-3"),
                              registry=registry, roi="on", seed=7)
        path = tmp_path / f"s{i}.csv"
        session.to_csv(path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_session_conservation_invariants(tmp_path):
    registry = toy_registry(tmp_path, latents=(16,))
    scene = small_scene(frames=6)
    trace = NetworkTrace.preset("wifi", seed=8)
    model_id = sorted(registry.entries)[0]
    session = run_session(scene, f"fixed:{model_id}", trace,
                          DeviceModel.preset("device-2"), registry=registry,
                          roi="on", seed=8)
    entry = registry.entries[model_id]
    for rec in session.records:
        assert rec.roi_points <= rec.input_points
        blocks = math.ceil(rec.roi_points / 32)
        assert rec.payload_bytes == blocks * entry.payload_per_block()


def test_faster_device_never_slower(tmp_path):
    registry = toy_registry(tmp_path, latents=(16,))
    scene = small_scene(frames=5)
    trace = constant_trace(1000.0)  # decode-bound regime
    model_id = sorted(registry.entries)[0]
    fast = run_session(scene, f"fixed:{model_id}", trace,
                       DeviceModel.preset("device-1"), registry=registry,
                       roi="off", seed=1)
    slow = run_session(scene, f"fixed:{model_id}", trace,
                       DeviceModel.preset("device-3"), registry=registry,
                       roi="off", seed=1)
    for f, s in zip(fast.records, slow.records):
        if max(f.encode_s, f.transmit_s, f.decode_s) == f.decode_s:
            assert f.fps >= s.fps - 1e-12


def test_octree_depth_sweep_tradeoff():
    scene = small_scene(frames=3)
    trace = constant_trace(60.0)
    device = DeviceModel.preset("device-2")
    payloads, cds = [], []
    for depth in (3, 4, 5, 6, 7, 8):
        session = run_session(scene, f"octree:{depth}", trace, device,
                              roi="off", seed=1)
        payloads.append(np.mean([r.payload_bytes for r in session.records]))
        cds.append(np.mean([r.cd for r in session.records]))
    assert all(a <= b for a, b in zip(payloads, payloads[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(cds, cds[1:]))


def test_unknown_policy_and_missing_model(tmp_path):
    scene = small_scene(frames=3)
    trace = constant_trace(60.0)
    device = DeviceModel.preset("device-2")
    with pytest.raises(ValueError):
        run_session(scene, "magic", trace, device)
    registry = toy_registry(tmp_path, latents=(16,))
    with pytest.raises(ValueError, match=re.escape(
            "model 'nope' is not in the registry, which holds ['4x4-q8']")):
        run_session(scene, "fixed:nope", trace, device, registry=registry)


@pytest.mark.parametrize("policy", ["octree:abc", "octree:0", "octree:17",
                                    "octree:", "octree:-3", "octree:1.5"])
def test_octree_policy_depth_is_checked_before_the_first_frame(monkeypatch,
                                                               policy):
    def no_frame_work(*args):
        raise AssertionError("the first frame's ROI work ran")

    monkeypatch.setattr(sim, "select_roi", no_frame_work)
    with pytest.raises(ValueError, match=re.escape(
            f"policy '{policy}' is not 'drl', 'fixed:<model>' or "
            "'octree:<depth>' with an integer depth in [1, 16]")):
        run_session(small_scene(frames=3), policy, constant_trace(60.0),
                    DeviceModel.preset("device-2"))


def test_an_empty_model_set_is_named(tmp_path):
    """Named here, not by max()'s "arg is an empty sequence"."""
    empty = ModelRegistry(tmp_path)
    with pytest.raises(ValueError, match="the model set is empty"):
        empty.accuracy_table()
    with pytest.raises(ValueError, match="the model set is empty"):
        StreamingSchedulerEnv(empty, DeviceModel.preset("device-2"))


class SpySequence(Sequence):
    """A sequence that records the index of every read."""

    def __init__(self, items):
        self.items = items
        self.reads = []

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        self.reads.append(index)
        return self.items[index]


@pytest.mark.parametrize("roi", ["on", "off"])
def test_a_session_reads_each_frame_and_pose_once(roi):
    scene = small_scene(frames=5)
    frames, poses = SpySequence(scene.frames), SpySequence(scene.poses)
    spied = run_session(Scene(frames, scene.subject_masks, poses,
                              scene.intrinsics), "octree:5",
                        constant_trace(60.0), DeviceModel.preset("device-2"),
                        roi=roi, seed=1)
    assert sorted(frames.reads) == sorted(poses.reads) == list(range(5))
    plain = run_session(scene, "octree:5", constant_trace(60.0),
                        DeviceModel.preset("device-2"), roi=roi, seed=1)
    assert spied.records == plain.records


@pytest.mark.parametrize("case", ["no registry", "no policy net", "roi"])
def test_session_arguments_are_checked_before_a_frame_is_read(tmp_path, case):
    registry = ModelRegistry(tmp_path, {"4x4-q8": RegistryEntry(
        "4x4-q8", "unused.iscm", 16, 8, 1e-4, 1e-4, 0.05)})
    policy, kwargs, message = {
        "no registry": ("fixed:4x4-q8", {},
                        "codec policies need a model registry"),
        "no policy net": ("drl", {"registry": registry},
                          "the drl policy needs a trained policy net"),
        "roi": ("octree:4", {"roi": "maybe"}, "roi must be 'on' or 'off'"),
    }[case]
    scene = small_scene(frames=3)
    frames, poses = SpySequence(scene.frames), SpySequence(scene.poses)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_session(Scene(frames, scene.subject_masks, poses,
                          scene.intrinsics), policy, constant_trace(60.0),
                    DeviceModel.preset("device-2"), **kwargs)
    assert frames.reads == poses.reads == []


def facing_away(scene):
    """The scene with its viewer turned half a circle, to look out of the
    room: every predicted frustum is empty."""
    poses = [Pose(p.position, (0.0, 0.0, 1.0, 0.0), p.timestamp)
             for p in scene.poses]
    return Scene(scene.frames, scene.subject_masks, poses, scene.intrinsics)


@pytest.mark.parametrize("policy, payload", [("fixed:tiny", 0),
                                             ("octree:5", 18), ("drl", 0)])
def test_an_empty_roi_streams_empty_frames(tmp_path, caplog, policy,
                                           payload):
    """A codec frame sends no block; the octree sends its 18-byte stream of
    an empty cloud. Neither has a decode to score."""
    tiny_files(tmp_path)
    registry = ModelRegistry(tmp_path, {"tiny": RegistryEntry(
        "tiny", "tiny.iscm", 16, 32, 1e-4, 5e-5, 0.05)})
    net = ActorCritic.create(actions=("tiny",), seed=0)
    with caplog.at_level(logging.WARNING, logger="pcvstream.roi"):
        session = run_session(facing_away(small_scene(frames=4)), policy,
                              constant_trace(60.0),
                              DeviceModel.preset("device-2"),
                              registry=registry, policy_net=net, roi="on",
                              seed=1)
    assert [rec.roi_points for rec in session.records] == [0, 0, 0]
    assert [rec.payload_bytes for rec in session.records] == [payload] * 3
    assert all(math.isnan(rec.cd) and math.isnan(rec.hd)
               for rec in session.records)
    assert [r.getMessage() for r in caplog.records] == [
        f"frame {t}: predicted frustum is empty" for t in (1, 2, 3)]


def test_session_rejects_a_one_frame_scene():
    scene = small_scene(frames=2)
    one = Scene(scene.frames[:1], scene.subject_masks[:1], scene.poses[:1],
                scene.intrinsics)
    with pytest.raises(ValueError, match="at least 2 frames"):
        run_session(one, "octree:4", constant_trace(60.0),
                    DeviceModel.preset("device-2"), roi="off")


@pytest.mark.parametrize("poses", [1, 2, 4])
def test_session_rejects_a_scene_without_one_pose_per_frame(monkeypatch,
                                                            poses):
    def no_frame_work(*args):
        raise AssertionError("the first frame's ROI work ran")

    monkeypatch.setattr(sim, "select_roi", no_frame_work)
    scene = small_scene(frames=4)
    cut = Scene(scene.frames[:3], scene.subject_masks[:3],
                scene.poses[:poses], scene.intrinsics)
    with pytest.raises(ValueError, match=re.escape(
            f"a scene of 3 frames needs one pose per frame, got {poses} "
            "poses")):
        run_session(cut, "octree:4", constant_trace(60.0),
                    DeviceModel.preset("device-2"))


def test_registry_built_from_entries_normalises_accuracy(tmp_path):
    entries = {model_id: RegistryEntry(model_id, f"{model_id}.iscm", latent,
                                       8, 1e-4, 1e-4, cd)
               for model_id, latent, cd in (("4x4-q8", 16, 0.08),
                                            ("8x8-q8", 64, 0.02),
                                            ("16x16-q8", 256, 0.04))}
    registry = ModelRegistry(tmp_path, entries)
    assert registry.accuracy_table() == pytest.approx(
        {"4x4-q8": 0.25, "8x8-q8": 1.0, "16x16-q8": 0.5})
    env = StreamingSchedulerEnv(registry, DeviceModel.preset("device-2"))
    assert env.accuracy == registry.accuracy_table()
    registry.save()
    path = tmp_path / "registry.json"
    stored = json.loads(path.read_text())
    assert all("accuracy" not in v for v in stored["models"].values())
    for v in stored["models"].values():  # a stale stored value is ignored
        v["accuracy"] = 0.0
    path.write_text(json.dumps(stored))
    assert ModelRegistry.load(tmp_path).accuracy_table() == \
        registry.accuracy_table()


def test_drl_policy_actions_must_be_in_registry(tmp_path):
    registry = ModelRegistry(tmp_path, {"4x4-q8": RegistryEntry(
        "4x4-q8", "unused.iscm", 16, 8, 1e-4, 1e-4, 0.05)})
    net = ActorCritic.create(actions=("4x4-q8", "8x8-q8"), seed=0)
    with pytest.raises(ValueError, match="8x8-q8"):
        run_session(small_scene(frames=3), "drl", constant_trace(60.0),
                    DeviceModel.preset("device-2"), registry=registry,
                    policy_net=net)


def test_drl_state_uses_the_policy_window(tmp_path):
    model = make_codec_model(16, 32, seed=16, enc_hidden=(8,),
                             dec_hidden=(16,))
    serialize(model, tmp_path / "tiny.iscm")
    registry = ModelRegistry(tmp_path, {"tiny": RegistryEntry(
        "tiny", "tiny.iscm", 16, 32, 1e-4, 5e-5, 0.05)})
    net = ActorCritic.create(k=4, actions=("tiny",), seed=0)
    assert net.k == 4
    session = run_session(small_scene(frames=4), "drl",
                          constant_trace(60.0),
                          DeviceModel.preset("device-2"), registry=registry,
                          policy_net=net, seed=1)
    assert [rec.model_id for rec in session.records] == ["tiny"] * 3


# ---------------------------------------------------------------------------
# geometry and replay

def csv_bytes(records, tmp_path):
    """The CSV rows of a record list, as a session writes them."""
    path = tmp_path / "records.csv"
    sim.StreamSession(records, {}).to_csv(path)
    return path.read_bytes()


def test_one_geometry_replays_as_run_session_in_every_cell(tmp_path,
                                                           monkeypatch):
    registry = toy_registry(tmp_path)
    scene = small_scene(frames=4)
    cells = [(f"fixed:{model_id}", trace, device)
             for model_id in sorted(registry.entries)
             for trace in (NetworkTrace.preset("3g", seed=2),
                           NetworkTrace.preset("4g", seed=2))
             for device in (DeviceModel.preset("device-1"),
                            DeviceModel.preset("device-3"))]
    sessions = [run_session(scene, *cell, registry=registry, roi="on",
                            seed=2) for cell in cells]
    geometry = list(sim.scene_geometry(scene, "on", registry, seed=2))
    encoded = []

    def counted(model, blocks, encode=sim.encode):
        encoded.append(model)
        return encode(model, blocks)

    monkeypatch.setattr(sim, "encode", counted)
    for cell, session in zip(cells, sessions):
        records = sim.replay(geometry, *cell, registry)
        assert csv_bytes(records, tmp_path) == \
            csv_bytes(session.records, tmp_path), cell
    # each (frame, model) round trip ran once across the four replays
    assert len(encoded) == len(geometry) * len(registry.entries)


def test_a_drl_replay_decides_from_counts_alone(tmp_path):
    """Geometry that keeps only point counts and trips without quality
    yields the same decisions, payloads and timings: the scheduler reads no
    decoded point."""
    registry = toy_registry(tmp_path)
    net = ActorCritic.create(actions=tuple(sorted(registry.entries)), k=3,
                             hidden=8, seed=3)
    scene = small_scene(frames=6)
    trace, device = NetworkTrace.preset("3g", seed=2), \
        DeviceModel.preset("device-1")
    geometry = list(sim.scene_geometry(scene, "on", registry, seed=2))
    counts_only = [SimpleNamespace(
        frame=range(len(g.frame)), roi=range(len(g.roi)),
        trip=lambda model_id, g=g: (*g.trip(model_id)[:3], math.nan,
                                    math.nan)) for g in geometry]
    real = sim.replay(geometry, "drl", trace, device, registry, net)
    blind = sim.replay(counts_only, "drl", trace, device, registry, net)
    assert real == run_session(scene, "drl", trace, device, registry, net,
                               roi="on", seed=2).records
    assert len({rec.model_id for rec in real}) == 2  # decisions change
    for full, counts in zip(real, blind, strict=True):
        assert math.isnan(counts.cd) and math.isnan(counts.hd)
        assert dataclasses.replace(counts, cd=full.cd, hd=full.hd) == full


@pytest.mark.parametrize("roi", ["on", "off"])
@pytest.mark.parametrize("policy", ["fixed:4x4-q8", "octree:5"])
def test_a_replay_of_the_scene_geometry_is_the_session(tmp_path, policy, roi):
    registry = toy_registry(tmp_path, latents=(16,))
    scene = small_scene(frames=4)
    trace, device = NetworkTrace.preset("4g", seed=3), \
        DeviceModel.preset("device-2")
    session = run_session(scene, policy, trace, device, registry=registry,
                          roi=roi, seed=3)
    records = sim.replay(sim.scene_geometry(scene, roi, registry, seed=3),
                         policy, trace, device, registry)
    assert csv_bytes(records, tmp_path) == csv_bytes(session.records,
                                                     tmp_path)


# ---------------------------------------------------------------------------
# scheduler environment

def test_streaming_env_protocol(tmp_path):
    registry = toy_registry(tmp_path, latents=(16, 64))
    env = StreamingSchedulerEnv(registry, DeviceModel.preset("device-2"),
                                episode_len=5)
    rng = np.random.default_rng(0)
    state = env.reset(rng)
    assert state.shape == (24,) and state.dtype == np.float64  # k = 8
    done = False
    steps = 0
    while not done:
        state, rew, done = env.step(steps % len(env.actions))
        assert 0.0 <= rew <= 1.0 + 1e-9
        steps += 1
    assert steps == 5


def cost_only_registry(root):
    """Registry entries without model files: all the env reads."""
    registry = ModelRegistry(root)
    for i, (model_id, latent) in enumerate((("4x4-q8", 16), ("8x8-q8", 64),
                                            ("16x16-q8", 256))):
        registry.add(RegistryEntry(model_id, f"{model_id}.iscm", latent, 8,
                                   1e-4 * (i + 1), 4e-4 * (i + 1),
                                   0.06 - 0.01 * i))
    return registry


def test_env_states_keep_their_values_after_later_steps(tmp_path):
    """Each returned state is a read-only copy: the window shifts in place
    on every step, so a view of it would change under the caller."""
    env = StreamingSchedulerEnv(cost_only_registry(tmp_path),
                                DeviceModel.preset("device-2"),
                                episode_len=6, k=3)
    rng = np.random.default_rng(4)
    states = [env.reset(rng)]
    done = False
    while not done:
        state, _, done = env.step(int(rng.integers(len(env.actions))))
        states.append(state)
    saved = [s.copy() for s in states]
    for _ in range(3):  # a later episode on the same env
        env.reset(rng)
        env.step(0)
    assert not states[-1].flags.writeable
    for got, want in zip(states, saved):
        np.testing.assert_array_equal(got, want)
    assert len({s.tobytes() for s in saved}) > 1


def build_state(slots, k):
    """Oracle: the state of the last k (n, c, b) slots built by hand, the
    n, c and b windows back to back, each oldest frame first and padded
    with NEUTRAL_FILL before warm-up."""
    window = [(NEUTRAL_FILL,) * 3] * (k - len(slots[-k:])) + slots[-k:]
    return [slot[i] for i in range(3) for slot in window]


@pytest.mark.parametrize("k", [1, 3, 8])
def test_env_window_equals_build_state_over_its_frames(tmp_path, monkeypatch,
                                                      k):
    """The env's state equals the hand-built window of the slots of the
    frames it charged, recorded the way sessions record them."""
    frames = []

    def recording_timing(payload, encode_s, decode_s, trace, send_start):
        out = frame_timing(payload, encode_s, decode_s, trace, send_start)
        frames.append({"decode_s": decode_s, "bandwidth_mbps": out[1]})
        return out

    monkeypatch.setattr(sim, "frame_timing", recording_timing)
    # slow decodes and a low mean keep the compute and bandwidth terms
    # below their caps
    env = StreamingSchedulerEnv(cost_only_registry(tmp_path),
                                DeviceModel.preset("device-2"),
                                mean_bandwidth_mbps=40.0, episode_len=3 * k + 5,
                                k=k)
    draw_blocks = env._blocks

    def recording_blocks():
        blocks = draw_blocks()
        frames.append({"input_points": blocks * 128,
                       "roi_points": blocks * 128})
        return blocks

    env._blocks = recording_blocks
    rng = np.random.default_rng(k)
    for episode in range(3):
        frames.clear()
        state = env.reset(rng)
        slots = []
        assert state.tolist() == [NEUTRAL_FILL] * (3 * k)
        done = False
        while not done:
            state, _, done = env.step(int(rng.integers(len(env.actions))))
            slots.append(state_slot(**frames[-2], **frames[-1]))
            assert state.tolist() == build_state(slots, k)
        assert len(slots) > k
    _, c_hist, b_hist = state.reshape(3, k)
    assert 0.0 < c_hist.min() and c_hist.max() < 1.0
    assert 0.0 < b_hist.min() and b_hist.max() < 1.0


def test_env_rejects_nonpositive_window(tmp_path):
    with pytest.raises(ValueError, match="k must be >= 1"):
        StreamingSchedulerEnv(cost_only_registry(tmp_path),
                              DeviceModel.preset("device-2"), k=0)


@pytest.mark.parametrize("episode_len", [0, -3])
def test_env_rejects_an_episode_shorter_than_one_step(tmp_path, episode_len):
    with pytest.raises(ValueError, match="episode_len must be >= 1"):
        StreamingSchedulerEnv(cost_only_registry(tmp_path),
                              DeviceModel.preset("device-2"),
                              episode_len=episode_len)


@pytest.mark.parametrize("actions", [("4x4-q8", "8x8-q8", "16x16-q8"),
                                     ("16x16-q8", "4x4-q8"),
                                     ("4x4-q8", "4x4-q16", "8x8-q8", "8x8-q16",
                                      "16x16-q8", "16x16-q16")])
def test_scheduler_training_rejects_actions_out_of_the_env_order(tmp_path,
                                                                 actions):
    """The env names its actions in sorted id order; a net trained under
    another order would call the env's "16x16-q8" action "4x4-q8"."""
    registry = cost_only_registry(tmp_path)
    env = StreamingSchedulerEnv(registry, DeviceModel.preset("device-2"),
                                episode_len=2)
    assert env.actions == ("16x16-q8", "4x4-q8", "8x8-q8")
    with pytest.raises(ValueError, match="environment actions"):
        train_scheduler(lambda w: env, epochs=1, hidden=4, actions=actions)
    trained = train_scheduler(lambda w: env, epochs=1, hidden=4,
                              actions=env.actions)
    assert trained.net.actions == env.actions


def test_env_step_before_reset_raises(tmp_path):
    env = StreamingSchedulerEnv(cost_only_registry(tmp_path),
                                DeviceModel.preset("device-2"), episode_len=4)
    with pytest.raises(RuntimeError, match="needs a reset before step"):
        env.step(0)


@pytest.mark.parametrize("action", [-1, 3])
def test_env_step_rejects_an_action_out_of_range(tmp_path, action):
    """A negative index would charge and reward the last model."""
    def fresh_env():
        env = StreamingSchedulerEnv(cost_only_registry(tmp_path),
                                    DeviceModel.preset("device-2"),
                                    episode_len=4)
        env.reset(np.random.default_rng(1))
        return env

    env = fresh_env()
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        env.step(action)
    # the rejected step charged nothing
    state, rew, done = env.step(0)
    want_state, want_rew, want_done = fresh_env().step(0)
    assert state.tolist() == want_state.tolist()
    assert (rew, done) == (want_rew, want_done)
