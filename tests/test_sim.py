import json
import math

import numpy as np
import pytest

from pcvstream.cloud import PointCloud
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
    StreamingSchedulerEnv, frame_timing, generate_scene, measure_block_costs,
    pipeline_fps, run_session, transmit_time,
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
    payload, encode_s, decode_s = entry.frame_costs(10, DeviceModel("x2", 2.0))
    assert payload == 10 * (64 * 4 + 16)
    assert encode_s == pytest.approx(2e-3)
    assert decode_s == pytest.approx(5e-4)  # twice the reference speed


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
])
def test_registry_entry_rejects_bad_measurements(field, value, message):
    values = {"encode_cost_s": 2e-4, "decode_cost_s": 1e-4, "test_cd": 0.05}
    values[field] = value
    with pytest.raises(ValueError, match=f"model '8x8-q8': {message}"):
        RegistryEntry("8x8-q8", "unused.iscm", 64, 8, **values)
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


# ---------------------------------------------------------------------------
# registry

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
            enc_s, dec_s = measure_block_costs(q, repeats=3)
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
    with pytest.raises(KeyError):
        run_session(scene, "fixed:nope", trace, device, registry=registry)


def test_session_rejects_a_one_frame_scene():
    scene = small_scene(frames=2)
    one = Scene(scene.frames[:1], scene.subject_masks[:1], scene.poses[:1],
                scene.intrinsics)
    with pytest.raises(ValueError, match="at least 2 frames"):
        run_session(one, "octree:4", constant_trace(60.0),
                    DeviceModel.preset("device-2"), roi="off")


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
    assert env.spec.accuracy_table == registry.accuracy_table()
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
    with pytest.raises(ValueError, match="k must be positive"):
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
