"""What the benchmark's set-up and traced run need from pcvstream.

`perfbench/tracer.py` patches pcvstream helpers by name where they are
called (PATCH_POINTS) and counts a frame as ended at each `sim.pipeline_fps`
call. These checks only read `perfbench/`; they keep a refactor from
routing a frame's work around a patch point. `test_imports.py` checks that
every patch point exists.
"""

import numpy as np
import pytest

from conftest import load_perfbench
import pcvstream
from pcvstream import codec, scheduler, sim


def tiny_registry(root):
    registry = sim.ModelRegistry(root)
    model = codec.make_codec_model(16, 32, seed=16, enc_hidden=(8,),
                                   dec_hidden=(16,))
    codec.serialize(model, root / "tiny.iscm")
    registry.add(sim.RegistryEntry("tiny", "tiny.iscm", 16, 32, 1e-4, 5e-5,
                                   0.05))
    return registry


def forward_rows(spans, parent):
    """Rows processed by the nn.forward calls made inside span `parent`."""
    return sum(s[5] for s in spans.spans
               if s[0] == "nn.forward" and s[3] == parent)


def test_traced_frames_end_at_pipeline_fps(tmp_path):
    tracer = load_perfbench("tracer")
    registry = tiny_registry(tmp_path)
    scene = sim.generate_scene(rooms=1, frames=3, subject_points=150,
                               background_points=1200, seed=5)
    trace = sim.NetworkTrace.preset("4g", seed=5)
    device = sim.DeviceModel.preset("device-3")
    for policy in ("fixed:tiny", "octree:6"):
        spans = tracer.Tracer()
        with tracer.traced(pcvstream, spans):
            session = sim.run_session(scene, policy, trace, device, registry,
                                      roi="on", seed=5)
        for rec in session.records:
            names = [s[0] for s in spans.spans if s[4] == rec.frame_idx]
            assert names[-1] == "sim.pipeline_fps", (policy, names)
            assert names.count("sim.transmit_time") == 1
            assert names.count("cloud.nearest_distances") == 2
            if policy.startswith("octree:"):
                assert names.count("codec.octree_encode") == 1
                assert names.count("codec.octree_decode") == 1
            if policy.startswith("fixed:"):
                frame = [(i, s) for i, s in enumerate(spans.spans)
                         if s[4] == rec.frame_idx]
                chunks = [s[5] for _, s in frame
                          if s[0] == "codec.chunk_blocks"]
                enc = [i for i, s in frame if s[0] == "codec.encode"]
                dec = [i for i, s in frame if s[0] == "codec.decode"]
                assert len(chunks) == len(enc) == len(dec) == 1
                # every block of the frame goes through the decoder's
                # nn.forward calls, and through the encoder's: those of its
                # hidden layers where encode proves the encoder finite and
                # pools before the last layer's bias, else the whole encoder
                assert forward_rows(spans, enc[0]) == chunks[0] * 32
                assert forward_rows(spans, dec[0]) == chunks[0]


def test_traced_drl_decisions_fall_on_the_frames_they_serve(tmp_path):
    tracer = load_perfbench("tracer")
    registry = tiny_registry(tmp_path)
    scene = sim.generate_scene(rooms=1, frames=4, subject_points=150,
                               background_points=1200, seed=5)
    net = scheduler.ActorCritic.create(actions=("tiny",), seed=5)
    spans = tracer.Tracer()
    with tracer.traced(pcvstream, spans):
        session = sim.run_session(scene, "drl",
                                  sim.NetworkTrace.preset("4g", seed=5),
                                  sim.DeviceModel.preset("device-3"),
                                  registry, policy_net=net, roi="on", seed=5)
    assert [rec.frame_idx for rec in session.records] == [1, 2, 3]
    frames = [s[4] for s in spans.spans if s[0] == "scheduler.policy"]
    assert frames == [2, 3]


def test_a_replay_of_made_trips_records_no_geometry_span(tmp_path):
    """Once a frame's trips are made, replaying it under any policy is
    counts and timing only; each frame still sends once and ends at
    `sim.pipeline_fps`."""
    tracer = load_perfbench("tracer")
    registry = tiny_registry(tmp_path)
    scene = sim.generate_scene(rooms=1, frames=4, subject_points=150,
                               background_points=1200, seed=5)
    geometry = list(sim.scene_geometry(scene, "on", registry, seed=5))
    for geo in geometry:
        geo.trip("tiny")
        geo.trip("octree:6")
    net = scheduler.ActorCritic.create(actions=("tiny",), seed=5)
    for policy in ("fixed:tiny", "octree:6", "drl"):
        spans = tracer.Tracer()
        with tracer.traced(pcvstream, spans):
            records = sim.replay(geometry, policy,
                                 sim.NetworkTrace.preset("4g", seed=5),
                                 sim.DeviceModel.preset("device-3"),
                                 registry, net)
        names = [s[0] for s in spans.spans]
        assert len(records) == len(geometry) == 3
        for name in ("roi.select_roi", "codec.encode", "codec.decode",
                     "codec.octree_encode", "cloud.nearest_distances"):
            assert name not in names, (policy, name)
        assert names.count("sim.transmit_time") == len(geometry)
        assert names.count("sim.pipeline_fps") == len(geometry)


def test_traced_scheduler_training_spans_one_per_step(tmp_path):
    tracer = load_perfbench("tracer")
    registry = tiny_registry(tmp_path)
    registry.add(sim.RegistryEntry("tiny-2", "tiny.iscm", 16, 32, 2e-4,
                                   1e-4, 0.04))
    device = sim.DeviceModel.preset("device-3")
    workers, epochs, episode = 2, 3, 5
    spans = tracer.Tracer()
    with tracer.traced(pcvstream, spans):
        scheduler.train_scheduler(
            lambda w: sim.StreamingSchedulerEnv(registry, device,
                                                episode_len=episode),
            workers=workers, epochs=epochs, hidden=8,
            actions=tuple(sorted(registry.entries)), seed=5)
    names = [s[0] for s in spans.spans]
    steps = workers * epochs * episode
    assert names.count("sim.env_step") == steps
    assert names.count("sim.transmit_time") == steps
    assert names.count("scheduler.policy") == steps
    assert names.count("scheduler.a3c_gradients") == workers * epochs
    # each episode's steps come before the gradient batch they feed
    episodes = "".join("s" if n == "sim.env_step" else "g" for n in names
                       if n in ("sim.env_step", "scheduler.a3c_gradients"))
    assert episodes == ("s" * episode + "g") * (workers * epochs)


def test_traced_codec_train_runs_the_networks_once_per_batch():
    tracer = load_perfbench("tracer")
    model = codec.make_codec_model(16, 32, seed=6, enc_hidden=(8,),
                                   dec_hidden=(16,))
    data = codec.toy_block_dataset(2 * codec.TRAIN_BATCH + 1, 32, seed=6)
    spans = tracer.Tracer()
    with tracer.traced(pcvstream, spans):
        codec.train(model, data, epochs=1, seed=6)
    train_span = [i for i, s in enumerate(spans.spans)
                  if s[0] == "codec.train"]
    assert len(train_span) == 1
    calls = "".join({"nn.forward": "f", "nn.backward": "b"}[s[0]]
                    for s in spans.spans
                    if s[0] in ("nn.forward", "nn.backward"))
    # encoder and decoder forward, then decoder and encoder backward, for
    # each of the 3 batches: never once per sample
    assert calls == "ffbb" * 3
    assert all(s[3] == train_span[0] for s in spans.spans
               if s[0] in ("nn.forward", "nn.backward"))


def test_a_bench_scene_builds_only_the_frames_it_keeps(monkeypatch):
    """`workloads.make_scene` cuts a generated room to the frames a session
    streams plus the flow seed frame. It builds no frame: a session over
    the cut scene builds each of those frames once."""
    workloads = load_perfbench("workloads")
    built = []
    point_cloud = sim.PointCloud

    def counted(*args, **kwargs):
        cloud = point_cloud(*args, **kwargs)
        built.append(cloud.frame_index)
        return cloud

    monkeypatch.setattr(sim, "PointCloud", counted)
    scene = workloads.make_scene(seed=3)
    keep = workloads.STREAMED_FRAMES + 1
    assert len(scene.frames) == keep
    assert built == []
    sim.run_session(scene, workloads.OCTREE_POLICY,
                    sim.NetworkTrace.preset(workloads.TRACE_PRESET, seed=3),
                    sim.DeviceModel.preset(workloads.DEVICE), seed=3)
    assert sorted(built) == list(range(keep))


@pytest.mark.parametrize("model_id",
                         sorted(load_perfbench("workloads").REGISTRY))
def test_bench_quantize_is_quantize_model(tmp_path, model_id):
    """`workloads._quantize` repeats `codec.quantize_model` for the
    benchmark's registry: both give the same layers and file bytes."""
    workloads = load_perfbench("workloads")
    latent, bits = workloads.REGISTRY[model_id][:2]
    bench, want = (codec.make_codec_model(latent, workloads.BLOCK_POINTS,
                                          seed=latent) for _ in range(2))
    workloads._quantize(bench, bits)
    codec.quantize_model(want, bits)
    assert bench.dtype == want.dtype == f"q{bits}"
    for got, exp in zip(bench.dense_layers(), want.dense_layers()):
        np.testing.assert_array_equal(got.weights, exp.weights)
        np.testing.assert_array_equal(got.bias, exp.bias)
    codec.serialize(bench, tmp_path / "bench.iscm")
    codec.serialize(want, tmp_path / "want.iscm")
    assert (tmp_path / "bench.iscm").read_bytes() == \
        (tmp_path / "want.iscm").read_bytes()
