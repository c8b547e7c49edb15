"""What the benchmark's traced run needs from pcvstream.

`perfbench/tracer.py` patches pcvstream helpers by name where they are
called (PATCH_POINTS) and counts a frame as ended at each `sim.pipeline_fps`
call. These checks only read `perfbench/`; they keep a refactor from
removing a patch point or routing a frame's work around one.
"""

import importlib
import importlib.util
from pathlib import Path

import pcvstream
from pcvstream import codec, scheduler, sim

TRACER_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves_through_vars():
    missing = []
    for module, path, _ in load_tracer().PATCH_POINTS:
        owner = vars(importlib.import_module(f"pcvstream.{module}"))
        *classes, attr = path.split(".")
        for name in classes:
            owner = vars(owner.get(name, object))
        if not callable(owner.get(attr)):
            missing.append(f"{module}.{path}")
    assert not missing, f"patch points missing from pcvstream: {missing}"


def tiny_registry(root):
    registry = sim.ModelRegistry(root)
    model = codec.make_codec_model(16, 32, seed=16, enc_hidden=(8,),
                                   dec_hidden=(16,))
    codec.serialize(model, root / "tiny.iscm")
    registry.add(sim.RegistryEntry("tiny", "tiny.iscm", 16, 32, 1e-4, 5e-5,
                                   0.05))
    return registry


def test_traced_frames_end_at_pipeline_fps(tmp_path):
    tracer = load_tracer()
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
                chunks = [s[5] for s in spans.spans
                          if s[4] == rec.frame_idx
                          and s[0] == "codec.chunk_blocks"]
                assert chunks == [names.count("codec.encode")]
                assert names.count("codec.decode") == chunks[0]


def test_traced_drl_decisions_fall_on_the_frames_they_serve(tmp_path):
    tracer = load_tracer()
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
