"""Golden behaviour check: fixed-seed outputs of the streaming pipeline,
compared against `golden.json`.

Counts, model ids, configs and byte digests must match exactly; floats must
agree within REL_TOL, which admits reordered float arithmetic but not a
different selection, block, model or timing formula. Refresh the file only
for a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from pcvstream import codec, scheduler, sim
from pcvstream.cloud import PointCloud

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"
REL_TOL = 1e-9
ABS_TOL = 1e-15
SEED = 5
NET_SEED = 0  # an untrained policy that switches models twice in 3 frames

# model id -> (latent size, bits, encode s/block, decode s/block, test CD)
REGISTRY = {
    "4x4-q8": (16, 8, 1.1e-4, 6.0e-5, 0.060),
    "4x4-q16": (16, 16, 1.1e-4, 6.0e-5, 0.058),
    "8x8-q8": (64, 8, 1.6e-4, 6.5e-5, 0.045),
    "8x8-q16": (64, 16, 1.6e-4, 6.5e-5, 0.044),
}
SESSIONS = (  # (policy, roi)
    ("fixed:8x8-q8", "on"),
    ("fixed:8x8-q8", "off"),
    ("octree:6", "on"),
    ("octree:6", "off"),
    ("drl", "on"),
)


def build_registry(root: Path) -> sim.ModelRegistry:
    """Seeded, untrained models with pinned costs, saved and reloaded."""
    registry = sim.ModelRegistry(root)
    for model_id, (latent, bits, enc_s, dec_s, test_cd) in REGISTRY.items():
        model = codec.make_codec_model(latent, seed=latent)
        codec.quantize_model(model, bits)
        codec.serialize(model, root / f"{model_id}.iscm")
        registry.add(sim.RegistryEntry(model_id, f"{model_id}.iscm", latent,
                                       bits, enc_s, dec_s, test_cd))
    registry.save()
    return sim.ModelRegistry.load(root)


def _chunk_order(points, n_points):
    """Source index of every point in chunk_blocks' Morton order."""
    blocks, valid = codec.chunk_blocks(points, n_points)
    ordered = blocks.reshape(-1, 3)[:len(points)]
    index = {tuple(p): i for i, p in enumerate(points)}
    return [index[tuple(p)] for p in ordered], [int(v) for v in valid]


def record(root: Path) -> dict:
    registry = build_registry(root)
    scene = sim.generate_scene(rooms=1, frames=4, subject_points=200,
                               background_points=1800, seed=SEED)
    trace = sim.NetworkTrace.preset("4g", seed=SEED)
    device = sim.DeviceModel.preset("device-3")
    net = scheduler.ActorCritic.create(actions=tuple(sorted(registry.entries)),
                                       seed=NET_SEED)
    out = {"accuracy": registry.accuracy_table(), "sessions": {}}
    for policy, roi in SESSIONS:
        session = sim.run_session(scene, policy, trace, device, registry,
                                  policy_net=net, roi=roi, seed=SEED)
        out["sessions"][f"{policy}/roi-{roi}"] = {
            "config": session.config,
            "rows": [[getattr(r, c) for c in sim.CSV_COLUMNS]
                     for r in session.records]}

    # a 2 Mbps mean keeps the frame rate below f_target, so both reward
    # terms vary with the action
    env = sim.StreamingSchedulerEnv(registry, device, mean_bandwidth_mbps=2.0,
                                    episode_len=6)
    state = env.reset(np.random.default_rng(SEED))
    steps = [[state.tolist(), None, False]]
    for i in range(env.episode_len):
        state, rew, done = env.step(i % len(env.actions))
        steps.append([state.tolist(), rew, done])
    out["env_rollout"] = steps

    rng = np.random.default_rng(SEED)
    cloud = rng.normal(size=(300, 3))
    stream = codec.octree_encode(PointCloud(cloud.astype(np.float32)), 8)
    out["octree_sha256"] = hashlib.sha256(stream).hexdigest()
    out["chunk_order"], out["chunk_valid"] = _chunk_order(cloud, 32)
    return out


def _diff(actual, expected, where="golden"):
    """First mismatch between two JSON-shaped values, or None."""
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return f"{where}: {actual!r}, expected {expected!r}"
        if math.isnan(expected) and math.isnan(actual):
            return None
        if not math.isclose(actual, expected, rel_tol=REL_TOL,
                            abs_tol=ABS_TOL):
            return f"{where}: {actual!r}, expected {expected!r}"
        return None
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return f"{where}: keys {sorted(actual)}, expected {sorted(expected)}"
        for key in expected:
            found = _diff(actual[key], expected[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{where}: length differs"
        for i, (a, e) in enumerate(zip(actual, expected)):
            found = _diff(a, e, f"{where}[{i}]")
            if found:
                return found
        return None
    if actual != expected or type(actual) is not type(expected):
        return f"{where}: {actual!r}, expected {expected!r}"
    return None


def _json_round_trip(value):
    return json.loads(json.dumps(value))


def _dumps(value, indent=""):
    """JSON with every list of scalars on one line."""
    inner = indent + " "
    if isinstance(value, dict):
        items = [f"{inner}{json.dumps(k)}: {_dumps(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, list) and any(isinstance(v, (list, dict))
                                       for v in value):
        items = [inner + _dumps(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value)


def test_outputs_match_golden(tmp_path):
    expected = json.loads(GOLDEN_FILE.read_text())
    actual = _json_round_trip(record(tmp_path))
    assert _diff(actual, expected) is None, _diff(actual, expected)


def test_golden_compare_rejects_a_perturbed_float():
    expected = {"rows": [[1, "m", 0.25]]}
    assert _diff({"rows": [[1, "m", 0.25 * (1 + 1e-12)]]}, expected) is None
    assert _diff({"rows": [[1, "m", 0.25 * (1 + 1e-6)]]}, expected)
    assert _diff({"rows": [[2, "m", 0.25]]}, expected)
    assert _diff({"rows": [[1, "n", 0.25]]}, expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        golden = record(Path(tmp))
    GOLDEN_FILE.write_text(_dumps(golden) + "\n")
