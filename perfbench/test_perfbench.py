"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They use scenes of 2k points, so they take seconds, not a benchmark run.
"""

import bootstrap

PCV = bootstrap.prepare()

import json  # noqa: E402
import math  # noqa: E402

import pytest  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pcvstream import scheduler, sim  # noqa: E402

POLICIES = (workloads.CODEC_POLICY, workloads.OCTREE_POLICY, "drl")


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    return workloads.build_registry(tmp_path_factory.mktemp("registry"))


def small_sessions(registry, policies=POLICIES):
    scene = sim.generate_scene(rooms=1, frames=4, subject_points=200,
                               background_points=1800, seed=5)
    trace = sim.NetworkTrace.preset(workloads.TRACE_PRESET, seed=5)
    net = scheduler.ActorCritic.create(actions=tuple(sorted(registry.entries)),
                                       seed=5)
    device = sim.DeviceModel.preset(workloads.DEVICE)
    return {policy: workloads.session_rows(sim.run_session(
        scene, policy, trace, device, registry, policy_net=net, roi="on",
        seed=5)) for policy in policies}


def patch_targets():
    return [tracer.resolve(PCV, module, path)
            for module, path, _ in tracer.PATCH_POINTS]


def test_traced_run_restores_every_patched_attribute():
    before = [vars(owner)[attr] for owner, attr in patch_targets()]
    spans = tracer.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.traced(PCV, spans):
            assert all(vars(owner)[attr] is not original for
                       (owner, attr), original in zip(patch_targets(), before))
            1 / 0
    after = [vars(owner)[attr] for owner, attr in patch_targets()]
    assert all(a is b for a, b in zip(after, before))


def test_traced_and_untraced_runs_produce_identical_records(registry):
    untraced = small_sessions(registry)
    spans = tracer.Tracer()
    with tracer.traced(PCV, spans):
        traced = small_sessions(registry)
    assert traced == untraced
    names = {span[0] for span in spans.spans}
    assert {"roi.select_roi", "codec.encode", "codec.octree_decode",
            "cloud.nearest_distances", "nn.forward"} <= names


def test_traced_counts_match_the_pipeline(registry):
    spans = tracer.Tracer()
    with tracer.traced(PCV, spans):
        rows = small_sessions(registry, (workloads.CODEC_POLICY,))
    frame_rows = rows[workloads.CODEC_POLICY]
    got = layers.layer_metrics(spans.spans, frame_rows, [], 1)
    assert got["roi.estimate_flow.calls_per_frame"] == 2
    assert got["cloud.nearest_distances.calls_per_frame"] == 4
    assert got["codec.encode.calls_per_frame"] == got["codec.blocks_per_frame"]
    assert got["roi.select_roi.n"] == len(frame_rows)
    frames = [span[4] for span in spans.spans if span[0] == "roi.select_roi"]
    assert frames == [row[0] for row in frame_rows]


def test_reference_check_rejects_a_perturbed_record():
    rows = reference.load("stream-roi")[f"{workloads.CODEC_POLICY}/roi-on"]
    assert reference.mismatches(rows, rows) == [None] * len(rows)
    cols = sim.CSV_COLUMNS
    for col, change in (("roi_points", lambda v: v + 1),
                        ("model_id", lambda v: "8x8-q8"),
                        ("cd", lambda v: v * (1 + 1e-5)),
                        ("hd", lambda v: math.nan)):
        perturbed = [list(row) for row in rows]
        i = cols.index(col)
        perturbed[-1][i] = change(perturbed[-1][i])
        found = reference.mismatches(perturbed, rows)
        assert found[:-1] == [None] * (len(rows) - 1)
        assert found[-1] is not None, col
    assert reference.mismatches(rows[:-1], rows)[-1] is not None
    reassociated = [list(row) for row in rows]
    reassociated[0][cols.index("cd")] *= 1 + 1e-12
    assert reference.mismatches(reassociated, rows) == [None] * len(rows)


def test_every_metric_name_printed_is_in_the_spec_and_back():
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert set(run.END_TO_END) == set(end_to_end)
    printed = set(layers.layer_metrics([], [], [], 1)) | {"trace_overhead_frac"}
    assert printed == set(per_layer)
    names = end_to_end + per_layer
    assert len(names) == len(set(names))
    for workload in workloads.WORKLOADS:
        exercised = [m for m, ws in run.END_TO_END.items() if workload in ws]
        values = run.end_to_end_values(workload, dict.fromkeys(exercised, 2.0))
        assert set(values) == set(end_to_end)
