"""Every entry point checks its counts with `_util.check_count`, its
positive reals with `_util.check_positive` and its other reals with
`_util.check_real` before their range checks: a bool, a float count, a
value that is not a number and an out-of-range value each raise a
ValueError that names the argument, before any weight, point or trace is
drawn."""

import math
import re

import numpy as np
import pytest

from pcvstream._util import check_count, check_positive, check_real
from pcvstream.cloud import Intrinsics, PointCloud, partition
from pcvstream.codec import (
    PruneConfig, chunk_blocks, make_codec_model, octree_encode,
    toy_block_dataset, train,
)
from pcvstream.roi import RoiConfig
from pcvstream.scheduler import ActorCritic, StateWindow, train_scheduler
from pcvstream.sim import (
    DeviceModel, ModelRegistry, NetworkTrace, RegistryEntry,
    StreamingSchedulerEnv, generate_scene,
)

CLOUD = PointCloud(np.arange(15.0).reshape(5, 3))


def no_environment(worker):
    raise AssertionError("built an environment")


def registry():
    reg = ModelRegistry("unused")
    reg.add(RegistryEntry("4x4-q8", "4x4-q8.iscm", 16, 8, 1e-4, 1e-4, 0.05))
    return reg


def entry(**values):
    return RegistryEntry(**({"model_id": "m", "file": "m.iscm",
                             "latent_dim": 16, "bits": 8,
                             "encode_cost_s": 1e-4, "decode_cost_s": 1e-4,
                             "test_cd": 0.05} | values))


def scene(**counts):
    return generate_scene(**({"rooms": 1, "frames": 3, "subject_points": 20,
                              "background_points": 100} | counts))


def codec_model(**args):
    return make_codec_model(**({"latent_dim": 8, "n_points": 16} | args))


# built here: its weights are drawn, and the checks run where draws fail
MODEL = codec_model()


# (site, argument, lowest count, call with the value); the error names the
# argument, after the site's prefix if it has one
COUNTS = [
    ("RoiConfig", "R", 1, lambda v: RoiConfig(R=v)),
    ("RoiConfig", "sub_bins", 1, lambda v: RoiConfig(sub_bins=v)),
    ("PruneConfig", "rounds", 1, lambda v: PruneConfig(rounds=v)),
    ("PruneConfig", "finetune_epochs", 0,
     lambda v: PruneConfig(finetune_epochs=v)),
    ("make_codec_model", "latent_dim", 1,
     lambda v: codec_model(latent_dim=v)),
    ("make_codec_model", "n_points", 1, lambda v: codec_model(n_points=v)),
    ("make_codec_model", "enc_hidden", 1,
     lambda v: codec_model(enc_hidden=(8, v))),
    ("make_codec_model", "dec_hidden", 1,
     lambda v: codec_model(dec_hidden=(v,))),
    ("train", "epochs", 0,
     lambda v: train(MODEL, np.zeros((2, 16, 3)), epochs=v)),
    ("toy_block_dataset", "count", 1, lambda v: toy_block_dataset(v, 16)),
    ("toy_block_dataset", "n_points", 1, lambda v: toy_block_dataset(2, v)),
    ("chunk_blocks", "n_points", 1, lambda v: chunk_blocks(CLOUD.points, v)),
    ("octree_encode", "depth", 1, lambda v: octree_encode(CLOUD, v)),
    ("PointCloud", "frame_index", 0,
     lambda v: PointCloud(CLOUD.points, frame_index=v)),
    ("StateWindow", "k", 1, lambda v: StateWindow(v)),
    ("ActorCritic.create", "k", 1,
     lambda v: ActorCritic.create(("a", "b"), k=v)),
    ("ActorCritic.create", "hidden", 1,
     lambda v: ActorCritic.create(("a", "b"), hidden=v)),
    ("train_scheduler", "workers", 1,
     lambda v: train_scheduler(no_environment, workers=v)),
    ("train_scheduler", "epochs", 0,
     lambda v: train_scheduler(no_environment, epochs=v)),
    ("generate_scene", "rooms", 1, lambda v: scene(rooms=v)),
    ("generate_scene", "frames", 2, lambda v: scene(frames=v)),
    ("generate_scene", "subject_points", 0,
     lambda v: scene(subject_points=v)),
    ("generate_scene", "background_points", 0,
     lambda v: scene(background_points=v)),
    ("StreamingSchedulerEnv", "episode_len", 1,
     lambda v: StreamingSchedulerEnv(registry(), DeviceModel("x", 1.0),
                                     episode_len=v)),
    ("RegistryEntry", "model 'm': latent_dim", 1,
     lambda v: entry(latent_dim=v)),
    ("RegistryEntry", "model 'm': bits", 1, lambda v: entry(bits=v)),
]

# (site, argument, call with the value)
POSITIVES = [
    ("RoiConfig", "coarse_cell_size",
     lambda v: RoiConfig(coarse_cell_size=v)),
    ("RoiConfig", "fine_cell_size", lambda v: RoiConfig(fine_cell_size=v)),
    ("PruneConfig", "loss_threshold",
     lambda v: PruneConfig(loss_threshold=v)),
    ("partition", "cell_size", lambda v: partition(CLOUD, v)),
    ("Intrinsics", "aspect", lambda v: Intrinsics(aspect=v)),
    ("RegistryEntry", "model 'm': test_cd", lambda v: entry(test_cd=v)),
    ("DeviceModel", "compute_scale", lambda v: DeviceModel("x", v)),
    ("NetworkTrace.fluctuating", "duration_s",
     lambda v: NetworkTrace.fluctuating(25.0, duration_s=v)),
]

# (site, argument, call with the value) of reals that a range check follows
REALS = [("RoiConfig", name, lambda v, name=name: RoiConfig(**{name: v}))
         for name in ("coarse_keep_fraction", "beta", "lambda_", "r_min",
                      "r_max")]

CASES = [(site, name, value, call, what)
         for site, name, low, call in COUNTS
         for value, what in ((True, "an integer"), (2.5, "an integer"),
                             (low - 1, f">= {low}"))] + [
    (site, name, value, call, "finite and positive")
    for site, name, call in POSITIVES
    for value in (True, 0.0, -1.0, math.nan)] + [
    (site, name, value, call, "a real number")
    for site, name, call in REALS
    for value in (True, False, "0.5", None)]


@pytest.mark.parametrize(
    "site, name, value, call, what", CASES,
    ids=[f"{site}-{name.split()[-1]}-{value!r}"
         for site, name, value, _, _ in CASES])
def test_entry_points_reject_bad_counts_and_reals_before_any_work(
        monkeypatch, site, name, value, call, what):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew from a generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'{name} must be {what}, got ')}"):
        call(value)


def test_numpy_numbers_are_accepted_as_counts_and_reals():
    """A Python-int-only check rejected np.int64 counts in RoiConfig and
    PruneConfig."""
    assert RoiConfig(R=np.int64(6), sub_bins=np.int64(2),
                     fine_cell_size=np.float64(0.25), beta=np.float64(0.5),
                     r_max=np.int64(1)) == RoiConfig()
    assert PruneConfig(rounds=np.int64(5), finetune_epochs=np.int64(4),
                       loss_threshold=np.float32(0.5)).rounds == 5
    assert make_codec_model(np.int64(8), np.int64(16), enc_hidden=(
        np.int64(8),), dec_hidden=(np.int32(8),)).latent_dim == 8
    assert DeviceModel("x", np.float64(2.0)).decode_time(1.0) == 0.5


@pytest.mark.parametrize("value", [np.bool_(True), "3", None, 3 + 0j])
def test_check_count_rejects_what_is_not_an_integer(value):
    with pytest.raises(ValueError, match=r"^n must be an integer, got "):
        check_count("n", value)


@pytest.mark.parametrize("value", [np.bool_(True), "3", None, 3 + 0j,
                                   math.inf, np.float32("inf")])
def test_check_positive_rejects_what_is_not_a_finite_positive_real(value):
    with pytest.raises(ValueError,
                       match=r"^x must be finite and positive, got "):
        check_positive("x", value)


@pytest.mark.parametrize("value", [np.bool_(True), "0.5", None, 0.5 + 0j])
def test_check_real_rejects_what_is_not_a_real_number(value):
    with pytest.raises(ValueError, match=r"^x must be a real number, got "):
        check_real("x", value)
