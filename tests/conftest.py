"""Shared test helpers."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from pcvstream.codec import ENCODE_CHUNK_BLOCKS
from pcvstream.nn import NumericsError
from pcvstream.sim import generate_scene

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py, imported once under the private name
    `perfbench_<name>`. The module goes into sys.modules before it runs, so
    that its dataclasses can resolve their own module, and every later call
    returns that one module."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key,
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[key]  # a later call retries the import
            raise
    return sys.modules[key]


def traced_bytes(fn):
    """(fn(), kept, peak): the bytes that tracemalloc sees fn's run keep
    while its result is alive, and the most it held at once. numpy's
    first-call set-up runs before tracing starts, so it is not counted."""
    generate_scene(rooms=1, frames=2, seed=1).frames[0]
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def block_indices(grid, row):
    """Point indices of one block row of a `cloud.BlockGrid`, ascending."""
    return grid.order[grid.offsets[row]:grid.offsets[row + 1]]


def scanned_forward(layers, x):
    """`nn.forward`'s output with every layer's output scanned, the
    reference for its proven path: a new array per ReLU and bias, and
    NumericsError("non-finite values in layer i output") at the first
    layer whose output is not finite."""
    x = np.asarray(x, dtype=np.float64)
    for i, layer in enumerate(layers):
        if i:
            x = np.maximum(x, 0.0)
        x = (x.reshape(-1, x.shape[-1]) @ layer.weights.T).reshape(
            *x.shape[:-1], -1) + layer.bias
        if not np.isfinite(x).all():
            raise NumericsError(f"non-finite values in layer {i} output")
    return x


def scanned_encode(model, blocks):
    """`codec.encode` with the last bias added to every point and every
    layer scanned, the reference for its pooled bias: every chunk of
    ENCODE_CHUNK_BLOCKS blocks through `scanned_forward`, then the
    max-pool."""
    return np.concatenate([
        scanned_forward(model.encoder,
                        blocks[i:i + ENCODE_CHUNK_BLOCKS]).max(axis=-2)
        for i in range(0, len(blocks), ENCODE_CHUNK_BLOCKS)])


def outcome(fn, *args):
    """fn(*args) as bytes, or the message of the NumericsError it raised,
    so that two paths compare in one assert."""
    try:
        return np.asarray(fn(*args)).tobytes()
    except NumericsError as exc:
        return f"NumericsError: {exc}"
