"""Shared test helpers."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

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
