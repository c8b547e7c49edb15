"""The benchmark's fixed-seed reference runs, checked in the test suite.

`perfbench/run.py` compares each workload's `reference_runs()` with the
rows committed in `perfbench/reference.json` before it measures anything.
Running the same comparison here makes a signature change or an output
change in pcvstream fail the tests, not only a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_module(name):
    """Import perfbench/<name>.py under a private name. The module goes into
    sys.modules before it runs, so that its dataclasses can resolve their
    own module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_bench_module("workloads")
reference = load_bench_module("reference")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_runs_match_the_committed_rows(tmp_path, name):
    workload = workloads.make(name, workloads.REFERENCE_SEED)
    workload.setup(tmp_path)
    actual = workload.reference_runs()
    expected = reference.load(name)
    assert sorted(actual) == sorted(expected)
    for label, rows in expected.items():
        problems = [why for why in reference.mismatches(actual[label], rows)
                    if why is not None]
        assert not problems, (label, problems)
