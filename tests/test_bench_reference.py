"""The benchmark's fixed-seed reference runs, checked in the test suite.

`perfbench/run.py` compares each workload's `reference_runs()` with the
rows committed in `perfbench/reference.json` before it measures anything.
Running the same comparison here makes a signature change or an output
change in pcvstream fail the tests, not only a benchmark run.
"""

import pytest

from conftest import load_perfbench

workloads = load_perfbench("workloads")
reference = load_perfbench("reference")


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
