"""pcvstream benchmark entry point.

    python3 perfbench/run.py --workload stream-roi --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Prints every metric with its unit, then, as
the last line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. `--write-reference` re-records
perfbench/reference.json instead of measuring. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import bootstrap

PCV = bootstrap.prepare()

import layers  # noqa: E402  (after prepare: they import numpy and pcvstream)
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
OUT_DIR = bootstrap.BENCH_DIR / "out"
SPEC_FILE = bootstrap.ROOT / "BENCHMARK.json"

STREAMS = ("stream-roi", "stream-full")
# end-to-end metric -> the workloads that exercise it
END_TO_END = {
    "setup_s": workloads.WORKLOADS,
    "frames_per_s": STREAMS,
    "codec_train_samples_per_s": ("train",),
    "sched_train_steps_per_s": ("train",),
    "peak_rss_mb": workloads.WORKLOADS,
    "sim_fps_mean": STREAMS,
    "cd_mean": STREAMS,
    "codec_train_loss_final": ("train",),
    "sched_reward_final": ("train",),
}
# Every end-to-end metric is printed on every workload. One the workload
# does not exercise reads this constant, so parent and child always agree.
NOT_EXERCISED = 1.0
ERRORS_SHOWN = 10


class Ledger:
    """Operations attempted and failed, plus problems that are not tied to
    an operation (a patch left in place, a non-finite metric)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def problem(self, message) -> None:
        if len(self.errors) < ERRORS_SHOWN:
            print(f"perfbench: {message}", file=sys.stderr)
        self.errors.append(message)

    def check(self, label, rows, expected) -> None:
        for i, why in enumerate(reference.mismatches(rows, expected)):
            self.attempted += 1
            if why is not None:
                self.failed += 1
                self.problem(f"{label} row {i}: {why}")

    def raised(self, label, ops) -> None:
        if len(self.errors) < ERRORS_SHOWN:
            traceback.print_exc()
        self.attempted += ops
        self.failed += ops
        self.problem(f"{label} raised")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


@contextmanager
def checked_tracing(span_tracer, ledger):
    """Trace the block; afterwards, confirm every patch point was
    restored."""
    with tracer.traced(PCV, span_tracer) as saved:
        yield
    for owner, attr, original in saved:
        if vars(owner)[attr] is not original:
            ledger.problem(f"{owner.__name__}.{attr} was not restored")


def timed_setup(workload, work_dir: Path) -> float:
    """Median wall time of SETUP_REPEATS set-ups; the last one is kept."""
    times = []
    for i in range(SETUP_REPEATS):
        root = work_dir / f"registry-{i}"
        root.mkdir()
        start = time.perf_counter()
        workload.setup(root)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def check_reference(workload, ledger) -> None:
    """Compare the fixed-seed reference runs with the committed records."""
    expected = reference.load(workload.name)
    try:
        actual = workload.reference_runs()
    except Exception:
        ledger.raised("reference runs", sum(map(len, expected.values())))
        return
    for label in sorted(set(expected) | set(actual)):
        ledger.check(f"reference {label}", actual.get(label, []),
                     expected.get(label, []))


def measure(workload, seconds, ledger, first_pass) -> dict:
    """Repeat the workload's cycle of units for `seconds`, and at least once.

    Returns {phase: {unit index: [Unit, ...]}}. Each unit's first pass is
    stored in `first_pass`; later passes of the same unit must reproduce it.
    """
    done = {phase: {} for phase in workload.phases}
    cycle, i = workload.cycle, 0
    deadline = time.perf_counter() + seconds
    while i < len(cycle) or time.perf_counter() < deadline:
        phase, k = key = cycle[i % len(cycle)]
        i += 1
        label = f"{phase} unit {k}"
        try:
            unit = workload.run(phase, k)
        except Exception:
            ledger.raised(label, workload.unit_ops(phase))
            continue
        ledger.check(label, unit.rows, first_pass.setdefault(key, unit.rows))
        done[phase].setdefault(k, []).append(unit)
    return done


def rate(passes: dict) -> float:
    """Work per second over one pass of every unit, taking each unit's time
    as its median over the passes made."""
    work = sum(units[0].work for units in passes.values())
    seconds = sum(statistics.median(u.seconds for u in units)
                  for units in passes.values())
    return work / seconds if seconds else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seconds, ledger, work_dir) -> dict:
    values = {"setup_s": timed_setup(workload, work_dir)}
    check_reference(workload, ledger)  # also the warm-up
    first_pass = {}
    units = measure(workload, seconds, ledger, first_pass)
    for phase in workload.phases:
        values[phase] = rate(units[phase])
    values.update(workload.quality(first_pass))
    values["peak_rss_mb"] = peak_rss_mb()
    return values


def run_traced(workload, seed, seconds, ledger, work_dir) -> dict:
    """Half the time untraced, half traced; per-layer metrics come from the
    traced half, whose outputs must equal the untraced half's."""
    setup_spans = tracer.Tracer()
    with checked_tracing(setup_spans, ledger):
        timed_setup(workload, work_dir)
    with checked_tracing(tracer.Tracer(), ledger):
        check_reference(workload, ledger)

    first_pass = {}
    untraced = measure(workload, seconds / 2, ledger, first_pass)
    spans = tracer.Tracer()
    with checked_tracing(spans, ledger):
        traced = measure(workload, seconds / 2, ledger, first_pass)
    frame_rows = [row for units in traced[workload.phases[0]].values()
                  for u in units for row in u.rows] if workload.streams else []

    values = layers.layer_metrics(spans.spans, frame_rows, setup_spans.spans,
                                  SETUP_REPEATS)
    slowdowns = [rate(untraced[p]) / rate(traced[p])
                 for p in workload.phases if traced[p]]
    values["trace_overhead_frac"] = \
        statistics.geometric_mean(slowdowns) - 1.0 if slowdowns else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    spans.write_csv(OUT_DIR / f"spans-{workload.name}-seed{seed}.csv")
    return values


def end_to_end_values(workload_name, measured) -> dict:
    exercised = {m for m, names in END_TO_END.items() if workload_name in names}
    if set(measured) != exercised:
        raise RuntimeError(f"measured {sorted(measured)}, "
                           f"expected {sorted(exercised)}")
    return {m: measured.get(m, NOT_EXERCISED) for m in END_TO_END}


def report(spec_metrics, values, ledger, header, skipped=()) -> None:
    """Print the metrics table, then the result line.

    `skipped` names metrics the workload does not exercise."""
    names = [m["name"] for m in spec_metrics]
    if set(values) != set(names):
        sys.exit("perfbench: metric names differ from BENCHMARK.json: "
                 f"{sorted(set(values) ^ set(names))}")
    for line in header:
        print(f"# {line}")
    metrics = {}
    for m in spec_metrics:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            ledger.problem(f"{m['name']} is {value}")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = "not exercised by this workload" if m["name"] in skipped \
            else f"{m['better']} is better"
        print(f"{m['name']:<44} {value:>14.6g} {m['unit']:<12} {note}")
    print(f"# operations attempted={ledger.attempted} failed={ledger.failed}")
    print(json.dumps({"correct": ledger.correct,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": metrics}))


def write_reference() -> None:
    runs = {}
    with tempfile.TemporaryDirectory(prefix=".work-",
                                     dir=bootstrap.BENCH_DIR) as tmp:
        for name in workloads.WORKLOADS:
            workload = workloads.make(name, workloads.REFERENCE_SEED)
            root = Path(tmp) / name
            root.mkdir()
            workload.setup(root)
            runs[name] = workload.reference_runs()
    reference.store(runs)
    print(f"wrote {reference.REFERENCE_FILE}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.write_reference:
        write_reference()
        return
    with open(SPEC_FILE) as fh:
        spec = json.load(fh)
    workload = workloads.make(args.workload, args.seed)
    ledger = Ledger()
    skipped = ()
    with tempfile.TemporaryDirectory(prefix=".work-",
                                     dir=bootstrap.BENCH_DIR) as tmp:
        if args.trace:
            values = run_traced(workload, args.seed, args.seconds, ledger,
                                Path(tmp))
        else:
            values = end_to_end_values(
                args.workload,
                run_untraced(workload, args.seconds, ledger, Path(tmp)))
            skipped = [m for m, names in END_TO_END.items()
                       if args.workload not in names]
    host = " ".join(f"{k}={v}" for k, v in bootstrap.host_info().items())
    header = [f"workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}",
              f"host {host}"]
    report(spec["per_layer" if args.trace else "end_to_end"], values, ledger,
           header, skipped)


if __name__ == "__main__":
    main()
