"""Output checks: rows compared against a reference, one row per operation.

Integer and string columns (frame, point and byte counts, model id) must be
equal. Float columns must agree within REL_TOL: loose enough for a
reassociated sum or a batched matrix product, some 1e-12 relative, and tight
enough that a different selection, block or model cannot pass. A row holding
a NaN or an infinity fails whatever the reference says.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-7
ABS_TOL = 1e-12
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def row_mismatch(actual, expected) -> str | None:
    """Why `actual` does not match `expected`, or None if it does."""
    for value in actual:
        if isinstance(value, float) and not math.isfinite(value):
            return f"non-finite value in {actual!r}"
    if len(actual) != len(expected):
        return f"{len(actual)} columns, expected {len(expected)}"
    for col, (a, e) in enumerate(zip(actual, expected)):
        if isinstance(a, float) or isinstance(e, float):
            if not math.isclose(a, e, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return f"column {col}: {a!r}, expected {e!r}"
        elif a != e:
            return f"column {col}: {a!r}, expected {e!r}"
    return None


def mismatches(actual_rows, expected_rows) -> list[str | None]:
    """One entry per actual row: None when it matches. Rows missing from
    either side fail."""
    out = []
    for i in range(max(len(actual_rows), len(expected_rows))):
        if i >= len(actual_rows):
            out.append(f"row {i} missing")
        elif i >= len(expected_rows):
            out.append(f"row {i} not in the reference")
        else:
            out.append(row_mismatch(actual_rows[i], expected_rows[i]))
    return out


def load(workload: str) -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[workload]


def store(runs_by_workload: dict) -> None:
    """Write {workload: {label: rows}} with one row per line."""
    blocks = []
    for workload, runs in sorted(runs_by_workload.items()):
        labels = []
        for label, rows in sorted(runs.items()):
            body = ",\n".join(f"   {json.dumps(row)}" for row in rows)
            labels.append(f"  {json.dumps(label)}: [\n{body}\n  ]")
        blocks.append(f" {json.dumps(workload)}: {{\n"
                      + ",\n".join(labels) + "\n }")
    REFERENCE_FILE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
