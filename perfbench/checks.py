"""Output checks shared by the workloads.

Every check returns a list of problems; an empty list means the output is
correct.  Invariant checks hold for every seed.  At the default seed the
numbers are also compared, value by value, against ``reference_seed0.json``
(recorded by ``record_reference.py``) within ``REFERENCE_ATOL``.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

# |<a|b>|^2 of unit vectors may round a few ulps past 1.
PROBABILITY_SLACK = 1e-12
# Compiled-circuit distances, covariance residuals, drift out of a gauge sector.
EXACTNESS_TOL = 1e-9
# Per value against the reference; refactors may move values by <= 1e-12.
REFERENCE_ATOL = 1e-9

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_seed0.json"


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Header and numeric rows of a CSV output; raises ValueError on a bad cell."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row {line!r} has {len(cells)} cells, header has {len(header)}")
        rows.append([float(cell) for cell in cells])
    return header, rows


def column(header: list[str], rows: list[list[float]], name: str) -> list[float]:
    index = header.index(name)
    return [row[index] for row in rows]


def expect_header(header: list[str], expected: str) -> list[str]:
    if ",".join(header) != expected:
        return [f"header {','.join(header)!r}, expected {expected!r}"]
    return []


def expect_values(name: str, got: list[float], want: list[float], tol: float = 0.0) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} values, expected {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= tol:
            return [f"{name}[{i}] = {g!r}, expected {w!r}"]
    return []


def in_unit_interval(name: str, values: list[float]) -> list[str]:
    for i, v in enumerate(values):
        if not -PROBABILITY_SLACK <= v <= 1.0 + PROBABILITY_SLACK:
            return [f"{name}[{i}] = {v!r} outside [0, 1]"]
    return []


def finite(name: str, values: list[float]) -> list[str]:
    for i, v in enumerate(values):
        if not math.isfinite(v):
            return [f"{name}[{i}] = {v!r} is not finite"]
    return []


def below(name: str, values: list[float], limit: float) -> list[str]:
    for i, v in enumerate(values):
        if not abs(v) < limit:
            return [f"{name}[{i}] = {v!r} not below {limit}"]
    return []


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def compare_reference(values: list[list[float]], reference: list[list[float]] | None) -> list[str]:
    """Value-by-value comparison within REFERENCE_ATOL."""
    if reference is None:
        return ["no reference values recorded for this operation"]
    if len(values) != len(reference):
        return [f"{len(values)} rows, reference has {len(reference)}"]
    for r, (row, ref_row) in enumerate(zip(values, reference)):
        if len(row) != len(ref_row):
            return [f"row {r} has {len(row)} values, reference has {len(ref_row)}"]
        for c, (v, ref) in enumerate(zip(row, ref_row)):
            if not abs(v - ref) <= REFERENCE_ATOL:
                return [f"row {r} value {c} = {v!r}, reference {ref!r}"]
    return []
