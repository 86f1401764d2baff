"""Record the reference values the default seed is checked against.

    python3 perfbench/record_reference.py

Runs every workload's operations once at the default seed, checks them
against the invariants (not against an old reference), and writes the numbers
of each output to ``reference_seed0.json``.  Record again only after a
change that is meant to move outputs by more than ``checks.REFERENCE_ATOL``,
and say so where the change is described.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    recorded = {}
    for name, make in workloads.WORKLOADS.items():
        workload = make(workloads.DEFAULT_SEED)
        recorded[name] = {}
        for op in workload.ops:
            problems, values = op.check(op.run())
            if problems:
                print(f"{name}.{op.name}: {problems[0]}", file=sys.stderr)
                return 1
            recorded[name][op.name] = values
        print(f"{name}: {len(workload.ops)} operations recorded")
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        handle.write(format_reference(recorded))
    return 0


def format_reference(recorded: dict) -> str:
    """JSON with one output row per line, so a re-recording diffs row by row."""
    workloads_text = []
    for name, ops in recorded.items():
        ops_text = []
        for op, rows in ops.items():
            body = ",\n".join("   " + json.dumps(row) for row in rows)
            ops_text.append(f"  {json.dumps(op)}: [\n{body}\n  ]")
        workloads_text.append(f" {json.dumps(name)}: {{\n" + ",\n".join(ops_text) + "\n }")
    return "{\n" + ",\n".join(workloads_text) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
