"""Tests of the benchmark itself: failure counting and tracing.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the package's own test run.
"""
from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from su2link import dynamics, linkmodel, pauli  # noqa: E402


def corrupt(op: workloads.Op, text: str) -> workloads.Op:
    """``op`` with its output replaced by ``text``."""
    return workloads.Op(op.name, lambda: text, op.check)


def failures(op: workloads.Op, reference: dict | None = None) -> list[str]:
    runner = workloads.Runner(reference)
    runner.run((op,))
    assert runner.attempted == 1
    return runner.problems


def test_corrupted_row_counts_as_failed_op():
    workload = workloads.triangle_figures(workloads.DEFAULT_SEED)
    fig3 = workload.ops[0]
    reference = checks.load_reference()[workload.name]
    text = fig3.run()
    assert failures(corrupt(fig3, text), reference) == []

    header, *rows = text.splitlines()
    cells = rows[7].split(",")
    # a fidelity above 1 fails the invariant check at any seed
    bad = rows[:7] + [",".join(cells[:-1] + ["1.5"])] + rows[8:]
    assert failures(corrupt(fig3, "\n".join([header] + bad) + "\n"))
    # a small change to one value fails only against the reference
    shifted = float(cells[2]) + 1e-6
    bad = rows[:7] + [",".join(cells[:2] + [repr(shifted)] + cells[3:])] + rows[8:]
    assert failures(corrupt(fig3, "\n".join([header] + bad) + "\n")) == []
    assert failures(corrupt(fig3, "\n".join([header] + bad) + "\n"), reference)
    # a missing row fails the row count
    assert failures(corrupt(fig3, "\n".join([header] + rows[:-1]) + "\n"))


def test_exit_code_and_exception_count_as_failed_ops():
    bad_eps = workloads.cli_op("bounds", ["bounds", "--eps", "0"], lambda text: ([], []))
    assert "exit 2" in failures(bad_eps)[0]
    bad_usage = workloads.cli_op("usage", ["figures", "fig9"], lambda text: ([], []))
    assert "SystemExit" in failures(bad_usage)[0]


def test_matter_deviation_must_shrink_with_ratio():
    op = workloads.matter_chain(workloads.DEFAULT_SEED).ops[0]
    header, *lines = op.run().splitlines()
    rows = [line.split(",") for line in lines]
    rows[0][1], rows[1][1] = rows[1][1], rows[0][1]  # exchange the first two deviations
    assert failures(corrupt(op, "\n".join([header] + [",".join(row) for row in rows]) + "\n"))


def test_tracer_sees_calls_through_module_bindings():
    layout = linkmodel.triangle_layout()
    original = pauli.dense
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            assert dynamics.dense is not original  # bound by `from .pauli import dense`
            dynamics.sweep(layout, 1.0, [1, 2], [0.3], 0.75)
        counts.append(tracer.calls())
        metrics = tracer.metrics()
        # dense: 2 in sweep, 1 Casimir in gauge_sectors, 16 monomials per trotter_evolve
        assert metrics["pauli.dense.calls"] == 3 + 2 * 16
        assert metrics["pauli.dense.bytes"] == 16 * 4**6 * (3 + 2 * 16)
        assert metrics["linalg.eigh.calls"] == 2 and metrics["linalg.eigh.max_dim"] == 64
        assert metrics["dynamics.trotter_evolve.calls"] == 2
        assert metrics["dynamics.factor_applications"] == (1 + 2) * 16
        assert metrics["dynamics.sweep.self_s"] < metrics["dynamics.sweep.s"]
    assert counts[0] == counts[1]
    assert dynamics.dense is original and pauli.dense is original


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
