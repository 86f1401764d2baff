"""The benchmark's workloads: seeded inputs, the operations of one pass, and
the check of each operation's output.

The seed sets phi values, grid offsets, angle-set seeds and ratio values,
never the amount of work.  Seed 0 is the default seed: it runs the paper's
default grids and the CLI's default values, and its outputs are also compared
against the values recorded in ``reference_seed0.json``.

Operations call the package through its public entry points, looked up as
module attributes at call time so that the traced run sees every call:
``cli.main`` for CLI commands and the ``compiler``/``linalg``/``pauli``
functions for the gate-equivalence checks.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from su2link import cli, compiler, linalg, linkmodel, pauli

import checks
import speed

DEFAULT_SEED = 0
LAYOUT_FILE = Path(__file__).resolve().parent / "layouts" / "two_plaquette.layout"
TRIANGLE_QUBITS = 6


class OpError(RuntimeError):
    """A CLI command exited with a non-zero code."""


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` does the work that is timed, ``check`` returns
    (problems, numeric rows) for its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], list[list[float]]]]


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: tuple[Op, ...]
    ops: tuple[Op, ...]


def call_cli(argv: list[str]) -> str:
    """stdout of ``su2link <argv>`` run in-process; raises OpError on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise OpError(f"su2link {' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_op(name: str, argv: list[str], check: Callable[[str], tuple[list[str], list[list[float]]]]) -> Op:
    return Op(name, lambda: call_cli(argv), check)


# ---------------------------------------------------------------------------
# operations

FIGURE_COLUMNS = {
    "fig3": "N,phi,E,overlap_I0,fidelity_ID",
    "fig4": "N,phi,overlap_I0,fidelity_ID,cap_collective_low,cap_collective_high,cap_cphase_low,cap_cphase_high",
    "figS2": "start,N,phi,gauge_I,gauge_D,overlap_I0",
}
FIGS2_STARTS = (0.75, 2.75)


def figure_op(
    name: str, figure: str, steps: tuple[int, ...], start: float, step: float, count: int,
    layout: Path | None = None,
) -> Op:
    """``figures <figure>`` on ``count`` grid points start + i * step."""
    # a stop half a step past the last point keeps the point count exact
    stop = start + (count - 0.5) * step
    argv = ["figures", figure, "--steps", ",".join(map(str, steps)),
            "--phi-start", repr(start), "--phi-stop", repr(stop), "--phi-step", repr(step)]
    if layout is not None:
        argv += ["--layout", str(layout)]
    grid = [start + i * step for i in range(count)]
    starts = FIGS2_STARTS if figure == "figS2" else (None,)
    want_n = [float(n) for _ in starts for n in steps for _ in grid]
    want_phi = [phi for _ in starts for _ in steps for phi in grid]

    def check(text: str):
        header, rows = checks.parse_csv(text)
        problems = checks.expect_header(header, FIGURE_COLUMNS[figure])
        if problems:
            return problems, rows
        problems += checks.expect_values("N", checks.column(header, rows, "N"), want_n)
        problems += checks.expect_values("phi", checks.column(header, rows, "phi"), want_phi, 1e-9)
        for col in header[2:]:
            problems += checks.finite(col, checks.column(header, rows, col))
        for col in header:
            if col in ("overlap_I0", "fidelity_ID") or col.startswith("cap_"):
                problems += checks.in_unit_interval(col, checks.column(header, rows, col))
        if figure == "figS2":
            # exact evolution never leaves the starting gauge sector
            start_col = checks.column(header, rows, "start")
            problems += checks.expect_values("start", start_col, [s for s in starts for _ in steps for _ in grid])
            problems += checks.expect_values("gauge_I", checks.column(header, rows, "gauge_I"), start_col,
                                             checks.EXACTNESS_TOL)
        return problems, rows

    return cli_op(name, argv, check)


def sectors_op(name: str, dimension: int, layout: Path | None = None) -> Op:
    argv = ["sectors"] + (["--layout", str(layout)] if layout is not None else [])

    def check(text: str):
        header, rows = checks.parse_csv(text)
        problems = checks.expect_header(header, "eigenvalue,degeneracy")
        eigenvalues = [r[0] for r in rows]
        if sum(r[1] for r in rows) != dimension:
            problems.append(f"degeneracies sum to {sum(r[1] for r in rows)}, expected {dimension}")
        if eigenvalues != sorted(eigenvalues) or any(v <= 0 for v in eigenvalues):
            problems.append(f"eigenvalues {eigenvalues} not positive and ascending")
        return problems, rows

    return cli_op(name, argv, check)


# full-step gate counts of one triangle: (entangling count, single-qubit bound)
STEP_GATES = {"collective": ("collective", 32, 184), "cphase": ("cphase", 168, 520)}


def compile_op(name: str, backend: str, phi: float) -> Op:
    argv = ["compile", "--backend", backend, "--step", "--phi", repr(phi)]
    kind, entangling, single_bound = STEP_GATES[backend]
    other = "cphase" if kind == "collective" else "collective"

    def check(text: str):
        report = json.loads(text)
        band = report["fidelity_band"]
        values = [report["collective"], report["cphase"], report["single"], report["single_bound"],
                  band["low"], band["high"]]
        problems = []
        if report[kind] != entangling or report[other] != 0:
            problems.append(f"{report[kind]} {kind} and {report[other]} {other} gates, expected {entangling} and 0")
        if report["single_bound"] != single_bound or report["single"] > single_bound:
            problems.append(f"{report['single']} single-qubit gates, bound {report['single_bound']}")
        problems += checks.in_unit_interval("fidelity_band", [band["low"], band["high"]])
        if band["low"] > band["high"]:
            problems.append(f"fidelity band {band} inverted")
        return problems, [values]

    return cli_op(name, argv, check)


def covariance_op(name: str, sets: int, angle_seed: int) -> Op:
    argv = ["covariance", "--sets", str(sets), "--seed", str(angle_seed)]

    def check(text: str):
        header, rows = checks.parse_csv(text)
        problems = checks.expect_header(header, "set,link,max_deviation")
        if len(rows) != 3 * sets:
            problems.append(f"{len(rows)} rows, expected {3 * sets}")
        problems += checks.below("max_deviation", [r[2] for r in rows], checks.EXACTNESS_TOL)
        return problems, rows

    return cli_op(name, argv, check)


def equivalence_op(name: str, monomial: pauli.PauliString, phi: float) -> Op:
    """Criterion-06 path: both backends' circuits against the exact exponential."""

    def run():
        target = linalg.expi_hermitian(pauli.dense(monomial, TRIANGLE_QUBITS), scale=-phi)
        collective = compiler.circuit_unitary(compiler.compile_collective(monomial, phi), TRIANGLE_QUBITS)
        circuit = compiler.compile_cphase(monomial, phi, ancilla=TRIANGLE_QUBITS)
        reduced = compiler.reduced_system_unitary(
            circuit, TRIANGLE_QUBITS, compiler.ancilla_state(monomial.weight)
        )
        unitarity = float(np.max(np.abs(reduced.conj().T @ reduced - np.eye(2**TRIANGLE_QUBITS))))
        return [
            linalg.unitary_distance_up_to_phase(target, collective),
            linalg.unitary_distance_up_to_phase(target, reduced),
            unitarity,
        ]

    def check(values: list[float]):
        return checks.below("distance", values, checks.EXACTNESS_TOL), [values]

    return Op(name, run, check)


def matter_op(name: str, ratios: tuple[float, ...]) -> Op:
    argv = ["matter", "--sites", "2", "--ratios", ",".join(map(repr, ratios))]

    def check(text: str):
        header, rows = checks.parse_csv(text)
        problems = checks.expect_header(header, "ratio,deviation,density_norm")
        if problems:
            return problems, rows
        problems += checks.expect_values("ratio", [r[0] for r in rows], list(ratios), 1e-15)
        deviations = [r[1] for r in rows]
        problems += checks.finite("deviation", deviations) + checks.finite("density_norm", [r[2] for r in rows])
        by_ratio = [d for _, d in sorted(zip(ratios, deviations), reverse=True)]
        if any(not later < earlier for earlier, later in zip(by_ratio, by_ratio[1:])) or min(deviations) < 0:
            problems.append(f"deviations {deviations} do not shrink with the ratio")
        return problems, rows

    return cli_op(name, argv, check)


# ---------------------------------------------------------------------------
# workloads

# the paper's default grids: (start, step, count, step counts N)
FIGURE_GRIDS = {
    "fig3": (0.05, 0.05, 40, (1, 2, 3, 4)),
    "fig4": (0.01, 0.01, 160, (2, 3)),
    "figS2": (0.05, 0.05, 40, (1, 2, 4, 8, 16, 32, 64)),
}


def triangle_figures(seed: int) -> Workload:
    rng = random.Random(seed)
    ops, warmup = [], []
    for figure, (start, step, count, steps) in FIGURE_GRIDS.items():
        offset = 0.0 if seed == DEFAULT_SEED else rng.uniform(0.0, step)
        ops.append(figure_op(figure, figure, steps, start + offset, step, count))
        warmup.append(figure_op(f"warmup.{figure}", figure, steps[:1], 0.5, step, 1))
    return Workload("triangle_figures", tuple(warmup), tuple(ops))


def two_plaquette(seed: int) -> Workload:
    layout = linkmodel.parse_layout(LAYOUT_FILE.read_text(encoding="utf-8"))
    if layout.n_qubits != 10 or len(layout.plaquettes) != 2:
        raise ValueError(f"{LAYOUT_FILE.name}: {layout.n_qubits} qubits and "
                         f"{len(layout.plaquettes)} plaquettes, expected 10 and 2")
    phi = 0.5 if seed == DEFAULT_SEED else random.Random(seed).uniform(0.1, 1.0)
    ops = (
        sectors_op("sectors", 2**10, LAYOUT_FILE),
        figure_op("fig3", "fig3", (1, 2), phi, 0.05, 1, LAYOUT_FILE),
    )
    # the code paths, warmed on the triangle; a 10-qubit warm-up pass would cost seconds
    warmup = (
        sectors_op("warmup.sectors", 2**TRIANGLE_QUBITS),
        figure_op("warmup.fig3", "fig3", (1,), 0.5, 0.05, 1),
    )
    return Workload("two_plaquette", warmup, ops)


def triangle_verify(seed: int) -> Workload:
    rng = random.Random(seed)
    if seed == DEFAULT_SEED:
        # criterion 06's phis, the CLI's default compile phi and angle seed
        phis, compile_phi, angle_seed = (0.1, 0.7), 0.1, 1
    else:
        phis = (rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5))
        compile_phi, angle_seed = rng.uniform(0.05, 1.5), rng.randrange(1, 2**31)
    monomials = linkmodel.plaquette_monomials(linkmodel.triangle_layout(), 1.0)
    ops = [
        equivalence_op(f"equivalence.{i}.{k}", monomial, phi)
        for i, phi in enumerate(phis)
        for k, monomial in enumerate(monomials)
    ]
    ops += [compile_op(f"compile.{backend}", backend, compile_phi) for backend in STEP_GATES]
    ops.append(covariance_op("covariance", 10, angle_seed))
    warmup = (
        equivalence_op("warmup.equivalence", monomials[0], 0.3),
        covariance_op("warmup.covariance", 1, 1),
    )
    return Workload("triangle_verify", warmup, tuple(ops))


def matter_chain(seed: int) -> Workload:
    if seed == DEFAULT_SEED:
        ratios = (1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3)
    else:
        # exponents at least 0.1 apart, so neighbouring ratios differ by >= 26%
        rng = random.Random(seed)
        ratios = tuple(10 ** -(0.7 + 0.4 * i + 0.3 * rng.random()) for i in range(6))
    return Workload(
        "matter_chain", (matter_op("warmup.matter", (0.1,)),), (matter_op("matter", ratios),)
    )


WORKLOADS = {
    "triangle_figures": triangle_figures,
    "two_plaquette": two_plaquette,
    "triangle_verify": triangle_verify,
    "matter_chain": matter_chain,
}


class Runner:
    """Runs operations and counts failures.

    An operation fails if it raises, if its CLI command exits non-zero, if its
    output fails a check, or, when ``reference`` is given, if its numbers
    differ from the recorded ones.  Only the operations themselves are timed;
    checking is not.
    """

    def __init__(self, reference: dict | None = None):
        self.reference = reference
        self.meter = speed.Meter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, ops: tuple[Op, ...], compare: bool = True) -> tuple[float, float]:
        """Run ``ops`` once in order; returns their summed raw and
        speed-corrected times in seconds."""
        raw = corrected = 0.0
        for op in ops:
            self.attempted += 1
            try:
                output, op_raw, op_corrected = self.meter.time(op.run)
            except (Exception, SystemExit) as err:  # argparse exits on a bad command line
                self._fail(op, f"raised {err!r}")
                continue
            raw += op_raw
            corrected += op_corrected
            try:
                problems, values = op.check(output)
                if compare and self.reference is not None:
                    problems += checks.compare_reference(values, self.reference.get(op.name))
            except (ValueError, KeyError, IndexError, TypeError) as err:
                problems = [f"output could not be checked: {err!r}"]
            if problems:
                self._fail(op, problems[0])
        return raw, corrected

    def _fail(self, op: Op, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{op.name}: {problem}")
