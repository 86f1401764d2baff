"""Experiment harness: reproducible commands with CSV/JSON file outputs.

Every command is a pure function of its resolved parameters; repeated runs
produce byte-identical output.  Exit codes: 0 success, 2 configuration or
usage errors, 3 numerical guard failures.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import compiler as cp
from . import dynamics as dyn
from . import linkmodel as lm
from . import matter as mt
from .errors import GuardError, LayoutError
from .pauli import MERGE_TOL, parse_string

EXIT_CONFIG = 2
EXIT_GUARD = 3
# phi grid points; also caps covariance --sets (built in full first) and each figures --steps value
PHI_GRID_LIMIT = 10_000

_PHI_DEFAULTS = {
    "fig3": (0.05, 2.0, 0.05),
    "figS2": (0.05, 2.0, 0.05),
    "fig4": (0.01, 1.6, 0.01),
}


def _phi_grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop, by accumulation.

    A step too small to move phi (absolutely, or at the magnitude phi has
    reached) would loop forever; the point limit turns that into an error.
    """
    if not (math.isfinite(step) and step > 0):
        raise LayoutError(f"--phi-step must be finite and positive, got {step!r}")
    for option, value in (("--phi-start", start), ("--phi-stop", stop)):
        if not math.isfinite(value):
            raise LayoutError(f"{option} must be finite, got {value!r}")
    values = []
    phi = start
    while phi <= stop + 1e-12:
        if len(values) == PHI_GRID_LIMIT:
            raise LayoutError(f"phi grid would exceed {PHI_GRID_LIMIT} points")
        values.append(round(phi, 12))
        phi += step
    return values


def _load_layout(path: str | None) -> lm.PlaquetteLayout:
    if path is None:
        return lm.triangle_layout()
    with open(path, "r", encoding="utf-8") as handle:
        return lm.parse_layout(handle.read())


def _check_coupling(coupling: float) -> None:
    if not (math.isfinite(coupling) and coupling != 0):
        raise LayoutError(f"--J must be finite and nonzero, got {coupling!r}")


def run_sectors(args: argparse.Namespace) -> str:
    table = lm.gauge_sectors(_load_layout(args.layout))
    lines = ["eigenvalue,degeneracy"]
    for sector in table.sectors:
        lines.append(f"{round(sector.eigenvalue, 10)!r},{sector.degeneracy}")
    return "\n".join(lines) + "\n"


def _step_counts(layout: lm.PlaquetteLayout) -> dict[str, cp.GateCounts]:
    monomials = lm.plaquette_monomials(layout, 1.0)
    return {
        "collective": cp.compile_step(monomials, 0.1, "collective").counts,
        "cphase": cp.compile_step(monomials, 0.1, "cphase").counts,
    }


def _fidelity_bands(counts: dict[str, cp.GateCounts], n_steps: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """(collective, cphase) fidelity caps of ``n_steps`` full steps."""
    return tuple(
        cp.fidelity_cap(cp.GateCounts(c.collective * n_steps, c.cphase * n_steps, c.single * n_steps))
        for c in (counts["collective"], counts["cphase"])
    )


def run_figures(args: argparse.Namespace) -> str:
    _check_coupling(args.J)
    if abs(args.J) / 2 <= MERGE_TOL:
        # the monomial coefficients -J/2 would merge away from the Hamiltonian
        raise LayoutError(f"--J must exceed {2 * MERGE_TOL!r} in magnitude, got {args.J!r}")
    if any(n_steps > PHI_GRID_LIMIT for n_steps in args.steps):
        raise LayoutError(f"--steps must be at most {PHI_GRID_LIMIT}, got {max(args.steps)}")
    layout = _load_layout(args.layout)
    start, stop, step = _PHI_DEFAULTS[args.figure]
    phis = _phi_grid(
        start if args.phi_start is None else args.phi_start,
        stop if args.phi_stop is None else args.phi_stop,
        step if args.phi_step is None else args.phi_step,
    )
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _figure_csv(args, layout, phis)
    except FloatingPointError:
        raise LayoutError("the plaquette energies overflow a float for these inputs") from None


def _figure_csv(args: argparse.Namespace, layout: lm.PlaquetteLayout, phis: list[float]) -> str:
    if args.figure == "fig3":
        steps = args.steps or (1, 2, 3, 4)
        start = args.start_sector if args.start_sector is not None else 0.75
        rows = dyn.sweep(layout, args.J, list(steps), phis, start)
        return dyn.sweep_csv(rows)
    if args.figure == "figS2":
        steps = args.steps or (1, 2, 4, 8, 16, 32, 64)
        starts = (args.start_sector,) if args.start_sector is not None else (0.75, 2.75)
        rows = dyn.sweep(layout, args.J, list(steps), phis, starts)
        per_start = len(rows) // len(starts)
        lines = ["start,N,phi,gauge_I,gauge_D,overlap_I0"]
        for index, row in enumerate(rows):
            lines.append(
                f"{starts[index // per_start]!r},{row.steps},{row.phi!r},{row.gauge_ideal!r},"
                f"{row.gauge_digital!r},{row.overlap_initial!r}"
            )
        return "\n".join(lines) + "\n"
    steps = args.steps or (2, 3)
    start = args.start_sector if args.start_sector is not None else 2.25
    rows = dyn.sweep(layout, args.J, list(steps), phis, start)
    counts = _step_counts(layout)
    lines = [
        "N,phi,overlap_I0,fidelity_ID,"
        "cap_collective_low,cap_collective_high,cap_cphase_low,cap_cphase_high"
    ]
    bands = {n_steps: _fidelity_bands(counts, n_steps) for n_steps in set(steps)}
    for row in rows:
        coll_band, cph_band = bands[row.steps]
        lines.append(
            f"{row.steps},{row.phi!r},{row.overlap_initial!r},{row.fidelity!r},"
            f"{coll_band[0]!r},{coll_band[1]!r},{cph_band[0]!r},{cph_band[1]!r}"
        )
    return "\n".join(lines) + "\n"


def _single_gate_bound(weights: list[int], backend: str) -> int:
    """Single-qubit gates one step may use: 2w+1 per weight-w monomial on the
    collective backend, 6w+1 on the C-phase backend."""
    return sum((2 * w + 1) if backend == "collective" else (6 * w + 1) for w in weights)


def run_compile(args: argparse.Namespace) -> str:
    """The JSON resource report; with ``--circuit-out`` the gate list is
    written there once every check has passed."""
    if args.monomial and args.step:
        raise LayoutError("--step and --monomial are mutually exclusive")
    _check_coupling(args.J)
    layout = _load_layout(args.layout)
    if args.monomial is not None:
        monomials = [parse_string(args.monomial)]
    else:
        monomials = lm.plaquette_monomials(layout, args.J)
    circuit = cp.compile_step(monomials, args.phi, args.backend)
    report = cp.resource_report(circuit, backend=args.backend)
    report["single_bound"] = _single_gate_bound([m.weight for m in monomials], args.backend)
    report["backend"] = args.backend
    report["monomials"] = len(monomials)
    if report["single"] > report["single_bound"]:
        raise GuardError(f"{report['single']} single-qubit gates exceed the bound {report['single_bound']}")
    if args.circuit_out:
        _write(args.circuit_out, cp.format_circuit(circuit))
    return cp.report_json(report)


def run_bounds(args: argparse.Namespace) -> str:
    if not (math.isfinite(args.Jt) and args.Jt >= 0):
        raise LayoutError(f"--Jt must be finite and non-negative, got {args.Jt!r}")
    if not (math.isfinite(args.eps) and args.eps > 0):
        raise LayoutError(f"--eps must be finite and positive, got {args.eps!r}")
    if args.plaquettes < 1:
        raise LayoutError(f"--plaquettes must be at least 1, got {args.plaquettes}")
    try:
        generic = cp.plaquette_steps_bound(args.plaquettes, args.Jt, args.eps, args.k)
        printed = cp.printed_steps_bound(args.plaquettes, args.Jt, args.eps)
    except OverflowError:
        raise LayoutError("the step bound overflows a float for these inputs") from None
    report = {
        "schema": 1,
        "plaquettes": args.plaquettes,
        "Jt": args.Jt,
        "eps": args.eps,
        "k": args.k,
        "steps_generic": generic,
        "steps_printed_constant": int(np.ceil(printed)),
        "steps_printed_constant_raw": printed,
        "constant_generic": cp.plaquette_bound_constant(args.k),
        "constant_printed": cp.PRINTED_BOUND_CONSTANT,
        "norm_reading": "per-plaquette norm bound |J|/8 (reproduces the printed "
        "constant); the termwise triangle inequality gives 8|J| instead",
    }
    return cp.report_json(report)


def run_matter(args: argparse.Namespace) -> str:
    if not math.isfinite(args.omega):
        raise LayoutError(f"--omega must be finite, got {args.omega!r}")
    if not (math.isfinite(args.hopping) and args.hopping > 0):
        raise LayoutError(f"--hopping must be finite and positive, got {args.hopping!r}")
    if not all(math.isfinite(ratio) and ratio > 0 for ratio in args.ratios):
        raise LayoutError(f"--ratios must be finite and positive, got {','.join(map(repr, args.ratios))}")
    chain = mt.ChainConfig(
        n_sites=args.sites,
        omega=args.omega,
        hopping=args.hopping,
        n0=args.n0,
        matter_number=args.matter_number,
    )
    try:
        with np.errstate(over="raise", invalid="raise"):
            rows = mt.compare_effective(chain, list(args.ratios))
    except (OverflowError, FloatingPointError):
        raise LayoutError("the matter-chain energies overflow a float for these inputs") from None
    return mt.comparison_csv(rows)


def run_covariance(args: argparse.Namespace) -> str:
    if args.sets < 0:
        raise LayoutError(f"--sets must be non-negative, got {args.sets}")
    if args.sets > PHI_GRID_LIMIT:
        raise LayoutError(f"--sets must be at most {PHI_GRID_LIMIT}, got {args.sets}")
    if args.seed < 0:
        raise LayoutError(f"--seed must be non-negative, got {args.seed}")
    layout = _load_layout(args.layout)
    rng = np.random.default_rng(args.seed)
    lines = ["set,link,max_deviation"]
    angle_sets = [{v: tuple(rng.uniform(-np.pi, np.pi, 3)) for v in layout.vertices} for _ in range(args.sets)]
    for index, deviations in enumerate(lm.gauge_covariance_deviations(layout, angle_sets)):
        for link_id, deviation in deviations.items():
            lines.append(f"{index},{link_id},{deviation!r}")
    return "\n".join(lines) + "\n"


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a LayoutError carrying argparse's one-line
    message, instead of printing the usage and exiting."""

    def error(self, message: str):
        raise LayoutError(message)

    def _get_values(self, action, arg_strings):
        # argparse as of Python 3.11 drops a "--" that is an option's own
        # value (--J=--) and hands back an empty list; convert it instead
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser(defaults: dict[str, object] | None = None) -> argparse.ArgumentParser:
    """The su2link parser; ``defaults`` replaces the built-in defaults of
    every command's options.  Their string values are converted by the
    option's type; a usage error, or a value that does not convert, raises
    ``LayoutError``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value defaults file")
    common.add_argument("--out", help="output file (default: stdout)")
    parser = _Parser(
        prog="su2link",
        description="Spin-encoded gauge plaquette toolkit: sector analysis, "
        "digitized dynamics, gate compilation, step bounds, matter-chain checks.",
        epilog="A config file (--config) holds flat key=value lines using the "
        "option names without the leading dashes and with dashes replaced by "
        "underscores (e.g. phi_step=0.1); explicit flags take precedence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_layout(p):
        p.add_argument("--layout", help="plaquette layout file (default: built-in triangle)")

    p = sub.add_parser("sectors", parents=[common], help="gauge sector eigenvalues and degeneracies (CSV)")
    add_layout(p)

    p = sub.add_parser("figures", parents=[common], help="tabulated data products for the named figures")
    p.add_argument("figure", choices=["fig3", "fig4", "figS2"])
    add_layout(p)
    p.add_argument("--J", type=float, default=1.0)
    p.add_argument("--steps", type=_int_list, default=(), help="comma-separated step counts")
    p.add_argument("--phi-start", type=float, default=None)
    p.add_argument("--phi-stop", type=float, default=None)
    p.add_argument("--phi-step", type=float, default=None)
    p.add_argument("--start-sector", type=float, default=None, help="gauge sector eigenvalue of the initial state")

    p = sub.add_parser("compile", parents=[common], help="lower one step (or one monomial) to a gate set (JSON report)")
    add_layout(p)
    p.add_argument("--backend", choices=["collective", "cphase"], required=True)
    p.add_argument("--step", action="store_true", help="compile the full 16-monomial step (default)")
    p.add_argument("--monomial", help="single Pauli string, e.g. '(1.0) X0 Y1'")
    p.add_argument("--phi", type=float, default=0.1)
    p.add_argument("--J", type=float, default=1.0)
    p.add_argument("--circuit-out", help="also write the gate list to this file")

    p = sub.add_parser("bounds", parents=[common], help="digitization step-count bounds (JSON report)")
    p.add_argument("--plaquettes", type=int, default=1)
    p.add_argument("--Jt", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("matter", parents=[common], help="matter-chain effective-interaction deviation sweep (CSV)")
    p.add_argument("--sites", type=int, default=2)
    p.add_argument("--ratios", type=_float_list, default=(1e-1, 1e-2, 1e-3))
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--hopping", type=float, default=1.0)
    p.add_argument("--n0", type=int, default=1)
    p.add_argument("--matter-number", type=int, default=1)

    p = sub.add_parser("covariance", parents=[common], help="gauge covariance residuals for seeded random angle sets (CSV)")
    add_layout(p)
    p.add_argument("--sets", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)

    if defaults is not None:
        for command in sub.choices.values():
            command.set_defaults(**defaults)
    return parser


def _config_defaults(args: argparse.Namespace) -> dict[str, object]:
    """The ``key=value`` lines of ``args.config`` as option defaults: keys
    are the chosen command's option names, dashes as underscores, as
    ``args`` lists them; a switch is on for 1/true/yes."""
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise LayoutError(f"cannot read config file: {err}") from None
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LayoutError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in ("command", "config") or not hasattr(args, key):
            raise LayoutError(f"config file sets unknown option {key!r}")
        values[key] = value.lower() in ("1", "true", "yes") if isinstance(getattr(args, key), bool) else value
    return values


def _write(path: str | None, content: str) -> None:
    if path is None:
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            # parsing again with the file's values as defaults lets argparse
            # decide which flags were given, in whatever spelling
            args = build_parser(_config_defaults(args)).parse_args(argv)
        # looked up on each call, so a wrapper set on a run_* name is the one called
        runners = {
            "sectors": run_sectors,
            "figures": run_figures,
            "compile": run_compile,
            "bounds": run_bounds,
            "matter": run_matter,
            "covariance": run_covariance,
        }
        _write(args.out, runners[args.command](args))
    except GuardError as err:
        print(f"numerical guard: {err}", file=sys.stderr)
        return EXIT_GUARD
    except (LayoutError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
