"""Experiment harness: reproducible commands with CSV/JSON file outputs.

Every command is a pure function of its resolved parameters; repeated runs
produce byte-identical output, which this module alone formats from the
values the library returns.  Exit codes: 0 success, 2 configuration or
usage errors, 3 numerical guard failures.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import compiler as cp
from . import dynamics as dyn
from . import linkmodel as lm
from . import matter as mt
from .errors import GuardError, LayoutError
from .pauli import parse_string

EXIT_CONFIG = 2
EXIT_GUARD = 3
# phi grid points; also caps covariance --sets (built in full first) and each figures --steps value
PHI_GRID_LIMIT = 10_000

# per figure: the default phi grid (start, stop, step), step counts and start sectors
_FIGURES = {
    "fig3": ((0.05, 2.0, 0.05), (1, 2, 3, 4), (0.75,)),
    "fig4": ((0.01, 1.6, 0.01), (2, 3), (2.25,)),
    "figS2": ((0.05, 2.0, 0.05), (1, 2, 4, 8, 16, 32, 64), (0.75, 2.75)),
}


def _csv(header: str, lines: list[str]) -> str:
    return "\n".join([header, *lines]) + "\n"


def _json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _phi_grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop, by accumulation, for finite
    bounds and a finite positive step.

    A step too small to move phi (absolutely, or at the magnitude phi has
    reached) would loop forever; the point limit turns that into an error.
    """
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


def run_sectors(args: argparse.Namespace) -> str:
    table = lm.gauge_sectors(_load_layout(args.layout))
    return _csv("eigenvalue,degeneracy", [f"{round(s.eigenvalue, 10)!r},{s.degeneracy}" for s in table.sectors])


def _step_counts(layout: lm.PlaquetteLayout) -> dict[str, cp.GateCounts]:
    monomials = lm.plaquette_monomials(layout, 1.0)
    return {
        "collective": cp.compile_step(monomials, 0.1, "collective").counts,
        "cphase": cp.compile_step(monomials, 0.1, "cphase").counts,
    }


def _fidelity_bands(counts: dict[str, cp.GateCounts], n_steps: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """(collective, cphase) fidelity caps of ``n_steps`` full steps."""
    return tuple(
        cp.fidelity_cap(cp.GateCounts(c.collective * n_steps, c.cphase * n_steps, c.single * n_steps), backend)
        for backend, c in counts.items()
    )


def run_figures(args: argparse.Namespace) -> str:
    layout = _load_layout(args.layout)
    (start, stop, step), default_steps, default_starts = _FIGURES[args.figure]
    phis = _phi_grid(
        start if args.phi_start is None else args.phi_start,
        stop if args.phi_stop is None else args.phi_stop,
        step if args.phi_step is None else args.phi_step,
    )
    steps = list(args.steps or default_steps)
    starts = default_starts if args.start_sector is None else (args.start_sector,)
    rows = dyn.sweep(layout, steps, phis, starts)
    if args.figure == "fig3":
        # E, the relative gauge deviation, is the only output that divides by the ideal expectation
        if any(abs(r.gauge_ideal) < dyn.DEVIATION_GUARD for r in rows):
            raise GuardError("ideal gauge expectation vanished")
        lines = [
            f"{r.steps},{r.phi!r},{(r.gauge_ideal - r.gauge_digital) / r.gauge_ideal!r},{r.overlap_initial!r},{r.fidelity!r}"
            for r in rows
        ]
        return _csv("N,phi,E,overlap_I0,fidelity_ID", lines)
    if args.figure == "figS2":
        per_start = len(rows) // len(starts)
        lines = [
            f"{starts[i // per_start]!r},{r.steps},{r.phi!r},{r.gauge_ideal!r},{r.gauge_digital!r},{r.overlap_initial!r}"
            for i, r in enumerate(rows)
        ]
        return _csv("start,N,phi,gauge_I,gauge_D,overlap_I0", lines)
    # each step count's four caps, formatted once
    counts = _step_counts(layout)
    caps = {n: ",".join(repr(cap) for band in _fidelity_bands(counts, n) for cap in band) for n in set(steps)}
    lines = [f"{r.steps},{r.phi!r},{r.overlap_initial!r},{r.fidelity!r},{caps[r.steps]}" for r in rows]
    return _csv("N,phi,overlap_I0,fidelity_ID,cap_collective_low,cap_collective_high,cap_cphase_low,cap_cphase_high", lines)


def _single_gate_bound(weights: list[int], backend: str) -> int:
    """Single-qubit gates one step may use: 2w+1 per weight-w monomial on the
    collective backend, 6w+1 on the C-phase backend."""
    return sum((2 * w + 1) if backend == "collective" else (6 * w + 1) for w in weights)


def run_compile(args: argparse.Namespace) -> str:
    """The JSON resource report; with ``--circuit-out`` the gate list is
    written there once every check has passed."""
    for option in ("step", "layout"):
        if args.monomial and getattr(args, option):
            raise LayoutError(f"--{option} and --monomial are mutually exclusive")
    if args.out and args.circuit_out and _same_file(args.out, args.circuit_out):
        raise LayoutError(f"--out and --circuit-out name one file: {args.circuit_out!r}")
    if args.monomial is not None:
        monomials = [parse_string(args.monomial)]
    else:
        monomials = lm.plaquette_monomials(_load_layout(args.layout), 1.0)
    circuit = cp.compile_step(monomials, args.phi, args.backend)
    counts = circuit.counts
    low, high = cp.fidelity_cap(counts, args.backend)
    single_bound = _single_gate_bound([m.weight for m in monomials], args.backend)
    if counts.single > single_bound:
        raise GuardError(f"{counts.single} single-qubit gates exceed the bound {single_bound}")
    if args.circuit_out:
        _write(args.circuit_out, format_circuit(circuit))
    return _json({
        "schema": 1,
        "backend": args.backend,
        "monomials": len(monomials),
        "collective": counts.collective,
        "cphase": counts.cphase,
        "single": counts.single,
        "single_bound": single_bound,
        "fidelity_band": {"low": low, "high": high},
    })


def format_circuit(circuit: cp.Circuit) -> str:
    """The gate list: ``qubits n``, then ``kind [axis] q1,q2,... angle`` per gate."""
    lines = [f"qubits {circuit.n_qubits}"]
    for g in circuit.gates:
        kind = f"rot {g.axis}" if g.kind == "rot" else g.kind
        lines.append(f"{kind} {','.join(str(q) for q in g.qubits)} {g.angle!r}")
    return "\n".join(lines) + "\n"


def run_bounds(args: argparse.Namespace) -> str:
    generic = cp.trotter_bound(cp.PLAQUETTE_TERMS * args.plaquettes, cp.PLAQUETTE_NORM_READING, args.Jt, args.eps, args.k)
    printed = cp.printed_steps_bound(args.plaquettes, args.Jt, args.eps)
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
    return _json(report)


def run_matter(args: argparse.Namespace) -> str:
    chain = mt.ChainConfig(
        n_sites=args.sites,
        omega=args.omega,
        hopping=args.hopping,
        n0=args.n0,
        matter_number=args.matter_number,
    )
    rows = mt.compare_effective(chain, list(args.ratios))
    return _csv("ratio,deviation,density_norm", [f"{r.ratio!r},{r.deviation!r},{r.density_norm!r}" for r in rows])


def run_covariance(args: argparse.Namespace) -> str:
    layout = _load_layout(args.layout)
    rng = np.random.default_rng(args.seed)
    angle_sets = [{v: tuple(rng.uniform(-np.pi, np.pi, 3)) for v in layout.vertices} for _ in range(args.sets)]
    lines = [
        f"{index},{link_id},{deviation!r}"
        for index, deviations in enumerate(lm.gauge_covariance_deviations(layout, angle_sets))
        for link_id, deviation in deviations.items()
    ]
    return _csv("set,link,max_deviation", lines)


def _checked(parse, rule: str, test):
    """``parse`` as an argparse type that also refuses a value failing
    ``test``, as ``must <rule>, got <value>``, which ``_Parser.error`` puts
    after the option's name."""

    def check(text: str):
        value = parse(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {value!r}")
        return value

    check.__name__ = parse.__name__  # argparse names it in "invalid float value: 'abc'"
    return check


def _list(parse, what: str):
    """A comma-separated list, each item converted and checked by ``parse``."""

    def parse_list(text: str) -> tuple:
        try:
            return tuple(parse(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None

    return parse_list


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a LayoutError carrying argparse's one-line
    message, instead of printing the usage and exiting; a ``_checked`` rule
    reads ``--eps must be ...``, not ``argument --eps: must be ...``."""

    def error(self, message: str):
        name, _, rule = message.partition(": ")
        if rule.startswith("must "):
            message = f"{name.removeprefix('argument ')} {rule}"
        raise LayoutError(message)

    def _get_values(self, action, arg_strings):
        # argparse as of Python 3.11 drops a "--" that is an option's own
        # value (--phi=--) and hands back an empty list; convert it instead
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser(defaults: dict[str, object] | None = None) -> argparse.ArgumentParser:
    """The su2link parser; ``defaults`` replaces the built-in defaults of
    every command's options.  Their string values are converted and checked
    by the option's type, as flags are; a usage error, or a value that does
    not convert or breaks its option's rule, raises ``LayoutError``."""
    finite = _checked(float, "be finite", math.isfinite)
    positive = _checked(float, "be finite and positive", lambda x: math.isfinite(x) and x > 0)
    non_negative = _checked(int, "be non-negative", lambda n: n >= 0)

    def capped(parse):
        return _checked(parse, f"be at most {PHI_GRID_LIMIT}", lambda n: n <= PHI_GRID_LIMIT)

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
    p.add_argument("--steps", type=_list(capped(int), "integers"), default=(), help="comma-separated step counts")
    p.add_argument("--phi-start", type=finite, default=None)
    p.add_argument("--phi-stop", type=finite, default=None)
    p.add_argument("--phi-step", type=positive, default=None)
    p.add_argument("--start-sector", type=float, default=None, help="gauge sector eigenvalue of the initial state")

    p = sub.add_parser("compile", parents=[common], help="lower one step (or one monomial) to a gate set (JSON report)")
    add_layout(p)
    p.add_argument("--backend", choices=["collective", "cphase"], required=True)
    p.add_argument("--step", action="store_true", help="compile the full 16-monomial step (default)")
    p.add_argument("--monomial", help="single Pauli string, e.g. '(1.0) X0 Y1'")
    p.add_argument("--phi", type=finite, default=0.1)
    p.add_argument("--circuit-out", help="also write the gate list to this file")

    p = sub.add_parser("bounds", parents=[common], help="digitization step-count bounds (JSON report)")
    p.add_argument("--plaquettes", type=_checked(int, "be at least 1", lambda n: n >= 1), default=1)
    p.add_argument("--Jt", type=_checked(float, "be finite and non-negative", lambda x: math.isfinite(x) and x >= 0), default=1.0)
    p.add_argument("--eps", type=positive, default=0.1)
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("matter", parents=[common], help="matter-chain effective-interaction deviation sweep (CSV)")
    p.add_argument("--sites", type=int, default=2)
    p.add_argument("--ratios", type=_list(positive, "numbers"), default=(1e-1, 1e-2, 1e-3))
    p.add_argument("--omega", type=finite, default=1.0)
    p.add_argument("--hopping", type=positive, default=1.0)
    p.add_argument("--n0", type=int, default=1)
    p.add_argument("--matter-number", type=int, default=1)

    p = sub.add_parser("covariance", parents=[common], help="gauge covariance residuals for seeded random angle sets (CSV)")
    add_layout(p)
    p.add_argument("--sets", type=capped(non_negative), default=50)
    p.add_argument("--seed", type=non_negative, default=1)

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


def _same_file(path: str, other: str) -> bool:
    try:
        return os.path.samestat(os.stat(path), os.stat(other))
    except OSError:  # a file not made yet is the other one only by the same resolved path
        return os.path.realpath(path) == os.path.realpath(other)


def _write(path: str | None, content: str) -> None:
    try:  # stdout's own file (/dev/stdout, a redirect's target) opened anew would be written from its start
        to_stdout = path is None or os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such file yet, or a stdout without a descriptor
        to_stdout = False
    if to_stdout:
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)


# what overflows a float in each command that can overflow one
_OVERFLOWS = {
    "figures": "the plaquette energies overflow",
    "bounds": "the step bound overflows",
    "matter": "the matter-chain energies overflow",
}


@functools.cache
def _default_parser() -> argparse.ArgumentParser:
    """The parser without config defaults, built on the first ``main`` call;
    no call sets defaults on it, so every call parses with the same one."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _default_parser().parse_args(argv)
        if args.config:
            # parsing again with the file's values as defaults lets argparse
            # decide which flags were given, in whatever spelling
            args = build_parser(_config_defaults(args)).parse_args(argv)
        with np.errstate(over="raise", invalid="raise"):
            # looked up on each call, so a wrapper set on a run_* name is the one called
            _write(args.out, globals()[f"run_{args.command}"](args))
    except GuardError as err:
        print(f"numerical guard: {err}", file=sys.stderr)
        return EXIT_GUARD
    except (OverflowError, FloatingPointError):
        print(f"error: {_OVERFLOWS.get(args.command, 'a value overflows')} a float for these inputs", file=sys.stderr)
        return EXIT_CONFIG
    except (LayoutError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
