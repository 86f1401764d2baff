"""Experiment harness: reproducible commands with CSV/JSON file outputs.

Every command is a pure function of its resolved parameters; repeated runs
produce byte-identical output.  Exit codes: 0 success, 2 configuration or
usage errors, 3 numerical guard failures.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import compiler as cp
from . import dynamics as dyn
from . import linkmodel as lm
from . import matter as mt
from .errors import GuardError, LayoutError

EXIT_CONFIG = 2
EXIT_GUARD = 3


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one command invocation."""

    command: str
    figure: str | None = None
    layout_path: str | None = None
    coupling: float = 1.0
    steps: tuple[int, ...] = ()
    phi_start: float = 0.05
    phi_stop: float = 2.0
    phi_step: float = 0.05
    start_sector: float | None = None
    backend: str = "collective"
    monomial: str | None = None
    phi: float = 0.1
    circuit_out: str | None = None
    plaquettes: int = 1
    jt: float = 1.0
    eps: float = 0.1
    fractal_degree: int = 1
    sites: int = 2
    ratios: tuple[float, ...] = (1e-1, 1e-2, 1e-3)
    omega: float = 1.0
    hopping: float = 1.0
    n0: int = 1
    matter_number: int = 1
    sets: int = 50
    seed: int = 1
    noise: cp.NoiseModel = field(default_factory=cp.NoiseModel)


PHI_GRID_LIMIT = 10_000  # also caps covariance --sets; both lists are built in full first


def _phi_grid(cfg: RunConfig) -> list[float]:
    """phi_start, phi_start + phi_step, ... up to phi_stop, by accumulation.

    A step too small to move phi (absolutely, or at the magnitude phi has
    reached) would loop forever; the point limit turns that into an error.
    """
    if not (math.isfinite(cfg.phi_step) and cfg.phi_step > 0):
        raise LayoutError(f"--phi-step must be finite and positive, got {cfg.phi_step!r}")
    for option, value in (("--phi-start", cfg.phi_start), ("--phi-stop", cfg.phi_stop)):
        if not math.isfinite(value):
            raise LayoutError(f"{option} must be finite, got {value!r}")
    values = []
    phi = cfg.phi_start
    while phi <= cfg.phi_stop + 1e-12:
        if len(values) == PHI_GRID_LIMIT:
            raise LayoutError(f"phi grid would exceed {PHI_GRID_LIMIT} points")
        values.append(round(phi, 12))
        phi += cfg.phi_step
    return values


def _load_layout(cfg: RunConfig) -> lm.PlaquetteLayout:
    if cfg.layout_path is None:
        return lm.triangle_layout()
    with open(cfg.layout_path, "r", encoding="utf-8") as handle:
        return lm.parse_layout(handle.read())


def run_sectors(cfg: RunConfig) -> str:
    table = lm.gauge_sectors(_load_layout(cfg))
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


def _fidelity_bands(
    counts: dict[str, cp.GateCounts], n_steps: int, noise: cp.NoiseModel
) -> tuple[tuple[float, float], tuple[float, float]]:
    """(collective, cphase) fidelity caps of ``n_steps`` full steps."""
    return tuple(
        cp.fidelity_cap(cp.GateCounts(c.collective * n_steps, c.cphase * n_steps, c.single * n_steps), noise)
        for c in (counts["collective"], counts["cphase"])
    )


def run_figures(cfg: RunConfig) -> str:
    layout = _load_layout(cfg)
    phis = _phi_grid(cfg)
    if cfg.figure == "fig3":
        steps = cfg.steps or (1, 2, 3, 4)
        start = cfg.start_sector if cfg.start_sector is not None else 0.75
        rows = dyn.sweep(layout, cfg.coupling, list(steps), phis, start)
        return dyn.sweep_csv(rows)
    if cfg.figure == "figS2":
        steps = cfg.steps or (1, 2, 4, 8, 16, 32, 64)
        starts = (cfg.start_sector,) if cfg.start_sector is not None else (0.75, 2.75)
        rows = dyn.sweep(layout, cfg.coupling, list(steps), phis, starts)
        per_start = len(rows) // len(starts)
        lines = ["start,N,phi,gauge_I,gauge_D,overlap_I0"]
        for index, row in enumerate(rows):
            lines.append(
                f"{starts[index // per_start]!r},{row.steps},{row.phi!r},{row.gauge_ideal!r},"
                f"{row.gauge_digital!r},{row.overlap_initial!r}"
            )
        return "\n".join(lines) + "\n"
    if cfg.figure == "fig4":
        steps = cfg.steps or (2, 3)
        start = cfg.start_sector if cfg.start_sector is not None else 2.25
        rows = dyn.sweep(layout, cfg.coupling, list(steps), phis, start)
        counts = _step_counts(layout)
        lines = [
            "N,phi,overlap_I0,fidelity_ID,"
            "cap_collective_low,cap_collective_high,cap_cphase_low,cap_cphase_high"
        ]
        bands = {n_steps: _fidelity_bands(counts, n_steps, cfg.noise) for n_steps in set(steps)}
        for row in rows:
            coll_band, cph_band = bands[row.steps]
            lines.append(
                f"{row.steps},{row.phi!r},{row.overlap_initial!r},{row.fidelity!r},"
                f"{coll_band[0]!r},{coll_band[1]!r},{cph_band[0]!r},{cph_band[1]!r}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown figure {cfg.figure!r}")


def _single_gate_bound(weights: list[int], backend: str) -> int:
    """Single-qubit gates one step may use: 2w+1 per weight-w monomial on the
    collective backend, 6w+1 on the C-phase backend."""
    return sum((2 * w + 1) if backend == "collective" else (6 * w + 1) for w in weights)


def run_compile(cfg: RunConfig) -> tuple[str, str | None]:
    layout = _load_layout(cfg)
    if cfg.monomial is not None:
        from .pauli import parse_string

        monomials = [parse_string(cfg.monomial)]
    else:
        monomials = lm.plaquette_monomials(layout, cfg.coupling)
    circuit = cp.compile_step(monomials, cfg.phi, cfg.backend)
    report = cp.resource_report(circuit, cfg.noise, backend=cfg.backend)
    report["single_bound"] = _single_gate_bound([m.weight for m in monomials], cfg.backend)
    report["backend"] = cfg.backend
    report["monomials"] = len(monomials)
    if report["single"] > report["single_bound"]:
        raise GuardError(f"{report['single']} single-qubit gates exceed the bound {report['single_bound']}")
    circuit_text = cp.format_circuit(circuit) if cfg.circuit_out else None
    return cp.report_json(report), circuit_text


def run_bounds(cfg: RunConfig) -> str:
    try:
        generic = cp.plaquette_steps_bound(cfg.plaquettes, cfg.jt, cfg.eps, cfg.fractal_degree)
        printed = cp.printed_steps_bound(cfg.plaquettes, cfg.jt, cfg.eps)
    except OverflowError:
        raise LayoutError("the step bound overflows a float for these inputs") from None
    report = {
        "schema": 1,
        "plaquettes": cfg.plaquettes,
        "Jt": cfg.jt,
        "eps": cfg.eps,
        "k": cfg.fractal_degree,
        "steps_generic": generic,
        "steps_printed_constant": int(np.ceil(printed)),
        "steps_printed_constant_raw": printed,
        "constant_generic": cp.plaquette_bound_constant(cfg.fractal_degree),
        "constant_printed": cp.PRINTED_BOUND_CONSTANT,
        "norm_reading": "per-plaquette norm bound |J|/8 (reproduces the printed "
        "constant); the termwise triangle inequality gives 8|J| instead",
    }
    return cp.report_json(report)


def run_matter(cfg: RunConfig) -> str:
    chain = mt.ChainConfig(
        n_sites=cfg.sites,
        omega=cfg.omega,
        hopping=cfg.hopping,
        n0=cfg.n0,
        matter_number=cfg.matter_number,
    )
    try:
        with np.errstate(over="raise", invalid="raise"):
            rows = mt.compare_effective(chain, list(cfg.ratios))
    except (OverflowError, FloatingPointError):
        raise LayoutError("the matter-chain energies overflow a float for these inputs") from None
    return mt.comparison_csv(rows)


def run_covariance(cfg: RunConfig) -> str:
    layout = _load_layout(cfg)
    rng = np.random.default_rng(cfg.seed)
    lines = ["set,link,max_deviation"]
    angle_sets = [{v: tuple(rng.uniform(-np.pi, np.pi, 3)) for v in layout.vertices} for _ in range(cfg.sets)]
    for index, deviations in enumerate(lm.gauge_covariance_deviations(layout, angle_sets)):
        for link_id, deviation in deviations.items():
            lines.append(f"{index},{link_id},{deviation!r}")
    return "\n".join(lines) + "\n"


def dispatch(cfg: RunConfig) -> dict[str, str]:
    """Run one command; returns {output path or '-': content}."""
    if cfg.command == "sectors":
        return {"main": run_sectors(cfg)}
    if cfg.command == "figures":
        return {"main": run_figures(cfg)}
    if cfg.command == "compile":
        report, circuit_text = run_compile(cfg)
        out = {"main": report}
        if circuit_text is not None:
            out["circuit"] = circuit_text
        return out
    if cfg.command == "bounds":
        return {"main": run_bounds(cfg)}
    if cfg.command == "matter":
        return {"main": run_matter(cfg)}
    if cfg.command == "covariance":
        return {"main": run_covariance(cfg)}
    raise ValueError(f"unknown command {cfg.command!r}")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part)


def build_parser(defaults: dict[str, object] | None = None) -> argparse.ArgumentParser:
    """The su2link parser; ``defaults`` replaces the built-in defaults of
    every command's options.  Their string values are converted by the
    option's type, and one that does not convert raises
    ``argparse.ArgumentError`` instead of exiting."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value defaults file")
    common.add_argument("--out", help="output file (default: stdout)")
    parser = argparse.ArgumentParser(
        prog="su2link",
        description="Spin-encoded gauge plaquette toolkit: sector analysis, "
        "digitized dynamics, gate compilation, step bounds, matter-chain checks.",
        epilog="A config file (--config) holds flat key=value lines using the "
        "option names without the leading dashes and with dashes replaced by "
        "underscores (e.g. phi_step=0.1); explicit flags take precedence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_layout(p):
        p.add_argument("--layout", dest="layout_path", help="plaquette layout file (default: built-in triangle)")

    p = sub.add_parser("sectors", parents=[common], help="gauge sector eigenvalues and degeneracies (CSV)")
    add_layout(p)

    p = sub.add_parser("figures", parents=[common], help="tabulated data products for the named figures")
    p.add_argument("figure", choices=["fig3", "fig4", "figS2"])
    add_layout(p)
    p.add_argument("--J", dest="coupling", type=float, default=1.0)
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
    p.add_argument("--J", dest="coupling", type=float, default=1.0)
    p.add_argument("--circuit-out", help="also write the gate list to this file")

    p = sub.add_parser("bounds", parents=[common], help="digitization step-count bounds (JSON report)")
    p.add_argument("--plaquettes", type=int, default=1)
    p.add_argument("--Jt", dest="jt", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--k", dest="fractal_degree", type=int, default=1)

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
        parser.exit_on_error = False
        for command in sub.choices.values():
            command.exit_on_error = False
            command.set_defaults(**defaults)
    return parser


_PHI_DEFAULTS = {
    "fig3": (0.05, 2.0, 0.05),
    "figS2": (0.05, 2.0, 0.05),
    "fig4": (0.01, 1.6, 0.01),
}


def _config_defaults(args: argparse.Namespace) -> dict[str, object]:
    """The ``key=value`` lines of ``args.config`` as option defaults: keys
    are the chosen command's option destinations, as ``args`` lists them; a
    switch is on for 1/true/yes."""
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


def _to_run_config(args: argparse.Namespace) -> RunConfig:
    kwargs = {"command": args.command}
    if args.command == "figures":
        start, stop, step = _PHI_DEFAULTS[args.figure]
        kwargs.update(
            figure=args.figure,
            layout_path=args.layout_path,
            coupling=args.coupling,
            steps=tuple(args.steps),
            phi_start=args.phi_start if args.phi_start is not None else start,
            phi_stop=args.phi_stop if args.phi_stop is not None else stop,
            phi_step=args.phi_step if args.phi_step is not None else step,
            start_sector=args.start_sector,
        )
    elif args.command == "sectors":
        kwargs.update(layout_path=args.layout_path)
    elif args.command == "compile":
        if args.monomial and args.step:
            raise LayoutError("--step and --monomial are mutually exclusive")
        kwargs.update(
            layout_path=args.layout_path,
            backend=args.backend,
            monomial=args.monomial,
            phi=args.phi,
            coupling=args.coupling,
            circuit_out=args.circuit_out,
        )
    elif args.command == "bounds":
        kwargs.update(
            plaquettes=args.plaquettes,
            jt=args.jt,
            eps=args.eps,
            fractal_degree=args.fractal_degree,
        )
    elif args.command == "matter":
        kwargs.update(
            sites=args.sites,
            ratios=tuple(args.ratios),
            omega=args.omega,
            hopping=args.hopping,
            n0=args.n0,
            matter_number=args.matter_number,
        )
    elif args.command == "covariance":
        kwargs.update(layout_path=args.layout_path, sets=args.sets, seed=args.seed)
    cfg = RunConfig(**kwargs)
    if not (math.isfinite(cfg.coupling) and cfg.coupling != 0):
        raise LayoutError(f"--J must be finite and nonzero, got {cfg.coupling!r}")
    if not math.isfinite(cfg.omega):
        raise LayoutError(f"--omega must be finite, got {cfg.omega!r}")
    if not (math.isfinite(cfg.hopping) and cfg.hopping > 0):
        raise LayoutError(f"--hopping must be finite and positive, got {cfg.hopping!r}")
    if not all(math.isfinite(ratio) and ratio > 0 for ratio in cfg.ratios):
        raise LayoutError(f"--ratios must be finite and positive, got {','.join(map(repr, cfg.ratios))}")
    if not (math.isfinite(cfg.jt) and cfg.jt >= 0):
        raise LayoutError(f"--Jt must be finite and non-negative, got {cfg.jt!r}")
    if not (math.isfinite(cfg.eps) and cfg.eps > 0):
        raise LayoutError(f"--eps must be finite and positive, got {cfg.eps!r}")
    if cfg.plaquettes < 1:
        raise LayoutError(f"--plaquettes must be at least 1, got {cfg.plaquettes}")
    if cfg.sets < 0:
        raise LayoutError(f"--sets must be non-negative, got {cfg.sets}")
    if cfg.sets > PHI_GRID_LIMIT:
        raise LayoutError(f"--sets must be at most {PHI_GRID_LIMIT}, got {cfg.sets}")
    if cfg.seed < 0:
        raise LayoutError(f"--seed must be non-negative, got {cfg.seed}")
    return cfg


def _write(path: str | None, content: str) -> None:
    if path is None:
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # parsing again with the file's values as defaults lets argparse
            # decide which flags were given, in whatever spelling
            args = build_parser(_config_defaults(args)).parse_args(argv)
        cfg = _to_run_config(args)
        outputs = dispatch(cfg)
    except GuardError as err:
        print(f"numerical guard: {err}", file=sys.stderr)
        return EXIT_GUARD
    except (LayoutError, ValueError, OSError, argparse.ArgumentError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    _write(args.out, outputs["main"])
    if "circuit" in outputs:
        _write(args.circuit_out, outputs["circuit"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
