"""Spin-encoded gauge plaquette toolkit.

Six qubits per triangle (a position and a spin qubit per link) carry the
minimal non-Abelian gauge model; this package builds the operator algebra,
classifies gauge sectors, runs exact and digitized dynamics, lowers the step
monomials to two superconducting gate sets with exact resource accounting, and
validates the perturbative matter-chain construction.
"""
from .compiler import (
    Circuit,
    Gate,
    GateCounts,
    NoiseModel,
    compile_cphase,
    compile_collective,
    compile_step,
    fidelity_cap,
    trotter_bound,
)
from .dynamics import exact_evolve, gauge_deviation, overlap, sweep, trotter_evolve
from .errors import GuardError, LayoutError
from .linkmodel import (
    GaugeSectorTable,
    PlaquetteLayout,
    canonical_sector_state,
    gauge_covariance_check,
    gauge_generator,
    gauge_sectors,
    link_operator,
    plaquette_hamiltonian,
    triangle_layout,
)
from .matter import ChainConfig, compare_effective, effective_hamiltonian
from .pauli import PauliString, PauliSum, commutator, dense, multiply, parse_string, parse_sum

__all__ = [
    "ChainConfig",
    "Circuit",
    "Gate",
    "GateCounts",
    "GaugeSectorTable",
    "GuardError",
    "LayoutError",
    "NoiseModel",
    "PauliString",
    "PauliSum",
    "PlaquetteLayout",
    "canonical_sector_state",
    "commutator",
    "compare_effective",
    "compile_collective",
    "compile_cphase",
    "compile_step",
    "dense",
    "effective_hamiltonian",
    "exact_evolve",
    "fidelity_cap",
    "gauge_covariance_check",
    "gauge_deviation",
    "gauge_generator",
    "gauge_sectors",
    "link_operator",
    "multiply",
    "overlap",
    "parse_string",
    "parse_sum",
    "plaquette_hamiltonian",
    "sweep",
    "triangle_layout",
    "trotter_bound",
    "trotter_evolve",
]

__version__ = "0.1.0"
