"""Shared exception types and the memory budget."""
from typing import Callable

MEMORY_BUDGET = 2**30  # bytes that one stage may hold at once


class GuardError(ValueError):
    """A numerical guard tripped (memory budget, degenerate denominator,
    non-Hermitian input where a Hermitian operator is required)."""


class LayoutError(ValueError):
    """A plaquette layout or run configuration is malformed or names
    something that does not exist (an unknown id or gauge sector)."""


def check_memory(nbytes: Callable[[], float], what: str) -> None:
    """Raise GuardError before ``what`` allocates if ``nbytes()``, float arithmetic that never
    builds 2^n as an integer, exceeds ``MEMORY_BUDGET``; a float overflow counts as over."""
    try:
        estimate = nbytes()
    except OverflowError:
        estimate = float("inf")
    if not estimate <= MEMORY_BUDGET:
        raise GuardError(f"{what} needs an estimated {estimate:.0f} bytes, over the memory budget of {MEMORY_BUDGET} bytes")
