"""Small dense linear-algebra helpers shared across modules."""
from __future__ import annotations

import numpy as np

from .errors import GuardError

HERMITICITY_TOL = 1e-10


def expi_hermitian(matrix: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(i * scale * matrix) for Hermitian ``matrix`` via spectral decomposition.

    The check accepts what ``np.allclose(matrix, adjoint, atol=HERMITICITY_TOL)``
    accepts, with its default rtol of 1e-5, except that it refuses an infinite
    entry, which ``allclose`` takes as close to an equal one."""
    adjoint = matrix.conj().T
    if not (np.isfinite(matrix).all() and np.all(np.abs(matrix - adjoint) <= HERMITICITY_TOL + 1e-5 * np.abs(adjoint))):
        raise GuardError("matrix is not Hermitian within tolerance")
    eigvals, eigvecs = np.linalg.eigh(matrix)
    return (eigvecs * np.exp(1j * scale * eigvals)) @ eigvecs.conj().T


def unitary_distance_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise deviation between ``a`` and ``b`` after aligning global phase."""
    if a.shape != b.shape:
        raise ValueError(f"cannot compare unitaries of shapes {a.shape} and {b.shape}")
    overlap = np.vdot(a, b)  # trace(a^dag b)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-14 else 1.0
    return float(np.max(np.abs(a * phase - b)))
