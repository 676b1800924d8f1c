"""Dense complex matrix primitives for bipartite state analysis.

A pure state of C^d (x) C^d' is carried as a d x d' complex matrix: the
amplitude of |p>|p'> sits at entry (p, p').  Under this identification the
ordinary inner product of two states becomes the Hilbert-Schmidt inner
product of their matrices, and the number of nonzero Schmidt coefficients
of a state equals the rank of its matrix.  Everything here is a pure
function over numpy arrays; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import NumericalFailure, ShapeMismatch

if TYPE_CHECKING:
    from .verify import VerifyConfig

__all__ = [
    "StateVector",
    "as_matrix",
    "hs_inner",
    "kron",
    "singular_values",
    "stacked_singular_values",
    "state_to_matrix",
    "matrix_to_state",
    "is_unitary",
]


def as_matrix(data: Any) -> np.ndarray:
    """Coerce input to a 2-D complex array, rejecting NaN and infinity."""
    arr = np.asarray(data, dtype=complex)
    if arr.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr.real) & np.isfinite(arr.imag)):
        raise ValueError("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class StateVector:
    """Bipartite pure state on C^dim_a (x) C^dim_b.

    The amplitude of the product ket |p>|p'> is stored at flat index
    p * dim_b + p', which is exactly the row-major layout of the matrix
    produced by state_to_matrix.
    """

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("dimensions must be positive")
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.dim_a * self.dim_b:
            raise ShapeMismatch(
                f"expected {self.dim_a * self.dim_b} amplitudes, got {amps.size}"
            )
        if not np.all(np.isfinite(amps.real) & np.isfinite(amps.imag)):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def hs_inner(a: Any, b: Any) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b), conjugate-linear in a."""
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise ShapeMismatch(f"shapes {am.shape} and {bm.shape} differ")
    return complex(np.sum(am.conj() * bm))


def kron(a: Any, b: Any) -> np.ndarray:
    """Kronecker product with the first operand as the left (outer) factor."""
    return np.kron(as_matrix(a), as_matrix(b))


def singular_values(a: Any) -> np.ndarray:
    """Singular values of a matrix in descending order."""
    return stacked_singular_values(as_matrix(a))


def stacked_singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values of every matrix in a (..., m, n) stack, each row descending."""
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def state_to_matrix(state: StateVector) -> np.ndarray:
    """Reshape a bipartite state into its dim_a x dim_b coefficient matrix."""
    return state.amplitudes.reshape(state.dim_a, state.dim_b).copy()


def matrix_to_state(a: Any) -> StateVector:
    """Inverse of state_to_matrix; dimensions are read off the matrix shape."""
    am = as_matrix(a)
    return StateVector(dim_a=am.shape[0], dim_b=am.shape[1], amplitudes=am.reshape(-1))


def is_unitary(a: Any, cfg: "VerifyConfig | None" = None) -> bool:
    """Whether a square matrix satisfies a^dagger a = I within tolerance."""
    am = as_matrix(a)
    n, m = am.shape
    if n != m:
        raise ShapeMismatch(f"unitarity requires a square matrix, got {am.shape}")
    tol = 1e-9 if cfg is None else cfg.tol_abs
    gram = am.conj().T @ am
    return float(np.max(np.abs(gram - np.eye(n)))) <= tol
