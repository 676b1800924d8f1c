"""Dense complex matrix primitives for bipartite state analysis.

A pure state of C^d (x) C^d' is carried as a d x d' complex matrix: the
amplitude of |p>|p'> sits at entry (p, p').  Under this identification the
ordinary inner product of two states becomes the Hilbert-Schmidt inner
product of their matrices, and the number of nonzero Schmidt coefficients
of a state equals the rank of its matrix.  Everything here is a pure
function over numpy arrays; inputs are never mutated.
"""

from __future__ import annotations

import numbers
from typing import Any

import numpy as np

from .errors import NumericalFailure, ShapeMismatch

__all__ = [
    "hs_inner",
    "singular_values",
    "is_unitary",
]


def _check_tol(tol: float) -> None:
    """The one tolerance rule: a real number, never a bool, in [0, 1e-3).

    A looser tol lets distinct structures pass as equal.
    """
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 <= tol < 1e-3:
        raise ValueError(f"tol must sit in [0, 1e-3), got {tol!r}")


def _require_int(name: str, n) -> int:
    """The one dimension rule: a Python or numpy integer, never a bool or a float, as an int."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(n).__name__}")
    return int(n)


def _check_count(name: str, value, least: int) -> None:
    """The one count rule: a Python or numpy integer, never a bool, of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def as_matrix(data: Any) -> np.ndarray:
    """Coerce input to a 2-D complex array, rejecting NaN and infinity."""
    arr = np.asarray(data, dtype=complex)
    if arr.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def hs_inner(a: Any, b: Any) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b), conjugate-linear in a."""
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise ShapeMismatch(f"shapes {am.shape} and {bm.shape} differ")
    return complex(np.sum(am.conj() * bm))


def singular_values(a: Any) -> np.ndarray:
    """Singular values of a matrix in descending order."""
    return stacked_singular_values(as_matrix(a))


def stacked_singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values of every matrix in a (..., m, n) stack, each row descending."""
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def is_unitary(a: Any, tol: float = 1e-9) -> bool:
    """Whether a square matrix satisfies a^dagger a = I within tol."""
    _check_tol(tol)
    am = as_matrix(a)
    n, m = am.shape
    if n != m:
        raise ShapeMismatch(f"unitarity requires a square matrix, got {am.shape}")
    return _unitary_deviation(am) <= tol


def _unitary_deviation(am: np.ndarray) -> float:
    """Largest entry of |a^dagger a - I| for a square matrix."""
    return float(np.max(np.abs(am.conj().T @ am - np.eye(am.shape[0]))))
