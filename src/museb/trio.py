"""Obstructions to extending a mutually unbiased pair by a third basis.

A pair of orthonormal bases of C^n with all overlap magnitudes 1/sqrt(n)
is, up to local change of basis, the pair (identity, W) for a complex
Hadamard matrix W.  If W, or its transpose, can be rephased by rows and
columns so that two rows become real in three or more common columns,
then no third basis can join the pair.  The scan below finds such a
certificate when one exists at the given tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import catalog
from .errors import NotCHM, ShapeMismatch
from .matspace import _check_tol, _unitary_deviation, as_matrix
from .verify import VerificationReport, _stage, check_mu_pair

__all__ = [
    "ObstructionFinding",
    "is_chm",
    "dephased_obstruction",
    "theorem2_reproduce",
]


@dataclass(frozen=True)
class ObstructionFinding:
    """Certificate that a matrix has (or lacks) a real 2 x 3 pattern.

    When obstructed, row_pair names two rows and columns lists at least
    three column indices; multiplying the second row of the pair by
    row_phase, and column c of the inspected matrix by the aligned entry
    of phases, makes both rows real there.  on_transpose records whether
    the pattern was found on the transpose instead.
    """

    obstructed: bool
    on_transpose: bool = False
    row_pair: tuple[int, int] | None = None
    columns: tuple[int, ...] = ()
    phases: tuple[complex, ...] = ()
    row_phase: complex = 1.0 + 0.0j


def is_chm(w, tol: float = 1e-9) -> bool:
    """Whether w is a complex Hadamard matrix: its one Hadamard deviation is within tol."""
    _check_tol(tol)
    wm = as_matrix(w)
    n, m = wm.shape
    if n != m:
        raise ShapeMismatch(f"expected a square matrix, got {wm.shape}")
    return _hadamard_deviation(wm) <= tol


def _hadamard_deviation(wm: np.ndarray) -> float:
    """How far a square matrix is from a complex Hadamard matrix scaled to be unitary:
    the larger of its unitarity deviation and its moduli's largest distance from 1/sqrt(n)."""
    flatness = np.max(np.abs(np.abs(wm) - 1.0 / np.sqrt(wm.shape[0])))
    return float(np.max([_unitary_deviation(wm), flatness]))


def _dephasing_scan(wm: np.ndarray, tol: float):
    # after a row phase on r2, two rows dephase to real entries in a set of
    # columns exactly when their phase difference is constant modulo pi
    # there; each column in turn anchors that constant
    ang = np.angle(wm)
    rows = wm.shape[0]
    for r1 in range(rows):
        for r2 in range(r1 + 1, rows):
            delta = ang[r1] - ang[r2]
            agree = np.abs(np.sin(delta[:, None] - delta[None, :])) <= tol
            anchors = np.flatnonzero(agree.sum(axis=1) >= 3)
            if anchors.size:
                hits = np.flatnonzero(agree[anchors[0]])
                phases = np.exp(-1j * ang[r1, hits])
                shift = delta[anchors[0]]
                shift -= np.pi * np.round(shift / np.pi)  # modulo pi, nearest zero
                return (r1, r2), hits, phases, np.exp(1j * shift)
    return None


def dephased_obstruction(w, tol: float = 1e-9) -> ObstructionFinding:
    """Search for a real 2 x 3 pattern reachable by row and column rephasing.

    The input must be a complex Hadamard matrix; both the matrix and its
    transpose are scanned, since membership in a mutually unbiased triple
    is invariant under transposition.  An obstructed finding certifies
    that no third basis is mutually unbiased to both the identity and w.
    """
    _check_tol(tol)
    wm = as_matrix(w)
    if not is_chm(wm, tol):
        raise NotCHM("dephasing obstructions are only meaningful for complex Hadamard matrices")
    for transposed, mat in ((False, wm), (True, wm.T)):
        hit = _dephasing_scan(mat, tol)
        if hit is not None:
            (r1, r2), cols, phases, row_phase = hit
            return ObstructionFinding(
                obstructed=True,
                on_transpose=transposed,
                row_pair=(r1, r2),
                columns=tuple(int(c) for c in cols),
                phases=tuple(complex(p) for p in phases),
                row_phase=complex(row_phase),
            )
    return ObstructionFinding(obstructed=False)


def _validate_witness(wm: np.ndarray, finding: ObstructionFinding) -> float:
    """Largest residual imaginary part after applying the claimed dephasing."""
    mat = wm.T if finding.on_transpose else wm
    r1, r2 = finding.row_pair  # type: ignore[misc]
    worst = 0.0
    for col, phase in zip(finding.columns, finding.phases):
        for r, row_phase in ((r1, 1.0), (r2, finding.row_phase)):
            worst = max(worst, abs((mat[r, col] * row_phase * phase).imag))
    return worst


def theorem2_reproduce(tol: float = 1e-9) -> VerificationReport:
    """Re-derive the no-third-basis obstruction for the frozen (U, V) pair.

    One stage of eight checks, each a deviation held to tol, in order: 0-1, U and V
    are unitary; 2-3, their columns reshape to the eq16 and eq17 families; 4, the two
    families are mutually unbiased at 1/sqrt(6); 5, W = U^dagger V is a complex
    Hadamard matrix (is_chm's deviation); 6, right-multiplying by the frozen Q makes
    the lower-left 2 x 3 block real with the known sign pattern; 7, the dephasing scan
    certifies the obstruction, with the returned witness re-validated entry by entry.
    The scan runs only when check 5 passes; without a witness check 7 reads 1.0.  A
    failing check s offends at (s, s), through verify's one stage rule.
    """
    _check_tol(tol)
    u = catalog("U")
    v = catalog("V")
    q = catalog("Q")
    f16 = catalog("eq16")
    f17 = catalog("eq17")

    w = u.conj().T @ v
    hadamard = _hadamard_deviation(w)
    # the scan refuses a non-Hadamard W, which leaves nothing obstructed
    finding = (dephased_obstruction(w, tol) if hadamard <= tol
               else ObstructionFinding(obstructed=False))
    s6 = np.sqrt(6.0)
    target = np.array([[-1 / s6, -1 / s6, 1 / s6], [1 / s6, 1 / s6, 1 / s6]])
    devs = np.array([
        _unitary_deviation(u),
        _unitary_deviation(v),
        np.max(np.abs(u.T.reshape(6, 2, 3) - f16.elements)),
        np.max(np.abs(v.T.reshape(6, 2, 3) - f17.elements)),
        check_mu_pair(f16, f17, tol).worst_violation,
        hadamard,
        np.max(np.abs((w @ q)[4:6, 0:3] - target)),
        _validate_witness(w, finding) if finding.obstructed else 1.0,
    ])
    return _stage(np.max(devs), lambda: np.diag(devs), np.abs, tol, len(devs), (0, 0))
