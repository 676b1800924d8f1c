"""Constructors for the built-in entangled basis families.

The workhorses are weyl_meb, which builds a maximally entangled basis of
C^d (x) C^d' from shift and phase operators, and c23_partner, which pairs
the (2, 3) instance with a second basis parameterized by three phases.
The module also carries the mutually unbiased bases of prime dimensions
(compose tensors them into composite ones), a qubit-side trio of maximally
entangled bases, and a catalog of frozen reference families used
throughout the tests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionOrder,
    NotAdmissible,
    NotPrime,
    UnknownName,
)
from .matspace import _check_tol, _require_int, as_matrix
from .verify import BasisFamily, FamilySet

__all__ = [
    "ThetaParams",
    "CATALOG_NAMES",
    "solve_theta",
    "theta_mixing_matrix",
    "weyl_meb",
    "c23_family",
    "c23_partner",
    "is_prime",
    "factorize",
    "mub_prime",
    "mumeb_qubit",
    "catalog",
]

_S2 = np.sqrt(2.0)
_S3 = np.sqrt(3.0)
_S6 = np.sqrt(6.0)
_W3 = np.exp(2j * np.pi / 3)

# mumeb_qubit's D = expm(i pi/3 * (X + Y + Z)/sqrt(3)) as the doubles
# scipy.linalg.expm returns for it (see mumeb_qubit)
_QUBIT_FRAME = np.array([
    [complex(float.fromhex("0x1.ffffffffffffcp-2"), float.fromhex("0x1.0000000000000p-1")),
     complex(float.fromhex("0x1.0000000000001p-1"), float.fromhex("0x1.0000000000000p-1"))],
    [complex(float.fromhex("-0x1.0000000000001p-1"), float.fromhex("0x1.0000000000001p-1")),
     complex(float.fromhex("0x1.ffffffffffffcp-2"), float.fromhex("-0x1.0000000000001p-1"))],
])

# the admissibility constraint fixes theta2 + theta3 - 2*theta1 modulo 2*pi
_ADMISSIBLE_RESIDUE = 1.5 * np.pi


@dataclass(frozen=True)
class ThetaParams:
    """Phase triple for the (2, 3) partner-basis construction."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self) -> None:
        for name in ("theta1", "theta2", "theta3"):
            val = getattr(self, name)
            real = isinstance(val, numbers.Real) and not isinstance(val, bool)
            if not (real and math.isfinite(val)):
                raise ValueError(f"{name} must be a finite real number, got {val!r}")

    def residual(self) -> float:
        """Distance of theta2 + theta3 - 2*theta1 from the admissible value, mod 2*pi."""
        return float(_residual(self.theta1, self.theta2, self.theta3))

    def is_admissible(self, tol: float = 1e-9) -> bool:
        _check_tol(tol)
        return self.residual() <= tol


def solve_theta(theta1: float, theta2: float) -> float:
    """The unique theta3 in [0, 2*pi) making (theta1, theta2, theta3) admissible."""
    return float(_theta3(theta1, theta2))


# The phase formulas below act elementwise, on floats and on arrays alike, so
# the scalar API above and the batched closure probes share one arithmetic.

def _residual(t1, t2, t3):
    r = (t2 + t3 - 2.0 * t1 - _ADMISSIBLE_RESIDUE) % (2.0 * np.pi)
    return np.minimum(r, 2.0 * np.pi - r)


def _theta3(t1, t2):
    return (_ADMISSIBLE_RESIDUE + 2.0 * t1 - t2) % (2.0 * np.pi)


def _mixers(t1, t2, t3) -> np.ndarray:
    # stack of theta_mixing_matrix over the broadcast phases, shape (..., 2, 2)
    m = np.empty(np.shape(t1) + (2, 2), dtype=complex)
    m[..., 0, 0] = np.exp(1j * t1)
    m[..., 0, 1] = _S2 * np.exp(1j * t2)
    m[..., 1, 0] = _S2 * np.exp(1j * t3)
    m[..., 1, 1] = np.exp(1j * (t1 + np.pi / 2))
    m /= _S3
    return m


def is_prime(n: int) -> bool:
    n = _require_int("n", n)
    return n >= 2 and factorize(n) == ((n, 1),)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization n = prod(p ** a) as (p, a) pairs sorted by prime."""
    n = _require_int("n", n)
    if n < 2:
        raise ValueError(f"factorization needs n >= 2, got {n}")
    m = n
    factors: list[tuple[int, int]] = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += 1
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def weyl_meb(d: int, dprime: int) -> BasisFamily:
    """Maximally entangled basis of C^d (x) C^d' from shift and phase operators.

    Element (m, n), stored at flat index m*d + n, is the matrix with
    entries M[p, (p + m) mod d'] = omega^(n p) / sqrt(d) for omega the
    primitive d-th root of unity.  Requires d <= d'; every element has
    Schmidt number d.
    """
    d, dprime = _require_int("d", d), _require_int("dprime", dprime)
    if d < 1 or dprime < 1:
        raise ValueError("dimensions must be positive")
    if d > dprime:
        raise DimensionOrder(f"construction needs d <= d', got d={d}, d'={dprime}")
    omega = np.exp(2j * np.pi / d)
    m, n, p = np.ogrid[:dprime, :d, :d]
    out = np.zeros((d * dprime, d, dprime), dtype=complex)
    out.reshape(dprime, d, d, dprime)[m, n, p, (p + m) % dprime] = omega ** (n * p) / np.sqrt(d)
    return BasisFamily._taking(d, dprime, d, f"weyl({d},{dprime})", out)


# the (2, 3) Weyl stack that c23_family mixes; built once, read-only
_W23 = weyl_meb(2, 3).elements


def theta_mixing_matrix(theta: ThetaParams) -> np.ndarray:
    """The 2x2 matrix that mixes the left factor in the partner construction.

    It is unitary exactly when theta is admissible.
    """
    return _mixers(theta.theta1, theta.theta2, theta.theta3)


def _as_mixer(mixer) -> np.ndarray:
    # a finite 2x2 complex matrix, or ShapeMismatch / ValueError
    a = as_matrix(mixer)
    if a.shape != (2, 2):
        raise ValueError(f"mixer must be 2x2, got {a.shape}")
    return a


def _c23_elements(mixer) -> np.ndarray:
    # the one (2, 3) formula: element i is mixer.T @ weyl_meb(2, 3)[i]
    return _as_mixer(mixer).T @ _W23


def c23_family(mixer, label: str = "") -> BasisFamily:
    """Basis of C^2 (x) C^3 whose left factor is mixed by a 2x2 matrix.

    Element i is mixer.T @ weyl_meb(2, 3)[i], so the identity mixer gives
    the Weyl basis itself.  The result is orthonormal exactly when the
    mixer is unitary.
    """
    return BasisFamily._taking(2, 3, 2, label, _c23_elements(mixer))


def c23_partner(theta: ThetaParams, tol: float = 1e-9) -> tuple[BasisFamily, BasisFamily]:
    """The mutually unbiased pair of Schmidt-rank-2 bases of C^2 (x) C^3.

    Returns (phi, psi) where phi is weyl_meb(2, 3) and psi is the partner
    determined by the phase triple.  Raises NotAdmissible when the phases
    violate the admissibility constraint by more than tol radians; like
    every tol in the package, tol must sit in [0, 1e-3).
    """
    _check_tol(tol)
    if not theta.is_admissible(tol):
        raise NotAdmissible(
            "theta2 + theta3 - 2*theta1 must equal 3*pi/2 mod 2*pi; "
            f"off by {theta.residual():.3e} rad"
        )
    phi = weyl_meb(2, 3)
    label = f"c23({theta.theta1:.6g},{theta.theta2:.6g},{theta.theta3:.6g})"
    psi = c23_family(theta_mixing_matrix(theta), label=label)
    return phi, psi


def mub_prime(p: int) -> FamilySet:
    """The standard p + 1 mutually unbiased bases of C^p for prime p.

    For p = 2 these are the frozen T1, T2, T3 families from the catalog.
    For odd p, basis b has vector j with amplitude omega^(b s^2 + j s)/sqrt(p)
    at position s, preceded by the computational basis.  Every amplitude is
    looked up in one table of the p scaled roots omega^e/sqrt(p), so each
    basis is built as its own (p, 1, p) array of 1 x p rows and nothing
    larger than one basis is made beside the set.
    """
    p = _require_int("p", p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        return FamilySet((catalog("T1"), catalog("T2"), catalog("T3")))
    roots = np.exp(2j * np.pi / p) ** np.arange(p) / np.sqrt(p)
    j, s = np.ogrid[:p, :p]
    # each vector of C^p is a 1 x p matrix, a Schmidt-rank-1 element
    families = [BasisFamily._taking(1, p, 1, f"mub{p}.standard",
                                    np.eye(p, dtype=complex).reshape(p, 1, p))]
    families += [BasisFamily._taking(1, p, 1, f"mub{p}.quad{b}",
                                     roots[((b * s * s + j * s) % p)[:, None, :]])
                 for b in range(p)]
    return FamilySet(tuple(families))


def mumeb_qubit() -> FamilySet:
    """Three mutually unbiased maximally entangled bases of C^2 (x) C^2.

    Basis t consists of the four matrices D^t P / sqrt(2) for P among the
    identity and the three Pauli matrices, where D = exp(i pi/3 * n.sigma)
    for the balanced axis n = (1,1,1)/sqrt(3).  D cycles the Pauli frame,
    and any two of the three bases meet at overlap magnitude 1/2.

    D is exactly (I + i(X + Y + Z))/2; _QUBIT_FRAME stores it as the
    doubles scipy.linalg.expm returns, which keeps every saved frame's
    bytes without importing scipy.linalg for one fixed 2x2 matrix.
    """
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    families = []
    for t in range(3):
        frame = np.linalg.matrix_power(_QUBIT_FRAME, t)
        mats = np.array([frame @ pauli for pauli in (eye, x, y, z)]) / _S2
        families.append(BasisFamily._taking(2, 2, 2, f"frame{t}", mats))
    return FamilySet(tuple(families))


# ---------------------------------------------------------------------------
# frozen catalog
# ---------------------------------------------------------------------------

def _r1_elements() -> np.ndarray:
    raw = [
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0, 0], [0, -1, 0]],
        [[0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, -1]],
        [[0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [-1, 0, 0]],
    ]
    return np.array(raw, dtype=complex) / _S2


def _r2_elements() -> np.ndarray:
    raw = [
        [[1, _S2, 0], [-_S2 * 1j, 1j, 0]],
        [[1, -_S2, 0], [-_S2 * 1j, -1j, 0]],
        [[0, 1, _S2], [0, -_S2 * 1j, 1j]],
        [[0, 1, -_S2], [0, -_S2 * 1j, -1j]],
        [[_S2, 0, 1], [1j, 0, -_S2 * 1j]],
        [[-_S2, 0, 1], [-1j, 0, -_S2 * 1j]],
    ]
    return np.array(raw, dtype=complex) / _S6


def _s1_elements() -> np.ndarray:
    a = _W3 + 2
    b = 2 * _W3**2 + 1
    c = _W3**2 + 2 * _W3
    raw = [
        [[a, a, a], [b, a, c], [c, a, b]],
        [[a, c, b], [b, c, a], [c, c, c]],
        [[a, b, c], [b, b, b], [c, b, a]],
        [[a, a, a], [a, c, b], [a, b, c]],
        [[a, c, b], [a, b, c], [a, a, a]],
        [[a, b, c], [a, a, a], [a, c, b]],
        [[a, a, a], [c, b, a], [b, c, a]],
        [[a, c, b], [c, a, b], [b, b, b]],
        [[a, b, c], [c, c, c], [b, a, c]],
    ]
    return np.array(raw, dtype=complex) / (3 * _S3)


def _s2_elements() -> np.ndarray:
    w = _W3
    raw = [
        [[0, 3 * w**2, 0], [3 * w, 0, 0], [0, 0, 3]],
        [[0, 3, 0], [3 * w, 0, 0], [0, 0, 3 * w**2]],
        [[0, 3 * w, 0], [3 * w, 0, 0], [0, 0, 3 * w]],
        [[3 * w**2, 0, 0], [0, 0, 3 * w], [0, 3, 0]],
        [[3 * w**2, 0, 0], [0, 0, 3], [0, 3 * w, 0]],
        [[3 * w**2, 0, 0], [0, 0, 3 * w**2], [0, 3 * w**2, 0]],
        [[0, 0, 3 * w**2], [0, 3 * w, 0], [3, 0, 0]],
        [[0, 0, 3 * w], [0, 3 * w**2, 0], [3, 0, 0]],
        [[0, 0, 3], [0, 3, 0], [3, 0, 0]],
    ]
    return np.array(raw, dtype=complex) / (3 * _S3)


def _s3_elements() -> np.ndarray:
    w = _W3
    raw = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, w, 0], [0, 0, w**2]],
        [[1, 0, 0], [0, w**2, 0], [0, 0, w]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[0, 0, w**2], [1, 0, 0], [0, w, 0]],
        [[0, 0, w], [1, 0, 0], [0, w**2, 0]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, w, 0], [0, 0, w**2], [1, 0, 0]],
        [[0, w**2, 0], [0, 0, w], [1, 0, 0]],
    ]
    return np.array(raw, dtype=complex) / _S3


_EQ16_KETS = [
    (1, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, -1, 0),
    (0, 1, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, -1),
    (0, 0, 1, 1, 0, 0),
    (0, 0, 1, -1, 0, 0),
]

_EQ17_KETS = [
    (1, _S2, 0, -_S2 * 1j, 1j, 0),
    (1, -_S2, 0, -_S2 * 1j, -1j, 0),
    (0, 1, _S2, 0, -_S2 * 1j, 1j),
    (0, 1, -_S2, 0, -_S2 * 1j, -1j),
    (_S2, 0, 1, 1j, 0, -_S2 * 1j),
    (-_S2, 0, 1, -1j, 0, -_S2 * 1j),
]


def _kets_to_family(kets, scale: float, label: str) -> BasisFamily:
    # amplitude |p>|p'> sits at flat index 3p + p': each ket is a row-major 2x3 matrix
    elements = np.array(kets, dtype=complex).reshape(6, 2, 3) / scale
    return BasisFamily._taking(2, 3, 2, label, elements)


def _u_matrix() -> np.ndarray:
    h = 1 / _S2
    return np.array(
        [
            [h, h, 0, 0, 0, 0],
            [0, 0, h, h, 0, 0],
            [0, 0, 0, 0, h, h],
            [0, 0, 0, 0, h, -h],
            [h, -h, 0, 0, 0, 0],
            [0, 0, h, -h, 0, 0],
        ],
        dtype=complex,
    )


def _v_matrix() -> np.ndarray:
    u = 1 / _S6
    s = _S2 / _S6
    return np.array(
        [
            [u, u, 0, 0, s, -s],
            [s, -s, u, u, 0, 0],
            [0, 0, s, -s, u, u],
            [-s * 1j, -s * 1j, 0, 0, u * 1j, -u * 1j],
            [u * 1j, -u * 1j, -s * 1j, -s * 1j, 0, 0],
            [0, 0, u * 1j, -u * 1j, -s * 1j, -s * 1j],
        ],
        dtype=complex,
    )


def _othermu_matrix() -> np.ndarray:
    return np.array(
        [
            [(_S2 / 2) * (1 + 1j), -1 + 1j],
            [-1 - 1j, (_S2 / 2) * (-1 + 1j)],
        ],
        dtype=complex,
    ) / _S3


_CATALOG_BUILDERS = {
    "R1": lambda: BasisFamily._taking(2, 3, 2, "R1", _r1_elements()),
    "R2": lambda: BasisFamily._taking(2, 3, 2, "R2", _r2_elements()),
    "S1": lambda: BasisFamily._taking(3, 3, 3, "S1", _s1_elements()),
    "S2": lambda: BasisFamily._taking(3, 3, 3, "S2", _s2_elements()),
    "S3": lambda: BasisFamily._taking(3, 3, 3, "S3", _s3_elements()),
    "T1": lambda: BasisFamily._taking(
        1, 2, 1, "T1", np.array([[[0, 1]], [[1, 0]]], dtype=complex)
    ),
    "T2": lambda: BasisFamily._taking(
        1, 2, 1, "T2", np.array([[[1, 1]], [[1, -1]]], dtype=complex) / _S2
    ),
    "T3": lambda: BasisFamily._taking(
        1, 2, 1, "T3", np.array([[[1, 1j]], [[1, -1j]]], dtype=complex) / _S2
    ),
    "U": _u_matrix,
    "V": _v_matrix,
    "Q": lambda: np.diag([-1j, -1j, 1, 1, 1, 1]).astype(complex),
    "eq16": lambda: _kets_to_family(_EQ16_KETS, _S2, label="eq16"),
    "eq17": lambda: _kets_to_family(_EQ17_KETS, _S6, label="eq17"),
    "othermu": _othermu_matrix,
}

CATALOG_NAMES = tuple(_CATALOG_BUILDERS)

_CATALOG_BY_KEY = {name.lower(): builder for name, builder in _CATALOG_BUILDERS.items()}


def catalog(name: str):
    """Look up a frozen reference object by name, case-insensitively.

    R1/R2, S1..S3, T1..T3, eq16, eq17 are basis families; U, V, Q, and
    othermu are plain matrices.  eq16 and eq17 are ket-form transcriptions
    that reshape to the same matrices as R1 and R2, kept separate so the
    two routes can cross-check each other.
    """
    key = str(name).strip().lower()
    try:
        builder = _CATALOG_BY_KEY[key]
    except KeyError:
        raise UnknownName(
            f"unknown catalog entry {name!r}; known names: {', '.join(CATALOG_NAMES)}"
        ) from None
    return builder()
