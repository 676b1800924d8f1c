"""Numerical probes around the (2, 3) pair.

Two experiments live here.  closure_failure_probe multiplies the mixing
matrices of two admissible phase triples and measures how far the product
falls outside the admissible family, so sweeps can confirm that the family
is never closed under products.  Both run on one array kernel; the sweep
feeds it fixed blocks of random pairs, so its memory does not grow with
the number of pairs.  third_basis_search runs a seeded greedy descent over
2x2 unitaries, by random steps of one fixed shrinking scale, looking for a
mixing matrix whose basis would be unbiased to both frozen partners at
once; it reports the best penalty found and never claims existence, only
what the descent reached.  Each step is the exponential of a 2x2
anti-Hermitian matrix, taken in closed form, so the module needs numpy
alone.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .construct import ThetaParams, _c23_elements, _mixers, _residual, _theta3, catalog
from .errors import NotAdmissible
from .matspace import _check_tol
from .verify import BasisFamily, _overlap_gram

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "ClosureFinding",
    "ClosureSweep",
    "unbiasedness_penalty",
    "closure_failure_probe",
    "closure_sweep",
    "third_basis_search",
]

_CONVERGENCE_EPS = 1e-8
# the entry moduli every admissible mixer shares
_PATTERN = np.array([[1.0, np.sqrt(2.0)], [np.sqrt(2.0), 1.0]]) / np.sqrt(3.0)
# pairs per closure_sweep draw; bounds the sweep's memory
_SWEEP_BLOCK = 1024
# first step size of the descent's random walk; it shrinks by 1% per iteration
_STEP_SCALE = 0.25


def _check_count(name: str, value: int, least: int) -> None:
    # a Python or numpy integer, never a bool, and at least `least`
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0
    max_iterations: int = 300
    restarts: int = 4

    def __post_init__(self) -> None:
        _check_count("seed", self.seed, 0)
        _check_count("max_iterations", self.max_iterations, 0)
        _check_count("restarts", self.restarts, 1)


@dataclass(frozen=True)
class SearchOutcome:
    best_cost: float
    best_candidate: np.ndarray
    iterations_used: int
    converged_to_zero: bool


@dataclass(frozen=True)
class ClosureFinding:
    """Which admissibility condition a product matrix violates, and by how much.

    violated is "entry_moduli", "diagonal_phase", or None; the deviations
    are always reported so callers can see the margins either way.
    """

    violated: str | None
    modulus_deviation: float
    phase_deviation: float


@dataclass(frozen=True)
class ClosureSweep:
    pairs: int
    failures: int


@functools.cache
def _default_targets() -> tuple[BasisFamily, BasisFamily]:
    # the frozen partners, built from their kets once; their arrays are read-only
    return catalog("eq16"), catalog("eq17")


def unbiasedness_penalty(w, targets=None) -> float:
    """Sum of squared overlap-magnitude errors of the basis mixed by w.

    The candidate 2x2 matrix is expanded into its basis of C^2 (x) C^3 and
    compared against each target family; a perfect third basis would score
    exactly zero.  Invariant under a global phase on w.  Raises ValueError
    when w has a non-finite entry, or entries so large that the overlaps
    overflow.
    """
    elements = _c23_elements(w)
    if targets is None:
        targets = _default_targets()
    goal = 1.0 / np.sqrt(6.0)
    pen = 0.0
    for t in targets:
        mags = np.abs(_overlap_gram(elements, t.elements))
        pen += float(((mags - goal) ** 2).sum())
    if not math.isfinite(pen):
        raise ValueError(f"penalty overflows to {pen}: mixer entries are too large")
    return pen


def _closure_deviations(thetas: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Modulus and phase deviations of the products of stacked mixer pairs.

    thetas has shape (n, 2, 3): pair i multiplies the mixer of the triple
    thetas[i, 0] by that of thetas[i, 1].  Raises NotAdmissible for the
    first triple, in row-major order, off the admissible set by more than tol.
    """
    t1, t2, t3 = np.moveaxis(thetas, -1, 0)
    residual = _residual(t1, t2, t3).reshape(-1)
    bad = np.flatnonzero(residual > tol)
    if bad.size:
        raise NotAdmissible(
            f"probe needs admissible triples; off by {residual[bad[0]]:.3e} rad"
        )
    mixers = _mixers(t1, t2, t3)
    prod = mixers[:, 0] @ mixers[:, 1]
    modulus_dev = np.max(np.abs(np.abs(prod) - _PATTERN), axis=(1, 2))
    delta = np.angle(prod[:, 1, 1]) - np.angle(prod[:, 0, 0]) - np.pi / 2.0
    delta = (delta + np.pi) % (2.0 * np.pi) - np.pi
    return modulus_dev, np.abs(delta)


def closure_failure_probe(
    ta: ThetaParams, tb: ThetaParams, tol: float = 1e-9
) -> ClosureFinding:
    """Check whether the product of two admissible mixers leaves the family.

    The product must reproduce the fixed entry-modulus pattern and the
    quarter-turn phase relation between its diagonal entries to stay
    inside; whichever condition fails worse is reported.  Like every tol
    in the package, tol must sit in [0, 1e-3).
    """
    _check_tol(tol)
    thetas = np.array([[astuple(ta), astuple(tb)]])
    modulus_dev, phase_dev = (float(dev[0]) for dev in _closure_deviations(thetas, tol))
    if modulus_dev > tol:
        violated = "entry_moduli"
    elif phase_dev > tol:
        violated = "diagonal_phase"
    else:
        violated = None
    return ClosureFinding(
        violated=violated, modulus_deviation=modulus_dev, phase_deviation=phase_dev
    )


def _sweep_deviations(pairs: int, seed: int, tol: float):
    # Per block of pairs, the kernel's deviations.  Each pair draws (theta1,
    # theta2) for its first triple and then for its second, and solves for
    # theta3, so the draws follow one PCG64 stream whatever the block size.
    rng = np.random.default_rng(seed)
    for start in range(0, pairs, _SWEEP_BLOCK):
        draws = rng.uniform(0.0, 2.0 * np.pi, size=(min(_SWEEP_BLOCK, pairs - start), 2, 2))
        t1, t2 = draws[..., 0], draws[..., 1]
        yield _closure_deviations(np.stack([t1, t2, _theta3(t1, t2)], axis=-1), tol)


def closure_sweep(pairs: int, seed: int = 0, tol: float = 1e-9) -> ClosureSweep:
    """Probe many random admissible pairs and count how often closure fails.

    A pair fails as closure_failure_probe would report it: either deviation
    exceeds tol.  The pairs are probed in fixed blocks, so memory stays flat
    as pairs grows.
    """
    _check_tol(tol)
    _check_count("pairs", pairs, 1)
    _check_count("seed", seed, 0)
    failures = sum(
        int(np.count_nonzero((modulus_dev > tol) | (phase_dev > tol)))
        for modulus_dev, phase_dev in _sweep_deviations(pairs, seed, tol)
    )
    return ClosureSweep(pairs=pairs, failures=failures)


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _expm_skew2(a: float, b: complex, d: float) -> np.ndarray:
    """exp of the anti-Hermitian 2x2 matrix [[i a, b], [-conj(b), i d]].

    The traceless part M squares to -r^2 I with r^2 = z^2 + |b|^2 and
    z = (a - d)/2, so exp(M) = cos(r) I + (sin(r)/r) M; the trace part
    contributes the phase e^{i(a+d)/2}.  Built from Python scalars and one
    array, since numpy's per-call overhead would cost more than the formula.
    """
    z = 0.5 * (a - d)
    r = math.hypot(z, abs(b))
    c = math.cos(r)
    sigma = math.sin(r) / r if r else 1.0
    phase = cmath.exp(0.5j * (a + d))
    sb = sigma * b
    return np.array([[phase * complex(c, sigma * z), phase * sb],
                     [-phase * sb.conjugate(), phase * complex(c, -sigma * z)]])


def third_basis_search(cfg: SearchConfig | None = None) -> SearchOutcome:
    """Greedy seeded descent over 2x2 unitaries minimizing unbiasedness_penalty.

    Each restart draws a fresh Haar start from a child seed and walks by
    random unitary steps, keeping only improvements, so the cost is
    nonincreasing within a restart and identical seeds reproduce identical
    outcomes bit for bit.  The returned best cost is recomputed from the
    returned candidate.
    """
    cfg = cfg or SearchConfig()
    targets = _default_targets()
    best: np.ndarray | None = None
    best_cost = np.inf
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        w = _haar_unitary(rng)
        cost = unbiasedness_penalty(w, targets)
        accepted = 0
        for it in range(cfg.max_iterations):
            step = _STEP_SCALE * (0.99 ** it)
            # a random unitary step: exp of step times the anti-Hermitian
            # part of a complex Gaussian g = re + i im
            (_, re01), (re10, _) = rng.standard_normal((2, 2)).tolist()
            (im00, im01), (im10, im11) = rng.standard_normal((2, 2)).tolist()
            b = step * complex(0.5 * (re01 - re10), 0.5 * (im01 + im10))
            cand = w @ _expm_skew2(step * im00, b, step * im11)
            cand_cost = unbiasedness_penalty(cand, targets)
            if cand_cost < cost:
                w, cost = cand, cand_cost
                accepted += 1
                if accepted % 64 == 0:
                    u, _, vh = np.linalg.svd(w)
                    w = u @ vh  # the polar factor: sheds accumulated rounding drift
        if cost < best_cost:
            best, best_cost = w, cost
    assert best is not None
    final_cost = unbiasedness_penalty(best, targets)
    return SearchOutcome(
        best_cost=final_cost,
        best_candidate=best,
        iterations_used=cfg.restarts * cfg.max_iterations,
        converged_to_zero=final_cost <= _CONVERGENCE_EPS,
    )
