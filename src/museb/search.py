"""Numerical probes around the (2, 3) pair.

Two experiments live here.  closure_failure_probe multiplies the mixing
matrices of two admissible phase triples and measures how far the product
falls outside the admissible family, so sweeps can confirm that the family
is never closed under products.  third_basis_search runs a seeded greedy
descent over 2x2 unitaries looking for a mixing matrix whose basis would
be unbiased to both frozen partners at once; it reports the best penalty
found and never claims existence, only what the descent reached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, polar

from .construct import ThetaParams, c23_family, catalog, solve_theta, theta_mixing_matrix
from .errors import NotAdmissible
from .matspace import as_matrix
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

_S3 = np.sqrt(3.0)
_CONVERGENCE_EPS = 1e-8


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0
    max_iterations: int = 300
    step_scale: float = 0.25
    restarts: int = 4

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if not 0.0 < self.step_scale <= 2.0:
            raise ValueError("step_scale must sit in (0, 2]")


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
    exactly zero.  Invariant under a global phase on w.
    """
    fam = c23_family(as_matrix(w))
    if targets is None:
        targets = _default_targets()
    goal = 1.0 / np.sqrt(6.0)
    pen = 0.0
    for t in targets:
        mags = np.abs(_overlap_gram(fam.elements, t.elements))
        pen += float(np.sum((mags - goal) ** 2))
    return pen


def closure_failure_probe(
    ta: ThetaParams, tb: ThetaParams, tol: float = 1e-9
) -> ClosureFinding:
    """Check whether the product of two admissible mixers leaves the family.

    The product must reproduce the fixed entry-modulus pattern and the
    quarter-turn phase relation between its diagonal entries to stay
    inside; whichever condition fails worse is reported.
    """
    for t in (ta, tb):
        if not t.is_admissible(tol):
            raise NotAdmissible(f"probe needs admissible triples; off by {t.residual():.3e} rad")
    prod = theta_mixing_matrix(ta) @ theta_mixing_matrix(tb)

    pattern = np.array([[1.0, np.sqrt(2.0)], [np.sqrt(2.0), 1.0]]) / _S3
    modulus_dev = float(np.max(np.abs(np.abs(prod) - pattern)))

    delta = np.angle(prod[1, 1]) - np.angle(prod[0, 0]) - np.pi / 2.0
    delta = (delta + np.pi) % (2.0 * np.pi) - np.pi
    phase_dev = float(abs(delta))

    if modulus_dev > tol:
        violated = "entry_moduli"
    elif phase_dev > tol:
        violated = "diagonal_phase"
    else:
        violated = None
    return ClosureFinding(
        violated=violated, modulus_deviation=modulus_dev, phase_deviation=phase_dev
    )


def closure_sweep(pairs: int, seed: int = 0, tol: float = 1e-9) -> ClosureSweep:
    """Probe many random admissible pairs and count how often closure fails."""
    if pairs < 1:
        raise ValueError("pairs must be positive")
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(pairs):
        triples = []
        for _ in range(2):
            t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
            triples.append(ThetaParams(t1, t2, solve_theta(t1, t2)))
        finding = closure_failure_probe(triples[0], triples[1], tol)
        if finding.violated is not None:
            failures += 1
    return ClosureSweep(pairs=pairs, failures=failures)


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _random_step(rng: np.random.Generator, scale: float) -> np.ndarray:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    skew = (g - g.conj().T) / 2.0
    return expm(scale * skew)


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
    total = 0
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        w = _haar_unitary(rng)
        cost = unbiasedness_penalty(w, targets)
        accepted = 0
        for it in range(cfg.max_iterations):
            total += 1
            step = cfg.step_scale * (0.99 ** it)
            cand = w @ _random_step(rng, step)
            cand_cost = unbiasedness_penalty(cand, targets)
            if cand_cost < cost:
                w, cost = cand, cand_cost
                accepted += 1
                if accepted % 64 == 0:
                    w = polar(w)[0]  # shed accumulated rounding drift
        if cost < best_cost:
            best, best_cost = w, cost
    assert best is not None
    final_cost = unbiasedness_penalty(best, targets)
    return SearchOutcome(
        best_cost=final_cost,
        best_candidate=best,
        iterations_used=total,
        converged_to_zero=final_cost <= _CONVERGENCE_EPS,
    )
