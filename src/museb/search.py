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
what the descent reached.  The overlaps of a mixed basis are
conjugate-linear in the mixer's four entries, so the penalty is a
four-term sum against a kernel of overlap Grams, cached for the frozen
partners.  Restarts walk in lockstep groups, each restart on its own rng
stream, and every iteration scores the whole group's candidates at once;
the sum adds its four terms in one fixed order, so a candidate scores the
same bits in a group of any size.
Each step is the exponential of a 2x2 anti-Hermitian matrix, taken in
closed form, so the module needs numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .construct import ThetaParams, _as_mixer, _c23_elements, _mixers, _residual, _theta3, catalog
from .errors import NotAdmissible
from .matspace import _check_count, _check_tol
from .verify import _overlap_gram

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
# restarts that walk in lockstep, and iterations per rng draw; together they
# bound the walk's memory
_RESTART_BLOCK = 64
_ITER_BLOCK = 256
# the overlap modulus of two unbiased bases of C^2 (x) C^3
_GOAL = 1.0 / np.sqrt(6.0)


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
def _default_kernel() -> np.ndarray:
    """The (4, 72) kernel K with overlaps(w) = w.reshape(4).conj() @ K, built on first use.

    Row n holds the flattened overlap Grams, against the frozen partners
    eq16 and eq17 in turn, of the basis mixed by the n-th unit 2x2 matrix.
    """
    units = np.concatenate([_c23_elements(e) for e in np.eye(4).reshape(4, 2, 2)])
    kernel = np.concatenate([_overlap_gram(units, catalog(name).elements).reshape(4, 36)
                             for name in ("eq16", "eq17")], axis=1)
    kernel.setflags(write=False)
    return kernel


def _penalties(ws: np.ndarray) -> np.ndarray:
    """The penalty of each 2x2 mixer in a stack, its overlaps taken against _default_kernel().

    Each overlap adds its four terms conj(w_n) K[n] elementwise in the order
    n = 0..3, so a mixer scores the same bits in a stack of any size; a BLAS
    matmul may round one row differently from many.
    """
    kernel = _default_kernel()
    a = ws.reshape(-1, 4, 1).conj()
    g = a[:, 0] * kernel[0]
    for n in range(1, 4):
        g += a[:, n] * kernel[n]
    return ((np.abs(g) - _GOAL) ** 2).sum(axis=1)


def unbiasedness_penalty(w) -> float:
    """Sum of squared overlap-magnitude errors of the basis mixed by w.

    The candidate 2x2 matrix is expanded into its basis of C^2 (x) C^3 and
    compared against the frozen partners eq16 and eq17; a perfect third
    basis would score exactly zero.  Invariant under a global phase on w.
    Raises ValueError when w has a non-finite entry, or entries so large
    that the overlaps overflow.
    """
    pen = float(_penalties(_as_mixer(w))[0])
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


def _expm_skew2(a, b, d) -> np.ndarray:
    """exp of each anti-Hermitian 2x2 matrix [[i a, b], [-conj(b), i d]].

    The traceless part M squares to -r^2 I with r^2 = z^2 + |b|^2 and
    z = (a - d)/2, so exp(M) = cos(r) I + (sin(r)/r) M; the trace part
    contributes the phase e^{i(a+d)/2}.  a and d are real and b complex,
    scalars or arrays of one shape; the result has that shape plus (2, 2).
    """
    z = 0.5 * (a - d)
    r = np.hypot(z, np.abs(b))
    c = np.cos(r)
    sigma = np.sinc(r / np.pi)  # sin(r)/r, and 1 at r = 0
    phase = np.exp(0.5j * (a + d))
    sb = sigma * b
    out = np.empty(np.shape(r) + (2, 2), dtype=complex)
    out[..., 0, 0] = phase * (c + 1j * (sigma * z))
    out[..., 0, 1] = phase * sb
    out[..., 1, 0] = -phase * sb.conjugate()
    out[..., 1, 1] = phase * (c - 1j * (sigma * z))
    return out


def _random_steps(rngs: list[np.random.Generator], start: int, count: int) -> np.ndarray:
    """The unitary steps of iterations start .. start + count - 1 for each rng.

    The result has shape (count, len(rngs), 2, 2).  Each step is exp of the
    step size times the anti-Hermitian part of a complex Gaussian
    g = re + i im; every rng draws its re and im for each iteration in
    turn, as one (count, 2, 2, 2) array.
    """
    g = np.stack([rng.standard_normal((count, 2, 2, 2)) for rng in rngs], axis=1)
    step = np.array([_STEP_SCALE * (0.99 ** it) for it in range(start, start + count)])[:, None]
    re, im = g[:, :, 0], g[:, :, 1]
    b = (0.5 * (re[..., 0, 1] - re[..., 1, 0])) + 1j * (0.5 * (im[..., 0, 1] + im[..., 1, 0]))
    return _expm_skew2(step * im[..., 0, 0], step * b, step * im[..., 1, 1])


def _walk(rngs: list[np.random.Generator], iterations: int):
    """Walk one lockstep group of restarts; return their mixers and costs.

    Restart i starts from a Haar unitary of rngs[i] and accepts a step only
    when it strictly lowers that restart's cost, so each cost is
    nonincreasing.  Every 64th accept of a restart replaces its mixer by
    the polar factor, shedding accumulated rounding drift.
    """
    # Haar starts: each rng draws its own Gaussian, then one QR for the stack
    q, r = np.linalg.qr(np.stack([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                                  for rng in rngs]))
    d = np.diagonal(r, axis1=1, axis2=2)
    w = q * (d / np.abs(d))[:, None, :]
    cost = _penalties(w)
    accepted = np.zeros(len(rngs), dtype=np.int64)
    for start in range(0, iterations, _ITER_BLOCK):
        steps = _random_steps(rngs, start, min(_ITER_BLOCK, iterations - start))
        for step in steps:
            cand = w @ step
            cand_cost = _penalties(cand)
            take = cand_cost < cost
            if not take.any():
                continue
            w = np.where(take[:, None, None], cand, w)
            cost = np.where(take, cand_cost, cost)
            accepted += take
            polish = take & (accepted % 64 == 0)
            if polish.any():
                u, _, vh = np.linalg.svd(w[polish])
                w[polish] = u @ vh
    return w, cost


def third_basis_search(cfg: SearchConfig | None = None) -> SearchOutcome:
    """Greedy seeded descent over 2x2 unitaries minimizing unbiasedness_penalty.

    Each restart draws a fresh Haar start from its own child seed and walks
    by random unitary steps, keeping only improvements, so the cost is
    nonincreasing within a restart and identical seeds reproduce identical
    outcomes bit for bit.  Restarts walk in lockstep groups of up to
    _RESTART_BLOCK, each iteration scoring the group's candidates at once,
    and draw their steps in blocks of up to _ITER_BLOCK iterations, so
    memory stays flat however many restarts and iterations are asked for.
    Neither block size changes the outcome: every restart's arithmetic is
    done row by row, the same in a group or block of any size.  The best is
    the first restart with the lowest cost, and the returned best cost is
    recomputed from the returned candidate.
    """
    cfg = cfg or SearchConfig()
    best: np.ndarray | None = None
    best_cost = np.inf
    for first in range(0, cfg.restarts, _RESTART_BLOCK):
        group = range(first, min(first + _RESTART_BLOCK, cfg.restarts))
        w, cost = _walk([np.random.default_rng([cfg.seed, r]) for r in group], cfg.max_iterations)
        i = int(np.argmin(cost))
        if cost[i] < best_cost:
            best, best_cost = w[i].copy(), cost[i]
    assert best is not None
    final_cost = unbiasedness_penalty(best)
    return SearchOutcome(
        best_cost=final_cost,
        best_candidate=best,
        iterations_used=cfg.restarts * cfg.max_iterations,
        converged_to_zero=final_cost <= _CONVERGENCE_EPS,
    )
