import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from museb import (
    NotAdmissible,
    SearchConfig,
    ShapeMismatch,
    ThetaParams,
    c23_family,
    catalog,
    closure_failure_probe,
    closure_sweep,
    solve_theta,
    theta_mixing_matrix,
    third_basis_search,
    unbiasedness_penalty,
)
from museb import search
from museb.search import (
    _SWEEP_BLOCK,
    _closure_deviations,
    _expm_skew2,
    _penalties,
    _sweep_deviations,
)
from museb.verify import _overlap_gram

REFERENCE = ThetaParams(0.0, 1.5 * np.pi, 0.0)


def test_probe_reports_modulus_violation_for_reference_square():
    finding = closure_failure_probe(REFERENCE, REFERENCE)
    assert finding.violated == "entry_moduli"
    assert finding.modulus_deviation > 0.1


def test_probe_rejects_inadmissible_input():
    with pytest.raises(NotAdmissible):
        closure_failure_probe(REFERENCE, ThetaParams(0.0, 0.0, 0.0))


def test_probe_always_fails_on_random_admissible_pairs():
    rng = np.random.default_rng(19)
    for _ in range(100):
        triples = []
        for _ in range(2):
            t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
            triples.append(ThetaParams(t1, t2, solve_theta(t1, t2)))
        finding = closure_failure_probe(*triples)
        assert finding.violated is not None
        assert max(finding.modulus_deviation, finding.phase_deviation) > 1e-3


def test_probe_reports_the_diagonal_phase_when_the_moduli_hold():
    # of the 200,000 pairs closure_sweep(200_000, seed=0) draws, pair 38898
    # comes closest to the modulus pattern, 9.3e-7 off, yet misses the
    # diagonal quarter turn by about pi/2
    ta = ThetaParams(4.58099975098906, 3.3135804966676305,
                     solve_theta(4.58099975098906, 3.3135804966676305))
    tb = ThetaParams(1.871480168620714, 3.222052002994106,
                     solve_theta(1.871480168620714, 3.222052002994106))
    finding = closure_failure_probe(ta, tb, tol=1e-6)
    assert finding.violated == "diagonal_phase"
    assert finding.modulus_deviation < 1e-6
    assert abs(finding.phase_deviation - np.pi / 2) < 1e-5


def test_closure_sweep_counts_every_failure():
    sweep = closure_sweep(500, seed=11)
    assert sweep.pairs == 500
    assert sweep.failures == 500


def test_penalty_of_a_target_against_itself():
    # overlap magnitudes of a basis with itself are 6 ones and 30 zeros,
    # so its penalty against eq17 is 6(1-g)^2 + 30 g^2 with g = 1/sqrt(6),
    # which simplifies to 12 - 2 sqrt(6)
    g = 1 / np.sqrt(6.0)
    expected = 12 - 2 * np.sqrt(6.0)
    assert abs(expected - (6 * (1 - g) ** 2 + 30 * g**2)) < 1e-12
    mixer = theta_mixing_matrix(REFERENCE)  # mixes to exactly the eq17 family
    # against eq16 the same mixer is perfectly unbiased, adding nothing
    assert abs(unbiasedness_penalty(mixer) - expected) < 1e-10


def test_penalty_invariant_under_global_phase():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q = np.linalg.qr(z)[0]
    base = unbiasedness_penalty(q)
    assert abs(unbiasedness_penalty(np.exp(0.7j) * q) - base) < 1e-12


def test_search_is_deterministic():
    cfg = SearchConfig(seed=5, max_iterations=60, restarts=2)
    a = third_basis_search(cfg)
    b = third_basis_search(cfg)
    assert a.best_cost == b.best_cost
    assert np.array_equal(a.best_candidate, b.best_candidate)
    assert a.iterations_used == b.iterations_used == 120


def test_search_cost_nonincreasing_in_iterations():
    short = third_basis_search(SearchConfig(seed=2, max_iterations=40, restarts=1))
    long = third_basis_search(SearchConfig(seed=2, max_iterations=120, restarts=1))
    assert long.best_cost <= short.best_cost + 1e-15


def test_search_best_cost_matches_recomputed_penalty():
    out = third_basis_search(SearchConfig(seed=8, max_iterations=50, restarts=2))
    assert abs(out.best_cost - unbiasedness_penalty(out.best_candidate)) < 1e-15
    assert not out.converged_to_zero


# best_cost of the default search at seeds 0-11 while each step was
# scipy.linalg.expm and the clean-up scipy.linalg.polar
SCIPY_STEP_BEST_COST = (
    0.12471402561960657, 0.2862555448530672, 0.12485517490039513, 0.1247538031188759,
    0.12484980651019015, 0.1247424356217412, 0.12486148216486574, 0.12486181688486997,
    0.12473998163956684, 0.12482830819536764, 0.1247049319304944, 0.12484856926458285,
)


@pytest.mark.parametrize("seed", range(12))
def test_closed_form_step_walks_the_scipy_path_to_rounding(seed):
    out = third_basis_search(SearchConfig(seed=seed))
    assert math.isclose(out.best_cost, SCIPY_STEP_BEST_COST[seed], rel_tol=1e-14)
    assert out.iterations_used == 1200
    assert out.converged_to_zero is False
    assert out.best_cost == unbiasedness_penalty(out.best_candidate)


def _skew(a, b, d):
    return np.array([[1j * a, b], [-np.conj(b), 1j * d]])


# anti-Hermitian s with Frobenius norm at most 4
skew_parts = st.tuples(*[st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)] * 4).map(
    lambda p: (p[0], complex(p[1], p[2]) / math.sqrt(2.0), p[3])
)


@settings(max_examples=300, deadline=None)
@given(skew_parts)
@example((0.0, 0j, 0.0))  # s = 0
@example((0.7, 0j, 0.7))  # s = i a I, so r = 0
@example((-2.5, 0j, -2.5))
@example((2e-300, 0j, 0.0))  # r = 1e-300
@example((0.0, 1e-300j, 0.0))
@example((1.3, complex(6e-301, 8e-301), 1.3))
def test_expm_skew2_matches_scipy_and_is_unitary(parts):
    from scipy.linalg import expm  # a test-only reference; museb itself runs on numpy alone

    got = _expm_skew2(*parts)
    assert np.abs(got - expm(_skew(*parts))).max() <= 1e-14
    assert np.abs(got.conj().T @ got - np.eye(2)).max() <= 1e-14


def test_search_zero_iterations_reports_initial_cost():
    out = third_basis_search(SearchConfig(seed=4, max_iterations=0, restarts=3))
    assert out.iterations_used == 0
    assert out.best_cost > 0


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    # counts are integers, never bools or floats, and the seed is nonnegative
    for field, value in [("max_iterations", 2.5), ("max_iterations", True), ("restarts", 1.5),
                         ("restarts", True), ("seed", -1), ("seed", 0.5), ("seed", False)]:
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SearchConfig(**{field: value})


def test_sweep_validates_pairs():
    with pytest.raises(ValueError):
        closure_sweep(0)


@pytest.mark.parametrize("kwargs, field", [
    ({"pairs": 2.5}, "pairs"), ({"pairs": True}, "pairs"),
    ({"pairs": 5, "seed": -1}, "seed"), ({"pairs": 5, "seed": 1.0}, "seed"),
])
def test_sweep_counts_must_be_integers(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        closure_sweep(**kwargs)


# ---------------------------------------------------------------------------
# the batched probe path against the per-pair scalar loop it replaced
# ---------------------------------------------------------------------------

PATTERN = np.array([[1.0, np.sqrt(2.0)], [np.sqrt(2.0), 1.0]]) / np.sqrt(3.0)


def scalar_sweep_deviations(pairs, seed):
    # one pair at a time, as closure_sweep drew and probed before batching
    rng = np.random.default_rng(seed)
    modulus, phase = [], []
    for _ in range(pairs):
        triples = []
        for _ in range(2):
            t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
            triples.append(ThetaParams(t1, t2, solve_theta(t1, t2)))
        prod = theta_mixing_matrix(triples[0]) @ theta_mixing_matrix(triples[1])
        modulus.append(float(np.max(np.abs(np.abs(prod) - PATTERN))))
        delta = np.angle(prod[1, 1]) - np.angle(prod[0, 0]) - np.pi / 2.0
        delta = (delta + np.pi) % (2.0 * np.pi) - np.pi
        phase.append(float(abs(delta)))
    return np.array(modulus), np.array(phase)


@pytest.mark.parametrize("pairs, seed", [
    (1, 0),
    (_SWEEP_BLOCK - 1, 1),
    (_SWEEP_BLOCK, 2),
    (_SWEEP_BLOCK + 1, 3),
    (10_000, 4),
])
def test_sweep_deviations_bit_identical_to_scalar_loop(pairs, seed):
    blocks = list(_sweep_deviations(pairs, seed, 1e-9))
    assert [len(m) for m, _ in blocks] == [
        min(_SWEEP_BLOCK, pairs - start) for start in range(0, pairs, _SWEEP_BLOCK)
    ]
    modulus = np.concatenate([m for m, _ in blocks])
    phase = np.concatenate([p for _, p in blocks])
    want_modulus, want_phase = scalar_sweep_deviations(pairs, seed)
    assert np.array_equal(modulus, want_modulus)
    assert np.array_equal(phase, want_phase)
    failures = np.count_nonzero((want_modulus > 1e-9) | (want_phase > 1e-9))
    assert closure_sweep(pairs, seed=seed).failures == failures == pairs


def test_probe_fields_match_the_scalar_formula():
    rng = np.random.default_rng(23)
    for (a1, a2), (b1, b2) in rng.uniform(0.0, 2.0 * np.pi, size=(50, 2, 2)):
        ta = ThetaParams(a1, a2, solve_theta(a1, a2))
        tb = ThetaParams(b1, b2, solve_theta(b1, b2))
        prod = theta_mixing_matrix(ta) @ theta_mixing_matrix(tb)
        delta = np.angle(prod[1, 1]) - np.angle(prod[0, 0]) - np.pi / 2.0
        finding = closure_failure_probe(ta, tb)
        assert finding.modulus_deviation == float(np.max(np.abs(np.abs(prod) - PATTERN)))
        assert finding.phase_deviation == float(abs((delta + np.pi) % (2.0 * np.pi) - np.pi))
        assert finding.violated == "entry_moduli"


def test_kernel_reports_first_inadmissible_triple_in_row_major_order():
    good = (0.0, 1.5 * np.pi, 0.0)
    thetas = np.array([[good, good], [good, (0.0, 0.0, 0.2)], [(0.0, 0.0, 0.1), good]])
    with pytest.raises(NotAdmissible, match=r"off by 1\.771e\+00 rad"):
        _closure_deviations(thetas, 1e-9)


@pytest.mark.parametrize("tol, message", [
    (0.0, "probe needs admissible triples; off by 8.882e-16 rad"),
    (1e-15, "probe needs admissible triples; off by 1.776e-15 rad"),
])
def test_sweep_at_rounding_tolerance_reports_first_inadmissible_draw(tol, message):
    # solve_theta leaves a residual of a few ulps, so a tolerance at or
    # below rounding refuses the first such triple in draw order
    with pytest.raises(NotAdmissible) as excinfo:
        closure_sweep(200, seed=0, tol=tol)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("tol", [1.0, 1e-3, -1e-12, float("nan")])
def test_probes_hold_tol_to_the_verify_range(tol):
    with pytest.raises(ValueError, match=r"tol must sit in \[0, 1e-3\)"):
        closure_sweep(10, tol=tol)
    with pytest.raises(ValueError, match=r"tol must sit in \[0, 1e-3\)"):
        closure_failure_probe(REFERENCE, REFERENCE, tol=tol)


def test_sweep_memory_does_not_grow_with_pairs():
    def peak(pairs):
        tracemalloc.start()
        try:
            closure_sweep(pairs, seed=9)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a full block overlaps the previous block's two result arrays (16 KiB);
    # one unblocked pass over 200,000 pairs would hold tens of MB
    small, large = peak(5_000), peak(200_000)
    assert large <= small + 64 * 1024


def reference_penalty(w):
    # the penalty computed through a validated BasisFamily
    fam = c23_family(w)
    goal = 1.0 / np.sqrt(6.0)
    pen = 0.0
    for t in (catalog("eq16"), catalog("eq17")):
        mags = np.abs(_overlap_gram(fam.elements, t.elements))
        pen += float(np.sum((mags - goal) ** 2))
    return pen


entries = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(entries, min_size=8, max_size=8))
def test_penalty_equals_the_basis_family_reference(parts):
    # the kernel sums each overlap over the four mixer entries in its own
    # order, so the two agree to rounding rather than bit for bit
    w = (np.array(parts[:4]) + 1j * np.array(parts[4:])).reshape(2, 2)
    assert math.isclose(unbiasedness_penalty(w), reference_penalty(w), rel_tol=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(entries, min_size=8, max_size=8), min_size=1, max_size=70))
def test_batched_penalties_equal_the_single_mixer_penalty(rows):
    parts = np.array(rows)
    stack = (parts[:, :4] + 1j * parts[:, 4:]).reshape(-1, 2, 2)
    got = _penalties(stack)
    assert got.shape == (len(stack),)
    assert [float(p) for p in got] == [unbiasedness_penalty(w) for w in stack]


@pytest.mark.parametrize("w, error", [
    (np.eye(3), ValueError),
    (np.ones(2), ShapeMismatch),
    (np.ones((2, 2, 2)), ShapeMismatch),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValueError),
    (np.array([[1.0, 0.0], [0.0, np.inf]]), ValueError),
    (np.array([[1.0, 0.0], [complex(0.0, -np.inf), 1.0]]), ValueError),
    # finite entries whose overlaps overflow: the penalty would be inf
    (np.full((2, 2), 1e200), ValueError),
])
def test_penalty_keeps_every_input_check(w, error):
    with np.errstate(over="ignore"), pytest.raises(error):
        unbiasedness_penalty(w)


def test_long_walks_polish_their_mixers_back_to_unitary(monkeypatch):
    # the default 4 x 300 search accepts at most 28 steps per restart, short
    # of the 64th accept that replaces a mixer by its polar factor
    svd_calls = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        svd_calls.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    out = third_basis_search(SearchConfig(seed=0, max_iterations=2000, restarts=64))
    assert svd_calls
    w = out.best_candidate
    assert np.abs(w.conj().T @ w - np.eye(2)).max() < 1e-14


def test_search_blocks_do_not_change_the_outcome(monkeypatch):
    cfg = SearchConfig(seed=4, max_iterations=40, restarts=5)
    want = third_basis_search(cfg)
    monkeypatch.setattr(search, "_RESTART_BLOCK", 3)
    monkeypatch.setattr(search, "_ITER_BLOCK", 7)
    for window in (1, 3):
        monkeypatch.setattr(search, "_WINDOW", window)
        got = third_basis_search(cfg)
        assert got.best_cost == want.best_cost
        assert np.array_equal(got.best_candidate, want.best_candidate)
        assert got.iterations_used == want.iterations_used == 200


def test_search_memory_does_not_grow_with_restarts():
    def peak(restarts):
        tracemalloc.start()
        try:
            third_basis_search(SearchConfig(restarts=restarts, max_iterations=2))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    third_basis_search(SearchConfig(restarts=1, max_iterations=1))  # build the kernel
    # past one lockstep group the peak stays put; one ungrouped (1000, 72)
    # complex overlap array alone would be 1.15 MB
    small, large = peak(65), peak(1_000)
    assert large <= small + 64 * 1024


def test_search_best_candidate_is_its_own_writable_array():
    out = third_basis_search(SearchConfig(seed=3, max_iterations=20, restarts=3))
    assert out.best_candidate.shape == (2, 2)
    assert out.best_candidate.flags.writeable and out.best_candidate.flags.owndata
    out.best_candidate[0, 0] *= 2.0  # callers may scale it in place


# ---------------------------------------------------------------------------
# the windowed walk against the one-step-per-iteration walk it replaced
# ---------------------------------------------------------------------------

def reference_walk(rngs, iterations):
    # every iteration scores one step of every restart, as _walk did before
    # it scored a window of upcoming steps per round
    q, r = np.linalg.qr(np.stack([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                                  for rng in rngs]))
    d = np.diagonal(r, axis1=1, axis2=2)
    w = q * (d / np.abs(d))[:, None, :]
    cost = _penalties(w)
    accepted = np.zeros(len(rngs), dtype=np.int64)
    for start in range(0, iterations, search._ITER_BLOCK):
        steps = search._random_steps(rngs, start, min(search._ITER_BLOCK, iterations - start))
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


def reference_search(cfg, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(search, "_walk", reference_walk)
        return third_basis_search(cfg)


@pytest.mark.parametrize("restarts, iterations", [
    (1, 0), (1, 1), (3, 257), (4, 300), (5, 600), (8, 2000), (70, 300),
])
@pytest.mark.parametrize("seed", range(6))
def test_windowed_walk_matches_the_one_step_walk(monkeypatch, seed, restarts, iterations):
    cfg = SearchConfig(seed=seed, max_iterations=iterations, restarts=restarts)
    want = reference_search(cfg, monkeypatch)
    got = third_basis_search(cfg)
    assert got.best_cost == want.best_cost
    assert got.best_candidate.tobytes() == want.best_candidate.tobytes()


def test_windowed_walk_matches_the_one_step_walk_through_the_polish(monkeypatch):
    cfg = SearchConfig(seed=0, max_iterations=2000, restarts=64)
    want = reference_search(cfg, monkeypatch)
    polished = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        polished.append(len(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    got = third_basis_search(cfg)
    assert polished  # some restart reached its 64th accept
    assert got.best_cost == want.best_cost
    assert got.best_candidate.tobytes() == want.best_candidate.tobytes()
    # the best restart need not be a polished one, so compare every restart
    w, cost = search._walk([np.random.default_rng([0, r]) for r in range(64)], 2000)
    want_w, want_cost = reference_walk([np.random.default_rng([0, r]) for r in range(64)], 2000)
    assert w.tobytes() == want_w.tobytes()
    assert cost.tobytes() == want_cost.tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_default_search_scores_its_steps_in_few_penalty_calls(monkeypatch, seed):
    # one call per iteration, plus the starts and the final recomputation,
    # made 302 calls; a window of upcoming steps per round makes 31-38
    calls = []
    real_penalties = search._penalties

    def counting_penalties(ws):
        calls.append(len(ws))
        return real_penalties(ws)

    monkeypatch.setattr(search, "_penalties", counting_penalties)
    third_basis_search(SearchConfig(seed=seed))
    assert len(calls) <= 60
