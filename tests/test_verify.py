import copy
import dataclasses
import functools
import inspect
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from museb import (
    CATALOG_NAMES,
    MAX_OFFENDERS,
    RECIPE_NAMES,
    BasisFamily,
    EmptyInput,
    FamilySet,
    MusebError,
    NumericalFailure,
    ShapeMismatch,
    ThetaParams,
    catalog,
    check_mu_pair,
    check_museb_set,
    check_sebk,
    closure_failure_probe,
    closure_sweep,
    c23_partner,
    dephased_obstruction,
    is_chm,
    is_unitary,
    load_family_set,
    mub_composite,
    mub_prime,
    run_recipe,
    save_family_set,
    schmidt_number,
    tensor_families,
    theorem2_reproduce,
    transpose_family,
    weyl_meb,
)
from museb import compose, verify

EPS = np.finfo(float).eps


def einsum_gram(e, f):
    # independent oracle for the overlap kernel: an einsum, not a matmul
    return np.einsum("aij,bij->ab", e.conj(), f)


def brute_overlaps(f, g):
    out = np.empty((len(f), len(g)))
    for i in range(len(f)):
        for j in range(len(g)):
            out[i, j] = abs(np.trace(f[i].conj().T @ g[j]))
    return out


_ADMISSIBLE = ThetaParams(0.0, 1.5 * np.pi, 0.0)
# every public function that takes a tolerance, called on a small valid input
TOL_TAKERS = {
    "schmidt_number": lambda tol: schmidt_number(np.eye(2), tol),
    "check_sebk": lambda tol: check_sebk(catalog("T1"), tol),
    "check_mu_pair": lambda tol: check_mu_pair(catalog("T1"), catalog("T2"), tol),
    "check_museb_set": lambda tol: check_museb_set(mub_prime(2), tol),
    "is_unitary": lambda tol: is_unitary(np.eye(2), tol),
    "is_chm": lambda tol: is_chm(np.ones((1, 1)), tol),
    "dephased_obstruction": lambda tol: dephased_obstruction(np.ones((1, 1)), tol),
    "theorem2_reproduce": lambda tol: theorem2_reproduce(tol),
    "run_recipe": lambda tol: run_recipe("theorem3", tol, d=1, dprime=1, p=1, q=1),
    "c23_partner": lambda tol: c23_partner(_ADMISSIBLE, tol),
    "closure_failure_probe": lambda tol: closure_failure_probe(_ADMISSIBLE, _ADMISSIBLE, tol),
    "closure_sweep": lambda tol: closure_sweep(5, tol=tol),
    "ThetaParams.is_admissible": lambda tol: _ADMISSIBLE.is_admissible(tol),
}


@pytest.mark.parametrize("name", list(TOL_TAKERS))
def test_every_tol_rejects_loose_tolerances(name):
    call = TOL_TAKERS[name]
    for bad in (1e-3, -1e-12, False, "1e-9", None):
        with pytest.raises(ValueError, match=r"tol must sit in \[0, 1e-3\)"):
            call(bad)
    for good in (0.0, 9.9e-4):
        try:
            call(good)
        except MusebError:
            pass  # a verdict at this tolerance, not a refusal of it


def test_schmidt_number_counts_rank():
    fam = weyl_meb(2, 3)
    assert schmidt_number(fam[0]) == 2
    assert schmidt_number(np.zeros((2, 3))) == 0
    assert schmidt_number(np.outer([1, 1], [1, 0, 0])) == 1


def test_basis_family_validation():
    with pytest.raises(ShapeMismatch):
        BasisFamily(2, 3, 2, np.zeros((5, 2, 3), dtype=complex))
    with pytest.raises(ValueError):
        BasisFamily(2, 3, 3, np.zeros((6, 2, 3), dtype=complex))
    with pytest.raises(ValueError):
        bad = np.zeros((6, 2, 3), dtype=complex)
        bad[0, 0, 0] = np.nan
        BasisFamily(2, 3, 2, bad)
    with pytest.raises(ValueError, match="dimensions must be positive"):
        BasisFamily(0, 1, 1, np.zeros((0, 0, 1), dtype=complex))


@pytest.mark.parametrize("header, refused", [
    ({"d": 2.0, "dprime": 3.0}, "d must be an integer"),
    ({"dprime": True}, "dprime must be an integer"),
    ({"k": 1.5}, "k must be an integer"),
    ({"k": "2"}, "k must be an integer"),
    ({"label": None}, "label must be a str"),
    ({"label": 7}, "label must be a str"),
], ids=["float_dims", "bool_dprime", "fractional_k", "string_k", "label_none", "label_int"])
def test_basis_family_refuses_headers_a_file_cannot_hold(header, refused):
    # every header a BasisFamily accepts is one save_family_set writes and load_family_set reads
    fields = {"d": 2, "dprime": 3, "k": 2, "elements": catalog("R1").elements, "label": "R1",
              **header}
    with pytest.raises(TypeError, match=refused):
        BasisFamily(**fields)


def test_family_set_requires_matching_signature():
    with pytest.raises(ShapeMismatch):
        FamilySet((catalog("R1"), catalog("S1")))


def test_family_set_refuses_members_that_are_not_families():
    # a bare BasisFamily iterates its element matrices, which name their type
    with pytest.raises(TypeError, match="BasisFamily members, got ndarray"):
        FamilySet(weyl_meb(2, 3))
    with pytest.raises(TypeError, match="got str"):
        FamilySet((catalog("R1"), "R2"))


def test_check_sebk_accepts_catalog_families():
    for name in ("R1", "R2", "S1", "S2", "S3", "T1", "T2", "T3"):
        rep = check_sebk(catalog(name))
        assert rep.passed, name
        assert rep.worst_violation < 1e-12
        assert rep.offenders == ()


def skewed_r1():
    # rotate two basis elements into each other: still an orthonormal
    # basis, but the combined states have unbalanced Schmidt coefficients
    el = np.array(catalog("R1").elements)
    c, s = 0.8, 0.6
    el[0], el[1] = c * el[0] + s * el[1], -s * el[0] + c * el[1]
    return BasisFamily(2, 3, 2, el)


def test_check_sebk_checks_spectrum_not_just_orthonormality():
    skewed_fam = skewed_r1()
    el = skewed_fam.elements
    gram = np.einsum("aij,bij->ab", el.conj(), el)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-12
    rep = check_sebk(skewed_fam)
    assert not rep.passed
    assert rep.offenders


def test_check_sebk_flags_wrong_k_claim():
    fam = weyl_meb(3, 3)
    rep = check_sebk(BasisFamily(3, 3, 1, fam.elements))
    assert not rep.passed


def test_check_sebk_reports_corrupted_element():
    el = np.array(catalog("R1").elements)
    el[2] *= 1.01
    rep = check_sebk(BasisFamily(2, 3, 2, el))
    assert not rep.passed
    assert any(off[2] == 2 or off[3] == 2 for off in rep.offenders)
    assert rep.worst_violation > 1e-3


def test_check_mu_pair_on_frozen_pair():
    rep = check_mu_pair(catalog("R1"), catalog("R2"))
    assert rep.passed
    assert rep.checks_run == 36
    mags = brute_overlaps(catalog("R1"), catalog("R2"))
    assert np.max(np.abs(mags - 1 / np.sqrt(6))) < 1e-12


def test_check_mu_pair_is_symmetric():
    a = check_mu_pair(catalog("S1"), catalog("S2"))
    b = check_mu_pair(catalog("S2"), catalog("S1"))
    assert a.passed and b.passed
    assert abs(a.worst_violation - b.worst_violation) < 1e-15


def test_check_mu_pair_fails_for_identical_bases():
    rep = check_mu_pair(catalog("R1"), catalog("R1"))
    assert not rep.passed
    assert rep.worst_violation > 0.5
    assert len(rep.offenders) <= MAX_OFFENDERS


def test_check_mu_pair_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        check_mu_pair(catalog("R1"), catalog("S1"))


def test_square_rank3_overlaps_brute_force():
    # every cross overlap of the 3x3 catalog sets is exactly 1/3
    for a, b in (("S1", "S2"), ("S1", "S3"), ("S2", "S3")):
        mags = brute_overlaps(catalog(a), catalog(b))
        assert np.max(np.abs(mags - 1 / 3)) < 1e-12


def test_check_museb_set_aggregates_everything():
    fs = FamilySet((catalog("S1"), catalog("S2"), catalog("S3")))
    rep = check_museb_set(fs)
    assert rep.passed
    assert rep.checks_run == 3 * (9 + 81) + 3 * 81


def test_check_museb_set_refuses_an_empty_set():
    # with no family there is nothing to certify, so no verdict is honest
    with pytest.raises(EmptyInput):
        check_museb_set(FamilySet(()))


def test_a_family_set_is_never_empty():
    for empty in ((), [], iter(())):
        with pytest.raises(EmptyInput, match="family set is empty"):
            FamilySet(empty)
    with pytest.raises(TypeError):
        FamilySet()  # families has no default


def test_check_museb_set_reduces_to_mub_condition():
    fs = mub_prime(3)
    rep = check_museb_set(fs)
    assert rep.passed
    # oracle: plain column vectors, plain inner products
    for fi in range(len(fs)):
        for fj in range(fi + 1, len(fs)):
            for i in range(3):
                for j in range(3):
                    ov = abs(np.vdot(fs[fi][i].ravel(), fs[fj][j].ravel()))
                    assert abs(ov - 1 / np.sqrt(3)) < 1e-12


def test_unit_phases_and_reordering_do_not_affect_verdicts():
    rng = np.random.default_rng(17)
    el = np.array(catalog("R2").elements)
    phases = np.exp(2j * np.pi * rng.uniform(size=6))
    el = el * phases[:, None, None]
    el = el[rng.permutation(6)]
    fam = BasisFamily(2, 3, 2, el)
    assert check_sebk(fam).passed
    assert check_mu_pair(catalog("R1"), fam).passed


def nine_copies_of_s1():
    # nine copies of the same element: every Gram entry offends at once
    return BasisFamily(3, 3, 3, np.repeat(catalog("S1").elements[:1], 9, axis=0))


def test_offender_cap():
    rep = check_sebk(nine_copies_of_s1())
    assert not rep.passed
    assert len(rep.offenders) == MAX_OFFENDERS


def r2_with_r1_planted():
    el = np.array(catalog("R2").elements)
    el[4] = catalog("R1").elements[0]  # plant a colliding element
    return BasisFamily(2, 3, 2, el)


def test_failed_pair_reports_offending_indices():
    rep = check_mu_pair(catalog("R1"), r2_with_r1_planted())
    assert not rep.passed
    assert any(i == 0 and j == 4 for _, _, i, j, _ in rep.offenders)


def test_check_sebk_types_svd_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalFailure):
        check_sebk(catalog("R1"))
    with pytest.raises(NumericalFailure):
        schmidt_number(np.eye(2))


def random_stack(rng, n, d, dprime):
    return rng.standard_normal((n, d, dprime)) + 1j * rng.standard_normal((n, d, dprime))


def rounding_bound(e, f):
    # inner products of length L agree to about L eps times the norm product
    # (Higham's gamma_L bound); the factor 2 covers the two evaluation orders
    length = e[0].size
    norms = np.outer(np.linalg.norm(e.reshape(len(e), -1), axis=1),
                     np.linalg.norm(f.reshape(len(f), -1), axis=1))
    return 2 * (length + 2) * EPS * norms


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), m=st.integers(1, 7),
       d=st.integers(1, 6), dprime=st.integers(1, 6))
def test_overlap_kernel_matches_vdot_loop(seed, n, m, d, dprime):
    rng = np.random.default_rng(seed)
    e = random_stack(rng, n, d, dprime)
    f = random_stack(rng, m, d, dprime)
    brute = np.array([[np.vdot(e[a].ravel(), f[b].ravel()) for b in range(m)]
                      for a in range(n)])
    gram = verify._overlap_gram(e, f)
    assert gram.shape == (n, m)
    assert np.all(np.abs(gram - brute) <= rounding_bound(e, f))


def random_family_set(rng, d, dprime, count):
    return FamilySet(tuple(
        BasisFamily(d, dprime, 1, random_stack(rng, d * dprime, d, dprime))
        for _ in range(count)
    ))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), dprime=st.integers(1, 3),
       p=st.integers(1, 3), q=st.integers(1, 3))
def test_product_gram_is_kron_of_factor_grams(seed, d, dprime, p, q):
    rng = np.random.default_rng(seed)
    s = random_family_set(rng, d, dprime, 2)
    t = random_family_set(rng, p, q, 2)
    prod = tensor_families(s, t)
    gram = verify._overlap_gram(prod[0].elements, prod[1].elements)
    expected = np.kron(verify._overlap_gram(s[0].elements, s[1].elements),
                       verify._overlap_gram(t[0].elements, t[1].elements))
    bound = 2 * rounding_bound(prod[0].elements, prod[1].elements)
    assert np.all(np.abs(gram - expected) <= bound)


def catalog_sets():
    fams = {n: catalog(n) for n in CATALOG_NAMES}
    sets = {n: FamilySet((f,)) for n, f in fams.items() if isinstance(f, BasisFamily)}
    for names in (("R1", "R2"), ("eq16", "eq17"), ("R1", "eq17", "R2", "eq16"),
                  ("S1", "S2", "S3"), ("T1", "T2", "T3")):
        sets[",".join(names)] = FamilySet(tuple(fams[n] for n in names))
    return sets


RECIPE_CASES = [
    ("theorem3", {"d": 2, "dprime": 2, "p": 3, "q": 3}),
    ("theorem3", {"d": 2, "dprime": 3, "p": 2, "q": 3}),
    ("corollary1_right", {"d": 2, "dprime": 3, "q": 4}),
    ("corollary1_left", {"d": 2, "dprime": 3, "p": 3}),
    ("example1", {}),
    ("example3", {}),
    ("cor21k_mumeb", {"d": 2, "q": 3}),
    ("cor21k_seb2", {"k": 5}),
    ("m69", {}),
]


def test_recipe_cases_cover_every_recipe():
    assert {name for name, _ in RECIPE_CASES} == set(RECIPE_NAMES)


def scaled(fs, fi, ei, factor):
    fam = fs[fi]
    el = fam.elements.copy()
    el[ei] *= factor
    bad = BasisFamily(fam.d, fam.dprime, fam.k, el, fam.label)
    return FamilySet(fs.families[:fi] + (bad,) + fs.families[fi + 1:])


REGRESSION_SETS = {
    **{name: (lambda name=name: catalog_sets()[name]) for name in catalog_sets()},
    **{f"{n}{sorted(p.items())}": (lambda n=n, p=p: run_recipe(n, **p))
       for n, p in RECIPE_CASES},
    "mub_prime(53)": lambda: mub_prime(53),
}


VARIANTS = ["as_built", "scaled_1e-3", "scaled_5e-9"]


def variant_of(fs, variant):
    # the failing variants make the offender lists non-empty; their factors
    # put every deviation well clear of the 1e-9 tolerance
    if variant == "scaled_1e-3":
        return scaled(fs, len(fs) - 1, len(fs[-1]) // 2, 1.001)
    if variant == "scaled_5e-9":
        return scaled(fs, 0, 0, 1 + 5e-9)
    return fs


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", list(REGRESSION_SETS))
def test_kernel_reproduces_einsum_reports(monkeypatch, name, variant):
    fs = variant_of(REGRESSION_SETS[name](), variant)
    got = check_museb_set(fs)
    monkeypatch.setattr(verify, "_overlap_gram", einsum_gram)
    want = check_museb_set(fs)
    assert got.passed == want.passed
    assert got.checks_run == want.checks_run
    assert [o[:4] for o in got.offenders] == [o[:4] for o in want.offenders]
    bound = fs.d * fs.dprime * 2.0**-52
    assert abs(got.worst_violation - want.worst_violation) <= bound


def full_stage(dev, measured, tol, checks, pair):
    # the stage rule without its early return for a passed stage
    worst = float(dev.max(initial=0.0))
    offenders = tuple((*pair, int(i), int(j), float(np.abs(measured[i, j])))
                      for i, j in np.argwhere(dev > tol)[:MAX_OFFENDERS])
    return worst <= tol, worst, offenders, checks


stage_devs = st.lists(st.one_of(st.floats(min_value=0.0, max_value=1e-6), st.just(np.nan)),
                      min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(stage_devs, st.floats(min_value=0.0, max_value=1e-6))
def test_stage_rule_matches_the_full_offender_scan(values, tol):
    dev = np.array(values).reshape(len(values), 1)
    measured = 1.0 + dev
    got = verify._stage(dev.max(initial=0.0), lambda: measured, lambda _: dev, tol, dev.size,
                        (0, 1))
    passed, worst, offenders, checks = full_stage(dev, measured, tol, dev.size, (0, 1))
    assert (got.passed, got.offenders, got.checks_run) == (passed, offenders, checks)
    assert got.worst_violation == worst or (np.isnan(got.worst_violation) and np.isnan(worst))
    assert not (np.isnan(worst) and got.passed)


@functools.cache
def regression_set(name):
    return REGRESSION_SETS[name]()


def with_families(fs, elements_of):
    return FamilySet(tuple(BasisFamily(f.d, f.dprime, f.k, elements_of(f), f.label)
                           for f in fs))


# maps under which every certificate is invariant: the transpose swaps the
# subsystems, and the other two relabel or rephase the elements of a basis
SYMMETRIES = {
    "transpose": lambda fs, rng: transpose_family(fs),
    "unit_phases": lambda fs, rng: with_families(
        fs, lambda f: f.elements * np.exp(2j * np.pi * rng.random(len(f)))[:, None, None]),
    "permutation": lambda fs, rng: with_families(
        fs, lambda f: f.elements[rng.permutation(len(f))]),
}


@pytest.mark.parametrize("symmetry", list(SYMMETRIES))
@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from([n for n in REGRESSION_SETS if n != "mub_prime(53)"]),
       variant=st.sampled_from(VARIANTS), seed=st.integers(0, 2**32 - 1))
def test_report_is_invariant_under_symmetries(symmetry, name, variant, seed):
    fs = variant_of(regression_set(name), variant)
    want = check_museb_set(fs)
    got = check_museb_set(SYMMETRIES[symmetry](fs, np.random.default_rng(seed)))
    assert got.passed == want.passed
    assert got.checks_run == want.checks_run
    bound = fs.d * fs.dprime * 2.0**-52
    assert abs(got.worst_violation - want.worst_violation) <= bound


def merged_report(fs, tol):
    # the one merge rule, spelled out on the public stage reports: family
    # reports first, then pairs, offenders relabelled and capped
    parts = [(fi, fi, check_sebk(fam, tol)) for fi, fam in enumerate(fs)]
    parts += [(fi, fj, check_mu_pair(fs[fi], fs[fj], tol))
              for fi, fj in itertools.combinations(range(len(fs)), 2)]
    reports = [rep for _, _, rep in parts]
    offenders = [(fi, fj, *o[2:]) for fi, fj, rep in parts for o in rep.offenders]
    return (all(r.passed for r in reports), float(np.max([r.worst_violation for r in reports])),
            tuple(offenders[:MAX_OFFENDERS]), sum(r.checks_run for r in reports))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(list(REGRESSION_SETS)), variant=st.sampled_from(VARIANTS),
       tol=st.sampled_from([0.0, 1e-16, 1e-12, 1e-9, 1e-6, 9.99e-4]))
def test_set_report_is_the_merge_of_its_stage_reports(name, variant, tol):
    fs = variant_of(regression_set(name), variant)
    rep = check_museb_set(fs, tol)
    assert (rep.passed, rep.worst_violation, rep.offenders, rep.checks_run) == \
        merged_report(fs, tol)


# failures well clear of tol = 1e-9, so their offender indices do not
# depend on rounding: (passed, checks_run, [o[:4] for o in offenders])
PINNED_FAILURES = {
    "skewed_R1_spectrum": (lambda: check_sebk(skewed_r1()), 42,
                           [(0, 0, 0, 1), (0, 0, 1, 1)]),
    "nine_copies_cap": (lambda: check_sebk(nine_copies_of_s1()), 90,
                        [(0, 0, i, j) for i in range(9) for j in range(9) if i != j][:32]),
    "planted_pair": (lambda: check_mu_pair(catalog("R1"), r2_with_r1_planted()), 36,
                     [(0, 1, i, 4) for i in range(6)]),
    "weyl33_claimed_k1": (lambda: check_sebk(BasisFamily(3, 3, 1, weyl_meb(3, 3).elements)),
                          90, [(0, 0, i, 1) for i in range(9)]),
}


@pytest.mark.parametrize("name", list(PINNED_FAILURES))
def test_failure_reports_are_pinned(name):
    build, checks, offenders = PINNED_FAILURES[name]
    rep = build()
    assert rep.passed is False
    assert rep.checks_run == checks
    assert [o[:4] for o in rep.offenders] == offenders


# --------------------------------------------- products certified through their factors

def dense_copy(fs):
    # the same elements rebuilt with no recorded factors: the dense oracle
    return with_families(fs, lambda f: f.elements)


def orthonormal_family(rng, d, dprime, kind, k=1):
    n = d * dprime
    if kind == "generic":
        q, _ = np.linalg.qr(random_stack(rng, 1, n, n)[0])
        elements = q.T.reshape(n, d, dprime)
    else:  # a local product basis: every element has rank one
        u, _ = np.linalg.qr(random_stack(rng, 1, d, d)[0])
        v, _ = np.linalg.qr(random_stack(rng, 1, dprime, dprime)[0])
        elements = np.einsum("ia,jb->abij", u, v).reshape(n, d, dprime)
    # k is a claim, which a generic family with k > 1 need not meet
    return BasisFamily(d, dprime, min(k, d, dprime), elements)


def factors_of(fs, side):
    return FamilySet(tuple(f._factors[side] for f in fs))


def scaled_factor(fs):
    # the product again, one element of its left factor scaled by 1.001
    left = factors_of(fs, 0)
    return tensor_families(scaled(left, len(left) - 1, len(left[-1]) // 2, 1.001),
                           factors_of(fs, 1))


ORACLE_TOLS = [0.0, 1e-16, 1e-15, 1e-9]


def leaf_families(fam):
    # the families a product multiplies; none for a family certified densely
    return [leaf for part in fam._factors for leaf in leaf_families(part) or [part]]


def sorted_spectrum(fam):
    # each element's singular values, descending, formed afresh from the leaves
    if not fam._factors:
        return verify.stacked_singular_values(fam.elements)
    return verify._spectrum(fam, *map(sorted_spectrum, fam._factors))


def oracle_bound(fs):
    # first order, for unit elements: a complex inner product of length n rounds within
    # sqrt(2) gamma_(n+2) = 0.71 (n + 2) eps (Higham, section 3.6), a modulus or a real
    # product within eps / 2, a complex product within sqrt(2) gamma_2 = 1.42 eps.  Against
    # the exact overlaps of the stored leaves, a dense value of an L-leaf product errs by
    # 0.71 (dd' + 2) + 0.5 for its ZGEMM and modulus plus 2 x 1.42 for each of the L - 1
    # rounded products in its elements; a factored one by 0.71 (n_l + 2) + 0.5 for each
    # leaf's Gram and modulus plus 1.42 for each of its L - 1 products.  The final
    # deviations of both add 1.5 at most, and the sum stays below dd' + sum(n_l + 7).
    return (fs.d * fs.dprime
            + max(sum(leaf.d * leaf.dprime + 7 for leaf in leaf_families(f)) for f in fs)) * EPS


def assert_matches_dense(fs, tol, verdict_always=True):
    got = check_museb_set(fs, tol)
    want = check_museb_set(dense_copy(fs), tol)
    bound = oracle_bound(fs)
    assert got.checks_run == want.checks_run
    assert abs(got.worst_violation - want.worst_violation) <= bound
    # a worst violation within rounding of tol (say an exact 0 against a
    # dense 1e-16 at tol 0) gets its verdict from rounding alone
    if verdict_always or abs(want.worst_violation - tol) > bound:
        assert got.passed == want.passed
    # below 1e-9 which rounding-level entries exceed tol, and which of equal
    # singular values deviates most, is decided by rounding; at 1e-9 every
    # deviation is either rounding-level or far from tol
    if tol == 1e-9:
        assert [o[:4] for o in got.offenders] == [o[:4] for o in want.offenders]


leaf_specs = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
                       st.sampled_from(["generic", "rank_one"]))


def random_product(seed, specs, nest_left):
    rng = np.random.default_rng(seed)
    # a spec may end in the k its leaves claim
    sets = [FamilySet(tuple(orthonormal_family(rng, d, dprime, kind, *k) for _ in range(count)))
            for d, dprime, count, kind, *k in specs]
    if len(sets) == 2:
        return tensor_families(*sets)
    if nest_left:  # ((a b) c), as example1 nests its factors
        return tensor_families(tensor_families(sets[0], sets[1]), sets[2])
    return tensor_families(sets[0], tensor_families(sets[1], sets[2]))


product_specs = st.lists(leaf_specs, min_size=2, max_size=3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), leaves=product_specs,
       nest_left=st.booleans(), strip_first=st.booleans(),
       tol=st.sampled_from(ORACLE_TOLS))
# two products of random 1x1 families whose factored and dense worst violations
# differ by 2 and 1.5 eps, more than the one eps of a bound of dd' eps alone
@example(seed=129711803, leaves=[(1, 1, 1, "generic")] * 2, nest_left=False,
         strip_first=False, tol=0.0)
@example(seed=206, leaves=[(1, 1, 1, "generic")] * 2, nest_left=False,
         strip_first=False, tol=0.0)
def test_factored_report_matches_the_dense_report(seed, leaves, nest_left, strip_first, tol):
    fs = random_product(seed, leaves, nest_left)
    if strip_first:  # one family certified densely beside factored ones
        fs = FamilySet((dense_copy(fs)[0],) + fs.families[1:])
    assert_matches_dense(fs, tol, verdict_always=False)


@pytest.mark.parametrize("tol", ORACLE_TOLS)
@pytest.mark.parametrize("variant", ["as_built", "scaled_factor"])
@pytest.mark.parametrize("name", [f"{n}{sorted(p.items())}" for n, p in RECIPE_CASES])
def test_recipe_reports_match_the_dense_reports(name, variant, tol):
    fs = regression_set(name)
    assert all(f._factors for f in fs)
    assert_matches_dense(scaled_factor(fs) if variant == "scaled_factor" else fs, tol)


def test_product_spectrum_sorts_the_zeros_of_a_rank_deficient_factor_last():
    # each element of the right factor has singular values (1, 0), so the
    # products come out as (r, 0, r, 0) before the sort
    rank_one = FamilySet((BasisFamily(2, 2, 1, np.eye(4).reshape(4, 2, 2)),))
    fam = tensor_families(FamilySet((catalog("R1"),)), rank_one)[0]
    dense = verify.stacked_singular_values(fam.elements)
    assert np.all(np.abs(sorted_spectrum(fam) - dense) <= 4 * EPS)
    assert check_sebk(fam, 1e-15).passed


def recorded_grams(monkeypatch):
    shapes = []

    def recording(e, f):
        shapes.append((len(e), len(f)))
        return einsum_gram(e, f)

    monkeypatch.setattr(verify, "_overlap_gram", recording)
    return shapes


def test_product_certifies_without_forming_its_grams(monkeypatch):
    # C^4 (x) C^6 factors with no factors of their own, as perfbench's grow_c24 has
    fs = tensor_families(dense_copy(compose._build(compose._plan((4, 4)), 1e-9)),
                         dense_copy(compose._build(compose._plan((6, 6)), 1e-9)))
    svd_shapes = []

    def recording_svd(stack):
        svd_shapes.append(stack.shape)
        return stacked_svd(stack)

    stacked_svd = verify.stacked_singular_values
    monkeypatch.setattr(verify, "stacked_singular_values", recording_svd)
    svds, spectra = recorded_spectra(monkeypatch)
    shapes = recorded_grams(monkeypatch)
    assert check_museb_set(fs).passed
    assert shapes and max(max(s) for s in shapes) <= 36
    assert svd_shapes and max(s[0] for s in svd_shapes) <= 36
    assert spectra == []  # the factored bounds hold, so no product's spectrum is sorted


def prod_family():
    return tensor_families(FamilySet((catalog("R1"),)), FamilySet((catalog("R2"),)))[0]


def test_factors_do_not_outlive_their_elements(tmp_path):
    prod = prod_family()
    assert [f.label for f in prod._factors] == ["R1", "R2"]
    prod_set = FamilySet((prod,))
    rebuilt = [
        dataclasses.replace(prod),
        dataclasses.replace(prod, label="relabelled"),
        BasisFamily(prod.d, prod.dprime, prod.k, prod.elements, prod.label),
        *transpose_family(prod_set),
    ]
    save_family_set(prod_set, tmp_path / "prod.json")
    rebuilt += load_family_set(tmp_path / "prod.json").families
    assert all(fam._factors == () for fam in rebuilt)
    assert all(fam._factors == () for fam in (catalog("R1"), mub_prime(5)[0]))


def test_composite_mub_families_keep_their_factors():
    fs = mub_composite(143)
    assert [fam.label for fam in fs] == [f"mub143.t{t}" for t in range(len(fs))]
    assert all(fam._factors and unformed(fam) for fam in fs)
    assert check_museb_set(fs).passed
    assert all(unformed(fam) for fam in fs)  # certified through the factors


def test_unmatched_factors_fall_back_to_the_dense_gram(monkeypatch):
    r = FamilySet((catalog("R1"),))
    rt = transpose_family(r)
    # both in C^6 (x) C^6 with Schmidt rank 4, factored as (2,3)(x)(3,2) and (3,2)(x)(2,3)
    f, g = tensor_families(r, rt)[0], tensor_families(rt, r)[0]
    for a, b in [(f, g), (f, dense_copy(FamilySet((f,)))[0]), (dense_copy(FamilySet((f,)))[0], f)]:
        for rule in (verify._extremes, verify._magnitudes):
            shapes = recorded_grams(monkeypatch)
            rule(a, b)
            assert shapes == [(36, 36)]
    monkeypatch.undo()
    want = check_mu_pair(*dense_copy(FamilySet((f, g))))
    assert check_mu_pair(f, g) == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), specs=product_specs, nest_left=st.booleans())
def test_factored_extremes_are_those_of_the_materialized_magnitudes(seed, specs, nest_left):
    fs = random_product(seed, specs, nest_left)
    for f, g in itertools.product(fs, repeat=2):
        mags = verify._magnitudes(f, g)
        assert verify._extremes(f, g) == (mags.min(), mags.max())
    for f in fs:
        mags = verify._magnitudes(f, f)
        diag, off, on = verify._self(f)
        assert off == np.where(np.eye(len(f), dtype=bool), 0.0, mags).max()
        assert on == mags.diagonal().max()
        # |fl(x y)| against fl(|x| |y|): 1.42 + 0.5 eps per product, eps / 2 per modulus
        assert np.all(np.abs(np.abs(diag) - mags.diagonal()) <= 2 * len(specs) * EPS)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nest_left=st.booleans(),
       specs=st.lists(st.tuples(leaf_specs, st.integers(1, 3)).map(lambda s: (*s[0], s[1])),
                      min_size=2, max_size=3))
# rank-one leaves: every leading product exceeds every tail product, so the bounds factor
@example(seed=0, specs=[(2, 2, 1, "rank_one", 1), (3, 3, 1, "rank_one", 1),
                        (2, 3, 1, "rank_one", 1)], nest_left=True)
# generic leaves claiming k = 2 of 3 and 1 of 2: some element's leading pair of products
# is not the product of its factors' leading values, so the bounds sort
@example(seed=0, specs=[(3, 3, 1, "generic", 2), (2, 2, 1, "generic", 1)], nest_left=False)
def test_factored_sv_bounds_are_those_of_the_sorted_spectrum(seed, specs, nest_left):
    for f in random_product(seed, specs, nest_left):
        sv = sorted_spectrum(f)
        want = sv[:, : f.k].min(), sv[:, : f.k].max(), sv[:, f.k:].max(initial=0.0)
        *bounds, spectrum_of = verify._sv_bounds(f)
        assert tuple(bounds) == want
        assert np.array_equal(spectrum_of(), sv)


# (0, 0) is a leading singular value; in the 2x2 rank-one leaf, (-1, -1) is a tail one
@pytest.mark.parametrize("at", [(0, 0), (-1, -1)])
@pytest.mark.parametrize("build", [
    lambda: random_product(1, [(2, 2, 2, "rank_one"), (2, 3, 2, "rank_one")], True),
    lambda: mub_prime(5),
])
def test_a_nan_singular_value_fails_the_spectrum_stage(monkeypatch, build, at):
    fs = build()
    poisoned = leaf_families(fs[0])[0] if fs[0]._factors else fs[0]
    svd = verify.stacked_singular_values

    def nan_svd(stack):
        sv = svd(stack)
        if stack is poisoned.elements:
            sv[at] = np.nan
        return sv

    monkeypatch.setattr(verify, "stacked_singular_values", nan_svd)
    for rep in (check_sebk(fs[0]), check_museb_set(fs)):
        assert not rep.passed and np.isnan(rep.worst_violation)


def recorded_spectra(monkeypatch):
    # the ids of the stacks decomposed and of the families whose spectra were formed
    svds, spectra = [], []
    svd, spectrum = verify.stacked_singular_values, verify._spectrum

    def recording_svd(stack):
        svds.append(id(stack))
        return svd(stack)

    def recording_spectrum(fam, a, b):
        spectra.append(id(fam))
        return spectrum(fam, a, b)

    monkeypatch.setattr(verify, "stacked_singular_values", recording_svd)
    monkeypatch.setattr(verify, "_spectrum", recording_spectrum)
    return svds, spectra


# generic leaves, the first claiming k = 2 of 3: the bounds sort and the stage fails
@pytest.mark.parametrize("specs, nest_left", [
    ([(3, 3, 1, "generic", 2), (2, 2, 1, "generic")], False),
    ([(3, 3, 1, "generic", 2), (2, 2, 1, "generic"), (1, 2, 1, "generic")], True),
    ([(3, 3, 1, "generic", 2), (2, 2, 1, "generic"), (1, 2, 1, "generic")], False),
])
def test_a_failing_product_decomposes_each_leaf_once_and_sorts_once(monkeypatch, specs,
                                                                     nest_left):
    fam = random_product(0, specs, nest_left)[0]
    leaves = leaf_families(fam)
    # the same check with nothing kept between its steps: each step forms its own spectra
    sv_bounds = verify._sv_bounds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_sv_bounds", lambda f: (*sv_bounds(f)[:3],
                                                    lambda: sorted_spectrum(f)))
        svds, spectra = recorded_spectra(mp)
        want = check_sebk(fam)
    assert len(svds) >= 3 * len(leaves) and spectra.count(id(fam)) == 2
    svds, spectra = recorded_spectra(monkeypatch)
    got = check_sebk(fam)
    assert not got.passed and got.offenders
    assert got == want
    assert sorted(svds) == sorted(id(leaf.elements) for leaf in leaves)
    assert spectra.count(id(fam)) == 1 and len(spectra) == len(set(spectra))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       specs=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(2, 3),
                                st.just("rank_one")), min_size=2, max_size=3),
       nest_left=st.booleans(), which=st.integers(0, 2), at=st.integers(0, 2**32 - 1))
def test_a_nan_in_any_factor_gram_fails_both_gram_stages(seed, specs, nest_left, which, at):
    fs = random_product(seed, specs, nest_left)
    factored = fs[0], fs[1]
    dense = tuple(dense_copy(FamilySet(factored)))
    for f, g in (factored, dense):
        assert check_sebk(f).passed  # rank-one leaves make orthonormal SEB1s
        poisoned = leaf_families(f)[which % len(specs)] if f._factors else f

        def nan_gram(e, h):
            gram = einsum_gram(e, h)
            if e is poisoned.elements:
                gram.flat[at % gram.size] = np.nan
            return gram

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_overlap_gram", nan_gram)
            pair = check_mu_pair(f, g)
            assert not pair.passed and np.isnan(pair.worst_violation)
            # the merged reports keep the NaN behind the passed spectrum stage
            for rep in (check_sebk(f), check_museb_set(FamilySet((f, g)))):
                assert not rep.passed and np.isnan(rep.worst_violation)


@pytest.mark.parametrize("build, budget", [
    # below one float64 array of the C^24 product's Gram shape, 576 x 576
    (lambda: tensor_families(dense_copy(compose._build(compose._plan((4, 4)), 1e-9)),
                             dense_copy(compose._build(compose._plan((6, 6)), 1e-9))),
     576 * 576 * 8),
    # 2 MB for C^36, where one 1296 x 1296 float64 array takes 13.4 MB
    (lambda: run_recipe("theorem3", d=6, dprime=6, p=6, q=6), 2e6),
])
def test_product_certifies_in_memory_of_its_factors(build, budget):
    fs = build()
    tracemalloc.start()
    try:
        assert check_museb_set(fs).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget


def einsum_elements(fam):
    # the eager formation of a product's elements, factors formed the same way first
    if not fam._factors:
        return fam.elements
    left, right = map(einsum_elements, fam._factors)
    return np.einsum("aij,bkl->abikjl", left, right).reshape(len(fam), fam.d, fam.dprime)


def unformed(fam):
    # no product in fam's tree of factors has formed its elements; a leaf is dense
    return not fam._factors or ("elements" not in vars(fam) and all(map(unformed, fam._factors)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), specs=product_specs, nest_left=st.booleans())
def test_formed_elements_are_the_einsum_of_the_factors(seed, specs, nest_left):
    for fam in random_product(seed, specs, nest_left):
        want = einsum_elements(fam)
        assert unformed(fam)
        got = fam.elements
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable
        assert fam.elements is got  # formed once, then cached


def test_header_length_repr_and_certificate_form_no_product():
    built = [tensor_families(compose._build((2, 2), 1e-9), compose._build((3, 3), 1e-9))
             for _ in range(2)]
    nested = run_recipe("example1")  # products of products, each certified on the way
    for fam in built[0]:
        assert (len(fam), fam.d, fam.dprime, fam.k) == (36, 6, 6, 6)
    assert check_museb_set(built[0]).passed
    assert "elements=_product(" in repr(built[0])
    assert all(unformed(fam) for fs in (*built, nested) for fam in fs)
    assert built[0] == built[1] and not built[0] != built[1]  # by value, so formed


def test_replace_and_dense_copy_form_the_product():
    prod = prod_family()
    relabelled = dataclasses.replace(prod, label="relabelled")
    assert not unformed(prod) and relabelled._factors == ()
    assert relabelled.label == "relabelled"
    assert np.array_equal(relabelled.elements, prod.elements)
    assert dense_copy(FamilySet((prod,)))[0] == prod


def test_a_missing_attribute_of_a_product_forms_nothing():
    prod = prod_family()
    with pytest.raises(AttributeError, match="'nope'"):
        getattr(prod, "nope")
    assert not hasattr(prod, "nope")
    assert unformed(prod)


@pytest.mark.parametrize("clone", [lambda fs: pickle.loads(pickle.dumps(fs)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_product_keeps_its_factors_unformed(clone):
    fs = run_recipe("theorem3", d=2, dprime=3, p=3, q=3)
    got = clone(fs)
    for fam, orig in zip(got, fs):
        assert len(fam._factors) == 2
        assert [f.label for f in fam._factors] == [f.label for f in orig._factors]
        assert "elements" not in vars(fam)
    assert check_museb_set(got).passed
    assert all(unformed(fam) for fam in (*fs, *got))  # certified through the factors
    assert got == fs


def test_basis_family_surface_is_unchanged():
    assert list(inspect.signature(BasisFamily).parameters) == [
        "d", "dprime", "k", "elements", "label"]
    fields = dataclasses.fields(BasisFamily)
    public = ["d", "dprime", "k", "elements", "label"]
    assert [f.name for f in fields if f.compare] == public
    assert [f.name for f in fields if f.repr] == public
    prod = prod_family()
    # an unformed product shows its factors; a formed one reads as its dense copy
    shown = repr(prod)
    assert shown.startswith("BasisFamily(d=4, dprime=9, k=4, elements=_product(")
    assert unformed(prod)
    dense = dense_copy(FamilySet((prod,)))[0]  # reads, so forms, prod's elements
    assert repr(prod) == repr(dense) != shown


def test_public_constructor_still_copies_caller_arrays():
    arr = weyl_meb(2, 3).elements.copy()
    fam = BasisFamily(2, 3, 2, arr)
    assert not np.shares_memory(fam.elements, arr)
    arr[0] = 0
    assert np.array_equal(fam.elements, weyl_meb(2, 3).elements)


def test_basis_family_equality_is_by_value():
    r1 = catalog("R1")
    assert r1 == catalog("R1")
    assert not r1 != catalog("R1")
    assert r1 != catalog("R2")
    assert r1 != dataclasses.replace(r1, label="R1'")
    assert r1 != BasisFamily(r1.d, r1.dprime, r1.k, 1.001 * r1.elements, r1.label)
    assert r1 != "R1"
    with pytest.raises(TypeError):
        hash(r1)


def test_product_equals_its_rebuilt_dense_copy():
    prod = prod_family()
    dense = dense_copy(FamilySet((prod,)))[0]
    assert prod._factors and not dense._factors
    assert prod == dense  # the recorded factors do not count


def test_family_set_equality_compares_its_families():
    pair = FamilySet((catalog("R1"), catalog("R2")))
    assert pair == FamilySet((catalog("R1"), catalog("R2")))
    assert pair != FamilySet((catalog("R2"), catalog("R1")))
    assert pair != FamilySet((catalog("R1"),))


def test_product_is_determined_by_its_two_factors():
    left, right = catalog("R1"), mub_prime(3)[1]
    fam = verify._product(left, right)
    assert (fam.d, fam.dprime, fam.k) == (2, 9, 2)
    assert fam.label == "R1*" + right.label
    assert fam._factors == (left, right)
    a, b = 4, 2
    assert np.allclose(fam[a * len(right) + b], np.kron(left[a], right[b]), rtol=0, atol=EPS)
    unlabelled = dataclasses.replace(right, label="")
    assert verify._product(left, unlabelled).label == "R1"
    assert verify._product(unlabelled, left).label == "R1"
    assert verify._product(unlabelled, unlabelled).label == ""
