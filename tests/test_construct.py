import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from museb import (
    DimensionOrder,
    FamilySet,
    NotAdmissible,
    NotPrime,
    ThetaParams,
    UnknownName,
    c23_family,
    c23_partner,
    catalog,
    check_mu_pair,
    check_museb_set,
    check_sebk,
    factorize,
    is_prime,
    is_unitary,
    mub_composite,
    mub_prime,
    mumeb_qubit,
    singular_values,
    solve_theta,
    theta_mixing_matrix,
    transpose_family,
    weyl_meb,
)
from museb import compose
from museb.construct import _QUBIT_FRAME

SQ2 = np.sqrt(2.0)
PI = np.pi


# loop-form oracles: the formulas as first written, one entry at a time

def weyl_oracle(d, dprime):
    omega = np.exp(2j * np.pi / d)
    out = np.zeros((d * dprime, d, dprime), dtype=complex)
    for m in range(dprime):
        for n in range(d):
            mat = np.zeros((d, dprime), dtype=complex)
            for p in range(d):
                mat[p, (p + m) % dprime] = omega ** (n * p) / np.sqrt(d)
            out[m * d + n] = mat
    return out


def c23_oracle(a):
    out = np.zeros((6, 2, 3), dtype=complex)
    for m in range(3):
        for n in range(2):
            mat = np.zeros((2, 3), dtype=complex)
            for p in range(2):
                for r in range(2):
                    mat[r, (p + m) % 3] += (-1) ** (n * p) * a[p, r] / SQ2
            out[m * 2 + n] = mat
    return out


def mub_prime_oracle(p):
    omega = np.exp(2j * np.pi / p)
    bases = [np.eye(p, dtype=complex)]
    s = np.arange(p)
    for b in range(p):
        vecs = np.empty((p, p), dtype=complex)
        for j in range(p):
            vecs[j] = omega ** ((b * s * s + j * s) % p) / np.sqrt(p)
        bases.append(vecs)
    return [vecs.reshape(p, 1, p) for vecs in bases]


# whole-array oracles: each formula evaluated over its full index grid in one go

def weyl_grid_oracle(d, dprime):
    # one fancy-indexed write into a zeroed (d', d, d, d') array, then a copy
    omega = np.exp(2j * np.pi / d)
    m, n, p = np.ogrid[:dprime, :d, :d]
    out = np.zeros((dprime, d, d, dprime), dtype=complex)
    out[m, n, p, (p + m) % dprime] = omega ** (n * p) / np.sqrt(d)
    return np.array(out.reshape(d * dprime, d, dprime))


def mub_prime_cube_oracle(p):
    # every amplitude of the p bases as one (p, p, p) cube of powers
    omega = np.exp(2j * np.pi / p)
    b, j, s = np.ogrid[:p, :p, :p]
    quads = omega ** ((b * s * s + j * s) % p) / np.sqrt(p)
    return [np.eye(p, dtype=complex).reshape(p, 1, p)] + [v.reshape(p, 1, p) for v in quads]


# ---------------------------------------------------------------- weyl_meb

def test_weyl_23_matches_frozen_family():
    assert np.max(np.abs(weyl_meb(2, 3).elements - catalog("R1").elements)) < 1e-12


def test_weyl_is_bit_identical_to_the_loop_oracle():
    pairs = [(d, dp) for d in range(1, 9) for dp in range(d, 9)] + [(32, 32)]
    for d, dprime in pairs:
        assert np.array_equal(weyl_meb(d, dprime).elements, weyl_oracle(d, dprime)), (d, dprime)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_weyl_is_bit_identical_to_the_grid_oracle():
    for d in range(1, 13):
        for dprime in range(d, 13):
            got = weyl_meb(d, dprime).elements
            assert same_bits(got, weyl_grid_oracle(d, dprime)), (d, dprime)


def test_weyl_requires_ordered_dimensions():
    with pytest.raises(DimensionOrder):
        weyl_meb(3, 2)
    with pytest.raises(ValueError):
        weyl_meb(0, 2)


def test_weyl_1xq_is_product_basis():
    fam = weyl_meb(1, 5)
    assert fam.k == 1
    assert np.max(np.abs(fam.elements - np.eye(5).reshape(5, 1, 5))) < 1e-12


def test_weyl_families_certify_across_dimensions():
    for d in range(1, 5):
        for dprime in range(d, 6):
            fam = weyl_meb(d, dprime)
            assert fam.k == d
            rep = check_sebk(fam)
            assert rep.passed, (d, dprime, rep.worst_violation)


def test_weyl_square_case_scales_to_unitaries():
    for d in (2, 3, 4):
        fam = weyl_meb(d, d)
        for i in range(len(fam)):
            assert is_unitary(np.sqrt(d) * fam[i])


# ------------------------------------------------------------ c23 partner

def test_partner_at_reference_angles_is_frozen_r2():
    phi, psi = c23_partner(ThetaParams(0.0, 1.5 * PI, 0.0))
    assert np.max(np.abs(phi.elements - catalog("R1").elements)) < 1e-12
    assert np.max(np.abs(psi.elements - catalog("R2").elements)) < 1e-12


def test_partner_alternative_angles_match_frozen_mixer():
    theta = ThetaParams(PI / 4, 3 * PI / 4, 5 * PI / 4)
    assert theta.is_admissible()
    assert np.max(np.abs(theta_mixing_matrix(theta) - catalog("othermu"))) < 1e-12
    phi, psi = c23_partner(theta)
    assert check_sebk(psi).passed
    assert check_mu_pair(phi, psi).passed


def test_c23_family_of_identity_is_the_weyl_basis():
    assert np.array_equal(c23_family(np.eye(2)).elements, weyl_meb(2, 3).elements)


_entries = st.floats(-4.0, 4.0, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_entries, min_size=8, max_size=8))
def test_c23_family_matches_the_loop_oracle(parts):
    a = (np.array(parts[:4]) + 1j * np.array(parts[4:])).reshape(2, 2)
    assume(not 0 < np.max(np.abs(a)) < 1e-290)  # products stay clear of subnormals
    got = c23_family(a).elements
    bound = 4 * 2.0**-52 * np.max(np.abs(a))
    assert np.max(np.abs(got - c23_oracle(a))) <= bound


def test_partner_rejects_inadmissible_angles():
    with pytest.raises(NotAdmissible):
        c23_partner(ThetaParams(0.0, 1.5 * PI, 0.02))
    with pytest.raises(NotAdmissible):
        c23_partner(ThetaParams(0.3, 0.3, 0.3))


def test_partner_holds_tol_to_the_verify_range():
    theta = ThetaParams(0.0, 1.5 * PI, 0.0)
    for tol in (1.0, 1e-3, -1e-12):
        with pytest.raises(ValueError, match=r"tol must sit in \[0, 1e-3\)"):
            c23_partner(theta, tol=tol)
    assert c23_partner(theta, tol=0.0)[1].label == "c23(0,4.71239,0)"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3, max_size=3))
def test_phase_formulas_match_their_scalar_forms(angles):
    # the scalar arithmetic these functions used before they were shared
    # with the batched closure probes; equal bit for bit
    t1, t2, t3 = angles
    theta = ThetaParams(t1, t2, t3)
    r = (t2 + t3 - 2.0 * t1 - 1.5 * PI) % (2.0 * PI)
    assert theta.residual() == float(min(r, 2.0 * PI - r))
    assert solve_theta(t1, t2) == float((1.5 * PI + 2.0 * t1 - t2) % (2.0 * PI))
    want = np.array(
        [
            [np.exp(1j * t1), np.sqrt(2.0) * np.exp(1j * t2)],
            [np.sqrt(2.0) * np.exp(1j * t3), np.exp(1j * (t1 + PI / 2))],
        ],
        dtype=complex,
    ) / np.sqrt(3.0)
    assert theta_mixing_matrix(theta).tobytes() == want.tobytes()


def test_solve_theta_always_lands_admissible():
    rng = np.random.default_rng(23)
    for _ in range(50):
        t1, t2 = rng.uniform(0, 2 * PI, size=2)
        theta = ThetaParams(t1, t2, solve_theta(t1, t2))
        assert theta.is_admissible()
        phi, psi = c23_partner(theta)
        assert check_mu_pair(phi, psi).passed


def test_mixing_matrix_unitary_exactly_when_admissible():
    good = ThetaParams(0.7, 2.1, solve_theta(0.7, 2.1))
    assert is_unitary(theta_mixing_matrix(good))
    bad = ThetaParams(0.7, 2.1, solve_theta(0.7, 2.1) + 0.05)
    assert not is_unitary(theta_mixing_matrix(bad))


def test_theta_params_reject_non_finite():
    with pytest.raises(ValueError):
        ThetaParams(0.0, np.inf, 0.0)
    # a bool once built as a phase and a string escaped as a bare TypeError
    for bad in (True, "0", None, 1j):
        for i, name in enumerate(("theta1", "theta2", "theta3")):
            phases = [0.0, 0.0, 0.0]
            phases[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
                ThetaParams(*phases)
    assert ThetaParams(np.float32(0.5), np.int64(1), 2).theta3 == 2


# -------------------------------------------------------------------- mubs

def test_mub_prime_two_is_the_frozen_t_trio():
    fs = mub_prime(2)
    assert len(fs) == 3
    for fam, name in zip(fs, ("T1", "T2", "T3")):
        assert np.max(np.abs(fam.elements - catalog(name).elements)) < 1e-12


def test_mub_prime_counts_and_certification():
    for p in (2, 3, 5, 7):
        fs = mub_prime(p)
        assert len(fs) == p + 1
        assert (fs.d, fs.dprime, fs.k) == (1, p, 1)
        assert check_museb_set(fs).passed


def test_mub_prime_is_bit_identical_to_the_loop_oracle():
    # p = 2 returns the frozen T trio, pinned by the test above
    for p in (n for n in range(3, 54) if is_prime(n)):
        got = [fam.elements for fam in mub_prime(p)]
        want = mub_prime_oracle(p)
        assert len(got) == len(want) == p + 1
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), p


def test_mub_prime_is_bit_identical_to_the_cube_oracle():
    for p in (n for n in range(3, 98) if is_prime(n)):
        got = [fam.elements for fam in mub_prime(p)]
        want = mub_prime_cube_oracle(p)
        assert len(got) == len(want) == p + 1
        assert all(same_bits(g, w) for g, w in zip(got, want)), p


def test_mub_prime_rejects_composites():
    for n in (1, 4, 6, 9):
        with pytest.raises(NotPrime):
            mub_prime(n)


def test_mub_composite_counts():
    for q, expected in ((4, 3), (6, 3), (9, 4), (12, 3), (15, 4)):
        fs = mub_composite(q)
        assert len(fs) == expected, q
        assert fs.dprime == q
        assert check_museb_set(fs).passed, q


def test_mub_composite_prime_input_delegates():
    fs = mub_composite(5)
    assert len(fs) == 6
    assert check_museb_set(fs).passed


def test_factorize_and_is_prime():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(7) == ((7, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    with pytest.raises(ValueError):
        factorize(1)
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("build", [
    is_prime, factorize, mub_composite, mub_prime,
    lambda n: weyl_meb(n, 12), lambda n: weyl_meb(2, n),
])
@pytest.mark.parametrize("n", [12.0, 7.5, True, "6"])
def test_dimension_arguments_must_be_integers(build, n):
    # a float or bool is never a dimension: refuse it rather than compute with it
    with pytest.raises(TypeError, match="must be an integer"):
        build(n)


def test_numpy_integers_are_integers():
    assert factorize(np.int64(12)) == ((2, 2), (3, 1))
    assert [f.label for f in mub_composite(np.int64(6))] == ["mub6.t0", "mub6.t1", "mub6.t2"]


# ----------------------------------------------------------- mumeb_qubit

def test_mumeb_qubit_is_three_maximally_entangled_bases():
    fs = mumeb_qubit()
    assert len(fs) == 3
    assert (fs.d, fs.dprime, fs.k) == (2, 2, 2)
    assert check_museb_set(fs).passed
    for fam in fs:
        for i in range(4):
            assert np.max(np.abs(singular_values(fam[i]) - 1 / SQ2)) < 1e-12


def test_mumeb_qubit_cross_overlaps_are_half():
    fs = mumeb_qubit()
    for a in range(3):
        for b in range(a + 1, 3):
            for i in range(4):
                for j in range(4):
                    ov = abs(np.trace(fs[a][i].conj().T @ fs[b][j]))
                    assert abs(ov - 0.5) < 1e-12


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_qubit_frame_table_is_the_expm_it_replaced():
    from scipy.linalg import expm
    want = expm(1j * (np.pi / 3) * (_X + _Y + _Z) / np.sqrt(3))
    assert _QUBIT_FRAME.dtype == want.dtype
    assert _QUBIT_FRAME.tobytes() == want.tobytes()
    assert np.array_equal(mumeb_qubit()[1].elements[0], _QUBIT_FRAME / SQ2)


def test_qubit_frame_table_is_within_ulps_of_the_exact_form():
    exact = (np.eye(2) + 1j * (_X + _Y + _Z)) / 2
    off = _QUBIT_FRAME - exact
    ulp = np.spacing(0.5)
    assert np.all(np.abs(off.real) <= 4 * ulp) and np.all(np.abs(off.imag) <= 4 * ulp)


# ---------------------------------------------------------------- catalog

def test_catalog_unknown_name():
    with pytest.raises(UnknownName):
        catalog("R9")


def test_catalog_is_case_insensitive():
    assert np.array_equal(catalog("r1").elements, catalog("R1").elements)
    assert np.array_equal(catalog("OTHERMU"), catalog("othermu"))


def test_catalog_q_is_the_frozen_corrector():
    q = catalog("Q")
    assert np.max(np.abs(q - np.diag([-1j, -1j, 1, 1, 1, 1]))) == 0.0


def test_catalog_u_v_columns_are_the_ket_families():
    u, v = catalog("U"), catalog("V")
    assert is_unitary(u) and is_unitary(v)
    assert np.max(np.abs(u.T.reshape(6, 2, 3) - catalog("eq16").elements)) < 1e-12
    assert np.max(np.abs(v.T.reshape(6, 2, 3) - catalog("eq17").elements)) < 1e-12


def test_catalog_ket_route_agrees_with_matrix_route():
    assert np.max(np.abs(catalog("eq16").elements - catalog("R1").elements)) == 0.0
    assert np.max(np.abs(catalog("eq17").elements - catalog("R2").elements)) == 0.0


def test_catalog_othermu_has_the_admissible_shape():
    mat = catalog("othermu")
    assert is_unitary(mat)
    pattern = np.array([[1.0, SQ2], [SQ2, 1.0]]) / np.sqrt(3.0)
    assert np.max(np.abs(np.abs(mat) - pattern)) < 1e-12
    delta = np.angle(mat[1, 1]) - np.angle(mat[0, 0])
    assert abs((delta - PI / 2 + PI) % (2 * PI) - PI) < 1e-12


def test_catalog_families_carry_labels():
    assert catalog("S2").label == "S2"
    assert catalog("eq17").label == "eq17"


def test_frozen_pair_is_mutually_unbiased():
    fs = FamilySet((catalog("R1"), catalog("R2")))
    rep = check_museb_set(fs)
    assert rep.passed
    assert rep.worst_violation < 1e-12


# ------------------------------------------------ the arrays the builders hand over

def _built_families():
    five, qubit = mub_prime(5), mumeb_qubit()
    sets = [mub_prime(2), mub_prime(3), mub_prime(7), mumeb_qubit(), five, transpose_family(five),
            qubit, transpose_family(qubit), compose._build((1, 1), 1e-9),
            FamilySet(c23_partner(ThetaParams(0.0, 0.0, 1.5 * PI)))]
    fams = [fam for fs in sets for fam in fs]
    fams += [weyl_meb(2, 3), weyl_meb(2, 3), weyl_meb(3, 5), c23_family(np.eye(2)),
             c23_family(theta_mixing_matrix(ThetaParams(0.3, 0.2, solve_theta(0.3, 0.2))))]
    fams += [catalog(name) for name in ("R1", "R2", "S1", "S2", "S3", "T1", "T2", "T3",
                                        "eq16", "eq17")]
    return fams


def test_built_families_share_no_memory_and_are_read_only():
    fams = _built_families()
    assert all(not fam.elements.flags.writeable for fam in fams)
    for f, g in itertools.combinations(fams, 2):
        assert not np.shares_memory(f.elements, g.elements), (f.label, g.label)


@pytest.mark.parametrize("build, args", [(mub_prime, (53,)), (mub_prime, (101,)),
                                         (weyl_meb, (24, 24))])
def test_dense_builders_peak_near_their_output(build, args):
    # each builds its arrays once and hands them over: no full-size temporary
    # beside them, and no copy by the family
    build(*args)
    tracemalloc.start()
    try:
        out = build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fams = out if isinstance(out, FamilySet) else [out]
    assert peak < 1.2 * sum(fam.elements.nbytes for fam in fams)
