import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from museb import (
    NotCHM,
    ShapeMismatch,
    catalog,
    dephased_obstruction,
    is_chm,
    theorem2_reproduce,
)


def fourier(n):
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def builtin_w():
    return catalog("U").conj().T @ catalog("V")


def apply_witness(mat, finding):
    out = np.array(mat.T if finding.on_transpose else mat)
    for col, phase in zip(finding.columns, finding.phases):
        out[:, col] = out[:, col] * phase
    out[finding.row_pair[1]] *= finding.row_phase
    return out


def test_is_chm_on_fourier_and_builtin():
    assert is_chm(fourier(6))
    assert is_chm(fourier(5))
    assert is_chm(builtin_w())


def test_is_chm_rejects_flat_but_nonunitary_and_unitary_but_spiky():
    assert not is_chm(np.ones((3, 3), dtype=complex) / np.sqrt(3))
    assert not is_chm(np.eye(4, dtype=complex))
    with pytest.raises(ShapeMismatch):
        is_chm(np.ones((2, 3)))


def test_dephased_obstruction_requires_chm():
    with pytest.raises(NotCHM):
        dephased_obstruction(np.eye(6))


def test_builtin_pair_is_obstructed_with_valid_witness():
    w = builtin_w()
    finding = dephased_obstruction(w)
    assert finding.obstructed
    assert len(finding.columns) >= 3
    assert len(finding.phases) == len(finding.columns)
    dephased = apply_witness(w, finding)
    r1, r2 = finding.row_pair
    for col in finding.columns:
        assert abs(dephased[r1, col].imag) < 1e-10
        assert abs(dephased[r2, col].imag) < 1e-10


def test_fourier6_is_obstructed_fourier5_is_not():
    assert dephased_obstruction(fourier(6)).obstructed
    assert not dephased_obstruction(fourier(5)).obstructed


def test_obstruction_survives_column_phases_and_permutations():
    rng = np.random.default_rng(9)
    w = builtin_w()
    w = w * np.exp(2j * np.pi * rng.uniform(size=6))[None, :]
    w = w[:, rng.permutation(6)][rng.permutation(6), :]
    assert is_chm(w)
    finding = dephased_obstruction(w)
    assert finding.obstructed
    dephased = apply_witness(w, finding)
    r1, r2 = finding.row_pair
    for col in finding.columns:
        assert abs(dephased[r1, col].imag) < 1e-10
        assert abs(dephased[r2, col].imag) < 1e-10


def test_first_witness_on_unrephased_inputs():
    f = dephased_obstruction(builtin_w())
    assert (f.on_transpose, f.row_pair, f.columns) == (False, (0, 1), (2, 3, 4, 5))
    f = dephased_obstruction(fourier(6))
    assert (f.on_transpose, f.row_pair, f.columns) == (False, (0, 3), tuple(range(6)))


@settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from(["builtin", "fourier6", "fourier5"]),
    rows=st.permutations(range(6)),
    cols=st.permutations(range(6)),
    row_angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=6, max_size=6),
    col_angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=6, max_size=6),
)
def test_obstruction_is_invariant_under_hadamard_equivalence(
    which, rows, cols, row_angles, col_angles
):
    # permuting and rephasing rows and columns keeps both bases, so it keeps
    # the verdict; fourier(5) is padded to 6 x 6 only for the shared draws
    base = {"builtin": builtin_w(), "fourier6": fourier(6), "fourier5": fourier(5)}[which]
    n = base.shape[0]
    rows = [r for r in rows if r < n]
    cols = [c for c in cols if c < n]
    w = base[rows][:, cols]
    w = w * np.exp(1j * np.array(row_angles[:n]))[:, None]
    w = w * np.exp(1j * np.array(col_angles[:n]))[None, :]
    assert is_chm(w)
    finding = dephased_obstruction(w)
    assert finding.obstructed == dephased_obstruction(base).obstructed
    if finding.obstructed:
        dephased = apply_witness(w, finding)
        r1, r2 = finding.row_pair
        tol = 1e-9
        for col in finding.columns:
            assert abs(dephased[r1, col].imag) <= tol
            assert abs(dephased[r2, col].imag) <= tol


def test_obstruction_found_on_transpose_when_rows_are_scrambled():
    # the affine Fourier family F6(a, b) shifts the phases of the odd rows in
    # the pattern (0, a, b, 0, a, b): no two rows keep a phase difference that
    # is constant modulo pi on three columns, but columns 0 and 3 stay Fourier
    a, b = 0.4, 1.1
    shift = np.zeros((6, 6))
    shift[1::2] = [0.0, a, b, 0.0, a, b]
    w = fourier(6) * np.exp(1j * shift)
    assert is_chm(w)
    finding = dephased_obstruction(w)
    assert finding.obstructed
    assert finding.on_transpose
    dephased = apply_witness(w, finding)
    r1, r2 = finding.row_pair
    for col in finding.columns:
        assert abs(dephased[r1, col].imag) < 1e-10
        assert abs(dephased[r2, col].imag) < 1e-10


def test_theorem2_reproduce_certifies_the_whole_chain():
    rep = theorem2_reproduce()
    assert rep.passed
    assert rep.worst_violation < 1e-10
    assert rep.offenders == ()
    assert rep.checks_run == 8


def test_theorem2_reproduce_with_tight_config():
    rep = theorem2_reproduce(1e-12)
    assert rep.passed


def test_theorem2_reproduce_at_zero_tolerance_fails_without_raising():
    # W is Hadamard only to rounding, so stage 5 fails and the scan is skipped
    rep = theorem2_reproduce(0.0)
    assert not rep.passed
    assert rep.checks_run == 8
    assert rep.worst_violation == 1.0
    assert (0, 0, 7, 7, 1.0) in rep.offenders


@pytest.mark.parametrize("tol, passed, offenders", [
    (1e-16, False, [(0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 7, 7)]),
    (1e-9, True, []),
])
def test_theorem2_reproduce_reports_are_pinned(tol, passed, offenders):
    # offender i and j both hold the stage index; at 1e-16 the two unitarity
    # stages miss by rounding, and the scan runs (W's Hadamard deviation is
    # 5.55e-17) but finds no witness at that tolerance, so stage 7 fails
    rep = theorem2_reproduce(tol)
    assert rep.passed is passed
    assert rep.checks_run == 8
    assert [o[:4] for o in rep.offenders] == offenders


def theorem2_deviations(tol):
    """The eight stage deviations of theorem2_reproduce, recomputed from the catalog."""
    u, v, q = catalog("U"), catalog("V"), catalog("Q")
    f16, f17 = catalog("eq16").elements, catalog("eq17").elements
    w = u.conj().T @ v
    s6 = np.sqrt(6.0)
    target = np.array([[-1 / s6, -1 / s6, 1 / s6], [1 / s6, 1 / s6, 1 / s6]])
    overlaps = np.abs(f16.reshape(6, -1).conj() @ f17.reshape(6, -1).T)
    hadamard = max(unitarity(w), flatness(w))
    residual = 1.0
    if hadamard <= tol and (finding := dephased_obstruction(w, tol)).obstructed:
        mat = w.T if finding.on_transpose else w
        r1, r2 = finding.row_pair
        residual = max(abs((mat[r, col] * row_phase * phase).imag)
                       for col, phase in zip(finding.columns, finding.phases)
                       for r, row_phase in ((r1, 1.0), (r2, finding.row_phase)))
    return [
        unitarity(u),
        unitarity(v),
        np.max(np.abs(u.T.reshape(6, 2, 3) - f16)),
        np.max(np.abs(v.T.reshape(6, 2, 3) - f17)),
        np.max(np.abs(overlaps - 1 / s6)),
        hadamard,
        np.max(np.abs((w @ q)[4:6, 0:3] - target)),
        residual,
    ]


def unitarity(m):
    return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))


def flatness(m):
    return np.max(np.abs(np.abs(m) - 1 / np.sqrt(m.shape[0])))


@pytest.mark.parametrize("tol", [0.0, 1e-17, 5e-17, 5.55e-17, 6e-17, 1e-16, 2e-16, 1e-15,
                                 1e-14, 1e-12, 1e-9, 1e-6, 9.99e-4])
def test_theorem2_reproduce_is_one_stage_of_eight_deviations(tol):
    # a check fails exactly when its deviation exceeds tol, and offends at (s, s)
    devs = theorem2_deviations(tol)
    rep = theorem2_reproduce(tol)
    assert rep.passed == (rep.worst_violation <= tol)
    assert rep.worst_violation == max(devs)
    assert rep.checks_run == 8
    assert [o[:4] for o in rep.offenders] == [(0, 0, s, s) for s, dev in enumerate(devs)
                                              if dev > tol]
    assert [o[4] for o in rep.offenders] == [dev for dev in devs if dev > tol]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 7),
    scale=st.sampled_from([1.0, 1 + 1e-15, 1 - 1e-12, 1 + 1e-9, 1 - 1e-6]),
    spike=st.sampled_from([0.0, 1e-16, 1e-13, 1e-10, 1e-7, 1e-4]),
    at=st.integers(0, 48),
    phase=st.floats(0.0, 2 * np.pi),
    tol=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 9.99e-4]),
)
def test_is_chm_is_unitary_and_flat_within_tol(n, scale, spike, at, phase, tol):
    # a rescaled Fourier matrix stays flat but leaves unitarity; a perturbed entry
    # leaves both, by different amounts
    w = fourier(n) * scale
    w.flat[at % w.size] += spike * np.exp(1j * phase)
    assert is_chm(w, tol) == (unitarity(w) <= tol and flatness(w) <= tol)


def test_corrector_makes_lower_left_block_real():
    w = builtin_w() @ catalog("Q")
    s6 = np.sqrt(6.0)
    target = np.array([[-1 / s6, -1 / s6, 1 / s6], [1 / s6, 1 / s6, 1 / s6]])
    assert np.max(np.abs(w[4:6, 0:3] - target)) < 1e-10
