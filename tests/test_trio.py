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
    # stages miss by rounding and the skipped scan fails stage 7
    rep = theorem2_reproduce(tol)
    assert rep.passed is passed
    assert rep.checks_run == 8
    assert [o[:4] for o in rep.offenders] == offenders


def test_corrector_makes_lower_left_block_real():
    w = builtin_w() @ catalog("Q")
    s6 = np.sqrt(6.0)
    target = np.array([[-1 / s6, -1 / s6, 1 / s6], [1 / s6, 1 / s6, 1 / s6]])
    assert np.max(np.abs(w[4:6, 0:3] - target)) < 1e-10
