import numpy as np
import pytest

from museb import (
    ShapeMismatch,
    dephased_obstruction,
    hs_inner,
    is_chm,
    is_unitary,
    schmidt_number,
    singular_values,
)


def test_hs_inner_is_trace_of_adjoint_product():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        direct = np.trace(a.conj().T @ b)
        assert abs(hs_inner(a, b) - direct) < 1e-12


def test_hs_inner_conjugate_linear_in_first_argument():
    a = np.array([[1.0, 2.0], [0.0, 1j]])
    b = np.array([[0.5, 0.0], [1.0, 1.0]])
    z = 0.3 - 0.8j
    assert abs(hs_inner(z * a, b) - np.conj(z) * hs_inner(a, b)) < 1e-12
    assert abs(hs_inner(a, z * b) - z * hs_inner(a, b)) < 1e-12


def test_hs_inner_norm_squared_on_diagonal():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    val = hs_inner(a, a)
    assert abs(val.imag) < 1e-12
    assert abs(val.real - np.linalg.norm(a) ** 2) < 1e-12


def test_hs_inner_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        hs_inner(np.eye(2), np.eye(3))


def test_non_finite_entries_rejected():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        hs_inner(bad, bad)
    with pytest.raises(ValueError):
        singular_values(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_kron_places_entries_at_expected_positions():
    a = np.array([[1, 0, 0], [0, 1, 0]], dtype=complex) / np.sqrt(2)
    b = np.array([[0, 1]], dtype=complex)
    c = np.kron(a, b)
    assert c.shape == (2, 6)
    expected = np.zeros((2, 6), dtype=complex)
    expected[0, 1] = 1 / np.sqrt(2)
    expected[1, 3] = 1 / np.sqrt(2)
    assert np.max(np.abs(c - expected)) == 0.0


def test_kron_singular_values_multiply():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        sv = singular_values(np.kron(a, b))
        products = np.sort(np.outer(singular_values(a), singular_values(b)).ravel())[::-1]
        assert np.max(np.abs(sv - products)) < 1e-10


def test_singular_values_descending_and_rank_one():
    sv = singular_values(np.outer([1.0, 2.0], [3.0, 0.0, 4.0]))
    assert np.all(np.diff(sv) <= 1e-12)
    assert abs(sv[0] - np.sqrt(5) * 5) < 1e-12
    assert np.all(sv[1:] < 1e-12)


def test_is_unitary():
    assert is_unitary(np.eye(4))
    fourier = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    assert is_unitary(fourier)
    assert not is_unitary(np.eye(3) * 1.001)
    with pytest.raises(ShapeMismatch):
        is_unitary(np.ones((2, 3)))


@pytest.mark.parametrize("call, shape", [
    (is_unitary, (0, 0)),
    (is_chm, (0, 0)),
    (dephased_obstruction, (0, 0)),
    (lambda a: hs_inner(a, a), (0, 3)),
    (singular_values, (0, 3)),
    (schmidt_number, (0, 3)),
], ids=["is_unitary", "is_chm", "dephased_obstruction", "hs_inner", "singular_values",
        "schmidt_number"])
def test_zero_size_matrices_raise_shape_mismatch(call, shape):
    # as_matrix is the one matrix rule: a matrix without entries never reaches a reduction
    with pytest.raises(ShapeMismatch, match="expected a 2-D matrix"):
        call(np.zeros(shape, dtype=complex))
