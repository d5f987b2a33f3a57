"""Matrix kernel: eigenvalues against a characteristic-polynomial oracle,
norms, Kronecker products and partial transpose."""

import numpy as np
import pytest

from discordlab import linalg
from discordlab.linalg import (
    I2,
    I4,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    NonHermitianInput,
    SizeMismatch,
    dagger,
    hermitian_eigenvalues,
    kron,
    partial_transpose,
    trace_norm,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + dagger(g)) / 2


def char_poly_coeffs(m):
    """Monic characteristic polynomial via the Faddeev-LeVerrier recursion."""
    n = m.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(m)
    c = 1.0
    for k in range(1, n + 1):
        mk = m @ (mk + c * np.eye(n))
        c = -np.trace(mk).real / k
        coeffs.append(c)
    return np.array(coeffs)


def bell_phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def test_eigenvalues_identity_and_pauli():
    np.testing.assert_allclose(hermitian_eigenvalues(I4), np.ones(4), atol=1e-14)
    np.testing.assert_allclose(hermitian_eigenvalues(PAULI_X), [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(hermitian_eigenvalues(PAULI_Y), [-1.0, 1.0], atol=1e-14)


def test_eigenvalues_against_char_poly_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for _ in range(25):
            m = random_hermitian(rng, n)
            eigs = hermitian_eigenvalues(m)
            assert np.all(np.diff(eigs) >= -1e-14), "eigenvalues must be ascending"
            coeffs = char_poly_coeffs(m)
            scale = max(1.0, np.max(np.abs(m))) ** n
            residual = np.abs(np.polyval(coeffs, eigs)) / scale
            assert np.max(residual) < 1e-10
            assert abs(np.sum(eigs) - np.trace(m).real) < 1e-10
            assert abs(np.sum(eigs**2) - np.sum(np.abs(m) ** 2)) < 1e-10


def test_eigenvalues_against_library_solver():
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(40):
            m = random_hermitian(rng, n)
            worst = max(worst, np.max(np.abs(
                hermitian_eigenvalues(m) - np.linalg.eigvalsh(m))))
    assert worst < 1e-12


def test_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenvalues_rejects_unsupported_size():
    with pytest.raises(SizeMismatch):
        hermitian_eigenvalues(np.eye(5))


def test_trace_norm_examples():
    assert trace_norm(np.zeros((4, 4))) == 0.0
    assert abs(trace_norm(np.diag([0.5, -0.5, 0.0, 0.0])) - 1.0) < 1e-14
    pt = partial_transpose(bell_phi_plus(), "A")
    assert abs(trace_norm(pt) - 2.0) < 1e-12


def test_norm_ordering_invariants():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = random_hermitian(rng, 4)
        tn = trace_norm(m)
        assert tn >= abs(np.trace(m).real) - 1e-12
        assert np.sum(np.abs(m) ** 2) <= tn * tn + 1e-10


def test_kron_basis_ordering():
    np.testing.assert_array_equal(kron(I2, I2), I4)
    np.testing.assert_allclose(kron(PAULI_Z, I2), np.diag([1.0, 1.0, -1.0, -1.0]),
                               atol=1e-15)


def test_kron_bilinear_and_trace():
    rng = np.random.default_rng(5)
    a, b, c = (random_hermitian(rng, 2) for _ in range(3))
    np.testing.assert_allclose(kron(a + 2 * c, b), kron(a, b) + 2 * kron(c, b),
                               atol=1e-14)
    assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12
    # stacks (n, 2, 2) on either side, or both paired row by row
    sa, sb = (np.stack([random_hermitian(rng, 2) for _ in range(5)]) for _ in range(2))
    for left, right, pairs in ((sa, b, [(m, b) for m in sa]),
                               (a, sb, [(a, m) for m in sb]),
                               (sa, sb, list(zip(sa, sb)))):
        np.testing.assert_array_equal(kron(left, right), [np.kron(x, y) for x, y in pairs])


def test_kron_rejects_larger_blocks():
    with pytest.raises(SizeMismatch):
        kron(np.eye(3), np.eye(3))
    with pytest.raises(SizeMismatch):
        kron(np.stack([I2, I2]), np.eye(4))


def test_kron_correlation_entry_on_x_state():
    # tr(rho sigma_x x sigma_x) must equal 2(r23 + r14) for an X-shaped state
    r11, r22, r33, r44, r14, r23 = 0.3, 0.25, 0.25, 0.2, 0.1, 0.15
    rho = np.diag([r11, r22, r33, r44]).astype(complex)
    rho[0, 3] = rho[3, 0] = r14
    rho[1, 2] = rho[2, 1] = r23
    t11 = np.trace(rho @ kron(PAULI_X, PAULI_X)).real
    assert abs(t11 - 2 * (r23 + r14)) < 1e-14


def test_partial_transpose_examples():
    d = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    np.testing.assert_array_equal(partial_transpose(d, "A"), d)

    rng = np.random.default_rng(13)
    m = random_hermitian(rng, 4)
    for side in ("A", "B"):
        np.testing.assert_array_equal(
            partial_transpose(partial_transpose(m, side), side), m)
        assert abs(np.trace(partial_transpose(m, side)) - np.trace(m)) < 1e-14

    eigs = hermitian_eigenvalues(partial_transpose(bell_phi_plus(), "B"))
    np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_dagger():
    m = np.array([[1.0, 2j], [0.0, 1.0 + 1j]])
    np.testing.assert_array_equal(dagger(m), m.conj().T)
