"""Dense matrix kernel for two-qubit problems.

Everything in this package works on plain numpy arrays of complex128 in
the product basis

    |e>_A |e>_B,  |e>_A |g>_B,  |g>_A |e>_B,  |g>_A |g>_B

with the excited state first, so sigma_z |e> = +|e> and
kron(PAULI_Z, I2) = diag(1, 1, -1, -1).  Supported sizes are 2x2, 3x3
and 4x4; anything else is rejected.

Hermitian eigenvalues come from LAPACK through `np.linalg.eigvalsh`,
after a Hermiticity check and one symmetrization of the input.  It and
`partial_transpose` also take a stack (..., k, k) of matrices, and
`kron` stacks (..., 2, 2) of factors, so a batched caller makes one call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SizeMismatch",
    "NonHermitianInput",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PAULIS",
    "I2",
    "I4",
    "SIGMA_MINUS",
    "dagger",
    "hermitian_eigenvalues",
    "trace_norm",
    "kron",
    "partial_transpose",
]


class SizeMismatch(ValueError):
    """Operand shape is outside the supported 2x2/3x3/4x4 set."""


class NonHermitianInput(ValueError):
    """Hermiticity defect exceeds the accepted 1e-10."""


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

# the lowering operator |g><e| in the excited-first basis
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix in a stack)."""
    return np.swapaxes(m.conj(), -1, -2)


def _as_square(m, sizes=(2, 3, 4), stack: bool = False) -> np.ndarray:
    """m as complex; a square matrix, or with `stack` a stack (..., k, k)."""
    a = np.asarray(m, dtype=complex)
    if (a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]
            or a.shape[-1] not in sizes):
        raise SizeMismatch(
            f"expected a square matrix with size in {sizes}, got shape {a.shape}"
        )
    return a


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian 2x2/3x3/4x4 matrix, or of
    each matrix in a stack (..., k, k).

    The input is checked for Hermiticity (largest modulus of m - m^dagger
    over the whole stack, at most 1e-10), symmetrized, and diagonalized by
    `np.linalg.eigvalsh`.
    """
    a = _as_square(m, stack=True)
    defect = float(np.max(np.abs(a - dagger(a)), initial=0.0))
    if defect > 1e-10:
        raise NonHermitianInput(f"hermiticity defect {defect:g} exceeds tol 1e-10")
    return np.linalg.eigvalsh(0.5 * (a + dagger(a)))


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (Schatten 1-norm)."""
    return float(np.sum(np.abs(hermitian_eigenvalues(m))))


def kron(a, b) -> np.ndarray:
    """Kronecker product of 2x2 operators, A-side as the left factor; either
    may be a stack (..., 2, 2), and two stacks pair up by broadcasting."""
    a = _as_square(a, sizes=(2,), stack=True)
    b = _as_square(b, sizes=(2,), stack=True)
    k = a[..., :, None, :, None] * b[..., None, :, None, :]  # (..., i, k, j, l)
    return k.reshape(k.shape[:-4] + (4, 4))


def partial_transpose(m, subsystem: str) -> np.ndarray:
    """Transpose one tensor factor of a 4x4 operator, or of each in a stack."""
    a = _as_square(m, sizes=(4,), stack=True)
    lead = a.shape[:-2]
    r = a.reshape(lead + (2, 2, 2, 2))
    k = len(lead)
    if subsystem == "A":
        order = (k + 2, k + 1, k, k + 3)
    elif subsystem == "B":
        order = (k, k + 3, k + 2, k + 1)
    else:
        raise ValueError("subsystem must be 'A' or 'B'")
    return r.transpose(tuple(range(k)) + order).reshape(a.shape)
