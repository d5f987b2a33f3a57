"""Two-qubit density matrices: validation, X form, Bloch form, sampling, file I/O.

A density matrix here is a validated 4x4 complex array in the
excited-first product basis (see `linalg`).  The X class collects
states whose only nonzero entries sit on the diagonal and the
anti-diagonal, with real non-negative coherences; it is closed under
the emission channels in `dynamics` and admits the closed-form
measures in `measures`.

`bloch` and `x_fields` take one state or a stack (..., 4, 4) of them:
the batched pipeline `measures.measure_batch` decomposes all its states
off the X pattern in one `bloch` call, and `to_x_state` is the
one-state case of `x_fields`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# validate calls eigvalsh directly; hermitian_eigenvalues stays importable
# here because perfbench/tracing.py hooks states.hermitian_eigenvalues
# (guarded by tests/test_perfbench_hooks.py)
from .linalg import I2, I4, PAULIS, hermitian_eigenvalues, kron

__all__ = [
    "StateError",
    "NotHermitian",
    "TraceNotOne",
    "NotPositive",
    "NotXShaped",
    "StateFileError",
    "XState",
    "BlochDecomposition",
    "validate",
    "from_x_fields",
    "from_x_state",
    "to_x_state",
    "x_fields",
    "bloch",
    "from_bloch",
    "sample_random_state",
    "read_state_file",
    "write_state_file",
]


class StateError(ValueError):
    """A matrix failed a density-matrix requirement."""


class NotHermitian(StateError):
    pass


class TraceNotOne(StateError):
    pass


class NotPositive(StateError):
    pass


class NotXShaped(StateError):
    """Entries outside the diagonal/anti-diagonal, or complex/negative coherences."""


class StateFileError(ValueError):
    """State file could not be parsed (format error, not a physics error)."""


# 4x4 operator basis used by bloch()/from_bloch(), built once: it stacks
# sigma_k x I, I x sigma_k, then sigma_j x sigma_k row by row
_PAULI_STACK = np.stack(PAULIS)  # (3, 2, 2)
_BASIS = np.concatenate([kron(_PAULI_STACK, I2), kron(I2, _PAULI_STACK),
                         kron(_PAULI_STACK[:, None], _PAULI_STACK).reshape(9, 4, 4)])

# the entries an X state may carry: the diagonal and the anti-diagonal
_X_PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


# the one slack of every density-matrix test here: validate, the X test
# and the XState invariants
TOL = 1e-10


def validate(m, tol: float = TOL) -> np.ndarray:
    """Check Hermiticity, finiteness, unit trace and positivity; return the
    symmetrized matrix.

    Raises NotHermitian / TraceNotOne / NotPositive with the offending
    magnitude in the message, and StateError if an entry of the
    symmetrized matrix is not finite.  Positivity allows eigenvalues
    down to -tol.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape != (4, 4):
        raise StateError(f"expected a 4x4 matrix, got shape {a.shape}")
    ah = a.conj().T
    defect = float(np.max(np.abs(a - ah)))
    if defect > tol:
        raise NotHermitian(f"hermiticity defect {defect:g} exceeds tol {tol:g}")
    with np.errstate(over="ignore", invalid="ignore"):  # caught just below
        a = 0.5 * (a + ah)
    if not np.all(np.isfinite(a)):
        raise StateError("matrix has entries that are not finite")
    tr = float(a.trace().real)
    if abs(tr - 1.0) > tol:
        raise TraceNotOne(f"trace {tr!r} differs from 1 by {abs(tr - 1.0):g}")
    lo = float(np.linalg.eigvalsh(a)[0])  # a is Hermitian to the bit: no second check
    if lo < -tol:
        raise NotPositive(f"smallest eigenvalue {lo:g} below -tol {-tol:g}")
    return a


@dataclass(frozen=True)
class XState:
    """Diagonal populations and real non-negative anti-diagonal coherences.

    Fields are the matrix entries r11..r44 (populations, summing to 1)
    and r14, r23 (coherences).  Positivity of the underlying matrix is
    equivalent to r14^2 <= r11*r44 and r23^2 <= r22*r33, enforced here
    with the slack TOL that `validate` and `x_fields` allow.
    """

    r11: float
    r22: float
    r33: float
    r44: float
    r14: float
    r23: float

    def __post_init__(self):
        vals = (self.r11, self.r22, self.r33, self.r44, self.r14, self.r23)
        if any(v < -TOL for v in vals):
            raise StateError(f"negative X-state field in {vals}")
        total = self.r11 + self.r22 + self.r33 + self.r44
        if abs(total - 1.0) > TOL:
            raise StateError(f"populations sum to {total!r}, not 1")
        if self.r14**2 > self.r11 * self.r44 + TOL:
            raise StateError("coherence r14 violates positivity")
        if self.r23**2 > self.r22 * self.r33 + TOL:
            raise StateError("coherence r23 violates positivity")


def from_x_fields(f) -> np.ndarray:
    """Matrices (..., 4, 4) from X fields (..., 6) = (r11, r22, r33, r44, r14, r23)."""
    f = np.asarray(f, dtype=float)
    m = np.zeros(f.shape[:-1] + (4, 4), dtype=complex)
    m[..., [0, 1, 2, 3, 0, 3, 1, 2], [0, 1, 2, 3, 3, 0, 2, 1]] = f[..., [0, 1, 2, 3, 4, 4, 5, 5]]
    return m


def from_x_state(x: XState) -> np.ndarray:
    """Materialize an XState as a 4x4 density matrix."""
    return from_x_fields((x.r11, x.r22, x.r33, x.r44, x.r14, x.r23))


def _x_test(a: np.ndarray):
    """Off-pattern entries above TOL, the (r14, r23) entries, and which of
    those have an imaginary part above TOL or a real part below -TOL."""
    stray = (np.abs(a) > TOL) & ~_X_PATTERN
    coh = a[..., [0, 1], [3, 2]]
    bad = (np.abs(coh.imag) > TOL) | (coh.real < -TOL)
    return stray, coh, bad


def x_fields(m):
    """The X test of `to_x_state` over a stack (..., 4, 4) of matrices.

    Returns (is_x, fields): is_x marks the matrices `to_x_state` accepts
    and fields (..., 6) holds (r11, r22, r33, r44, |r14|, |r23|) of every
    matrix: the coherences' moduli, as `measures.measure_batch` reads
    them.  Off-pattern entries, up to TOL in an accepted matrix, are
    dropped.  The XState invariants are not checked here.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (4, 4):
        raise StateError(f"expected 4x4 matrices, got shape {a.shape}")
    stray, coh, bad = _x_test(a)
    is_x = ~(np.any(stray, axis=(-2, -1)) | np.any(bad, axis=-1))
    diag = np.diagonal(a, axis1=-2, axis2=-1).real
    return is_x, np.concatenate([diag, np.abs(coh)], axis=-1)


def to_x_state(m) -> XState:
    """Extract XState fields, rejecting anything outside the X class.

    Off-pattern entries above TOL, coherence imaginary parts above TOL,
    or real coherences below -TOL raise NotXShaped: a phase or sign beyond
    rounding is never silently absorbed.  Within those limits each
    coherence is read by its modulus and the off-pattern entries are
    dropped.  The one-matrix case of `x_fields`.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape != (4, 4):
        raise StateError(f"expected a 4x4 matrix, got shape {a.shape}")
    is_x, fields = x_fields(a)
    if not is_x:
        stray, coh, bad = _x_test(a)
        if np.any(stray):
            where = [(int(j), int(k)) for j, k in np.argwhere(stray)]
            worst = float(np.max(np.abs(a[stray])))
            raise NotXShaped(
                f"off-pattern entries at {where} (largest modulus {worst:g}) exceed tol {TOL:g}"
            )
        k = int(np.argmax(bad))
        name, entry = ("r14", "r23")[k], coh[k]
        if abs(entry.imag) > TOL:
            raise NotXShaped(f"{name} has imaginary part {entry.imag:g}")
        raise NotXShaped(f"{name} is negative ({entry.real:g})")
    return XState(*fields.tolist())


@dataclass(frozen=True)
class BlochDecomposition:
    """Local vectors and 3x3 correlation matrix of rho.

    rho = (I + sum_k x_k sigma_k x I + sum_k y_k I x sigma_k
           + sum_jk T_jk sigma_j x sigma_k) / 4
    """

    x_vec: np.ndarray
    y_vec: np.ndarray
    corr: np.ndarray


def bloch(rho) -> BlochDecomposition:
    """Pauli expectation values of a 4x4 state, or of each state in a stack.

    One einsum against the stacked basis gives all 15 values of every
    state; for a stack (..., 4, 4) the fields gain the leading axes.
    """
    a = np.asarray(rho, dtype=complex)
    c = np.einsum("...ij,kji->...k", a, _BASIS).real
    return BlochDecomposition(
        x_vec=c[..., 0:3], y_vec=c[..., 3:6], corr=c[..., 6:].reshape(c.shape[:-1] + (3, 3))
    )


def from_bloch(x_vec, y_vec, corr) -> np.ndarray:
    """Rebuild the 4x4 matrix (I + c . _BASIS) / 4 from the Pauli components
    c = (x_vec, y_vec, corr row by row): the inverse of bloch."""
    c = np.concatenate([np.reshape(x_vec, 3), np.reshape(y_vec, 3), np.reshape(corr, 9)]).astype(float)
    return (I4 + np.tensordot(c, _BASIS, axes=1)) / 4.0


def sample_random_state(seed: int, family: str = "full-rank") -> np.ndarray:
    """Deterministic random state from one of three families.

    full-rank:     G G^dagger / tr for a complex Gaussian G
    bell-diagonal: x_vec = y_vec = 0, diagonal correlation matrix,
                   rejection-sampled for positivity
    x-shaped:      Dirichlet populations with admissible real
                   non-negative coherences
    """
    rng = np.random.default_rng(seed)
    if family == "full-rank":
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        return validate(rho / rho.trace().real)
    if family == "bell-diagonal":
        while True:
            c1, c2, c3 = rng.uniform(-1.0, 1.0, size=3)
            lams = (
                1.0 - c1 - c2 - c3,
                1.0 - c1 + c2 + c3,
                1.0 + c1 - c2 + c3,
                1.0 + c1 + c2 - c3,
            )
            if min(lams) >= 0.0:
                break
        return validate(from_bloch(np.zeros(3), np.zeros(3), np.diag([c1, c2, c3])))
    if family == "x-shaped":
        pops = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        r14 = rng.uniform() * np.sqrt(pops[0] * pops[3])
        r23 = rng.uniform() * np.sqrt(pops[1] * pops[2])
        x = XState(pops[0], pops[1], pops[2], pops[3], r14, r23)
        return validate(from_x_state(x))
    raise ValueError(f"unknown family {family!r}")


def read_state_file(path) -> np.ndarray:
    """Read a 4x4 complex matrix from 16 lines of 're,im' in row-major order.

    Blank lines and lines starting with '#' are ignored.  Any other
    deviation raises StateFileError.  The matrix is returned unvalidated;
    run validate() to enforce the density-matrix requirements.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise StateFileError(f"{path}: not UTF-8 text: {exc}") from exc
    entries = []
    # split at "\n" only, as iterating over the file does: str.splitlines
    # would also break at form feeds and other separators
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise StateFileError(f"{path}:{lineno}: expected 're,im', got {line!r}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise StateFileError(f"{path}:{lineno}: non-numeric entry {line!r}") from exc
        entries.append(complex(re, im))
    if len(entries) != 16:
        raise StateFileError(f"{path}: expected 16 entries, found {len(entries)}")
    return np.array(entries, dtype=complex).reshape(4, 4)


def write_state_file(path, m) -> None:
    """Write a 4x4 matrix in the 16-line 're,im' format with 17 significant digits."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (4, 4):
        raise StateError(f"expected a 4x4 matrix, got shape {a.shape}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# 4x4 density matrix, row-major, one 're,im' pair per line\n")
        for row in a:
            for v in row:
                fh.write(f"{v.real:.17g},{v.imag:.17g}\n")
