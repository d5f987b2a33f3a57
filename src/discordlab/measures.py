"""Quantum-correlation measures for two-qubit states.

`measure_batch` is the one measure pipeline.  For a stack of states it
reads each state's diagonal, coherences and off-pattern entries once, and
decides both routes from them.  It takes D2 and the negativity of every
X-pattern state (off-pattern entries exactly zero, coherences of any
phase) in closed form, and those of the other states from one Bloch
decomposition and one batched eigensolve each; D1 comes from the X-state
kernel on the states that pass `states.to_x_state`'s test and from one
`d1_exact` call on the rest.
`d2_closed` and `negativity` stay the general eigensolver forms, and
`d1_exact` is the one-state case of its D1 route.

Both geometric discords minimize over projective measurements on
subsystem A only.  The Hilbert-Schmidt version

    D2 = (1/2) (|x|^2 + ||T||_2^2 - k_max)

uses the largest eigenvalue k_max of K = x x^T + T T^T.  On the
non-negative X class both have closed forms in terms of

    a1 = 2 (r23 + r14),  a2 = 2 (r23 - r14),  a3 = 1 - 2 (r22 + r33),
    x  = 2 (r11 + r22) - 1.

There K = diag(a1^2, a2^2, a3^2 + x^2), so D2 is half the smallest
pairwise sum of those three (`d2_x_kernel`; Dakic, Vedral & Brukner,
PRL 105, 190502).  Local z-rotations, which give the coherences phases,
change neither D2 nor the negativity, so both take the coherences'
moduli.  The partial transpose of an X state splits into the blocks
[[r11, |r23|], [|r23|, r44]] and [[r22, |r14|], [|r14|, r33]]; each has
eigenvalues l+ = m + hypot(d, c) and l- = det / l+ (with m, d the mean
and half difference of its diagonal and c its coherence), and for unit
trace the negativity is -2 times the sum of the negative ones.  D1, with
a = max(a3^2, a2^2 + x^2) and b = min(a3^2, a1^2), is the weighted mean
(Ciccarello, Tufarelli & Giovannetti 2014)

    D1^2 = (a1^2 A + b B) / (A + B),  A = a - b >= 0,  B = 16 r14 r23 >= 0,

where B = a1^2 - a2^2 is formed from the coherences, so nothing
cancels.  Both weights vanish on the degenerate set x = 0,
|a1| = |a2| = |a3|, where the limit D1 = |a1| (the middle |c_i| of
Paula, de Oliveira & Sarandy 2013) applies; every X state thus takes the
closed form.

Any other state takes `d1_exact`, exact for every two-qubit state.
With S = x x^T - T T^T, an axis n and an orthonormal frame (e1, e2) of
the plane normal to it,

    ||rho - Pi_n(rho)||_1^2 = F(n)
        = (1/2) (tr K - n.K.n + hypot(e1.S.e1 - e2.S.e2, 2 e1.S.e2)),

with no eigensolver.  The code forms tr K - n.K.n as e1.K.e1 + e2.K.e2
from x.e and T^T e, so a value near zero keeps its digits, and the hypot
keeps those that the equivalent (sqrt(c + r) + sqrt(c - r))/2 loses next
to a zero of the spread.

The spread vanishes exactly on the normals of the circular sections of
S: with eigenvalues s1 >= s2 >= s3 and eigenvectors v1, v3,
n+- ~ sqrt(s1 - s2) v1 +- sqrt(s2 - s3) v3.  These kinks are the cone
points of F.  Elsewhere F is smooth and is the maximum over the frame
angle of the saddle function

    L(u, v) = (u.x)^2 + v.Q.v,  Q = T T^T,

over right-handed orthonormal frames (u, v, n).  At a smooth minimum
the gradient of L along rotations of the frame about u, v and n,
2 (v.Q.n, -(u.x)(n.x), (u.x)(v.x) - u.Q.v), vanishes.  Where it does
through n.x = 0, the curvature of F for turning n about v is
-2 (u.x)^2, which a minimum does not allow unless u.x = 0 too.  So
u.x = 0 and u.Q.v = v.Q.n = 0: v is an eigenvector of Q, F equals its
eigenvalue, and n ~ x - (x.v) v.  The eigenvalue is at least
lambda_2(Q), since F(n) >= max_{w normal to n} w.Q.w >= lambda_2(Q).
Where that projection vanishes or Q repeats an eigenvalue, the smallest
such value is still reached on the axes named: with x along the top
eigenvector, by the projection off the middle one; with x along the
middle eigenvector, a repeated top eigenvalue or x = 0, by the kinks,
which then reach lambda_2(Q); a repeated bottom eigenvalue adds a
minimum only when x is zero or along the top eigenvector.  So F is
smallest on one of five closed-form axes, the two kinks and the three
projections of x off the eigenvectors of Q, and d1_exact evaluates F on
all five for a whole stack at once (+inf on a projection that vanishes).
Every value it compares is a true value of F, so the result never
undercuts the minimum.  For x = 0, D1 is the middle singular value of T.

Both oracles scan a Fibonacci lattice of 2000 measurement axes and refine
the best grid point with at most 200 Nelder-Mead iterations, which keeps
them independent of every closed form here.  The d1 objective can have a
second basin, so d1_oracle also refines from the best axis outside a 20
degree cap around the first start and its antipode, and keeps the lower
value.  scipy, which supplies the simplex, is imported on the first
refinement only.
"""

from __future__ import annotations

import numpy as np

from . import linalg, states
from .linalg import I2, PAULIS

__all__ = [
    "measure_batch",
    "d2_closed",
    "is_degenerate_x",
    "d2_x_kernel",
    "d1_x_kernel",
    "d1_closed_x",
    "d1_x_with_method",
    "d1_exact",
    "negativity",
    "d2_oracle",
    "d1_oracle",
]

_SIGMA_A = linalg.kron(np.stack(PAULIS), I2)  # sigma_k x I, (3, 4, 4)
_TINY = np.finfo(float).tiny
_CAP_COS = np.cos(np.radians(20.0))  # the d1 oracle's second start lies outside this cap
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # i + 1 and i + 2 (mod 3), for n x e
# flat row-major indices of r14, r23 and the eight entries off the X pattern,
# the ten entries that decide both routes of measure_batch
_READ = np.concatenate([[3, 6], np.flatnonzero(~states._X_PATTERN)])


def _d2(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt discord from Bloch vectors x (..., 3) and correlation
    matrices t (..., 3, 3), with one eigensolve over all K = x x^T + T T^T."""
    xr, xc = x[..., None, :], x[..., :, None]
    k = xc * xr + t @ np.swapaxes(t, -1, -2)
    # real symmetric by construction: no Hermiticity check or complex cast
    kmax = np.linalg.eigvalsh(k)[..., -1]
    # x.x as a matmul, which rounds like the dot product of one vector
    xx = (xr @ xc)[..., 0, 0]
    return np.maximum(0.0, 0.5 * (xx + np.sum(t * t, axis=(-2, -1)) - kmax))


def _negativity(rhos: np.ndarray) -> np.ndarray:
    """||rho^{T_A}||_1 - 1, clamped at 0, with one eigensolve over the stack."""
    pt = linalg.partial_transpose(rhos, "A")
    return np.maximum(0.0, np.sum(np.abs(linalg.hermitian_eigenvalues(pt)), axis=-1) - 1.0)


def _x_negativity(diag: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Negativity of X-pattern states from their populations diag (4, n)
    and the moduli mod (2, n) of their coherences r14, r23 (module
    docstring)."""
    # the two blocks side by side: [[r11, |r23|], [|r23|, r44]], [[r22, |r14|], [|r14|, r33]]
    p, q, c = diag[:2], diag[:1:-1], mod[::-1]
    top = 0.5 * (p + q) + np.hypot(0.5 * (p - q), c)
    # l- as det / l+ keeps its digits; l+ = 0 only where det = 0 too
    low = np.minimum((p * q - c * c) / np.where(top == 0.0, 1.0, top), 0.0)
    # 0 - (+0 or a negative sum) never reads -0
    return 2.0 * (0.0 - (low[0] + low[1]))


def measure_batch(rhos):
    """d1, d2, negativity and the d1 route of every state in a stack (n, 4, 4).

    One 4x4 state counts as n = 1.  Each row's diagonal, coherences and
    off-pattern entries are read once, and both routes are decided from
    them.  D2 and the negativity come in closed form, from the coherences'
    moduli, on the rows whose off-pattern entries are exactly zero.  The
    route reads "closed-x", and D1 comes from `d1_x_kernel` on the
    coherences' real parts clamped at 0, where the row passes the X test
    of `states.x_fields`: off-pattern entries and the coherences'
    imaginary parts at most `states.TOL` in modulus, and their real parts
    at least -TOL.  Every other row reads "exact", and its D1 comes from
    one `d1_exact` call over all those rows.  The rows left over get one
    Bloch decomposition, which also feeds `d1_exact`, and one batched
    eigensolve each for D2 and the negativity.  Returns arrays d1, d2, neg
    and route, of length n.
    """
    a = np.asarray(rhos, dtype=complex).reshape(-1, 4, 4)
    flat = a.reshape(-1, 16)
    diag = flat[:, ::5].real.T  # r11, r22, r33, r44
    read = flat[:, _READ]  # r14, r23 and the eight off-pattern entries
    size = np.abs(read)
    on = ~size[:, 2:].any(axis=1)  # exact zeros off the X pattern
    # the tolerant test of states.x_fields: strays, the coherences' imaginary
    # parts and their negative real parts at most TOL in size (fmax drops a
    # nan, as the comparison of a nan with TOL reads false)
    coh, mod = read[:, :2].T, size[:, :2].T  # r14, r23
    is_x = ~((size[:, 2:] > states.TOL).any(axis=1)
             | (np.fmax(np.abs(coh.imag), -coh.real) > states.TOL).any(axis=0))
    d1, d2, neg = np.empty((3, len(a)))
    if (is_x | on).any():
        # the closed forms on every row, cheaper than picking rows out; the
        # rows off their route are overwritten below.  D1 takes the clamped
        # real parts of the coherences and D2 their moduli, in one pass over
        # the kernel arguments: a1, a2 and B are (2, n), a3 and x (n,)
        a1, a2, a3, x, b = _x_kernel_args(*diag[:3], *np.stack([np.maximum(coh.real, 0.0), mod], 1))
        d1[:] = d1_x_kernel(a1[0], a2[0], a3, x, b[0])
        d2[:], neg[:] = d2_x_kernel(a1[1], a2[1], a3, x), _x_negativity(diag, mod)
    rest = ~(is_x & on)  # the rows that need the Bloch form
    if rest.any():
        bd = states.bloch(a[rest])
        x, t, off, exact = bd.x_vec, bd.corr, ~on[rest], ~is_x[rest]
        if off.any():
            d2[~on] = _d2(x[off], t[off])
            neg[~on] = _negativity(a[~on])
        if exact.any():
            d1[~is_x] = _d1_exact(x[exact], t[exact])
    return d1, d2, neg, np.where(is_x, "closed-x", "exact")


def d2_closed(rho) -> float:
    """Hilbert-Schmidt discord from the Bloch decomposition."""
    bd = states.bloch(rho)
    return float(_d2(bd.x_vec, bd.corr))


def is_degenerate_x(xs: states.XState) -> bool:
    """True on the degenerate set of the X closed form for D1.

    The set is x = 0 with three coefficients of equal, nonzero magnitude;
    both weights of the closed form vanish there and D1 takes its limit
    |a1|.  This is a predicate only: every X state takes the closed form.
    """
    a1, a2, a3, x, _ = _x_kernel_args(xs.r11, xs.r22, xs.r33, xs.r14, xs.r23)
    mags = (abs(a1), abs(a2), abs(a3))
    return (
        abs(x) <= states.TOL
        and mags[0] > states.TOL
        and abs(mags[0] - mags[1]) <= states.TOL
        and abs(mags[1] - mags[2]) <= states.TOL
    )


def d2_x_kernel(a1, a2, a3, x):
    """Hilbert-Schmidt discord of X states from their coefficients, elementwise.

    Half the smallest pairwise sum of K's diagonal (a1^2, a2^2, a3^2 + x^2),
    formed without a difference, so a value near zero keeps its digits.
    """
    # in-place sums, as in d1_x_kernel, so that a long scan allocates little
    p, q = np.square(a1), np.square(a2)
    r = np.square(a3)
    r += np.square(x)
    r += np.minimum(p, q)  # a3^2 + x^2 + min(a1^2, a2^2)
    p += q  # a1^2 + a2^2
    return 0.5 * np.minimum(p, r)


def d1_x_kernel(a1, a2, a3, x, B):
    """Trace-norm discord of X states from their coefficients, elementwise.

    Takes floats or equal-shape arrays of a1, a2, a3, x and
    B = 16 r14 r23 = a1^2 - a2^2 >= 0, and returns
    sqrt((a1^2 A + b B) / (A + B)) with A = a - b, or |a1| where A + B = 0.
    """
    # reuse names so that a long scan holds at most five buffers, and stay
    # off out= arguments, which would force scalar input through 0-d arrays
    d1sq = np.square(a1)
    b = np.square(a3)
    wt = np.square(a2)
    wt += np.square(x)
    wt = np.maximum(wt, b)  # a
    b = np.minimum(b, d1sq)  # b
    wt -= b  # A = a - b
    d1sq *= wt
    d1sq += b * B  # a1^2 A + b B
    wt += B  # A + B
    d1sq /= np.maximum(wt, _TINY)
    # a mean of a1^2 and b <= a1^2 never falls below b; where A + B = 0 the
    # quotient reads 0, and this floor returns b, which equals a1^2 there
    return np.sqrt(np.maximum(d1sq, b))


def _x_kernel_args(r11, r22, r33, r14, r23):
    """(a1, a2, a3, x, B) of X states from their fields, elementwise."""
    a1 = 2.0 * (r23 + r14)
    a2 = 2.0 * (r23 - r14)
    a3 = 1.0 - 2.0 * (r22 + r33)
    x = 2.0 * (r11 + r22) - 1.0
    # XState admits coherences down to -states.TOL; the kernel needs B >= 0
    return a1, a2, a3, x, np.maximum(16.0 * r14 * r23, 0.0)


def d1_x_with_method(xs: states.XState) -> tuple[float, str]:
    """Trace-norm discord of an X state with the evaluation route used.

    The closed form holds on the whole X class, so the route is always
    "closed-x".
    """
    args = _x_kernel_args(xs.r11, xs.r22, xs.r33, xs.r14, xs.r23)
    return float(d1_x_kernel(*args)), "closed-x"


def d1_closed_x(xs: states.XState) -> float:
    """Trace-norm discord of an X state in closed form."""
    return d1_x_with_method(xs)[0]


def negativity(rho) -> float:
    """Entanglement negativity ||rho^{T_A}||_1 - 1, clamped at 0."""
    return float(_negativity(np.asarray(rho, dtype=complex)))


# ---------------------------------------------------------------------------
# brute-force oracles over the measurement manifold


def _fibonacci_axes(n: int) -> np.ndarray:
    """n near-uniform unit vectors on the sphere (deterministic lattice)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _measured_batch(rho: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """sum_pm (P_pm x I) rho (P_pm x I) = (rho + N rho N) / 2, N = n.sigma x I,
    for every axis n in one shot; axes (k,3) -> (k,4,4)."""
    n = np.einsum("ka,aij->kij", axes, _SIGMA_A)
    return 0.5 * (rho + n @ rho @ n)


def _d2_objective(rho: np.ndarray, axes: np.ndarray) -> np.ndarray:
    delta = rho[None, :, :] - _measured_batch(rho, axes)
    return 2.0 * np.sum(delta.real**2 + delta.imag**2, axis=(1, 2))


def _d1_objective(rho: np.ndarray, axes: np.ndarray) -> np.ndarray:
    delta = rho[None, :, :] - _measured_batch(rho, axes)
    # one batched eigvalsh over the whole grid keeps dense grids fast
    return np.sum(np.abs(np.linalg.eigvalsh(delta)), axis=1)


def minimize(fun, x0, **kw):
    """scipy.optimize.minimize, imported on the first call."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kw)


def _axis_from_angles(tp: np.ndarray) -> np.ndarray:
    th, ph = tp
    st = np.sin(th)
    return np.array([st * np.cos(ph), st * np.sin(ph), np.cos(th)])


def _sphere_minimize(objective, rho, second_start=False):
    rho = np.asarray(rho, dtype=complex)
    axes = _fibonacci_axes(2000)
    vals = objective(rho, axes)
    vmin = float(vals.min())
    cand = axes[vals <= vmin + 1e-14]
    # deterministic tie-break: lexicographically smallest candidate axis
    order = np.lexsort((cand[:, 2], cand[:, 1], cand[:, 0]))
    best_axis = cand[order[0]]
    starts = [best_axis]
    if second_start:
        # the objective is even in n, so the runner-up axis mostly sits by the
        # first start's antipode: take the best one outside a cap around both
        outside = np.abs(axes @ best_axis) < _CAP_COS
        starts.append(axes[outside][np.argmin(vals[outside])])

    def fun(tp):
        return float(objective(rho, _axis_from_angles(tp)[None, :])[0])

    for start in starts:
        t0 = np.array([np.arccos(np.clip(start[2], -1.0, 1.0)), np.arctan2(start[1], start[0])])
        res = minimize(fun, t0, method="Nelder-Mead",
                       options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-14})
        if res.fun < vmin:
            vmin = float(res.fun)
            best_axis = _axis_from_angles(res.x)
    best_axis = best_axis / np.sqrt(best_axis @ best_axis)
    return max(vmin, 0.0), best_axis


def d2_oracle(rho):
    """Brute-force Hilbert-Schmidt discord: (value, minimizing axis)."""
    return _sphere_minimize(_d2_objective, rho)


def d1_oracle(rho):
    """Brute-force trace-norm discord: (value, minimizing axis)."""
    return _sphere_minimize(_d1_objective, rho, second_start=True)


# ---------------------------------------------------------------------------
# exact trace-norm discord of any state


def _objective_sq(x: np.ndarray, t: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """||rho - Pi_n(rho)||_1^2 for Bloch vectors x (..., 3), correlation
    matrices t (..., 3, 3) and each row n of axes (..., k, 3), +inf on a zero
    row; built from x.e and T^T e over a frame (e1, e2) normal to n, with no
    tr K - n.K.n difference, so a value near zero keeps its digits."""
    norm = np.sqrt(np.sum(axes * axes, axis=-1, keepdims=True))
    n = axes / np.where(norm > 0.0, norm, 1.0)
    h = np.where(np.abs(n[..., :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    e1 = h - np.sum(h * n, axis=-1, keepdims=True) * n
    e1 /= np.sqrt(np.sum(e1 * e1, axis=-1, keepdims=True))
    # n x e1, spelled out: np.cross would cost a third of a one-state call
    e2 = n.take(_NEXT, -1) * e1.take(_PREV, -1) - n.take(_PREV, -1) * e1.take(_NEXT, -1)
    xc = x[..., :, None]
    x1, x2, t1, t2 = (e1 @ xc)[..., 0], (e2 @ xc)[..., 0], e1 @ t, e2 @ t
    q11, q22, q12 = np.sum(t1 * t1, axis=-1), np.sum(t2 * t2, axis=-1), np.sum(t1 * t2, axis=-1)
    spread = np.hypot(x1 * x1 - x2 * x2 - q11 + q22, 2.0 * (x1 * x2 - q12))
    return np.where(norm[..., 0] > 0.0, 0.5 * (x1 * x1 + x2 * x2 + q11 + q22 + spread), np.inf)


def _kink_axes(s: np.ndarray) -> np.ndarray:
    """The two axes (..., 2, 3) where the spread vanishes, the normals of the
    circular sections of each s (..., 3, 3); where s is a multiple of I,
    every axis is one, and both rows are its top eigenvector."""
    sv, vec = np.linalg.eigh(s)
    w = np.sqrt(np.maximum(np.diff(sv, axis=-1), 0.0))
    w3, w1 = w[..., :1], w[..., 1:]
    w1 = w1 + (w1 + w3 == 0.0)  # 1 where s is isotropic: both rows are v1
    v1, v3 = w1 * vec[..., 2], w3 * vec[..., 0]
    return np.stack([v1 + v3, v1 - v3], axis=-2) / np.hypot(w1, w3)[..., None]


def d1_exact(rho) -> float:
    """Trace-norm discord of any two-qubit state (module docstring)."""
    bd = states.bloch(rho)
    return float(_d1_exact(bd.x_vec, bd.corr))


def _d1_exact(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d1_exact from Bloch vectors x (..., 3) and correlation matrices t
    (..., 3, 3): the objective's minimum over the kinks and x - (x.v) v."""
    q = t @ np.swapaxes(t, -1, -2)
    vecs = np.swapaxes(np.linalg.eigh(q)[1], -1, -2)
    xr, xc = x[..., None, :], x[..., :, None]
    axes = np.concatenate([_kink_axes(xc * xr - q), xr - (vecs @ xc) * vecs], axis=-2)
    return np.sqrt(np.maximum(np.min(_objective_sq(x, t, axes), axis=-1), 0.0))
