"""Reference quantities that the benchmark checks discordlab's outputs against.

Written apart from the package: it imports only numpy and shares no code
with `discordlab`.  Basis order is the package's excited-first product
basis |ee>, |eg>, |ge>, |gg>, and the measured qubit is A.

* `d2` and `negativity` use `np.linalg.eigvalsh` on the Bloch matrix
  K = x x^T + T T^T and on the partial transpose.
* `amplitude_damping` applies the Kraus pair K0 = diag(sqrt(1-p), 1),
  K1 = sqrt(p)|g><e| with p = 1 - exp(-gamma0 t).
* `d1_x` is the trace-norm discord of an X state as a weighted mean,
  D1^2 = (a1^2 A + b B) / (A + B) with A = a - b >= 0 and
  B = 16 |r14| |r23| >= 0, and D1 = |a1| when A + B = 0.  Both weights
  are non-negative, so nothing cancels near the degenerate set.
* `d1_min` minimises the trace norm of rho - Pi_n(rho) over measurement
  axes n: a polar grid plus the coordinate axes, then a pattern search
  on the sphere from several of the best grid axes.

Run this file to test the reference against the analytic theta-family
curves: d1 = sin(2 theta)/2, d2 = min(sin^2(theta)/2, sin^2(2 theta)/4),
negativity = (sqrt(6 - 2 cos(4 theta)) - 2)/4.
"""

from __future__ import annotations

import math

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
_SIG = (SX, SY, SZ)
# sigma_j (x) sigma_k for j, k in 0..3 with sigma_0 = I
_PROD = np.array([[np.kron(a, b) for b in (ID2,) + _SIG] for a in (ID2,) + _SIG])
# tr(rho P) = sum_ab rho_ab P_ba, as one product with the flattened state
_TRACE_WITH = _PROD.transpose(3, 2, 0, 1).reshape(16, 16)

CHUNK = 4096  # states per vectorised block, to keep the checks' memory small


def _chunks(n):
    for lo in range(0, n, CHUNK):
        yield slice(lo, min(n, lo + CHUNK))


def pauli_components(rho):
    """R[..., j, k] = tr(rho sigma_j (x) sigma_k), j, k in 0..3 (sigma_0 = I)."""
    rho = np.asarray(rho, dtype=complex)
    return (rho.reshape(rho.shape[:-2] + (16,)) @ _TRACE_WITH).real.reshape(rho.shape[:-2] + (4, 4))


def d2(rho):
    """Hilbert-Schmidt discord, (|x|^2 + ||T||^2 - k_max)/2, for states (..., 4, 4)."""
    rho = np.asarray(rho, dtype=complex)
    flat = rho.reshape(-1, 4, 4)
    out = np.empty(flat.shape[0])
    for sl in _chunks(flat.shape[0]):
        r = pauli_components(flat[sl])
        x, t = r[:, 1:, 0], r[:, 1:, 1:]
        k = x[:, :, None] * x[:, None, :] + t @ t.transpose(0, 2, 1)
        kmax = np.linalg.eigvalsh(k)[:, -1]
        out[sl] = np.maximum(0.0, 0.5 * (np.sum(x * x, 1) + np.sum(t * t, (1, 2)) - kmax))
    return out.reshape(rho.shape[:-2])


def negativity(rho):
    """||rho^{T_A}||_1 - 1, clamped at 0, for states (..., 4, 4)."""
    rho = np.asarray(rho, dtype=complex)
    pt = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).swapaxes(-4, -2).reshape(rho.shape)
    return np.maximum(0.0, np.sum(np.abs(np.linalg.eigvalsh(pt)), -1) - 1.0)


# one-qubit pieces of the Kraus pair: with s = exp(-gamma0 t / 2),
# K0 = s |e><e| + |g><g| and K1 = sqrt(1 - s^2) |g><e|, so
# K0 r K0^+ + K1 r K1^+ = (P_g r P_g + L r L^+) + s (P_e r P_g + P_g r P_e)
#                         + s^2 (P_e r P_e - L r L^+)
_P_E = np.diag([1.0, 0.0]).astype(complex)
_P_G = np.diag([0.0, 1.0]).astype(complex)
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def _lift(op, side):
    return np.kron(op, ID2) if side == "A" else np.kron(ID2, op)


def _damping_terms(rho, side):
    """Coefficients of s^0, s^1, s^2 in the Kraus sum on one side."""
    pe, pg, low = (_lift(op, side) for op in (_P_E, _P_G, _LOWER))
    jump = low @ rho @ low.conj().T
    return (pg @ rho @ pg + jump, pe @ rho @ pg + pg @ rho @ pe, pe @ rho @ pe - jump)


def kraus_pair(gt):
    """The one-qubit Kraus operators K0, K1 for one dimensionless time."""
    p = 1.0 - math.exp(-gt)
    return (np.array([[math.sqrt(1.0 - p), 0.0], [0.0, 1.0]], dtype=complex),
            np.array([[0.0, 0.0], [math.sqrt(p), 0.0]], dtype=complex))


def amplitude_damping(rho, side, gt):
    """Emission on side 'A', 'B' or 'both' for dimensionless times gt.

    Returns (n, 4, 4), one state per time: sum_k K rho K^dagger,
    evaluated as a polynomial in s = exp(-gt/2) whose 4x4 coefficients
    come from the Kraus pair (see `_damping_terms`).
    """
    gt = np.atleast_1d(np.asarray(gt, dtype=float))
    coeffs = [np.asarray(rho, dtype=complex)]
    for one in (("A", "B") if side == "both" else (side,)):
        if one not in ("A", "B"):
            raise ValueError(f"side {side!r}")
        nxt = [np.zeros((4, 4), dtype=complex) for _ in range(len(coeffs) + 2)]
        for i, c in enumerate(coeffs):
            for j, term in enumerate(_damping_terms(c, one)):
                nxt[i + j] += term
        coeffs = nxt
    s = np.exp(-0.5 * gt)
    powers = s[None, :] ** np.arange(len(coeffs))[:, None]
    return np.einsum("in,ijk->njk", powers, np.array(coeffs))


def d1_x(rho):
    """Trace-norm discord of X states (..., 4, 4) by the weighted-mean formula.

    Coherences enter through their moduli, since a local phase on each
    qubit leaves the discord unchanged.
    """
    rho = np.asarray(rho, dtype=complex)
    r11, r22, r33 = rho[..., 0, 0].real, rho[..., 1, 1].real, rho[..., 2, 2].real
    r14, r23 = np.abs(rho[..., 0, 3]), np.abs(rho[..., 1, 2])
    a1 = 2.0 * (r23 + r14)
    a2 = 2.0 * (r23 - r14)
    a3 = 1.0 - 2.0 * (r22 + r33)
    x = 2.0 * (r11 + r22) - 1.0
    a = np.maximum(a3 * a3, a2 * a2 + x * x)
    b = np.minimum(a3 * a3, a1 * a1)
    wa = a - b
    wb = 16.0 * r14 * r23
    den = wa + wb
    safe = np.where(den > 0.0, den, 1.0)
    sq = np.where(den > 0.0, (a1 * a1 * wa + b * wb) / safe, a1 * a1)
    return np.sqrt(sq)


def x_offpattern(rho):
    """Largest modulus outside the diagonal and anti-diagonal."""
    mask = np.ones((4, 4), dtype=bool)
    mask[np.arange(4), np.arange(4)] = False
    mask[np.arange(4), 3 - np.arange(4)] = False
    return float(np.max(np.abs(np.asarray(rho)[..., mask]), initial=0.0))


def _objective(rho, axes):
    """||rho - Pi_n(rho)||_1 for each axis n in axes (m, 3)."""
    ns = np.einsum("ma,aij->mij", axes, np.stack(_SIG))
    out = np.zeros((axes.shape[0], 4, 4), dtype=complex)
    for sign in (1.0, -1.0):
        proj = 0.5 * (ID2 + sign * ns)
        big = np.einsum("mij,ab->miajb", proj, ID2).reshape(-1, 4, 4)
        out += big @ rho @ big
    return np.sum(np.abs(np.linalg.eigvalsh(rho - out)), 1)


def _polar_axes(n_theta=24, n_phi=48):
    th = (np.arange(n_theta) + 0.5) * (math.pi / n_theta)
    ph = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    th, ph = np.meshgrid(th, ph, indexing="ij")
    st = np.sin(th).ravel()
    grid = np.stack([st * np.cos(ph).ravel(), st * np.sin(ph).ravel(), np.cos(th).ravel()], 1)
    return np.concatenate([np.eye(3), grid])


_AXES = _polar_axes()


# pattern of the local search: a 5x5 patch of the tangent plane, centre left out
MAX_MOVES = 300  # per start; the search only halves its step from then on
_PATCH = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3) if (i, j) != (0, 0)],
                  dtype=float)


def d1_min(rho, starts=4, step0=0.05, step_min=1e-11):
    """Reference trace-norm discord: the best objective value the search finds.

    From each of the `starts` best grid axes, move to the best point of a
    5x5 tangent-plane patch around the current axis and double the patch
    spacing while one improves; halve the spacing when none does.
    """
    rho = np.asarray(rho, dtype=complex)
    vals = _objective(rho, _AXES)
    best = float(vals.min())
    for i in np.argsort(vals, kind="stable")[:starts]:
        n, f, step, moves = _AXES[i], float(vals[i]), step0, 0
        while step > step_min:
            helper = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
            t1 = np.cross(n, helper)
            t1 /= np.linalg.norm(t1)
            t2 = np.cross(n, t1)
            cand = n + step * (_PATCH[:, :1] * t1 + _PATCH[:, 1:] * t2)
            cand /= np.linalg.norm(cand, axis=1)[:, None]
            cv = _objective(rho, cand)
            j = int(np.argmin(cv))
            # a gain below rounding would let the search drift without end
            if cv[j] < f - 1e-13 and moves < MAX_MOVES:
                n, f = cand[j], float(cv[j])
                moves += 1
                step = min(2.0 * step, step0)
            else:
                step *= 0.5
        best = min(best, f)
    return best


# ---------------------------------------------------------------------------
# family states and the growth predicate behind the critical couplings


def theta_state(theta):
    """theta-family member: cos^2/2, 0, 1/2, sin^2/2 with r14 = sin(2 theta)/4."""
    c, s = math.cos(theta), math.sin(theta)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[2, 2], m[3, 3] = c * c / 2.0, 0.5, s * s / 2.0
    m[0, 3] = m[3, 0] = s * c / 2.0
    return m


def pair_state(family, w, s):
    """classical: (w, 1/2-w, w, 1/2-w); discordant: (w, w, 1/2-w, 1/2-w); r14 = r23 = s."""
    pops = (w, 0.5 - w, w, 0.5 - w) if family == "classical" else (w, w, 0.5 - w, 0.5 - w)
    m = np.diag(np.array(pops, dtype=complex))
    m[0, 3] = m[3, 0] = m[1, 2] = m[2, 1] = s
    return m


def s_max(w):
    return math.sqrt(w / 2.0 - w * w)


SCAN = np.arange(0.0, 10.0 + 1e-4, 1e-4)  # gamma0 t in [0, 10] at step 1e-4
GROWTH_MARGIN = 1e-9


def growth_excess(rho, side, measure):
    """max over the scan of (value(t) - value(0)) for 'd1' or 'd2'."""
    best = -math.inf
    v0 = None
    for sl in _chunks(SCAN.size):
        ev = amplitude_damping(rho, side, SCAN[sl])
        v = d1_x(ev) if measure == "d1" else d2(ev)
        if v0 is None:
            v0 = float(v[0])
            v = v[1:]
        best = max(best, float(np.max(v)) - v0)
    return best


def d1_grows(w):
    return growth_excess(pair_state("discordant", w, s_max(w)), "A", "d1") > GROWTH_MARGIN


# ---------------------------------------------------------------------------


def _require(ok, what):
    if not ok:
        raise AssertionError(f"reference self-test: {what}")


def self_test():
    """Check the reference against closed forms it does not use; raise on failure."""
    thetas = np.linspace(0.0, math.pi / 2.0, 41)
    rhos = np.array([theta_state(t) for t in thetas])
    d1_ref = 0.5 * np.sin(2.0 * thetas)
    d2_ref = np.minimum(0.5 * np.sin(thetas) ** 2, 0.25 * np.sin(2.0 * thetas) ** 2)
    neg_ref = (np.sqrt(6.0 - 2.0 * np.cos(4.0 * thetas)) - 2.0) / 4.0
    _require(np.max(np.abs(d1_x(rhos) - d1_ref)) <= 1e-14, "theta d1_x")
    _require(np.max(np.abs(d2(rhos) - d2_ref)) <= 1e-14, "theta d2")
    _require(np.max(np.abs(negativity(rhos) - neg_ref)) <= 1e-14, "theta negativity")
    for t, want in zip(thetas[::8], d1_ref[::8]):
        _require(abs(d1_min(theta_state(t)) - want) <= 1e-9, "theta d1_min")
    # minimiser against the X formula on an X state with phased coherences
    m = pair_state("discordant", 0.2, 0.15)
    m[0, 3], m[1, 2] = 0.15 * np.exp(0.7j), 0.15 * np.exp(-1.9j)
    m[3, 0], m[2, 1] = np.conj(m[0, 3]), np.conj(m[1, 2])
    _require(abs(d1_min(m) - float(d1_x(m))) <= 1e-9, "phased X d1_min")
    # Kraus map: the expansion matches the explicit Kraus sum; trace
    # preserving, semigroup, sides commute into 'both'
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    for side, gt in (("A", 0.3), ("B", 2.0)):
        explicit = sum(_lift(k, side) @ rho @ _lift(k, side).conj().T for k in kraus_pair(gt))
        _require(np.max(np.abs(amplitude_damping(rho, side, [gt])[0] - explicit)) <= 1e-15, side)
    for side in ("A", "B", "both"):
        one = amplitude_damping(rho, side, [1.0])[0]
        two = amplitude_damping(amplitude_damping(rho, side, [0.4])[0], side, [0.6])[0]
        _require(abs(np.trace(one) - 1.0) <= 1e-14 and np.max(np.abs(one - two)) <= 1e-14, side)
    ab = amplitude_damping(amplitude_damping(rho, "A", [0.5])[0], "B", [0.5])[0]
    _require(np.max(np.abs(ab - amplitude_damping(rho, "both", [0.5])[0])) <= 1e-15, "both")
    # discordant (0.4, 0.2) under side-A emission: d1 vanishes at gamma0 t = ln(1.6)
    zero = amplitude_damping(pair_state("discordant", 0.4, 0.2), "A", [math.log(1.6)])
    _require(float(d1_x(zero)[0]) <= 1e-15, "d1 zero at ln 1.6")
    # the Hilbert-Schmidt threshold (2 - sqrt 2)/8 separates growth from none
    wc = (2.0 - math.sqrt(2.0)) / 8.0
    for w, grows in ((wc - 0.005, False), (wc + 0.005, True)):
        rho = pair_state("discordant", w, s_max(w))
        _require((growth_excess(rho, "A", "d2") > GROWTH_MARGIN) == grows, f"d2 growth at w={w}")


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
