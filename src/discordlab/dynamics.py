"""One-sided spontaneous emission on a two-qubit state.

Each atom decays independently, |e> -> |g> at rate gamma0, with no
Hamiltonian part.  The generator for one side is

    L rho = (gamma0/2) (2 s- rho s+ - s+ s- rho - rho s+ s-)

and the exact solution is the amplitude-damping channel with Kraus pair

    K0 = [[sqrt(1-p), 0], [0, 1]],  K1 = [[0, 0], [sqrt(p), 0]],
    p = 1 - exp(-gamma0 t),

tensored with the identity on the untouched side.  `evolve_states`
applies this channel (exact for any t) at a whole vector of times in
one step, as an elementwise map on rho: the no-jump term scales rows
and columns by sqrt(1-p), and each jump moves the decaying atom's
|e><e| block, scaled by sqrt(p), onto its |g><g| block.  No Kraus
operator is built, yet the result equals the Kraus sum to the bit (up
to the sign of zeros), because the products and sums are taken in the
same order.  `apply_channel` is its one-time case.  `lindblad_rhs` is
the generator as one real 16x16 matrix on vec(rho), the rate times a
unit-rate generator built once per side at import.  `integrate` is
fixed-step RK4 on the master equation, taken as the n-th power of the
one-step propagator, and exists as an independent cross-check of the
channel, not as the production path.  That power depends only on the
side, the rate, the step and the step count, so a bounded cache keeps
it (`_propagator`) and a repeated call reuses it, with the same bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import states
from .linalg import I2, SIGMA_MINUS, kron

__all__ = [
    "InvalidTime",
    "StepTooLarge",
    "EmissionChannel",
    "apply_channel",
    "evolve_states",
    "lindblad_rhs",
    "integrate",
]


class InvalidTime(ValueError):
    """Negative or NaN evolution time, or an infinite integration horizon."""


class StepTooLarge(ValueError):
    """Integrator step exceeds the stability guard 0.1/gamma0."""


_SIDES = ("A", "B", "both")

@dataclass(frozen=True)
class EmissionChannel:
    """Spontaneous emission on side 'A', 'B' or 'both' for a time t >= 0."""

    side: str
    t: float
    gamma0: float = 1.0

    def __post_init__(self):
        _check_channel(self.side, self.gamma0, self.t)


def _check_gamma0(gamma0: float) -> None:
    if not 0.0 < gamma0 < np.inf:  # the one rate rule, shared with the CLI; NaN fails it
        raise ValueError(f"gamma0 must be positive and finite, got {gamma0!r}")


def _check_channel(side: str, gamma0: float, t_min: float) -> None:
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    _check_gamma0(gamma0)
    if not t_min >= 0.0:
        raise InvalidTime(f"evolution time must be >= 0, got {t_min!r}")


def _as_state(rho) -> np.ndarray:
    """rho as a complex 4x4 array; any other shape raises StateError."""
    a = np.asarray(rho, dtype=complex)
    if a.shape != (4, 4):
        raise states.StateError(f"expected a 4x4 matrix, got shape {a.shape}")
    return a


def _scaled(block: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(block * c_i) * c_j at every time: rows scaled first, then columns; c is (n, m)."""
    return (block * c[:, :, None]) * c[:, None, :]


def evolve_states(rho, side: str, times, gamma0: float = 1.0) -> np.ndarray:
    """Exact evolved states sum_k K(t) rho K(t)^dagger at every t in times: (n, 4, 4).

    Each Kraus operator has at most one nonzero entry in every row and
    column, so the sum is an elementwise map: the no-jump term scales
    rho by the diagonal d of its Kraus product, and each jump term moves
    a scaled block of rho onto the block where the decayed atom is in
    |g>.  The products and sums are taken in the order of the Kraus sum,
    so the result equals it (up to the sign of zero entries).
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    _check_channel(side, gamma0, float(t.min(initial=0.0)))
    rho = _as_state(rho)
    p = 1.0 - np.exp(-gamma0 * t)
    k = np.sqrt(1.0 - p)
    j = np.sqrt(p)
    # complex factors, so that no product below casts on the fly
    d = np.ones((len(t), 4), dtype=complex)  # diagonal of the no-jump Kraus product
    if side == "A":
        d[:, 0] = d[:, 1] = k
        out = _scaled(rho, d)
        out[:, 2:, 2:] += _scaled(rho[:2, :2], j.astype(complex)[:, None])
    elif side == "B":
        d[:, 0] = d[:, 2] = k
        out = _scaled(rho, d)
        out[:, 1::2, 1::2] += _scaled(rho[::2, ::2], j.astype(complex)[:, None])
    else:  # Kraus order: no jump, jump on B, jump on A, jump on both
        d[:, 0] = k * k
        d[:, 1] = d[:, 2] = k
        out = _scaled(rho, d)
        c = np.empty((len(t), 2), dtype=complex)
        c[:, 0] = k * j  # the A jump's factor j*k is the same double
        c[:, 1] = j
        out[:, 1::2, 1::2] += _scaled(rho[::2, ::2], c)
        out[:, 2:, 2:] += _scaled(rho[:2, :2], c)
        jj = j * j
        out[:, 3, 3] += (rho[0, 0] * jj) * jj
    return out


def apply_channel(rho, ch: EmissionChannel) -> np.ndarray:
    """Exact evolved state sum_k K rho K^dagger: `evolve_states` at the one time ch.t."""
    return evolve_states(rho, ch.side, [ch.t], ch.gamma0)[0]


def _unit_dissipator(sm: np.ndarray) -> np.ndarray:
    """One decaying atom at gamma0 = 1 as a real (16, 16) matrix on row-major vec,
    vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(4)
    n_op = sm.conj().T @ sm
    lv = 0.5 * (2.0 * np.kron(sm, sm.conj()) - np.kron(n_op, eye) - np.kron(eye, n_op.T))
    return lv.real  # every entry is real, so RK4's products run in float64


# L is linear in gamma0, so each side's generator is built once, at unit rate
_L_A = _unit_dissipator(kron(SIGMA_MINUS, I2))
_L_B = _unit_dissipator(kron(I2, SIGMA_MINUS))
_GENERATORS = {"A": _L_A, "B": _L_B, "both": _L_A + _L_B}


def _liouvillian(side: str, gamma0: float) -> np.ndarray:
    """The generator of `side` at rate gamma0 as a (16, 16) matrix on row-major vec."""
    return gamma0 * _GENERATORS[side]


def lindblad_rhs(rho, side: str, gamma0: float = 1.0) -> np.ndarray:
    """Right-hand side of the emission master equation (traceless)."""
    _check_channel(side, gamma0, 0.0)
    return (_liouvillian(side, gamma0) @ _as_state(rho).reshape(16)).reshape(4, 4)


# cached step-propagator powers, 2 KB each; one trajectory uses one or two
_PROPAGATORS = 32


@functools.lru_cache(maxsize=_PROPAGATORS)
def _propagator(side: str, gamma0: float, h: float, count: int) -> np.ndarray:
    """P(h)^count, the RK4 step propagator of `side` at rate gamma0 raised
    to `count` by repeated squaring: a read-only real (16, 16) matrix."""
    lv = _liouvillian(side, gamma0)
    eye = np.eye(16)
    prop = eye  # Horner: P(h) = I + hL (I + hL/2 (I + hL/3 (I + hL/4)))
    for k in (4, 3, 2, 1):
        prop = eye + (h / k) * (lv @ prop)
    power = np.linalg.matrix_power(prop, count)
    power.flags.writeable = False
    return power


def integrate(rho0, side: str, gamma0: float, t_final: float, dt: float = 1e-3):
    """Fixed-step RK4 integration of the master equation up to t_final.

    For the linear, time-independent generator L one RK4 step of length
    h is P(h) = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so n steps are
    P(h)^n: stepwise RK4 in exact arithmetic.  P(dt)^n is taken by
    repeated squaring and applied to vec(rho0), then P(rem) for a
    remainder step; the state is symmetrized once and validated (drift
    beyond 1e-8 raises NotPositive).  Both powers come from `_propagator`,
    a bounded cache keyed by side, rate, step and count, so a repeated
    call skips the squaring and gives the same bits.  A non-finite
    t_final or step count t_final/dt, a dt not positive and finite, or a
    dt above 0.1/gamma0 is rejected first, so no rejected value is a key.
    """
    if not np.isfinite(t_final):
        raise InvalidTime(f"t_final must be finite, got {t_final!r}")
    _check_channel(side, gamma0, t_final)
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if dt > 0.1 / gamma0:
        raise StepTooLarge(f"dt {dt!r} exceeds 0.1/gamma0 = {0.1 / gamma0!r}")
    steps = t_final / dt + 1e-12
    if not np.isfinite(steps):
        raise InvalidTime(f"step count t_final / dt must be finite, "
                          f"got t_final={t_final!r}, dt={dt!r}")
    n_full = int(np.floor(steps))
    rem = t_final - n_full * dt
    vec = _as_state(rho0).reshape(16)
    for h, count in [(dt, n_full)] + ([(rem, 1)] if rem > 1e-15 else []):
        vec = _propagator(side, float(gamma0), float(h), count) @ vec
    rho = vec.reshape(4, 4)
    return states.validate(0.5 * (rho + rho.conj().T), tol=1e-8)
