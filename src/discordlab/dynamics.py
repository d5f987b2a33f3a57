"""One-sided spontaneous emission on a two-qubit state.

Each atom decays independently, |e> -> |g> at rate gamma0, with no
Hamiltonian part.  The generator for one side is

    L rho = (gamma0/2) (2 s- rho s+ - s+ s- rho - rho s+ s-)

and the exact solution is the amplitude-damping channel with Kraus pair

    K0 = [[sqrt(1-p), 0], [0, 1]],  K1 = [[0, 0], [sqrt(p), 0]],
    p = 1 - exp(-gamma0 t),

tensored with the identity on the untouched side.  `evolve_states`
applies the Kraus form (exact for any t) at a whole vector of times in
one step, building the Kraus operators per time; `apply_channel` is its
one-time case.  `lindblad_rhs` is the generator as one 16x16 matrix on
vec(rho), the rate times a unit-rate generator built once per side at
import.  `integrate` is fixed-step RK4 on the master equation, taken as
the n-th power of the one-step propagator, and exists as an independent
cross-check of the channel, not as the production path.
"""

from __future__ import annotations

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


def _kraus(side: str, times: np.ndarray, gamma0: float) -> np.ndarray:
    """Kraus operators at each time, shape (2 or 4, n, 4, 4)."""
    p = 1.0 - np.exp(-gamma0 * times)
    k0 = np.zeros((len(times), 2, 2), dtype=complex)
    k1 = np.zeros_like(k0)
    k0[:, 0, 0] = np.sqrt(1.0 - p)
    k0[:, 1, 1] = 1.0
    k1[:, 1, 0] = np.sqrt(p)
    if side == "A":
        pairs = [(k0, I2), (k1, I2)]
    elif side == "B":
        pairs = [(I2, k0), (I2, k1)]
    else:
        pairs = [(ka, kb) for ka in (k0, k1) for kb in (k0, k1)]
    return np.stack([kron(a, b) for a, b in pairs])


def evolve_states(rho, side: str, times, gamma0: float = 1.0) -> np.ndarray:
    """Exact evolved states sum_k K(t) rho K(t)^dagger at every t in times: (n, 4, 4)."""
    t = np.asarray(times, dtype=float).reshape(-1)
    _check_channel(side, gamma0, float(np.min(t, initial=0.0)))
    ks = _kraus(side, t, gamma0)
    return np.sum(ks @ np.asarray(rho, dtype=complex) @ np.swapaxes(ks.conj(), -1, -2), axis=0)


def apply_channel(rho, ch: EmissionChannel) -> np.ndarray:
    """Exact evolved state sum_k K rho K^dagger: `evolve_states` at the one time ch.t."""
    return evolve_states(rho, ch.side, [ch.t], ch.gamma0)[0]


def _unit_dissipator(sm: np.ndarray) -> np.ndarray:
    """One decaying atom at gamma0 = 1 as a (16, 16) matrix on row-major vec,
    vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(4)
    n_op = sm.conj().T @ sm
    return 0.5 * (2.0 * np.kron(sm, sm.conj()) - np.kron(n_op, eye) - np.kron(eye, n_op.T))


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
    return (_liouvillian(side, gamma0) @ np.asarray(rho, dtype=complex).reshape(16)).reshape(4, 4)


def integrate(rho0, side: str, gamma0: float, t_final: float, dt: float = 1e-3):
    """Fixed-step RK4 integration of the master equation up to t_final.

    For the linear, time-independent generator L one RK4 step of length
    h is P(h) = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so n steps are
    P(h)^n: stepwise RK4 in exact arithmetic.  P(dt)^n is taken by
    repeated squaring and applied to vec(rho0), then P(rem) for a
    remainder step; the state is symmetrized once and validated (drift
    beyond 1e-8 raises NotPositive).  A non-finite t_final or step count
    t_final/dt, a dt not positive and finite, or a dt above 0.1/gamma0 is
    rejected first.
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
    lv = _liouvillian(side, gamma0)
    eye = np.eye(16)
    n_full = int(np.floor(steps))
    rem = t_final - n_full * dt
    vec = np.asarray(rho0, dtype=complex).reshape(16)
    for h, count in [(dt, n_full)] + ([(rem, 1)] if rem > 1e-15 else []):
        prop = eye  # Horner: P(h) = I + hL (I + hL/2 (I + hL/3 (I + hL/4)))
        for k in (4, 3, 2, 1):
            prop = eye + (h / k) * (lv @ prop)
        vec = np.linalg.matrix_power(prop, count) @ vec
    rho = vec.reshape(4, 4)
    return states.validate(0.5 * (rho + rho.conj().T), tol=1e-8)
