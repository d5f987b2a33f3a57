"""Named X-state families and their discord evolution in closed form.

Three one/two-parameter families:

theta       pure-ish interpolation with matrix
            [[cos^2(t)/2, 0, 0, sin(2t)/4],
             [0, 0, 0, 0],
             [0, 0, 1/2, 0],
             [sin(2t)/4, 0, 0, sin^2(t)/2]]   (t = theta in [0, pi/2])

classical   zero-discord mixture: populations (w, 1/2-w, w, 1/2-w),
            coherences r14 = r23 = s

discordant  populations (w, w, 1/2-w, 1/2-w), coherences r14 = r23 = s

with 0 < w < 1/2 and 0 < s <= s_max(w) = sqrt(w/2 - w^2) for the
two-parameter families.

Under one-sided emission the X class is preserved and the coefficient
functions evolve as

    a1(t) = 2 (r14 + r23) e^{-g t/2}
    a2(t) = 2 (r23 - r14) e^{-g t/2}
    side A:  a3(t) = 2 (r11 - r22) e^{-g t} - 2 (r11 + r33) + 1
             x(t)  = 2 (r11 + r22) e^{-g t} - 1
    side B:  a3(t) = 2 (r11 - r33) e^{-g t} - 2 (r11 + r22) + 1
             x(t)  = 2 (r11 + r22) - 1            (constant)

(g = gamma0).  They feed the X-state kernels of `measures`: D2 from
`d2_x_kernel`, and D1, with B = 16 r14 r23 e^{-g t}, from `d1_x_kernel`.

"Increases" for the regime report is operationalized as: the curve
exceeds its t = 0 value by more than 1e-9 somewhere on
gamma0 t in (0, 10], scanned in steps of 1e-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures, states

__all__ = [
    "ParamOutOfRange",
    "NoSignChange",
    "W_CRITICAL_D2",
    "FamilyParams",
    "TimeSeries",
    "RegimeReport",
    "s_max",
    "make_state",
    "theta_states",
    "d1_timeseries_A",
    "d2_timeseries_A",
    "d1_timeseries_B",
    "d2_timeseries_B",
    "regime",
    "find_critical_w",
]


class ParamOutOfRange(ValueError):
    """Family parameter outside its admissible interval."""


class NoSignChange(RuntimeError):
    """Bisection bracket does not straddle the predicate change."""


# lower root of 32 w^2 - 16 w + 1 = 0: the coupling above which the
# Hilbert-Schmidt discord of (w, s_max(w)) grows under side-A emission
W_CRITICAL_D2 = (2.0 - math.sqrt(2.0)) / 8.0

_SCAN_STEP = 1e-4
_SCAN_HORIZON = 10.0
_GROWTH_MARGIN = 1e-9


def s_max(w: float) -> float:
    """Largest admissible coherence for the two-parameter families."""
    if not 0.0 < w < 0.5:
        raise ParamOutOfRange(f"w must lie in (0, 1/2), got {w!r}")
    return math.sqrt(w / 2.0 - w * w)


@dataclass(frozen=True)
class FamilyParams:
    """Which family, and where in its parameter space."""

    family: str
    theta: float | None = None
    w: float | None = None
    s: float | None = None

    def __post_init__(self):
        if self.family == "theta":
            if self.theta is None or self.w is not None or self.s is not None:
                raise ParamOutOfRange("theta family takes exactly the theta parameter")
            if not 0.0 <= self.theta <= math.pi / 2.0 + 1e-12:
                raise ParamOutOfRange(f"theta must lie in [0, pi/2], got {self.theta!r}")
        elif self.family in ("classical", "discordant"):
            if self.w is None or self.s is None or self.theta is not None:
                raise ParamOutOfRange(f"{self.family} family takes exactly w and s")
            if not 0.0 < self.w < 0.5:
                raise ParamOutOfRange(f"w must lie in (0, 1/2), got {self.w!r}")
            cap = s_max(self.w)
            if not 0.0 < self.s <= cap + 1e-12:
                raise ParamOutOfRange(
                    f"s must lie in (0, s_max(w)] = (0, {cap!r}], got {self.s!r}"
                )
        else:
            raise ParamOutOfRange(f"unknown family {self.family!r}")


@dataclass(frozen=True)
class TimeSeries:
    """A sampled curve: times holds gamma0*t, values the measure at each point."""

    times: np.ndarray
    values: np.ndarray
    measure: str
    side: str
    family: str


@dataclass(frozen=True)
class RegimeReport:
    """Scan-confirmed growth flags for a two-parameter family member.

    t_zero is the interior zero of the side-A trace-norm curve, present
    only for the discordant family with w > 1/4 (units 1/gamma0).
    """

    w: float
    s: float
    d2_increases_under_A: bool
    d1_increases_under_A: bool
    d2_increases_under_B: bool
    t_zero: float | None


def _theta_elements(th: float) -> tuple[float, float, float, float, float, float]:
    """(r11, r22, r33, r44, r14, r23) of the theta family member at th."""
    return (math.cos(th) ** 2 / 2.0, 0.0, 0.5,
            math.sin(th) ** 2 / 2.0, math.sin(2.0 * th) / 4.0, 0.0)


def _x_elements(p: FamilyParams) -> tuple[float, float, float, float, float, float]:
    """(r11, r22, r33, r44, r14, r23) of the initial state."""
    if p.family == "theta":
        return _theta_elements(p.theta)
    if p.family == "classical":
        return (p.w, 0.5 - p.w, p.w, 0.5 - p.w, p.s, p.s)
    return (p.w, p.w, 0.5 - p.w, 0.5 - p.w, p.s, p.s)


def make_state(p: FamilyParams) -> np.ndarray:
    """Materialize the initial family member as a density matrix."""
    r11, r22, r33, r44, r14, r23 = _x_elements(p)
    return states.from_x_state(states.XState(r11, r22, r33, r44, r14, r23))


def theta_states(thetas) -> np.ndarray:
    """The theta family members at every theta in thetas, one stack (n, 4, 4)."""
    th = np.asarray(thetas, dtype=float).reshape(-1)
    if np.any(th < 0.0) or np.any(th > math.pi / 2.0 + 1e-12):
        raise ParamOutOfRange(f"theta must lie in [0, pi/2], got {th.min()!r}..{th.max()!r}")
    return states.from_x_fields(np.reshape([_theta_elements(t) for t in th.tolist()], (-1, 6)))


def _coefficients(el, side: str, gt: np.ndarray):
    """Vectorized X-kernel arguments (a1, a2, a3, x, B) over dimensionless times gt."""
    r11, r22, r33, r44, r14, r23 = el
    u = np.exp(-gt)
    su = np.exp(-0.5 * gt)
    a1 = 2.0 * (r14 + r23) * su
    a2 = 2.0 * (r23 - r14) * su
    if side == "A":
        a3 = 2.0 * (r11 - r22) * u - 2.0 * (r11 + r33) + 1.0
        x = 2.0 * (r11 + r22) * u - 1.0
    else:
        a3 = 2.0 * (r11 - r33) * u - 2.0 * (r11 + r22) + 1.0
        x = np.full_like(u, 2.0 * (r11 + r22) - 1.0)
    # B from the coherences: forming it as a1^2 - a2^2 would cancel
    return a1, a2, a3, x, 16.0 * r14 * r23 * u


def _d1_values(el, side: str, gt: np.ndarray) -> np.ndarray:
    return measures.d1_x_kernel(*_coefficients(el, side, gt))


def _d2_values(el, side: str, gt: np.ndarray) -> np.ndarray:
    return measures.d2_x_kernel(*_coefficients(el, side, gt)[:4])


def _series(p, times, gamma0, side, measure, values_fn) -> TimeSeries:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(t < 0.0):
        raise ValueError("times must be non-negative")
    if gamma0 <= 0.0:
        raise ValueError(f"gamma0 must be positive, got {gamma0!r}")
    gt = gamma0 * t
    vals = values_fn(_x_elements(p), side, gt)
    return TimeSeries(times=gt, values=vals, measure=measure, side=side, family=p.family)


def d1_timeseries_A(p: FamilyParams, times, gamma0: float = 1.0) -> TimeSeries:
    """Trace-norm discord along side-A emission, evaluated in closed form."""
    return _series(p, times, gamma0, "A", "d1", _d1_values)


def d2_timeseries_A(p: FamilyParams, times, gamma0: float = 1.0) -> TimeSeries:
    """Hilbert-Schmidt discord along side-A emission."""
    return _series(p, times, gamma0, "A", "d2", _d2_values)


def d1_timeseries_B(p: FamilyParams, times, gamma0: float = 1.0) -> TimeSeries:
    """Trace-norm discord while the unmeasured side B decays."""
    return _series(p, times, gamma0, "B", "d1", _d1_values)


def d2_timeseries_B(p: FamilyParams, times, gamma0: float = 1.0) -> TimeSeries:
    """Hilbert-Schmidt discord while the unmeasured side B decays."""
    return _series(p, times, gamma0, "B", "d2", _d2_values)


def _grows(values: np.ndarray) -> bool:
    return bool(np.any(values[1:] > values[0] + _GROWTH_MARGIN))


def regime(p: FamilyParams, gamma0: float = 1.0) -> RegimeReport:
    """Growth flags for a classical or discordant family member.

    Every flag is read off a dense scan of the closed-form curve, so it
    is true exactly when the curve exceeds its initial value on
    gamma0 t in (0, 10].
    """
    if p.family not in ("classical", "discordant"):
        raise ParamOutOfRange("regime() applies to the classical and discordant families")
    el = _x_elements(p)
    gt = np.arange(0.0, _SCAN_HORIZON + _SCAN_STEP, _SCAN_STEP)
    side_a = _coefficients(el, "A", gt)
    return RegimeReport(
        w=p.w,
        s=p.s,
        d2_increases_under_A=_grows(measures.d2_x_kernel(*side_a[:4])),
        d1_increases_under_A=_grows(measures.d1_x_kernel(*side_a)),
        d2_increases_under_B=_grows(_d2_values(el, "B", gt)),
        t_zero=(
            math.log(4.0 * p.w) / gamma0
            if p.family == "discordant" and p.w > 0.25
            else None
        ),
    )


def _d1_grows_at(w: float) -> bool:
    p = FamilyParams("discordant", w=w, s=s_max(w))
    gt = np.arange(0.0, _SCAN_HORIZON + _SCAN_STEP, _SCAN_STEP)
    return _grows(_d1_values(_x_elements(p), "A", gt))


def find_critical_w(kind: str, tol: float = 1e-4) -> float:
    """Critical coupling above which (w, s_max(w)) grows under side-A emission.

    kind="d2" returns the analytic root (2 - sqrt 2)/8 after verifying
    it solves 8 s_max(w)^2 = 1/2 - 4 w + 8 w^2 within tol.  kind="d1"
    bisects the scan predicate on the bracket (w_c - 0.01, 0.25) down
    to width tol.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if kind == "d2":
        w = W_CRITICAL_D2
        lhs = 8.0 * s_max(w) ** 2
        rhs = 0.5 - 4.0 * w + 8.0 * w * w
        if abs(lhs - rhs) > tol:
            raise RuntimeError(f"analytic root check failed: |{lhs!r} - {rhs!r}| > {tol!r}")
        return w
    if kind == "d1":
        lo, hi = W_CRITICAL_D2 - 0.01, 0.25
        p_lo, p_hi = _d1_grows_at(lo), _d1_grows_at(hi)
        if p_lo == p_hi:
            raise NoSignChange(f"predicate is {p_lo} at both bracket ends ({lo}, {hi})")
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _d1_grows_at(mid) == p_hi:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)
    raise ValueError(f"kind must be 'd1' or 'd2', got {kind!r}")
