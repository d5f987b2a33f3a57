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

Everything here works in tau = gamma0 t, the only way time enters the
channel (p = 1 - e^{-tau}); the CLI forms tau.  Under one-sided emission
the X class is preserved and the coefficient functions evolve as

    a1(tau) = 2 (r14 + r23) e^{-tau/2}
    a2(tau) = 2 (r23 - r14) e^{-tau/2}
    side A:  a3(tau) = 2 (r11 - r22) e^{-tau} - 2 (r11 + r33) + 1
             x(tau)  = 2 (r11 + r22) e^{-tau} - 1
    side B:  a3(tau) = 2 (r11 - r33) e^{-tau} - 2 (r11 + r22) + 1
             x(tau)  = 2 (r11 + r22) - 1            (constant)

They feed the X-state kernels of `measures`: D2 from `d2_x_kernel`, and
D1, with B = 16 r14 r23 e^{-tau}, from `d1_x_kernel`.

"Increases" for the regime report is operationalized as: the curve
exceeds its tau = 0 value by more than 1e-9 somewhere on tau in (0, 10],
scanned in steps of 1e-4.

The critical couplings are the lower roots in (0, 1/4) of two threshold
polynomials, above which the measure of (w, s_max(w)) starts to grow
under side-A emission (onset at tau -> 0+).  With u = e^{-tau} that state
has a2 = a3 = 0, x = 4 w u - 1 and a1^2 = B = (8 w - 16 w^2) u, so
D2 grows once 32 w^2 - 16 w + 1 < 0, and D1^2 = 1/G(u) with

    G(u) = 1 / ((8 w - 16 w^2) u) + 1 / (1 - 4 w u)^2.

For w < 1/4 both terms of G are convex in u, so D1 rises somewhere on
tau > 0 exactly when G'(1) > 0, that is when 64 w^3 - 16 w^2 - 12 w + 1 < 0.
The scan flag of `regime` reads true only a little above that onset
(from w = 0.0777831 on), because it asks for a rise of more than 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures, states

__all__ = [
    "ParamOutOfRange",
    "W_CRITICAL_D1",
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


# threshold polynomials in w, highest power first (module docstring); the
# lower root of each in (0, 1/4) is the critical coupling of its measure
_THRESHOLD_D2 = (32.0, -16.0, 1.0)
_THRESHOLD_D1 = (64.0, -16.0, -12.0, 1.0)

W_CRITICAL_D2 = (2.0 - math.sqrt(2.0)) / 8.0

# the trigonometric root of the cubic is about 10 ulp off; one Newton step
# lands on the nearest double
_W_D1_TRIG = (1.0 + 2.0 * math.sqrt(10.0)
              * math.cos(math.acos(10.0 ** -1.5) / 3.0 - 2.0 * math.pi / 3.0)) / 12.0
W_CRITICAL_D1 = float(_W_D1_TRIG - np.polyval(_THRESHOLD_D1, _W_D1_TRIG)
                      / np.polyval(np.polyder(_THRESHOLD_D1), _W_D1_TRIG))

_CRITICAL = {"d1": (W_CRITICAL_D1, _THRESHOLD_D1), "d2": (W_CRITICAL_D2, _THRESHOLD_D2)}

_SCAN_STEP = 1e-4
_SCAN_HORIZON = 10.0
_GROWTH_MARGIN = 1e-9


def _check_theta(th: float) -> None:
    if not 0.0 <= th <= math.pi / 2.0 + 1e-12:  # so NaN fails too
        raise ParamOutOfRange(f"theta must lie in [0, pi/2], got {th!r}")


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
            _check_theta(self.theta)
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
    """A sampled curve: times holds gamma0 t, values the measure at each point."""

    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class RegimeReport:
    """Scan-confirmed growth flags for a two-parameter family member.

    t_zero = ln(4w), in units of gamma0 t, is the interior zero of the side-A
    trace-norm curve, present only for the discordant family with w > 1/4.
    """

    w: float
    s: float
    d2_increases_under_A: bool
    d1_increases_under_A: bool
    d2_increases_under_B: bool
    t_zero: float | None


def _theta_elements(th: float) -> tuple[float, float, float, float, float, float]:
    """(r11, r22, r33, r44, r14, r23) of the theta family member at th in [0, pi/2]."""
    _check_theta(th)
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
    return states.from_x_fields(_x_elements(p))


def theta_states(thetas) -> np.ndarray:
    """The theta family members at every theta in thetas, one stack (n, 4, 4)."""
    th = np.asarray(thetas, dtype=float).reshape(-1)
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


def _series(p, gt, side, values_fn) -> TimeSeries:
    gt = np.array(gt, dtype=float)  # a copy: times must not alias the caller's array
    if gt.ndim != 1 or gt.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not np.all(gt >= 0.0):
        raise ValueError("times must be non-negative and not NaN")
    return TimeSeries(times=gt, values=values_fn(_x_elements(p), side, gt))


def d1_timeseries_A(p: FamilyParams, gt) -> TimeSeries:
    """Trace-norm discord along side-A emission at each gamma0 t in gt, in closed form."""
    return _series(p, gt, "A", _d1_values)


def d2_timeseries_A(p: FamilyParams, gt) -> TimeSeries:
    """Hilbert-Schmidt discord along side-A emission at each gamma0 t in gt."""
    return _series(p, gt, "A", _d2_values)


def d1_timeseries_B(p: FamilyParams, gt) -> TimeSeries:
    """Trace-norm discord at each gamma0 t in gt while the unmeasured side B decays."""
    return _series(p, gt, "B", _d1_values)


def d2_timeseries_B(p: FamilyParams, gt) -> TimeSeries:
    """Hilbert-Schmidt discord at each gamma0 t in gt while the unmeasured side B decays."""
    return _series(p, gt, "B", _d2_values)


def _grows(values: np.ndarray) -> bool:
    return bool(np.any(values[1:] > values[0] + _GROWTH_MARGIN))


def regime(p: FamilyParams) -> RegimeReport:
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
        t_zero=math.log(4.0 * p.w) if p.family == "discordant" and p.w > 0.25 else None,
    )


def find_critical_w(kind: str, tol: float = 1e-4) -> float:
    """Critical coupling above which (w, s_max(w)) grows under side-A emission.

    Returns W_CRITICAL_D2 for kind="d2" and W_CRITICAL_D1 for kind="d1",
    the lower roots in (0, 1/4) of their threshold polynomials (module
    docstring), after checking that the polynomial's residual at the root
    is within tol.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if kind not in _CRITICAL:
        raise ValueError(f"kind must be 'd1' or 'd2', got {kind!r}")
    w, coeffs = _CRITICAL[kind]
    residual = float(np.polyval(coeffs, w))
    if abs(residual) > tol:
        raise RuntimeError(f"threshold root check failed: residual {residual!r} exceeds {tol!r}")
    return w
