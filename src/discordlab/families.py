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

"Increases" for the regime report is operationalized as: the curve,
sampled at tau = k 1e-4 for k = 1 .. 100000, exceeds its tau = 0 value by
more than 1e-9 at some sample.  Each curve is monotone in tau between its
branch switches and turning points, which are roots of polynomials in
u = e^{-tau} of degree <= 4, so `regime` evaluates only the samples next to
those roots and at both ends, and returns the flags of the full scan.

The critical couplings are the lower roots in (0, 1/4) of two threshold
polynomials, above which the measure of (w, s_max(w)) starts to grow
under side-A emission (onset at tau -> 0+).  With u = e^{-tau} that state
has a2 = a3 = 0, x = 4 w u - 1 and a1^2 = B = (8 w - 16 w^2) u, so
D2 grows once 32 w^2 - 16 w + 1 < 0, and D1^2 = 1/G(u) with

    G(u) = 1 / ((8 w - 16 w^2) u) + 1 / (1 - 4 w u)^2.

For w < 1/4 both terms of G are convex in u, so D1 rises somewhere on
tau > 0 exactly when G'(1) > 0, that is when 64 w^3 - 16 w^2 - 12 w + 1 < 0.
The flag of `regime` reads true only a little above that onset
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

# regime's grid: gamma0 t = k * _SCAN_STEP for k = 0 .. _SCAN_LAST, on [0, 10]
_SCAN_STEP = 1e-4
_SCAN_LAST = 100_000
# grid cells read on either side of each candidate time; a double root near
# gamma0 t = 10 comes out about 2 cells off
_SNAP = np.arange(-5, 6)
_GROWTH_MARGIN = 1e-9


def _check_theta(th) -> None:
    """Raise ParamOutOfRange unless th, a float or an array, lies in [0, pi/2]."""
    th = np.asarray(th)
    bad = ~((0.0 <= th) & (th <= math.pi / 2.0 + 1e-12))  # so NaN fails too
    if bad.any():
        raise ParamOutOfRange(f"theta must lie in [0, pi/2], got {th[bad][0].item()!r}")


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
    """Growth flags, on regime's 1e-4 grid, for a two-parameter family member.

    t_zero = ln(4w), in units of gamma0 t, is the interior zero of the side-A
    trace-norm curve, present only for the discordant family with w > 1/4.
    """

    w: float
    s: float
    d2_increases_under_A: bool
    d1_increases_under_A: bool
    d2_increases_under_B: bool
    t_zero: float | None


def _theta_elements(th):
    """(r11, r22, r33, r44, r14, r23) of the theta family members at th in
    [0, pi/2], elementwise over a float or an array."""
    _check_theta(th)
    c, s = np.cos(th), np.sin(th)
    zero = np.zeros_like(c)
    # c * c is correctly rounded, where c ** 2 on a float goes through pow
    return (c * c / 2.0, zero, zero + 0.5, s * s / 2.0, np.sin(2.0 * th) / 4.0, zero)


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
    return states.from_x_fields(np.stack(_theta_elements(th), axis=-1))


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


def _poly(*coeffs: float) -> np.ndarray:
    """A polynomial in u, coefficients ascending, padded to degree 4."""
    return np.array(coeffs + (0.0,) * (5 - len(coeffs)))


def _der(p: np.ndarray) -> np.ndarray:
    """Derivative of a polynomial in u, padded to degree 4."""
    return np.append(p[1:] * np.arange(1.0, 5.0), 0.0)


def _mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of two polynomials whose degrees sum to at most 4."""
    return np.convolve(p, q)[:5]


def _turning_polynomials(el, side: str) -> list[np.ndarray]:
    """Polynomials in u = e^{-tau} whose roots hold every point where the
    D2 or D1 curve of one side switches branch or turns.

    With a1^2 = c1 u, a2^2 = c2 u, B = cB u and a3, x linear in u, D2 is half
    the smallest pairwise sum of (a1^2, a2^2, a3^2 + x^2): it switches sums
    where two of them meet and otherwise turns only at a vertex of
    a1^2 + a3^2 + x^2 or a2^2 + a3^2 + x^2.  D1^2 = N/D on each of the four
    branches of a = max(a3^2, a2^2 + x^2) and b = min(a3^2, a1^2), with
    N = a1^2 (a - b) + b B and D = a - b + B: it switches where a or b does
    and otherwise turns only where N'D - N D' = 0.
    """
    # the coefficients at u = 1 and at u = 0 (tau = inf) fix each line in u
    a1, a2, a3, x, b = _coefficients(el, side, np.array([0.0, np.inf]))
    a1sq, a2sq, bb = _poly(0.0, a1[0] ** 2), _poly(0.0, a2[0] ** 2), _poly(0.0, b[0])
    a3sq, xsq = (_mul(v, v) for v in (_poly(a3[1], a3[0] - a3[1]), _poly(x[1], x[0] - x[1])))
    k33 = a3sq + xsq  # the third diagonal entry of K
    polys = [a1sq - a2sq, a1sq - k33, a2sq - k33, _der(a1sq + k33), _der(a2sq + k33),
             a3sq - a2sq - xsq, a3sq - a1sq]
    for big in (a3sq, a2sq + xsq):
        for small in (a3sq, a1sq):
            n, d = _mul(a1sq, big - small) + _mul(small, bb), big - small + bb
            polys.append(_mul(_der(n), d) - _mul(n, _der(d)))
    return polys


def _candidate_indices(polys: list[np.ndarray]) -> np.ndarray:
    """Sorted indices k of the grid gamma0 t = k * _SCAN_STEP: both ends,
    and _SNAP around every root u of polys that lies on the grid's span.

    The roots come from one batched eigensolve of 4x4 companion matrices; a
    polynomial of lower degree is multiplied by a power of u first, which
    only adds roots at u = 0.  A complex root gives its real part, so a
    double root split by rounding is not lost; extra candidates cost nothing
    but time.
    """
    p = np.array(polys)
    mag = np.abs(p)
    # a leading coefficient below 1e-300 of the largest counts as zero, which
    # keeps the companion matrix finite; a row of zeros has no roots
    lead = mag > 1e-300 * mag.max(axis=1, keepdims=True)
    live = lead.any(axis=1)
    p, shift = p[live], np.argmax(lead[live, ::-1], axis=1)
    p = np.take_along_axis(np.pad(p, ((0, 0), (4, 0))), np.arange(4, 9) - shift[:, None], axis=1)
    companion = np.zeros((len(p), 4, 4))
    companion[:, 0] = -p[:, 3::-1] / p[:, 4:]
    companion[:, 1:, :3] = np.eye(3)
    u = np.linalg.eigvals(companion).real.ravel()
    k = np.rint(-np.log(u[u > 0.0]) / _SCAN_STEP)
    k = k[(k >= 0.0) & (k <= _SCAN_LAST)].astype(np.int64)
    near = np.clip(k[:, None] + _SNAP, 0, _SCAN_LAST).ravel()
    return np.unique(np.concatenate([near, [0, _SCAN_LAST]]))


def regime(p: FamilyParams) -> RegimeReport:
    """Growth flags for a classical or discordant family member.

    Each flag is true exactly when the closed-form curve, sampled at
    gamma0 t = k * 1e-4 for k = 0 .. 100000, exceeds its value at t = 0 by
    more than 1e-9 at some k > 0.  Between consecutive branch switches and
    turning points every curve is monotone in t, so its largest sample lies
    next to one of them or at an end.  Only those samples are evaluated, with
    the arithmetic of the full scan, so every flag equals the scan's.
    """
    if p.family not in ("classical", "discordant"):
        raise ParamOutOfRange("regime() applies to the classical and discordant families")
    el = _x_elements(p)
    k = _candidate_indices(_turning_polynomials(el, "A") + _turning_polynomials(el, "B"))
    gt = k * _SCAN_STEP  # bit for bit the scan's np.arange(0.0, 10.0 + 1e-4, 1e-4)[k]
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
