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

"Increases" for the regime report means: the curve exceeds its tau = 0
value by more than 1e-9 somewhere on 0 < tau <= 10.  Each curve is monotone
in tau between its branch switches and turning points, which are roots of
polynomials in u = e^{-tau} of degree <= 4, so its maximum on [0, 10] lies
at one of those roots or at an end, and `regime` evaluates the curve there
only.  It takes a whole sweep in one pass: the polynomials of every member
form one stack, one batched eigensolve finds all their roots, and the three
curves are evaluated once at the roots and ends of all members.

The critical couplings are the lower roots in (0, 1/4) of two threshold
polynomials, above which the measure of (w, s_max(w)) starts to grow
under side-A emission (onset at tau -> 0+).  With u = e^{-tau} that state
has a2 = a3 = 0, x = 4 w u - 1 and a1^2 = B = (8 w - 16 w^2) u, so
D2 grows once 32 w^2 - 16 w + 1 < 0, and D1^2 = 1/G(u) with

    G(u) = 1 / ((8 w - 16 w^2) u) + 1 / (1 - 4 w u)^2.

For w < 1/4 both terms of G are convex in u, so D1 rises somewhere on
tau > 0 exactly when G'(1) > 0, that is when 64 w^3 - 16 w^2 - 12 w + 1 < 0.
The flag of `regime` reads true only a little above that onset
(from w = 0.0777828 on), because it asks for a rise of more than 1e-9.
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

# regime's horizon in gamma0 t
_HORIZON = 10.0
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
    """Growth flags over 0 < gamma0 t <= 10 for a two-parameter family member.

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


def _mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Products of polynomials in u (..., 5), coefficients ascending, whose
    degrees sum to at most 4; each coefficient summed in ascending order."""
    out = p[..., :1] * q
    for i in range(1, 5):
        out[..., i:] += p[..., i : i + 1] * q[..., : 5 - i]
    return out


def _der(p: np.ndarray) -> np.ndarray:
    """Derivatives of polynomials in u (..., 5), padded to degree 4."""
    out = np.zeros_like(p)
    out[..., :4] = p[..., 1:] * np.arange(1.0, 5.0)
    return out


def _turning_polynomials(el) -> np.ndarray:
    """Polynomials (m, 22, 5) in u = e^{-tau}, coefficients ascending, whose
    roots hold every point where a D2 or D1 curve of a member switches
    branch or turns: eleven for side A, then eleven for side B, for each
    of the m members whose fields el holds as six arrays (m,).

    With a1^2 = c1 u, a2^2 = c2 u, B = cB u and a3, x linear in u, D2 is half
    the smallest pairwise sum of (a1^2, a2^2, a3^2 + x^2): it switches sums
    where two of them meet and otherwise turns only at a vertex of
    a1^2 + a3^2 + x^2 or a2^2 + a3^2 + x^2.  D1^2 = N/D on each of the four
    branches of a = max(a3^2, a2^2 + x^2) and b = min(a3^2, a1^2), with
    N = a1^2 (a - b) + b B and D = a - b + B: it switches where a or b does
    and otherwise turns only where N'D - N D' = 0.
    """
    m = len(el[0])
    # the coefficients at u = 1 and at u = 0 (tau = inf) fix each line in u
    ends = np.tile([0.0, np.inf], (m, 1))
    col = [e[:, None] for e in el]
    a1, a2, a3, x, b = (np.stack(c, axis=1) for c in  # each (m, side, end)
                        zip(_coefficients(col, "A", ends), _coefficients(col, "B", ends)))
    mono = np.zeros((3, m, 2, 5))  # a1^2, a2^2 and B: multiples of u
    mono[..., 1] = np.square(a1[..., 0]), np.square(a2[..., 0]), b[..., 0]
    a1sq, a2sq, bb = mono
    lines = np.zeros((2, m, 2, 5))  # a3 and x
    lines[..., 0] = a3[..., 1], x[..., 1]
    lines[..., 1] = a3[..., 0] - a3[..., 1], x[..., 0] - x[..., 1]
    a3sq, xsq = _mul(lines, lines)
    k33 = a3sq + xsq  # the third diagonal entry of K
    d2_polys = [a1sq - a2sq, a1sq - k33, a2sq - k33, _der(a1sq + k33), _der(a2sq + k33),
                a3sq - a2sq - xsq, a3sq - a1sq]
    # the four (a, b) branches of D1 side by side
    big = np.stack([a3sq, a3sq, a2sq + xsq, a2sq + xsq], axis=-2)
    small = np.stack([a3sq, a1sq, a3sq, a1sq], axis=-2)
    a1sq, bb = a1sq[..., None, :], bb[..., None, :]
    n, d = _mul(a1sq, big - small) + _mul(small, bb), big - small + bb
    d1_polys = _mul(_der(n), d) - _mul(n, _der(d))
    return np.concatenate([np.stack(d2_polys, axis=-2), d1_polys], axis=-2).reshape(m, 22, 5)


def _candidate_times(polys: np.ndarray):
    """(member, gamma0 t) of every root u in (e^{-10}, 1) of the turning
    polynomials polys (m, j, 5) of m members, that is every branch switch
    and turning point strictly inside regime's horizon.

    The roots come from one batched eigensolve of 4x4 companion matrices; a
    polynomial of lower degree is multiplied by a power of u first, which
    only adds roots at u = 0.  A complex root gives its real part, so a
    double root split by rounding is not lost; every time returned is a
    point of the curve, and an extra one costs nothing but time.
    """
    p = polys.reshape(-1, 5)
    owner = np.repeat(np.arange(len(polys)), polys.shape[1])
    mag = np.abs(p)
    # a leading coefficient below 1e-300 of the largest counts as zero, which
    # keeps the companion matrix finite; a row of zeros has no roots
    lead = mag > 1e-300 * mag.max(axis=1, keepdims=True)
    live = lead.any(axis=1)
    p, owner, shift = p[live], owner[live], np.argmax(lead[live, ::-1], axis=1)
    p = np.take_along_axis(np.concatenate([np.zeros((len(p), 4)), p], axis=1),
                           np.arange(4, 9) - shift[:, None], axis=1)
    companion = np.zeros((len(p), 4, 4))
    companion[:, 0] = -p[:, 3::-1] / p[:, 4:]
    companion[:, 1:, :3] = np.eye(3)
    u = np.linalg.eigvals(companion).real.ravel()
    inside = (u > math.exp(-_HORIZON)) & (u < 1.0)
    return np.repeat(owner, 4)[inside], -np.log(u[inside])


def regime(p):
    """Growth flags for classical or discordant family members.

    Takes one FamilyParams and returns its RegimeReport, or a sequence of
    them and returns their reports in order, handled in one pass (an empty
    sequence gives []); a theta member raises ParamOutOfRange.  Each flag is
    true exactly when the closed-form curve exceeds its value at t = 0 by
    more than 1e-9 somewhere on 0 < gamma0 t <= 10.  Between consecutive
    branch switches and turning points every curve is monotone in t, so its
    maximum on [0, 10] lies at one of them or at an end; the curves are
    evaluated at those times only.  One eigensolve covers the turning
    polynomials of all members and one evaluation of each curve all their
    times; each member's maximum comes from np.maximum.at.
    """
    single = isinstance(p, FamilyParams)
    members = [p] if single else list(p)
    if any(q.family not in ("classical", "discordant") for q in members):
        raise ParamOutOfRange("regime() applies to the classical and discordant families")
    if not members:
        return []
    el = np.array([_x_elements(q) for q in members]).T
    member, gt = _candidate_times(_turning_polynomials(el))
    # each member's t = 0 first, then its horizon, then its roots
    m = len(members)
    member = np.concatenate([np.arange(m), np.arange(m), member])
    gt = np.concatenate([np.zeros(m), np.full(m, _HORIZON), gt])
    el = el[:, member]
    side_a = _coefficients(el, "A", gt)
    curves = np.stack([measures.d2_x_kernel(*side_a[:4]), measures.d1_x_kernel(*side_a),
                       _d2_values(el, "B", gt)])
    start = curves[:, :m]
    peak = start.copy()
    np.maximum.at(peak, (slice(None), member), curves)
    grows = peak > start + _GROWTH_MARGIN
    reports = [
        RegimeReport(
            w=q.w,
            s=q.s,
            d2_increases_under_A=bool(d2_a),
            d1_increases_under_A=bool(d1_a),
            d2_increases_under_B=bool(d2_b),
            t_zero=math.log(4.0 * q.w) if q.family == "discordant" and q.w > 0.25 else None,
        )
        for q, d2_a, d1_a, d2_b in zip(members, *grows)
    ]
    return reports[0] if single else reports


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
