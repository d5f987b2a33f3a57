"""Named state families, closed-form decay curves, regime classification
and the critical couplings.

Two checks are marked xfail(strict=True) on purpose; each records a
numerically verified gap between a stated expectation and what the
closed forms actually produce.  See the reasons on the marks.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from discordlab import dynamics, families, measures, states
from discordlab.families import (
    W_CRITICAL_D1,
    W_CRITICAL_D2,
    FamilyParams,
    ParamOutOfRange,
    d1_timeseries_A,
    d1_timeseries_B,
    d2_timeseries_A,
    d2_timeseries_B,
    find_critical_w,
    make_state,
    regime,
    s_max,
)

GT_SCAN = np.arange(0.0, 10.0 + 1e-3, 1e-3)


def classical(w, s):
    return FamilyParams("classical", w=w, s=s)


def discordant(w, s):
    return FamilyParams("discordant", w=w, s=s)


def x_elements(rho):
    return states.to_x_state(rho)


# ---------------------------------------------------------------------------
# parameters and state construction


def test_s_max_values():
    assert abs(s_max(0.25) - 0.25) < 1e-15
    assert abs(s_max(0.1) - 0.2) < 1e-15
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ParamOutOfRange):
            s_max(bad)


def test_family_params_validation():
    FamilyParams("theta", theta=0.0)
    FamilyParams("theta", theta=math.pi / 2)
    classical(0.25, 0.25)
    discordant(0.3, s_max(0.3))
    discordant(0.3, s_max(0.3) + 1e-13)

    cases = [
        dict(family="theta", theta=-0.1),
        dict(family="theta", theta=2.0),
        dict(family="theta", theta=float("nan")),
        dict(family="theta", theta=0.3, w=0.2),
        dict(family="theta"),
        dict(family="classical", w=0.2),
        dict(family="classical", w=0.2, s=0.1, theta=0.1),
        dict(family="classical", w=0.6, s=0.1),
        dict(family="classical", w=0.2, s=0.0),
        dict(family="discordant", w=0.3, s=s_max(0.3) + 1e-10),
        dict(family="werner", w=0.2, s=0.1),
    ]
    for kwargs in cases:
        with pytest.raises(ParamOutOfRange):
            FamilyParams(**kwargs)


def test_theta_states_match_make_state():
    thetas = np.linspace(0.0, math.pi / 2, 101)
    stack = families.theta_states(thetas)
    assert stack.shape == (101, 4, 4)
    for th, rho in zip(thetas.tolist(), stack):
        assert np.array_equal(rho, make_state(FamilyParams("theta", theta=th)))
    for bad, got in (([-0.1, 0.3], "-0.1"), ([0.3, 2.0], "2.0"), ([np.nan], "nan")):
        with pytest.raises(ParamOutOfRange, match=rf"^theta must lie in \[0, pi/2\], got {got}$"):
            families.theta_states(bad)


def test_theta_populations_are_correctly_rounded():
    # r11 and r44 are the correctly rounded squares of cos and sin, halved
    # exactly; cos(t) ** 2 through pow is 1 ulp off at some of these angles
    thetas = np.linspace(0.0, math.pi / 2, 1001)
    stack = families.theta_states(thetas)
    for th, rho in zip(thetas.tolist(), stack):
        assert rho[0, 0].real == float(Fraction(math.cos(th)) ** 2 / 2)
        assert rho[3, 3].real == float(Fraction(math.sin(th)) ** 2 / 2)


def test_make_state_theta_zero():
    rho = make_state(FamilyParams("theta", theta=0.0))
    np.testing.assert_allclose(rho, np.diag([0.5, 0.0, 0.5, 0.0]), atol=1e-15)


def test_make_state_classical_quarter_is_plus_minus_mixture():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    mix = 0.5 * (np.kron(np.outer(plus, plus), np.outer(plus, plus))
                 + np.kron(np.outer(minus, minus), np.outer(minus, minus)))
    np.testing.assert_allclose(make_state(classical(0.25, 0.25)), mix, atol=1e-15)


def test_make_state_discordant_elements():
    xs = x_elements(make_state(discordant(0.076, 0.179)))
    assert abs(xs.r11 - 0.076) < 1e-15
    assert abs(xs.r22 - 0.076) < 1e-15
    assert abs(xs.r33 - 0.424) < 1e-15
    assert abs(xs.r44 - 0.424) < 1e-15
    assert abs(xs.r14 - 0.179) < 1e-15
    assert abs(xs.r23 - 0.179) < 1e-15


def test_classical_states_carry_no_discord():
    for w, frac in ((0.1, 0.4), (0.25, 1.0), (0.4, 0.8)):
        rho = make_state(classical(w, frac * s_max(w)))
        assert measures.d2_closed(rho) < 1e-14
        assert measures.d1_x_with_method(x_elements(rho))[0] < 1e-12


# ---------------------------------------------------------------------------
# side-A decay curves


def test_d1_series_classical_quarter_log2():
    v = d1_timeseries_A(classical(0.25, 0.25), [math.log(2.0)]).values[0]
    assert abs(v - 0.5 / math.sqrt(1.5)) < 1e-12


def test_d1_series_classical_quarter_closed_form():
    gt = np.linspace(0.0, 6.0, 61)
    for s in (0.05, 0.18, 0.25):
        vals = d1_timeseries_A(classical(0.25, s), gt).values
        u = np.exp(-gt)
        expected = 4.0 * s * (1.0 - u) / np.sqrt(16.0 * s * s + 2.0 * np.cosh(gt) - 2.0)
        np.testing.assert_allclose(vals, expected, atol=1e-12)


def test_d1_series_discordant_closed_form():
    gt = np.linspace(0.0, 6.0, 61)
    for w, s in ((0.4, 0.2), (0.2, 0.15), (0.3, s_max(0.3))):
        vals = d1_timeseries_A(discordant(w, s), gt).values
        u = np.exp(-gt)
        expected = (4.0 * s * np.abs(1.0 - 4.0 * w * u)
                    / np.sqrt(16.0 * s * s + np.exp(gt) * (1.0 - 4.0 * w * u) ** 2))
        np.testing.assert_allclose(vals, expected, atol=1e-12)


def test_d1_series_zero_crossing():
    v = d1_timeseries_A(discordant(0.4, 0.2), [math.log(1.6)]).values[0]
    assert abs(v) < 1e-15


def test_series_at_t0_match_static_measures():
    params = [
        FamilyParams("theta", theta=0.7),
        classical(0.3, 0.1),
        discordant(0.2, 0.15),
    ]
    for p in params:
        rho = make_state(p)
        d1_ref = measures.d1_x_with_method(x_elements(rho))[0]
        d2_ref = measures.d2_closed(rho)
        assert abs(d1_timeseries_A(p, [0.0]).values[0] - d1_ref) < 1e-12
        assert abs(d2_timeseries_A(p, [0.0]).values[0] - d2_ref) < 1e-12
        assert abs(d1_timeseries_B(p, [0.0]).values[0] - d1_ref) < 1e-12
        assert abs(d2_timeseries_B(p, [0.0]).values[0] - d2_ref) < 1e-12


def test_d2_series_classical_quarter_log2():
    v = d2_timeseries_A(classical(0.25, 0.25), [math.log(2.0)]).values[0]
    assert abs(v - 0.125) < 1e-15
    # branch values: coherence branch 8 s^2 u = 1/4, population branch 1/8
    assert v == pytest.approx(min(0.25, 0.125), abs=1e-15)


def test_d2_series_discordant_t0():
    v = d2_timeseries_A(discordant(0.2, 0.2), [0.0]).values[0]
    assert abs(v - 0.02) < 1e-15
    assert v == pytest.approx(min(8 * 0.2 ** 2, 0.5 - 4 * 0.2 + 8 * 0.2 ** 2), abs=1e-15)


def test_d2_series_asymptotic_consistency():
    for p in (discordant(0.3, 0.15), classical(0.2, s_max(0.2))):
        v = d2_timeseries_A(p, [40.0]).values[0]
        far = measures.d2_closed(dynamics.evolve_states(make_state(p), "A", [np.inf])[0])
        assert abs(v - far) < 1e-10


def test_timeseries_metadata_and_gamma0():
    # the series take gamma0 t and echo it as their times
    gt = [0.5, 1.0, 2.0]
    ts = d1_timeseries_A(classical(0.25, 0.25), gt)
    np.testing.assert_array_equal(ts.times, gt)
    assert [f.name for f in dataclasses.fields(ts)] == ["times", "values"]


def test_timeseries_input_validation():
    p = classical(0.25, 0.25)
    with pytest.raises(ValueError):
        d1_timeseries_A(p, [])
    with pytest.raises(ValueError):
        d1_timeseries_A(p, [[0.0, 1.0]])
    with pytest.raises(ValueError):
        d1_timeseries_A(p, [-0.5, 1.0])


def test_nan_gamma0_and_times_rejected():
    # NaN fails every comparison, so a check written as "reject if x <= 0" passes it;
    # the rate is checked where gamma0 t is formed (dynamics, cli), the time here
    p = classical(0.25, 0.25)
    with pytest.raises(ValueError, match="not NaN"):
        d1_timeseries_A(p, [0.5, float("nan")])
    # t = inf stays valid: the classical d1 curve decays to 0
    assert d1_timeseries_A(p, [math.inf]).values[0] == 0.0


# ---------------------------------------------------------------------------
# side-B decay curves


def test_b_series_classical_identically_zero():
    gt = np.linspace(0.0, 8.0, 101)
    for w, s in ((0.15, 0.2), (0.25, 0.25), (0.4, 0.1)):
        assert np.max(np.abs(d1_timeseries_B(classical(w, s), gt).values)) < 1e-15
        assert np.max(np.abs(d2_timeseries_B(classical(w, s), gt).values)) < 1e-15


def test_b_series_discordant_population_branch():
    # at w = 0.4 the population branch is c (1 - u + u^2/2) with c = 0.36
    p = discordant(0.4, 0.2)
    assert abs(d2_timeseries_B(p, [0.0]).values[0] - 0.18) < 1e-15
    c = (4 * 0.4 - 1.0) ** 2
    assert abs(c - 0.36) < 1e-15
    for gt in (0.1, 0.2, 0.3, 0.4):
        u = math.exp(-gt)
        coherence = 8.0 * 0.2 ** 2 * u
        population = c * (1.0 - u + u * u / 2.0)
        v = d2_timeseries_B(p, [gt]).values[0]
        assert abs(v - min(coherence, population)) < 1e-15


def test_b_series_discordant_rises_above_start():
    gt = np.linspace(0.0, 5.0, 1001)
    vals = d2_timeseries_B(discordant(0.4, 0.2), gt).values
    assert np.max(vals) > vals[0] + 1e-3


def test_f_branch_ordering_and_bloch_consistency():
    """The three closed-form branches match the spectrum of x x^T + T T^T
    of the Kraus-evolved state, and the symmetric-coherence branch never
    falls below the antisymmetric one."""
    rng = np.random.default_rng(5)
    for k in range(20):
        w = float(rng.uniform(0.05, 0.45))
        s = float(s_max(w) * rng.uniform(0.2, 1.0))
        p = classical(w, s) if k % 2 else discordant(w, s)
        gt = float(rng.uniform(0.0, 4.0))
        side = "A" if k % 3 else "B"

        a1, a2, a3, x, _ = (float(c[0]) for c in
                            families._coefficients(families._x_elements(p), side, np.array([gt])))
        f_sym = (a1 * a1 + a3 * a3 + x * x) / 2.0
        f_anti = (a2 * a2 + a3 * a3 + x * x) / 2.0
        f_coh = (a1 * a1 + a2 * a2) / 2.0
        assert f_sym >= f_anti - 1e-15

        ev = dynamics.apply_channel(make_state(p), dynamics.EmissionChannel(side, gt))
        b = states.bloch(ev)
        total = float(b.x_vec @ b.x_vec + np.sum(b.corr * b.corr))
        ks = np.linalg.eigvalsh(np.outer(b.x_vec, b.x_vec) + b.corr @ b.corr.T)
        from_bloch = sorted((total - kk) / 2.0 for kk in ks)
        np.testing.assert_allclose(sorted((f_sym, f_anti, f_coh)), from_bloch, atol=1e-12)
        assert abs(measures.d2_x_kernel(a1, a2, a3, x) - from_bloch[0]) < 1e-12

        series = d2_timeseries_A(p, [gt]) if side == "A" else d2_timeseries_B(p, [gt])
        assert abs(min(f_sym, f_anti, f_coh) - series.values[0]) < 1e-12


# ---------------------------------------------------------------------------
# regime classification


def test_regime_examples():
    r = regime(discordant(0.076, 0.179))
    assert r.d2_increases_under_A is True
    assert r.d1_increases_under_A is False
    assert r.t_zero is None

    r = regime(discordant(0.2, 0.2))
    assert r.d2_increases_under_A is True
    assert r.d1_increases_under_A is True

    r = regime(discordant(0.4, 0.2))
    assert abs(r.t_zero - math.log(1.6)) < 1e-15
    assert r.d2_increases_under_A is False
    assert r.d2_increases_under_B is True


def test_regime_classical_creation():
    r = regime(classical(0.25, 0.25))
    assert r.d2_increases_under_A is True
    assert r.d1_increases_under_A is True
    assert r.d2_increases_under_B is False
    assert r.t_zero is None


def test_regime_rejects_theta_family():
    with pytest.raises(ParamOutOfRange):
        regime(FamilyParams("theta", theta=0.3))


def test_t_zero_presence_and_scaling():
    for w in (0.26, 0.3, 0.45):
        r = regime(discordant(w, 0.5 * s_max(w)))
        assert abs(r.t_zero - math.log(4.0 * w)) < 1e-15
    for w in (0.1, 0.25):
        assert regime(discordant(w, 0.5 * s_max(w))).t_zero is None


def test_regime_flags_survive_coarser_rescan():
    # a rise seen on the 1e-3 scan is a rise of the curve, so it implies the
    # flag; the converse fails where the curve peaks between samples, as at
    # W_CRITICAL_D2 + 1e-6 on s_max, which peaks before gamma0 t = 1e-4
    cases = [
        discordant(0.076, 0.179),
        discordant(0.2, 0.2),
        discordant(0.4, 0.2),
        classical(0.25, 0.25),
        discordant(0.35, s_max(0.35)),
        discordant(W_CRITICAL_D2 + 1e-6, s_max(W_CRITICAL_D2 + 1e-6)),
    ]
    for p in cases:
        r = regime(p)
        el = families._x_elements(p)

        def grows(vals):
            return bool(np.any(vals[1:] > vals[0] + 1e-9))

        assert r.d2_increases_under_A or not grows(families._d2_values(el, "A", GT_SCAN))
        assert r.d1_increases_under_A or not grows(families._d1_values(el, "A", GT_SCAN))
        assert r.d2_increases_under_B or not grows(families._d2_values(el, "B", GT_SCAN))
    # the last member: the flag reads true where the coarse scan sees no rise
    assert r.d2_increases_under_A and not grows(families._d2_values(el, "A", GT_SCAN))


def test_d1_dip_then_overshoot_counts_as_growth():
    """Near the s_max edge below w = 1/2 the trace-norm curve can fall
    almost to zero before climbing past its starting value; the growth
    flag reads the whole horizon, not the initial slope."""
    p = discordant(0.35, s_max(0.35))
    vals = d1_timeseries_A(p, np.linspace(0.0, 5.0, 5001)).values
    assert vals[0] > 0.36
    assert np.min(vals) < 0.01
    assert np.max(vals) > vals[0] + 1e-3
    assert regime(p).d1_increases_under_A is True


def test_d2_side_a_window_implies_growth():
    for w in np.linspace(0.08, 0.24, 9):
        for frac in (0.9, 1.0):
            s = frac * s_max(float(w))
            if 8.0 * s * s > 0.5 - 4.0 * w + 8.0 * w * w:
                r = regime(discordant(float(w), s))
                assert r.d2_increases_under_A, (w, frac)


def test_d2_side_b_growth_matches_closed_condition():
    ws = (0.03, 0.06, 0.09, 0.12, 0.16, 0.20, 0.25, 0.30, 0.35, 0.40, 0.43, 0.46)
    for w in ws:
        for frac in (0.3, 0.6, 0.9, 1.0):
            s = frac * s_max(w)
            closed = (8.0 * s * s > 0.5 - 4.0 * w + 8.0 * w * w) and w != 0.25
            r = regime(discordant(w, s))
            assert r.d2_increases_under_B == closed, (w, frac)


def test_d2_side_b_window_at_maximal_coherence():
    upper = (2.0 + math.sqrt(2.0)) / 8.0
    inside = (0.08, 0.1, 0.2, 0.3, 0.42)
    outside = (0.05, 0.07, 0.25, 0.44, 0.47)
    for w in inside:
        assert W_CRITICAL_D2 < w < upper
        assert regime(discordant(w, s_max(w))).d2_increases_under_B, w
    for w in outside:
        assert not regime(discordant(w, s_max(w))).d2_increases_under_B, w


def test_unmeasured_side_growth_witness():
    r = regime(discordant(0.4, s_max(0.4)))
    assert abs(s_max(0.4) - 0.2) < 1e-15
    assert r.d2_increases_under_B is True
    assert r.d2_increases_under_A is False


# ---------------------------------------------------------------------------
# critical couplings


def test_find_critical_w_d2():
    w = find_critical_w("d2", 1e-12)
    assert w == (2.0 - math.sqrt(2.0)) / 8.0
    assert abs(8.0 * s_max(w) ** 2 - (0.5 - 4.0 * w + 8.0 * w * w)) < 1e-12


# the lower root of 64 w^3 - 16 w^2 - 12 w + 1 to 28 digits
W_BAR_C = Fraction("0.0777769543664954749825703692")


def d1_threshold_cubic(w):
    """The cubic evaluated exactly at the double w."""
    w = Fraction(w)
    return ((64 * w - 16) * w - 12) * w + 1


def test_find_critical_w_d1():
    w_bar = find_critical_w("d1", 1e-4)
    assert w_bar == 0.07777695436649547
    assert 0.0772 <= w_bar <= 0.0782
    assert w_bar > find_critical_w("d2", 1e-12)


def test_w_critical_d1_is_the_cubic_root():
    assert abs(Fraction(W_CRITICAL_D1) - W_BAR_C) <= Fraction(1.4e-17)
    assert d1_threshold_cubic(np.nextafter(W_CRITICAL_D1, 0.0)) > 0
    assert d1_threshold_cubic(np.nextafter(W_CRITICAL_D1, 1.0)) < 0


def test_d1_onset_at_w_critical_d1():
    """Just above the root d1 of (w, s_max(w)) rises right after t = 0;
    just below it never rises above its starting value."""
    gt = np.linspace(0.0, 1e-2, 10001)
    for dw, rises in ((-1e-6, False), (1e-6, True)):
        w = W_CRITICAL_D1 + dw
        vals = d1_timeseries_A(discordant(w, s_max(w)), gt).values
        assert bool(np.any(vals[1:] > vals[0])) is rises, dw


def test_regime_d1_flag_brackets_w_critical_d1():
    for dw, grows in ((-1e-4, False), (1e-4, True)):
        w = W_CRITICAL_D1 + dw
        assert regime(discordant(w, s_max(w))).d1_increases_under_A is grows


CURVES = (("A", families._d2_values), ("A", families._d1_values), ("B", families._d2_values))


def continuum_peaks(p):
    """(rise, gamma0 t) of the largest value of each of regime's three curves
    on [0, 10], the rise taken over its value at t = 0, found without
    regime's root finder: the scan gamma0 t = k 1e-4, then a bounded search
    on the two cells around every sampled local maximum, the first and the
    last sample included."""
    from scipy.optimize import minimize_scalar

    gt = np.arange(0.0, 10.0 + 1e-4, 1e-4)
    el = families._x_elements(p)
    out = []
    for side, values in CURVES:
        def drop(t, side=side, values=values):
            return -float(values(el, side, np.array([t]))[0])

        v = values(el, side, gt)
        padded = np.concatenate([[-np.inf], v, [-np.inf]])
        best = (float(v.max()), float(gt[np.argmax(v)]))
        for k in np.flatnonzero((v > padded[:-2]) & (v >= padded[2:])):
            bounds = (gt[max(k - 1, 0)], gt[min(k + 1, gt.size - 1)])
            res = minimize_scalar(drop, bounds=bounds, method="bounded",
                                  options={"xatol": 1e-12})
            best = max(best, (-float(res.fun), float(res.x)))
        out.append((best[0] - float(v[0]), best[1]))
    return out


def continuum_flags(p):
    """The flags as regime's contract reads: the curve exceeds its t = 0
    value by more than 1e-9 somewhere on (0, 10]."""
    return tuple(rise > 1e-9 for rise, _ in continuum_peaks(p))


def test_regime_flags_equal_the_fine_scan():
    rng = np.random.default_rng(1717)
    cases = []
    for fam in ("classical", "discordant"):
        for u, v in rng.uniform(size=(30, 2)):
            w = 0.01 + 0.48 * float(u)
            cases.append(FamilyParams(fam, w=w, s=(0.05 + 0.95 * float(v)) * s_max(w)))
    near = [W_CRITICAL_D1 + dw for dw in np.linspace(-1e-5, 1e-5, 21)]
    near += [w0 + dw for w0 in (W_CRITICAL_D2, (2.0 + math.sqrt(2.0)) / 8.0) for dw in (-1e-6, 1e-6)]
    cases += [discordant(float(w), s_max(float(w))) for w in near]
    seen = set()
    for p in cases:
        r = regime(p)
        flags = (r.d2_increases_under_A, r.d1_increases_under_A, r.d2_increases_under_B)
        assert flags == continuum_flags(p), p
        seen.update(enumerate(flags))
    assert len(seen) == 6  # every flag reads both true and false


def test_regime_sees_a_d1_peak_inside_the_first_grid_cell():
    """Just above the d1 onset at s_max, d1 peaks before gamma0 t = 1e-4 and
    rises only a little more than the 1e-9 margin, so no sample k 1e-4
    sees the rise; the flag reads the curve."""
    for dw in (5.9e-6, 6.0e-6, 6.1e-6):
        w = W_CRITICAL_D1 + dw
        p = discordant(w, s_max(w))
        rise, t_peak = continuum_peaks(p)[1]
        assert t_peak < 1e-4 and 1e-9 < rise <= 1.1e-9, (dw, rise, t_peak)
        assert regime(p).d1_increases_under_A is True, dw
    w = W_CRITICAL_D1 + 5e-6
    assert regime(discordant(w, s_max(w))).d1_increases_under_A is False


def test_regime_d2_flag_starts_at_w_critical_d2():
    """At s_max just above W_CRITICAL_D2 the side-A d2 curve rises until its
    branches cross, at a time and by an amount both proportional to
    w - W_CRITICAL_D2.  Up to about W_CRITICAL_D2 + 4.4e-6 no sample
    k 1e-4 reads the rise, and it exceeds the margin from 1e-9 above the
    threshold on."""
    for dw in (1e-9, 1e-6, 4e-6):
        w = W_CRITICAL_D2 + dw
        p = discordant(w, s_max(w))
        rise, t_peak = continuum_peaks(p)[0]
        assert t_peak < 1e-4 and rise > 1e-9, (dw, rise, t_peak)
        assert regime(p).d2_increases_under_A is True, dw
    w = W_CRITICAL_D2 - 1e-9
    assert regime(discordant(w, s_max(w))).d2_increases_under_A is False


def test_regime_flags_follow_the_closed_form_boundaries():
    """Discordant members with w < 1/4: D2 grows on either side iff
    16 s^2 > (1 - 4w)^2, and D1 under side-A emission iff
    128 w s^2 > (1 - 4w)^3.  Points within a relative 1e-2 of a boundary
    are left out, because there the rise can stay below the 1e-9 margin;
    the band widens as w nears 1/4 (at w = 0.23 it reaches 6e-4 for D2 and
    3e-3 for D1), so w stays below 0.23."""
    rng = np.random.default_rng(1718)
    checked = [0, 0]
    for u, v in rng.uniform(size=(200, 2)):
        w = 0.01 + 0.22 * float(u)
        s = float(v) * s_max(w)
        if s == 0.0:
            continue
        r = regime(discordant(w, s))
        d2_lhs, d2_rhs = 16.0 * s * s, (1.0 - 4.0 * w) ** 2
        if abs(d2_lhs - d2_rhs) > 1e-2 * d2_rhs:
            assert r.d2_increases_under_A is r.d2_increases_under_B is (d2_lhs > d2_rhs), (w, s)
            checked[0] += 1
        d1_lhs, d1_rhs = 128.0 * w * s * s, (1.0 - 4.0 * w) ** 3
        if abs(d1_lhs - d1_rhs) > 1e-2 * d1_rhs:
            assert r.d1_increases_under_A is (d1_lhs > d1_rhs), (w, s)
            checked[1] += 1
    assert min(checked) >= 190


def test_regime_allocates_no_scan():
    p = discordant(0.35, s_max(0.35))
    regime(p)
    tracemalloc.start()
    try:
        regime(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


def sweep_members(family, s, ws):
    """The members a `sweep --s s` run keeps: those FamilyParams accepts."""
    out = []
    for w in ws:
        try:
            out.append(FamilyParams(family, w=float(w), s=s))
        except ParamOutOfRange:
            pass
    return out


def test_regime_sequence_equals_member_calls():
    rng = np.random.default_rng(2701)
    members = []
    for fam in ("classical", "discordant"):
        for u, v in rng.uniform(size=(800, 2)):
            w = 0.005 + 0.49 * float(u)
            members.append(FamilyParams(fam, w=w, s=(0.001 + 0.999 * float(v)) * s_max(w)))
        grid = np.linspace(0.01, 0.49, 100)
        members += [FamilyParams(fam, w=float(w), s=s_max(float(w))) for w in grid]
        for s in (0.1, 0.2, 0.24):
            kept = sweep_members(fam, s, grid)
            assert 0 < len(kept) < len(grid)  # the sweep skips some members
            members += kept
    assert len(members) >= 2000
    reports = regime(members)
    assert reports == [regime(p) for p in members]
    seen = {(k, flag) for r in reports for k, flag in
            enumerate((r.d2_increases_under_A, r.d1_increases_under_A, r.d2_increases_under_B))}
    assert len(seen) == 6  # every flag reads both true and false


def test_regime_sequence_edges():
    assert regime([]) == []
    p = discordant(0.4, 0.2)
    assert regime((p,)) == [regime(p)]
    with pytest.raises(ParamOutOfRange, match="classical and discordant"):
        regime([p, FamilyParams("theta", theta=0.3)])


def test_find_critical_w_validation():
    with pytest.raises(ValueError):
        find_critical_w("d2", 0.0)
    with pytest.raises(ValueError):
        find_critical_w("hs", 1e-4)


# ---------------------------------------------------------------------------
# cross-checks against the full pipeline and the oracles


def test_closed_forms_match_kraus_pipeline():
    rng = np.random.default_rng(7)
    for _ in range(200):
        fam = ("classical", "discordant", "theta")[int(rng.integers(3))]
        if fam == "theta":
            p = FamilyParams("theta", theta=float(rng.uniform(0.0, math.pi / 2)))
        else:
            w = float(rng.uniform(0.02, 0.48))
            p = FamilyParams(fam, w=w, s=float(s_max(w) * rng.uniform(0.1, 1.0)))
        gt = float(rng.uniform(0.0, 6.0))
        rho0 = make_state(p)
        for side in ("A", "B"):
            ev = dynamics.apply_channel(rho0, dynamics.EmissionChannel(side, gt))
            d1_ref = measures.d1_x_with_method(x_elements(ev))[0]
            d2_ref = measures.d2_closed(ev)
            d1s = (d1_timeseries_A if side == "A" else d1_timeseries_B)(p, [gt]).values[0]
            d2s = (d2_timeseries_A if side == "A" else d2_timeseries_B)(p, [gt]).values[0]
            assert abs(d1s - d1_ref) < 1e-10
            assert abs(d2s - d2_ref) < 1e-10


def test_closed_forms_match_oracles():
    rng = np.random.default_rng(11)
    for k in range(10):
        w = float(rng.uniform(0.05, 0.45))
        p = discordant(w, float(s_max(w) * rng.uniform(0.3, 1.0)))
        gt = float(rng.uniform(0.0, 4.0))
        side = "A" if k % 2 == 0 else "B"
        ev = dynamics.apply_channel(make_state(p), dynamics.EmissionChannel(side, gt))
        d1s = (d1_timeseries_A if side == "A" else d1_timeseries_B)(p, [gt]).values[0]
        d2s = (d2_timeseries_A if side == "A" else d2_timeseries_B)(p, [gt]).values[0]
        assert abs(d1s - measures.d1_oracle(ev)[0]) < 1e-5
        assert abs(d2s - measures.d2_oracle(ev)[0]) < 1e-5


# ---------------------------------------------------------------------------
# classical creation profile


PROFILE_GRID = [(w, frac) for w in (0.05, 0.15, 0.25, 0.35, 0.45) for frac in (0.5, 1.0)]


def test_classical_creation_profile_d2():
    gt = np.linspace(0.0, 30.0, 3001)
    for w, frac in PROFILE_GRID:
        vals = d2_timeseries_A(classical(w, frac * s_max(w)), gt).values
        assert vals[0] <= 1e-15
        assert np.max(vals) > 1e-3
        assert vals[-1] <= 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="the trace-norm curve decays as exp(-gamma0 t/2), so at "
    "gamma0 t = 30 it still reads 4 s exp(-15) = 3.06e-7 for s = 1/4; "
    "the 1e-8 bound is first met near gamma0 t = 36.8",
)
def test_classical_creation_profile_d1():
    gt = np.linspace(0.0, 30.0, 3001)
    for w, frac in PROFILE_GRID:
        vals = d1_timeseries_A(classical(w, frac * s_max(w)), gt).values
        assert vals[0] <= 1e-15
        assert np.max(vals) > 1e-3
        assert vals[-1] <= 1e-8


def test_classical_d1_tail_law():
    for gt in (20.0, 25.0, 30.0):
        for w, s in ((0.25, 0.25), (0.1, 0.15)):
            v = d1_timeseries_A(classical(w, s), [gt]).values[0]
            assert abs(v * math.exp(gt / 2.0) - 4.0 * s) < 1e-8


# ---------------------------------------------------------------------------
# where discord production peaks


def test_peak_production_plateau():
    """With s = s_max(w) the evolved trace-norm peak is the same number
    for every w in a wide band around 1/4: the (4w-1)^2 dependence
    cancels on the branch that is active at the peak."""
    gt = np.linspace(0.0, 3.0, 3001)
    peaks = {}
    for w in (0.1, 0.2, 0.25, 0.3, 0.4):
        vals = d1_timeseries_A(classical(w, s_max(w)), gt).values
        peaks[w] = (np.max(vals), gt[int(np.argmax(vals))])
    ref_val, ref_t = peaks[0.25]
    assert abs(ref_val - 0.437724326062979) < 1e-6
    assert abs(ref_t - 1.018591805088574) < 1.5e-3
    for w, (val, _) in peaks.items():
        assert abs(val - ref_val) < 1e-10, w


@pytest.mark.xfail(
    strict=True,
    reason="the peak value 0.43772432... is attained on an exact plateau "
    "over w in [0.0787, 0.4213] at s = s_max(w), so the grid argmax is a "
    "float-noise tie-break (it lands at w = 0.365 here), not at w = 1/4",
)
def test_peak_production_grid_argmax():
    w_grid = (np.arange(50) + 0.5) * 0.01
    gt = np.linspace(0.0, 10.0, 2001)
    best = (-1.0, None, None)
    for w in w_grid:
        cap = s_max(float(w))
        for j in range(1, 51):
            s = cap * j / 50.0
            vals = d1_timeseries_A(classical(float(w), float(s)), gt).values
            peak = float(np.max(vals))
            if peak > best[0]:
                best = (peak, float(w), float(s))
    assert abs(best[1] - 0.25) <= 0.011
    assert abs(best[2] - 0.25) <= 0.006
