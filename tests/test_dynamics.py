"""Emission channels: the elementwise map against the Kraus sum, element
tables, the Lindblad generator against its operator sum, the RK4
cross-check against stepwise RK4 and its cached propagators against
uncached ones, and asymptotic states."""

import re
import tracemalloc

import numpy as np
import pytest

from discordlab import dynamics, families, linalg, measures, states
from discordlab.dynamics import (
    EmissionChannel,
    InvalidTime,
    StepTooLarge,
    apply_channel,
    evolve_states,
    integrate,
    lindblad_rhs,
)
from discordlab.states import XState, from_x_state, sample_random_state, to_x_state

KET_EE = np.zeros((4, 4), dtype=complex)
KET_EE[0, 0] = 1.0
KET_GG = np.zeros((4, 4), dtype=complex)
KET_GG[3, 3] = 1.0


def trace_distance(a, b):
    return 0.5 * linalg.trace_norm(a - b)


def asymptotic_state(rho, side):
    """The t -> infinity state: `evolve_states` at t = inf."""
    return evolve_states(rho, side, [np.inf])[0]


def evolved_x_elements(xs, side, gt):
    """Corrected element tables for one-sided emission of an X state."""
    u = np.exp(-gt)
    root_u = np.exp(-gt / 2)
    if side == "A":
        diag = (u * xs.r11, u * xs.r22, (1 - u) * xs.r11 + xs.r33,
                (1 - u) * xs.r22 + xs.r44)
    else:
        diag = (u * xs.r11, (1 - u) * xs.r11 + xs.r22, u * xs.r33,
                (1 - u) * xs.r33 + xs.r44)
    return XState(*diag, root_u * xs.r14, root_u * xs.r23)


def test_channel_field_validation():
    with pytest.raises(InvalidTime):
        EmissionChannel("A", -0.1)
    with pytest.raises(ValueError):
        EmissionChannel("C", 1.0)
    with pytest.raises(ValueError):
        EmissionChannel("A", 1.0, gamma0=0.0)
    with pytest.raises(InvalidTime):
        evolve_states(np.eye(4) / 4, "A", [0.0, 1.0, -0.1])
    with pytest.raises(ValueError):
        evolve_states(np.eye(4) / 4, "C", [1.0])


def test_channel_rejects_nan_gamma0_and_times():
    # NaN fails every comparison, so a check written as "reject if x <= 0" passes it
    nan = float("nan")
    for gamma0 in (nan, np.inf):
        with pytest.raises(ValueError, match="gamma0 must be positive and finite"):
            EmissionChannel("A", 1.0, gamma0=gamma0)
        with pytest.raises(ValueError, match="gamma0 must be positive and finite"):
            evolve_states(np.eye(4) / 4, "A", [1.0], gamma0)
        with pytest.raises(ValueError, match="gamma0 must be positive and finite"):
            lindblad_rhs(np.eye(4) / 4, "A", gamma0)
    with pytest.raises(InvalidTime):
        EmissionChannel("A", nan)
    with pytest.raises(InvalidTime):
        evolve_states(np.eye(4) / 4, "A", [0.5, nan])
    # t = inf stays valid: it is the asymptotic state
    np.testing.assert_allclose(evolve_states(KET_EE, "both", [np.inf])[0], KET_GG, atol=1e-15)
    EmissionChannel("B", np.inf)


def test_dynamics_rejects_anything_but_one_state():
    # a stack must not come back as state i evolved to time i, and other
    # shapes must not fail inside numpy with a broadcasting message
    rho = sample_random_state(0, "full-rank")
    for bad in (np.stack([rho, rho]), np.eye(3) / 3, rho.reshape(16)):
        shape = re.escape(f"got shape {bad.shape}")
        with pytest.raises(states.StateError, match=shape):
            evolve_states(bad, "A", [0.1, 0.2])
        with pytest.raises(states.StateError, match=shape):
            apply_channel(bad, EmissionChannel("both", 0.1))
        with pytest.raises(states.StateError, match=shape):
            lindblad_rhs(bad, "B")
        with pytest.raises(states.StateError, match=shape):
            integrate(bad, "A", 1.0, 0.1)


def _kraus_sum(rho, side, times, gamma0):
    """sum_k K rho K^dagger at each time, the amplitude-damping pair
    K0 = [[sqrt(1-p), 0], [0, 1]], K1 = [[0, 0], [sqrt(p), 0]] on each
    decaying side, summed in the order (no jump, jump) x (no jump, jump)."""
    p = 1.0 - np.exp(-gamma0 * np.asarray(times, dtype=float))
    out = []
    for pt in p:
        k0 = np.array([[np.sqrt(1.0 - pt), 0.0], [0.0, 1.0]], dtype=complex)
        k1 = np.array([[0.0, 0.0], [np.sqrt(pt), 0.0]], dtype=complex)
        ops = {"A": [linalg.kron(k, linalg.I2) for k in (k0, k1)],
               "B": [linalg.kron(linalg.I2, k) for k in (k0, k1)],
               "both": [linalg.kron(a, b) for a in (k0, k1) for b in (k0, k1)]}[side]
        terms = [k @ rho @ k.conj().T for k in ops]
        out.append(sum(terms[1:], terms[0]))
    return np.array(out)


def test_evolve_states_is_the_kraus_sum():
    times = [0.0, 1e-300, 0.4, 1.0, 2.5, 30.0, np.inf]
    for family in ("full-rank", "bell-diagonal", "x-shaped"):
        for seed in range(30):
            rho = sample_random_state(seed, family)
            for side in ("A", "B", "both"):
                for gamma0 in (0.7, 1.0, 2.5):
                    np.testing.assert_array_equal(evolve_states(rho, side, times, gamma0),
                                                  _kraus_sum(rho, side, times, gamma0),
                                                  err_msg=f"{family} {seed} {side} {gamma0}")


def test_evolve_states_builds_no_kraus_stacks():
    # the 1001 output states take 256 kB; Kraus stacks and their products
    # would take 2-4 MB more
    rho = sample_random_state(1, "full-rank")
    times = np.linspace(0.0, 10.0, 1001)
    for side in ("A", "B", "both"):
        evolve_states(rho, side, times)
        tracemalloc.start()
        try:
            evolve_states(rho, side, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (side, peak)


def _phased_x_states(seed, count):
    """Seeded X states, their coherences at random phases and up to their
    positivity limit, then X states with zero populations, zero coherences
    and -0.0 entries, on and off the pattern."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        pops = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        rho = np.diag(pops).astype(complex)
        rho[0, 3] = rng.uniform() * np.sqrt(pops[0] * pops[3]) * np.exp(1j * rng.uniform(0, 6.3))
        rho[1, 2] = rng.uniform() * np.sqrt(pops[1] * pops[2]) * np.exp(1j * rng.uniform(0, 6.3))
        rho[3, 0], rho[2, 1] = rho[0, 3].conjugate(), rho[1, 2].conjugate()
        out.append(rho)
    for pops in ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.5, -0.0, 0.5, 0.0),
                 (0.0, 0.5, 0.5, -0.0), (0.25, 0.25, 0.25, 0.25)):
        out.append(np.diag(pops).astype(complex))
    signed = np.full((4, 4), complex(-0.0, -0.0))
    np.fill_diagonal(signed, [0.5, -0.0, 0.0, 0.5])
    signed[0, 3], signed[3, 0] = complex(-0.0, 0.5), complex(-0.0, -0.5)
    signed[1, 2], signed[2, 1] = complex(0.0, -0.0), complex(-0.0, 0.0)
    out.append(signed)
    bell = np.zeros((4, 4), dtype=complex)
    bell[1, 1] = bell[2, 2] = 0.5
    bell[1, 2] = bell[2, 1] = -0.5
    out.append(bell)
    return out


def test_evolve_x_gives_the_measures_of_the_stack_to_the_bit():
    # the field route against measure_batch on the evolved 4x4 stack, t = 0 included
    grids = (np.linspace(0.0, 6.0, 257), np.array([0.0]), np.array([0.0, 1e-300, 40.0, np.inf]))
    x_family = [sample_random_state(seed, family)
                for family in ("x-shaped", "bell-diagonal") for seed in range(20)]
    for n, rho in enumerate(_phased_x_states(7, 60) + x_family):
        for side in ("A", "B", "both"):
            for gamma0 in (0.3, 1.0, 2.9):
                for t in grids:
                    want = measures.measure_batch(evolve_states(rho, side, t, gamma0))
                    assert list(want[3]) == ["closed-x"] * len(t)
                    got = measures._closed_x(*dynamics._evolve_x(rho, side, t, gamma0))
                    for name, a, b in zip(("d1", "d2", "neg"), got, want):
                        assert a.tobytes() == b.tobytes(), (n, side, gamma0, len(t), name)


def test_evolve_x_checks_the_channel_as_evolve_states_does():
    rho = np.eye(4, dtype=complex) / 4
    for args, error in ((("C", [1.0]), ValueError), (("A", [0.0, -0.1]), InvalidTime),
                        (("A", [np.nan]), InvalidTime), (("A", [1.0], 0.0), ValueError)):
        for fn in (evolve_states, dynamics._evolve_x):
            with pytest.raises(error):
                fn(rho, *args)


def test_apply_channel_identity_at_t0():
    for seed in range(5):
        rho = sample_random_state(seed, "full-rank")
        np.testing.assert_allclose(apply_channel(rho, EmissionChannel("A", 0.0)),
                                   rho, atol=1e-15)


def test_apply_channel_matches_element_tables():
    for seed in range(20):
        xs = to_x_state(sample_random_state(seed, "x-shaped"))
        for side in ("A", "B"):
            for gt in (0.1, 0.7, 2.3):
                out = apply_channel(from_x_state(xs), EmissionChannel(side, gt))
                expected = from_x_state(evolved_x_elements(xs, side, gt))
                np.testing.assert_allclose(out, expected, atol=1e-14)


def test_apply_channel_classical_example():
    rho = families.make_state(families.FamilyParams("classical", w=0.25, s=0.25))
    out = to_x_state(apply_channel(rho, EmissionChannel("A", np.log(2.0))))
    assert abs(out.r11 - 0.125) < 1e-14
    assert abs(out.r22 - 0.125) < 1e-14
    assert abs(out.r33 - 0.375) < 1e-14
    assert abs(out.r44 - 0.375) < 1e-14
    assert abs(out.r14 - 1 / (4 * np.sqrt(2))) < 1e-14
    assert abs(out.r23 - 1 / (4 * np.sqrt(2))) < 1e-14


def test_apply_channel_preserves_x_shape():
    for seed in range(10):
        rho = sample_random_state(seed, "x-shaped")
        for side in ("A", "B", "both"):
            to_x_state(apply_channel(rho, EmissionChannel(side, 0.8)))


def test_apply_channel_cptp():
    gts = (0.1, 0.5, 1.0, 3.0)
    for seed in range(125):
        rho = sample_random_state(seed, "full-rank")
        for gt, side in zip(gts, ("A", "B", "both", "A")):
            out = apply_channel(rho, EmissionChannel(side, gt))
            assert abs(np.trace(out).real - 1.0) < 1e-13
            assert np.min(np.linalg.eigvalsh(out)) > -1e-12


def test_semigroup_and_commutation():
    for seed in range(10):
        rho = sample_random_state(seed, "full-rank")
        for side in ("A", "B"):
            one = apply_channel(apply_channel(rho, EmissionChannel(side, 0.4)),
                                EmissionChannel(side, 0.9))
            two = apply_channel(rho, EmissionChannel(side, 1.3))
            np.testing.assert_allclose(one, two, atol=1e-13)
        ab = apply_channel(apply_channel(rho, EmissionChannel("A", 0.7)),
                           EmissionChannel("B", 0.7))
        ba = apply_channel(apply_channel(rho, EmissionChannel("B", 0.7)),
                           EmissionChannel("A", 0.7))
        both = apply_channel(rho, EmissionChannel("both", 0.7))
        np.testing.assert_allclose(ab, ba, atol=1e-13)
        np.testing.assert_allclose(ab, both, atol=1e-13)
        # the batched map is the one-time map, row by row, to the bit
        for side in ("A", "B", "both"):
            rows = evolve_states(rho, side, [0.0, 0.4, 1.3], 0.8)
            for t, row in zip((0.0, 0.4, 1.3), rows):
                np.testing.assert_array_equal(row, apply_channel(rho, EmissionChannel(side, t, 0.8)))


def test_lindblad_rhs_examples():
    np.testing.assert_allclose(lindblad_rhs(KET_GG, "both"), 0.0, atol=1e-15)

    out = lindblad_rhs(KET_EE, "both", 1.0)
    expected = np.diag([-2.0, 1.0, 1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(out, expected, atol=1e-14)

    for seed in range(10):
        rho = sample_random_state(seed, "full-rank")
        for side in ("A", "B", "both"):
            rhs = lindblad_rhs(rho, side, 1.3)
            assert abs(np.trace(rhs)) < 1e-14
            np.testing.assert_allclose(rhs, rhs.conj().T, atol=1e-14)


SM_A = linalg.kron(linalg.SIGMA_MINUS, linalg.I2)
SM_B = linalg.kron(linalg.I2, linalg.SIGMA_MINUS)
DECAYING = {"A": [SM_A], "B": [SM_B], "both": [SM_A, SM_B]}


def _operator_sum_rhs(rho, side, gamma0):
    """gamma0/2 (2 s- rho s+ - s+ s- rho - rho s+ s-), summed over the decaying sides."""
    out = np.zeros((4, 4), dtype=complex)
    for sm in DECAYING[side]:
        sp = sm.conj().T
        out += 0.5 * gamma0 * (2.0 * sm @ rho @ sp - sp @ sm @ rho - rho @ sp @ sm)
    return out


def test_lindblad_rhs_is_the_operator_sum():
    rng = np.random.default_rng(2024)
    for trial in range(40):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        if trial % 2:
            m = m + m.conj().T
        for side in ("A", "B", "both"):
            np.testing.assert_allclose(lindblad_rhs(m, side, 1.3), _operator_sum_rhs(m, side, 1.3),
                                       rtol=0, atol=1e-15)


def _stepwise_rk4(rho, side, gamma0, t_final, dt):
    """The four-stage RK4 loop on the operator sum, with integrate's step rule."""
    rho = np.asarray(rho, dtype=complex)
    n_full = int(np.floor(t_final / dt + 1e-12))
    rem = t_final - n_full * dt
    for h in [dt] * n_full + ([rem] if rem > 1e-15 else []):
        k1 = _operator_sum_rhs(rho, side, gamma0)
        k2 = _operator_sum_rhs(rho + 0.5 * h * k1, side, gamma0)
        k3 = _operator_sum_rhs(rho + 0.5 * h * k2, side, gamma0)
        k4 = _operator_sum_rhs(rho + h * k3, side, gamma0)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    return rho


def test_integrate_is_stepwise_rk4():
    # t_final = 0.3337 at dt = 1e-3 leaves a remainder step of 7e-4; gamma0 = 1.3
    # checks that the unit-rate generators scale with the rate
    for seed in range(5):
        rho = sample_random_state(seed, "full-rank")
        for side in ("A", "B", "both"):
            for gamma0, t_final in ((1.0, 1.0), (1.0, 0.3337), (1.3, 0.3337)):
                out = integrate(rho, side, gamma0, t_final, dt=1e-3)
                ref = _stepwise_rk4(rho, side, gamma0, t_final, 1e-3)
                assert np.max(np.abs(out - ref)) < 1e-13, (seed, side, gamma0, t_final)


def test_integrate_long_horizon_and_composition():
    for seed in range(5):
        rho = sample_random_state(seed, "full-rank")
        for side in ("A", "B", "both"):
            out = integrate(rho, side, 1.0, 50.0, dt=1e-3)
            exact = apply_channel(rho, EmissionChannel(side, 50.0))
            assert np.max(np.abs(out - exact)) < 1e-8, (seed, side)

            two = integrate(integrate(rho, side, 1.0, 0.4), side, 1.0, 0.6)
            one = integrate(rho, side, 1.0, 1.0)
            assert np.max(np.abs(two - one)) < 1e-13, (seed, side)


def test_integrate_examples():
    rho = families.make_state(families.FamilyParams("discordant", w=0.4, s=0.2))
    np.testing.assert_allclose(integrate(rho, "A", 1.0, 0.0), rho, atol=1e-15)

    out = integrate(rho, "A", 1.0, 1.0, dt=1e-3)
    expected = apply_channel(rho, EmissionChannel("A", 1.0))
    assert np.max(np.abs(out - expected)) < 1e-8

    out = integrate(KET_EE, "both", 1.0, 1.0, dt=1e-3)
    assert abs(out[0, 0].real - np.exp(-2.0)) < 1e-8

    with pytest.raises(StepTooLarge):
        integrate(rho, "A", 1.0, 1.0, dt=0.2)
    # side is checked even where no step runs
    with pytest.raises(ValueError):
        integrate(rho, "C", 1.0, 0.0)

    for seed in range(5):
        full = sample_random_state(seed, "full-rank")
        out = integrate(full, "both", 1.0, 1.0, dt=1e-3)
        assert np.max(np.abs(out - apply_channel(full, EmissionChannel("both", 1.0)))) < 1e-8

    # non-finite inputs are named before any step runs
    for t_final in (np.inf, -np.inf, float("nan")):
        with pytest.raises(InvalidTime, match="t_final must be finite"):
            integrate(rho, "A", 1.0, t_final)
    # a finite horizon whose step count t_final / dt overflows
    with pytest.raises(InvalidTime,
                       match=r"t_final / dt must be finite, got t_final=1e\+300, dt=1e-10"):
        integrate(rho, "A", 1.0, 1e300, dt=1e-10)
    for dt in (0.0, -1e-3, np.inf, float("nan")):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate(rho, "A", 1.0, 1.0, dt=dt)


def _uncached_integrate(rho0, side, gamma0, t_final, dt):
    """integrate's steps with the propagator powers rebuilt on every call."""
    lv = dynamics._liouvillian(side, gamma0)
    eye = np.eye(16)
    n_full = int(np.floor(t_final / dt + 1e-12))
    rem = t_final - n_full * dt
    vec = np.asarray(rho0, dtype=complex).reshape(16)
    for h, count in [(dt, n_full)] + ([(rem, 1)] if rem > 1e-15 else []):
        prop = eye
        for k in (4, 3, 2, 1):
            prop = eye + (h / k) * (lv @ prop)
        vec = np.linalg.matrix_power(prop, count) @ vec
    rho = vec.reshape(4, 4)
    return states.validate(0.5 * (rho + rho.conj().T), tol=1e-8)


def test_integrate_reuses_its_propagators_with_the_same_bits():
    # t_final = 0.3337 leaves a remainder step at both dt; 1.0 leaves none
    calls = [(side, gamma0, t_final, dt) for side in ("A", "B", "both")
             for gamma0 in (1.0, 2.5, 1) for t_final in (1.0, 0.3337) for dt in (1e-3, 0.01)]
    rhos = [sample_random_state(seed, "full-rank") for seed in range(3)]
    rng = np.random.default_rng(7)
    dynamics._propagator.cache_clear()
    for _ in range(2):  # from an empty cache, then after it is cleared
        for i in rng.permutation(2 * len(calls)):  # every call twice, interleaved
            side, gamma0, t_final, dt = calls[i % len(calls)]
            rho = rhos[i % 3]
            got = integrate(rho, side, gamma0, t_final, dt=dt)
            assert got.tobytes() == _uncached_integrate(rho, side, gamma0, t_final, dt).tobytes()
        info = dynamics._propagator.cache_info()
        assert info.hits > 0 and info.currsize <= info.maxsize
        dynamics._propagator.cache_clear()

    # the int rate 1 shares the entries of 1.0
    integrate(rhos[0], "A", 1.0, 0.3337)
    before = dynamics._propagator.cache_info()
    integrate(rhos[0], "A", 1, 0.3337)
    after = dynamics._propagator.cache_info()
    assert (after.currsize, after.hits) == (before.currsize, before.hits + 2)

    # a returned state is the caller's, and the cached powers are read-only
    out = integrate(rhos[1], "both", 1.0, 1.0)
    ref = out.copy()
    out[...] = 0.0
    assert integrate(rhos[1], "both", 1.0, 1.0).tobytes() == ref.tobytes()
    power = dynamics._propagator("both", 1.0, 1e-3, 1000)
    assert not power.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        power[0, 0] = 1.0


def test_integrate_rejects_before_the_cache():
    rho = sample_random_state(0, "full-rank")
    size = dynamics._propagator.cache_info().currsize
    cases = [((1.0, float("nan")), {}, InvalidTime), ((1.0, np.inf), {}, InvalidTime),
             ((float("nan"), 1.0), {}, ValueError), ((1.0, 1.0), {"dt": 0.2}, StepTooLarge),
             ((2.0, 1.0), {"dt": 0.06}, StepTooLarge)]
    for args, kw, error in cases:
        with pytest.raises(error):
            integrate(rho, "A", *args, **kw)
        assert dynamics._propagator.cache_info().currsize == size, args


def test_asymptotic_state_examples():
    rho0 = families.make_state(families.FamilyParams("classical", w=0.25, s=0.25))
    p_ground = np.diag([0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(asymptotic_state(rho0, "A"),
                               linalg.kron(p_ground, linalg.I2 / 2), atol=1e-15)

    rng = np.random.default_rng(33)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p = g @ g.conj().T
    p /= np.trace(p).real
    product = linalg.kron(p, linalg.I2 / 2)
    np.testing.assert_allclose(asymptotic_state(product, "B"),
                               linalg.kron(p, p_ground), atol=1e-15)

    for seed in range(5):
        rho = sample_random_state(seed, "full-rank")
        for side in ("A", "B"):
            far = apply_channel(rho, EmissionChannel(side, 40.0))
            assert trace_distance(far, asymptotic_state(rho, side)) <= 1e-15


def test_asymptotic_state_channel_fixed_point():
    rho = sample_random_state(3, "full-rank")
    for side in ("A", "B"):
        fixed = asymptotic_state(rho, side)
        out = apply_channel(fixed, EmissionChannel(side, 1.7))
        np.testing.assert_allclose(out, fixed, atol=1e-14)


def test_b_side_d1_contractivity():
    gts = np.linspace(0.0, 5.0, 51)
    for seed in range(8):
        xs = to_x_state(sample_random_state(seed, "x-shaped"))
        values = []
        for gt in gts:
            ev = apply_channel(from_x_state(xs), EmissionChannel("B", float(gt)))
            values.append(measures.d1_x_with_method(to_x_state(ev))[0])
        diffs = np.diff(np.array(values))
        assert np.max(diffs) <= 1e-8


def test_b_side_verdict_on_every_state():
    # the paper's verdict beyond the X families: under emission of the
    # unmeasured atom B the trace-norm discord never grows (it contracts under
    # any channel on B), while the Hilbert-Schmidt one grows on some states
    ts = np.linspace(0.0, 4.0, 81)
    risers = {}
    for family in ("full-rank", "bell-diagonal"):
        for seed in range(300):
            rho = sample_random_state(seed, family)
            d1, d2, _, _ = measures.measure_batch(evolve_states(rho, "B", ts))
            assert np.max(np.diff(d1)) <= 1e-12, (family, seed)
            if np.max(d2) > d2[0] + 1e-9:
                assert d1[-1] < d1[0], (family, seed)
                risers[(family, seed)] = (np.max(d2) - d2[0], d1[0] - d1[-1])
    assert sorted(risers) == [("full-rank", seed) for seed in (74, 85, 154, 260, 286)]
    d2_rise, d1_fall = risers[("full-rank", 260)]
    assert d2_rise > 7e-3 and d1_fall > 0.19
