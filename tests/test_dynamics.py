"""Emission channels: Kraus action, element tables, the Lindblad generator,
the RK4 cross-check oracle and asymptotic states."""

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
