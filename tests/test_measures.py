"""Correlation measures: closed forms, the oracles' objectives against the
measurement map, negativity and the brute-force minimization oracles."""

from fractions import Fraction

import numpy as np
import pytest

from discordlab import dynamics, families, linalg, measures, states
from discordlab.measures import (
    d1_closed_x,
    d1_exact,
    d1_oracle,
    d1_x_with_method,
    d2_closed,
    d2_oracle,
    is_degenerate_x,
    measure_batch,
    negativity,
)
from discordlab.states import XState, from_x_state, sample_random_state, to_x_state

MAXMIX = np.eye(4, dtype=complex) / 4


def theta_state(theta):
    return families.make_state(families.FamilyParams("theta", theta=theta))


def bell_phi_plus():
    return from_x_state(XState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0))


def random_product_state(seed):
    rng = np.random.default_rng(seed)

    def qubit():
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T
        return m / np.trace(m).real

    return linalg.kron(qubit(), qubit())


def random_local_unitary(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unit(v):
    a = np.asarray(v, dtype=float)
    return a / np.sqrt(a @ a)


def z_phased(rho, a, b):
    """rho under local z-rotations by the angles a on A and b on B."""
    u = np.diag(np.kron([np.exp(0.5j * a), np.exp(-0.5j * a)],
                        [np.exp(0.5j * b), np.exp(-0.5j * b)]))
    return u @ rho @ u.conj().T


def random_z_phases(rho, seed):
    """rho under a local z-rotation of each qubit: X states get complex corners."""
    return z_phased(rho, *np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 2))


def found_state():
    """A phased X state on which the oracle's Nelder-Mead once stopped at 0.2106."""
    m = np.diag([0.0651, 0.0988, 0.496, 0.3401]).astype(complex)
    m[0, 3] = 0.0058 * np.exp(0.97j)
    m[1, 2] = 0.0995 * np.exp(-0.55j)
    m[3, 0], m[2, 1] = np.conj(m[0, 3]), np.conj(m[1, 2])
    return m


def measured(rho, axes):
    """sum_pm (P_pm x I) rho (P_pm x I) for each axis n of axes (..., 3), from
    the explicit projectors P_pm = (I +- n.sigma)/2."""
    n_sigma = np.tensordot(np.asarray(axes, dtype=float), np.stack(linalg.PAULIS), 1)
    out = 0.0
    for sign in (1.0, -1.0):
        p = linalg.kron(0.5 * (linalg.I2 + sign * n_sigma), linalg.I2)
        out = out + p @ np.asarray(rho, dtype=complex) @ p
    return out


def axes_of(tp):
    """Unit axes (k, 3) of angle pairs (theta, phi) (k, 2)."""
    th, ph = np.asarray(tp, dtype=float).T
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], 1)


def assert_objectives_match_eigensolver(rho, tp):
    """The oracles' objectives on the angle pairs tp against ||rho - Pi_n(rho)||_1
    from eigvalsh and 2 ||rho - Pi_n(rho)||_2^2 of the projector reference."""
    tp = np.asarray(tp, dtype=float)
    delta = rho - measured(rho, axes_of(tp))
    trace_norm = np.sum(np.abs(np.linalg.eigvalsh(delta)), axis=-1)
    hs = 2.0 * np.sum(np.abs(delta) ** 2, axis=(-2, -1))
    np.testing.assert_allclose(measures._d1_objective(rho, tp), trace_norm, rtol=0, atol=1e-14)
    np.testing.assert_allclose(measures._d2_objective(rho, tp), hs, rtol=0, atol=1e-14)


# the poles, phi at and next to +-pi, and a few generic pairs
EDGE_ANGLES = [(0.0, 0.0), (np.pi, 0.0), (0.0, 1.3), (np.pi, -2.1), (0.7, np.pi),
               (1.9, -np.pi), (2.4, np.nextafter(np.pi, 0.0)), (0.3, np.nextafter(-np.pi, 0.0)),
               (1e-9, 0.4), (np.pi - 1e-9, -0.4)]


def test_measure_map_examples():
    axis = unit([0.3, -0.5, 0.8])
    np.testing.assert_allclose(measured(MAXMIX, axis), MAXMIX, atol=1e-15)

    rho_c = families.make_state(families.FamilyParams("classical", w=0.2, s=0.2))
    np.testing.assert_allclose(measured(rho_c, [1.0, 0.0, 0.0]), rho_c, atol=1e-14)

    dephased = measured(bell_phi_plus(), [0.0, 0.0, 1.0])
    np.testing.assert_allclose(dephased, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)

    # the objectives from the off-diagonal block, on these states and on the
    # edges of the angle chart
    for rho in (MAXMIX, rho_c, bell_phi_plus(), theta_state(0.3), found_state()):
        assert_objectives_match_eigensolver(rho, EDGE_ANGLES)


def test_measure_map_idempotent():
    rng = np.random.default_rng(17)
    for seed in range(10):
        rho = sample_random_state(seed, "full-rank")
        axis = unit(rng.standard_normal(3))
        once = measured(rho, axis)
        np.testing.assert_allclose(measured(once, axis), once, atol=1e-13)
        assert abs(np.trace(once) - 1.0) < 1e-14

    # the objectives on seeded states of each kind, over a lattice and the edges
    tp = np.concatenate([measures._fibonacci_angles(100), EDGE_ANGLES])
    for seed in range(10):
        for kind in ("full-rank", "x-shaped", "bell-diagonal"):
            rho = sample_random_state(seed, kind)
            assert_objectives_match_eigensolver(rho, tp)
            assert_objectives_match_eigensolver(random_z_phases(rho, seed), tp)


def test_d2_closed_examples():
    assert abs(d2_closed(theta_state(np.pi / 4)) - 0.25) < 1e-12
    for seed in range(10):
        assert d2_closed(random_product_state(seed)) < 1e-12
    rho_d = families.make_state(families.FamilyParams("discordant", w=0.2, s=0.2))
    assert abs(d2_closed(rho_d) - 0.02) < 1e-12


def test_d2_closed_theta_formula():
    for theta in np.linspace(0.0, np.pi / 2, 41):
        expected = min(0.5 * np.sin(theta) ** 2, 0.25 * np.sin(2 * theta) ** 2)
        assert abs(d2_closed(theta_state(theta)) - expected) < 1e-12


def test_d1_closed_examples():
    assert abs(d1_closed_x(to_x_state(theta_state(np.pi / 4))) - 0.5) < 1e-12
    for w in (0.1, 0.25, 0.4):
        for frac in (0.3, 1.0):
            s = families.s_max(w) * frac
            rho_c = families.make_state(families.FamilyParams("classical", w=w, s=s))
            assert d1_closed_x(to_x_state(rho_c)) < 1e-12
    rho_d = families.make_state(families.FamilyParams("discordant", w=0.2, s=0.2))
    expected = 0.16 / np.sqrt(0.68)
    assert abs(d1_closed_x(to_x_state(rho_d)) - expected) < 1e-12
    # r14 = 1e-9 puts this state next to the degenerate set x = 0, |a1| = |a2| = |a3|
    assert abs(d1_closed_x(XState(0.1, 0.4, 0.4, 0.1, 1e-9, 0.3)) - 0.6) <= 4e-16


def test_d1_method_flags():
    val, method = d1_x_with_method(to_x_state(theta_state(np.pi / 4)))
    assert method == "closed-x" and abs(val - 0.5) < 1e-12

    # all coefficients vanish: trivially zero through the closed form
    val, method = d1_x_with_method(to_x_state(MAXMIX))
    assert (val, method) == (0.0, "closed-x")

    bell = to_x_state(bell_phi_plus())
    assert is_degenerate_x(bell)
    val, method = d1_x_with_method(bell)
    assert method == "closed-x" and abs(val - 1.0) < 1e-12


def test_x_coefficients_invariants():
    for seed in range(10):
        xs = to_x_state(sample_random_state(seed, "x-shaped"))
        a1, a2, a3, x, _ = measures._x_kernel_args(xs.r11, xs.r22, xs.r33, xs.r14, xs.r23)
        assert max(abs(a1), abs(a2), abs(a3), abs(x)) <= 1 + 1e-10


def test_negativity_examples():
    assert abs(negativity(bell_phi_plus()) - 1.0) < 1e-12
    expected = (2 * np.sqrt(2) - 2) / 4
    assert abs(negativity(theta_state(np.pi / 4)) - expected) < 1e-12
    assert negativity(theta_state(np.pi / 2)) < 1e-12
    for theta in np.linspace(0.0, np.pi / 2, 21):
        expected = max(0.0, (np.sqrt(6 - 2 * np.cos(4 * theta)) - 2) / 4)
        assert abs(negativity(theta_state(theta)) - expected) < 1e-12


def test_d2_oracle_examples():
    val, _axis = d2_oracle(MAXMIX)
    assert val < 1e-10
    val, _axis = d2_oracle(theta_state(np.pi / 4))
    assert abs(val - 0.25) < 1e-6


def test_d1_oracle_examples():
    for seed in range(3):
        val, _axis = d1_oracle(random_product_state(seed))
        assert val < 1e-8
        assert d1_exact(random_product_state(seed)) < 1e-12
    val, _axis = d1_oracle(theta_state(np.pi / 6))
    assert abs(val - 0.5 * np.sin(np.pi / 3)) < 1e-5
    assert abs(d1_exact(theta_state(np.pi / 6)) - 0.5 * np.sin(np.pi / 3)) < 1e-12
    val, _axis = d1_oracle(bell_phi_plus())
    assert abs(val - 1.0) < 1e-5
    assert abs(d1_exact(bell_phi_plus()) - 1.0) < 1e-12
    assert d1_exact(MAXMIX) == 0.0


def test_oracle_axis_deterministic_and_unit():
    rho = sample_random_state(12, "x-shaped")
    v1, a1 = d1_oracle(rho)
    v2, a2 = d1_oracle(rho)
    assert v1 == v2
    np.testing.assert_array_equal(a1, a2)
    assert abs(np.linalg.norm(a1) - 1.0) < 1e-12


def test_minimize_repeats_scipy_nelder_mead():
    # the same points evaluated in the same order, so the same x, fun and nit;
    # lattice index 0 has phi = 0 and (0, 0) two zero coordinates, where the
    # first simplex steps to 0.00025, I/4 ties every value at 0, the d1
    # objective rounded to two decimals ties values in every comparison, and
    # full-rank seed 14 reaches the 200-iteration cap from lattice index 0
    from scipy.optimize import minimize as scipy_minimize

    def rounded_d1(rho, tp):
        return np.round(measures._d1_objective(rho, tp), 2)

    def traced(objective, rho, seen):
        def fun(p):
            seen.append(tuple(p))
            return objective(rho, p[None])[0]
        return fun

    tp = measures._fibonacci_angles(2000)
    cases = []
    for rho in [MAXMIX, theta_state(np.pi / 6)]:
        cases += [(rho, measures._d1_objective), (rho, measures._d2_objective)]
    for seed in (0, 1, 2, 3, 14):
        rho = sample_random_state(seed, "full-rank")
        cases += [(rho, measures._d1_objective), (rho, measures._d2_objective), (rho, rounded_d1)]
        for kind in ("x-shaped", "bell-diagonal"):
            rho = random_z_phases(sample_random_state(seed, kind), seed)
            cases += [(rho, measures._d1_objective), (rho, measures._d2_objective)]
    for rho, objective in cases:
        best = np.argmin(objective(rho, tp))
        for x0 in (tp[best], tp[0], tp[1999], np.zeros(2)):
            seen, ref_seen = [], []
            got = measures.minimize(traced(objective, rho, seen), x0)
            want = scipy_minimize(traced(objective, rho, ref_seen), x0, method="Nelder-Mead",
                                  options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-14})
            assert seen == ref_seen
            assert np.array_equal(got.x, want.x)
            assert got.fun == want.fun and got.nit == want.nit


def test_local_unitary_invariance():
    for seed in (0, 1):
        rho = sample_random_state(seed, "full-rank")
        u = linalg.kron(random_local_unitary(seed + 100), random_local_unitary(seed + 200))
        rotated = u @ rho @ u.conj().T
        assert abs(d2_closed(rotated) - d2_closed(rho)) < 1e-10
        assert abs(negativity(rotated) - negativity(rho)) < 1e-10
        d1_a = d1_oracle(rho)[0]
        d1_b = d1_oracle(rotated)[0]
        assert abs(d1_a - d1_b) < 1e-4
        assert abs(d1_exact(rotated) - d1_exact(rho)) < 1e-12


def test_hypot_objective_matches_eigensolver():
    # the trace norm from the spread of S, against eigvalsh of rho - Pi_n(rho),
    # on 200 lattice axes and on both kinks
    for seed in range(20):
        rho = sample_random_state(seed, "full-rank")
        bd = states.bloch(rho)
        x, t = bd.x_vec, bd.corr
        kinks = measures._kink_axes(np.outer(x, x) - t @ t.T)
        axes = np.concatenate([axes_of(measures._fibonacci_angles(200)), kinks])
        got = np.sqrt(measures._objective_sq(x, t, axes))
        want = np.sum(np.abs(np.linalg.eigvalsh(rho - measured(rho, axes))), axis=-1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_d1_exact_hard_cases():
    # a smooth minimum 1e-3 from a kink and 1.8e-7 below the kink's value
    assert abs(d1_exact(sample_random_state(290, "full-rank")) - 0.2633421097424115) < 1e-12
    assert abs(d1_exact(found_state()) - 0.2101993252624578) < 1e-12


def test_d1_exact_degenerate_cases():
    # x along the middle eigenvector of T T^T: the kinks reach its eigenvalue
    rho = states.from_bloch([0.0, 0.1, 0.0], [0.0, 0.0, 0.0], np.diag([0.5, 0.3, 0.1]))
    assert abs(d1_exact(rho) - 0.3) < 1e-12
    # a repeated top eigenvalue of T T^T with x off its eigenvectors
    rho = states.from_bloch([0.15, 0.0, 0.2], [0.0, 0.0, 0.0], np.diag([0.4, -0.4, 0.1]))
    assert abs(d1_exact(rho) - 0.4) < 1e-12
    # pure states: x along the top eigenvector; D1 is the concurrence
    rng = np.random.default_rng(3)
    for _ in range(5):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        concurrence = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        assert abs(d1_exact(np.outer(psi, psi.conj())) - concurrence) < 1e-12


def test_d1_exact_near_zeros_of_d1_under_local_unitaries():
    # discordant states with w > 1/4 evolved on side A to gamma0 t = ln(4w),
    # where D1 is zero, and to 1e-12, 1e-9 and 1e-6 of it: there the top two
    # eigenvalues of S differ by D1^2, at or near rounding level, so the
    # kinks computed from that gap lean about 1e-8 off the true ones
    rng = np.random.default_rng(0)
    members = [families.FamilyParams("discordant", w=0.4, s=0.2)]  # figure 5
    for w in rng.uniform(0.26, 0.49, 19):
        members.append(families.FamilyParams("discordant", w=w,
                                             s=rng.uniform(0.05, 1.0) * families.s_max(w)))
    rhos, want = [], []
    for k, p in enumerate(members):
        for offset in (0.0, 1e-12, -1e-9, 1e-6):
            gt = np.log(4.0 * p.w) * (1.0 + offset)
            rho = dynamics.evolve_states(families.make_state(p), "A", np.array([gt]), 1.0)[0]
            u = linalg.kron(random_local_unitary(1000 + k), random_local_unitary(2000 + k))
            rhos.append(u @ rho @ u.conj().T)
            want.append(d1_closed_x(to_x_state(rho)))
    got = np.array([d1_exact(rho) for rho in rhos])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    d1, _, _, route = measure_batch(np.array(rhos))
    assert set(route) == {"exact"}
    np.testing.assert_allclose(d1, want, rtol=0, atol=1e-14)


def test_d1_exact_matches_x_kernel_under_local_phases():
    for seed in range(300):
        rho = sample_random_state(seed, "x-shaped")
        want = d1_closed_x(to_x_state(rho))
        assert abs(d1_exact(random_z_phases(rho, seed)) - want) < 1e-12


def test_d1_exact_never_above_oracle():
    for seed in range(50):
        rho = sample_random_state(seed, "full-rank")
        d1 = d1_exact(rho)
        assert d1 <= d1_oracle(rho)[0] + 1e-12
        assert d1 * d1 >= d2_closed(rho) - 1e-12


def near_x_boundary(size):
    """A negative coherence, an imaginary coherence part and an off-pattern
    entry of the given size: inside to_x_state's 1e-10 limits at 1e-11,
    outside them at 1e-9.  measure_batch routes the first two "closed-x"
    and the third "exact" at either size."""
    base = from_x_state(XState(0.3, 0.25, 0.25, 0.2, 0.1, 0.05))
    out = []
    for j, k, v in ((0, 3, -size), (1, 2, 0.05 + 1j * size), (0, 1, size)):
        m = base.copy()
        m[j, k], m[k, j] = v, np.conj(v)
        out.append(m)
    return out


def test_measure_batch_matches_scalar_path():
    # X, phased X, Bell-diagonal with a negative coherence, full rank, and
    # both sides of to_x_state's limits, all in one batch: every row with
    # exact zeros off the X pattern takes the closed form on its coherences'
    # moduli, and every other row, a 1e-11 stray included, d1_exact of the
    # matrix itself
    batch = [sample_random_state(seed, "x-shaped") for seed in range(4)]
    batch += [random_z_phases(sample_random_state(seed, "x-shaped"), seed) for seed in range(4)]
    for c in ((-0.3, 0.2, 0.1), (0.1, 0.4, -0.2), (-0.5, -0.1, -0.3)):
        batch.append(states.from_bloch(np.zeros(3), np.zeros(3), np.diag(c)))
    batch += [sample_random_state(seed, "full-rank") for seed in range(4)]
    batch += near_x_boundary(1e-11) + near_x_boundary(1e-9)
    d1, d2, neg, route = measure_batch(np.array(batch))
    assert list(route) == (["closed-x"] * 11 + ["exact"] * 4
                           + (["closed-x"] * 2 + ["exact"]) * 2)
    for k, rho in enumerate(batch):
        if np.any(rho[~states._X_PATTERN]):
            want, method = d1_exact(rho), "exact"
        else:
            want, method = d1_x_with_method(gauged_x(rho))
        assert route[k] == method
        assert abs(d1[k] - want) <= 1e-14
        assert abs(d2[k] - d2_closed(rho)) <= 1e-14
        assert abs(neg[k] - negativity(rho)) <= 1e-14
    # on the exact X states the eigensolved d2 is the X-state kernel's value
    for rho, d2_eig in zip(batch[:4], d2[:4]):
        xs = to_x_state(rho)
        args = measures._x_kernel_args(xs.r11, xs.r22, xs.r33, xs.r14, xs.r23)
        assert abs(d2_eig - measures.d2_x_kernel(*args[:4])) <= 1e-15


def mixed_stack():
    """X rows interleaved with full-rank rows, a phased X row, I/4, an
    isotropic Bell-diagonal state off the X route, pure states and x = 0."""
    rng = np.random.default_rng(5)
    pure = []
    for _ in range(2):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pure.append(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
    odd = [
        random_z_phases(sample_random_state(7, "x-shaped"), 7),
        MAXMIX,
        states.from_bloch(np.zeros(3), np.zeros(3), -0.2 * np.eye(3)),  # c1 = c2 = c3
        *pure,
        states.from_bloch(np.zeros(3), [0.1, 0.0, 0.1], [[0.2, 0.1, 0.0], [0.1, -0.2, 0.0],
                                                          [0.0, 0.0, 0.1]]),  # x = 0
    ]
    batch = []
    for k, rho in enumerate(odd):
        batch += [sample_random_state(k, "x-shaped"), rho, sample_random_state(k, "full-rank")]
    return np.array(batch)


def test_measure_batch_rows_are_independent():
    # the same bits for a row whether it is measured in the stack, in a
    # permutation of it or alone, and d1 equal to its one-state route
    batch = mixed_stack()
    whole = measure_batch(batch)
    perm = np.random.default_rng(16).permutation(len(batch))
    shuffled = measure_batch(batch[perm])
    assert set(whole[3]) == {"closed-x", "exact"}
    for k, rho in enumerate(batch):
        alone = measure_batch(rho)
        at = int(np.flatnonzero(perm == k)[0])
        for got, moved, one in zip(whole, shuffled, alone):
            assert got[k] == moved[at] == one[0]
        want = d1_closed_x(gauged_x(rho)) if whole[3][k] == "closed-x" else d1_exact(rho)
        assert whole[0][k] == want


def test_measure_batch_eigensolves_do_not_grow_with_the_stack(monkeypatch):
    # d1 of every non-X row comes from one batched call, not one call per row
    stacks = [np.array([sample_random_state(seed, "full-rank") for seed in range(n)])
              for n in (1, 50)]
    eigh, calls = np.linalg.eigh, []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    counts = []
    for stack in stacks:
        calls.clear()
        assert list(measure_batch(stack)[3]) == ["exact"] * len(stack)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def evolved_x_stack():
    """Family states under emission on every side, at times from 0 to inf."""
    times = np.array([0.0, 1e-3, 0.4, 1.0, 2.5, 30.0, np.inf])
    out = []
    for p in (families.FamilyParams("classical", w=0.25, s=0.25),
              families.FamilyParams("discordant", w=0.4, s=0.2),
              families.FamilyParams("theta", theta=0.7),
              families.FamilyParams("theta", theta=1.5692255304681018)):
        for side in ("A", "B", "both"):
            out += list(dynamics.evolve_states(families.make_state(p), side, times, 1.0))
    return np.array(out)


def phased_x_stack(n):
    """Seeded X states under local z-rotations, half with negative coherences."""
    out = []
    for seed in range(n):
        rho = random_z_phases(sample_random_state(seed, "x-shaped"), seed)
        if seed % 2:  # a phase of pi on both coherences
            rho[[0, 1, 2, 3], [3, 2, 1, 0]] *= -1.0
        out.append(rho)
    return np.array(out)


def test_measure_batch_x_rows_make_no_eigensolves(monkeypatch):
    # rows with exact zeros off the X pattern take d1, d2 and the negativity
    # in closed form, whatever the phases of their coherences: no eigensolve
    # and no Bloch decomposition
    stack = np.concatenate([evolved_x_stack(), phased_x_stack(20),
                            [sample_random_state(seed, "bell-diagonal") for seed in range(20)]])
    calls = []
    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        def counted(*args, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def bloch(*args, _fn=states.bloch, **kwargs):
        calls.append("bloch")
        return _fn(*args, **kwargs)

    monkeypatch.setattr(states, "bloch", bloch)
    route = measure_batch(stack)[3]
    assert set(route) == {"closed-x"}
    assert calls == []


def two_test_rule(stack):
    """measure_batch spelled out: exact zeros off the X pattern route d1, d2
    and the negativity alike, each block of the partial transpose taken in
    turn."""
    a = np.asarray(stack, dtype=complex)
    on = ~np.any(a[:, ~states._X_PATTERN], axis=-1)
    d1, d2, neg = np.empty(len(a)), np.empty(len(a)), np.empty(len(a))
    r11, r22, r33, r44 = np.diagonal(a[on], axis1=-2, axis2=-1).real.T
    r14, r23 = np.abs(a[on, 0, 3]), np.abs(a[on, 1, 2])
    args = measures._x_kernel_args(r11, r22, r33, r14, r23)
    d1[on], d2[on] = measures.d1_x_kernel(*args), measures.d2_x_kernel(*args[:4])
    neg_on = np.zeros(np.count_nonzero(on))
    for p, q, c in ((r11, r44, r23), (r22, r33, r14)):
        top = 0.5 * (p + q) + np.hypot(0.5 * (p - q), c)
        neg_on -= np.minimum((p * q - c * c) / np.where(top == 0.0, 1.0, top), 0.0)
    neg[on] = 2.0 * neg_on
    bd = states.bloch(a)
    d2[~on] = measures._d2(bd.x_vec[~on], bd.corr[~on])
    neg[~on] = measures._negativity(a[~on])
    d1[~on] = measures._d1_exact(bd.x_vec[~on], bd.corr[~on])
    return d1, d2, neg, np.where(on, "closed-x", "exact")


def test_measure_batch_equals_the_two_test_rule():
    # one read of each row decides the route, with the same bits and routes as
    # the reference, on rows at and around to_x_state's limits
    rng = np.random.default_rng(2707)
    stack = [*evolved_x_stack(), *phased_x_stack(40)]
    for seed in range(40):
        base = sample_random_state(seed, "x-shaped")
        for j, k, v in ((0, 1, 1e-11), (1, 3, -1e-11j), (0, 2, 2e-10), (0, 3, 1e-11j),
                        (1, 2, -1e-11j), (0, 3, 2e-10j)):
            m = base.copy()
            m[j, k] += v
            m[k, j] = np.conj(m[j, k])
            stack.append(m)
        for j, k in ((0, 3), (1, 2)):  # a coherence at -1e-11 and at -2e-10
            for v in (-1e-11, -2e-10):
                m = base.copy()
                m[j, k] = m[k, j] = v
                stack.append(m)
        # at the limits themselves: an off-pattern entry, a coherence's
        # imaginary part and its negative real part at TOL in modulus, at the
        # next double beyond, and at -0.0
        (j, k), (p, q) = ((0, 1), (0, 2), (1, 3), (2, 3))[seed % 4], ((0, 3), (1, 2))[seed % 2]
        r = base[p, q].real
        cases = [((p, q), complex(r, -0.0)), ((p, q), complex(-0.0, 0.0)),
                 ((p, q), complex(-0.0, -0.0)), ((j, k), complex(-0.0, 0.0)),
                 ((j, k), complex(0.0, -0.0)), ((j, k), complex(-0.0, -0.0))]
        for tol in (states.TOL, np.nextafter(states.TOL, 1.0)):
            cases += [((j, k), complex(tol, 0.0)), ((j, k), complex(-tol, 0.0)),
                      ((j, k), complex(0.0, tol)), ((j, k), complex(0.0, -tol)),
                      ((p, q), complex(r, tol)), ((p, q), complex(r, -tol)),
                      ((p, q), complex(-tol, 0.0))]
        for (u, v), entry in cases:
            m = base.copy()
            m[u, v], m[v, u] = entry, np.conj(entry)
            stack.append(m)
        stack.append(sample_random_state(seed, "full-rank"))
        stack.append(sample_random_state(seed, "bell-diagonal"))
    stack = np.array(stack)[rng.permutation(len(stack))]
    got, want = measure_batch(stack), two_test_rule(stack)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    routes = set(zip(got[3], ~np.any(stack[:, ~states._X_PATTERN], axis=-1)))
    assert routes == {("closed-x", True), ("exact", False)}


def test_measure_batch_x_rows_take_the_closed_form_on_the_moduli():
    # a zero of d1 under local z-phases: the figure 5 state evolved on side A
    # to gamma0 t = ln 1.6, where d1_exact reads 5.27e-9
    fig5 = families.make_state(families.FamilyParams("discordant", w=0.4, s=0.2))
    rho = dynamics.evolve_states(fig5, "A", np.array([np.log(1.6)]), 1.0)[0]
    d1, _, _, route = measure_batch(z_phased(rho, 0.9, -0.4))
    assert route[0] == "closed-x" and d1[0] <= 1e-15
    # seeded x-shaped and Bell-diagonal rows as sampled, under local z-phases
    # and with both coherences negated
    rows = []
    for kind in ("x-shaped", "bell-diagonal"):
        for seed in range(100):
            rho = sample_random_state(seed, kind)
            negated = rho.copy()
            negated[[0, 1, 2, 3], [3, 2, 1, 0]] *= -1.0
            rows += [rho, random_z_phases(rho, seed), negated]
    stack = np.array(rows)
    d1, _, _, route = measure_batch(stack)
    assert set(route) == {"closed-x"}
    r11, r22, r33, _ = np.diagonal(stack, axis1=-2, axis2=-1).real.T
    args = measures._x_kernel_args(r11, r22, r33, np.abs(stack[:, 0, 3]), np.abs(stack[:, 1, 2]))
    assert d1.tobytes() == measures.d1_x_kernel(*args).tobytes()
    assert max(abs(got - d1_exact(rho)) for rho, got in zip(stack, d1)) <= 1e-15
    # rows with real, non-negative coherences: the bits of to_x_state's route
    kept = 0
    for rho, got in zip(stack, d1):
        coh = rho[[0, 1], [3, 2]]
        if not np.any(coh.imag) and np.all(coh.real >= 0.0):
            assert got == d1_closed_x(to_x_state(rho))
            kept += 1
    assert kept >= 100


def test_to_x_state_reads_the_coherences_moduli():
    # a coherence at -1e-11 or -1e-10, or with an imaginary part of 1e-11,
    # lies within to_x_state's limits; to_x_state reads its modulus, as
    # measure_batch does, so both routes give the same d1 bits
    rows = []
    for seed in range(100):
        base = sample_random_state(seed, "x-shaped")
        rows.append(base)
        for j, k in ((0, 3), (1, 2)):
            for v in (-1e-11, -1e-10, base[j, k] + 1e-11j):
                m = base.copy()
                m[j, k], m[k, j] = v, np.conj(v)
                rows.append(m)
    d1, _, _, route = measure_batch(np.array(rows))
    assert set(route) == {"closed-x"}
    for rho, got in zip(rows, d1):
        xs = to_x_state(rho)
        np.testing.assert_allclose([xs.r14, xs.r23], [abs(rho[0, 3]), abs(rho[1, 2])],
                                   rtol=1e-15, atol=0)
        assert d1_closed_x(xs) == got


def exact_x_d2(rho):
    """Half the smallest pairwise sum of (a1^2, a2^2, a3^2 + x^2), exactly, from
    the entries of an X state with real coherences."""
    r = [[Fraction(float(v.real)) for v in row] for row in rho]
    assert not np.any(np.asarray(rho).imag)
    r11, r22, r33, r14, r23 = r[0][0], r[1][1], r[2][2], abs(r[0][3]), abs(r[1][2])
    k = (4 * (r23 + r14) ** 2, 4 * (r23 - r14) ** 2,
         (1 - 2 * (r22 + r33)) ** 2 + (2 * (r11 + r22) - 1) ** 2)
    return min(k[0] + k[1], k[0] + k[2], k[1] + k[2]) / 2


def test_x_d2_is_the_exact_closed_form():
    # relative 1e-15, with an absolute floor for the classical state under
    # side-B emission, whose d2 is 0 up to the rounding of its populations
    # (about 3e-33 on the stored entries)
    thetas = np.append(np.linspace(0.0, np.pi / 2, 101), 1.5692255304681018)
    stack = np.concatenate([families.theta_states(thetas), evolved_x_stack()])
    d2 = measure_batch(stack)[1]
    for rho, got in zip(stack, d2):
        want = exact_x_d2(rho)
        assert abs(Fraction(float(got)) - want) <= Fraction(1e-15) * want + Fraction(1e-30)


def test_x_negativity_matches_eigensolver():
    stack = np.concatenate([phased_x_stack(200), evolved_x_stack(),
                            families.theta_states([0.0, np.pi / 4, np.pi / 2]), [MAXMIX]])
    neg = measure_batch(stack)[2]
    want = np.array([negativity(rho) for rho in stack])
    assert np.max(np.abs(neg - want)) <= 1e-15
    assert np.all(neg >= 0.0) and not np.any(np.signbit(neg))  # no -0 either
    assert np.count_nonzero(neg == 0.0) >= 10 and np.count_nonzero(neg > 0.01) >= 10


def gauged_x(rho):
    """XState of rho with corner phases removed by local rotations,
    which leave every measure here invariant."""
    a = np.asarray(rho, dtype=complex)
    return XState(a[0, 0].real, a[1, 1].real, a[2, 2].real, a[3, 3].real,
                  abs(a[0, 3]), abs(a[1, 2]))


def test_corner_sign_gauge_is_sound():
    # flipping a corner sign is a local phase, so d1 must not move
    for seed in (0, 1, 2):
        rho = sample_random_state(seed, "bell-diagonal")
        val = d1_closed_x(gauged_x(rho))
        ref, _ = d1_oracle(rho)
        assert abs(val - ref) < 1e-5
        assert abs(d1_exact(rho) - val) < 1e-12


def test_chain_on_bell_diagonal_sample():
    # small fast version; the full-size run lives in the acceptance suite
    for seed in range(200):
        rho = sample_random_state(seed, "bell-diagonal")
        d1 = d1_closed_x(gauged_x(rho))
        root_d2 = np.sqrt(d2_closed(rho))
        assert d1 >= root_d2 - 1e-9
        assert root_d2 >= negativity(rho) - 1e-9


def test_theta_family_chain_regions():
    for theta in np.linspace(0.02, np.pi / 4 - 0.02, 15):
        rho = theta_state(theta)
        d1 = d1_closed_x(to_x_state(rho))
        root_d2 = np.sqrt(d2_closed(rho))
        n = negativity(rho)
        assert d1 > root_d2 > n
    for theta in np.linspace(np.pi / 4, np.pi / 2, 15):
        rho = theta_state(theta)
        assert abs(d1_closed_x(to_x_state(rho)) - np.sqrt(d2_closed(rho))) < 1e-10
