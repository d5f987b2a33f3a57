"""Correlation measures: closed forms, the measurement map, negativity and
the brute-force minimization oracles."""

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


def random_z_phases(rho, seed):
    """rho under a local z-rotation of each qubit: X states get complex corners."""
    a, b = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 2)
    u = np.diag(np.kron([np.exp(0.5j * a), np.exp(-0.5j * a)],
                        [np.exp(0.5j * b), np.exp(-0.5j * b)]))
    return u @ rho @ u.conj().T


def found_state():
    """A phased X state on which the oracle's Nelder-Mead once stopped at 0.2106."""
    m = np.diag([0.0651, 0.0988, 0.496, 0.3401]).astype(complex)
    m[0, 3] = 0.0058 * np.exp(0.97j)
    m[1, 2] = 0.0995 * np.exp(-0.55j)
    m[3, 0], m[2, 1] = np.conj(m[0, 3]), np.conj(m[1, 2])
    return m


def measured(rho, axis):
    """sum_pm (P_pm x I) rho (P_pm x I) for one axis, through the oracles' batch map."""
    return measures._measured_batch(np.asarray(rho, dtype=complex), np.asarray([axis]))[0]


def test_measure_map_examples():
    axis = unit([0.3, -0.5, 0.8])
    np.testing.assert_allclose(measured(MAXMIX, axis), MAXMIX, atol=1e-15)

    rho_c = families.make_state(families.FamilyParams("classical", w=0.2, s=0.2))
    np.testing.assert_allclose(measured(rho_c, [1.0, 0.0, 0.0]), rho_c, atol=1e-14)

    dephased = measured(bell_phi_plus(), [0.0, 0.0, 1.0])
    np.testing.assert_allclose(dephased, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)


def test_measure_map_idempotent():
    rng = np.random.default_rng(17)
    for seed in range(10):
        rho = sample_random_state(seed, "full-rank")
        axis = unit(rng.standard_normal(3))
        once = measured(rho, axis)
        np.testing.assert_allclose(measured(once, axis), once, atol=1e-13)
        assert abs(np.trace(once) - 1.0) < 1e-14


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
        axes = np.concatenate([measures._fibonacci_axes(200), kinks])
        got = np.sqrt(measures._objective_sq(x, t, axes))
        np.testing.assert_allclose(got, measures._d1_objective(rho, axes), rtol=0, atol=1e-14)


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
    outside them at 1e-9."""
    base = from_x_state(XState(0.3, 0.25, 0.25, 0.2, 0.1, 0.05))
    out = []
    for j, k, v in ((0, 3, -size), (1, 2, 0.05 + 1j * size), (0, 1, size)):
        m = base.copy()
        m[j, k], m[k, j] = v, np.conj(v)
        out.append(m)
    return out


def test_measure_batch_matches_scalar_path():
    # X, phased X, Bell-diagonal with a negative coherence, full rank, and
    # both sides of the X test's limits, all in one batch
    batch = [sample_random_state(seed, "x-shaped") for seed in range(4)]
    batch += [random_z_phases(sample_random_state(seed, "x-shaped"), seed) for seed in range(4)]
    for c in ((-0.3, 0.2, 0.1), (0.1, 0.4, -0.2), (-0.5, -0.1, -0.3)):
        batch.append(states.from_bloch(np.zeros(3), np.zeros(3), np.diag(c)))
    batch += [sample_random_state(seed, "full-rank") for seed in range(4)]
    batch += near_x_boundary(1e-11) + near_x_boundary(1e-9)
    d1, d2, neg, route = measure_batch(np.array(batch))
    assert list(route) == ["closed-x"] * 4 + ["exact"] * 11 + ["closed-x"] * 3 + ["exact"] * 3
    for k, rho in enumerate(batch):
        try:
            want, method = d1_x_with_method(to_x_state(rho))
        except states.NotXShaped:
            want, method = d1_exact(rho), "exact"
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
        want = d1_closed_x(to_x_state(rho)) if whole[3][k] == "closed-x" else d1_exact(rho)
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
    # rows with exact zeros off the X pattern take d2 and the negativity in
    # closed form, whatever the phases of their coherences; d1_exact, which
    # the phased rows and the Bell-diagonal ones with a negative coherence
    # take for d1, is stubbed out, as its eigensolves are its own
    stack = np.concatenate([evolved_x_stack(), phased_x_stack(20),
                            [sample_random_state(seed, "bell-diagonal") for seed in range(20)]])
    calls = []
    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        def counted(*args, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    monkeypatch.setattr(measures, "_d1_exact", lambda x, t: np.zeros(len(x)))
    route = measure_batch(stack)[3]
    assert set(route) == {"closed-x", "exact"}
    assert calls == []


def two_test_rule(stack):
    """measure_batch as two separate X tests: the tolerant one of
    `states.x_fields` routes d1, and exact zeros off the X pattern route d2
    and the negativity, each block of the partial transpose taken in turn."""
    a = np.asarray(stack, dtype=complex)
    is_x, f = states.x_fields(a)
    on = ~np.any(a[:, ~states._X_PATTERN], axis=-1)
    d1, d2, neg = np.empty(len(a)), np.empty(len(a)), np.empty(len(a))
    r11, r22, r33, _, r14, r23 = f[is_x].T
    d1[is_x] = measures.d1_x_kernel(*measures._x_kernel_args(r11, r22, r33, r14, r23))
    r11, r22, r33, r44 = np.diagonal(a[on], axis1=-2, axis2=-1).real.T
    r14, r23 = np.abs(a[on, 0, 3]), np.abs(a[on, 1, 2])
    d2[on] = measures.d2_x_kernel(*measures._x_kernel_args(r11, r22, r33, r14, r23)[:4])
    neg_on = np.zeros(np.count_nonzero(on))
    for p, q, c in ((r11, r44, r23), (r22, r33, r14)):
        top = 0.5 * (p + q) + np.hypot(0.5 * (p - q), c)
        neg_on -= np.minimum((p * q - c * c) / np.where(top == 0.0, 1.0, top), 0.0)
    neg[on] = 2.0 * neg_on
    bd = states.bloch(a)
    d2[~on] = measures._d2(bd.x_vec[~on], bd.corr[~on])
    neg[~on] = measures._negativity(a[~on])
    d1[~is_x] = measures._d1_exact(bd.x_vec[~is_x], bd.corr[~is_x])
    return d1, d2, neg, np.where(is_x, "closed-x", "exact")


def test_measure_batch_equals_the_two_test_rule():
    # one read of each row decides both routes, with the same bits and routes
    # as the two separate tests, on rows at and around the X test's limits
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
    assert routes == {("closed-x", True), ("closed-x", False), ("exact", True), ("exact", False)}


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
