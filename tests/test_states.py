"""State representations: validation, X-state form, Bloch decomposition,
random sampling and the state-file format."""

import numpy as np
import pytest

from discordlab import families, measures, states
from discordlab.states import (
    NotHermitian,
    NotPositive,
    NotXShaped,
    StateError,
    StateFileError,
    TraceNotOne,
    XState,
    bloch,
    from_bloch,
    from_x_state,
    read_state_file,
    sample_random_state,
    to_x_state,
    validate,
    write_state_file,
)

MAXMIX = np.eye(4, dtype=complex) / 4


def bell_phi_plus():
    return from_x_state(XState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0))


def test_validate_examples():
    validate(MAXMIX)
    validate(families.make_state(families.FamilyParams("theta", theta=np.pi / 4)))
    with pytest.raises(NotPositive):
        validate(np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex))


def test_validate_reports_violation_magnitude():
    m = MAXMIX.copy()
    m[0, 1] = 0.2
    with pytest.raises(NotHermitian) as exc:
        validate(m)
    assert any(ch.isdigit() for ch in str(exc.value))
    with pytest.raises(TraceNotOne):
        validate(np.eye(4, dtype=complex))


def test_validate_rejects_non_finite_entries():
    # NaN fails no comparison, and a symmetric pair of 1e308 overflows when
    # symmetrized; both used to pass and break the eigensolver downstream
    for where, value in (((0, 0), np.nan), ((0, 3), np.nan), ((3, 0), np.nan)):
        m = MAXMIX.copy()
        m[where] = value
        with pytest.raises(StateError):
            validate(m)
    m = MAXMIX.copy()
    m[1, 2] = m[2, 1] = 1e308
    with pytest.raises(StateError):
        validate(m)


def test_validate_symmetrizes_small_asymmetry():
    m = MAXMIX.copy()
    m[0, 3] = 0.1 + 5e-12
    m[3, 0] = 0.1 - 5e-12
    out = validate(m)
    np.testing.assert_allclose(out, out.conj().T, atol=0)


def test_x_state_invariants():
    with pytest.raises(ValueError):
        XState(0.5, 0.5, 0.5, 0.5, 0.0, 0.0)  # trace 2
    with pytest.raises(ValueError):
        XState(0.5, 0.5, 0.25, -0.25, 0.0, 0.0)  # negative population
    with pytest.raises(ValueError):
        XState(0.25, 0.25, 0.25, 0.25, 0.3, 0.0)  # r14^2 > r11 r44


def test_x_state_round_trip():
    rng = np.random.default_rng(21)
    for seed in range(20):
        rho = sample_random_state(seed, "x-shaped")
        xs = to_x_state(rho)
        np.testing.assert_allclose(from_x_state(xs), rho, atol=1e-14)
    del rng


def test_to_x_state_examples():
    xs = to_x_state(families.make_state(families.FamilyParams("classical", w=0.25, s=0.25)))
    assert xs == XState(0.25, 0.25, 0.25, 0.25, 0.25, 0.25)

    xs = to_x_state(MAXMIX)
    assert (xs.r14, xs.r23) == (0.0, 0.0)

    # a trace error that validate allows is allowed by XState too
    edge = np.diag([0.3, 0.25, 0.25, 0.2 + 5e-11]).astype(complex)
    edge[0, 3] = edge[3, 0] = 0.1
    d1_closed, _ = measures.d1_x_with_method(to_x_state(validate(edge)))
    assert abs(d1_closed - measures.measure_batch(edge)[0][0]) <= 1e-15

    bad = MAXMIX.copy()
    bad[0, 1] = bad[1, 0] = 0.1
    with pytest.raises(NotXShaped) as exc:
        to_x_state(bad)
    assert "(" in str(exc.value)  # offending entries are listed


def test_bloch_maximally_mixed():
    b = bloch(MAXMIX)
    np.testing.assert_allclose(b.x_vec, 0.0, atol=1e-14)
    np.testing.assert_allclose(b.y_vec, 0.0, atol=1e-14)
    np.testing.assert_allclose(b.corr, 0.0, atol=1e-14)


def test_bloch_x_state_combinations():
    xs = XState(0.3, 0.25, 0.25, 0.2, 0.1, 0.15)
    b = bloch(from_x_state(xs))
    assert abs(b.x_vec[2] - (2 * (xs.r11 + xs.r22) - 1)) < 1e-14
    assert abs(b.corr[0, 0] - 2 * (xs.r23 + xs.r14)) < 1e-14
    assert abs(b.corr[1, 1] - 2 * (xs.r23 - xs.r14)) < 1e-14
    assert abs(b.corr[2, 2] - (1 - 2 * (xs.r22 + xs.r33))) < 1e-14
    # transverse local components vanish for every X state
    np.testing.assert_allclose(b.x_vec[:2], 0.0, atol=1e-14)
    np.testing.assert_allclose(b.y_vec[:2], 0.0, atol=1e-14)


def test_bloch_bell_state():
    b = bloch(bell_phi_plus())
    np.testing.assert_allclose(b.x_vec, 0.0, atol=1e-14)
    np.testing.assert_allclose(b.y_vec, 0.0, atol=1e-14)
    np.testing.assert_allclose(b.corr, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_bloch_reconstruction_and_bounds():
    for family in ("full-rank", "bell-diagonal", "x-shaped"):
        for seed in range(10):
            rho = sample_random_state(seed, family)
            b = bloch(rho)
            np.testing.assert_allclose(from_bloch(b.x_vec, b.y_vec, b.corr), rho,
                                       atol=1e-12)
            assert np.linalg.norm(b.x_vec) <= 1 + 1e-10
            assert np.linalg.norm(b.y_vec) <= 1 + 1e-10
            assert np.max(np.abs(b.corr)) <= 1 + 1e-10


def test_sampler_families_and_determinism():
    np.testing.assert_array_equal(sample_random_state(42, "full-rank"),
                                  sample_random_state(42, "full-rank"))
    for seed in range(8):
        full = sample_random_state(seed, "full-rank")
        assert np.min(np.linalg.eigvalsh(full)) > 0

        bd = sample_random_state(seed, "bell-diagonal")
        b = bloch(bd)
        np.testing.assert_allclose(b.x_vec, 0.0, atol=1e-12)
        np.testing.assert_allclose(b.y_vec, 0.0, atol=1e-12)
        np.testing.assert_allclose(b.corr - np.diag(np.diag(b.corr)), 0.0, atol=1e-12)

        to_x_state(sample_random_state(seed, "x-shaped"))

    with pytest.raises(ValueError):
        sample_random_state(0, "no-such-family")


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "state.txt"
    rho = sample_random_state(4, "full-rank")
    write_state_file(path, rho)
    np.testing.assert_allclose(read_state_file(path), rho, atol=1e-16)
    text = path.read_text()
    assert text.startswith("#")
    assert len([ln for ln in text.splitlines() if ln and not ln.startswith("#")]) == 16


def test_state_file_comments_and_blanks(tmp_path):
    path = tmp_path / "state.txt"
    lines = ["# comment", ""]
    for i in range(4):
        for j in range(4):
            lines.append(f"{0.25 if i == j else 0.0},0.0")
    path.write_text("\n".join(lines) + "\n")
    np.testing.assert_allclose(read_state_file(path), MAXMIX, atol=1e-16)


def test_state_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,2,3\n")
    with pytest.raises(StateFileError):
        read_state_file(bad)

    short = tmp_path / "short.txt"
    short.write_text("0.25,0\n" * 15)
    with pytest.raises(StateFileError):
        read_state_file(short)

    noisy = tmp_path / "noisy.txt"
    noisy.write_text("abc,def\n" * 16)
    with pytest.raises(StateFileError):
        read_state_file(noisy)

    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    with pytest.raises(StateFileError, match="not UTF-8"):
        read_state_file(binary)
