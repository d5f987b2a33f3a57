"""End-to-end checks of the command line front end: CSV shapes, exact
values on known states, exit codes, config precedence and determinism.

One sweep check is xfail(strict=True): it asserts a stated pattern that
the scan contradicts on part of its range; the reason documents the
counterexample.
"""

import argparse
import importlib.util
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from discordlab import cli, dynamics, families, measures, states
from discordlab.cli import build_parser, main

LOG2 = math.log(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    lines = text.strip("\n").split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def column(rows, idx):
    return np.array([float(r[idx]) for r in rows])


def write_family_state(path, family, **kwargs):
    rho = families.make_state(families.FamilyParams(family, **kwargs))
    states.write_state_file(path, rho)
    return path


# ---------------------------------------------------------------------------
# measure


def test_measure_theta_state(tmp_path, capsys):
    f = write_family_state(tmp_path / "s.txt", "theta", theta=np.pi / 4)
    code, out, _ = run_cli(capsys, "measure", str(f))
    assert code == 0
    header, rows = rows_of(out)
    assert header == "d1,d2,sqrt_d2,negativity,d1_method"
    assert len(rows) == 1
    d1, d2, sqrt_d2, neg, method = rows[0]
    assert method == "closed-x"
    assert abs(float(d1) - 0.5) < 1e-12
    assert abs(float(d2) - 0.25) < 1e-12
    assert abs(float(sqrt_d2) - 0.5) < 1e-12
    assert abs(float(neg) - (2.0 * np.sqrt(2.0) - 2.0) / 4.0) < 1e-12


def test_measure_maximally_mixed(tmp_path, capsys):
    states.write_state_file(tmp_path / "mm.txt", np.eye(4) / 4.0)
    code, out, _ = run_cli(capsys, "measure", str(tmp_path / "mm.txt"))
    assert code == 0
    assert out.strip("\n").split("\n")[1] == "0,0,0,0,closed-x"


def test_measure_bell_state(tmp_path, capsys):
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    states.write_state_file(tmp_path / "bell.txt", bell)
    code, out, _ = run_cli(capsys, "measure", str(tmp_path / "bell.txt"))
    assert code == 0
    _, rows = rows_of(out)
    d1, d2, _, neg, method = rows[0]
    assert method == "closed-x"
    assert abs(float(d1) - 1.0) < 1e-12
    assert abs(float(d2) - 1.0) < 1e-12
    assert abs(float(neg) - 1.0) < 1e-12


def test_measure_non_x_state_exact(tmp_path, capsys):
    # an X state with phased corners takes the closed form on their moduli;
    # Nelder-Mead once stopped at 0.2106 on it.  Fixed local unitaries off
    # the diagonal move it off the X pattern, to the exact route, with the
    # same value
    rho = np.diag([0.0651, 0.0988, 0.496, 0.3401]).astype(complex)
    rho[0, 3] = 0.0058 * np.exp(0.97j)
    rho[1, 2] = 0.0995 * np.exp(-0.55j)
    rho[3, 0], rho[2, 1] = np.conj(rho[0, 3]), np.conj(rho[1, 2])
    u_a = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    u_b = np.array([[np.cos(0.7), -1j * np.sin(0.7)], [-1j * np.sin(0.7), np.cos(0.7)]])
    u = np.kron(u_a, u_b)
    for m, route in ((rho, "closed-x"), (u @ rho @ u.conj().T, "exact")):
        states.write_state_file(tmp_path / "x.txt", m)
        code, out, _ = run_cli(capsys, "measure", str(tmp_path / "x.txt"))
        assert code == 0
        _, rows = rows_of(out)
        d1, _, _, _, method = rows[0]
        assert method == route
        assert abs(float(d1) - 0.2101993252624578) < 1e-12


@pytest.mark.parametrize("scale", [1.0 + 5e-11, 1.0 - 5e-11])
def test_measure_renormalizes_the_trace(tmp_path, capsys, scale):
    # validate admits a trace within 1e-10 of 1; measure then reads the state
    # divided by its trace, so its closed forms agree with the eigensolver
    # forms of that state
    bell = states.from_bloch(np.zeros(3), np.zeros(3), np.diag([-0.8, 0.7, 0.6]))
    x = states.from_x_fields([0.3, 0.2, 0.15, 0.35, 0.25, 0.15])
    for rho in (x, bell):
        f = tmp_path / "s.txt"
        states.write_state_file(f, scale * rho)
        m = states.validate(states.read_state_file(f))
        assert 4e-11 < abs(m.trace().real - 1.0) < 6e-11
        m = m / m.trace().real
        code, out, _ = run_cli(capsys, "measure", str(f))
        assert code == 0
        _, d2, _, neg, _ = rows_of(out)[1][0]
        assert abs(float(d2) - measures.d2_closed(m)) <= 1e-15
        assert abs(float(neg) - measures.negativity(m)) <= 1e-15
        assert measures.negativity(m) > 0.1  # both states are entangled


def test_measure_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "measure", str(tmp_path / "nope.txt"))
    assert code == 2
    assert err.startswith("error:")


def test_measure_malformed_file(tmp_path, capsys):
    (tmp_path / "bad.txt").write_text("1,2,3\n" * 16)
    code, _, err = run_cli(capsys, "measure", str(tmp_path / "bad.txt"))
    assert code == 2
    assert "error:" in err

    # a file that is not UTF-8 text does not parse either
    (tmp_path / "bin.txt").write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "measure", str(tmp_path / "bin.txt"))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "utf-8" in err


def test_measure_invalid_state(tmp_path, capsys):
    states.write_state_file(tmp_path / "id.txt", np.eye(4))
    code, _, err = run_cli(capsys, "measure", str(tmp_path / "id.txt"))
    assert code == 3
    assert "error:" in err


def non_finite_state_files(tmp_path):
    """Files that parse but hold a NaN entry, or a pair that overflows when symmetrized."""
    lines = ["0.25,0" if i in (0, 5, 10, 15) else "0,0" for i in range(16)]
    for name, where, text in (("nan11", (0,), "nan,0"), ("nan14", (3,), "nan,0"),
                              ("nan41", (12,), "nan,0"), ("huge", (6, 9), "1e308,0")):
        entries = list(lines)
        for i in where:
            entries[i] = text
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(entries) + "\n")
        yield path


def test_measure_and_evolve_reject_non_finite_entries(tmp_path, capsys):
    for path in non_finite_state_files(tmp_path):
        for argv in (("measure", str(path)), ("evolve", str(path), "--points", "3")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (3, ""), (path.name, argv[0], err)
            assert "not finite" in err


# ---------------------------------------------------------------------------
# evolve


def test_evolve_classical_quarter(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25",
                           "--tmax", str(LOG2), "--points", "2")
    assert code == 0
    header, rows = rows_of(out)
    assert header == "gt,d1,d2,sqrt_d2,negativity"
    assert len(rows) == 2
    assert column(rows, 0)[0] == 0.0
    assert abs(column(rows, 1)[0]) < 1e-15
    assert abs(column(rows, 2)[0]) < 1e-15
    assert abs(column(rows, 0)[1] - LOG2) < 1e-15
    assert abs(column(rows, 1)[1] - 0.5 / math.sqrt(1.5)) < 1e-12
    assert abs(column(rows, 2)[1] - 0.125) < 1e-12


def test_evolve_gt_scales_with_gamma0(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--family", "discordant",
                           "--w", "0.2", "--s", "0.2", "--gamma0", "2",
                           "--tmax", "1", "--points", "3")
    assert code == 0
    _, rows = rows_of(out)
    np.testing.assert_allclose(column(rows, 0), [0.0, 1.0, 2.0], atol=1e-15)


def test_evolve_side_b_d1_non_increasing(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--family", "discordant",
                           "--w", "0.2", "--s", "0.2", "--side", "B",
                           "--tmax", "3", "--points", "101")
    assert code == 0
    _, rows = rows_of(out)
    d1 = column(rows, 1)
    assert np.max(np.diff(d1)) <= 1e-9


def test_evolve_side_both_runs(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--family", "theta",
                           "--theta", "0.7", "--side", "both",
                           "--tmax", "2", "--points", "3")
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 3


def test_evolve_family_and_file_agree(tmp_path, capsys):
    f = write_family_state(tmp_path / "c.txt", "classical", w=0.25, s=0.25)
    args = ("--tmax", "2", "--points", "21")
    code, by_family, _ = run_cli(capsys, "evolve", "--family", "classical",
                                 "--w", "0.25", "--s", "0.25", *args)
    assert code == 0
    code, by_file, _ = run_cli(capsys, "evolve", str(f), *args)
    assert code == 0
    assert by_family == by_file


def test_evolve_full_rank_state_file(tmp_path, capsys):
    states.write_state_file(tmp_path / "r.txt", states.sample_random_state(4, "full-rank"))
    rho0 = states.validate(states.read_state_file(tmp_path / "r.txt"))
    code, out, _ = run_cli(capsys, "evolve", str(tmp_path / "r.txt"), "--points", "11")
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 11
    for t, row in zip(np.linspace(0.0, 5.0, 11), rows):
        evolved = dynamics.apply_channel(rho0, dynamics.EmissionChannel("A", float(t), 1.0))
        assert float(row[1]) == measures.d1_exact(evolved)
        d2 = measures.d2_closed(evolved)
        assert float(row[2]) == d2
        assert float(row[3]) == np.sqrt(d2)
        assert float(row[4]) == measures.negativity(evolved)


def test_evolve_requires_exactly_one_source(tmp_path, capsys):
    code, _, err = run_cli(capsys, "evolve", "--tmax", "1")
    assert code == 2 and "error:" in err
    f = write_family_state(tmp_path / "c.txt", "classical", w=0.25, s=0.25)
    code, _, err = run_cli(capsys, "evolve", str(f), "--family", "classical",
                           "--w", "0.25", "--s", "0.25")
    assert code == 2 and "error:" in err


def test_evolve_state_file_rejects_family_params(tmp_path, capsys):
    f = write_family_state(tmp_path / "c.txt", "classical", w=0.25, s=0.25)
    for flag in ("--theta", "--w", "--s"):
        code, _, err = run_cli(capsys, "evolve", str(f), flag, "0.3")
        assert code == 2 and "error:" in err and flag in err


def test_evolve_bad_family_params(capsys):
    code, _, err = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.6", "--s", "0.1")
    assert code == 4
    assert "error:" in err


def test_evolve_deterministic_output(capsys):
    args = ("evolve", "--family", "discordant", "--w", "0.4", "--s", "0.2",
            "--tmax", "3", "--points", "51")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    # a usage error in between leaves the parser, built once, as it was
    assert run_cli(capsys, "evolve", "--no-such-flag")[0] == 2
    code, second, _ = run_cli(capsys, *args)
    assert code == 0 and first == second


# ---------------------------------------------------------------------------
# figure


def test_figure_1_quarter_pi_row(tmp_path, capsys):
    out_file = tmp_path / "f1.csv"
    code, _, _ = run_cli(capsys, "figure", "1", "--points", "201",
                         "--out", str(out_file))
    assert code == 0
    header, rows = rows_of(out_file.read_text())
    assert header == "theta,negativity,sqrt_d2,d1"
    assert len(rows) == 201
    theta, neg, sqrt_d2, d1 = (float(v) for v in rows[100])
    assert abs(theta - np.pi / 4) < 1e-12
    assert abs(neg - (2.0 * np.sqrt(2.0) - 2.0) / 4.0) < 1e-12
    assert abs(sqrt_d2 - 0.5) < 1e-12
    assert abs(d1 - 0.5) < 1e-12
    d1c, sqc, negc = column(rows, 3), column(rows, 2), column(rows, 1)
    assert np.all(d1c >= sqc - 1e-9)
    assert np.all(sqc >= negc - 1e-9)


def test_figure_default_file_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "figure", "2", "--points", "11")
    assert code == 0
    header, rows = rows_of((tmp_path / "fig2.csv").read_text())
    assert header == "gt,d1,sqrt_d2"
    assert len(rows) == 11
    assert rows[0] == ["0", "0", "0"]


def test_figure_3_growth_pattern(tmp_path, capsys):
    out_file = tmp_path / "f3.csv"
    code, _, _ = run_cli(capsys, "figure", "3", "--points", "201",
                         "--out", str(out_file))
    assert code == 0
    _, rows = rows_of(out_file.read_text())
    d1, sqrt_d2 = column(rows, 1), column(rows, 2)
    assert np.max(sqrt_d2 ** 2) > sqrt_d2[0] ** 2 + 1e-6
    assert np.max(np.diff(d1)) <= 1e-9


def test_figure_5_zero_crossing_row(tmp_path, capsys):
    out_file = tmp_path / "f5.csv"
    code, _, _ = run_cli(capsys, "figure", "5", "--points", "201",
                         "--out", str(out_file))
    assert code == 0
    _, rows = rows_of(out_file.read_text())
    assert len(rows) == 202  # uniform grid plus the exact crossing time
    gt, d1 = column(rows, 0), column(rows, 1)
    dip = int(np.argmin(d1))
    assert d1[dip] <= 1e-6
    assert abs(gt[dip] - math.log(1.6)) < 2e-3
    assert np.max(d1[dip:]) > 1e-3


def test_figure_5_zero_point_exact_for_every_rate(tmp_path, capsys):
    # the crossing ln(4w) = ln 1.6 is appended in gamma0 t, not scaled back from t;
    # 0.7 * (ln 1.6 / 0.7) misses it by 5.6e-17
    out_file = tmp_path / "f5.csv"
    for gamma0 in ("0.7", "2.5", "1"):
        assert run_cli(capsys, "figure", "5", "--gamma0", gamma0, "--points", "11",
                       "--out", str(out_file))[0] == 0
        _, rows = rows_of(out_file.read_text())
        assert format(math.log(1.6), ".17g") in [r[0] for r in rows], gamma0


def test_figure_5_zero_point_only_on_the_grid(tmp_path, capsys):
    # ln 1.6 is added only inside [0, gamma0 tmax] and only when it is not
    # already a grid point
    out_file = tmp_path / "f5.csv"
    assert run_cli(capsys, "figure", "5", "--tmax", "0.1", "--points", "3",
                   "--out", str(out_file))[0] == 0
    _, rows = rows_of(out_file.read_text())
    assert [r[0] for r in rows] == ["0", "0.050000000000000003", "0.10000000000000001"]
    zero = float(np.log(4.0 * 0.4))
    assert run_cli(capsys, "figure", "5", "--tmax", repr(zero), "--points", "2",
                   "--out", str(out_file))[0] == 0
    _, rows = rows_of(out_file.read_text())
    assert [float(r[0]) for r in rows] == [0.0, zero]
    assert run_cli(capsys, "figure", "5", "--out", str(out_file))[0] == 0
    assert len(rows_of(out_file.read_text())[1]) == 1002


def test_figure_6_side_columns(tmp_path, capsys):
    out_file = tmp_path / "f6.csv"
    code, _, _ = run_cli(capsys, "figure", "6", "--points", "201",
                         "--out", str(out_file))
    assert code == 0
    header, rows = rows_of(out_file.read_text())
    assert header == "gt,sqrt_d2_sideA,sqrt_d2_sideB"
    side_a, side_b = column(rows, 1), column(rows, 2)
    assert np.max(side_b) > side_b[0] + 1e-4
    assert np.max(side_a) <= side_a[0] + 1e-9


def test_figure_unknown_number(capsys):
    code, _, err = run_cli(capsys, "figure", "9")
    assert code == 4
    assert "error:" in err


def test_figure_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "figure", "4", "--points", "101", "--out", str(a))
    run_cli(capsys, "figure", "4", "--points", "101", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    # a shorter output rewritten over b leaves none of the old tail, and
    # a target that cannot be truncated still takes the output
    c = tmp_path / "c.csv"
    run_cli(capsys, "figure", "4", "--points", "11", "--out", str(c))
    run_cli(capsys, "figure", "4", "--points", "11", "--out", str(b))
    assert b.read_bytes() == c.read_bytes() != a.read_bytes()
    assert run_cli(capsys, "figure", "4", "--points", "11", "--out", os.devnull)[0] == 0


# ---------------------------------------------------------------------------
# critical


def test_critical_report(capsys):
    code, out, _ = run_cli(capsys, "critical")
    assert code == 0
    lines = out.strip("\n").split("\n")
    w_c = float(lines[0].split("=")[1])
    analytic = float(lines[1].split("=")[1])
    w_bar = float(lines[2].split("=")[1])
    assert abs(w_c - (2.0 - math.sqrt(2.0)) / 8.0) < 1e-12
    assert abs(analytic - w_c) < 1e-15
    assert 0.0772 <= w_bar <= 0.0782
    assert lines[2].split("=")[1].strip() == "0.077776954366495468"
    assert lines[3] == "w_bar_c > w_c: true"


def test_critical_out_file_matches_stdout(tmp_path, capsys):
    code, printed, _ = run_cli(capsys, "critical")
    assert code == 0
    code, rest, _ = run_cli(capsys, "critical", "--out", str(tmp_path / "c.txt"))
    assert code == 0 and rest == ""
    assert (tmp_path / "c.txt").read_bytes() == printed.encode()


# ---------------------------------------------------------------------------
# sweep


def sweep_rows(capsys, *extra):
    code, out, err = run_cli(capsys, "sweep", *extra)
    assert code == 0
    header, rows = rows_of(out)
    assert header == "w,s,d2_inc_A,d1_inc_A,d2_inc_B,t_zero"
    return rows, err


def test_sweep_growth_window_side_a(capsys):
    rows, _ = sweep_rows(capsys, "--wmin", "0.075", "--wmax", "0.24",
                         "--wcount", "8")
    assert all(r[2] == "true" for r in rows)


def test_sweep_below_critical_side_a(capsys):
    rows, _ = sweep_rows(capsys, "--wmin", "0.01", "--wmax", "0.073",
                         "--wcount", "8")
    assert all(r[2] == "false" for r in rows)


@pytest.mark.xfail(
    strict=True,
    reason="side-B growth at s = s_max holds only up to w = (2+sqrt(2))/8 "
    "= 0.4268; at w = 0.45 the curve peaks 1.8e-4 below its start, so "
    "rows near the top of the range report false",
)
def test_sweep_side_b_claim_over_full_range(capsys):
    rows, _ = sweep_rows(capsys, "--wmin", "0.075", "--wmax", "0.49",
                         "--wcount", "9")
    assert all(abs(float(r[0]) - 0.25) < 1e-12 or r[4] == "true" for r in rows)


def test_sweep_side_b_corrected_window(capsys):
    rows, _ = sweep_rows(capsys, "--wmin", "0.075", "--wmax", "0.42",
                         "--wcount", "8")
    assert all(r[4] == "true" for r in rows)


def test_sweep_t_zero_column(capsys):
    rows, _ = sweep_rows(capsys, "--wmin", "0.2", "--wmax", "0.45",
                         "--wcount", "6")
    for r in rows:
        w, t_zero = float(r[0]), float(r[5])
        if w > 0.25:
            assert abs(t_zero - math.log(4.0 * w)) < 1e-12
        else:
            assert math.isnan(t_zero)


def test_sweep_fixed_s_skips_inadmissible_rows(capsys):
    rows, err = sweep_rows(capsys, "--family", "classical", "--s", "0.2",
                           "--wmin", "0.05", "--wmax", "0.25", "--wcount", "5")
    assert len(rows) == 4
    assert "skipping" in err
    assert all(float(r[1]) == 0.2 for r in rows)


def test_sweep_makes_one_regime_call(capsys, monkeypatch):
    # every member the sweep keeps goes to one families.regime call
    calls = []

    def counted(p, _regime=families.regime):
        calls.append(p)
        return _regime(p)

    monkeypatch.setattr(families, "regime", counted)
    rows, err = sweep_rows(capsys, "--family", "classical", "--s", "0.2",
                           "--wmin", "0.05", "--wmax", "0.45", "--wcount", "9")
    assert len(calls) == 1 and len(calls[0]) == len(rows) == 7
    assert err.count("warning: skipping") == 2


def test_sweep_given_s_is_fixed(capsys):
    # the rows `--s-policy fixed --s 0.2` printed before --s alone fixed s
    code, out, _ = run_cli(capsys, "sweep", "--family", "classical", "--s", "0.2",
                           "--wmin", "0.05", "--wmax", "0.25", "--wcount", "5")
    assert code == 0
    assert out == (
        "w,s,d2_inc_A,d1_inc_A,d2_inc_B,t_zero\n"
        "0.10000000000000001,0.20000000000000001,true,true,false,nan\n"
        "0.15000000000000002,0.20000000000000001,true,true,false,nan\n"
        "0.20000000000000001,0.20000000000000001,true,true,false,nan\n"
        "0.25,0.20000000000000001,true,true,false,nan\n"
    )


def test_write_rows_matches_per_field_format(capsys):
    # one % operation over the table writes what format(v, ".17g") writes per field
    nums = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, 1.0, -2.5e-17]
    words = ["closed-x", "exact", "true", "false", "x", "y", "z", "", "nan"]
    cli.write_rows(None, "a,b,c", nums, words, np.array(nums[::-1]))
    want = "".join(f"{format(u, '.17g')},{w},{format(v, '.17g')}\n"
                   for u, w, v in zip(nums, words, nums[::-1]))
    assert capsys.readouterr().out == "a,b,c\n" + want
    # an all-float table of VECTOR_MIN_FIELDS or more goes through format_floats:
    # every power of ten of its fixed-notation range with the doubles either
    # side, both ends of that range, the values written by % one at a time,
    # and random bit patterns in [1e-4, 1e17)
    powers = 10.0 ** np.arange(-4, 17)
    special = [1e17, np.nextafter(1e17, 0.0), 1e-4, np.nextafter(1e-4, 0.0), 0.0, -0.0,
               5e-324, math.nan, math.inf, -math.inf, -1.5, -1e-5, -0.25, -3e20, 1e300]
    lo, hi = np.array([1e-4, 1e17]).view(np.int64)
    drawn = np.random.default_rng(29).integers(lo, hi, 3000).view(np.float64)
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                             special, drawn])
    values = values[:len(values) // 3 * 3].reshape(3, -1)
    assert values.size >= cli.VECTOR_MIN_FIELDS
    cli.write_rows(None, "a,b,c", *values)
    want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in values.T)
    assert capsys.readouterr().out == "a,b,c\n" + want
    # every row skipped: the header alone
    code, out, err = run_cli(capsys, "sweep", "--s", "0.3", "--wcount", "3")
    assert code == 0 and out == "w,s,d2_inc_A,d1_inc_A,d2_inc_B,t_zero\n"
    assert err.count("skipping") == 3


@pytest.mark.parametrize("argv", [["figure", "1"], ["figure", "5"],
                                  ["evolve", "--family", "discordant", "--w", "0.4", "--s", "0.2",
                                   "--side", "both"]])
def test_large_tables_print_the_bytes_of_the_percent_path(argv, tmp_path, monkeypatch):
    # 100001 rows take format_floats; figure 5 carries its exact zero of d1
    # and every table starts at 0, so the "0" and tiny-value branches are hit
    argv = argv + ["--points", "100001", "--out"]
    assert main(argv + [str(tmp_path / "vector.csv")]) == 0
    monkeypatch.setattr(cli, "VECTOR_MIN_FIELDS", math.inf)
    assert main(argv + [str(tmp_path / "percent.csv")]) == 0
    assert (tmp_path / "vector.csv").read_bytes() == (tmp_path / "percent.csv").read_bytes()


def test_gamma0_only_rescales_time(tmp_path, capsys):
    # the families work in gamma0 t, which only the CLI forms; scaling by 2 is exact
    for n in range(2, 7):
        base, fast = tmp_path / f"base{n}.csv", tmp_path / f"fast{n}.csv"
        assert run_cli(capsys, "figure", str(n), "--tmax", "5", "--out", str(base))[0] == 0
        assert run_cli(capsys, "figure", str(n), "--gamma0", "2", "--tmax", "2.5",
                       "--out", str(fast))[0] == 0
        assert fast.read_bytes() == base.read_bytes(), n
    base, _ = sweep_rows(capsys)
    fast, _ = sweep_rows(capsys, "--gamma0", "2")
    assert [r[:5] for r in fast] == [r[:5] for r in base]
    np.testing.assert_array_equal(column(fast, 5), column(base, 5) / 2.0)


# ---------------------------------------------------------------------------
# config handling


def test_config_file_applies(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ntmax = 2.0\npoints = 11\n")
    code, out, _ = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25", "--config", str(cfg))
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 11
    assert abs(column(rows, 0)[-1] - 2.0) < 1e-15


def test_config_accepts_field_spellings(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_max=1.5\nn_points=5\n")
    code, out, _ = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25", "--config", str(cfg))
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 5


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 11\ntmax = 2.0\n")
    code, out, _ = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25",
                           "--config", str(cfg), "--points", "5")
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 5
    assert abs(column(rows, 0)[-1] - 2.0) < 1e-15


def test_config_errors(tmp_path, capsys):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("horizon = 5\n")
    code, _, err = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25", "--config", str(bad_key))
    assert code == 2 and "error:" in err

    # the oracle's lattice and refinement sizes are no longer settings
    retired = tmp_path / "r.cfg"
    retired.write_text("grid = 2000\nrefine = 200\n")
    code, _, err = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25", "--config", str(retired))
    assert code == 2 and "error:" in err

    # no command reads a seed, so it is not a setting either
    seeded = tmp_path / "s.cfg"
    seeded.write_text("seed = 1\n")
    code, _, err = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25", "--config", str(seeded))
    assert code == 2 and "error:" in err

    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("points = many\n")
    code, _, err = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25", "--config", str(bad_value))
    assert code == 2 and "error:" in err

    code, _, err = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25",
                           "--config", str(tmp_path / "missing.cfg"))
    assert code == 2 and "error:" in err

    binary = tmp_path / "bin.cfg"
    binary.write_bytes(b"points = 5\n\xff\n")
    code, _, err = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25", "--config", str(binary))
    assert code == 2 and err.startswith("error: cannot read config file") and "utf-8" in err


def test_config_keys_a_command_does_not_read(tmp_path, capsys):
    # sweep reads gamma0 from a file that also serves evolve and figure
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma0 = 2\ntmax = 2.0\npoints = 11\n")
    grid = ("--wmin", "0.1", "--wmax", "0.4", "--wcount", "4")
    code, by_file, _ = run_cli(capsys, "sweep", *grid, "--config", str(cfg))
    assert code == 0
    code, by_flag, _ = run_cli(capsys, "sweep", *grid, "--gamma0", "2")
    assert code == 0 and by_file == by_flag


def test_bad_numeric_flags(capsys):
    code, _, err = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25", "--points", "1")
    assert code == 4 and "error:" in err
    code, _, err = run_cli(capsys, "evolve", "--family", "classical",
                           "--w", "0.25", "--s", "0.25", "--gamma0", "-1")
    assert code == 4 and "error:" in err
    # sweep divides regime's t_zero by gamma0
    code, out, err = run_cli(capsys, "sweep", "--wcount", "2", "--gamma0", "0")
    assert (code, out) == (4, "") and "gamma0 must be positive and finite" in err


def test_non_finite_gamma0_and_tmax_exit_4(tmp_path, capsys):
    family = ("--family", "classical", "--w", "0.25", "--s", "0.25")
    cases = [
        (("figure", "2", "--points", "3", "--out", str(tmp_path / "f.csv")), "gamma0", "inf"),
        (("sweep", "--wcount", "2"), "gamma0", "nan"),
        (("evolve", *family, "--points", "3"), "gamma0", "-inf"),
        (("evolve", *family, "--points", "3"), "tmax", "nan"),
        (("figure", "4", "--points", "3", "--out", str(tmp_path / "f.csv")), "tmax", "inf"),
    ]
    cfg = tmp_path / "run.cfg"
    for argv, option, value in cases:
        cfg.write_text(f"{option} = {value}\n")
        for source in ((f"--{option}={value}",), ("--config", str(cfg))):
            code, out, err = run_cli(capsys, *argv, *source)
            assert (code, out) == (4, ""), (argv, source, err)
            assert f"error: {option} must be positive and finite" in err


# the long options and positional arguments each subcommand reads, and no more
ACCEPTED = {
    "measure": ({"--out"}, ["state_file"]),
    "evolve": ({"--family", "--theta", "--w", "--s", "--side",
                "--gamma0", "--tmax", "--points", "--config", "--out"}, ["state_file"]),
    "figure": ({"--gamma0", "--tmax", "--points", "--config", "--out"}, ["n"]),
    "critical": ({"--out"}, []),
    "sweep": ({"--family", "--wmin", "--wmax", "--wcount", "--s",
               "--gamma0", "--config", "--out"}, []),
}


def subparsers():
    parser = build_parser()
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", sorted(ACCEPTED))
def test_subcommand_takes_only_the_options_it_reads(command):
    sub = subparsers()[command]
    options = {s for a in sub._actions for s in a.option_strings if s.startswith("--")}
    positionals = [a.dest for a in sub._actions if not a.option_strings]
    assert (options - {"--help"}, positionals) == ACCEPTED[command]


def test_settable_value_count():
    subs = subparsers()
    assert set(subs) == set(ACCEPTED)
    values = [a for sub in subs.values() for a in sub._actions if a.dest != "help"]
    assert len(values) == 28


@pytest.mark.parametrize("argv", [
    ("measure", "STATE", "--gamma0", "2"),
    ("critical", "--points", "11"),
    ("sweep", "--tmax", "2"),
    ("sweep", "--s-policy", "fixed"),
    ("figure", "2", "--point", "3"),
    ("sweep", "--wc", "2", "--gam", "2"),
    ("evolve", "--fam", "theta", "--th", "0.3"),
], ids=["measure-gamma0", "critical-points", "sweep-tmax", "sweep-s-policy",
        "figure-abbrev", "sweep-abbrev", "evolve-abbrev"])
def test_removed_flags_exit_2(argv, capsys):
    assert main(list(argv)) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["critical", "--grid", "2000"]) == 2
    assert main(["critical", "--seed", "1"]) == 2
    capsys.readouterr()


# a value for every option and positional of ACCEPTED, valid for the parser
VALUES = {"--family": "classical", "--theta": "0.3", "--w": "0.25", "--s": "-0.5",
          "--side": "both", "--gamma0": "2e-3", "--tmax": "3", "--points": "11",
          "--config": "run.cfg", "--out": "o.csv", "--wmin": "0.1", "--wmax": "0.4",
          "--wcount": "-3", "state_file": "rho.state", "n": "7"}


def full_command_lines(values=VALUES):
    """Command lines that set every option of every subcommand, spelled both
    `--opt v` and `--opt=v`, positionals first and last."""
    for command, (options, positionals) in sorted(ACCEPTED.items()):
        flags = sorted(options)
        spaced = [s for o in flags for s in (o, values[o])]
        joined = [f"{o}={values[o]}" for o in flags]
        pos = [values[p] for p in positionals]
        yield [command, *pos, *spaced]
        yield [command, *joined, *pos]
        yield [command, *spaced[:2], *pos, *joined[1:]]


# tokens that no subcommand takes as an option: unknown, abbreviated, help,
# the separator and other "-"-prefixed words
ODD_TOKENS = ["--nope", "--poin", "--fam", "--wc", "--out-file", "-h", "--help", "--", "-x", "-"]
# values that fail a type or a choice, start with "-" or are not finite
ODD_VALUES = ["nan", "NaN", "-nan", "inf", "-inf", "-0.5", "-1e-3", "-3", "1e400", "x", "",
              "C", "theta", "3.5", " 2 ", "0x1", "--out", "-h"]
ALL_OPTIONS = sorted(set().union(*(options for options, _ in ACCEPTED.values())))
CORPUS_LINES = 10_000


def random_command_line(rng):
    """A seeded random command line: mostly a subcommand with its own options
    and positionals in random order, with a share of odd tokens, odd values,
    options of other subcommands, repeats, and missing or extra positionals."""
    command = rng.choice(sorted(ACCEPTED))
    options, positionals = ACCEPTED[command]
    plain = [VALUES[p] for p in positionals] or ["rho.state"]
    count = len(positionals) if rng.random() < 0.85 else rng.randrange(3)  # or missing, extra
    groups = [[plain[0]] for _ in range(count)]
    for _ in range(rng.randrange(7)):
        pick = rng.random()
        option = (rng.choice(sorted(options)) if pick < 0.85 and options
                  else rng.choice(ALL_OPTIONS) if pick < 0.93 else rng.choice(ODD_TOKENS))
        value = rng.choice(ODD_VALUES) if rng.random() < 0.1 else VALUES.get(option, "1")
        groups.append([f"{option}={value}"] if rng.random() < 0.4 else [option, value])
    rng.shuffle(groups)
    argv = [command] + [token for group in groups for token in group]
    if rng.random() < 0.03:
        argv = argv[1:]  # no subcommand first
    elif rng.random() < 0.03:
        argv = argv[:-1]  # a value or positional cut off
    return argv


def namespace_key(ns):
    """vars(ns) with each value as its type and repr, so that NaN equals NaN."""
    return None if ns is None else {k: (type(v), repr(v)) for k, v in vars(ns).items()}


def full_parse(argv, capsys):
    """Exit code, namespace key and output of `_parser().parse_args(argv)`."""
    try:
        ns, code = cli._parser().parse_args(argv), 0
    except SystemExit as exc:
        ns, code = None, exc.code
    return code, namespace_key(ns), capsys.readouterr()


@pytest.fixture
def captured_namespaces(monkeypatch):
    """Every namespace main hands a command, with the commands stubbed out
    and the cached parsers rebuilt around the stubs (and again after)."""
    seen = []
    for command in ACCEPTED:
        monkeypatch.setattr(cli, f"cmd_{command}", lambda ns: seen.append(ns) or 0)
    cli._parser.cache_clear()
    cli._subcommands.cache_clear()
    yield seen
    monkeypatch.undo()
    cli._parser.cache_clear()
    cli._subcommands.cache_clear()


@pytest.fixture
def argparse_calls(monkeypatch):
    """The arguments of every `ArgumentParser.parse_known_args` call, which
    every parse by argparse, full parser or subparser, goes through."""
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def spy(self, args=None, namespace=None):
        calls.append(args)
        return real(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    return calls


def test_main_parses_as_the_full_parser(captured_namespaces, argparse_calls, capsys):
    lines = list(full_command_lines())
    for argv in lines + [[command] for command in ("critical", "sweep")]:
        assert main(argv) == 0, argv
        assert captured_namespaces.pop() == cli._parser().parse_args(argv), argv
    assert len(lines) == 3 * len(ACCEPTED)

    # exit code, namespace and output agree on every line of a seeded corpus,
    # whichever route main takes
    rng = random.Random(0)
    read = 0
    for _ in range(CORPUS_LINES):
        argv = random_command_line(rng)
        calls = len(argparse_calls)
        code = main(argv)
        read += len(argparse_calls) == calls  # the reader took the line
        ns = captured_namespaces.pop() if captured_namespaces else None
        got = code, namespace_key(ns), capsys.readouterr()
        assert got == full_parse(argv, capsys), argv
    assert not captured_namespaces
    # both routes carry a real share of the corpus
    assert 0.3 * CORPUS_LINES < read < 0.7 * CORPUS_LINES, read


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def workload_command_lines(monkeypatch, work):
    """The command lines of the benchmark's two CLI workloads, as
    perfbench/workloads.py builds them (its seeded inputs go to `work`)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    for name in ("reference", "workloads"):  # workloads imports reference by name
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    build, modules = sys.modules["workloads"].build, {"cli": cli, "dynamics": dynamics}
    return [op.argv for workload in ("x-family", "non-x")
            for op in build(workload, 0, str(work), modules) if hasattr(op, "argv")]


def test_plain_lines_skip_argparse(captured_namespaces, argparse_calls, monkeypatch, tmp_path):
    plain = {key: value.lstrip("-") for key, value in VALUES.items()}
    lines = list(full_command_lines(plain)) + workload_command_lines(monkeypatch, tmp_path)
    assert {argv[0] for argv in lines} == set(ACCEPTED)
    for argv in lines:
        assert main(argv) == 0, argv
    assert argparse_calls == []
    for argv, ns in zip(lines, captured_namespaces, strict=True):
        assert ns == cli._parser().parse_args(argv), argv


def full_parser_exit(argv, capsys):
    try:
        cli._parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr()
    raise AssertionError(f"{argv} parsed")


@pytest.mark.parametrize("argv", [
    ["-h"], ["evolve", "-h"], ["figure", "--help"], [], ["no-such-command"],
    ["critical", "--grid", "2000"], ["measure", "rho.state", "extra", "--seed", "1"],
    ["figure", "x"], ["evolve", "--gamma0", "fast"], ["evolve", "--side", "C"],
    ["figure", "2", "--poin", "3"], ["sweep", "--wcount"], ["measure"],
    ["--out", "o.csv", "critical"],
], ids=["help", "evolve-help", "figure-help", "empty", "unknown-command",
        "unrecognized-option", "unrecognized-positional", "bad-int", "bad-float",
        "bad-side", "option-prefix", "missing-value", "missing-positional",
        "option-before-command"])
def test_main_usage_errors_match_the_full_parser(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out) == full_parser_exit(argv, capsys)
    assert code in (0, 2)


@pytest.mark.parametrize("argv", [
    ["evolve", "--family", "classical", "--w", "0.25", "--s", "-1e-3"],
    ["sweep", "--wmin", "-1e-3", "--wcount", "2"],
    ["evolve", "--family", "theta", "--theta", "-1e-3"],
    ["figure", "2", "--gamma0", "-1e-3"],
], ids=["evolve-s", "sweep-wmin", "evolve-theta", "figure-gamma0"])
def test_negative_exponent_values_reach_the_domain_checks(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # figure would write fig2.csv here
    i = argv.index("-1e-3")
    joined = [*argv[:i - 1], f"{argv[i - 1]}=-1e-3", *argv[i + 1:]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "") and err.startswith("error: ") and "must" in err, err
    assert (code, out, err) == run_cli(capsys, *joined)


def test_negative_exponent_values_parse_as_their_joined_spelling(captured_namespaces, capsys):
    head = ["evolve", "--family", "classical", "--w", "0.25"]
    for value in ("-1e-3", "-1E+2", "-.5e-2"):
        assert main([*head, "--s", value]) == 0
        assert main([*head, f"--s={value}"]) == 0
    assert captured_namespaces[0::2] == captured_namespaces[1::2]
    assert [ns.s for ns in captured_namespaces[0::2]] == [-1e-3, -100.0, -0.005]
    # a "-"-prefixed token that is not a number is still an option
    for token in ("-1e", "-e3", "-x"):
        assert main([*head, "--s", token]) == 2
        assert "argument --s: expected one argument" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# installed entry point


def source_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_console_script_smoke():
    exe = shutil.which("discordlab")
    if exe:
        argv, env = [exe, "critical"], None
    else:
        # not installed: run the package from the source tree, as pytest does
        argv = [sys.executable, "-c",
                "import sys; from discordlab.cli import main; "
                "sys.exit(main(['critical']))"]
        env = source_env()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0
    assert "w_bar_c > w_c: true" in proc.stdout


def test_import_leaves_scipy_unloaded():
    # the package needs numpy alone; scipy serves only the tests as a reference
    code = ("import sys, discordlab, discordlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_oracles_run_without_scipy():
    # a None entry in sys.modules makes every import of scipy fail
    code = ("import sys; sys.modules['scipy'] = None; "
            "from discordlab import measures, states; "
            "rho = states.sample_random_state(3, 'full-rank'); "
            "print(abs(measures.d1_oracle(rho)[0] - measures.d1_exact(rho)), "
            "abs(measures.d2_oracle(rho)[0] - measures.d2_closed(rho)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=source_env())
    assert proc.returncode == 0, proc.stderr
    d1_gap, d2_gap = map(float, proc.stdout.split())
    assert d1_gap <= 1e-9 and d2_gap <= 1e-12
