"""The three workloads: their seeded inputs, their operations and the output checks.

An operation is one `discordlab` CLI invocation (run in-process through
`cli.main`) or one RK4 trajectory.  `build(name, seed, work, modules)`
writes the seeded inputs into `work` and returns the operations of one
round; every round repeats them in the same order.  Each operation's
`check` compares its output with `reference` or with a property the
method must have; none compares with stored output.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import reference as ref

TOL = 1e-12  # d2, negativity, closed-X d1 and the inequality chain
ORACLE_TOL = 1e-6  # oracle d1 against the reference minimiser
ORACLE_SLACK = 1e-9  # oracle d1 may not exceed the reference's best axis by more
RK4_TOL = 1e-8
SEMIGROUP_TOL = 1e-13

EVOLVE_POINTS = 101  # x-family evolves
# the states behind figures 2-5 (figure 6 reuses figure 5's), all side-A emission
FIGURE_STATES = {2: ("classical", 0.25, 0.25), 3: ("discordant", 0.076, 0.179),
                 4: ("discordant", 0.2, 0.2), 5: ("discordant", 0.4, 0.2)}
SWEEPS = (("discordant", 0.075, 0.42, 8), ("classical", 0.05, 0.45, 4))


class CheckFailed(AssertionError):
    pass


class OpFailed(RuntimeError):
    pass


def expect(ok, what):
    if not ok:
        raise CheckFailed(what)


def close(got, want, tol, what):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
    expect(err <= tol, f"{what}: max deviation {err:.3g} > {tol:g}")


def read_csv(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def numeric(rows, ncols):
    return np.array([[float(v) for v in row[:ncols]] for row in rows]).reshape(-1, ncols)


def write_state(path, m):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in np.asarray(m, dtype=complex).ravel():
            fh.write(f"{v.real:.17g},{v.imag:.17g}\n")


def chain(d1, d2, neg, what):
    """d1 >= sqrt(d2) >= negativity, compared in squares.

    A square root turns d2's rounding (1e-16) into 1e-8 near zero, as at
    figure 5's zero of d1, so the tolerance applies to d1^2, d2 and neg^2.
    """
    expect(np.all(d1 * d1 >= d2 - TOL), f"{what}: d1 < sqrt(d2)")
    expect(np.all(d2 >= neg * neg - TOL), f"{what}: sqrt(d2) < negativity")


# ---------------------------------------------------------------------------
# operations


class CliOp:
    """One `discordlab` invocation; output read from `out` or from stdout."""

    def __init__(self, cli, argv, out, check, points=None):
        self.cli, self.argv, self.out = cli, argv, out
        self.check, self._points = check, points
        self.label = " ".join(argv[:2])
        self.stdout = ""

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv)
        if code != 0:
            raise OpFailed(f"exit code {code} from {' '.join(self.argv)}")
        self.stdout = buf.getvalue()

    def result(self):
        if self.out is None:
            return self.stdout
        with open(self.out, "r", encoding="utf-8", newline="") as fh:
            return fh.read()

    def points(self, text):
        return self._points if self._points is not None else text.count("\n") - 1


class TrajectoryOp:
    """One RK4 trajectory to t = 1 against the Kraus channel, with c09's semigroup checks."""

    def __init__(self, dynamics, rho, side):
        self.dyn, self.rho, self.side = dynamics, rho, side
        self.label = f"integrate {side}"
        self.out = None

    def run(self):
        dyn, rho, side = self.dyn, self.rho, self.side
        ch = dyn.EmissionChannel
        out = {"stepped": dyn.integrate(rho, side, 1.0, 1.0, dt=1e-3),
               "exact": dyn.apply_channel(rho, ch(side, 1.0))}
        out["via_two"] = dyn.apply_channel(dyn.apply_channel(rho, ch(side, 0.4)), ch(side, 0.6))
        if side == "B":  # once per state: A then B, B then A, and both at once
            out["ab"] = dyn.apply_channel(dyn.apply_channel(rho, ch("A", 0.5)), ch("B", 0.5))
            out["ba"] = dyn.apply_channel(dyn.apply_channel(rho, ch("B", 0.5)), ch("A", 0.5))
            out["both"] = dyn.apply_channel(rho, ch("both", 0.5))
        self.out = out

    def result(self):
        return tuple((k, v.tobytes()) for k, v in self.out.items())

    def points(self, _result):
        return 1

    def check(self, _result):
        o, side = self.out, self.side
        close(o["stepped"], o["exact"], RK4_TOL, f"RK4 vs Kraus, side {side}")
        close(o["via_two"], o["exact"], SEMIGROUP_TOL, f"semigroup 0.4 + 0.6, side {side}")
        close(o["exact"], ref.amplitude_damping(self.rho, side, [1.0])[0], SEMIGROUP_TOL,
              f"apply_channel vs reference Kraus map, side {side}")
        if side == "B":
            close(o["ab"], o["ba"], SEMIGROUP_TOL, "A then B vs B then A")
            close(o["ab"], o["both"], SEMIGROUP_TOL, "A then B vs both")
            close(o["both"], ref.amplitude_damping(self.rho, "both", [0.5])[0], SEMIGROUP_TOL,
                  "both vs reference")


# ---------------------------------------------------------------------------
# checks of CLI output


def check_x_measures(evolved, d1, d2, neg, what):
    close(d2, ref.d2(evolved), TOL, f"{what} d2")
    close(neg, ref.negativity(evolved), TOL, f"{what} negativity")
    close(d1, ref.d1_x(evolved), TOL, f"{what} closed-X d1")
    chain(d1, d2, neg, what)


def check_oracle_measures(states_, d1, d2, neg, what):
    close(d2, ref.d2(states_), TOL, f"{what} d2")
    close(neg, ref.negativity(states_), TOL, f"{what} negativity")
    for rho, got in zip(states_, d1):
        best = ref.d1_min(rho)
        if ref.x_offpattern(rho) <= TOL:  # X up to local phases: the exact value is known
            best = min(best, float(ref.d1_x(rho)))
        expect(abs(got - best) <= ORACLE_TOL, f"{what}: oracle d1 {got!r} vs reference {best!r}")
        expect(got <= best + ORACLE_SLACK, f"{what}: oracle d1 {got!r} above reference {best!r}")
    chain(d1, d2, neg, what)


def figure_check(n):
    def check(text):
        head, rows = read_csv(text)
        data = numeric(rows, 3 if n > 1 else 4)
        expect(len(rows) == 1001 + (n == 5), f"figure {n}: {len(rows)} rows")
        if n == 1:
            theta, neg, root, d1 = data.T
            rhos = np.array([ref.theta_state(t) for t in theta])
            check_x_measures(rhos, d1, root**2, neg, "figure 1")
            return
        fam, w, s = FIGURE_STATES[min(n, 5)]
        rho0 = ref.pair_state(fam, w, s)
        gt = data[:, 0]
        if n == 6:
            for col, side in ((1, "A"), (2, "B")):
                close(data[:, col] ** 2, ref.d2(ref.amplitude_damping(rho0, side, gt)), TOL,
                      f"figure 6 side {side} d2")
            return
        ev = ref.amplitude_damping(rho0, "A", gt)
        d1, d2 = data[:, 1], data[:, 2] ** 2
        close(d2, ref.d2(ev), TOL, f"figure {n} d2")
        close(d1, ref.d1_x(ev), TOL, f"figure {n} closed-X d1")
        chain(d1, d2, np.zeros_like(d1), f"figure {n}")
        if n == 5:
            at = np.abs(gt - math.log(1.6)) <= 1e-15
            expect(at.sum() == 1, "figure 5 has no row at gamma0 t = ln 1.6")
            expect(d1[at][0] <= TOL, f"figure 5: d1 {d1[at][0]!r} at ln 1.6")
            expect(np.all(d1[~at] > TOL), "figure 5: d1 vanishes away from ln 1.6")

    return check


def evolve_check(rho0, side):
    def check(text):
        head, rows = read_csv(text)
        expect(head == ["gt", "d1", "d2", "sqrt_d2", "negativity"], f"evolve header {head}")
        gt, d1, d2, root, neg = numeric(rows, 5).T
        close(gt, np.linspace(0.0, 5.0, len(rows)), 1e-15, "evolve time grid")
        close(root**2, d2, TOL, "evolve sqrt_d2")
        ev = ref.amplitude_damping(rho0, side, gt)
        check_x_measures(ev, d1, d2, neg, f"evolve side {side}")

    return check


def measure_check(rho, closed_x):
    def check(text):
        head, rows = read_csv(text)
        expect(len(rows) == 1, "measure prints one row")
        d1, d2, root, neg = numeric(rows, 4)[0]
        close(root**2, d2, TOL, "measure sqrt_d2")
        fn = check_x_measures if closed_x else check_oracle_measures
        fn(rho[None], np.array([d1]), np.array([d2]), np.array([neg]), "measure")

    return check


def sweep_check(family, wmin, wmax, count):
    def flag(rho, side, measure, printed, what):
        excess = ref.growth_excess(rho, side, measure)
        if abs(excess - ref.GROWTH_MARGIN) <= 1e-11:
            return  # within rounding of the margin: either answer is right
        expect(printed == ("true" if excess > ref.GROWTH_MARGIN else "false"),
               f"sweep {what}: printed {printed}, reference excess {excess:.3g}")

    def check(text):
        head, rows = read_csv(text)
        expect(len(rows) == count, f"sweep: {len(rows)} rows")
        for row, w_grid in zip(rows, np.linspace(wmin, wmax, count)):
            w, s = float(row[0]), float(row[1])
            close(w, w_grid, 1e-15, "sweep w")
            close(s, ref.s_max(w), 1e-15, "sweep s = s_max(w)")
            rho = ref.pair_state(family, w, s)
            flag(rho, "A", "d2", row[2], f"{family} w={w} d2 side A")
            flag(rho, "A", "d1", row[3], f"{family} w={w} d1 side A")
            flag(rho, "B", "d2", row[4], f"{family} w={w} d2 side B")
            t_zero = float(row[5])
            if family == "discordant" and w > 0.25:
                close(t_zero, math.log(4.0 * w), 1e-15, "sweep t_zero")
            else:
                expect(math.isnan(t_zero), f"sweep: t_zero {t_zero} for w={w}")

    return check


def critical_check(text):
    lines = text.splitlines()
    expect(len(lines) == 4, f"critical prints {len(lines)} lines")
    expect(lines[0].startswith("w_c ") and lines[2].startswith("w_bar_c "), "critical labels")
    printed_w_c, analytic, w_bar = (float(line.rsplit("=", 1)[1]) for line in lines[:3])
    w_c = (2.0 - math.sqrt(2.0)) / 8.0
    close(printed_w_c, w_c, 1e-15, "critical w_c")
    close(analytic, w_c, 1e-15, "critical analytic line")
    tol = 1e-4  # find_critical_w's bisection tolerance
    expect(not ref.d1_grows(w_bar - tol) and ref.d1_grows(w_bar + tol),
           f"reference growth predicate does not change sign within {tol} of {w_bar}")
    expect(lines[3] == f"w_bar_c > w_c: {'true' if w_bar > w_c else 'false'}", lines[3])


# ---------------------------------------------------------------------------
# seeded inputs


def random_x(rng):
    """X state: Dirichlet populations, coherences at 10-90% of their positivity limit."""
    pops = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    m = np.diag(pops).astype(complex)
    m[0, 3] = m[3, 0] = rng.uniform(0.1, 0.9) * math.sqrt(pops[0] * pops[3])
    m[1, 2] = m[2, 1] = rng.uniform(0.1, 0.9) * math.sqrt(pops[1] * pops[2])
    return m


def random_phased_bell(rng):
    """A Bell-diagonal state under seeded z-rotations of both qubits: complex coherences."""
    while True:
        a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
        u = np.diag(np.kron([np.exp(0.5j * a), np.exp(-0.5j * a)],
                            [np.exp(0.5j * b), np.exp(-0.5j * b)]))
        m = u @ random_bell_negative(rng) @ u.conj()
        if is_outside_closed_form(m):
            return m


def random_full_rank(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return 0.5 * (m + m.conj().T)


def random_bell_negative(rng):
    """Bell-diagonal (I + sum c_i s_i s_i)/4 with a clearly negative coherence."""
    while True:
        c = rng.uniform(-1.0, 1.0, 3)
        lams = (1 - c[0] - c[1] - c[2], 1 - c[0] + c[1] + c[2],
                1 + c[0] - c[1] + c[2], 1 + c[0] + c[1] - c[2])
        # r14 = (c1 - c2)/4, r23 = (c1 + c2)/4
        if min(lams) >= 0.02 and min(c[0] - c[1], c[0] + c[1]) < -0.1:
            m = np.eye(4, dtype=complex)
            for k, s in enumerate((ref.SX, ref.SY, ref.SZ)):
                m += c[k] * np.kron(s, s)
            return m / 4.0


def _family_args(fam, w, s):
    return ["--theta", repr(w)] if fam == "theta" else ["--w", repr(w), "--s", repr(s)]


def build(name, seed, work, modules):
    rng = np.random.default_rng(seed)
    cli = modules["cli"]
    ops = []

    def path(tag):
        return os.path.join(work, f"{len(ops):03d}-{tag}")

    def add_cli(argv, check, out=True, points=None):
        out_path = path("out.csv") if out else None
        ops.append(CliOp(cli, argv + (["--out", out_path] if out else []), out_path, check, points))

    def add_state_file(rho, tag):
        p = path(tag)
        write_state(p, rho)
        return p

    if name == "x-family":
        for n in range(1, 7):
            add_cli(["figure", str(n)], figure_check(n))
        fams = [FIGURE_STATES[n] for n in (2, 3, 4, 5)]
        fams += [("theta", float(t), None) for t in rng.uniform(0.05, math.pi / 2 - 0.05, 3)]
        for fam, w, s in fams:
            rho0 = ref.theta_state(w) if fam == "theta" else ref.pair_state(fam, w, s)
            for side in ("A", "B", "both"):
                add_cli(["evolve", "--family", fam] + _family_args(fam, w, s)
                        + ["--side", side, "--points", str(EVOLVE_POINTS)], evolve_check(rho0, side))
        for fam, lo, hi, count in SWEEPS:
            add_cli(["sweep", "--family", fam, "--wmin", repr(lo), "--wmax", repr(hi),
                     "--wcount", str(count)], sweep_check(fam, lo, hi, count))
        add_cli(["critical"], critical_check, out=False, points=1)
        for k in range(4):
            rho = random_x(rng)
            add_cli(["measure", add_state_file(rho, f"x{k}.state")], measure_check(rho, True))
    elif name == "non-x":
        # Bell-diagonal states with a negative coherence, as they are and under
        # local phases, measured at t = 0.  Full-rank and phased X states, and
        # evolved states of any kind, are left out: on a share of those inputs
        # the oracle stops short of the minimum, so correctness would depend
        # on the seed (CHANGES.md).  The oracle's cost varies from state to
        # state; many states average it out.
        for k in range(24):
            for tag, rho in (("bell", random_bell_negative(rng)),
                             ("phased", random_phased_bell(rng))):
                add_cli(["measure", add_state_file(rho, f"{tag}{k}.state")],
                        measure_check(rho, False))
    elif name == "rk4-crosscheck":
        for _ in range(4):
            rho = random_full_rank(rng)
            for side in ("A", "B"):
                ops.append(TrajectoryOp(modules["dynamics"], rho, side))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops


def is_outside_closed_form(rho):
    """Off-pattern entries, or complex or negative coherences: the oracle route."""
    coh = np.array([rho[0, 3], rho[1, 2]])
    return (ref.x_offpattern(rho) > 1e-3 or np.max(np.abs(coh.imag)) > 1e-3
            or np.min(coh.real) < -1e-3)
