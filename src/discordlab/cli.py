"""Command line front end emitting deterministic CSV.

Subcommands, each taking only the options it reads:

measure   STATE_FILE --out: one row of correlation measures
evolve    STATE_FILE or --family --theta --w --s; --side --gamma0 --tmax
          --points --config --out: measures along one- or two-sided emission
figure    N --gamma0 --tmax --points --config --out: write fig<N>.csv
critical  --out: the two critical mixing parameters of the discordant family
sweep     --family --wmin --wmax --wcount --s --gamma0 --config --out:
          regime booleans over a grid of w at the fixed coherence --s, or
          at s_max(w) without it

Flags win over the `key=value` lines of --config, which win over
DEFAULTS; a config file may carry keys the command does not read.
Options are spelled out in full: a prefix of one is a usage error.

`measure`, `evolve` and `figure 1` hand all their states to
`measures.measure_batch` in one call (`evolve` builds them with one
`dynamics.evolve_states` call); figures 2-6 and `sweep` use the
closed-form family series of `families`, and `critical` prints its
closed-form critical couplings.

All numeric output uses 17 significant digits ("%.17g") and line-feed
endings, so identical invocations produce byte-identical files; each CSV
table is formatted by one % operation, a row template repeated once per
row (`write_rows`).  Exit codes: 0 on
success, 2 on parse errors (state files, config files, usage), 3 on state
validation errors, 4 on domain or parameter errors.
"""

import argparse
import functools
import math
import os
import stat
import sys

import numpy as np

from . import dynamics, families, measures, states

MEASURE_HEADER = "d1,d2,sqrt_d2,negativity,d1_method"
EVOLVE_HEADER = "gt,d1,d2,sqrt_d2,negativity"
SWEEP_HEADER = "w,s,d2_inc_A,d1_inc_A,d2_inc_B,t_zero"
FIGURE_HEADERS = {
    1: "theta,negativity,sqrt_d2,d1",
    2: "gt,d1,sqrt_d2",
    3: "gt,d1,sqrt_d2",
    4: "gt,d1,sqrt_d2",
    5: "gt,d1,sqrt_d2",
    6: "gt,sqrt_d2_sideA,sqrt_d2_sideB",
}
# family and (w, s) behind each dynamical figure; figure 1 is the theta scan
FIGURE_STATES = {
    2: ("classical", 0.25, 0.25),
    3: ("discordant", 0.076, 0.179),
    4: ("discordant", 0.2, 0.2),
    5: ("discordant", 0.4, 0.2),
    6: ("discordant", 0.4, 0.2),
}


class ConfigError(ValueError):
    """A config file or invocation did not parse."""


class UnknownFigure(ValueError):
    """Figure number outside 1..6."""


DEFAULTS = {"gamma0": 1.0, "t_max": 5.0, "n_points": 1001}
# config files accept the flag spellings beside the names in DEFAULTS
_SPELLINGS = {"tmax": "t_max", "points": "n_points"}


def read_config_file(path) -> dict:
    """Parse a plain key=value config file into values keyed as in DEFAULTS."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        key = _SPELLINGS.get(key, key)
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = type(DEFAULTS[key])(text)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {text!r} for {key!r}")
    return out


def fill_settings(ns):
    """Fill the command's unset --gamma0/--tmax/--points from --config, then
    from DEFAULTS, and range-check them.  A config file may carry keys the
    command does not read, so one file can serve several commands."""
    given = read_config_file(ns.config) if ns.config is not None else {}
    for key, default in DEFAULTS.items():
        if hasattr(ns, key) and getattr(ns, key) is None:
            setattr(ns, key, given.get(key, default))
    dynamics._check_gamma0(ns.gamma0)
    if hasattr(ns, "t_max"):  # sweep scans a fixed horizon instead
        if not 0.0 < ns.t_max < math.inf:
            raise ValueError(f"tmax must be positive and finite, got {ns.t_max!r}")
        if ns.n_points < 2:
            raise ValueError(f"points must be at least 2, got {ns.n_points!r}")


def fmt(value) -> str:
    return format(float(value), ".17g")


def fmt_bool(flag) -> str:
    return "true" if flag else "false"


def write_text(out_path, text):
    """Emit text to stdout, or to out_path with LF endings only.

    An existing output file is overwritten in place and then cut to the
    new length.  Truncating it to zero first would free and reallocate its
    blocks on every call: on ext4 that costs more than measuring a state
    and swings with the load on the disk.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              encoding="utf-8", newline="") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not a pipe or device
            fh.truncate()


def write_rows(out_path, header, *columns):
    """One header line plus a CSV row per entry of the equal-length columns,
    through `write_text`.

    String columns are written as they are and numeric ones as `fmt` would
    write them ("%.17g"), the whole table in one % operation: one row
    template, repeated once per row, applied to the values row by row.
    """
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%s" if c.dtype.kind in "US" else "%.17g" for c in cols) + "\n"
    values = np.array(cols, dtype=object).T.ravel().tolist()
    write_text(out_path, header + "\n" + (row * len(cols[0])) % tuple(values))


def cmd_measure(ns) -> int:
    rho = states.validate(states.read_state_file(ns.state_file))
    d1, d2, neg, route = measures.measure_batch(rho[None])
    write_rows(ns.out, MEASURE_HEADER, d1, d2, np.sqrt(d2), neg, route)
    return 0


def _initial_state(ns):
    given_family = ns.family is not None
    given_file = ns.state_file is not None
    if given_family == given_file:
        raise ConfigError("provide exactly one of --family or a state file")
    if given_file:
        for flag in ("theta", "w", "s"):
            if getattr(ns, flag) is not None:
                raise ConfigError(f"--{flag} sets a family parameter; a state file takes none")
        return states.validate(states.read_state_file(ns.state_file))
    p = families.FamilyParams(ns.family, theta=ns.theta, w=ns.w, s=ns.s)
    return families.make_state(p)


def cmd_evolve(ns) -> int:
    fill_settings(ns)
    rho0 = _initial_state(ns)
    t = np.linspace(0.0, ns.t_max, ns.n_points)
    d1, d2, neg, _ = measures.measure_batch(dynamics.evolve_states(rho0, ns.side, t, ns.gamma0))
    write_rows(ns.out, EVOLVE_HEADER, ns.gamma0 * t, d1, d2, np.sqrt(d2), neg)
    return 0


def _figure_columns(ns):
    if ns.n == 1:
        theta = np.linspace(0.0, np.pi / 2, ns.n_points)
        d1, d2, neg, _ = measures.measure_batch(families.theta_states(theta))
        return theta, neg, np.sqrt(d2), d1
    family, w, s = FIGURE_STATES[ns.n]
    p = families.FamilyParams(family, w=w, s=s)
    gt = ns.gamma0 * np.linspace(0.0, ns.t_max, ns.n_points)  # the families work in gamma0 t
    if ns.n == 5:
        # the D1 curve of this state touches zero at gamma0 t = ln(4w), which a
        # uniform grid never samples closely enough to show; add the exact point
        # when it lies on the grid's span and is not already one of its points
        zero = np.log(4.0 * w)
        if zero <= gt[-1] and zero not in gt:
            gt = np.sort(np.append(gt, zero))
    d2 = families.d2_timeseries_A(p, gt)
    if ns.n == 6:
        d2_b = families.d2_timeseries_B(p, gt)
        return d2.times, np.sqrt(d2.values), np.sqrt(d2_b.values)
    d1 = families.d1_timeseries_A(p, gt)
    return d1.times, d1.values, np.sqrt(d2.values)


def cmd_figure(ns) -> int:
    if ns.n not in FIGURE_HEADERS:
        raise UnknownFigure(f"no figure {ns.n}; expected 1..6")
    fill_settings(ns)
    out = ns.out if ns.out is not None else f"fig{ns.n}.csv"
    write_rows(out, FIGURE_HEADERS[ns.n], *_figure_columns(ns))
    return 0


def cmd_critical(ns) -> int:
    w_c = families.find_critical_w("d2")
    w_bar = families.find_critical_w("d1")
    analytic = (2.0 - np.sqrt(2.0)) / 8.0
    write_text(ns.out,
               f"w_c (hilbert-schmidt growth threshold) = {fmt(w_c)}\n"
               f"analytic reference (2 - sqrt(2))/8     = {fmt(analytic)}\n"
               f"w_bar_c (trace-norm growth threshold)  = {fmt(w_bar)}\n"
               f"w_bar_c > w_c: {fmt_bool(w_bar > w_c)}\n")
    return 0


def cmd_sweep(ns) -> int:
    fill_settings(ns)
    if ns.wcount < 1:
        raise ValueError(f"wcount must be positive, got {ns.wcount!r}")
    cols = [[] for _ in SWEEP_HEADER.split(",")]
    for w in np.linspace(ns.wmin, ns.wmax, ns.wcount):
        s = families.s_max(float(w)) if ns.s is None else ns.s
        try:
            p = families.FamilyParams(ns.family, w=float(w), s=float(s))
        except families.ParamOutOfRange as exc:
            print(f"warning: skipping w={fmt(w)}, s={fmt(s)}: {exc}", file=sys.stderr)
            continue
        rep = families.regime(p)
        t_zero = float("nan") if rep.t_zero is None else rep.t_zero / ns.gamma0
        row = (rep.w, rep.s, fmt_bool(rep.d2_increases_under_A),
               fmt_bool(rep.d1_increases_under_A), fmt_bool(rep.d2_increases_under_B), t_zero)
        for col, value in zip(cols, row):
            col.append(value)
    write_rows(ns.out, SWEEP_HEADER, *cols)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes the option groups it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file (default: stdout, or fig<N>.csv)")
    rate = argparse.ArgumentParser(add_help=False)
    rate.add_argument("--gamma0", type=float, default=None, help="emission rate (default 1)")
    rate.add_argument("--config", default=None, help="key=value config file")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--tmax", dest="t_max", type=float, default=None,
                      help="final time (default 5)")
    grid.add_argument("--points", dest="n_points", type=int, default=None,
                      help="samples per series (default 1001)")

    # allow_abbrev=False everywhere: a prefix of an option is not that option
    parser = argparse.ArgumentParser(prog="discordlab", allow_abbrev=False,
                                     description="two-qubit discord measures under local emission")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("measure", parents=[out], help="measures of one state file")
    p.add_argument("state_file", help="16-line re,im state file")
    p.set_defaults(run=cmd_measure)

    p = add_parser("evolve", parents=[rate, grid, out],
                   help="measures along an emission channel")
    p.add_argument("state_file", nargs="?", default=None, help="16-line re,im state file")
    p.add_argument("--family", choices=("classical", "discordant", "theta"), default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--w", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--side", choices=("A", "B", "both"), default="A")
    p.set_defaults(run=cmd_evolve)

    p = add_parser("figure", parents=[rate, grid, out], help="write fig<N>.csv data")
    p.add_argument("n", type=int, help="figure number, 1..6")
    p.set_defaults(run=cmd_figure)

    p = add_parser("critical", parents=[out], help="critical mixing parameters")
    p.set_defaults(run=cmd_critical)

    p = add_parser("sweep", parents=[rate, out], help="regime booleans over a (w, s) grid")
    p.add_argument("--family", choices=("classical", "discordant"), default="discordant")
    p.add_argument("--wmin", type=float, default=0.01)
    p.add_argument("--wmax", type=float, default=0.49)
    p.add_argument("--wcount", type=int, default=25)
    p.add_argument("--s", type=float, default=None, help="fixed coherence (default: s_max(w))")
    p.set_defaults(run=cmd_sweep)
    return parser


# one parser serves every main call in a process: building it costs more
# than measuring a state, and parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return ns.run(ns)
    except (states.StateFileError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except states.StateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, dynamics.InvalidTime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
