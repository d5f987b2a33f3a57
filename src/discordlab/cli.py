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
`dynamics.evolve_states` call); figures 2-6 use the closed-form family
series of `families`, `sweep` hands every member it keeps to one
`families.regime` call, and `critical` prints its closed-form critical
couplings.

All numeric output uses 17 significant digits ("%.17g") and line-feed
endings, so identical invocations produce byte-identical files.
`write_rows` formats a CSV table in one of two ways with the same bytes:
a table with a string column, or with fewer than `VECTOR_MIN_FIELDS`
fields, by one % operation (a row template repeated once per row); a
larger all-float table by `format_floats`, which writes every field in
numpy and the table as one byte buffer.  Exit codes: 0 on success, 2 on
parse errors (state files, config files, usage), 3 on state validation
errors, 4 on domain or parameter errors.
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
    and swings with the load on the disk.  The UTF-8 bytes go out through
    os.write on the raw descriptor, with no text layer in between.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):  # os.write may take fewer bytes than offered
            done += os.write(fd, data[done:])
        if stat.S_ISREG(os.fstat(fd).st_mode):  # not a pipe or device
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# decimal exponents X = -4..16 of the fixed notation of %.17g: _POW10[X + 4]
# is 10^X (the double nearest it for X < 0) and _POW10[20 - X] is 10^(16 - X),
# exact up to 10^20 = 2^20 5^20
_POW10 = 10.0 ** np.arange(-4, 21)
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# the four ASCII digits of 0..9999 as one uint32 each: every 4-character
# string over "0".."9", in order
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                indexing="ij"), axis=-1).view(np.uint32).ravel()
_SLOT = 25  # bytes per field: "-1.2345678901234567e-308" and its separator
# below about 1250 fields the fixed cost of format_floats outweighs its
# per-field gain over %, timed among the benchmark's x-family operations
VECTOR_MIN_FIELDS = 1500


def format_floats(table) -> bytes:
    """The rows of a 2-D float table as CSV lines, each field as "%.17g" writes it.

    A value v in [1e-4, 1e17) prints in fixed notation with 17 significant
    digits: the decimal exponent X in -4..16 and N = v 10^(16 - X) rounded
    half to even, an integer in [1e16, 1e17).  X is exact: it counts the
    doubles nearest 10^-4 .. 10^16 at or below v, no double lies between a
    power of ten and its nearest double, and none rounds up to the next
    power at 17 digits.  10^(16 - X) <= 1e20 is an exact double, so Dekker's
    TwoProduct gives v 10^(16 - X) = p + e exactly; p >= 2^53 is an even
    integer, so N = p + rint(e) rounds half to even as % does.  The digits
    are laid out with a few slice copies per exponent and trailing zeros
    cut, with the point when no fraction is left.  0.0 writes "0"; -0.0,
    negatives, nan, inf and the rest go through % one at a time.
    """
    table = np.asarray(table, dtype=float)
    v = table.ravel()
    n = v.size
    fast = (v >= 1e-4) & (v < 1e17)  # false for nan
    v0 = np.where(fast, v, 0.0)
    x = np.searchsorted(_POW10[:21], v0, side="right").astype(np.int8) - 5
    x[~fast] = 0  # with v0 = 0 this writes "0"
    # TwoProduct v0 * 10^(16 - X) = p + e, summed in Dekker's order; working
    # in place keeps the heap small, which spares page faults
    k = 20 - x
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    p = v0 * _POW10[k]
    ah = v0 * _SPLIT
    al = ah - v0
    ah -= al
    np.subtract(v0, ah, out=al)
    e = ah * bh
    e -= p
    ah *= bl
    bh *= al
    bl *= al
    e += ah
    e += bh
    e += bl
    del v0, ah, al, bh, bl
    big = p.astype(np.int64)
    big += np.rint(e, out=e).astype(np.int64)
    del p, e
    hi = (big // 10**8).astype(np.int32)
    lo = (big % 10**8).astype(np.int32)
    del big
    groups = np.empty((n, 5), np.int32)  # N as 0..9 and four groups of 4 digits
    groups[:, 0] = hi // 10**8
    groups[:, 1] = hi // 10**4 % 10**4
    groups[:, 2] = hi % 10**4
    groups[:, 3] = lo // 10**4
    groups[:, 4] = lo % 10**4
    digits = _DIGITS4[groups].view(np.uint8)  # "000" then the 17 digits of N
    del hi, lo, groups
    digits[:, 2] = ord("1")  # a stop, so that N = 0 has no non-zero digit
    last = 16 - np.argmax(digits[:, :1:-1] != ord("0"), axis=1)  # -1 for N = 0
    length = np.where(x >= 0, np.where(last > x, last + 2, x + 1), last + 2 - x)

    # one slice copy per exponent, over the fields sorted by exponent
    order = np.argsort(x, kind="stable")
    dig = digits.view("V20").ravel()[order].view(np.uint8).reshape(n, 20)[:, 3:]
    del digits
    ends = np.cumsum(np.bincount(x + 4, minlength=21)).tolist()
    text = np.empty((n, _SLOT), np.uint8)
    for ex, start, end in zip(range(-4, 17), [0] + ends, ends):
        if start == end:
            continue
        rows, d = text[start:end], dig[start:end]
        if ex >= 0:  # X + 1 integer digits, the point, the rest
            rows[:, :ex + 1] = d[:, :ex + 1]
            rows[:, ex + 1] = ord(".")
            rows[:, ex + 2:18] = d[:, ex + 1:]
        else:  # "0." and -X - 1 zeros before the digits
            rows[:, :1 - ex] = ord("0")
            rows[:, 1] = ord(".")
            rows[:, 1 - ex:18 - ex] = d
    out = np.empty_like(text)
    out.view(f"V{_SLOT}").ravel()[order] = text.view(f"V{_SLOT}").ravel()
    del dig, text

    for i in np.flatnonzero(~fast & (v.view(np.int64) != 0)):  # all but 0.0
        field = b"%.17g" % v[i]
        out[i, :len(field)] = np.frombuffer(field, np.uint8)
        length[i] = len(field)
    sep = np.full(table.shape, ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    out.ravel()[np.arange(0, n * _SLOT, _SLOT) + length] = sep.ravel()
    return out[np.arange(_SLOT) <= length[:, None]].tobytes()


def write_rows(out_path, header, *columns):
    """One header line plus a CSV row per entry of the equal-length columns,
    through `write_text`.

    String columns are written as they are and numeric ones as `fmt` would
    write them ("%.17g").  A table of at least `VECTOR_MIN_FIELDS` fields,
    all float, goes through `format_floats`; any other table through one %
    operation: one row template, repeated once per row, applied to the
    values row by row.  Both write the same bytes.
    """
    cols = [np.asarray(c) for c in columns]
    if len(cols) * len(cols[0]) >= VECTOR_MIN_FIELDS and all(c.dtype.kind == "f" for c in cols):
        body = format_floats(np.column_stack(cols)).decode("ascii")
    else:
        row = ",".join("%s" if c.dtype.kind in "US" else "%.17g" for c in cols) + "\n"
        body = (row * len(cols[0])) % tuple(np.array(cols, dtype=object).T.ravel().tolist())
    write_text(out_path, header + "\n" + body)


def _read_state(path) -> np.ndarray:
    """The validated state of a state file, divided by its trace.

    `states.validate` admits a trace within TOL of 1, and the closed forms
    of `measure_batch` assume exactly unit trace, so every state file is
    renormalized where it enters; a trace of exactly 1.0 leaves every bit.
    """
    rho = states.validate(states.read_state_file(path))
    return rho / rho.trace().real


def cmd_measure(ns) -> int:
    rho = _read_state(ns.state_file)
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
        return _read_state(ns.state_file)
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
    members = []
    for w in np.linspace(ns.wmin, ns.wmax, ns.wcount):
        s = families.s_max(float(w)) if ns.s is None else ns.s
        try:
            members.append(families.FamilyParams(ns.family, w=float(w), s=float(s)))
        except families.ParamOutOfRange as exc:
            print(f"warning: skipping w={fmt(w)}, s={fmt(s)}: {exc}", file=sys.stderr)
    reps = families.regime(members)  # one pass over every member
    flags = ("d2_increases_under_A", "d1_increases_under_A", "d2_increases_under_B")
    write_rows(ns.out, SWEEP_HEADER, [rep.w for rep in reps], [rep.s for rep in reps],
               *([fmt_bool(getattr(rep, flag)) for rep in reps] for flag in flags),
               [math.nan if rep.t_zero is None else rep.t_zero / ns.gamma0 for rep in reps])
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


@functools.cache
def _subcommands() -> dict:
    """The subcommand parsers of `_parser()`, by name."""
    (action,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _parse(argv) -> argparse.Namespace:
    """The namespace `_parser().parse_args(argv)` returns, with its errors.

    A command line that starts with a subcommand is parsed by that
    subcommand's parser alone, which is what the full parser hands it to,
    at about half the cost; arguments it does not take are the full
    parser's usage error.  Any other command line goes to the full parser.
    """
    sub = _subcommands().get(argv[0]) if argv else None
    if sub is None:
        return _parser().parse_args(argv)
    ns, extra = sub.parse_known_args(argv[1:])
    if extra:
        _parser().error(f"unrecognized arguments: {' '.join(extra)}")
    ns.command = argv[0]
    return ns


def main(argv=None) -> int:
    try:
        ns = _parse(sys.argv[1:] if argv is None else list(argv))
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
