"""discordlab benchmark: one workload per run, in-process, closed loop.

    python3 perfbench/run.py --workload x-family --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  A run
  1. times fresh interpreters importing `discordlab` and `discordlab.cli`
     (`setup_s`; with --trace 1, `-X importtime` splits it by package),
  2. tests the reference module, builds the workload's seeded inputs,
  3. runs one warm-up round whose outputs are checked against the
     reference, then whole timed rounds until --seconds of operation
     time have passed; every timed output must equal the warm-up's,
  4. prints one JSON line: correct, attempted, failed and the metrics.

With --trace 1 the timed rounds alternate untraced and traced; the
per-layer metrics are per traced round, and `trace.overhead_pct` is the
traced round time over the untraced one.  Spans are written to
perfbench/out/spans-<workload>-<seed>.npz.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("x-family", "non-x", "rk4-crosscheck")
SETUP_SAMPLES = 5
IMPORT = "import discordlab, discordlab.cli"

# cap BLAS and OpenMP pools at the cores this process may use, before numpy loads
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)


def fresh_import(extra=()):
    """Wall time of a new interpreter that imports the package, and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", IMPORT], cwd=ROOT, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"importing discordlab failed:\n{proc.stderr}")
    return elapsed, proc.stderr


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*([\w.]+)")


def import_breakdown():
    """Median self import time (s) of the numpy, scipy and discordlab modules."""
    samples = {"numpy": [], "scipy": [], "discordlab": []}
    for _ in range(SETUP_SAMPLES):
        _, err = fresh_import(("-X", "importtime"))
        totals = dict.fromkeys(samples, 0.0)
        for line in err.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(2).split(".")[0] in totals:
                totals[m.group(2).split(".")[0]] += int(m.group(1)) * 1e-6
        for k, v in totals.items():
            samples[k].append(v)
    return {f"setup.{k}_s": statistics.median(v) for k, v in samples.items()}


def run_round(ops, tracer=None):
    """Run every operation once; returns (durations, points, failures, outputs)."""
    durations, points, failed, outputs = [], 0, 0, []
    for op in ops:
        t0 = time.perf_counter()
        try:
            op.run()
        except Exception:  # a failing operation is counted, the run goes on
            durations.append(time.perf_counter() - t0)
            traceback.print_exc(file=sys.stderr)
            failed += 1
            outputs.append(None)
            continue
        durations.append(time.perf_counter() - t0)
        out = op.result()
        points += op.points(out)
        outputs.append(out)
        if tracer is not None and isinstance(out, str):
            tracer.counts["cli.bytes_out"] += len(out.encode())
    return durations, points, failed, outputs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "discordlab", "cli.py")):
        print(f"error: no discordlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    fresh_import()  # warm-up: byte-compiles the package on a fresh checkout
    if args.trace:
        setup = import_breakdown()
    else:
        setup = {"setup_s": statistics.median(fresh_import()[0] for _ in range(SETUP_SAMPLES))}

    from discordlab import cli, dynamics, families, linalg, measures, states

    import reference
    import workloads
    from tracing import Tracer

    modules = {"cli": cli, "dynamics": dynamics, "families": families, "linalg": linalg,
               "measures": measures, "states": states}
    reference.self_test()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    correct = True
    try:
        ops = workloads.build(args.workload, args.seed, work, modules)
        _, _, _, expected = run_round(ops)
        for op, out in zip(ops, expected):
            if out is None:
                continue
            try:
                op.check(out)
            except workloads.CheckFailed as exc:
                print(f"check failed: {op.label}: {exc}", file=sys.stderr)
                correct = False

        tracer = Tracer(modules) if args.trace else None
        durations, failed, attempted = [], 0, 0
        round_s = {False: [], True: []}
        throughput = []  # points per second of each untraced round
        measured = 0.0
        while measured < args.seconds or (tracer and not round_s[True]):
            for traced in ((False, True) if tracer else (False,)):
                if traced:
                    tracer.install()
                try:
                    d, p, f, outs = run_round(ops, tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                for op, out, want in zip(ops, outs, expected):
                    if out is not None and out != want:
                        print(f"output changed between rounds: {op.label}", file=sys.stderr)
                        correct = False
                durations += d
                failed += f
                if not traced:
                    throughput.append(p / sum(d))
                attempted += len(ops)
                round_s[traced].append(sum(d))
                measured += sum(d)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics = {
            "points_per_s": (statistics.median(throughput), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(durations), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup["setup_s"], "s"),
        }
    else:
        metrics = layer_metrics(tracer, len(round_s[True]), setup)
        plain, traced = statistics.mean(round_s[False]), statistics.mean(round_s[True])
        metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.npz"))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


CALL_LAYERS = ("linalg.eig", "states.validate", "measures.d1_closed", "measures.oracle",
               "dynamics.apply_channel", "dynamics.integrate", "dynamics.lindblad_rhs")
SELF_LAYERS = ("linalg.eig", "states.validate", "states.bloch", "states.io",
               "measures.d2_closed", "measures.negativity", "measures.d1_closed",
               "measures.oracle", "measures.oracle_grid", "measures.oracle_refine",
               "dynamics.apply_channel", "dynamics.integrate", "dynamics.lindblad_rhs",
               "families.series", "families.regime", "families.critical", "cli")


def layer_metrics(tracer, rounds, setup):
    """Per-layer metrics, each per traced round except the import times."""
    out = {}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = (tracer.calls[layer] / rounds, "calls/round")
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_s[layer] / rounds, "s/round")
    out["measures.oracle_refine.iters"] = (
        tracer.counts["measures.oracle_refine.iters"] / rounds, "iters/round")
    out["measures.oracle_refine.improved"] = (
        tracer.counts["measures.oracle_refine.improved"] / rounds, "calls/round")
    out["cli.bytes_out"] = (tracer.counts["cli.bytes_out"] / rounds, "B/round")
    for k, v in setup.items():
        out[k] = (v, "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
