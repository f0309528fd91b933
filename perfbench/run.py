"""cfmetric benchmark: one workload per invocation, in a fresh interpreter.

    python3 perfbench/run.py --workload dim_sweep --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each is there):
dim_sweep, sample_bulk, sample_deep.

--trace 0 measures the end-to-end metrics with tracing off.  setup_s is the
median over this interpreter and fresh ones, each paying import plus the
workload's set-up; the fresh ones run in breaks of the measured time, which
spreads it over a longer stretch of the host.  --trace 1 is the separate traced run: spans around
every call into a layer, per-layer metrics, and the tracing overhead
(traced minus untraced wall time over the same operations).  Spans are
written to perfbench/out/ when the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give the environment, the
metrics with their units and directions, the workload's figures and the
correctness gates.  The exit code is 0 when every gate passes, 1 when one
fails, 2 when the package sources are missing.

--smoke shrinks every size so that a run takes a few seconds; test_smoke.py
runs it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import NO_TRACE, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# one BLAS thread: the operator build is not BLAS-bound, and one thread keeps
# the *_err figures reproducible and the timings steady on a shared machine
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the measured time has SETUP_BREAKS breaks; each runs fresh set-ups until
# they took SETUP_BREAK_S (one curve build on dim_sweep, several imports on the
# others)
SETUP_BREAKS = 2
SETUP_BREAK_S = 1.0
# On a shared host, other tenants slow the CPU in episodes of a tenth of a
# second to minutes: code that makes many small numpy calls then runs up to
# twice as slow, and its CPU time grows with its wall time.  Even a slow
# stretch is broken by quiet gaps, so the figures come from the quiet part of
# the run.  A run of many short ops is cut into windows of WINDOW_OPS
# consecutive ops, a run of few long ops into single ops.  The quiet windows
# are those whose median op time is within QUIET_BAND of the fastest window's,
# and at least MIN_QUIET windows are kept.  A slowdown of the program itself
# shows in every window.
WINDOW_OPS = 50
MIN_QUIET = 12
QUIET_BAND = 1.15
CHILD_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("dim_sweep", "sample_bulk", "sample_deep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(args, tr=NO_TRACE):
    """Import the package, then run the workload's set-up; return both."""
    t0 = time.perf_counter()
    import cfmetric
    import workloads

    origin = Path(cfmetric.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"cfmetric was imported from {origin}, not from {SRC}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    wl.setup(tr)
    return time.perf_counter() - t0, wl


def fresh_setups(args, setups: list) -> None:
    """Set up in fresh interpreters, one after another, until they took
    SETUP_BREAK_S; append each set-up time to `setups`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    spent = 0.0
    while spent < SETUP_BREAK_S:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        setups.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        spent += setups[-1]


def environment(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").is_dir():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def timing(ops: list) -> tuple[float, float, float]:
    """(p50 s, p99 s, work per busy second) of a list of (seconds, work) ops;
    the percentiles are over answered ops."""
    lat = sorted(dt for dt, work in ops if work)
    p99 = statistics.quantiles(lat, n=100, method="inclusive")[98] if len(lat) > 1 else lat[0]
    return (statistics.median(lat), p99,
            sum(work for _, work in ops) / sum(dt for dt, _ in ops))


def quiet_ops(ops: list) -> list:
    """The ops of the quiet windows of the run, in run order."""
    size = WINDOW_OPS if len(ops) >= 20 * WINDOW_OPS else 1
    windows = [ops[i:i + size] for i in range(0, len(ops) - size + 1, size)]
    med = [statistics.median(dt for dt, _ in w) for w in windows]
    order = sorted(range(len(windows)), key=med.__getitem__)
    n_quiet = sum(m <= QUIET_BAND * med[order[0]] for m in med)
    keep = sorted(order[:max(n_quiet, MIN_QUIET)])
    return [op for i in keep for op in windows[i]]


def end_to_end(setups: list, out, rss_mb: float) -> dict:
    p50, _, rate = timing(quiet_ops(out.ops))
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "answered_frac": (out.attempted - out.refused - out.failed) / out.attempted,
        "op_p50_us": p50 * 1e6,
        "work_per_s": rate,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "cfmetric" / "__init__.py").is_file():
        print(f"error: no cfmetric package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        setup_s, _ = timed_setup(args)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    env = environment(args)
    print("env", json.dumps(env))

    if args.trace:
        tr = Tracer()
        t0 = time.perf_counter()
        with tr.span("bench.setup"):
            _, wl = timed_setup(args, tr)
        wl.make_inputs()
        out, values = wl.trace(tr, args.seconds)
        values.update({f"{layer}.self_s": s for layer, s in tr.self_times().items()})
        values["trace.spans"] = len(tr.spans)
        values["bench.op_p99_us"] = timing(out.ops)[1] * 1e6
        fails = wl.check()
        tr.dump(OUT / f"trace_{args.workload}_seed{args.seed}.json",
                {"env": env, "metrics": values, "wall_s": time.perf_counter() - t0})
    else:
        setup_s, wl = timed_setup(args)
        from workloads import Budget  # imported by the timed set-up

        setups = [setup_s]
        wl.make_inputs()
        breaks = [lambda: fresh_setups(args, setups)] * SETUP_BREAKS
        out = wl.measure(Budget(args.seconds, breaks))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = end_to_end(setups, out, rss_mb)
        fails = wl.check()
        print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")

    print(f"{wl.name}: op = {wl.op_desc}; work = {wl.work_desc}; "
          f"{out.attempted} attempted, {out.refused} refused, {out.failed} failed")
    metrics = {}
    for m in spec[kind]:
        name = m["name"]
        # per-layer metrics of a layer the workload does not call read 0
        value = float(values.get(name, 0.0)) if args.trace else float(values[name])
        metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"  {name:32s} {value:14.6g} {m['unit']:8s} [{m['better']}]")
    for key, value in wl.figures().items():
        print(f"  figure {key} = {value}")
    print("gates: " + ("all passed" if not fails else "FAILED " + ", ".join(fails)))
    print(json.dumps({"correct": not fails, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
