"""reltoa benchmark: one workload, one fresh process, cold pass then warm passes.

    python3 perfbench/run.py --workload narrow_table --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src, never from
an installed copy.  The cold pass starts with an empty coefficient cache,
which is what every ``reltoa`` CLI invocation pays; warm passes repeat the
same cells in the same process.  Their number is fixed by --seconds and the
workload's nominal pass times (workloads.NOMINAL_S), at least
MIN_WARM_PASSES, so a seed always gives the same passes and counts.
Every cell is checked against refs.json.  Cell times are scaled to a
reference host speed by the probe in speed.py.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from a
separate run in which perfbench/tracing.py wraps the library's public
functions; it also writes the spans to perfbench/out/.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  See
README.md for what each metric means and which layer metric should move
which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

MIN_WARM_PASSES = 3
# setup_s is the median CPU time (user + system) of SETUP_RUNS imports, half
# before the passes and half after them.  Their wall times fall on ~50 ms
# steps on a shared host; a child's CPU time leaves out the time it waits
# for a CPU and shows no such steps.
SETUP_RUNS = 8
SETUP_TIMEOUT_S = 60
MAX_LISTED = 12  # failed cells named on stdout
IMPORT_CLI = f"import sys; sys.path.insert(0, {SRC!r}); import reltoa.cli"


def import_library():
    """Import reltoa from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "reltoa", "__init__.py")):
        raise SystemExit(f"error: no library source at {SRC}/reltoa; run from a checkout")
    sys.path.insert(0, SRC)
    import reltoa
    import reltoa.cli  # noqa: F401  (loaded as in a CLI process; counts in peak_rss_mb)

    where = os.path.dirname(os.path.abspath(reltoa.__file__))
    if where != os.path.join(SRC, "reltoa"):
        raise SystemExit(f"error: imported reltoa from {where}, expected {SRC}/reltoa")
    return reltoa


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_imports(count: int) -> list[float]:
    """CPU times for fresh interpreters to import reltoa.cli."""
    cmd = [sys.executable, "-c", IMPORT_CLI]
    times = []
    for _ in range(count):
        t0 = child_cpu_s()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(child_cpu_s() - t0)
    return times


def machine_facts(reltoa) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "platform": platform.platform(),
        "reltoa": reltoa.__version__,
    }


def run_pass(cells, tracer=None) -> stats.PassResult:
    """Evaluate every cell once while the host-speed probes run; checks run
    after the timed loop."""
    values, errors, spans = [], [], []
    clock = speed.SAMPLER.clock
    with speed.SAMPLER.running() as sampler:
        for cell in cells:
            t0 = clock()
            try:
                if tracer is None:
                    value = cell.run()
                else:
                    with tracer.cell(cell.name):
                        value = cell.run()
                error = None
            except Exception as exc:  # a failing cell must not end the run
                value, error = None, type(exc).__name__
            spans.append((t0, clock()))
            values.append(value)
            errors.append(error)
    ok = [err is None and cell.check(val) for cell, val, err in zip(cells, values, errors)]
    latencies = [t1 - t0 for t0, t1 in spans]
    return stats.PassResult(latencies, speed.factors(sampler.samples, spans), values, errors, ok)


def warm_passes(workload: str, seconds: float, min_warm: int, extra: float = 0.0) -> int:
    """Warm passes that fit in `seconds` at nominal speed after the cold
    pass and `extra` more warm-pass times; at least min_warm."""
    cold, warm = workloads.NOMINAL_S[workload]
    return max(min_warm, int((seconds - cold) / warm - extra))


def run_passes(cells, n_warm: int, tracer=None):
    """Cold pass, then n_warm warm passes."""
    passes, traces = [], []
    for _ in range(1 + n_warm):
        passes.append(run_pass(cells, tracer))
        if tracer is not None:
            traces.append(tracer.reset())
    return passes, traces


def end_to_end(args, reltoa, cells) -> tuple[list, list, list]:
    time_imports(1)  # byte-compiles; not timed
    imports = time_imports(SETUP_RUNS // 2)
    passes, _ = run_passes(cells, warm_passes(args.workload, args.seconds, MIN_WARM_PASSES))
    imports += time_imports(SETUP_RUNS - SETUP_RUNS // 2)
    cold, warm = passes[0], passes[1:]
    warm_ms = [1e3 * t for p in warm for t in p.scaled]
    pct, tail, n_beyond = stats.tail_latency(warm_ms, len(cells) * MIN_WARM_PASSES)
    host = statistics.median(f for p in passes for f in p.speed)
    rows = [
        ("setup_s", statistics.median(imports), "s",
         f"median CPU time of {SETUP_RUNS} fresh imports of reltoa.cli (min {min(imports):.4g}), not scaled"),
        ("cold_s", sum(cold.scaled), "s", f"first pass, empty coefficient cache (raw {sum(cold.latencies):.4g})"),
        ("warm_s", statistics.median(sum(p.scaled) for p in warm), "s",
         f"median of {len(warm)} warm passes (raw {statistics.median(sum(p.latencies) for p in warm):.4g})"),
        ("cell_p50_ms", statistics.median(warm_ms), "ms", f"{len(warm_ms)} warm cells"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         f"this process; times scaled to the reference host speed, median factor {host:.3f}"),
    ]
    # printed but not in the JSON: its spread comes from millisecond host
    # hiccups that the probe cannot see (see README.md)
    unbounded = [("cell_tail_ms", tail, "ms", f"p{pct:g}, {n_beyond} of {len(warm_ms)} warm cells beyond it")]
    return rows, unbounded, passes


def per_layer(args, reltoa, cells) -> tuple[list, list, dict]:
    from tracing import SPAN_FUNCTIONS, COUNT_FUNCTIONS, Tracer, self_times

    tracer = Tracer()
    tracer.install(counting=False)
    try:
        # room is left for the counting pass (~1.5 warm passes) and the
        # untraced one
        passes, traces = run_passes(cells, warm_passes(args.workload, args.seconds, 1, extra=2.5), tracer)
    finally:
        tracer.uninstall()
    # one warm pass with counters and no spans, then one with no wrappers,
    # the base of trace.overhead_frac
    counter = Tracer()
    counter.install(counting=True)
    try:
        counted = run_pass(cells)
    finally:
        counter.uninstall()
    _, counts = counter.reset()
    untraced = run_pass(cells)
    cold_agg = self_times(traces[0][0])
    warm_aggs = [self_times(spans) for spans, _ in traces[1:]]

    def warm_median(name: str, key: str) -> float:
        return statistics.median(agg.get(name, {}).get(key, 0) for agg in warm_aggs)

    rows = []
    for name, counts_evals in SPAN_FUNCTIONS.items():
        rows.append((f"{name}.calls", warm_median(name, "calls"), "count"))
        rows.append((f"{name}.cold_self_s", cold_agg.get(name, {}).get("self_s", 0.0), "s"))
        rows.append((f"{name}.warm_self_s", warm_median(name, "self_s"), "s"))
        if counts_evals:
            rows.append((f"{name}.evals", counts.get(name + ".evals", 0), "count"))
    for name in COUNT_FUNCTIONS:
        rows.append((f"{name}.calls", counts.get(name + ".calls", 0), "count"))
    all_passes = passes + [counted, untraced]
    summary = stats.failures(cells, all_passes)
    for exc in ("QuadratureError", "SeriesDivergenceError"):
        rows.append((f"numerics.{exc}.count", summary.errors.get(exc, 0), "count"))
    rows.append(("kernels.cold_warm_mismatch", stats.cold_warm_mismatch(passes[0], passes[1]), "count"))
    # scaled times: the traced and untraced passes can fall in different
    # host speed phases, and the span overhead is smaller than their swing
    traced_warm = statistics.median(sum(p.scaled) for p in passes[1:])
    rows.append(("trace.overhead_frac", traced_warm / sum(untraced.scaled) - 1.0, "ratio"))
    covered = [
        stats.top_span_frac(spans, sum(p.latencies)) for p, (spans, _) in zip(passes[1:], traces[1:])
    ]
    rows.append(("trace.top_span_frac", statistics.median(covered), "ratio"))
    rows.append(("failed_frac", summary.failed_frac, "ratio"))
    trace_doc = {
        "aggregates": {"cold": cold_agg, "warm": warm_aggs, "warm_counts": counts},
        "spans": {"cold": traces[0][0], "first_warm": traces[1][0]},
    }
    return rows, all_passes, trace_doc


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        status = status or proc.returncode
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="'all' runs every workload, each in a fresh process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)

    reltoa = import_library()
    facts = machine_facts(reltoa)
    cells = workloads.build(args.workload, reltoa, args.seed)
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {len(cells)} cells per pass")

    if args.trace:
        rows, passes, trace_doc = per_layer(args, reltoa, cells)
    else:
        rows, unbounded, passes = end_to_end(args, reltoa, cells)
    summary = stats.failures(cells, passes)
    printed = rows
    if not args.trace:
        # failed_frac is 0 on two workloads, so no relative bound can apply
        printed = rows + unbounded + [("failed_frac", summary.failed_frac, "ratio", "")]

    for name, value, unit, *note in printed:
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note[0] if note else ''}")
    print(f"passes: 1 cold + {len(passes) - 1} warm; {summary.failed} of {summary.attempted} cells failed")
    print("pass times, raw (s): " + " ".join(f"{sum(p.latencies):.3f}" for p in passes))
    for name in summary.failed_names[:MAX_LISTED]:
        tag = "seed defect" if name in summary.seed_defects else "UNEXPECTED"
        print(f"  failed cell ({tag}): {name} {summary.reasons[name]}")
    if len(summary.failed_names) > MAX_LISTED:
        print(f"  ... and {len(summary.failed_names) - MAX_LISTED} more failed cells")

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"machine": facts, "workload": args.workload, "seed": args.seed,
                       "metrics": {n: v for n, v, *_ in rows}, **trace_doc}, fh)
        print(f"trace written to {os.path.relpath(path, ROOT)}")

    result = {
        "correct": summary.unexpected == 0,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, *_ in rows},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
