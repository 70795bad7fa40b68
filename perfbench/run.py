"""curvevar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json) in this process against the
sources under ``src/`` of the checkout, checks every result against a
known answer, and prints the metrics; the last line of standard output
is the JSON result. See perfbench/README.md.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from bench_checks import CheckLog  # noqa: E402
from bench_stats import median, min_samples_for, percentile  # noqa: E402
from bench_workloads import OUT, WORKLOADS  # noqa: E402


def import_program():
    """Import curvevar from this checkout's sources, or exit non-zero."""
    pkg = SRC / "curvevar"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no curvevar sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import curvevar

    if Path(curvevar.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: curvevar imported from {curvevar.__file__}, not from {pkg}")
    return curvevar


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    import sympy

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else ():
        level = _read(idx / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(idx / "size")
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    blas_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_sha": sha,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in blas_env},
    }


class RoundStats:
    def __init__(self):
        self.latencies: list = []  # program calls only, per op run
        self.verified: list = []  # latency plus checks, per op run
        self.positions: list = []  # index of each op run in the op list
        self.elapsed = 0.0  # wall time of the whole loop
        self.attempted = 0
        self.failed = 0
        self.ops: list = []  # per-op records for the result file

    def per_op(self, values: list) -> list:
        """Median of ``values`` over the runs of each op in the op list."""
        by_op: dict = {}
        for k, v in zip(self.positions, values):
            by_op.setdefault(k, []).append(v)
        return [median(by_op[k]) for k in sorted(by_op)]

    @property
    def max_rel_error(self) -> float:
        return max((o["max_rel_error"] for o in self.ops), default=0.0)

    @property
    def min_conv_order(self):
        orders = [o["min_conv_order"] for o in self.ops if o["min_conv_order"] is not None]
        return min(orders) if orders else None


def run_op(op, stats: RoundStats, tracer=None, position: int = 0) -> None:
    """Time one op (the program calls only), then check its outputs.

    The heap is collected first, so one op's garbage lands in neither the
    time nor the peak memory of the next."""
    if tracer is not None:
        tracer.op = op.name
    log = CheckLog()
    gc.collect()
    t0 = perf_counter()
    try:
        out = op.run()
    except Exception:  # a failing op is counted, and the loop goes on
        latency = perf_counter() - t0
        log.fail("exception", traceback.format_exc())
    else:
        latency = perf_counter() - t0
        try:
            op.check(out, log)
        except Exception:
            log.fail("check_exception", traceback.format_exc())
    stats.attempted += 1
    stats.failed += not log.ok
    stats.latencies.append(latency)
    stats.verified.append(perf_counter() - t0)
    stats.positions.append(position)
    stats.ops.append(
        {
            "op": op.name,
            "latency_s": latency,
            "ok": log.ok,
            "max_rel_error": log.max_rel_error(),
            "min_conv_order": log.min_value("convergence_order"),
            "checks": len(log.checks),
            "failures": [f"{c.name}: {c.detail}" for c in log.failures],
            "observed": log.observed,
        }
    )
    for c in log.failures:
        print(f"perfbench: FAILED {op.name} {c.name}: {c.detail}", file=sys.stderr)


def measure(ops: list, seconds: float, tracer=None) -> RoundStats:
    """Closed loop over ``ops``, one op at a time, cycling through the list.

    The first pass over the list is always whole. After it, the next op
    starts only if its previous latency still fits within ``seconds``, so
    the loop ends near the budget, possibly part-way through a pass; the
    metrics are per-op medians, which a part pass does not bias."""
    stats = RoundStats()
    last: dict = {}
    t_begin = perf_counter()
    i = 0
    while i < len(ops) or perf_counter() - t_begin + last[i % len(ops)] <= seconds:
        k = i % len(ops)
        run_op(ops[k], stats, tracer, k)
        last[k] = stats.verified[-1]
        i += 1
    stats.elapsed = perf_counter() - t_begin
    return stats


def timed_run(wl, seconds: float, import_s: float):
    builds = []
    for i in range(wl.setup_repeats):
        if i:
            wl.reset()
        t0 = perf_counter()
        wl.setup()
        builds.append(perf_counter() - t0)
    setup_s = median(builds) + (import_s if wl.in_process else 0.0)
    ops = wl.round_ops()
    stats = measure(ops, seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(stats.per_op(stats.verified)), "s"),
        "op_s.p50": (median(stats.per_op(stats.latencies)), "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    if len(stats.latencies) >= min_samples_for(90):  # else too few samples beyond p90
        metrics["op_s.p90"] = (percentile(stats.latencies, 90), "s")
    extra = {"setup_builds_s": builds, "import_s": import_s, "passes": stats.attempted / len(ops), "measured_s": stats.elapsed}
    return stats, metrics, extra


def traced_run(wl, import_s: float, out_dir: Path, tag: str):
    """Set-up and one round untraced, then the same set-up and round under
    the span wrappers; the difference of the two is the tracing overhead.
    A first set-up, not timed, pays the lazy imports both would share."""
    from bench_trace import Tracer, layer_metrics, span_cost_s

    wl.setup()
    wl.reset()
    t0 = perf_counter()
    wl.setup()
    untraced = perf_counter() - t0
    stats_u = measure(wl.round_ops(), 0.0)
    untraced += stats_u.elapsed

    wl.reset()
    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        t0 = perf_counter()
        wl.setup()
        traced_setup = perf_counter() - t0
        stats = measure(wl.round_ops(), 0.0, tracer)
    finally:
        wl.tracer = None
        tracer.uninstall()
    traced = traced_setup + stats.elapsed
    metrics = layer_metrics(tracer.spans, tracer.counts, traced)
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    # the difference above is one pair of rounds and carries the machine's
    # run-to-run noise; spans times the cost of one span is the steady estimate
    metrics["trace.span_overhead_s"] = (len(tracer.spans) * span_cost_s(), "s")
    tracer.dump(out_dir / f"trace-{tag}.json")
    extra = {"import_s": import_s, "traced_setup_s": traced_setup, "untraced_failed": stats_u.failed}
    stats.failed += stats_u.failed
    stats.attempted += stats_u.attempted
    return stats, metrics, extra


def declared_metrics(trace: bool) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="curvevar benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import_s = perf_counter() - T_START
    names = declared_metrics(bool(args.trace))
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        stats, metrics, extra = traced_run(wl, import_s, OUT, tag)
    else:
        stats, metrics, extra = timed_run(wl, args.seconds, import_s)

    missing = sorted(set(names) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {', '.join(missing)}")
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "accuracy": {
            "fail_ratio": stats.failed / stats.attempted,
            "max_rel_error": stats.max_rel_error,
            "min_conv_order": stats.min_conv_order,
        },
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "details": extra,
        "ops": stats.ops,
    }
    with open(OUT / f"result-{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    for n in names:
        print(f"{n:48s} {metrics[n][0]:.6g} {metrics[n][1]}")
    print(f"fail_ratio {record['accuracy']['fail_ratio']:.6g} ({stats.failed}/{stats.attempted} ops)")
    print(f"max_rel_error {record['accuracy']['max_rel_error']:.3e}")
    if stats.min_conv_order is not None:
        print(f"min_conv_order {stats.min_conv_order:.4f}")
    print("record " + json.dumps(record, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
