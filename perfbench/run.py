"""Run one faultmon benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload monitor --seed 0 --seconds 30 --trace 1

The program is imported from ``src/`` of the same checkout. Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured untraced, with times in
nominal seconds (see ``speed.py``). With ``--trace 1`` one untraced repeat
and two traced repeats run, the speed probe is off, and the metrics are the
per-layer ones, with times in measured seconds. The exit code is 1 when any
correctness check fails, and non-zero without a JSON line when the program
cannot be imported.
"""

import os

# One BLAS thread, set before numpy is first imported: on a small box the
# default thread pool makes small kernels several times slower and noisier.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("main_s", "s"),
    ("check_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("simulate.source.calls", "count"),
    ("simulate.source.rows", "count"),
    ("simulate.source.busy_s", "s"),
    ("standardize.apply.calls", "count"),
    ("standardize.apply.rows", "count"),
    ("standardize.apply.busy_s", "s"),
    ("standardize.rows_per_input_row", "ratio"),
    ("detector.run_many.calls", "count"),
    ("detector.run_many.rows", "count"),
    ("detector.run_many.busy_s", "s"),
    ("detector.rows_per_unique_row", "ratio"),
    ("detector.step.calls", "count"),
    ("detector.step.busy_s", "s"),
    ("detector.reset.calls", "count"),
    ("calibrate.evaluations", "count"),
    ("calibrate.find_threshold.self_s", "s"),
    ("calibrate.far.self_s", "s"),
    ("spd.covariance.calls", "count"),
    ("spd.covariance.busy_s", "s"),
    ("spd.covariance_per_kept_run", "ratio"),
    ("spd.karcher_mean.busy_s", "s"),
    ("spd.karcher_iterations", "count"),
    ("spd.spd_log.calls", "count"),
    ("spd.spd_log.busy_s", "s"),
    ("features.trace_features.calls", "count"),
    ("features.trace_features.busy_s", "s"),
    ("svm.grid_search.busy_s", "s"),
    ("svm.train_binary.calls", "count"),
    ("svm.smo_iterations", "count"),
    ("svm.rbf_kernel_matrix.calls", "count"),
    ("svm.rbf_kernel_matrix.busy_s", "s"),
    ("svm.predict.calls", "count"),
    ("svm.predict.busy_s", "s"),
    ("pipeline.offline_train.self_s", "s"),
    ("pipeline.evaluate.self_s", "s"),
    ("pipeline.online_monitor.self_s", "s"),
    ("pipeline.classified_ratio", "ratio"),
    ("pipeline.sample_latency_p50_us", "us"),
    ("pipeline.sample_latency_p99_us", "us"),
    ("pipeline.classify_latency_p50_ms", "ms"),
    ("pipeline.classify_latency_p95_ms", "ms"),
    ("bundle.save_s", "s"),
    ("bundle.load_s", "s"),
    ("bundle.bytes", "B"),
    ("trace_overhead_ratio", "ratio"),
)

# Monitor latencies, taken from the untraced repeat of a traced run.
LATENCIES = (
    "sample_latency_p50_us",
    "sample_latency_p99_us",
    "classify_latency_p50_ms",
    "classify_latency_p95_ms",
)

# Entries of a repeat's report that an untraced run prints as metrics.
REPORTED_UNITS = {
    "monitor_samples_per_s": "1/s",
    "sample_latency_p50_us": "us",
    "sample_latency_p99_us": "us",
    "classify_latency_p50_ms": "ms",
    "classify_latency_p95_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "calibrate", "monitor"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import faultmon from this checkout's ``src/``, or exit non-zero."""
    package = SRC / "faultmon"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no faultmon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import faultmon

    if Path(faultmon.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported faultmon from {faultmon.__file__}, not {package}")


def fingerprint(clock) -> dict:
    import numpy
    import scipy
    import speed

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "speed_probe": clock.probe,
        "probe_period_s": speed.PERIOD_S,
        "reference_slice_s": speed.REFERENCE_SLICE_S,
    }


def run_setups(workload, seed, count, workdir, clock):
    """Set up ``count`` times; the last state and every set-up's Measurement."""
    times, state = [], None
    for _ in range(count):
        state = None  # release the previous corpus before building the next
        with clock.measure() as m:
            state = workload.setup(seed, workdir)
        times.append(m)
    return state, times


def describe(index, label, rep):
    fields = " ".join(f"{k}={v}" for k, v in rep.report.items())
    print(
        f"repeat {index} ({label}): main_s={rep.main_s:.4f} check_s={rep.check_s:.4f} "
        f"(measured {rep.main.seconds:.4f} and {rep.check.seconds:.4f} s "
        f"at speed {rep.main.speed:.3f} and {rep.check.speed:.3f}) {fields}"
    )
    for name, (failed, op) in rep.checks.items():
        print(f"  check {name} [{op}]: {'pass' if failed == 0 else f'FAIL ({failed})'}")


def counts_of(tracer) -> dict:
    """Every count a traced repeat records, for the determinism check."""
    out = {f"calls:{k}": v for k, v in tracer.calls.items()}
    out.update({f"count:{k}": v for k, v in tracer.counts.items()})
    for phase, (calls, counts) in tracer.phases.items():
        out.update({f"{phase}:calls:{k}": v for k, v in calls.items()})
        out.update({f"{phase}:count:{k}": v for k, v in counts.items()})
    return out


def layer_metrics(tracer, rep, base, state, overhead) -> dict:
    calls, counts = tracer.calls, tracer.counts
    ratios = rep.ratios

    def in_phase(phase, key):
        phase_calls, phase_counts = tracer.phases[phase]
        return phase_calls[key] + phase_counts[key]

    def share(num, den):
        return num / den if den else 0.0

    metrics = {}
    for span in ("simulate.source", "standardize.apply", "detector.run_many"):
        metrics[f"{span}.calls"] = calls[span]
        metrics[f"{span}.rows"] = counts[f"{span}.rows"]
        metrics[f"{span}.busy_s"] = tracer.busy_s(span)
    metrics["standardize.rows_per_input_row"] = share(
        in_phase("main", "standardize.apply.rows"), ratios["input_rows"]
    )
    phase = ratios["detector_phase"]
    ranked = in_phase(phase, "detector.run_many.rows") + in_phase(phase, "detector.step")
    metrics["detector.rows_per_unique_row"] = share(ranked, ratios["unique_rows"])
    metrics["detector.step.calls"] = calls["detector.step"]
    metrics["detector.step.busy_s"] = tracer.busy_s("detector.step")
    metrics["detector.reset.calls"] = calls["detector.reset"]
    metrics["calibrate.evaluations"] = counts["calibrate.evaluations"]
    metrics["calibrate.find_threshold.self_s"] = tracer.self_s("calibrate.find_threshold")
    metrics["calibrate.far.self_s"] = tracer.self_s("calibrate.far")
    metrics["spd.covariance.calls"] = calls["spd.covariance"]
    metrics["spd.covariance.busy_s"] = tracer.busy_s("spd.covariance")
    metrics["spd.covariance_per_kept_run"] = share(
        in_phase("main", "spd.covariance"), ratios.get("kept_runs", 0)
    )
    metrics["spd.karcher_mean.busy_s"] = tracer.busy_s("spd.karcher_mean")
    metrics["spd.karcher_iterations"] = calls["spd.spd_exp"]
    for span in ("spd.spd_log", "features.trace_features"):
        metrics[f"{span}.calls"] = calls[span]
        metrics[f"{span}.busy_s"] = tracer.busy_s(span)
    metrics["svm.grid_search.busy_s"] = tracer.busy_s("svm.grid_search")
    metrics["svm.train_binary.calls"] = calls["svm.train_binary"]
    metrics["svm.smo_iterations"] = counts["svm.smo_iterations"]
    for span in ("svm.rbf_kernel_matrix", "svm.predict"):
        metrics[f"{span}.calls"] = calls[span]
        metrics[f"{span}.busy_s"] = tracer.busy_s(span)
    for span in ("offline_train", "evaluate", "online_monitor"):
        metrics[f"pipeline.{span}.self_s"] = tracer.self_s(f"pipeline.{span}")
    metrics["pipeline.classified_ratio"] = share(
        ratios.get("classified", 0), ratios.get("classify_attempts", 0)
    )
    for name in LATENCIES:
        metrics[f"pipeline.{name}"] = base.report.get(name, 0.0)
    for name in ("bundle.save_s", "bundle.load_s", "bundle.bytes"):
        metrics[name] = state.get("bundle_metrics", {}).get(name, 0)
    metrics["trace_overhead_ratio"] = overhead
    return metrics


def coverage_failures(workload, tracer, spans) -> list:
    """Wrapped spans called where they should not be, or idle where they should run."""
    failures = []
    for span in spans:
        called = tracer.calls[span] > 0
        if called != (span in workload.spans):
            failures.append(f"{span} {'called' if called else 'not called'}")
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    # Stay on one CPU: the process is single-threaded, and migrating between
    # CPUs of unequal speed adds noise.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_program()
    import speed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    # The speed probe times untraced runs only; traced spans stay in measured seconds.
    clock = speed.Clock(probe=args.trace == 0)
    print("env " + json.dumps(fingerprint(clock), sort_keys=True))
    failures, repeats, attempted, failed = [], [], 0, 0
    ops_per_repeat = None
    metrics = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        setups = workload.setups if args.trace == 0 else 1
        state, setup_times = run_setups(workload, args.seed, setups, workdir, clock)
        print(
            f"workload {workload.name} seed {args.seed} trace {args.trace}: set-up x{setups} "
            f"{', '.join(f'{m.nominal_s:.3f}' for m in setup_times)} s "
            f"(measured {', '.join(f'{m.seconds:.3f}' for m in setup_times)} s)"
        )

        def attempt(label, **kwargs):
            nonlocal attempted, failed, ops_per_repeat
            try:
                rep = workload.repeat(state, clock, **kwargs)
            except Exception:
                traceback.print_exc()
                failures.append(f"repeat {len(repeats) + 1} raised")
                attempted += ops_per_repeat or 1
                failed += ops_per_repeat or 1
                return None
            ops_per_repeat = sum(rep.ops.values())
            attempted += ops_per_repeat
            failed += min(rep.failed_ops(), ops_per_repeat)
            repeats.append(rep)
            describe(len(repeats), label, rep)
            return rep

        if args.trace == 0:
            start = time.perf_counter()
            while True:
                rep = attempt("untraced")
                if rep is None:
                    break
                elapsed = time.perf_counter() - start
                if elapsed + rep.total_s > args.seconds:
                    break
        else:
            base = attempt("untraced")
            tracers = []
            for _ in range(2):
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    rep = attempt("traced", phase=tracer.phase)
                if rep is None:
                    break
                tracers.append((tracer, rep))
            if base is not None and len(tracers) == 2:
                (first, first_rep), (second, _) = tracers
                if counts_of(first) != counts_of(second):
                    failures.append("count metrics differ between the two traced repeats")
                for tracer, _ in tracers:
                    failures.extend(
                        f"coverage: {item}"
                        for item in coverage_failures(workload, tracer, tracing.SPANS)
                    )
                overhead = statistics.median(r.total_s for _, r in tracers) / base.total_s
                metrics = layer_metrics(first, first_rep, base, state, overhead)

    if len({rep.digest for rep in repeats}) > 1:
        failures.append("outputs differ between repeats")
    failures.extend(
        f"check {name} failed"
        for rep in repeats
        for name, (bad, _) in rep.checks.items()
        if bad
    )
    if args.trace == 0 and repeats:
        metrics = {
            "setup_s": statistics.median(m.nominal_s for m in setup_times),
            "main_s": statistics.median(r.main_s for r in repeats),
            "check_s": statistics.median(r.check_s for r in repeats),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for key, alias in workload.aliases.items():
            print(f"metric {alias} ({key}) = {metrics[key]:.4f} s")
        print(
            "measured medians: "
            f"setup {statistics.median(m.seconds for m in setup_times):.4f} s, "
            f"main {statistics.median(r.main.seconds for r in repeats):.4f} s, "
            f"check {statistics.median(r.check.seconds for r in repeats):.4f} s; "
            f"speed {statistics.median(r.main.speed for r in repeats):.3f}"
        )
        for name, unit in REPORTED_UNITS.items():
            if name in repeats[0].report:
                value = statistics.median(r.report[name] for r in repeats)
                print(f"metric {name} = {value:.4f} {unit}")
    units = dict(END_TO_END if args.trace == 0 else PER_LAYER)
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")
    print(f"metric failed_ops_ratio = {failed}/{attempted} = {failed / max(attempted, 1):.4f} ratio")
    for failure in failures:
        print(f"FAIL {failure}")

    correct = not failures and failed == 0 and bool(repeats)
    if not correct and not metrics:
        return 1
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
