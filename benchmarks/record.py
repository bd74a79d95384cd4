"""Record perfbench's end-to-end metrics of a checkout as one JSON file.

From the root of a checkout:

    python3 benchmarks/record.py --runs 5 --seconds 30
    python3 benchmarks/record.py --workload calibrate --runs 1 --seconds 1 --out bench.json
    python3 benchmarks/record.py --checkout ../other-checkout --runs 5

Each run is one ``perfbench/run.py --trace 0`` subprocess of the measured
checkout (this one unless ``--checkout`` names another), so perfbench
itself does not change; the runs of the workloads alternate, so that all
of them see the same stretches of machine speed. From each run's output
this reads the ``env`` line, the seed's outputs on the ``repeat`` lines
(digests, threshold and the like) and the closing JSON line. The file
holds, per workload, the env fingerprint with its BLAS thread settings,
those outputs, and per metric the median, the quartiles and the number of
runs. It is named ``BENCH_<short sha>.json`` after the measured commit, in
``benchmarks/records/``, with ``-dirty`` added when the checkout's
``src/`` or ``perfbench/`` differ from that commit.

A run whose perfbench checks fail, or whose outputs differ from another
run's, is reported on stderr and no file is written: a failure is never
recorded as a result. Exit code 0 when the file was written, 1 otherwise.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "calibrate", "monitor")
# Entries of a repeat line that are the seed's outputs, identical in every
# repeat of every run; the other entries (latencies, accuracy counts) are
# measurements or restate these.
OUTPUTS = ("bundle_sha256", "accuracy", "threshold", "far_x_arl0", "event_digest")
# The report fields of a repeat line follow the parenthesized speeds.
REPEAT = re.compile(r"^repeat \d+ \(untraced\): .*?\) (.*)$")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run; repeat for several (default: all)")
    parser.add_argument("--runs", type=int, default=5, help="perfbench runs per workload")
    parser.add_argument("--seconds", type=float, default=30.0, help="perfbench --seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the checkout to measure (default: this one)")
    parser.add_argument("--out", type=Path, help="file to write (default: see above)")
    return parser.parse_args(argv)


def git(checkout: Path, *args) -> str:
    done = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def parse_run(text: str) -> dict:
    """The env fingerprint, outputs and closing JSON of one perfbench run."""
    lines = text.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    outputs: dict = {}
    for line in lines:
        match = REPEAT.match(line)
        if match:
            for field in match.group(1).split():
                key, _, value = field.partition("=")
                if key in OUTPUTS:
                    outputs.setdefault(key, set()).add(value)
    return {"env": env, "outputs": outputs, "result": json.loads(lines[-1])}


def summary(values: list) -> dict:
    """Median, quartiles and count of one metric's per-run values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def record(workloads, runs: int, seconds: float, seed: int, checkout: Path) -> tuple[dict, list]:
    """Every workload's record, and the failures met on the way."""
    parsed = {name: [] for name in workloads}
    failures = []
    for index in range(runs):
        for name in workloads:
            command = [sys.executable, "perfbench/run.py", "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
            try:
                run = parse_run(done.stdout)
            except (StopIteration, ValueError, IndexError):
                failures.append(f"{name} run {index + 1}: no perfbench result "
                                f"(exit {done.returncode}): {done.stderr.strip()[-500:]}")
                continue
            if done.returncode != 0 or not run["result"]["correct"]:
                fails = [line for line in done.stdout.splitlines() if line.startswith("FAIL")]
                failures.append(f"{name} run {index + 1}: checks failed: {fails}")
                continue
            parsed[name].append(run)
            print(f"{name} run {index + 1}: " + " ".join(
                f"{key}={value['value']:.4f}" for key, value in run["result"]["metrics"].items()
            ), file=sys.stderr)

    out = {}
    for name, done_runs in parsed.items():
        if not done_runs:
            continue
        outputs = {}
        for key in OUTPUTS:
            seen = set().union(*(run["outputs"].get(key, set()) for run in done_runs))
            if len(seen) > 1:
                failures.append(f"{name}: {key} differs between runs: {sorted(seen)}")
            elif seen:
                outputs[key] = seen.pop()
        metrics = {}
        for metric, entry in done_runs[0]["result"]["metrics"].items():
            values = [run["result"]["metrics"][metric]["value"] for run in done_runs]
            metrics[metric] = {"unit": entry["unit"], **summary(values)}
        out[name] = {"env": done_runs[0]["env"], "outputs": outputs, "metrics": metrics}
    return out, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    sha = git(checkout, "rev-parse", "--short", "HEAD")
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no",
                     "--", "src", "perfbench"))
    workloads = args.workload or list(WORKLOADS)
    results, failures = record(workloads, args.runs, args.seconds, args.seed, checkout)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    env = next(iter(results.values()))["env"]
    blas_threads = {key: value for key, value in env.items() if key.endswith("_NUM_THREADS")}
    document = {
        "commit": sha,
        "dirty": dirty,
        "seed": args.seed,
        "seconds": args.seconds,
        "blas": env["blas"],
        "blas_threads": blas_threads,
        "workloads": results,
    }
    path = args.out or ROOT / "benchmarks" / "records" / (
        f"BENCH_{sha}{'-dirty' if dirty else ''}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
