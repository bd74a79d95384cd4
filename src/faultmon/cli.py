"""Command-line interface.

Subcommands cover the full workflow: simulate a labeled corpus, calibrate
a detection threshold, train a model bundle, monitor a sample stream,
evaluate a bundle against labeled runs, and sweep the patience parameter.
Outputs are JSON or CSV files plus a short human-readable summary on
stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import pipeline, simulate
from .bundle import load_bundle, save_bundle
from .errors import EmptyInputError, FaultMonError

__all__ = ["main"]


def _read_matrix(path: str) -> np.ndarray:
    """Sample rows of the CSV file ``path``, or of stdin for ``-``."""
    if path == "-":
        return simulate._read_csv(sys.stdin, "stdin")
    return simulate._read_csv(path, path)


def _parse_lines(lines: Iterator[str]) -> Iterator[np.ndarray]:
    """Sample rows of a CSV read line by line, after its header line.

    Blank lines and ``#`` comments are skipped, as ``np.loadtxt`` skips them.
    """
    next(lines, None)
    for number, line in enumerate(lines, start=2):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            yield np.array([float(field) for field in text.split(",")])
        except ValueError as exc:
            raise FaultMonError(
                f"could not parse samples from stdin: line {number}: {exc}"
            ) from exc


def _read_samples(path: str) -> Iterable[np.ndarray]:
    """Samples of ``_read_matrix``, except that ``-`` streams stdin.

    Rows from stdin are parsed as they arrive, so a live pipe yields its
    first events before it closes. The first row is read here, so an
    empty stream fails before any output file is opened.
    """
    if path != "-":
        return _read_matrix(path)
    rows = _parse_lines(iter(sys.stdin))
    first = next(rows, None)
    if first is None:
        raise EmptyInputError("no sample rows in stdin")
    return itertools.chain([first], rows)


def _process_source(args):
    """Raw-scale calibration samples simulated from ``--process``, or None."""
    if not args.process:
        return None
    return simulate.in_control_source(
        _load_process(args.process), run_offset=simulate.CALIBRATION_RUN_OFFSET
    )


def _load_process(path: str) -> simulate.ProcessSpec:
    with open(path, encoding="utf-8") as handle:
        return simulate.ProcessSpec.from_dict(json.load(handle))


def _add_detector_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--allowance", type=float, default=1.3,
                        help="CUSUM allowance k (default 1.3)")
    parser.add_argument("--top-r", type=int, default=4,
                        help="streams pooled into the global statistic (default 4)")
    parser.add_argument("--arl0", type=float, default=200.0,
                        help="target in-control average run length (default 200)")


def _add_calibration_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--replications", type=int, default=400,
                        help="Monte-Carlo replications (default 400)")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="relative ARL tolerance (default 0.02)")
    parser.add_argument("--cap", type=int, default=None,
                        help="samples per replication before censoring "
                             "(default 20x the target)")
    parser.add_argument("--process", default=None,
                        help="process spec JSON to simulate calibration samples "
                             "(default: bootstrap the in-control pool)")


def _cmd_simulate(args) -> int:
    out = Path(args.out)
    if args.benchmark:
        bench = simulate.make_benchmark(
            args.seed,
            runs_per_class=args.runs_per_class,
            run_length=args.samples,
            onset=args.onset,
        )
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "process.json", "w", encoding="utf-8") as handle:
            json.dump(bench.process.to_dict(), handle, indent=1)
        with open(out / "faults.json", "w", encoding="utf-8") as handle:
            json.dump(
                {str(k): v.to_dict() for k, v in bench.fault_specs.items()},
                handle,
                indent=1,
            )
        simulate.write_run_csv(out / "in_control.csv", bench.in_control)
        simulate.write_corpus(out / "train", bench.train_runs)
        simulate.write_corpus(out / "test", bench.test_runs)
        simulate.write_corpus(out / "in_control_eval", bench.in_control_runs)
        print(
            f"benchmark seed={args.seed}: {len(bench.train_runs)} train, "
            f"{len(bench.test_runs)} test, {len(bench.in_control_runs)} "
            f"in-control runs -> {out}"
        )
        return 0
    process = _load_process(args.process) if args.process else (
        simulate.default_process_spec(args.seed)
    )
    fault = None
    if args.fault:
        with open(args.fault, encoding="utf-8") as handle:
            fault = simulate.FaultSpec.from_dict(json.load(handle))
    data, labels = simulate.generate(process, fault, args.samples, run=args.run)
    simulate.write_run_csv(out, data, labels if fault is not None else None)
    print(f"wrote {data.shape[0]} samples x {data.shape[1]} streams -> {out}")
    return 0


def _train_config(args, **knobs) -> pipeline.TrainConfig:
    """Training knobs from the detector and calibration arguments, plus ``knobs``."""
    return pipeline.TrainConfig(
        allowance=args.allowance,
        top_r=args.top_r,
        target_arl0=args.arl0,
        calibration_replications=args.replications,
        calibration_tolerance=args.tolerance,
        calibration_cap=args.cap,
        seed=args.seed,
        **knobs,
    )


def _cmd_calibrate(args) -> int:
    config = _train_config(args)
    _, references, source = pipeline.prepare_reference_and_source(
        _read_matrix(args.in_control), _process_source(args), config.seed
    )
    _, payload = pipeline.choose_threshold(references, config, source)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
    print(json.dumps(payload, indent=1))
    return 0


def _cmd_train(args) -> int:
    pool = _read_matrix(args.in_control)
    runs = simulate.read_corpus(args.runs)
    config = _train_config(
        args,
        patience=args.patience,
        feature_mode=args.feature_mode,
        trace_features=args.trace_features,
        folds=args.folds,
        threshold_override=args.threshold,
    )
    bundle = pipeline.offline_train(
        pool, runs, config, calibration_source=_process_source(args)
    )
    save_bundle(bundle, args.out)
    summary = bundle.training_summary
    print(
        f"trained on {len(runs)} runs: threshold="
        f"{bundle.config.threshold:.4f}, window={bundle.window}, "
        f"cv_accuracy={summary.get('cv_accuracy', float('nan')):.3f} -> {args.out}"
    )
    return 0


def _cmd_monitor(args) -> int:
    bundle = load_bundle(args.bundle)
    samples = _read_samples(args.input)
    sample_count = 0
    alarms = 0
    classifications = 0
    with contextlib.ExitStack() as files:
        handle = trace_handle = None
        if args.events:
            handle = files.enter_context(Path(args.events).open("w", encoding="utf-8"))
        if args.v_trace:
            trace_handle = files.enter_context(Path(args.v_trace).open("w", encoding="utf-8"))
            trace_handle.write("t,V,alarm\n")
        for event in pipeline.online_monitor(bundle, samples):
            if event.kind == "sample":
                sample_count += 1
            elif event.kind == "alarm_raised":
                alarms += 1
            elif event.kind == "classification":
                classifications += 1
                print(
                    f"t={event.time_index}: predicted fault "
                    f"{event.predicted_fault}"
                    + (f" (error: {event.error})" if event.error else ""),
                    flush=True,
                )
            elif event.kind == "episode_incomplete":
                print(f"t={event.time_index}: stream ended mid-episode", flush=True)
            if handle and (event.kind != "sample" or args.keep_samples):
                handle.write(json.dumps(event.__dict__) + "\n")
            if trace_handle and event.kind == "sample":
                crossed = event.global_stat >= bundle.config.threshold
                trace_handle.write(
                    f"{event.time_index},{event.global_stat:.17g},{int(crossed)}\n"
                )
    print(f"{sample_count} samples: {alarms} alarms, {classifications} classifications")
    return 0


def _cmd_evaluate(args) -> int:
    bundle = load_bundle(args.bundle)
    runs = simulate.read_corpus(args.runs)
    report = pipeline.evaluate(bundle, runs)
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
    if args.confusion:
        labels = report.class_labels
        lines = ["true\\pred," + ",".join(str(c) for c in labels)]
        for i, true_label in enumerate(labels):
            row = ",".join(
                str(report.confusion_matrix[i][j]) for j in range(len(labels))
            )
            lines.append(f"{true_label},{row}")
        Path(args.confusion).write_text("\n".join(lines) + "\n", encoding="utf-8")
    rates = ", ".join(
        f"{fid}: {rate:.3f}" for fid, rate in sorted(report.detection_rate.items())
    )
    print(f"detection rate by fault: {rates}")
    print(f"false alarm rate: {report.far:.5f}")
    print(
        f"classification accuracy: {report.overall_accuracy:.3f} "
        f"over {report.classified} runs"
    )
    return 0


def _parse_grid(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise FaultMonError(f"could not parse --grid {text!r}: {exc}") from exc


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    pool = _read_matrix(args.in_control)
    train_runs = simulate.read_corpus(args.train_runs)
    test_runs = simulate.read_corpus(args.test_runs)
    config = pipeline.TrainConfig(
        allowance=args.allowance,
        top_r=args.top_r,
        target_arl0=args.arl0,
        feature_mode=args.feature_mode,
        trace_features=args.trace_features,
        calibration_replications=args.replications,
        threshold_override=args.threshold,
        seed=args.seed,
    )
    points = pipeline.sweep_patience(
        pool, train_runs, test_runs, grid, config,
        calibration_source=_process_source(args),
    )
    rows = ["patience,window,test_accuracy,classified,truncated,short_class"]
    for point in points:
        if point.short_class is not None:
            rows.append(f"{point.patience},,,{point.classified},{point.truncated},"
                        f"{point.short_class}")
            print(
                f"patience={point.patience}: unusable, fault class "
                f"{point.short_class} has fewer than 2 usable training runs"
            )
            continue
        rows.append(
            f"{point.patience},{point.window},{point.test_accuracy:.6f},"
            f"{point.classified},{point.truncated},"
        )
        print(
            f"patience={point.patience}: window={point.window}, "
            f"accuracy={point.test_accuracy:.3f} "
            f"({point.classified} classified, {point.truncated} truncated)"
        )
    if args.out:
        Path(args.out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultmon",
        description="Streaming fault detection and classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate synthetic process data")
    p_sim.add_argument("--benchmark", action="store_true",
                       help="write a full labeled corpus instead of one run")
    p_sim.add_argument("--process", default=None, help="process spec JSON")
    p_sim.add_argument("--fault", default=None, help="fault spec JSON")
    p_sim.add_argument("--samples", type=int, default=3500)
    p_sim.add_argument("--run", type=int, default=0, help="run index")
    p_sim.add_argument("--runs-per-class", type=int, default=60)
    p_sim.add_argument("--onset", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True,
                       help="output CSV (single run) or directory (benchmark)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="find an alarm threshold for a target ARL0")
    p_cal.add_argument("--in-control", required=True, help="in-control CSV")
    _add_detector_args(p_cal)
    _add_calibration_args(p_cal)
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--out", default=None, help="write the result JSON here")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_train = sub.add_parser("train", help="train a model bundle")
    p_train.add_argument("--in-control", required=True, help="in-control CSV")
    p_train.add_argument("--runs", required=True, help="directory of labeled run CSVs")
    _add_detector_args(p_train)
    _add_calibration_args(p_train)
    p_train.add_argument("--patience", type=int, default=300)
    p_train.add_argument("--feature-mode", choices=("tangent", "raw"), default="tangent")
    p_train.add_argument("--trace-features", action="store_true")
    p_train.add_argument("--folds", type=int, default=5)
    p_train.add_argument("--threshold", type=float, default=None,
                         help="skip calibration and use this threshold")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True, help="bundle JSON path")
    p_train.set_defaults(func=_cmd_train)

    p_mon = sub.add_parser("monitor", help="monitor a sample stream with a bundle")
    p_mon.add_argument("--bundle", required=True)
    p_mon.add_argument("--input", required=True,
                       help="CSV of raw samples, or - for stdin")
    p_mon.add_argument("--events", default=None, help="write events as JSON lines")
    p_mon.add_argument("--v-trace", default=None,
                       help="write the global statistic as t,V,alarm CSV rows")
    p_mon.add_argument("--keep-samples", action="store_true",
                       help="include per-sample events in the event log")
    p_mon.set_defaults(func=_cmd_monitor)

    p_eval = sub.add_parser("evaluate", help="score a bundle on labeled runs")
    p_eval.add_argument("--bundle", required=True)
    p_eval.add_argument("--runs", required=True, help="directory of labeled run CSVs")
    p_eval.add_argument("--out", default=None, help="write the report JSON here")
    p_eval.add_argument("--confusion", default=None,
                        help="write the confusion matrix as CSV here")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sweep = sub.add_parser("sweep-patience", help="accuracy vs patience")
    p_sweep.add_argument("--in-control", required=True)
    p_sweep.add_argument("--train-runs", required=True)
    p_sweep.add_argument("--test-runs", required=True)
    p_sweep.add_argument("--grid", required=True, help="comma-separated patience values")
    _add_detector_args(p_sweep)
    p_sweep.add_argument("--replications", type=int, default=400)
    p_sweep.add_argument("--process", default=None,
                         help="process spec JSON for calibration samples")
    p_sweep.add_argument("--feature-mode", choices=("tangent", "raw"), default="tangent")
    p_sweep.add_argument("--trace-features", action="store_true")
    p_sweep.add_argument("--threshold", type=float, default=None)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default=None, help="write the sweep CSV here")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FaultMonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
