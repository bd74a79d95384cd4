"""The three benchmark workloads: train, calibrate and monitor.

Each workload builds its inputs from the seed in ``setup`` (untimed by the
repeat, timed as ``setup_s``) and then runs timed repeats. A repeat makes
two public-API calls: the *main* call and the *check* call that verifies
the main call's output. Both are timed on their own, by the ``speed.Clock``
the runner passes in, and both feed the correctness checks. The workloads
call faultmon only through module attributes (``pipeline.offline_train``,
``calibrate.find_threshold``, ...) so that a traced repeat sees every call
through the wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np
from speed import Measurement

from faultmon import bundle, calibrate, detector, pipeline, simulate, standardize

# Threshold for ARL0=200 at k=1.3, r=4 on the 20-stream benchmark process
# (the value the test suite pins). Train and monitor use it so that they
# do not depend on calibration, which has its own workload.
PINNED_H = 36.21875
TARGET_ARL0 = 200.0
PATIENCE = 300


def _null_phase(name):
    return contextlib.nullcontext()


@dataclass
class Repeat:
    """Outcome of one timed repeat.

    ``checks`` maps a check name to ``(failed, op)``: how many operations
    of the timed call ``op`` (``main`` or ``check``) failed it, 0 when it
    passed. ``ops`` counts the operations each call stands for. ``digest``
    must be identical across repeats of one run. ``ratios`` carries the
    denominators the per-layer ratio metrics need; the standardize ratio
    is taken over the ``main`` phase.
    """

    main: Measurement
    check: Measurement
    checks: dict
    digest: str
    ops: dict  # op -> number of operations it counts as
    report: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)

    @property
    def main_s(self) -> float:
        return self.main.nominal_s

    @property
    def check_s(self) -> float:
        return self.check.nominal_s

    @property
    def total_s(self) -> float:
        """Measured (not nominal) seconds of both calls."""
        return self.main.seconds + self.check.seconds

    def failed_ops(self) -> int:
        worst: dict = {}
        for failed, op in self.checks.values():
            worst[op] = max(worst.get(op, 0), failed)
        return sum(worst.values())


def _rows(runs) -> int:
    return sum(run.data.shape[0] for run in runs)


class Train:
    """Batch training, then scoring on the held-out runs.

    Exercises the detector's lockstep ``run_many``, the Karcher mean and
    the SVM grid search; calibration and the per-sample path stay idle.
    """

    name = "train"
    setups = 2
    aliases = {"main_s": "train_s", "check_s": "evaluate_s"}
    # Wrapped spans this workload must call; every other span must stay at 0.
    spans = {
        "standardize.apply", "detector.run_many", "spd.covariance",
        "spd.karcher_mean", "spd.spd_log", "spd.spd_exp", "svm.grid_search",
        "svm.train_binary", "svm.rbf_kernel_matrix", "svm.predict",
        "pipeline.offline_train", "pipeline.evaluate",
    }
    config = pipeline.TrainConfig(patience=PATIENCE, threshold_override=PINNED_H)

    def setup(self, seed: int, workdir):
        bench = simulate.make_benchmark(seed)
        return {"bench": bench, "workdir": workdir}

    def repeat(self, state, clock, phase=_null_phase) -> Repeat:
        bench = state["bench"]
        eval_runs = bench.test_runs + bench.in_control_runs
        with clock.measure() as main, phase("main"):
            model = pipeline.offline_train(bench.in_control, bench.train_runs, self.config)
        with clock.measure() as check, phase("check"):
            report = pipeline.evaluate(model, eval_runs)

        path = state["workdir"] / "train-bundle.json"
        bundle.save_bundle(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
        test_count = len(bench.test_runs)
        attempts = report.classified + sum(report.unclassified.values())
        train_rows = _rows(bench.train_runs)
        return Repeat(
            main=main,
            check=check,
            checks={
                "all_test_runs_classified": (int(report.classified != test_count), "check"),
                "accuracy_at_least_0.5": (int(report.overall_accuracy < 0.5), "check"),
            },
            digest=digest,
            ops={"main": 1, "check": 1},
            report={
                "bundle_sha256": digest,
                "accuracy": round(report.overall_accuracy, 4),
                "classified": f"{report.classified}/{test_count}",
            },
            ratios={
                "input_rows": bench.in_control.shape[0] + train_rows,
                "unique_rows": train_rows,
                "detector_phase": "main",
                "kept_runs": sum(model.training_summary["usable_runs_per_class"].values()),
                "classified": report.classified,
                "classify_attempts": attempts,
            },
        )


class Calibrate:
    """Threshold search at the criterion-4 operating point, then its FAR.

    Sample generation, standardisation and the batch detector do the work;
    ``spd`` and ``svm`` stay idle. The false-alarm estimate runs the
    restart loop, which re-ranks rows after every alarm.

    The FAR is estimated to a fixed precision: replications are added one
    at a time until ``far_alarms`` alarms have been seen, as an operator
    who wants a given relative error (1/sqrt(alarms)) would. The restart
    loop's work grows with the alarms found, and the found threshold's
    alarm rate differs by seed (FAR x ARL0 read 0.91-1.06 over seeds 0-7
    with 60 replications). A fixed replication count made the call's time
    follow that rate; a fixed alarm count keeps the work nearly the same
    on every seed.
    """

    name = "calibrate"
    # A set-up takes about 10 ms; the median of 50 steadies it.
    setups = 50
    aliases = {"main_s": "calibrate_s", "check_s": "far_estimate_s"}
    spans = {
        "simulate.source", "standardize.apply", "detector.run_many",
        "calibrate.find_threshold", "calibrate.far",
    }
    spec = calibrate.CalibrationSpec(target_arl0=TARGET_ARL0, replications=400)
    # About 47 replications (about 20 s) at ARL0 = 200.
    far_alarms = 700
    far_length = 3000
    # Stops a program that finds no alarms; its FAR check then fails.
    far_max_replications = 150
    # Disjoint from the search's replications (the acceptance suite's offset).
    far_offset = simulate.CALIBRATION_RUN_OFFSET + 100_000

    def setup(self, seed: int, workdir):
        process = simulate.default_process_spec(seed)
        pool = simulate.generate_in_control(process, 3000)
        stats = standardize.fit_reference(pool)
        z = standardize.apply(pool, stats)
        return {
            "process": process,
            "stats": stats,
            "references": [z[:, i] for i in range(z.shape[1])],
            "config": detector.MonitorConfig(allowance=1.3, top_r=4, stream_count=20),
        }

    def repeat(self, state, clock, phase=_null_phase) -> Repeat:
        process, stats = state["process"], state["stats"]
        references, config = state["references"], state["config"]
        with clock.measure() as main, phase("main"):
            source = calibrate.standardized_source(
                simulate.in_control_source(
                    process, run_offset=simulate.CALIBRATION_RUN_OFFSET
                ),
                stats,
            )
            result = calibrate.find_threshold(references, config, source, self.spec)
        with clock.measure() as check, phase("check"):
            alarms = replications = 0
            while alarms < self.far_alarms and replications < self.far_max_replications:
                # Replication 0 of this source is run far_offset + replications.
                far_source = calibrate.standardized_source(
                    simulate.in_control_source(
                        process, run_offset=self.far_offset + replications
                    ),
                    stats,
                )
                rate = calibrate.estimate_false_alarm_rate(
                    result.threshold, references, config, far_source, 1, self.far_length
                )
                alarms += round(rate * self.far_length)
                replications += 1

        far_rows = replications * self.far_length
        far = alarms / far_rows
        arl_error = result.achieved_arl / TARGET_ARL0 - 1.0
        far_error = far * TARGET_ARL0 - 1.0
        return Repeat(
            main=main,
            check=check,
            checks={
                "arl_within_10pct": (int(abs(arl_error) > 0.10), "main"),
                "far_within_25pct": (int(abs(far_error) > 0.25), "check"),
            },
            digest=f"{result.threshold!r}/{far!r}",
            ops={"main": 1, "check": 1},
            report={
                "threshold": result.threshold,
                "achieved_arl": round(result.achieved_arl, 2),
                "far_x_arl0": round(far * TARGET_ARL0, 4),
                "far_replications": replications,
            },
            ratios={
                "input_rows": self.spec.replications * self.spec.run_length_cap,
                "unique_rows": far_rows,
                "detector_phase": "check",
            },
        )


class Monitor:
    """A trained bundle fed one sample at a time, in a closed loop.

    One client: the next sample is handed over only after every event of
    the previous one has been drained, so each latency is pure service
    time. The per-sample detector path (``Monitor.step``) runs instead of
    the lockstep one, ``svm`` only predicts, ``spd`` handles one window
    per alarm and ``features`` is on the path.
    """

    name = "monitor"
    # One set-up: it takes ~12 s, a repeat ~19 s, and a run must stay
    # near --seconds.
    setups = 1
    aliases = {"main_s": "monitor_s", "check_s": "replay_s"}
    spans = {
        "standardize.apply", "detector.step", "detector.reset", "spd.covariance",
        "spd.spd_log", "features.trace_features", "svm.rbf_kernel_matrix",
        "svm.predict", "pipeline.online_monitor",
    }
    config = pipeline.TrainConfig(
        patience=PATIENCE, trace_features=True, threshold_override=PINNED_H
    )

    def setup(self, seed: int, workdir):
        bench = simulate.make_benchmark(seed)
        model = pipeline.offline_train(bench.in_control, bench.train_runs, self.config)
        path = workdir / "monitor-bundle.json"
        t0 = time.perf_counter()
        bundle.save_bundle(model, path)
        t1 = time.perf_counter()
        loaded = bundle.load_bundle(path)
        t2 = time.perf_counter()
        size = path.stat().st_size
        path.unlink()
        # Every third test run (four per fault class) and the in-control runs.
        runs = [run.data for run in bench.test_runs[::3] + bench.in_control_runs]
        return {
            "bundle": model,
            "loaded": loaded,
            "runs": runs,
            "bundle_metrics": {
                "bundle.save_s": t1 - t0,
                "bundle.load_s": t2 - t1,
                "bundle.bytes": size,
            },
        }

    @staticmethod
    def _feed_run(model, data, paused_ns, sample_ns, classify_ns):
        """Feed one run through ``online_monitor``; return its events.

        Latencies run from handing sample t to the monitor until its
        ``sample`` (or ``classification``) event arrives, in nanoseconds,
        less any speed-probe slice that ran in between (``paused_ns``).
        """
        clock = time.perf_counter_ns
        handed = [0, 0]

        def feed():
            for row in data:
                handed[0], handed[1] = clock(), paused_ns()
                yield row

        events = []
        for event in pipeline.online_monitor(model, feed()):
            waited = clock() - handed[0] - (paused_ns() - handed[1])
            if event.kind == "sample":
                sample_ns.append(waited)
            elif event.kind == "classification":
                classify_ns.append(waited)
            events.append(event)
        return events

    def repeat(self, state, clock, phase=_null_phase) -> Repeat:
        runs = state["runs"]
        main, check = Measurement(), Measurement()
        events, replay, sample_ns, classify_ns = [], [], [], []
        # Main and check alternate run by run, so that both see the same
        # stretch of machine speed on a box whose speed drifts.
        for data in runs:
            with clock.measure(main), phase("main"):
                events.append(self._feed_run(
                    state["loaded"], data, clock.paused_ns, sample_ns, classify_ns
                ))
            with clock.measure(check), phase("check"):
                replay.append(self._feed_run(state["bundle"], data, clock.paused_ns, [], []))

        digest = hashlib.sha256()
        for run_events in events:
            for e in run_events:
                stat = float(e.global_stat).hex()
                digest.update(
                    f"{e.kind},{e.time_index},{stat},{e.predicted_fault},{e.error};".encode()
                )
        samples = sum(data.shape[0] for data in runs)
        classifications = [e for run in events for e in run if e.kind == "classification"]
        predicted = sum(e.predicted_fault is not None for e in classifications)
        mismatched = sum(a != b for a, b in zip(events, replay))
        sample_us = np.asarray(sample_ns) / 1e3
        classify_ms = np.asarray(classify_ns) / 1e6
        report = {
            "monitor_samples_per_s": samples / main.nominal_s,
            "sample_latency_p50_us": float(np.percentile(sample_us, 50)),
            "sample_latency_p99_us": float(np.percentile(sample_us, 99)),
            "classify_latency_p50_ms": float(np.percentile(classify_ms, 50)) if classify_ms.size else 0.0,
            "classify_latency_p95_ms": float(np.percentile(classify_ms, 95)) if classify_ms.size else 0.0,
            "samples": samples,
            "classifications": len(classifications),
            "event_digest": digest.hexdigest(),
        }
        return Repeat(
            main=main,
            check=check,
            checks={
                "loaded_events_equal_in_memory": (mismatched, "check"),
                "classified_some_alarm": (int(predicted == 0), "main"),
            },
            digest=digest.hexdigest(),
            ops={"main": len(runs), "check": len(runs)},
            report=report,
            ratios={
                "input_rows": samples,
                "unique_rows": samples,
                "detector_phase": "main",
                "classified": predicted,
                "classify_attempts": len(classifications),
            },
        )


WORKLOADS = {cls.name: cls for cls in (Train, Calibrate, Monitor)}
