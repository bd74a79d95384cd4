"""End-to-end checks of the command-line interface.

Each subcommand runs against a small on-disk corpus shared across the
module; assertions cover exit codes, file artifacts, and agreement with
the library calls the commands wrap.
"""

import gc
import io
import json
import warnings

import numpy as np
import pytest

from faultmon import cli, detector, pipeline, simulate, standardize
from faultmon.bundle import load_bundle
from tests.conftest import PINNED_H


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory, small_benchmark):
    root = tmp_path_factory.mktemp("cli_ws")
    simulate.write_run_csv(root / "in_control.csv", small_benchmark.in_control)
    simulate.write_corpus(root / "train", small_benchmark.train_runs)
    simulate.write_corpus(root / "test", small_benchmark.test_runs)
    return root


@pytest.fixture(scope="session")
def cli_bundle(cli_workspace):
    path = cli_workspace / "bundle.json"
    code = cli.main([
        "train",
        "--in-control", str(cli_workspace / "in_control.csv"),
        "--runs", str(cli_workspace / "train"),
        "--threshold", str(PINNED_H),
        "--patience", "60",
        "--folds", "3",
        "--seed", "0",
        "--out", str(path),
    ])
    assert code == 0
    return path


def test_simulate_single_run(tmp_path, capfd):
    out = tmp_path / "run.csv"
    code = cli.main(["simulate", "--samples", "80", "--seed", "11",
                     "--out", str(out)])
    assert code == 0
    assert "wrote 80 samples x 20 streams" in capfd.readouterr().out
    run = simulate.read_run_csv(out)
    assert run.data.shape == (80, 20)
    assert not np.any(run.labels)


def test_simulate_faulty_run_round_trip(tmp_path):
    spec_path = tmp_path / "fault.json"
    fault = simulate.FaultSpec("step", (3,), 30, magnitude=2.0, fault_id=1)
    spec_path.write_text(json.dumps(fault.to_dict()), encoding="utf-8")
    out = tmp_path / "faulty.csv"
    code = cli.main(["simulate", "--samples", "80", "--seed", "11",
                     "--fault", str(spec_path), "--out", str(out)])
    assert code == 0
    assert (tmp_path / "faulty_labels.csv").exists()
    run = simulate.read_run_csv(out)
    assert run.labels[29] == 0 and run.labels[30] == 1
    assert run.labels[-1] == 1


def test_simulate_benchmark_layout(tmp_path, capfd):
    out = tmp_path / "bench"
    code = cli.main(["simulate", "--benchmark", "--runs-per-class", "5",
                     "--samples", "200", "--onset", "50", "--seed", "3",
                     "--out", str(out)])
    assert code == 0
    assert "20 train, 5 test" in capfd.readouterr().out
    for name in ("process.json", "faults.json", "in_control.csv"):
        assert (out / name).exists()
    train = simulate.read_corpus(out / "train")
    test = simulate.read_corpus(out / "test")
    assert len(train) == 20 and len(test) == 5
    assert all(run.data.shape == (200, 20) for run in train)


def test_calibrate_bootstrap(cli_workspace, tmp_path, capfd):
    report_path = tmp_path / "cal.json"
    code = cli.main([
        "calibrate",
        "--in-control", str(cli_workspace / "in_control.csv"),
        "--arl0", "25", "--replications", "80", "--seed", "5",
        "--out", str(report_path),
    ])
    assert code == 0
    stdout_payload = json.loads(capfd.readouterr().out)
    file_payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert stdout_payload == file_payload
    assert file_payload["threshold"] > 0
    assert file_payload["target_arl0"] == 25.0
    assert abs(file_payload["achieved_arl"] / 25.0 - 1.0) <= 0.02
    assert file_payload["standard_error"] > 0


def test_calibrate_and_train_pick_the_same_threshold(
    cli_workspace, small_benchmark, tmp_path
):
    # 1499 rows: half of the pool is 749.5 rows, so a split that rounds
    # differently from training's would pick other references.
    pool_csv = tmp_path / "in_control_1499.csv"
    simulate.write_run_csv(pool_csv, small_benchmark.in_control[:1499])
    calibration = ["--arl0", "25", "--replications", "80", "--tolerance", "0.05",
                   "--seed", "5"]
    report_path = tmp_path / "cal.json"
    assert cli.main(["calibrate", "--in-control", str(pool_csv), *calibration,
                     "--out", str(report_path)]) == 0
    bundle_path = tmp_path / "bundle.json"
    assert cli.main(["train", "--in-control", str(pool_csv),
                     "--runs", str(cli_workspace / "train"), *calibration,
                     "--patience", "60", "--folds", "3",
                     "--out", str(bundle_path)]) == 0
    calibrated = json.loads(report_path.read_text(encoding="utf-8"))
    trained = load_bundle(bundle_path).training_summary["calibration"]
    assert calibrated == trained


def test_train_writes_loadable_bundle(cli_bundle, cli_workspace):
    bundle = load_bundle(cli_bundle)
    assert bundle.config.threshold == PINNED_H
    assert bundle.patience == 60
    assert bundle.window >= 2
    assert sorted(bundle.classifier.class_labels.tolist()) == [1, 2, 3, 4, 5]


def test_monitor_trace_and_events(cli_bundle, cli_workspace, small_benchmark,
                                  tmp_path, capfd):
    run = small_benchmark.test_runs[0]
    input_csv = tmp_path / "stream.csv"
    simulate.write_run_csv(input_csv, run.data)
    trace_path = tmp_path / "v.csv"
    events_path = tmp_path / "events.jsonl"
    code = cli.main([
        "monitor", "--bundle", str(cli_bundle), "--input", str(input_csv),
        "--v-trace", str(trace_path), "--events", str(events_path),
    ])
    assert code == 0
    out = capfd.readouterr().out
    assert f"{run.data.shape[0]} samples:" in out

    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,V,alarm"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == run.data.shape[0]
    assert [int(r[0]) for r in rows] == list(range(run.data.shape[0]))

    # Until the first alarm the online detector has never reset, so the
    # written V values must match a plain batched run bit for bit.
    bundle = load_bundle(cli_bundle)
    z = standardize.apply(run.data, bundle.stats)
    v_batch = detector.run_many(bundle.references, bundle.config, [z])[0]
    v_written = np.array([float(r[1]) for r in rows])
    alarms = np.array([int(r[2]) for r in rows])
    first = int(np.argmax(v_written >= bundle.config.threshold))
    assert alarms[first] == 1 and not alarms[:first].any()
    np.testing.assert_array_equal(v_written[: first + 1], v_batch[: first + 1])

    events = [json.loads(line) for line in
              events_path.read_text(encoding="utf-8").splitlines()]
    kinds = {e["kind"] for e in events}
    assert "sample" not in kinds  # omitted without --keep-samples
    assert "alarm_raised" in kinds


def test_monitor_closes_events_file_when_v_trace_cannot_open(
    cli_bundle, cli_workspace, tmp_path
):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([
            "monitor", "--bundle", str(cli_bundle),
            "--input", str(cli_workspace / "in_control.csv"),
            "--events", str(tmp_path / "ev.jsonl"),
            "--v-trace", str(tmp_path / "missing" / "v.csv"),
        ])
        gc.collect()
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_monitor_reads_stdin(cli_bundle, small_benchmark, monkeypatch, capfd):
    data = small_benchmark.test_runs[0].data[:120]
    buf = io.StringIO()
    np.savetxt(buf, data, delimiter=",", header="x", comments="")
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    code = cli.main(["monitor", "--bundle", str(cli_bundle), "--input", "-"])
    assert code == 0
    assert "120 samples:" in capfd.readouterr().out


class _LineFeed:
    """Stand-in for a live stdin pipe that counts the lines handed out."""

    def __init__(self, text):
        self._lines = text.splitlines(keepends=True)
        self.read = 0

    def __iter__(self):
        for line in self._lines:
            self.read += 1
            yield line


def test_monitor_streams_stdin(cli_bundle, small_benchmark, monkeypatch,
                               tmp_path, capfd):
    data = small_benchmark.test_runs[0].data[:120]
    input_csv = tmp_path / "stream.csv"
    np.savetxt(input_csv, data, delimiter=",", header="x", comments="")
    feed = _LineFeed(input_csv.read_text(encoding="utf-8"))
    monkeypatch.setattr("sys.stdin", feed)
    lines_read_at_event = []
    online_monitor = pipeline.online_monitor

    def spy(bundle, samples):
        for event in online_monitor(bundle, samples):
            lines_read_at_event.append(feed.read)
            yield event

    monkeypatch.setattr(pipeline, "online_monitor", spy)
    events = {}
    for source in ("-", str(input_csv)):
        events[source] = tmp_path / f"events-{len(events)}.jsonl"
        code = cli.main(["monitor", "--bundle", str(cli_bundle), "--input", source,
                         "--events", str(events[source]), "--keep-samples"])
        assert code == 0
        assert "120 samples:" in capfd.readouterr().out
    # Header plus one row: the first event came before the rest was read.
    assert lines_read_at_event[0] == 2
    assert feed.read == 121
    assert (events["-"].read_text(encoding="utf-8")
            == events[str(input_csv)].read_text(encoding="utf-8"))


def test_evaluate_report_and_confusion(cli_bundle, cli_workspace, tmp_path,
                                       capfd):
    report_path = tmp_path / "report.json"
    confusion_path = tmp_path / "confusion.csv"
    code = cli.main([
        "evaluate", "--bundle", str(cli_bundle),
        "--runs", str(cli_workspace / "test"),
        "--out", str(report_path), "--confusion", str(confusion_path),
    ])
    assert code == 0
    out = capfd.readouterr().out
    assert "detection rate by fault:" in out
    assert "false alarm rate:" in out

    payload = json.loads(report_path.read_text(encoding="utf-8"))
    for key in ("fdr_per_fault", "fds_per_fault", "far", "confusion_matrix",
                "overall_accuracy"):
        assert key in payload

    lines = confusion_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "true\\pred,1,2,3,4,5"
    assert len(lines) == 6
    total = sum(int(cell) for line in lines[1:]
                for cell in line.split(",")[1:])
    assert total == payload["classified"]


def test_sweep_patience_cli(cli_workspace, tmp_path, capfd):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep-patience",
        "--in-control", str(cli_workspace / "in_control.csv"),
        "--train-runs", str(cli_workspace / "train"),
        "--test-runs", str(cli_workspace / "test"),
        "--grid", "0,60,700", "--threshold", str(PINNED_H), "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0
    printed = capfd.readouterr().out
    assert printed.count("patience=") == 3
    # At patience 700 fault 3 keeps fewer than 2 usable training runs.
    assert "patience=700: unusable, fault class 3" in printed
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "patience,window,test_accuracy,classified,truncated,short_class"
    assert len(lines) == 4
    assert lines[1].startswith("0,") and lines[2].startswith("60,")
    assert lines[1].endswith(",") and lines[2].endswith(",")
    assert lines[3] == "700,,,0,0,3"


def test_errors_map_to_exit_code_2(cli_workspace, tmp_path, capfd):
    code = cli.main(["monitor", "--bundle", str(tmp_path / "missing.json"),
                     "--input", str(cli_workspace / "in_control.csv")])
    assert code == 2
    assert "error:" in capfd.readouterr().err

    empty = tmp_path / "empty"
    empty.mkdir()
    code = cli.main(["evaluate", "--bundle", str(tmp_path / "missing.json"),
                     "--runs", str(empty)])
    assert code == 2

    code = cli.main([
        "train",
        "--in-control", str(cli_workspace / "in_control.csv"),
        "--runs", str(cli_workspace / "train"),
        "--threshold", str(PINNED_H), "--patience", "-1",
        "--out", str(tmp_path / "b.json"),
    ])
    assert code == 2
    assert "error:" in capfd.readouterr().err

    code = cli.main([
        "sweep-patience",
        "--in-control", str(cli_workspace / "in_control.csv"),
        "--train-runs", str(cli_workspace / "train"),
        "--test-runs", str(cli_workspace / "test"),
        "--threshold", str(PINNED_H), "--grid", "0,abc",
    ])
    assert code == 2
    assert "error: could not parse --grid" in capfd.readouterr().err


@pytest.mark.parametrize(
    "data_row,label_row,message",
    [
        ("abc,1", "0,0", "could not parse samples"),
        ("1,2", "99999,1", "0 <= t < 2"),
        ("1,2", "-1,3", "0 <= t < 2"),
    ],
)
def test_bad_corpus_maps_to_exit_code_2(cli_workspace, tmp_path, capfd,
                                        data_row, label_row, message):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "run.csv").write_text(f"s0,s1\n1,2\n{data_row}\n")
    (runs / "run_labels.csv").write_text(f"t,fault_id\n{label_row}\n")
    code = cli.main([
        "train",
        "--in-control", str(cli_workspace / "in_control.csv"),
        "--runs", str(runs),
        "--threshold", str(PINNED_H),
        "--out", str(tmp_path / "b.json"),
    ])
    assert code == 2
    err = capfd.readouterr().err
    assert err.startswith("error:") and message in err


def test_calibrate_bracket_failure_maps_to_exit_code_2(cli_workspace, capfd):
    # A cap of 20 samples cannot resolve a target ARL of 25.
    code = cli.main(["calibrate", "--in-control", str(cli_workspace / "in_control.csv"),
                     "--arl0", "25", "--cap", "20", "--replications", "10"])
    assert code == 2
    assert "error: threshold calibration failed" in capfd.readouterr().err


def test_bad_input_csv_maps_to_exit_code_2(cli_bundle, tmp_path, monkeypatch,
                                           capfd):
    for name, text, message in [
        ("garbage.csv", "not,a,number\nfoo,bar,baz\n", "could not parse samples"),
        ("headers_only.csv", "s00,s01\n", "no sample rows"),
        # One good row first: on stdin the error comes mid-stream.
        ("bad_second_row.csv", "x\n" + ",".join(["0"] * 20) + "\n1,x\n",
         "could not parse samples"),
    ]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        for source in (str(path), "-"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code = cli.main(["monitor", "--bundle", str(cli_bundle),
                             "--input", source])
            assert code == 2
            assert message in capfd.readouterr().err
