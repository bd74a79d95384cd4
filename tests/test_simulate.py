import hashlib
import json

import numpy as np
import pytest
from scipy import stats as scipy_stats

from faultmon import simulate
from faultmon.errors import (
    BadSpecError,
    EmptyInputError,
    FaultMonError,
    LabelMismatchError,
)

# Onset is a 0-based index; post-onset means samples onset, onset+1, ...
ONSET = 120


def _single_stream_spec(stream):
    return simulate.ProcessSpec(streams=(stream,), seed=0)


@pytest.mark.parametrize(
    "stream,dist",
    [
        (simulate.StreamSpec.normal(2.0, 3.0), scipy_stats.norm(2.0, 3.0)),
        (simulate.StreamSpec.uniform(-1.0, 4.0), scipy_stats.uniform(-1.0, 5.0)),
        (simulate.StreamSpec.exponential(0.5), scipy_stats.expon(scale=2.0)),
        (simulate.StreamSpec.student_t(2.2), scipy_stats.t(2.2)),
        (simulate.StreamSpec.lognormal(0.3, 0.9), scipy_stats.lognorm(0.9, scale=np.exp(0.3))),
    ],
)
def test_marginals_pass_ks(stream, dist):
    spec = _single_stream_spec(stream)
    data = simulate.generate_in_control(spec, 100_000, run=0)[:, 0]
    result = scipy_stats.kstest(data, dist.cdf)
    assert result.pvalue > 0.001


def test_stream_moments():
    assert simulate.StreamSpec.normal(2.0, 3.0).mean() == 2.0
    assert simulate.StreamSpec.normal(2.0, 3.0).stddev() == 3.0
    assert simulate.StreamSpec.uniform(0.0, 10.0).mean() == 5.0
    assert simulate.StreamSpec.uniform(0.0, 12.0).stddev() == pytest.approx(
        12.0 / np.sqrt(12.0)
    )
    assert simulate.StreamSpec.exponential(0.5).mean() == 2.0
    assert simulate.StreamSpec.exponential(0.5).stddev() == 2.0
    dof = 2.5
    assert simulate.StreamSpec.student_t(dof).mean() == 0.0
    assert simulate.StreamSpec.student_t(dof).stddev() == pytest.approx(
        np.sqrt(dof / (dof - 2.0))
    )
    mu, sigma = 0.3, 0.9
    log_spec = simulate.StreamSpec.lognormal(mu, sigma)
    assert log_spec.mean() == pytest.approx(np.exp(mu + sigma * sigma / 2.0))
    assert log_spec.stddev() == pytest.approx(
        np.sqrt((np.exp(sigma * sigma) - 1.0)) * np.exp(mu + sigma * sigma / 2.0)
    )


def test_stream_spec_validation():
    with pytest.raises(BadSpecError):
        simulate.StreamSpec.normal(0.0, 0.0)
    with pytest.raises(BadSpecError):
        simulate.StreamSpec.uniform(3.0, 3.0)
    with pytest.raises(BadSpecError):
        simulate.StreamSpec.exponential(-1.0)
    with pytest.raises(BadSpecError):
        simulate.StreamSpec.student_t(2.0)
    with pytest.raises(BadSpecError):
        simulate.StreamSpec.lognormal(0.0, -0.1)


@pytest.mark.parametrize(
    "args,message",
    [
        (("normal", 0.0, 0.0), "normal sigma must be positive"),
        (("uniform", 3.0, 3.0), "uniform needs high > low"),
        (("exponential", 0.0), "exponential rate must be positive"),
        (("student_t", 1.0), "student_t needs dof > 2"),
        (("lognormal", 0.0, float("nan")), "lognormal sigma must be positive"),
        (("gamma", 1.0), "unknown stream kind"),
    ],
    ids=["normal", "uniform", "exponential", "student_t", "lognormal_nan", "unknown"],
)
def test_stream_spec_checks_direct_construction(args, message):
    # A spec built without a named constructor is checked too, instead of
    # failing later in mean() or stddev().
    with pytest.raises(BadSpecError, match=message):
        simulate.StreamSpec(*args)


def test_stream_spec_from_dict_errors():
    with pytest.raises(BadSpecError, match="missing field 'sigma'"):
        simulate.StreamSpec.from_dict({"kind": "normal", "mu": 0.0})
    with pytest.raises(BadSpecError, match="missing field 'kind'"):
        simulate.StreamSpec.from_dict({"dof": 3.0})
    with pytest.raises(BadSpecError, match="unknown stream kind 'gamma'"):
        simulate.StreamSpec.from_dict({"kind": "gamma", "shape": 2.0})
    with pytest.raises(BadSpecError, match="student_t needs dof > 2"):
        simulate.StreamSpec.from_dict({"kind": "student_t", "dof": 1.0})


def test_same_run_is_byte_identical():
    spec = simulate.default_process_spec(3)
    a = simulate.generate_in_control(spec, 400, run=7)
    b = simulate.generate_in_control(spec, 400, run=7)
    assert a.tobytes() == b.tobytes()
    c = simulate.generate_in_control(spec, 400, run=8)
    assert a.tobytes() != c.tobytes()


def test_source_is_addressable():
    spec = simulate.default_process_spec(1)
    source = simulate.in_control_source(spec)
    whole = source(5, 0, 100)
    np.testing.assert_array_equal(whole[37:], source(5, 37, 63))
    np.testing.assert_array_equal(whole, simulate.generate_in_control(spec, 100, run=5))


@pytest.mark.parametrize("start", [*range(10), 10**6 + 3])
def test_uniforms_read_the_philox_keystream(start):
    # Draws start .. start + count - 1 of a fresh Philox generator seeded
    # with the spawn key, whether or not the start needs the counter moved.
    reference = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=11, spawn_key=(4, 2)))
    ).random(start + 9)[start:]
    got = simulate._uniforms(11, (4, 2), start, 9)
    np.testing.assert_array_equal(got.view(np.int64), reference.view(np.int64))


def _fault_pair(kind, **kwargs):
    spec = simulate.default_process_spec(0)
    fault = simulate.FaultSpec(kind, (4,), ONSET, fault_id=1, **kwargs)
    clean = simulate.generate_in_control(spec, 300, run=2)
    faulty, labels = simulate.generate(spec, fault, 300, run=2)
    return spec, clean, faulty, labels


def test_step_fault_shifts_by_sigma_multiples():
    spec, clean, faulty, labels = _fault_pair("step", magnitude=3.0)
    sigma = spec.streams[4].stddev()
    np.testing.assert_array_equal(faulty[:ONSET], clean[:ONSET])
    np.testing.assert_allclose(
        faulty[ONSET:, 4] - clean[ONSET:, 4], 3.0 * sigma, rtol=1e-12
    )
    unaffected = [i for i in range(clean.shape[1]) if i != 4]
    np.testing.assert_array_equal(faulty[:, unaffected], clean[:, unaffected])


def test_step_fault_empirical_mean():
    spec = simulate.ProcessSpec(streams=(simulate.StreamSpec.normal(1.0, 2.0),), seed=0)
    fault = simulate.FaultSpec("step", (0,), 100, magnitude=3.0, fault_id=1)
    data, _ = simulate.generate(spec, fault, 20_000, run=0)
    pre, post = data[:100, 0], data[100:, 0]
    assert post.mean() - 1.0 == pytest.approx(3.0 * 2.0, abs=0.1)


def test_random_variation_scales_deviations():
    spec, clean, faulty, labels = _fault_pair("random_variation", magnitude=1.5)
    center = spec.streams[4].mean()
    expected = center + (1.0 + 1.5) * (clean[ONSET:, 4] - center)
    np.testing.assert_allclose(faulty[ONSET:, 4], expected, rtol=1e-10)


def test_slow_drift_ramps_linearly():
    spec, clean, faulty, labels = _fault_pair("slow_drift", drift_rate=5.0)
    sigma = spec.streams[4].stddev()
    t = np.arange(ONSET, 300)
    expected = clean[ONSET:, 4] + 5.0 * sigma * (t - ONSET) / 1000.0
    np.testing.assert_allclose(faulty[ONSET:, 4], expected, rtol=1e-10)
    assert faulty[ONSET, 4] == clean[ONSET, 4]  # ramp starts at zero


def test_sticking_freezes_at_onset_value():
    spec, clean, faulty, labels = _fault_pair("sticking")
    assert (faulty[ONSET:, 4] == clean[ONSET, 4]).all()
    np.testing.assert_array_equal(faulty[:ONSET], clean[:ONSET])


def test_labels_mark_onset_onward():
    _, _, _, labels = _fault_pair("step", magnitude=1.0)
    assert (labels[:ONSET] == 0).all()
    assert (labels[ONSET:] == 1).all()
    spec = simulate.default_process_spec(0)
    assert (simulate.generate(spec, None, 50, run=0)[1] == 0).all()


def test_fault_spec_validation():
    with pytest.raises(BadSpecError):
        simulate.FaultSpec("melting", (0,), 10, fault_id=1)
    with pytest.raises(BadSpecError):
        simulate.FaultSpec("step", (), 10, magnitude=1.0, fault_id=1)
    with pytest.raises(BadSpecError):
        simulate.FaultSpec("step", (0,), 0, magnitude=1.0, fault_id=1)
    with pytest.raises(BadSpecError):
        simulate.FaultSpec("step", (0, 0), 10, magnitude=1.0, fault_id=1)


def test_spec_dict_round_trips():
    process = simulate.default_process_spec(4)
    assert simulate.ProcessSpec.from_dict(process.to_dict()) == process
    fault = simulate.FaultSpec("slow_drift", (1, 3), 50, drift_rate=2.0, fault_id=3)
    assert simulate.FaultSpec.from_dict(fault.to_dict()) == fault
    # JSON-serializable end to end.
    json.dumps(process.to_dict())
    json.dumps(fault.to_dict())


def test_run_csv_round_trip(tmp_path):
    spec = simulate.default_process_spec(0)
    fault = simulate.FaultSpec("step", (2,), 40, magnitude=2.0, fault_id=4)
    data, labels = simulate.generate(spec, fault, 90, run=1)
    path = tmp_path / "run.csv"
    simulate.write_run_csv(path, data, labels)
    loaded = simulate.read_run_csv(path)
    np.testing.assert_array_equal(loaded.data, data)
    np.testing.assert_array_equal(loaded.labels, labels)
    assert loaded.fault_id == 4
    assert loaded.onset == 40
    # Labels live in a (t, fault_id) companion file.
    header = (tmp_path / "run_labels.csv").read_text().splitlines()[0]
    assert header == "t,fault_id"


def test_run_csv_without_labels(tmp_path):
    data = np.random.default_rng(0).normal(size=(20, 3))
    path = tmp_path / "plain.csv"
    simulate.write_run_csv(path, data)
    loaded = simulate.read_run_csv(path)
    assert (loaded.labels == 0).all()
    assert loaded.fault_id == 0
    assert loaded.onset is None


@pytest.mark.parametrize("row", ["-1,3", "99999,1", "2,1,0"])
def test_read_run_csv_rejects_bad_label_rows(tmp_path, row):
    path = tmp_path / "run.csv"
    simulate.write_run_csv(path, np.zeros((5, 2)))
    (tmp_path / "run_labels.csv").write_text(f"t,fault_id\n{row}\n")
    with pytest.raises(LabelMismatchError, match="0 <= t < 5"):
        simulate.read_run_csv(path)


def test_read_run_csv_rejects_unparsable_and_empty_files(tmp_path):
    path = tmp_path / "run.csv"
    path.write_text("s0,s1\n1,abc\n")
    with pytest.raises(FaultMonError, match="could not parse samples"):
        simulate.read_run_csv(path)
    path.write_text("s0,s1\n")
    with pytest.raises(EmptyInputError, match="no sample rows"):
        simulate.read_run_csv(path)


def test_write_run_csv_validates_labels():
    data = np.zeros((5, 2))
    with pytest.raises(LabelMismatchError):
        simulate.write_run_csv("/tmp/should_not_exist.csv", data, np.zeros(4, dtype=int))


def test_corpus_round_trip(tmp_path):
    bench = simulate.make_benchmark(
        0,
        runs_per_class=2,
        run_length=60,
        onset=20,
        in_control_samples=50,
        in_control_eval_runs=1,
        in_control_eval_length=30,
    )
    simulate.write_corpus(tmp_path / "runs", bench.train_runs)
    loaded = simulate.read_corpus(tmp_path / "runs")
    assert len(loaded) == len(bench.train_runs)
    by_id = {run.run_id: run for run in loaded}
    for run in bench.train_runs:
        np.testing.assert_array_equal(by_id[run.run_id].data, run.data)
        np.testing.assert_array_equal(by_id[run.run_id].labels, run.labels)


def test_benchmark_structure():
    bench = simulate.make_benchmark(
        2,
        runs_per_class=5,
        run_length=80,
        onset=30,
        in_control_samples=100,
        in_control_eval_runs=2,
        in_control_eval_length=40,
    )
    assert len(bench.process.streams) == 20
    assert len(bench.train_runs) == 20  # 4 of 5 per class
    assert len(bench.test_runs) == 5
    assert len(bench.in_control_runs) == 2
    assert bench.in_control.shape == (100, 20)
    train_ids = {run.fault_id for run in bench.train_runs}
    assert train_ids == {1, 2, 3, 4, 5}
    for run in bench.train_runs + bench.test_runs:
        assert run.onset == 30
        assert run.data.shape == (80, 20)
    for run in bench.in_control_runs:
        assert run.fault_id == 0
        assert run.data.shape == (40, 20)
    # Train and test draws are disjoint.
    train_bytes = {run.data.tobytes() for run in bench.train_runs}
    assert all(run.data.tobytes() not in train_bytes for run in bench.test_runs)


def test_benchmark_same_seed_identical():
    kwargs = dict(
        runs_per_class=2,
        run_length=50,
        onset=20,
        in_control_samples=60,
        in_control_eval_runs=1,
        in_control_eval_length=30,
    )
    a = simulate.make_benchmark(1, **kwargs)
    b = simulate.make_benchmark(1, **kwargs)
    assert a.in_control.tobytes() == b.in_control.tobytes()
    for ra, rb in zip(a.train_runs + a.test_runs, b.train_runs + b.test_runs):
        assert ra.data.tobytes() == rb.data.tobytes()


# sha256 over the seed-0 corpus: every train, test and in-control run's data
# (little-endian float64) then labels (little-endian int64), in that order,
# and the in-control pool. Any change to the generator or to fault
# injection moves them.
SEED0_RUNS_SHA256 = "7d7c596d71a4a74464978e89340a1ebe7e79a9efa423e0ca36a854d41abbec33"
SEED0_POOL_SHA256 = "81968593905029c862714c9cb5b0972444020ab9a78990bbf2cf893bb98950e6"


def test_seed0_corpus_is_pinned():
    bench = simulate.make_benchmark(0)
    runs = bench.train_runs + bench.test_runs + bench.in_control_runs
    assert len(runs) == 305
    digest = hashlib.sha256()
    for run in runs:
        digest.update(np.ascontiguousarray(run.data, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(run.labels, dtype="<i8").tobytes())
    assert digest.hexdigest() == SEED0_RUNS_SHA256
    pool = np.ascontiguousarray(bench.in_control, dtype="<f8").tobytes()
    assert hashlib.sha256(pool).hexdigest() == SEED0_POOL_SHA256


def test_run_validation():
    data = np.zeros((10, 2))
    labels = np.zeros(10, dtype=int)
    labels[4:] = 2
    run = simulate.Run(data=data, labels=labels, run_id="r")
    assert run.fault_id == 2
    assert run.onset == 4
    bad = labels.copy()
    bad[2] = 9  # two distinct fault ids
    with pytest.raises(LabelMismatchError):
        simulate.Run(data=data, labels=bad, run_id="r")
