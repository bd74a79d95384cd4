import json

import numpy as np
import pytest

from faultmon import pipeline
from faultmon.bundle import FORMAT_VERSION, _checksum, load_bundle, save_bundle
from faultmon.errors import CorruptBundleError, DomainError, VersionMismatchError


def test_round_trip_preserves_fields(trained_bundle, tmp_path):
    path = tmp_path / "model.json"
    save_bundle(trained_bundle, path)
    loaded = load_bundle(path)
    assert loaded.target_arl0 == trained_bundle.target_arl0
    assert loaded.patience == trained_bundle.patience
    assert loaded.window == trained_bundle.window
    assert loaded.feature_mode == trained_bundle.feature_mode
    assert loaded.trace_features == trained_bundle.trace_features
    assert loaded.config == trained_bundle.config
    np.testing.assert_array_equal(loaded.stats.means, trained_bundle.stats.means)
    np.testing.assert_array_equal(loaded.stats.stddevs, trained_bundle.stats.stddevs)
    for a, b in zip(loaded.references, trained_bundle.references):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(loaded.karcher_base, trained_bundle.karcher_base)


def test_round_trip_preserves_predictions(trained_bundle, tmp_path):
    path = tmp_path / "model.json"
    save_bundle(trained_bundle, path)
    loaded = load_bundle(path)
    rng = np.random.default_rng(60)
    d = trained_bundle.classifier.feature_means.shape[0]
    probes = rng.normal(size=(20, d))
    np.testing.assert_array_equal(
        loaded.classifier.predict(probes), trained_bundle.classifier.predict(probes)
    )


def test_save_is_deterministic(trained_bundle, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_bundle(trained_bundle, p1)
    save_bundle(trained_bundle, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_payload_rejected(trained_bundle, tmp_path):
    path = tmp_path / "model.json"
    save_bundle(trained_bundle, path)
    blob = json.loads(path.read_text())
    blob["payload"]["window"] = blob["payload"]["window"] + 1
    path.write_text(json.dumps(blob))
    with pytest.raises(CorruptBundleError):
        load_bundle(path)


def test_other_metric_rejected(trained_bundle, tmp_path):
    # Training fits the Karcher base affine-invariant; a checksummed payload
    # that names another metric must not switch the maps around it.
    path = tmp_path / "model.json"
    save_bundle(trained_bundle, path)
    blob = json.loads(path.read_text())
    assert blob["payload"]["metric"] == "affine-invariant"
    blob["payload"]["metric"] = "log-euclidean"
    blob["checksum"] = _checksum(blob["payload"])
    path.write_text(json.dumps(blob))
    with pytest.raises(CorruptBundleError, match="log-euclidean"):
        load_bundle(path)


def test_truncated_file_rejected(trained_bundle, tmp_path):
    path = tmp_path / "model.json"
    save_bundle(trained_bundle, path)
    path.write_text(path.read_text()[:200])
    with pytest.raises(CorruptBundleError):
        load_bundle(path)


def test_version_mismatch_rejected(trained_bundle, tmp_path):
    path = tmp_path / "model.json"
    save_bundle(trained_bundle, path)
    blob = json.loads(path.read_text())
    blob["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(blob))
    with pytest.raises(VersionMismatchError):
        load_bundle(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_bundle(tmp_path / "nothing.json")


def test_bundle_validation(trained_bundle):
    import dataclasses

    with pytest.raises(DomainError):
        dataclasses.replace(trained_bundle, window=1)
    with pytest.raises(DomainError):
        dataclasses.replace(trained_bundle, feature_mode="pca")
    with pytest.raises(DomainError):
        dataclasses.replace(trained_bundle, patience=-1)


def test_event_stream_identical_after_round_trip(trained_bundle, small_benchmark, tmp_path):
    path = tmp_path / "model.json"
    save_bundle(trained_bundle, path)
    loaded = load_bundle(path)
    run = small_benchmark.test_runs[0]
    original = [
        (e.kind, e.time_index, e.global_stat, e.predicted_fault)
        for e in pipeline.online_monitor(trained_bundle, run.data)
    ]
    replayed = [
        (e.kind, e.time_index, e.global_stat, e.predicted_fault)
        for e in pipeline.online_monitor(loaded, run.data)
    ]
    assert original == replayed
