import base64
import dataclasses
import json

import numpy as np
import pytest

from faultmon import pipeline
from faultmon.bundle import FORMAT_VERSION, _checksum, load_bundle, save_bundle
from faultmon.errors import CorruptBundleError, DomainError, VersionMismatchError
from faultmon.standardize import ReferenceStats


def _float_fields(bundle):
    """Every float array of a bundle, by a name for failure messages."""
    fields = {
        "stats.means": bundle.stats.means,
        "stats.stddevs": bundle.stats.stddevs,
        "karcher_base": bundle.karcher_base,
        "feature_means": bundle.classifier.feature_means,
        "feature_stds": bundle.classifier.feature_stds,
    }
    for i, ref in enumerate(bundle.references):
        fields[f"references[{i}]"] = ref
    for a, b, model in bundle.classifier.pairs:
        fields[f"pair {a}-{b} support_vectors"] = model.support_vectors
        fields[f"pair {a}-{b} dual_coefs"] = model.dual_coefs
    return fields


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
    # Format 1 wrote arrays as number lists; no reader for it is kept.
    path = tmp_path / "model.json"
    save_bundle(trained_bundle, path)
    saved = path.read_text()
    for version in (1, FORMAT_VERSION + 1):
        blob = json.loads(saved)
        blob["format_version"] = version
        path.write_text(json.dumps(blob))
        with pytest.raises(VersionMismatchError):
            load_bundle(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_bundle(tmp_path / "nothing.json")


def test_bundle_validation(trained_bundle):
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


def test_float_arrays_round_trip_bitwise(trained_bundle, tmp_path):
    means = trained_bundle.stats.means.copy()
    means[:4] = [-0.0, 5e-324, 1e308, -1e308]
    bundle = dataclasses.replace(
        trained_bundle,
        stats=ReferenceStats(means=means, stddevs=trained_bundle.stats.stddevs),
    )
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    loaded = _float_fields(load_bundle(path))
    for name, array in _float_fields(bundle).items():
        got = loaded[name]
        assert got.dtype == np.float64, name
        assert got.shape == np.shape(array), name
        assert got.tobytes() == np.asarray(array, dtype=float).tobytes(), name
        assert got.flags.writeable and got.flags.owndata, name


def test_every_float_array_is_encoded(trained_bundle, tmp_path):
    # A long JSON list of numbers in the payload would be a float array that
    # bypassed the one base64 encoding.
    path = tmp_path / "model.json"
    save_bundle(trained_bundle, path)
    payload = json.loads(path.read_text())["payload"]
    stack = [payload]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            assert sum(isinstance(x, (int, float)) for x in node) <= 64
            stack.extend(node)
    means = payload["stats"]["means"]
    assert means["dtype"] == "<f8"
    raw = base64.b64decode(means["base64"])
    np.testing.assert_array_equal(
        np.frombuffer(raw, "<f8").reshape(means["shape"]), trained_bundle.stats.means
    )


@pytest.mark.parametrize(
    "key,value",
    [
        ("base64", "not base64!"),
        ("base64", base64.b64encode(b"\0" * 12).decode("ascii")),
        ("dtype", "<f4"),
    ],
    ids=["bad-base64", "wrong-length", "float32"],
)
def test_bad_array_encoding_rejected(trained_bundle, tmp_path, key, value):
    # The checksum is re-sealed so that the array decoder is what fails.
    path = tmp_path / "model.json"
    save_bundle(trained_bundle, path)
    blob = json.loads(path.read_text())
    blob["payload"]["stats"]["means"][key] = value
    blob["checksum"] = _checksum(blob["payload"])
    path.write_text(json.dumps(blob))
    with pytest.raises(CorruptBundleError, match="malformed"):
        load_bundle(path)


def test_fault_ids_above_nine_round_trip(trained_bundle, tmp_path):
    # 3 < 9 < 15 as numbers, but "15" < "3" < "9" as strings: the checksum
    # must be taken over the keys a reader parses, and the loaded summary
    # keys its counts by int fault id again.
    summary = {
        **trained_bundle.training_summary,
        "usable_runs_per_class": {3: 5, 9: 5, 15: 5},
    }
    bundle = dataclasses.replace(trained_bundle, training_summary=summary)
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert loaded.training_summary == bundle.training_summary
