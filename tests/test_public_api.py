"""The public surface of faultmon, pinned name by name.

Adding or removing a public name, or reordering the fields of a record
whose field order is a file format or a feature order, must change this
file, so that every change to the surface is a deliberate one.
"""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import faultmon
from faultmon import calibrate, errors, features, pipeline, simulate

PUBLIC = {
    "bundle": ["FEATURE_MODES", "FORMAT_VERSION", "ModelBundle", "load_bundle", "save_bundle"],
    "calibrate": [
        "ArlEstimate", "CalibrationResult", "CalibrationSpec", "SampleSource",
        "bootstrap_source", "estimate_arl", "estimate_false_alarm_rate",
        "find_threshold", "standardized_source",
    ],
    "cli": ["main"],
    "detector": [
        "Monitor", "MonitorConfig", "MonitorOutput", "MonitorTrace",
        "build_reference", "estimate_cdf", "run_many",
    ],
    "features": ["FEATURE_NAMES", "TraceFeatures", "trace_features"],
    "pipeline": [
        "EvalReport", "MonitorEvent", "SweepPoint", "TrainConfig", "choose_threshold",
        "evaluate", "offline_train", "online_monitor", "prepare_reference_and_source",
        "sweep_patience",
    ],
    "simulate": [
        "Benchmark", "FaultSpec", "ProcessSpec", "Run", "StreamSpec",
        "default_fault_specs", "default_process_spec", "generate",
        "generate_in_control", "in_control_source", "make_benchmark", "read_corpus",
        "read_run_csv", "write_corpus", "write_run_csv",
    ],
    "spd": [
        "METRIC_AFFINE", "METRIC_LOG_EUCLIDEAN", "check_spd", "covariance",
        "karcher_mean", "spd_distance", "spd_exp", "spd_log", "tangent_vectorize",
    ],
    "standardize": ["ReferenceStats", "apply", "fit_reference"],
    "svm": [
        "BinaryModel", "GridSearchResult", "MulticlassModel", "default_grids",
        "dual_objective", "grid_search", "rbf_kernel_matrix", "train_binary",
        "train_multiclass",
    ],
}

# errors declares no __all__: its public surface is its exception types.
ERRORS = [
    "BadRError", "BadSpecError", "BracketError", "CalibrationFailedError",
    "ConstantStreamError", "CorruptBundleError", "DimensionMismatchError",
    "DomainError", "EigenFailureError", "EmptyInputError", "FaultMonError",
    "LabelMismatchError", "NoAlarmInTrainingError", "NoConvergenceError",
    "NonFiniteValueError", "NotSpdError", "NotSymmetricError", "SingleClassError",
    "TooFewPerClassError", "TraceTooShortError", "VersionMismatchError",
    "WindowTooShortError",
]


def test_package_exports_its_modules():
    assert sorted(faultmon.__all__) == [
        "bundle", "calibrate", "detector", "errors", "features", "pipeline",
        "simulate", "spd", "standardize", "svm",
    ]
    for name in faultmon.__all__:
        assert inspect.ismodule(getattr(faultmon, name))


@pytest.mark.parametrize("module_name", sorted(PUBLIC))
def test_module_all_is_pinned_and_resolves(module_name):
    module = importlib.import_module(f"faultmon.{module_name}")
    assert sorted(module.__all__) == PUBLIC[module_name]
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} does not resolve"


def test_error_types_are_pinned():
    defined = sorted(
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.FaultMonError)
    )
    assert defined == ERRORS


# Records whose field order is a serialized key order (to_dict, and so the
# JSON files and ``faultmon evaluate --out``), the positional order StreamSpec.from_dict builds with,
# the column order of ``faultmon sweep-patience --out`` (SweepPoint), or
# the classifier's input order (TraceFeatures).
FIELDS = {
    simulate.StreamSpec: ["kind", "p1", "p2"],
    simulate.FaultSpec: [
        "kind", "affected_streams", "onset", "magnitude", "drift_rate", "fault_id",
    ],
    calibrate.CalibrationResult: [
        "threshold", "achieved_arl", "standard_error", "censored_fraction",
        "target_arl0", "replications", "evaluations",
    ],
    features.TraceFeatures: [
        "mean", "stddev", "median", "variance", "value_range", "max_value",
        "peak_count", "auc",
    ],
    pipeline.SweepPoint: [
        "patience", "window", "test_accuracy", "classified", "truncated", "short_class",
    ],
    pipeline.EvalReport: [
        "class_labels", "detection_rate", "fdr_per_fault", "fds_per_fault",
        "undetected", "total_runs", "far", "in_control_samples",
        "confusion_matrix", "overall_accuracy", "classified", "unclassified",
    ],
}


@pytest.mark.parametrize("record", list(FIELDS), ids=lambda r: r.__name__)
def test_record_field_order_is_pinned(record):
    assert [f.name for f in dataclasses.fields(record)] == FIELDS[record]


def test_serialized_orders_follow_the_fields():
    assert list(features.FEATURE_NAMES) == FIELDS[features.TraceFeatures]
    fault = simulate.FaultSpec("step", (2, 0), 5, magnitude=1.0)
    assert list(fault.to_dict()) == FIELDS[simulate.FaultSpec]
    result = calibrate.CalibrationResult(1.0, 2.0, 0.5, 0.0, 2.0, 10, 3)
    assert list(result.to_dict()) == FIELDS[calibrate.CalibrationResult]
    report = pipeline.EvalReport(
        [1], {1: 1.0}, {1: 0.5}, {1: 3.0}, {1: 0}, {1: 1}, 0.0, 10,
        np.ones((1, 1), dtype=int), 1.0, 1, {},
    )
    assert list(report.to_dict()) == FIELDS[pipeline.EvalReport]
