"""The public surface of faultmon, pinned name by name.

Adding or removing a public name must change this file, so that every
change to the surface is a deliberate one.
"""

import importlib
import inspect

import pytest

import faultmon
from faultmon import errors

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
