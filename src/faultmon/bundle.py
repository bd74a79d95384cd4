"""Versioned single-file persistence for trained monitoring models.

A bundle carries everything online monitoring needs: standardization
statistics, sorted references, detector configuration with its calibrated
threshold, the tangent-space base point, the classifier, and the timing
parameters. It is one JSON document, ``{"format_version": 2, "checksum":
..., "payload": {...}}``. Every float array of the payload is written as
``{"dtype": "<f8", "shape": [...], "base64": ...}``, its little-endian
float64 bytes in RFC 4648 base64, so it reads back bit for bit; scalars,
the class labels and the training summary stay plain JSON, the summary's
int fault-id keys read back as ints. The checksum is
the sha256 of the payload's canonical JSON (sorted keys, no spaces), so
silent truncation or editing is caught at load time, and the format
version makes files of another format fail loudly instead of misbehaving.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detector import MonitorConfig
from .errors import CorruptBundleError, DomainError, VersionMismatchError
from .spd import METRIC_AFFINE
from .standardize import ReferenceStats
from .svm import BinaryModel, MulticlassModel

__all__ = ["FORMAT_VERSION", "FEATURE_MODES", "ModelBundle", "save_bundle", "load_bundle"]

FORMAT_VERSION = 2
FEATURE_MODES = ("tangent", "raw")


def _check_model_options(feature_mode: str, patience: int) -> None:
    """The option checks shared by ``TrainConfig`` and :class:`ModelBundle`."""
    if feature_mode not in FEATURE_MODES:
        raise DomainError(
            f"feature_mode must be one of {FEATURE_MODES}, got {feature_mode!r}"
        )
    if patience < 0:
        raise DomainError(f"patience must be >= 0, got {patience}")


@dataclass
class ModelBundle:
    """Everything needed to monitor and classify a live process.

    Attributes:
        stats: Standardization statistics fitted on in-control data.
        references: Sorted standardized in-control references, one per
            stream.
        config: Detector parameters including the calibrated threshold.
        target_arl0: The in-control ARL the threshold was calibrated for.
        patience: Samples to wait after an alarm before classifying.
        window: Trailing window length (in samples) for the covariance.
        karcher_base: Tangent-space base point (affine-invariant
            geometric mean of the training covariances); identity-like for
            raw feature mode.
        classifier: Trained one-vs-one SVM over fault ids.
        feature_mode: ``tangent`` (manifold features) or ``raw``
            (vectorized covariance as-is).
        trace_features: Whether V(t) summary features are appended.
        training_summary: Free-form JSON-safe diagnostics from training.
    """

    stats: ReferenceStats
    references: list[np.ndarray]
    config: MonitorConfig
    target_arl0: float
    patience: int
    window: int
    karcher_base: np.ndarray
    classifier: MulticlassModel
    feature_mode: str = "tangent"
    trace_features: bool = False
    training_summary: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_model_options(self.feature_mode, self.patience)
        if self.window < 2:
            raise DomainError(f"window must be at least 2, got {self.window}")
        if len(self.references) != self.config.stream_count:
            raise CorruptBundleError(
                f"{len(self.references)} references for "
                f"{self.config.stream_count} streams"
            )


_FLOAT64 = "<f8"


def _encode_array(array) -> dict:
    """One float array as its little-endian float64 bytes in base64."""
    values = np.ascontiguousarray(array, dtype=_FLOAT64)
    return {
        "dtype": _FLOAT64,
        "shape": list(values.shape),
        "base64": base64.b64encode(values.tobytes()).decode("ascii"),
    }


def _decode_array(data: dict) -> np.ndarray:
    """The owned, writable, native float64 array that ``_encode_array`` wrote."""
    if data["dtype"] != _FLOAT64:
        raise CorruptBundleError(
            f"array dtype {data['dtype']!r} is not {_FLOAT64!r}"
        )
    shape = tuple(int(n) for n in data["shape"])
    raw = base64.b64decode(data["base64"], validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise CorruptBundleError(
            f"{len(raw)} bytes do not hold a float64 array of shape {shape}"
        )
    return np.frombuffer(raw, dtype=_FLOAT64).reshape(shape).astype(float)


def _binary_to_dict(model: BinaryModel) -> dict:
    return {
        "support_vectors": _encode_array(model.support_vectors),
        "dual_coefs": _encode_array(model.dual_coefs),
        "bias": model.bias,
        "gamma": model.gamma,
        "c_penalty": model.c_penalty,
    }


def _binary_from_dict(data: dict) -> BinaryModel:
    return BinaryModel(
        support_vectors=_decode_array(data["support_vectors"]),
        dual_coefs=_decode_array(data["dual_coefs"]),
        bias=float(data["bias"]),
        gamma=float(data["gamma"]),
        c_penalty=float(data["c_penalty"]),
    )


def _payload(bundle: ModelBundle) -> dict:
    return {
        "stats": {
            "means": _encode_array(bundle.stats.means),
            "stddevs": _encode_array(bundle.stats.stddevs),
        },
        "references": [_encode_array(ref) for ref in bundle.references],
        "config": {
            "allowance": bundle.config.allowance,
            "top_r": bundle.config.top_r,
            "stream_count": bundle.config.stream_count,
            "threshold": bundle.config.threshold,
        },
        "target_arl0": bundle.target_arl0,
        "patience": bundle.patience,
        "window": bundle.window,
        "karcher_base": _encode_array(bundle.karcher_base),
        "classifier": {
            "class_labels": bundle.classifier.class_labels.tolist(),
            "feature_means": _encode_array(bundle.classifier.feature_means),
            "feature_stds": _encode_array(bundle.classifier.feature_stds),
            "pairs": [
                {"label_a": a, "label_b": b, "model": _binary_to_dict(m)}
                for a, b, m in bundle.classifier.pairs
            ],
        },
        "feature_mode": bundle.feature_mode,
        "trace_features": bundle.trace_features,
        "metric": METRIC_AFFINE,
        # Through JSON and back, so that the checksum is taken over what a
        # reader parses: int keys become strings and sort as strings.
        "training_summary": json.loads(json.dumps(bundle.training_summary)),
    }


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write a bundle as checksummed, versioned JSON."""
    payload = _payload(bundle)
    document = {
        "format_version": FORMAT_VERSION,
        "checksum": _checksum(payload),
        "payload": payload,
    }
    Path(path).write_text(json.dumps(document, indent=1), encoding="utf-8")


def load_bundle(path) -> ModelBundle:
    """Read a bundle back; integrity and version are verified first.

    Raises:
        VersionMismatchError: Written by a different format version.
        CorruptBundleError: Unparseable JSON, failed checksum, or a
            payload that does not round-trip into a valid bundle.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptBundleError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or "payload" not in document:
        raise CorruptBundleError("bundle is missing its payload")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"bundle format {version!r} is not supported (expected {FORMAT_VERSION})"
        )
    payload = document["payload"]
    if _checksum(payload) != document.get("checksum"):
        raise CorruptBundleError("bundle checksum does not match its payload")
    try:
        if payload["metric"] != METRIC_AFFINE:
            raise CorruptBundleError(
                f"metric {payload['metric']!r} is not {METRIC_AFFINE!r}"
            )
        classifier = MulticlassModel(
            class_labels=np.asarray(payload["classifier"]["class_labels"], dtype=int),
            pairs=[
                (
                    int(p["label_a"]),
                    int(p["label_b"]),
                    _binary_from_dict(p["model"]),
                )
                for p in payload["classifier"]["pairs"]
            ],
            feature_means=_decode_array(payload["classifier"]["feature_means"]),
            feature_stds=_decode_array(payload["classifier"]["feature_stds"]),
        )
        # The summary as training made it: JSON wrote the fault ids keying
        # ``usable_runs_per_class`` as strings, and they are ints again.
        summary = payload.get("training_summary", {})
        if "usable_runs_per_class" in summary:
            counts = summary["usable_runs_per_class"].items()
            summary["usable_runs_per_class"] = {int(k): v for k, v in counts}
        return ModelBundle(
            stats=ReferenceStats(
                means=_decode_array(payload["stats"]["means"]),
                stddevs=_decode_array(payload["stats"]["stddevs"]),
            ),
            references=[_decode_array(r) for r in payload["references"]],
            config=MonitorConfig(
                allowance=float(payload["config"]["allowance"]),
                top_r=int(payload["config"]["top_r"]),
                stream_count=int(payload["config"]["stream_count"]),
                threshold=float(payload["config"]["threshold"]),
            ),
            target_arl0=float(payload["target_arl0"]),
            patience=int(payload["patience"]),
            window=int(payload["window"]),
            karcher_base=_decode_array(payload["karcher_base"]),
            classifier=classifier,
            feature_mode=payload["feature_mode"],
            trace_features=bool(payload["trace_features"]),
            training_summary=summary,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptBundleError(f"bundle payload is malformed: {exc}") from exc
