"""Synthetic multi-stream process generator with labeled fault injection.

Streams are independent draws from named marginal distributions, produced
by inverse-CDF sampling from counter-based uniform generators. Each
(seed, run, stream) triple owns its own Philox keystream, which makes any
sample window addressable: ``generate`` and the calibration sources can
materialize samples t0..t1 of any run without generating what came before,
and two runs never share randomness.

Faults perturb the raw-scale samples from a 0-based onset index onward;
labels are 0 while in control and the fault id from the onset on.

Runs are stored as headed CSV files. ``_read_csv`` loads them, their
``t,fault_id`` label files and the CLI's sample files and stdin.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .errors import (
    BadSpecError,
    DimensionMismatchError,
    EmptyInputError,
    FaultMonError,
    LabelMismatchError,
)

__all__ = [
    "StreamSpec",
    "ProcessSpec",
    "FaultSpec",
    "Run",
    "Benchmark",
    "generate",
    "generate_in_control",
    "in_control_source",
    "default_process_spec",
    "default_fault_specs",
    "make_benchmark",
    "write_run_csv",
    "read_run_csv",
    "write_corpus",
    "read_corpus",
]

FAULT_KINDS = ("step", "random_variation", "slow_drift", "sticking")

# Uniform draws are clamped away from 0 before inverse CDFs that diverge
# there (normal, student-t quantiles).
_U_FLOOR = 1e-300


# Parameter names of each stream kind, in (p1, p2) order.
_STREAM_PARAMS = {
    "normal": ("mu", "sigma"),
    "uniform": ("low", "high"),
    "exponential": ("rate",),
    "student_t": ("dof",),
    "lognormal": ("mu", "sigma"),
}


@dataclass(frozen=True)
class StreamSpec:
    """Marginal distribution of one stream.

    ``p1``/``p2`` are the kind's parameters in the order of
    ``_STREAM_PARAMS``; the named constructors spell them out.
    """

    kind: str
    p1: float = 0.0
    p2: float = 1.0

    @staticmethod
    def normal(mu: float, sigma: float) -> "StreamSpec":
        return StreamSpec("normal", mu, sigma)

    @staticmethod
    def uniform(low: float, high: float) -> "StreamSpec":
        return StreamSpec("uniform", low, high)

    @staticmethod
    def exponential(rate: float) -> "StreamSpec":
        return StreamSpec("exponential", rate)

    @staticmethod
    def student_t(dof: float) -> "StreamSpec":
        return StreamSpec("student_t", dof)

    @staticmethod
    def lognormal(mu: float, sigma: float) -> "StreamSpec":
        return StreamSpec("lognormal", mu, sigma)

    def __post_init__(self):
        kind, p1, p2 = self.kind, self.p1, self.p2
        if kind not in _STREAM_PARAMS:
            raise BadSpecError(f"unknown stream kind {kind!r}")
        if kind in ("normal", "lognormal") and not p2 > 0:
            raise BadSpecError(f"{kind} sigma must be positive, got {p2}")
        if kind == "uniform" and not p2 > p1:
            raise BadSpecError(f"uniform needs high > low, got [{p1}, {p2}]")
        if kind == "exponential" and not p1 > 0:
            raise BadSpecError(f"exponential rate must be positive, got {p1}")
        if kind == "student_t" and not p1 > 2:
            raise BadSpecError(
                f"student_t needs dof > 2 for a finite variance, got {p1}"
            )

    def mean(self) -> float:
        if self.kind == "normal":
            return self.p1
        if self.kind == "uniform":
            return 0.5 * (self.p1 + self.p2)
        if self.kind == "exponential":
            return 1.0 / self.p1
        if self.kind == "student_t":
            return 0.0
        return math.exp(self.p1 + 0.5 * self.p2**2)

    def stddev(self) -> float:
        if self.kind == "normal":
            return self.p2
        if self.kind == "uniform":
            return (self.p2 - self.p1) / math.sqrt(12.0)
        if self.kind == "exponential":
            return 1.0 / self.p1
        if self.kind == "student_t":
            return math.sqrt(self.p1 / (self.p1 - 2.0))
        return self.mean() * math.sqrt(math.exp(self.p2**2) - 1.0)

    def transform(self, uniforms: np.ndarray) -> np.ndarray:
        """Map uniform(0, 1) draws through this distribution's quantile."""
        u = np.asarray(uniforms, dtype=float)
        if self.kind == "normal":
            return self.p1 + self.p2 * special.ndtri(np.maximum(u, _U_FLOOR))
        if self.kind == "uniform":
            return self.p1 + (self.p2 - self.p1) * u
        if self.kind == "exponential":
            return -np.log1p(-u) / self.p1
        if self.kind == "student_t":
            return special.stdtrit(self.p1, np.maximum(u, _U_FLOOR))
        return np.exp(self.p1 + self.p2 * special.ndtri(np.maximum(u, _U_FLOOR)))

    def to_dict(self) -> dict:
        params = zip(_STREAM_PARAMS[self.kind], (self.p1, self.p2))
        return {"kind": self.kind, **dict(params)}

    @staticmethod
    def from_dict(data: dict) -> "StreamSpec":
        try:
            kind = data["kind"]
            params = [data[name] for name in _STREAM_PARAMS.get(kind, ())]
        except KeyError as exc:
            raise BadSpecError(f"stream spec is missing field {exc}") from exc
        return StreamSpec(kind, *params)


@dataclass(frozen=True)
class ProcessSpec:
    """An in-control process: independent streams plus a master seed."""

    streams: tuple[StreamSpec, ...]
    seed: int = 0

    def __post_init__(self):
        if len(self.streams) == 0:
            raise BadSpecError("a process needs at least one stream")
        object.__setattr__(self, "streams", tuple(self.streams))

    @property
    def stream_count(self) -> int:
        return len(self.streams)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "streams": [s.to_dict() for s in self.streams],
        }

    @staticmethod
    def from_dict(data: dict) -> "ProcessSpec":
        try:
            streams = tuple(StreamSpec.from_dict(d) for d in data["streams"])
            return ProcessSpec(streams=streams, seed=int(data.get("seed", 0)))
        except (KeyError, TypeError) as exc:
            raise BadSpecError(f"bad process spec: {exc}") from exc


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    Attributes:
        kind: One of ``step``, ``random_variation``, ``slow_drift``,
            ``sticking``.
        affected_streams: Stream indices the fault perturbs.
        onset: 0-based sample index at which the fault begins (>= 1 so
            every run has an in-control prefix).
        magnitude: Step size in stream standard deviations, or the
            fractional deviation inflation for ``random_variation``.
        drift_rate: Drift slope in stream standard deviations per 1000
            samples (``slow_drift`` only).
        fault_id: Positive integer label for this fault class.
    """

    kind: str
    affected_streams: tuple[int, ...]
    onset: int
    magnitude: float = 0.0
    drift_rate: float = 0.0
    fault_id: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise BadSpecError(f"unknown fault kind {self.kind!r}")
        streams = tuple(int(i) for i in self.affected_streams)
        if len(streams) == 0:
            raise BadSpecError("fault must affect at least one stream")
        if any(i < 0 for i in streams):
            raise BadSpecError("stream indices must be non-negative")
        if len(set(streams)) != len(streams):
            raise BadSpecError(f"duplicate stream indices in {streams}")
        if self.onset < 1:
            raise BadSpecError(f"onset must be at least 1, got {self.onset}")
        if self.fault_id < 1:
            raise BadSpecError(f"fault_id must be positive, got {self.fault_id}")
        if self.kind == "step" and self.magnitude == 0.0:
            raise BadSpecError("step fault needs a non-zero magnitude")
        if self.kind == "random_variation" and not self.magnitude > -1.0:
            raise BadSpecError(
                "random_variation magnitude must exceed -1 (scale stays positive)"
            )
        if self.kind == "slow_drift" and self.drift_rate == 0.0:
            raise BadSpecError("slow_drift fault needs a non-zero drift_rate")
        object.__setattr__(self, "affected_streams", streams)

    def to_dict(self) -> dict:
        return {**asdict(self), "affected_streams": list(self.affected_streams)}

    @staticmethod
    def from_dict(data: dict) -> "FaultSpec":
        try:
            return FaultSpec(
                kind=data["kind"],
                affected_streams=tuple(data["affected_streams"]),
                onset=int(data["onset"]),
                magnitude=float(data.get("magnitude", 0.0)),
                drift_rate=float(data.get("drift_rate", 0.0)),
                fault_id=int(data.get("fault_id", 1)),
            )
        except (KeyError, TypeError) as exc:
            raise BadSpecError(f"bad fault spec: {exc}") from exc


def _uniforms(seed: int, spawn_key: tuple, start: int, count: int) -> np.ndarray:
    """Draws ``start .. start + count - 1`` of the uniform keystream ``spawn_key``."""
    bit_gen = np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    )
    # Philox advances one 256-bit block per counter tick, i.e. 4 doubles,
    # so positioning inside a block discards the leading draws. A fresh
    # generator already stands at block 0, so a draw from there skips the
    # call.
    if start >= 4:
        bit_gen.advance(start // 4)
    discard = start % 4
    rng = np.random.Generator(bit_gen)
    return rng.random(discard + count)[discard:]


def _raw_samples(spec: ProcessSpec, run: int, start: int, count: int) -> np.ndarray:
    columns = [
        stream.transform(_uniforms(spec.seed, (run, i), start, count))
        for i, stream in enumerate(spec.streams)
    ]
    return np.column_stack(columns)


def _inject(out: np.ndarray, spec: ProcessSpec, fault: FaultSpec) -> None:
    """Perturbs the fresh run ``out`` in place from the fault's onset on."""
    n = out.shape[0]
    onset = fault.onset
    t_rel = np.arange(n - onset, dtype=float)
    for idx in fault.affected_streams:
        if idx >= spec.stream_count:
            raise BadSpecError(
                f"fault stream {idx} out of range for {spec.stream_count} streams"
            )
        stream = spec.streams[idx]
        sd = stream.stddev()
        if fault.kind == "step":
            out[onset:, idx] += fault.magnitude * sd
        elif fault.kind == "random_variation":
            center = stream.mean()
            out[onset:, idx] = center + (1.0 + fault.magnitude) * (
                out[onset:, idx] - center
            )
        elif fault.kind == "slow_drift":
            out[onset:, idx] += fault.drift_rate * sd * t_rel / 1000.0
        else:  # sticking: the sensor freezes at its onset reading
            out[onset:, idx] = out[onset, idx]


def generate(
    spec: ProcessSpec,
    fault: FaultSpec | None,
    n_samples: int,
    run: int = 0,
):
    """Generate one labeled run.

    Args:
        spec: Process description.
        fault: Fault to inject, or ``None`` for an in-control run.
        n_samples: Run length.
        run: Run index; distinct indices give independent runs under the
            same seed.

    Returns:
        ``(data, labels)`` with ``data`` of shape ``(n_samples, p)`` and
        integer ``labels`` of shape ``(n_samples,)``: 0 before the onset,
        the fault id from the onset on.
    """
    if n_samples < 1:
        raise EmptyInputError(f"n_samples must be positive, got {n_samples}")
    data = _raw_samples(spec, run, 0, n_samples)
    labels = np.zeros(n_samples, dtype=int)
    if fault is not None:
        if fault.onset >= n_samples:
            raise BadSpecError(
                f"onset {fault.onset} is beyond the run length {n_samples}"
            )
        _inject(data, spec, fault)
        labels[fault.onset:] = fault.fault_id
    return data, labels


def generate_in_control(spec: ProcessSpec, n_samples: int, run: int = 0) -> np.ndarray:
    """In-control samples only (no labels)."""
    data, _ = generate(spec, None, n_samples, run=run)
    return data


def in_control_source(spec: ProcessSpec, *, run_offset: int = 0):
    """Raw-scale calibration source backed by this process.

    Replication r maps to run ``run_offset + r``; keep ``run_offset``
    clear of run indices used for training data so calibration draws stay
    independent of everything else.
    """

    def source(replication: int, start: int, count: int) -> np.ndarray:
        return _raw_samples(spec, run_offset + replication, start, count)

    return source


@dataclass
class Run:
    """One labeled run of process data."""

    data: np.ndarray
    labels: np.ndarray
    run_id: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim == 1:
            self.data = self.data[:, np.newaxis]
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.shape != (self.data.shape[0],):
            raise LabelMismatchError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.data.shape[0]} samples"
            )
        nonzero = np.unique(self.labels[self.labels != 0])
        if nonzero.size > 1:
            raise LabelMismatchError(
                f"run {self.run_id!r} mixes fault ids {nonzero.tolist()}"
            )
        if (self.labels < 0).any():
            raise LabelMismatchError("labels must be non-negative")
        if nonzero.size == 1:
            onset = int(np.argmax(self.labels != 0))
            if not (self.labels[onset:] != 0).all():
                raise LabelMismatchError(
                    f"run {self.run_id!r} has a gap in its fault labels"
                )

    @property
    def fault_id(self) -> int:
        """0 for an in-control run, else the injected fault id."""
        nonzero = self.labels[self.labels != 0]
        return int(nonzero[0]) if nonzero.size else 0

    @property
    def onset(self) -> int | None:
        """0-based index of the first faulty sample, or None."""
        if self.fault_id == 0:
            return None
        return int(np.argmax(self.labels != 0))


@dataclass
class Benchmark:
    """A full labeled corpus for end-to-end evaluation."""

    process: ProcessSpec
    in_control: np.ndarray
    train_runs: list[Run]
    test_runs: list[Run]
    in_control_runs: list[Run]
    fault_specs: dict[int, FaultSpec] = field(default_factory=dict)


def default_process_spec(seed: int = 0) -> ProcessSpec:
    """Twenty streams mixing five marginal families."""
    streams = (
        StreamSpec.normal(0.0, 1.0),
        StreamSpec.normal(5.0, 2.0),
        StreamSpec.normal(-3.0, 0.5),
        StreamSpec.normal(10.0, 3.0),
        StreamSpec.normal(1.0, 1.5),
        StreamSpec.normal(0.0, 0.25),
        StreamSpec.uniform(-1.0, 1.0),
        StreamSpec.uniform(0.0, 10.0),
        StreamSpec.uniform(-5.0, 5.0),
        StreamSpec.uniform(2.0, 4.0),
        StreamSpec.exponential(1.0),
        StreamSpec.exponential(0.5),
        StreamSpec.exponential(2.0),
        StreamSpec.student_t(2.05),
        StreamSpec.student_t(2.15),
        StreamSpec.student_t(2.3),
        StreamSpec.lognormal(0.0, 1.0),
        StreamSpec.lognormal(0.0, 1.2),
        StreamSpec.lognormal(1.0, 0.8),
        StreamSpec.lognormal(0.5, 1.0),
    )
    return ProcessSpec(streams=streams, seed=seed)


def default_fault_specs(onset: int = 500) -> dict[int, FaultSpec]:
    """Five fault classes of graded difficulty on the default process."""
    return {
        1: FaultSpec("step", (3,), onset, magnitude=2.0, fault_id=1),
        2: FaultSpec("random_variation", (13,), onset, magnitude=1.0, fault_id=2),
        3: FaultSpec("slow_drift", (12,), onset, drift_rate=5.0, fault_id=3),
        4: FaultSpec("sticking", (17,), onset, fault_id=4),
        5: FaultSpec("step", (2, 9, 11), onset, magnitude=1.2, fault_id=5),
    }


# Run-index blocks keep randomness disjoint between corpus parts; faulty
# runs use fault_id * _RUN_BLOCK + j.
_RUN_BLOCK = 1000
_IN_CONTROL_POOL_RUN = 900_000
_IN_CONTROL_EVAL_BASE = 950_000
CALIBRATION_RUN_OFFSET = 100_000


def make_benchmark(
    seed: int = 0,
    *,
    runs_per_class: int = 60,
    run_length: int = 3500,
    onset: int = 500,
    train_fraction: float = 0.8,
    in_control_samples: int = 6000,
    in_control_eval_runs: int = 5,
    in_control_eval_length: int = 2000,
) -> Benchmark:
    """Build the standard labeled corpus for one seed.

    Five fault classes, ``runs_per_class`` runs each, split per class into
    train/test by ``train_fraction``; a pooled in-control matrix for
    fitting references; and held-out in-control runs for false-alarm
    measurement.
    """
    if not 0.0 < train_fraction < 1.0:
        raise BadSpecError(f"train_fraction must be in (0, 1), got {train_fraction}")
    process = default_process_spec(seed)
    faults = default_fault_specs(onset)
    train_runs: list[Run] = []
    test_runs: list[Run] = []
    n_train = int(round(train_fraction * runs_per_class))
    for fault_id, fault in faults.items():
        for j in range(runs_per_class):
            data, labels = generate(
                process, fault, run_length, run=fault_id * _RUN_BLOCK + j
            )
            run = Run(data=data, labels=labels, run_id=f"fault{fault_id}-run{j:03d}")
            (train_runs if j < n_train else test_runs).append(run)
    in_control = generate_in_control(
        process, in_control_samples, run=_IN_CONTROL_POOL_RUN
    )
    in_control_runs = [
        Run(
            data=generate_in_control(
                process, in_control_eval_length, run=_IN_CONTROL_EVAL_BASE + j
            ),
            labels=np.zeros(in_control_eval_length, dtype=int),
            run_id=f"incontrol-run{j:03d}",
        )
        for j in range(in_control_eval_runs)
    ]
    return Benchmark(
        process=process,
        in_control=in_control,
        train_runs=train_runs,
        test_runs=test_runs,
        in_control_runs=in_control_runs,
        fault_specs=faults,
    )


def write_run_csv(path, data: np.ndarray, labels: np.ndarray | None = None) -> None:
    """Write one run as CSV; labels go to ``<stem>_labels.csv``."""
    path = Path(path)
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError("run data must be 2-D")
    header = ",".join(f"s{i}" for i in range(arr.shape[1]))
    np.savetxt(path, arr, delimiter=",", header=header, comments="", fmt="%.17g")
    if labels is not None:
        lab = np.asarray(labels, dtype=int)
        if lab.shape != (arr.shape[0],):
            raise LabelMismatchError("labels length does not match the data")
        rows = np.column_stack([np.arange(lab.size), lab])
        np.savetxt(
            path.with_name(path.stem + "_labels.csv"),
            rows,
            delimiter=",",
            header="t,fault_id",
            comments="",
            fmt="%d",
        )


def _read_csv(source, name: str, dtype=float) -> np.ndarray:
    """Rows after the header of a CSV path or text stream, as a 2-D array.

    A row that does not parse raises ``FaultMonError``, and a CSV with no
    rows raises ``EmptyInputError``.
    """
    try:
        with warnings.catch_warnings():
            # loadtxt warns instead of raising when the file has no data rows
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(source, delimiter=",", skiprows=1, dtype=dtype, ndmin=2)
    except ValueError as exc:
        raise FaultMonError(f"could not parse samples from {name}: {exc}") from exc
    if rows.size == 0:
        raise EmptyInputError(f"no sample rows in {name}")
    return rows


def read_run_csv(path) -> Run:
    """Read one run; picks up ``<stem>_labels.csv`` when present."""
    path = Path(path)
    data = _read_csv(path, str(path))
    n = data.shape[0]
    labels = np.zeros(n, dtype=int)
    labels_path = path.with_name(path.stem + "_labels.csv")
    if labels_path.exists():
        rows = _read_csv(labels_path, str(labels_path), dtype=int)
        if rows.shape[1] != 2 or not ((rows[:, 0] >= 0) & (rows[:, 0] < n)).all():
            raise LabelMismatchError(
                f"{labels_path}: each row must be t,fault_id with 0 <= t < {n}"
            )
        labels[rows[:, 0]] = rows[:, 1]
    return Run(data=data, labels=labels, run_id=path.stem)


def write_corpus(directory, runs) -> None:
    """Write runs into a directory, one CSV pair per run."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for run in runs:
        name = re.sub(r"[^A-Za-z0-9._-]", "_", run.run_id) or "run"
        write_run_csv(directory / f"{name}.csv", run.data, run.labels)


def read_corpus(directory) -> list[Run]:
    """Read every run CSV in a directory (sorted by file name)."""
    directory = Path(directory)
    paths = sorted(
        p for p in directory.glob("*.csv") if not p.stem.endswith("_labels")
    )
    if not paths:
        raise EmptyInputError(f"no run CSVs found in {directory}")
    return [read_run_csv(p) for p in paths]
