"""Corpus serialization and a synthetic correlated-corpus generator.

On-disk layout: a directory holding manifest.json, a schema file listing
one feature name per line, and one headered CSV per recording (one row
per time step, one column per feature). The manifest is the single
source of recording identity; nothing is parsed out of filenames.

Each cell is the Python repr of a float64 and each row ends in CRLF;
the header is written by csv.writer, so a name holding a comma or a
quote is quoted by CSV rules. These are the bytes csv.writer gives for
the whole file. Load reads every cell with float(), and repr is
guaranteed to round-trip, so write followed by load reproduces a corpus
bit for bit, the sign of zero included.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import itertools
import json
import logging
import math
import numbers
import os
from dataclasses import dataclass
from typing import Mapping, NoReturn

import numpy as np

from privseq.core import (
    Corpus,
    DataError,
    FeatureMatrix,
    InternalInvariantError,
    MechanismReport,
    ParameterError,
    _csv_rows,
    _input_file,
    _integer,
)
from privseq.noise import NoiseSource

__all__ = [
    "RecordingEntry",
    "CorpusManifest",
    "SynthSpec",
    "read_manifest",
    "load_corpus",
    "write_corpus",
    "synth_corpus",
    "MANIFEST_NAME",
    "SCHEMA_NAME",
    "REPORT_NAME",
]

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
SCHEMA_NAME = "schema.txt"
REPORT_NAME = "report.json"


def _is_plain_file_name(name: str) -> bool:
    """A name that stays inside its directory: no separator, drive or NUL,
    and not . or .."""
    seps = {"/", os.sep, os.altsep, "\0"} - {None}
    return (
        name not in ("", ".", "..")
        and not any(c in name for c in seps)
        and not os.path.splitdrive(name)[0]
    )


@dataclass(frozen=True, slots=True)
class RecordingEntry:
    """Manifest row: where one recording lives and who it belongs to.

    trim, when present, keeps only rows [start, end) of the stored CSV,
    for replicating evaluations that skip part of a recording; both
    bounds must be integers (not bools). file_path, recording_id and
    participant_id are non-empty strings, labels maps strings to
    strings, and recording_id is a plain file name: write_corpus stores
    the recording as <recording_id>.csv.
    """

    file_path: str
    recording_id: str
    participant_id: str
    labels: Mapping[str, str]
    trim: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        for name in ("file_path", "recording_id", "participant_id"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ParameterError(f"manifest entry needs a {name} string, got {value!r}")
        if not _is_plain_file_name(self.recording_id):
            raise ParameterError(f"recording id {self.recording_id!r} is not a plain file name")
        labels = dict(self.labels)
        if not all(isinstance(v, str) for v in (*labels, *labels.values())):
            raise ParameterError(f"labels must map strings to strings, got {labels!r}")
        object.__setattr__(self, "labels", labels)
        if self.trim is not None:
            if len(self.trim) != 2:
                raise ParameterError(f"trim must be [start, end], got {list(self.trim)}")
            start, end = (_integer("a trim bound", b) for b in self.trim)
            if start < 0 or end <= start:
                raise ParameterError(f"trim range [{start}, {end}) is empty or negative")
            object.__setattr__(self, "trim", (start, end))


@dataclass(frozen=True, slots=True)
class CorpusManifest:
    """Recording inventory plus schema location and time-step metadata
    (step_seconds, a number, not a bool); which features are excluded,
    Corpus derives from the data."""

    recordings: tuple[RecordingEntry, ...]
    schema_path: str
    step_seconds: float = 1.0
    base_dir: str = "."

    def __post_init__(self) -> None:
        object.__setattr__(self, "recordings", tuple(self.recordings))
        if not isinstance(self.schema_path, str) or not self.schema_path:
            raise ParameterError(f"manifest needs a schema path, got {self.schema_path!r}")
        step = self.step_seconds
        if isinstance(step, bool) or not isinstance(step, numbers.Real):
            raise ParameterError(f"step_seconds must be a number, got {step!r}")
        if not (math.isfinite(step) and step > 0):
            raise ParameterError(f"step_seconds must be positive and finite, got {step}")
        object.__setattr__(self, "step_seconds", float(step))
        ids = [r.recording_id for r in self.recordings]
        if len(set(ids)) != len(ids):
            raise ParameterError("duplicate recording ids in manifest")
        kinds = None
        for r in self.recordings:
            have = frozenset(r.labels)
            if kinds is None:
                kinds = have
            elif have != kinds:
                raise ParameterError(
                    f"recording {r.recording_id!r} has label kinds {sorted(have)}, "
                    f"others have {sorted(kinds)}"
                )


def read_manifest(path) -> CorpusManifest:
    """Parse manifest.json; relative paths stay relative to its directory.
    Keys it does not read, such as an older excluded_features, are ignored;
    each field it reads must hold a JSON value of its own type (see
    RecordingEntry and CorpusManifest)."""
    path = os.fspath(path)
    with _input_file(path, "manifest") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    try:
        entries = []
        for rec in raw["recordings"]:
            trim = rec.get("trim")
            entries.append(
                RecordingEntry(
                    file_path=rec["path"],
                    recording_id=rec["recording_id"],
                    participant_id=rec["participant_id"],
                    labels=rec["labels"],
                    trim=None if trim is None else tuple(trim),
                )
            )
        manifest = CorpusManifest(
            recordings=tuple(entries),
            schema_path=raw["schema"],
            step_seconds=raw.get("step_seconds", 1.0),
            base_dir=os.path.dirname(path) or ".",
        )
    except (AttributeError, KeyError, TypeError, ValueError, ParameterError) as exc:
        key = f" (missing key {exc})" if isinstance(exc, KeyError) else f": {exc}"
        raise DataError(f"{path}: malformed manifest{key}") from None
    return manifest


def _read_schema(path: str) -> tuple[str, ...]:
    with _input_file(path, "schema file") as fh:
        names = [line.strip() for line in fh if line.strip()]
    if not names:
        raise DataError(f"{path}: schema file lists no features")
    return tuple(names)


def _raise_first_bad_row(path: str, schema: tuple[str, ...], body: list[list[str]]) -> NoReturn:
    """Raise DataError for the first row, in file order, that has the
    wrong number of cells or a cell float() rejects."""
    for row_no, row in enumerate(body, start=2):
        if len(row) != len(schema):
            raise DataError(
                f"{path}: row {row_no}: expected {len(schema)} columns, got {len(row)}"
            ) from None
        for col, cell in zip(schema, row):
            try:
                float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {row_no}: column {col!r}: not a number: {cell!r}"
                ) from None
    raise InternalInvariantError(f"{path}: the fast parse failed on rows that all read")


def _load_one(entry: RecordingEntry, schema: tuple[str, ...], base: str) -> FeatureMatrix:
    path = os.path.join(base, entry.file_path)
    with _csv_rows(path, schema, "recording file") as rows:
        body = list(rows)
    if not body:
        raise DataError(f"{path}: no data rows")
    # every cell through one float() map; on any failure the row scan
    # names the first bad row
    width = len(schema)
    try:
        if any(len(row) != width for row in body):
            raise ValueError("rows of unequal width")
        values = np.fromiter(
            map(float, itertools.chain.from_iterable(body)),
            dtype=np.float64,
            count=len(body) * width,
        ).reshape(len(body), width)
    except ValueError:
        _raise_first_bad_row(path, schema, body)
    if entry.trim is not None:
        start, end = entry.trim
        if end > values.shape[0]:
            raise DataError(
                f"{path}: trim [{start}, {end}) exceeds {values.shape[0]} rows"
            )
        values = values[start:end]
    try:
        return FeatureMatrix(
            recording_id=entry.recording_id,
            participant_id=entry.participant_id,
            labels=entry.labels,
            feature_names=schema,
            values=values,
        )
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_corpus(manifest, jobs: int = 1) -> Corpus:
    """Assemble a Corpus from a manifest (object or path to one).

    Features that are zero everywhere in the loaded recordings are the
    corpus's excluded_features, each logged with a notice; downstream
    sensitivity and utility aggregation skip them.
    """
    if not isinstance(manifest, CorpusManifest):
        manifest = read_manifest(manifest)
    schema = _read_schema(os.path.join(manifest.base_dir, manifest.schema_path))
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(manifest.recordings) <= 1:
        matrices = [_load_one(e, schema, manifest.base_dir) for e in manifest.recordings]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            matrices = list(
                pool.map(lambda e: _load_one(e, schema, manifest.base_dir), manifest.recordings)
            )
    corpus = Corpus(matrices=tuple(matrices), schema=schema)
    for feature in schema:
        if feature in corpus.excluded_features:
            logger.info(
                "feature %r is zero everywhere; excluding it from sensitivity "
                "and utility aggregation",
                feature,
            )
    return corpus


def _listed_recordings(manifest_path: str) -> set[str]:
    """The recording file names an existing manifest lists, keeping only
    plain file names, so that removing them cannot leave its directory;
    an absent or unreadable manifest lists none."""
    try:
        with _input_file(manifest_path, "manifest") as fh:
            raw = json.load(fh)
    except ValueError:  # a DataError, or not JSON
        return set()
    recordings = raw.get("recordings") if isinstance(raw, dict) else None
    if not isinstance(recordings, list):
        return set()
    paths = (r.get("path") for r in recordings if isinstance(r, dict))
    return {p for p in paths if isinstance(p, str) and _is_plain_file_name(p)}


def write_corpus(
    corpus: Corpus,
    out_dir,
    step_seconds: float = 1.0,
    reports: Mapping[str, MechanismReport] | None = None,
) -> CorpusManifest:
    """Write manifest, schema, and one CSV per recording into out_dir.

    The header goes through csv.writer; each data row is formatted in
    one pass as repr floats joined by commas and ended by CRLF, which
    are the bytes csv.writer would write, since a float repr never needs
    quoting. A later load reproduces the corpus exactly. When reports
    are given (one per label group), a sibling report.json is written
    alongside the data; otherwise any report.json already in out_dir is
    removed. Recordings that a manifest.json already in out_dir lists
    and the new one does not are removed first, plain file names only
    (see _listed_recordings). A feature name that schema.txt cannot carry
    (empty, with leading or trailing whitespace, or holding a line
    break), a manifest that CorpusManifest rejects (a recording id that
    is not a plain file name, two recordings with one id, a step_seconds
    that is not positive and finite), or an out_dir that is not empty and
    holds no manifest.json raises ParameterError before anything is
    created or removed.
    """
    for name in corpus.schema:
        if not name or name != name.strip() or "\n" in name or "\r" in name:
            raise ParameterError(
                f"feature name {name!r} cannot be stored in {SCHEMA_NAME}: a name must be "
                "non-empty, without leading or trailing whitespace or line breaks"
            )
    out_dir = os.fspath(out_dir)
    manifest = CorpusManifest(
        recordings=tuple(
            RecordingEntry(f"{m.recording_id}.csv", m.recording_id, m.participant_id, m.labels)
            for m in corpus.matrices
        ),
        schema_path=SCHEMA_NAME,
        step_seconds=step_seconds,
        base_dir=out_dir,
    )
    # no manifest can vouch for the files of such a directory, which
    # would sit next to the new one as if they belonged to the corpus
    if (
        os.path.isdir(out_dir) and os.listdir(out_dir)
        and not os.path.isfile(os.path.join(out_dir, MANIFEST_NAME))
    ):
        raise ParameterError(f"{out_dir} is not empty and holds no {MANIFEST_NAME}")
    os.makedirs(out_dir, exist_ok=True)
    # an earlier write's recordings would sit next to the new manifest as
    # if they belonged to the corpus it describes
    stale = _listed_recordings(os.path.join(out_dir, MANIFEST_NAME))
    for name in stale - {e.file_path for e in manifest.recordings}:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    with open(os.path.join(out_dir, SCHEMA_NAME), "w", encoding="utf-8") as fh:
        for name in corpus.schema:
            fh.write(name + "\n")
    row_format = ",".join(["%r"] * len(corpus.schema)) + "\r\n"
    for m, e in zip(corpus.matrices, manifest.recordings):
        with open(os.path.join(out_dir, e.file_path), "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(corpus.schema)
            fh.write(row_format * m.length % tuple(m.values.ravel().tolist()))
    payload = {
        "schema": manifest.schema_path,
        "step_seconds": manifest.step_seconds,
        "recordings": [
            {
                "path": e.file_path,
                "recording_id": e.recording_id,
                "participant_id": e.participant_id,
                "labels": dict(sorted(e.labels.items())),
            }
            for e in manifest.recordings
        ],
    }
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report_path = os.path.join(out_dir, REPORT_NAME)
    if reports is None:
        # a report left by an earlier release would claim a budget for
        # recordings it does not describe
        with contextlib.suppress(FileNotFoundError):
            os.remove(report_path)
    else:
        merged = {label: r.payload() for label, r in reports.items()}
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return manifest


# Signals that synth_corpus advances together, one AR(1) time step at a
# time. A block holds whole recordings, at least one, so its time-major
# buffer (length x block signals, reused across blocks) holds
# max(SYNTH_BLOCK, features) signals at most.
SYNTH_BLOCK = 128


@dataclass(frozen=True, slots=True)
class SynthSpec:
    """Parameters of the synthetic correlated corpus.

    Per (participant, label, recording, feature) an order-1
    autoregressive signal is generated around the label's mean offset:
    x[0] = offset + sd*z[0], then x[t] = offset + rho*(x[t-1] - offset) +
    sd*sqrt(1 - rho^2)*z[t], which keeps the marginal variance sd^2 at
    every t and gives lag-d autocorrelation rho^d. z is the signal's own
    standard-normal stream (see synth_corpus); every expression is
    evaluated left to right in float64, and the output equals that
    per-sample definition byte for byte. noise_sd and the offsets must
    be finite; a spec whose signals still overflow float64 fails when
    its recordings are built.
    """

    participants: int
    recordings_per_label: int
    labels: tuple[str, ...]
    length: int
    features: int
    ar_coefficient: float
    offsets: tuple[float, ...]
    noise_sd: float
    seed: int

    def __post_init__(self) -> None:
        for name in ("participants", "recordings_per_label", "length", "features", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.participants < 1:
            raise ParameterError(f"participants must be >= 1, got {self.participants}")
        if self.recordings_per_label < 1:
            raise ParameterError(
                f"recordings_per_label must be >= 1, got {self.recordings_per_label}"
            )
        labels = tuple(str(v) for v in self.labels)
        if not labels or len(set(labels)) != len(labels):
            raise ParameterError("labels must be non-empty and unique")
        if self.length < 1:
            raise ParameterError(f"length must be >= 1, got {self.length}")
        if self.features < 1:
            raise ParameterError(f"features must be >= 1, got {self.features}")
        if not 0.0 <= self.ar_coefficient < 1.0:
            raise ParameterError(
                f"ar_coefficient must be in [0, 1), got {self.ar_coefficient}"
            )
        offsets = tuple(float(v) for v in self.offsets)
        if len(offsets) != len(labels):
            raise ParameterError(
                f"{len(offsets)} offsets for {len(labels)} labels"
            )
        for label, offset in zip(labels, offsets):
            if not math.isfinite(offset):
                raise ParameterError(f"offsets must be finite, got {offset} for label {label!r}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd > 0):
            raise ParameterError(f"noise_sd must be positive and finite, got {self.noise_sd}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "offsets", offsets)


def synth_corpus(spec: SynthSpec) -> Corpus:
    """Deterministic synthetic corpus, in generation order.

    Recordings come participant by participant, then label by label,
    then recording by recording, with id p{participant:02d}_{label}_r{recording}.
    Feature f of a recording is the AR(1) signal of SynthSpec over
    spec.length draws of root.derive(participant, label index,
    recording, f).generator().standard_normal, root = NoiseSource(seed).

    Blocks of whole recordings (at most SYNTH_BLOCK signals, or one
    recording when it has more features) are advanced one time step at
    a time, each step one array operation per term of the scalar
    recurrence, in its order. Numpy rounds each elementwise operation
    exactly as the scalar one and fuses none, so the corpus equals the
    per-sample definition byte for byte.
    """
    root = NoiseSource(spec.seed)
    width = spec.features
    schema = tuple(f"f{j:02d}" for j in range(width))
    keys = [
        (p, li, ri)
        for p in range(spec.participants)
        for li in range(len(spec.labels))
        for ri in range(spec.recordings_per_label)
    ]
    per_block = max(1, SYNTH_BLOCK // width)
    rho, sd = spec.ar_coefficient, spec.noise_sd
    step = sd * math.sqrt(1.0 - rho * rho)
    buf = np.empty((spec.length, min(per_block, len(keys)) * width))
    matrices = []
    # a finite spec can still overflow; FeatureMatrix rejects the result
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, len(keys), per_block):
            block = keys[first : first + per_block]
            x = buf[:, : len(block) * width]
            for j, (p, li, ri) in enumerate(block):
                for f in range(width):
                    z = root.derive(p, li, ri, f).generator().standard_normal(spec.length)
                    x[:, j * width + f] = z
            offset = np.repeat([spec.offsets[li] for _, li, _ in block], width)
            # x[0] = offset + sd*z[0], x[t] = (offset + rho*(x[t-1] - offset)) + step*z[t]
            x[0] *= sd
            x[0] += offset
            x[1:] *= step
            dev = np.empty_like(offset)
            for prev, cur in zip(x[:-1], x[1:]):
                np.subtract(prev, offset, out=dev)
                dev *= rho
                dev += offset
                cur += dev
            for j, (p, li, ri) in enumerate(block):
                matrices.append(
                    FeatureMatrix(
                        recording_id=f"p{p:02d}_{spec.labels[li]}_r{ri}",
                        participant_id=f"p{p:02d}",
                        labels={"category": spec.labels[li]},
                        feature_names=schema,
                        values=x[:, j * width : (j + 1) * width],
                    )
                )
    return Corpus(matrices=tuple(matrices), schema=schema)
