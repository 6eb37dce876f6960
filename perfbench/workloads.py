"""The benchmark's workloads: seeded corpus set-up, one pass, output checks.

Every workload builds its corpus from the run's seed (corpus seed = the
seed; noise streams derive from it too), runs its pass through
privseq's public API only, and validates what the pass produced. A
check returns a list of problems; an empty list means the operation
passed. No digest is pinned across commits: a pass is only compared
with the first pass of the same run.
"""
from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from privseq import classify, dataio, mechanisms, metrics, sensitivity, tuning
from privseq.core import Corpus, FeatureMatrix, chunk_plan
from privseq.mechanisms import MechanismConfig, fpa_lambda
from privseq.noise import NoiseSource

LABEL = "category"
EPSILON = 4.8
# Noise runs per tune and per sweep cell in `evaluate`. Both calls cost
# mostly per-call overhead at this size, so the count sets pass length
# only weakly; 2 keeps two passes inside the run budget.
EVAL_RUNS = 2
EVAL_JOBS = 2  # the CLI default --jobs on the 2-core reference host
TUNE_CHUNK = 32
RAGGED_MIN_LENGTH = 900


class Outcome:
    """Attempted and failed operation counts with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems[:3])

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --- checks ------------------------------------------------------------------


def report_problems(report, config: MechanismConfig, table, group_length: int, features) -> list[str]:
    """The report's budget and every noise scale match the mechanism's
    own formulas for the chunk, k and sensitivity actually used."""
    out = []
    expected_total = len(features) * config.epsilon
    if not math.isclose(report.total_epsilon, expected_total, rel_tol=1e-12):
        out.append(f"total_epsilon {report.total_epsilon} != {len(features)} x {config.epsilon}")
    plan = config.plan_for(group_length)
    seen = set()
    for u in report.per_unit:
        s, e = plan.boundaries[u.chunk_index]
        if config.mechanism == "lpa":
            lam = u.sensitivity / config.epsilon
        else:
            lam = fpa_lambda(e - s, u.k, u.sensitivity, config.epsilon)
        if u.lam != lam:
            out.append(f"{u.feature} chunk {u.chunk_index}: lambda {u.lam} != {lam}")
        if u.sensitivity != table.value(u.feature, u.chunk_index, config.domain, config.norm_order):
            out.append(f"{u.feature} chunk {u.chunk_index}: sensitivity differs from the table")
        seen.add((u.feature, u.chunk_index))
    if len(seen) != len(features) * len(plan):
        out.append(f"{len(seen)} noised units for {len(features)} features x {len(plan)} chunks")
    return out


def same_corpus_problems(expected, actual) -> list[str]:
    """Bit-identical recordings, in order."""
    if len(expected.matrices) != len(actual.matrices):
        return [f"{len(actual.matrices)} recordings, expected {len(expected.matrices)}"]
    out = []
    for a, b in zip(expected.matrices, actual.matrices):
        if a.recording_id != b.recording_id or not np.array_equal(a.values, b.values):
            out.append(f"recording {b.recording_id!r} differs")
    return out


def length_problems(source, released) -> list[str]:
    out = [
        f"{b.recording_id}: released {b.values.shape}, recorded {a.values.shape}"
        for a, b in zip(source.matrices, released.matrices)
        if a.values.shape != b.values.shape
    ]
    if len(source.matrices) != len(released.matrices):
        out.append("recording count changed")
    return out


def tune_problems(table, corpus, chunk_size: int) -> list[str]:
    out = []
    expected = 0
    for label in corpus.label_values(LABEL):
        n = max(m.length for m in corpus.group(LABEL, label))
        lengths = chunk_plan(n, chunk_size).chunk_lengths()
        expected += len(lengths) * len(corpus.included_features)
        for feature in corpus.included_features:
            for ci, c_len in enumerate(lengths):
                k = table.entries.get((label, feature, ci))
                if k is None or not 1 <= k <= c_len:
                    out.append(f"({label}, {feature}, {ci}): k={k} outside [1, {c_len}]")
    if len(table.entries) != expected:
        out.append(f"{len(table.entries)} tuned entries, expected {expected}")
    return out


def sweep_problems(sweep, expected_rows: int) -> list[str]:
    out = []
    if len(sweep.rows) != expected_rows:
        out.append(f"{len(sweep.rows)} sweep rows, expected {expected_rows}")
    for r in sweep.rows:
        if not (math.isfinite(r.mean_utility) and r.mean_utility > 0):
            out.append(f"({r.mechanism}, {r.chunk_size}, {r.epsilon}): utility {r.mean_utility}")
    for c in metrics.DEFAULT_CHUNK_SIZES:
        cells = sorted((r.epsilon, r.mean_utility) for r in sweep.rows if r.mechanism == "cfpa" and r.chunk_size == c)
        if any(u1 < u0 for (_, u0), (_, u1) in zip(cells, cells[1:])):
            out.append(f"cfpa/{c}: utility falls as epsilon rises")
    return out


# --- digests -----------------------------------------------------------------


def _hash_releases(h, releases) -> None:
    for _, _, noisy, reports in releases:
        for m in noisy.matrices:
            h.update(m.recording_id.encode())
            h.update(np.ascontiguousarray(m.values).tobytes())
        for label in sorted(reports):
            h.update(reports[label].to_json().encode())


# --- workloads ---------------------------------------------------------------


def _offsets(n_labels: int) -> tuple[float, ...]:
    mid = (n_labels - 1) / 2.0
    return tuple(3000.0 + 300.0 * (i - mid) for i in range(n_labels))


def _spec(seed: int, participants: int, labels: int, features: int, length: int) -> dataio.SynthSpec:
    return dataio.SynthSpec(
        participants=participants,
        recordings_per_label=1,
        labels=tuple(f"l{i}" for i in range(labels)),
        length=length,
        features=features,
        ar_coefficient=0.95,
        offsets=_offsets(labels),
        noise_sd=1.0,
        seed=seed,
    )


def _samples(corpus) -> int:
    return sum(m.values.size for m in corpus.matrices)


def _tables(corpus, config: MechanismConfig) -> dict:
    out = {}
    for label in corpus.label_values(LABEL):
        n = max(m.length for m in corpus.group(LABEL, label))
        out[label] = sensitivity.build_group_table(
            corpus, LABEL, label, config.plan_for(n),
            norms=(config.norm_order,), domains=(config.domain,),
        )
    return out


def _perturb_all(corpus, configs, src: NoiseSource) -> list:
    """Sensitivity tables, then the mechanism, per configuration; the
    tables are passed in so sensitivity is timed apart."""
    out = []
    for i, config in enumerate(configs):
        tables = _tables(corpus, config)
        noisy, reports = mechanisms.perturb_corpus(
            corpus, LABEL, config, src.derive(i), jobs=1, sens_tables=tables
        )
        out.append((config, tables, noisy, reports))
    return out


def _check_releases(outcome: Outcome, source, releases) -> None:
    group_length = {
        label: max(m.length for m in source.group(LABEL, label)) for label in source.label_values(LABEL)
    }
    for config, tables, noisy, reports in releases:
        problems = length_problems(source, noisy)
        for label, report in sorted(reports.items()):
            problems += report_problems(
                report, config, tables[label], group_length[label], source.included_features
            )
        outcome.check(f"perturb:{config.mechanism}", problems)


class Workload:
    """One seeded corpus and the pass run on it.

    Subclasses set `name` and the default corpus size, build the corpus
    in setup() and implement run_pass(), check() and digest(). `samples`
    is the number of input samples one pass pushes through its
    mechanisms or evaluations. A smaller corpus serves warm-up and tests.
    """

    name = ""
    participants = 20
    features = 4

    def __init__(self, seed: int, work_dir: Path, participants: int | None = None, features: int | None = None) -> None:
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.participants = participants or self.participants
        self.features = features or self.features
        self.src = NoiseSource(seed)

    def fresh_dir(self, *parts: str) -> Path:
        path = self.work_dir.joinpath(*parts)
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


class Release(Workload):
    """Acceptance corpus on disk; the custodian's release path."""

    name = "release"
    configs = (
        MechanismConfig("lpa", EPSILON),
        MechanismConfig("fpa", EPSILON),
        MechanismConfig("cfpa", EPSILON, chunk_size=32),
        MechanismConfig("dcfpa", EPSILON, chunk_size=32),
    )

    def setup(self) -> None:
        self.corpus = dataio.synth_corpus(_spec(self.seed, self.participants, 3, self.features, 1024))
        dataio.write_corpus(self.corpus, self.fresh_dir("corpus"))
        self.manifest = self.work_dir / "corpus" / dataio.MANIFEST_NAME
        self.samples = len(self.configs) * _samples(self.corpus)

    def run_pass(self) -> dict:
        corpus = dataio.load_corpus(self.manifest, jobs=1)
        releases = _perturb_all(corpus, self.configs, self.src)
        written = {}
        for config, _, noisy, reports in releases:
            out = self.fresh_dir("release", config.mechanism)
            dataio.write_corpus(noisy, out, reports=reports)
            written[config.mechanism] = out / dataio.MANIFEST_NAME
        cfpa_release = next(noisy for config, _, noisy, _ in releases if config.mechanism == "cfpa")
        folds, summary = classify.lopo_cv(
            cfpa_release, LABEL, classify.ClassifierConfig(), majority=True, src=self.src.derive(9)
        )
        return {"loaded": corpus, "releases": releases, "written": written, "folds": folds, "summary": summary}

    def check(self, out: dict, outcome: Outcome) -> None:
        outcome.check("load", same_corpus_problems(self.corpus, out["loaded"]))
        _check_releases(outcome, self.corpus, out["releases"])
        for config, _, noisy, _ in out["releases"]:
            reloaded = dataio.load_corpus(out["written"][config.mechanism])
            outcome.check(f"write:{config.mechanism}", same_corpus_problems(noisy, reloaded))
        summary = out["summary"]
        problems = []
        if summary.folds != self.participants:
            problems.append(f"{summary.folds} folds for {self.participants} participants")
        if not 0.0 <= summary.voted_accuracy <= 1.0:
            problems.append(f"voted accuracy {summary.voted_accuracy}")
        outcome.check("lopo", problems)

    def digest(self, out: dict) -> str:
        h = hashlib.sha256()
        _hash_releases(h, out["releases"])
        for fold in out["folds"]:
            h.update(repr((fold.instance_predictions, fold.voted_predictions)).encode())
        return h.hexdigest()


class Evaluate(Workload):
    """Acceptance corpus in memory; retention tuning and the utility sweep."""

    name = "evaluate"

    def setup(self) -> None:
        self.corpus = dataio.synth_corpus(_spec(self.seed, self.participants, 3, self.features, 1024))
        configs = 2 + 2 * len(metrics.DEFAULT_CHUNK_SIZES)
        self.rows = configs * len(metrics.DEFAULT_EPSILONS)
        self.samples = (1 + self.rows) * EVAL_RUNS * _samples(self.corpus)

    def run_pass(self) -> dict:
        table = tuning.tune_corpus(self.corpus, LABEL, TUNE_CHUNK, "cfpa", EPSILON, EVAL_RUNS, self.src.derive(0))
        sweep = metrics.run_sweep(self.corpus, LABEL, self.src.derive(1), runs=EVAL_RUNS, jobs=EVAL_JOBS)
        return {"tune": table, "sweep": sweep}

    def check(self, out: dict, outcome: Outcome) -> None:
        outcome.check("tune", tune_problems(out["tune"], self.corpus, TUNE_CHUNK))
        outcome.check("sweep", sweep_problems(out["sweep"], self.rows))

    def digest(self, out: dict) -> str:
        h = hashlib.sha256()
        h.update(repr(sorted(out["tune"].entries.items())).encode())
        h.update(repr(out["sweep"].rows).encode())
        return h.hexdigest()


class Ragged(Workload):
    """Larger groups of unequal, non-power-of-2 lengths from manifest trims."""

    name = "ragged"
    configs = (
        MechanismConfig("fpa", EPSILON),
        MechanismConfig("cfpa", EPSILON, chunk_size=48),
        MechanismConfig("dcfpa", EPSILON, chunk_size=48),
    )
    participants = 60
    features = 3
    length = 1000

    def trims(self, corpus) -> list[tuple[int, int]]:
        """A seeded [start, end) per recording, 900 to 1000 samples long;
        the first recording of each label keeps all 1000, so every group
        pads to 1000 and a 48-sample plan ends in a 40-sample chunk."""
        rng = np.random.default_rng([self.seed, 31])
        out, seen = [], set()
        for m in corpus.matrices:
            label = m.labels[LABEL]
            n = self.length if label not in seen else int(rng.integers(RAGGED_MIN_LENGTH, self.length + 1))
            seen.add(label)
            start = int(rng.integers(0, self.length - n + 1))
            out.append((start, start + n))
        return out

    def setup(self) -> None:
        full = dataio.synth_corpus(_spec(self.seed, self.participants, 2, self.features, self.length))
        directory = self.fresh_dir("corpus")
        dataio.write_corpus(full, directory)
        self.manifest = directory / dataio.MANIFEST_NAME
        trims = self.trims(full)
        raw = json.loads(self.manifest.read_text(encoding="utf-8"))
        for rec, trim in zip(raw["recordings"], trims):
            rec["trim"] = list(trim)
        self.manifest.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        self.corpus = Corpus(
            matrices=tuple(
                FeatureMatrix(m.recording_id, m.participant_id, m.labels, m.feature_names, m.values[s:e])
                for m, (s, e) in zip(full.matrices, trims)
            ),
            schema=full.schema,
        )
        self.samples = len(self.configs) * _samples(self.corpus)

    def run_pass(self) -> dict:
        corpus = dataio.load_corpus(self.manifest, jobs=1)
        return {"loaded": corpus, "releases": _perturb_all(corpus, self.configs, self.src)}

    def check(self, out: dict, outcome: Outcome) -> None:
        outcome.check("load", same_corpus_problems(self.corpus, out["loaded"]))
        _check_releases(outcome, self.corpus, out["releases"])

    def digest(self, out: dict) -> str:
        h = hashlib.sha256()
        _hash_releases(h, out["releases"])
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (Release, Evaluate, Ragged)}
