"""Corpus serialization and the synthetic generator: exact round trips,
typed loader failures naming file/row/column, trims, auto-exclusion,
and the autoregressive statistics of generated signals."""
import csv
import io
import json
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privseq import dataio
from privseq.core import (
    SEQUENTIAL,
    Corpus,
    DataError,
    FeatureMatrix,
    MechanismReport,
    ParameterError,
    ReportUnit,
)
from privseq.dataio import (
    MANIFEST_NAME,
    REPORT_NAME,
    SCHEMA_NAME,
    CorpusManifest,
    RecordingEntry,
    SynthSpec,
    load_corpus,
    read_manifest,
    synth_corpus,
    write_corpus,
)
from privseq.noise import NoiseSource


def _spec(**overrides):
    base = dict(
        participants=3,
        recordings_per_label=2,
        labels=("a", "b"),
        length=40,
        features=2,
        ar_coefficient=0.9,
        offsets=(10.0, 20.0),
        noise_sd=1.0,
        seed=5,
    )
    base.update(overrides)
    return SynthSpec(**base)


# --- synth_corpus -----------------------------------------------------------


def test_synth_shape_and_naming():
    corpus = synth_corpus(_spec())
    assert len(corpus.matrices) == 3 * 2 * 2
    assert corpus.schema == ("f00", "f01")
    first = corpus.matrices[0]
    assert first.recording_id == "p00_a_r0"
    assert first.participant_id == "p00"
    assert first.labels == {"category": "a"}
    assert first.values.shape == (40, 2)
    ids = {m.recording_id for m in corpus.matrices}
    assert len(ids) == 12


def test_synth_is_deterministic_per_seed():
    a = synth_corpus(_spec())
    b = synth_corpus(_spec())
    c = synth_corpus(_spec(seed=6))
    for ma, mb in zip(a.matrices, b.matrices):
        assert np.array_equal(ma.values, mb.values)
    assert not np.array_equal(a.matrices[0].values, c.matrices[0].values)


def test_synth_streams_differ_across_participants_and_features():
    corpus = synth_corpus(_spec())
    m0, m1 = corpus.matrices[0], corpus.matrices[4]
    assert m0.participant_id != m1.participant_id
    assert not np.array_equal(m0.values, m1.values)
    assert not np.array_equal(m0.values[:, 0], m0.values[:, 1])


def _lag1(x):
    return float(np.corrcoef(x[:-1], x[1:])[0, 1])


def test_synth_autoregressive_statistics():
    long = _spec(
        participants=1, recordings_per_label=1, labels=("a",), offsets=(100.0,),
        length=4000, features=1, ar_coefficient=0.9, seed=9,
    )
    x = synth_corpus(long).matrices[0].values[:, 0]
    assert abs(_lag1(x) - 0.9) < 0.05
    assert abs(float(np.mean(x)) - 100.0) < 0.2
    assert abs(float(np.std(x)) - 1.0) < 0.1

    white = synth_corpus(
        _spec(
            participants=1, recordings_per_label=1, labels=("a",), offsets=(0.0,),
            length=4000, features=1, ar_coefficient=0.0, seed=10,
        )
    ).matrices[0].values[:, 0]
    assert abs(_lag1(white)) < 0.05


def _ar1(offset, rho, sd, z):
    # The per-sample definition of SynthSpec, one Python statement per
    # sample.
    x = np.empty(z.size, dtype=np.float64)
    x[0] = offset + sd * z[0]
    if z.size > 1:
        step = sd * math.sqrt(1.0 - rho * rho)
        prev = x[0]
        for t in range(1, z.size):
            prev = offset + rho * (prev - offset) + step * z[t]
            x[t] = prev
    return x


def _reference_recordings(spec):
    # (id, participant, labels, shape, bytes) of every recording, built
    # signal by signal from its own stream in the documented order.
    root = NoiseSource(spec.seed)
    out = []
    for p in range(spec.participants):
        for li, label in enumerate(spec.labels):
            for ri in range(spec.recordings_per_label):
                cols = [
                    _ar1(
                        spec.offsets[li], spec.ar_coefficient, spec.noise_sd,
                        root.derive(p, li, ri, f).generator().standard_normal(spec.length),
                    )
                    for f in range(spec.features)
                ]
                values = np.column_stack(cols)
                out.append((f"p{p:02d}_{label}_r{ri}", f"p{p:02d}", {"category": label},
                            values.shape, values.tobytes()))
    return out


@st.composite
def _synth_specs(draw):
    n_labels = draw(st.integers(1, 3))
    offsets = draw(
        st.lists(st.floats(-1e4, 1e4), min_size=n_labels, max_size=n_labels, unique=True)
    )
    return SynthSpec(
        participants=draw(st.integers(1, 12)),
        recordings_per_label=draw(st.integers(1, 3)),
        labels=tuple(f"l{i}" for i in range(n_labels)),
        length=draw(st.integers(1, 9)),
        features=draw(st.integers(1, 4)),
        ar_coefficient=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999))),
        offsets=tuple(offsets),
        noise_sd=draw(st.floats(1e-3, 1e3)),
        seed=draw(st.integers(0, 2**32)),
    )


@pytest.mark.parametrize("block", [None, 1], ids=["default_block", "one_signal_block"])
@given(spec=_synth_specs())
@example(spec=_spec(ar_coefficient=0.0, length=1))
@example(spec=_spec(participants=2, recordings_per_label=3, labels=("a", "b", "c"),
                    offsets=(-3.0, 0.5, 7.0), length=5, features=3))
# 324 signals: more than one default block, labels mixed inside each
@example(spec=_spec(participants=9, recordings_per_label=3, labels=("a", "b", "c"),
                    offsets=(1.0, -2.0, 3.0), length=3, features=4))
@settings(max_examples=40, deadline=None)
def test_synth_equals_the_per_sample_definition_byte_for_byte(block, spec):
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(dataio, "SYNTH_BLOCK", block)
        corpus = synth_corpus(spec)
    assert corpus.schema == tuple(f"f{j:02d}" for j in range(spec.features))
    got = [
        (m.recording_id, m.participant_id, m.labels, m.values.shape, m.values.tobytes())
        for m in corpus.matrices
    ]
    assert got == _reference_recordings(spec)


def test_synth_spec_validation():
    with pytest.raises(ParameterError):
        _spec(offsets=(1.0,))
    with pytest.raises(ParameterError):
        _spec(ar_coefficient=1.0)
    with pytest.raises(ParameterError):
        _spec(ar_coefficient=-0.1)
    with pytest.raises(ParameterError):
        _spec(noise_sd=0.0)
    with pytest.raises(ParameterError):
        _spec(labels=("a", "a"), offsets=(1.0, 2.0))
    with pytest.raises(ParameterError):
        _spec(seed=-1)
    with pytest.raises(ParameterError):
        _spec(length=0)
    for overrides, field in (
        (dict(noise_sd=math.inf), "noise_sd"),
        (dict(noise_sd=math.nan), "noise_sd"),
        (dict(offsets=(math.nan, 1.0)), "offsets"),
        (dict(offsets=(1.0, -math.inf)), "offsets"),
    ):
        with pytest.raises(ParameterError, match=field):
            _spec(**overrides)


def test_synth_overflow_is_a_parameter_error_without_warnings():
    spec = _spec(offsets=(1e308, 1e308), noise_sd=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="infinite"):
            synth_corpus(spec)


# --- write / load round trip --------------------------------------------------


def test_round_trip_is_exact(tmp_path):
    corpus = synth_corpus(_spec())
    manifest = write_corpus(corpus, tmp_path / "out", step_seconds=0.5)
    assert manifest.step_seconds == 0.5
    loaded = load_corpus(tmp_path / "out" / MANIFEST_NAME)
    assert loaded.schema == corpus.schema
    assert len(loaded.matrices) == len(corpus.matrices)
    for a, b in zip(corpus.matrices, loaded.matrices):
        assert a.recording_id == b.recording_id
        assert a.participant_id == b.participant_id
        assert a.labels == b.labels
        assert np.array_equal(a.values, b.values)


def test_recording_file_bytes_are_pinned(tmp_path):
    # every float is written as its repr, the shortest string that reads
    # back to the same double
    values = np.array([[-0.0, 1e-300], [1e22, 0.1]])
    m = FeatureMatrix(
        recording_id="r0", participant_id="p0", labels={"category": "a"},
        feature_names=("f0", "f1"), values=values,
    )
    write_corpus(Corpus(matrices=(m,), schema=("f0", "f1")), tmp_path / "out")
    assert (tmp_path / "out" / "r0.csv").read_bytes() == b"f0,f1\r\n-0.0,1e-300\r\n1e+22,0.1\r\n"
    loaded = load_corpus(tmp_path / "out" / MANIFEST_NAME)
    assert loaded.matrices[0].values.tobytes() == values.tobytes()


def test_report_json_bytes_equal_the_parsed_to_json_form(tmp_path):
    # report.json is dumped once from each report's payload; its bytes
    # must be what re-parsing every to_json() and dumping the merged
    # dict writes, floats at the edges of repr included.
    reports = {
        "b": MechanismReport(
            "cfpa",
            (ReportUnit("f0", 0, 0.1, 1e-300, 3, 0.1), ReportUnit("f1", 1, 1e22, 5e-324, 1, 1e22)),
            SEQUENTIAL, {"f1": 1e22, "f0": 0.1}, 1e22,
        ),
        "a": MechanismReport(
            "lpa", (ReportUnit("f0", 0, 5e-324, 0.1, 2, 1e-300),), SEQUENTIAL, {"f0": 1e-300}, 1e-300,
        ),
    }
    m = FeatureMatrix(
        recording_id="r0", participant_id="p0", labels={"category": "a"},
        feature_names=("f0", "f1"), values=np.zeros((2, 2)),
    )
    write_corpus(Corpus(matrices=(m,), schema=("f0", "f1")), tmp_path / "out", reports=reports)
    merged = {label: json.loads(r.to_json()) for label, r in reports.items()}
    expected = json.dumps(merged, indent=2, sort_keys=True) + "\n"
    got = (tmp_path / "out" / REPORT_NAME).read_bytes()
    assert got == expected.encode("utf-8")
    for text in (
        b'"lambda": 5e-324', b'"sensitivity": 1e+22', b'"chunk_total_epsilon": 1e-300',
        b'"sequence_total_epsilon": 1e-300',
    ):
        assert text in got


@pytest.mark.parametrize("bad", ["", " a", "a ", "a\nb", "a\rb", "a\r\nb"])
def test_write_rejects_names_the_schema_file_cannot_carry(tmp_path, bad):
    schema = (bad, "z")
    m = FeatureMatrix(
        recording_id="r0", participant_id="p0", labels={"category": "a"},
        feature_names=schema, values=np.ones((2, 2)),
    )
    with pytest.raises(ParameterError, match="feature name"):
        write_corpus(Corpus(matrices=(m,), schema=schema), tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", ["../escaped", "sub/x", ".", "..", "a\0b"])
def test_write_rejects_recording_ids_that_are_not_file_names(tmp_path, bad):
    m = FeatureMatrix(
        recording_id=bad, participant_id="p0", labels={"category": "a"},
        feature_names=("f0",), values=np.ones((2, 1)),
    )
    with pytest.raises(ParameterError, match="plain file name"):
        write_corpus(Corpus(matrices=(m,), schema=("f0",)), tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_recording_bytes_equal_csv_writer_output(tmp_path):
    # The body is formatted without csv.writer; its bytes must be what
    # csv.writer writes, and the header keeps csv's quoting.
    column = np.array([-0.0, 5e-324, 1e-05, 1e16, 1e22, 0.1, 1.7976931348623157e308])
    values = np.column_stack([column, -column[::-1]])
    schema = ("a,b", 'q"x')
    m = FeatureMatrix(
        recording_id="r0", participant_id="p0", labels={"category": "a"},
        feature_names=schema, values=values,
    )
    write_corpus(Corpus(matrices=(m,), schema=schema), tmp_path / "out")
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(schema)
    writer.writerows(values.tolist())
    got = (tmp_path / "out" / "r0.csv").read_bytes()
    assert got == reference.getvalue().encode("utf-8")
    assert got.startswith(b'"a,b","q""x"\r\n-0.0,-1.7976931348623157e+308\r\n')
    loaded = load_corpus(tmp_path / "out" / MANIFEST_NAME)
    assert loaded.schema == schema
    assert loaded.matrices[0].values.tobytes() == values.tobytes()


def test_load_accepts_manifest_object_and_is_jobs_invariant(tmp_path):
    corpus = synth_corpus(_spec())
    manifest = write_corpus(corpus, tmp_path / "out")
    one = load_corpus(manifest, jobs=1)
    many = load_corpus(manifest, jobs=3)
    for a, b in zip(one.matrices, many.matrices):
        assert np.array_equal(a.values, b.values)


def test_manifest_file_shape(tmp_path):
    write_corpus(synth_corpus(_spec()), tmp_path / "out", step_seconds=2.0)
    raw = json.loads((tmp_path / "out" / MANIFEST_NAME).read_text())
    assert raw["schema"] == SCHEMA_NAME
    assert raw["step_seconds"] == 2.0
    assert len(raw["recordings"]) == 12
    entry = raw["recordings"][0]
    assert set(entry) == {"path", "recording_id", "participant_id", "labels"}

    parsed = read_manifest(tmp_path / "out" / MANIFEST_NAME)
    assert parsed.step_seconds == 2.0
    assert len(parsed.recordings) == 12


def test_empty_corpus_round_trip(tmp_path):
    empty = Corpus(matrices=(), schema=("f00",), excluded_features=frozenset())
    write_corpus(empty, tmp_path / "out")
    loaded = load_corpus(tmp_path / "out" / MANIFEST_NAME)
    assert loaded.matrices == ()
    assert loaded.schema == ("f00",)


def test_report_sidecar(tmp_path):
    from privseq.mechanisms import MechanismConfig, perturb_corpus
    from privseq.noise import NoiseSource

    corpus = synth_corpus(_spec())
    noisy, reports = perturb_corpus(
        corpus, "category", MechanismConfig(mechanism="lpa", epsilon=2.4), NoiseSource(seed=3)
    )
    write_corpus(noisy, tmp_path / "out", reports=reports)
    raw = json.loads((tmp_path / "out" / REPORT_NAME).read_text())
    assert set(raw) == {"a", "b"}
    for payload in raw.values():
        assert payload["mechanism"] == "lpa"
        assert payload["chunk_total_epsilon"] > 0.0
        assert payload["sequence_total_epsilon"] == payload["chunk_total_epsilon"]  # lpa
        assert "units" in payload


def test_write_without_reports_removes_a_stale_report(tmp_path):
    # unprivatized recordings written over a release must not sit next to
    # its report, which would claim a budget for them
    from privseq.mechanisms import MechanismConfig, perturb_corpus
    from privseq.noise import NoiseSource

    corpus = synth_corpus(_spec())
    noisy, reports = perturb_corpus(
        corpus, "category", MechanismConfig(mechanism="lpa", epsilon=2.4), NoiseSource(seed=3)
    )
    write_corpus(noisy, tmp_path / "out", reports=reports)
    assert (tmp_path / "out" / REPORT_NAME).exists()
    for _ in range(2):  # with and without a report to remove
        write_corpus(corpus, tmp_path / "out")
        assert not (tmp_path / "out" / REPORT_NAME).exists()


def test_write_removes_recordings_the_old_manifest_lists_and_the_new_does_not(tmp_path):
    out = tmp_path / "out"
    write_corpus(synth_corpus(_spec()), out)
    old = json.loads((out / MANIFEST_NAME).read_text())["recordings"]
    smaller = synth_corpus(_spec(participants=1))
    # names an earlier manifest may hold that do not stay inside out_dir
    (tmp_path / "outside.csv").write_text("keep")
    (out / "sub").mkdir()
    (out / "sub" / "r.csv").write_text("keep")
    (out / "unlisted.csv").write_text("keep")
    for path in ("../outside.csv", str(tmp_path / "outside.csv"), "sub/r.csv", "..", ""):
        old.append({"path": path, "recording_id": "x", "participant_id": "p", "labels": {}})
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    (out / MANIFEST_NAME).write_text(json.dumps({**manifest, "recordings": old}))
    write_corpus(smaller, out)
    listed = {e.file_path for e in read_manifest(out / MANIFEST_NAME).recordings}
    assert len(listed) == len(smaller.matrices) < len(synth_corpus(_spec()).matrices)
    kept = {MANIFEST_NAME, SCHEMA_NAME, "sub", "unlisted.csv"}
    assert {p.name for p in out.iterdir()} == listed | kept
    assert (tmp_path / "outside.csv").read_text() == "keep"
    assert (out / "sub" / "r.csv").read_text() == "keep"


def test_write_refuses_a_non_empty_directory_without_a_manifest(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    write_corpus(synth_corpus(_spec(participants=1)), out)  # empty: written
    (out / MANIFEST_NAME).unlink()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(ParameterError, match=f"holds no {MANIFEST_NAME}"):
        write_corpus(synth_corpus(_spec()), out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    (out / "sub").mkdir()
    for name in before:
        (out / name).unlink()
    with pytest.raises(ParameterError, match=f"holds no {MANIFEST_NAME}"):
        write_corpus(synth_corpus(_spec()), out)
    assert [p.name for p in out.iterdir()] == ["sub"]


def test_write_over_an_unreadable_manifest_removes_nothing(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "r.csv").write_text("keep")
    for text in ("{not json", "[]", '{"recordings": 3}', '{"recordings": [{"path": 3}, 4]}'):
        (out / MANIFEST_NAME).write_text(text)
        write_corpus(synth_corpus(_spec(participants=1)), out)
        assert (out / "r.csv").read_text() == "keep"


# --- loader failures -----------------------------------------------------------


def _write_minimal(tmp_path, csv_text, manifest_extra=None):
    (tmp_path / SCHEMA_NAME).write_text("f00\nf01\n")
    (tmp_path / "r0.csv").write_text(csv_text)
    entry = {
        "path": "r0.csv",
        "recording_id": "r0",
        "participant_id": "p0",
        "labels": {"category": "a"},
    }
    if manifest_extra:
        entry.update(manifest_extra)
    manifest = {"schema": SCHEMA_NAME, "recordings": [entry]}
    path = tmp_path / MANIFEST_NAME
    path.write_text(json.dumps(manifest))
    return path


def test_loader_names_file_row_and_column(tmp_path):
    path = _write_minimal(tmp_path, "f00,f01\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(DataError) as err:
        load_corpus(path)
    message = str(err.value)
    assert "r0.csv" in message
    assert "row 3" in message
    assert "'f01'" in message
    assert "oops" in message


def test_loader_rejects_ragged_rows(tmp_path):
    path = _write_minimal(tmp_path, "f00,f01\n1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="row 3"):
        load_corpus(path)


def test_loader_reports_the_first_bad_row_in_file_order(tmp_path):
    path = _write_minimal(tmp_path, "f00,f01\n1.0,2.0\n3.0,oops\n5.0,6.0\n7.0\n")
    with pytest.raises(DataError) as err:
        load_corpus(path)
    message = str(err.value)
    assert "row 3" in message
    assert "'f01'" in message
    assert "oops" in message

    path = _write_minimal(tmp_path, "f00,f01\n1.0,2.0\n3.0\n5.0,6.0\n7.0,oops\n")
    with pytest.raises(DataError) as err:
        load_corpus(path)
    message = str(err.value)
    assert "row 3" in message
    assert "expected 2 columns, got 1" in message


def test_loader_reports_unreadable_files_as_data_errors(tmp_path):
    path = _write_minimal(tmp_path, "f00,f01\n1.0,2.0\n")
    (tmp_path / "r0.csv").write_text("f00,f01\n1.0," + "1" * 200_000 + "\n")
    with pytest.raises(DataError, match="field larger than field limit"):
        load_corpus(path)
    (tmp_path / "r0.csv").write_bytes(b"f00,f01\n1.0,\xff\n")
    with pytest.raises(DataError, match="r0.csv: not readable as UTF-8 CSV"):
        load_corpus(path)


def test_loader_rejects_header_mismatch(tmp_path):
    path = _write_minimal(tmp_path, "f00,other\n1.0,2.0\n")
    with pytest.raises(DataError, match="header"):
        load_corpus(path)


def test_loader_rejects_empty_and_missing_files(tmp_path):
    path = _write_minimal(tmp_path, "f00,f01\n")
    with pytest.raises(DataError, match="no data rows"):
        load_corpus(path)

    (tmp_path / "r0.csv").unlink()
    with pytest.raises(DataError, match="not found"):
        load_corpus(path)


def test_manifest_failures(tmp_path):
    with pytest.raises(DataError, match="not found"):
        read_manifest(tmp_path / "missing.json")

    bad = tmp_path / MANIFEST_NAME
    bad.write_text("{not json")
    with pytest.raises(DataError, match="JSON"):
        read_manifest(bad)

    bad.write_text(json.dumps({"recordings": []}))
    with pytest.raises(DataError, match="malformed"):
        read_manifest(bad)

    bad.write_text(
        json.dumps(
            {
                "schema": SCHEMA_NAME,
                "recordings": [
                    {"path": "a.csv", "recording_id": "r", "participant_id": "p",
                     "labels": {"category": "a"}},
                    {"path": "b.csv", "recording_id": "r", "participant_id": "p",
                     "labels": {"category": "a"}},
                ],
            }
        )
    )
    with pytest.raises(DataError, match="duplicate"):
        read_manifest(bad)

    # wrongly shaped entries are malformed input, not a traceback
    entry = {"path": "a.csv", "recording_id": "r", "participant_id": "p",
             "labels": {"category": "a"}}
    for recording in (
        {**entry, "trim": [5]}, {**entry, "trim": [0, 2, 99]}, {**entry, "labels": ["x"]}, "a.csv",
        # trim bounds are JSON integers: never truncated, parsed or bools
        {**entry, "trim": [0.9, 2.7]}, {**entry, "trim": ["0", "3"]}, {**entry, "trim": "03"},
        {**entry, "trim": [False, 3]}, {**entry, "trim": [0, 2.0]},
        # a recording id names a file beside the others in a release
        {**entry, "recording_id": "../escaped"}, {**entry, "recording_id": "sub/x"},
        {**entry, "recording_id": "."}, {**entry, "recording_id": ".."},
        {**entry, "recording_id": "a\0b"}, {**entry, "recording_id": 7},
    ):
        bad.write_text(json.dumps({"schema": SCHEMA_NAME, "recordings": [recording]}))
        with pytest.raises(DataError, match="malformed manifest"):
            read_manifest(bad)

    # excluded_features is a list of names, not a string of letters
    for excluded in ("f0", ["f0", 1], {"f0": True}):
        bad.write_text(json.dumps(
            {"schema": SCHEMA_NAME, "recordings": [entry], "excluded_features": excluded}
        ))
        with pytest.raises(DataError, match="malformed manifest.*excluded_features"):
            read_manifest(bad)


def test_excluded_feature_outside_the_schema_is_a_data_error(tmp_path):
    path = _write_minimal(tmp_path, "f00,f01\n1.0,2.0\n")
    raw = json.loads(path.read_text())
    raw["excluded_features"] = ["f01", "nope"]
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match=r"manifest.json: excluded features not in schema: \['nope'\]"):
        load_corpus(path)
    with pytest.raises(DataError, match="not in schema"):
        load_corpus(read_manifest(path))
    raw["excluded_features"] = ["f01"]
    path.write_text(json.dumps(raw))
    assert load_corpus(path).excluded_features == frozenset({"f01"})


def test_manifest_rejects_inconsistent_label_kinds():
    entries = (
        RecordingEntry(file_path="a.csv", recording_id="r0", participant_id="p0",
                       labels={"category": "a"}),
        RecordingEntry(file_path="b.csv", recording_id="r1", participant_id="p1",
                       labels={"activity": "walk"}),
    )
    with pytest.raises(ParameterError, match="label kinds"):
        CorpusManifest(recordings=entries, schema_path=SCHEMA_NAME)


# --- trim -----------------------------------------------------------------------


def test_trim_keeps_requested_rows(tmp_path):
    rows = "\n".join(f"{float(i)},{float(10 + i)}" for i in range(8))
    path = _write_minimal(tmp_path, f"f00,f01\n{rows}\n", manifest_extra={"trim": [2, 5]})
    corpus = load_corpus(path)
    assert corpus.matrices[0].values.shape == (3, 2)
    assert np.array_equal(corpus.matrices[0].values[:, 0], [2.0, 3.0, 4.0])


def test_trim_beyond_file_is_an_error(tmp_path):
    path = _write_minimal(tmp_path, "f00,f01\n1.0,2.0\n", manifest_extra={"trim": [0, 5]})
    with pytest.raises(DataError, match="trim"):
        load_corpus(path)


def test_trim_range_validation():
    with pytest.raises(ParameterError):
        RecordingEntry(file_path="a.csv", recording_id="r", participant_id="p",
                       labels={}, trim=(3, 3))
    with pytest.raises(ParameterError):
        RecordingEntry(file_path="a.csv", recording_id="r", participant_id="p",
                       labels={}, trim=(-1, 3))


# --- all-zero auto-exclusion ------------------------------------------------------


def test_all_zero_feature_is_excluded_with_notice(tmp_path, caplog):
    matrices = []
    rng = np.random.default_rng(2)
    for i in range(2):
        values = np.column_stack([rng.standard_normal(6), np.zeros(6)])
        matrices.append(
            FeatureMatrix(
                recording_id=f"r{i}", participant_id=f"p{i}",
                labels={"category": "a"}, feature_names=("f00", "f01"), values=values,
            )
        )
    corpus = Corpus(matrices=tuple(matrices), schema=("f00", "f01"),
                    excluded_features=frozenset())
    write_corpus(corpus, tmp_path / "out")
    with caplog.at_level(logging.INFO, logger="privseq.dataio"):
        loaded = load_corpus(tmp_path / "out" / MANIFEST_NAME)
    assert "f01" in loaded.excluded_features
    assert "f00" not in loaded.excluded_features
    assert any("zero everywhere" in r.message for r in caplog.records)


def test_partially_zero_feature_is_kept(tmp_path):
    path = _write_minimal(tmp_path, "f00,f01\n1.0,0.0\n2.0,1.0\n")
    loaded = load_corpus(path)
    assert loaded.excluded_features == frozenset()
