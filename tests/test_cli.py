"""End-to-end command checks: every command runs, reruns are
byte-identical, worker count never changes results, and failures map to
the documented exit codes."""
import ast
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import privseq
from privseq.cli import _handled, main
from privseq.core import (
    Corpus,
    FeatureMatrix,
    InternalInvariantError,
    MechanismReport,
    ReportUnit,
    chunk_plan,
)
from privseq.dataio import MANIFEST_NAME, REPORT_NAME, load_corpus, write_corpus
from privseq.mechanisms import MechanismConfig, fpa_lambda
from privseq.sensitivity import build_group_table
from privseq.tuning import load_k_csv
from helpers import read_sweep_csv, sweep_row


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def _dir_bytes(path):
    return {
        p.relative_to(path): p.read_bytes() for p in sorted(Path(path).rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "corpus"
    result = run_cli(
        "synth", "--participants", 3, "--labels", 2, "--length", 40,
        "--features", 2, "--seed", 7, "--out", out,
    )
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def manifest(corpus_dir):
    return corpus_dir / MANIFEST_NAME


# --- general surface -------------------------------------------------------


def test_help_everywhere():
    assert run_cli("--help").exit_code == 0
    for cmd in ("synth", "perturb", "sweep", "tune-k", "corr", "classify"):
        result = run_cli(cmd, "--help")
        assert result.exit_code == 0, cmd


_OPTIONS = {
    "synth": "--participants --labels --recordings-per-label --length --features --rho --offsets "
    "--noise-sd --step-seconds --seed --out",
    "perturb": "--manifest --mechanism --epsilon --chunk-size --k --k-file --clamp --symmetric "
    "--label-kind --seed --out",
    "sweep": "--manifest --mechanisms --epsilons --chunk-sizes --runs --k-file --label-kind --seed "
    "--jobs --out",
    "tune-k": "--manifest --chunk-size --mechanism --epsilon --runs --label-kind --seed --out",
    "corr": "--manifest --feature --reference --max-lag --domain --label-kind --out-dir",
    "classify": "--manifest --window --mean-pool --neighbors --majority --label-kind --seed "
    "--out-dir",
}


@pytest.mark.parametrize("cmd", sorted(_OPTIONS))
def test_help_lists_exactly_its_options(cmd):
    # a new knob is a deliberate change to this list
    result = run_cli(cmd, "--help")
    assert result.exit_code == 0
    listed = [line.split()[0] for line in result.stdout.splitlines() if line.startswith("  --")]
    assert listed == _OPTIONS[cmd].split() + ["--help"]


def test_module_entry_point():
    # The child process imports the same package as these tests, wherever
    # that came from (an install, PYTHONPATH or pytest's pythonpath).
    path = [str(Path(privseq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "privseq.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "Differentially private" in proc.stdout


def test_unknown_flag_is_a_usage_error():
    assert run_cli("synth", "--frobnicate", "1").exit_code == 2


def test_internal_invariant_maps_to_exit_4():
    @click.command()
    @_handled
    def boom():
        raise InternalInvariantError("stream desync")

    result = CliRunner().invoke(boom, [])
    assert result.exit_code == 4
    assert "invariant" in result.stderr


def test_readme_names_only_real_flags():
    # every --flag in README code (inline or fenced) is an option of some command
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`]*`", readme, flags=re.S)
    named = {flag for span in code for flag in re.findall(r"--[a-z][a-z0-9-]*", span)}
    options = {
        opt
        for command in main.commands.values()
        for param in command.params
        for opt in (*param.opts, *param.secondary_opts)
    }
    assert named, "README names no flags"
    assert sorted(named - options) == []


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(privseq.__path__):
        module = importlib.import_module(f"privseq.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], info.name
    assert [n for n in privseq.__all__ if not hasattr(privseq, n)] == []


def _references(paths):
    """Every name a set of modules reads: loaded names and attributes,
    and the attribute named by an (owner, "attribute", ...) tuple, the
    form in which perfbench's tracer lists what it binds."""
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen.add(node.attr)
            elif (isinstance(node, ast.Tuple) and len(node.elts) > 1
                  and isinstance(node.elts[0], ast.Name) and isinstance(node.elts[1], ast.Constant)):
                seen.add(node.elts[1].value)
    return seen


def test_every_exported_name_has_a_caller_outside_the_tests():
    # No public API only tests call: each name a module exports is read
    # by some code in src/ or by the benchmark in perfbench/, which binds
    # some names the package itself no longer calls.
    root = Path(privseq.__file__).resolve().parent
    bench = sorted(root.parents[1].glob("perfbench/*.py"))
    assert bench, "no perfbench/ next to src/"
    used = _references(root.glob("*.py")) | _references(bench)
    unused = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(privseq.__path__)
        for name in getattr(importlib.import_module(f"privseq.{info.name}"), "__all__", ())
        if not name.startswith("__") and name not in used
    ]
    assert unused == []


def _unused_imports(path):
    """The names a module imports and never loads, skipping __future__
    imports, the names it exports in __all__ and lines marked
    '# noqa: F401' (a name bound for another module to find there)."""
    text = path.read_text(encoding="utf-8")
    lines, tree = text.splitlines(), ast.parse(text)
    exported, bound, loaded = set(), {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in t for t in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return sorted(
        (line, name) for name, line in bound.items() if name not in loaded | exported
    )


def test_no_module_imports_a_name_it_never_reads():
    # there is no linter in the toolchain; this is its unused-import rule
    root = Path(privseq.__file__).resolve().parent
    modules = [*root.glob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]
    unused = {p.name: found for p in modules if (found := _unused_imports(p))}
    assert unused == {}


def test_readme_names_only_real_report_keys():
    # the report.json record the README shows, and every *_epsilon name it
    # gives, exist in a real report's payload (or as report properties)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    unit = ReportUnit("f0", 0, 1.0, 1.0, 1, 1.0)
    payload = MechanismReport("cfpa", ("f0",), (unit,)).payload()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, flags=re.S)]
    records = [b for b in blocks if "units" in b]
    assert records, "README shows no report.json record"
    for record in records:
        assert sorted(set(record) - set(payload)) == []
        for u in record["units"]:
            assert sorted(set(u) - set(payload["units"][0])) == []
    named = set(re.findall(r"`(\w+_epsilon)`", readme))
    assert sorted(n for n in named if n not in payload and not hasattr(MechanismReport, n)) == []


# --- synth -------------------------------------------------------------------


def test_synth_writes_a_loadable_corpus(corpus_dir, manifest):
    corpus = load_corpus(manifest)
    assert len(corpus.matrices) == 6
    assert corpus.schema == ("f00", "f01")
    assert {m.labels["category"] for m in corpus.matrices} == {"l0", "l1"}


def test_synth_is_byte_identical_per_seed(tmp_path):
    args = ("synth", "--participants", 2, "--labels", 2, "--length", 16,
            "--features", 1, "--seed", 3)
    assert run_cli(*args, "--out", tmp_path / "a").exit_code == 0
    assert run_cli(*args, "--out", tmp_path / "b").exit_code == 0
    a, b = _dir_bytes(tmp_path / "a"), _dir_bytes(tmp_path / "b")
    assert set(a) == set(b)
    assert all(a[k] == b[k] for k in a)


def test_synth_default_offsets_spread_around_3000(tmp_path):
    out = tmp_path / "three"
    assert run_cli(
        "synth", "--participants", 3, "--labels", 3, "--length", 64,
        "--features", 1, "--seed", 1, "--out", out,
    ).exit_code == 0
    corpus = load_corpus(out / MANIFEST_NAME)
    for label, expected in (("l0", 2700.0), ("l1", 3000.0), ("l2", 3300.0)):
        group = corpus.group("category", label)
        mean = float(np.mean([np.mean(m.values) for m in group]))
        assert abs(mean - expected) < 5.0


def test_synth_named_labels_and_offsets(tmp_path):
    out = tmp_path / "named"
    result = run_cli(
        "synth", "--participants", 2, "--labels", "walk,run", "--offsets", "10,20",
        "--length", 16, "--features", 1, "--seed", 1, "--out", out,
    )
    assert result.exit_code == 0
    corpus = load_corpus(out / MANIFEST_NAME)
    assert {m.labels["category"] for m in corpus.matrices} == {"walk", "run"}


def test_synth_offsets_count_mismatch_is_exit_2(tmp_path):
    result = run_cli(
        "synth", "--labels", 3, "--offsets", "1,2", "--out", tmp_path / "x",
    )
    assert result.exit_code == 2
    assert "error:" in result.stderr


@pytest.mark.parametrize(
    "flags, field",
    [(("--noise-sd", "inf"), "noise_sd"), (("--labels", 2, "--offsets", "nan,1"), "offsets")],
)
def test_synth_non_finite_parameters_are_exit_2_before_any_file(tmp_path, flags, field):
    result = run_cli("synth", *flags, "--length", 8, "--out", tmp_path / "x")
    assert result.exit_code == 2
    assert field in result.stderr
    assert not (tmp_path / "x").exists()


def test_synth_overflowing_spec_is_exit_2_without_runtime_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_cli(
            "synth", "--labels", 2, "--offsets", "1e308,1e308", "--noise-sd", "1e308",
            "--participants", 2, "--length", 8, "--out", tmp_path / "x",
        )
    assert result.exit_code == 2, result.output
    assert "infinite" in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert not (tmp_path / "x").exists()


# --- perturb -----------------------------------------------------------------


def test_perturb_writes_noisy_corpus_and_report(manifest, tmp_path):
    out = tmp_path / "noisy"
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "cfpa",
        "--epsilon", 4.8, "--chunk-size", 8, "--seed", 5, "--out", out,
    )
    assert result.exit_code == 0, result.output
    # two features, summed; five chunks each, by max within one chunk and
    # by sum for a swap of the whole recording
    assert "total epsilon 9.6 per chunk, 48.0 per sequence" in result.stdout

    clean = load_corpus(manifest)
    noisy = load_corpus(out / MANIFEST_NAME)
    for a, b in zip(clean.matrices, noisy.matrices):
        assert a.values.shape == b.values.shape
        assert not np.array_equal(a.values, b.values)

    report = json.loads((out / REPORT_NAME).read_text())
    assert set(report) == {"l0", "l1"}
    assert all(r["chunk_total_epsilon"] == 9.6 for r in report.values())
    assert all(r["sequence_total_epsilon"] == 48.0 for r in report.values())


def test_perturb_rerun_is_byte_identical(manifest, tmp_path):
    base = ("perturb", "--manifest", manifest, "--mechanism", "dcfpa",
            "--epsilon", 2.4, "--chunk-size", 8, "--seed", 9)
    assert run_cli(*base, "--out", tmp_path / "a").exit_code == 0
    assert run_cli(*base, "--out", tmp_path / "b").exit_code == 0
    a, b = (_dir_bytes(tmp_path / d) for d in ("a", "b"))
    assert a == b


def test_unseeded_perturb_cannot_be_reproduced(manifest, tmp_path):
    # Without --seed the noise root is fresh OS entropy that nothing
    # prints or stores: two runs differ from each other and from the
    # --seed 0 release, and only the noisy CSVs differ, so no written
    # file holds the root. A seeded release warns who can undo it.
    base = ("perturb", "--manifest", manifest, "--mechanism", "cfpa", "--epsilon", 2.4,
            "--chunk-size", 8)
    runs = {"a": (), "b": (), "seed0": ("--seed", 0)}
    for name, seed in runs.items():
        result = run_cli(*base, *seed, "--out", tmp_path / name)
        assert result.exit_code == 0, result.output
        assert ("anyone who learns --seed" in result.stderr) == bool(seed), name
    written = {name: _dir_bytes(tmp_path / name) for name in runs}
    report = written["a"][Path(REPORT_NAME)]
    assert b"seed" not in report and b"seed" not in written["a"][Path(MANIFEST_NAME)]
    for x, y in (("a", "b"), ("a", "seed0"), ("b", "seed0")):
        assert written[x].keys() == written[y].keys()
        for path, data in written[x].items():
            assert (data == written[y][path]) == (path.suffix != ".csv"), (x, y, path)


def test_perturb_underflowing_noise_scale_is_exit_2(tmp_path):
    # Two recordings 5e-324 apart in one sample: lpa's scale for that
    # sensitivity at epsilon 4 rounds to 0, and the data would be released
    # unchanged under a report of epsilon 0.
    values = np.full((8, 1), 3000.0)
    values[3, 0] = 0.0
    near = values.copy()
    near[3, 0] = 5e-324
    write_corpus(
        Corpus(
            matrices=tuple(
                FeatureMatrix(f"r{i}", f"p{i}", {"category": "a"}, ("f00",), v)
                for i, v in enumerate((values, near))
            ),
            schema=("f00",),
        ),
        tmp_path / "tiny",
    )
    result = run_cli("perturb", "--manifest", tmp_path / "tiny" / MANIFEST_NAME,
                     "--mechanism", "lpa", "--epsilon", 4, "--out", tmp_path / "out")
    assert result.exit_code == 2, result.output
    assert "noise scale 0.0 for sensitivity 5e-324 underflows" in result.stderr
    assert not (tmp_path / "out" / REPORT_NAME).exists()


@pytest.mark.parametrize(
    "command",
    [
        ("perturb", "--mechanism", "cfpa", "--chunk-size", 16, "--epsilon", "1e-320"),
        ("sweep", "--mechanisms", "cfpa", "--chunk-sizes", 16, "--epsilons", "1e-320", "--runs", 2),
        ("tune-k", "--mechanism", "cfpa", "--chunk-size", 16, "--epsilon", "1e-320", "--runs", 2),
        ("perturb", "--mechanism", "lpa", "--epsilon", "1e-310"),
        ("sweep", "--mechanisms", "cfpa", "--chunk-sizes", 16, "--epsilons", "1e-300", "--runs", 2),
        ("tune-k", "--mechanism", "cfpa", "--chunk-size", 16, "--epsilon", "1e-300", "--runs", 2),
        ("sweep", "--mechanisms", "cfpa", "--chunk-sizes", 16, "--epsilons", "3e-152", "--runs", 2),
        ("tune-k", "--mechanism", "cfpa", "--chunk-size", 16, "--epsilon", "3e-152", "--runs", 2),
        ("perturb", "--mechanism", "lpa", "--epsilon", "1e-306", "--seed", 1),
        ("sweep", "--mechanisms", "lpa", "--epsilons", "1e-306", "--runs", 2),
    ],
    ids=["perturb", "sweep", "tune-k", "perturb-lpa", "sweep-1e-300", "tune-k-1e-300",
         "sweep-3e-152", "tune-k-3e-152", "perturb-lpa-1e-306", "sweep-lpa-1e-306"],
)
def test_overflowing_noise_scale_is_exit_2_without_output(tmp_path, command):
    # delta / epsilon is inf at the subnormal budgets: no noise scale
    # exists, so nothing may be released, scored or tuned. At 1e-300 the
    # scale is finite but its square is not, and at 3e-152 the square is
    # finite but a sum of squared errors is not: no score exists. At lpa's
    # 1e-306 the scale is finite but a scale times a draw is not: no
    # release exists.
    corpus = tmp_path / "corpus"
    made = run_cli(
        "synth", "--participants", 3, "--labels", 2, "--length", 64, "--features", 2,
        "--out", corpus,
    )
    assert made.exit_code == 0, made.output
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_cli(command[0], "--manifest", corpus / MANIFEST_NAME, *command[1:], "--out", out)
    assert result.exit_code == 2, result.output
    assert ("noise scale inf for sensitivity" in result.stderr
            or "the NMSE of a release overflows" in result.stderr
            or "the release overflows" in result.stderr)
    assert "overflows" in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert not out.exists()


def test_perturb_lpa_warns_and_ignores_chunk_size(manifest, tmp_path):
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "lpa",
        "--epsilon", 2.4, "--chunk-size", 8, "--out", tmp_path / "out",
    )
    assert result.exit_code == 0
    assert "ignored" in result.stderr


def test_perturb_uniform_k_caps_at_the_remainder_chunk(tmp_path):
    # --k is one count for every full chunk: the 8-sample remainder of a
    # 1000-sample signal in 32-sample chunks keeps at most its length,
    # and the report records the k it used. A k above a full chunk, or
    # above fpa's whole signal, is still exit 2.
    corpus = tmp_path / "corpus"
    result = run_cli(
        "synth", "--participants", 3, "--labels", 2, "--length", 1000, "--features", 2,
        "--out", corpus,
    )
    assert result.exit_code == 0, result.output
    result = run_cli(
        "perturb", "--manifest", corpus / MANIFEST_NAME, "--mechanism", "cfpa",
        "--chunk-size", 32, "--k", 10, "--epsilon", 1, "--seed", 1, "--out", tmp_path / "out",
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out" / REPORT_NAME).read_text())
    want = [(ci, 10 if ci < 31 else 8) for ci in range(32)] * 2
    for r in report.values():
        assert [(u["chunk_index"], u["k"]) for u in r["units"]] == want
    for args in (("cfpa", "--chunk-size", 32, "--k", 40), ("fpa", "--k", 2000)):
        result = run_cli(
            "perturb", "--manifest", corpus / MANIFEST_NAME, "--mechanism", *args,
            "--epsilon", 1, "--seed", 1, "--out", tmp_path / "bad",
        )
        assert result.exit_code == 2, (args, result.output)
        assert "out of range" in result.stderr
    assert not (tmp_path / "bad").exists()


def test_perturb_k_and_k_file_are_mutually_exclusive(manifest, tmp_path):
    k_path = tmp_path / "k8.csv"
    result = run_cli(
        "tune-k", "--manifest", manifest, "--chunk-size", 8,
        "--runs", 1, "--seed", 6, "--out", k_path,
    )
    assert result.exit_code == 0, result.output
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "cfpa", "--epsilon", 2.4,
        "--chunk-size", 8, "--k", 3, "--k-file", k_path, "--out", tmp_path / "out",
    )
    assert result.exit_code == 2, result.output
    assert "mutually exclusive" in result.stderr
    assert not (tmp_path / "out").exists()


def test_perturb_lpa_rejects_retention_flags(manifest, tmp_path):
    # lpa keeps no coefficients, so a retention count would be ignored
    k_path = tmp_path / "k.csv"
    result = run_cli(
        "tune-k", "--manifest", manifest, "--chunk-size", 8,
        "--runs", 1, "--seed", 6, "--out", k_path,
    )
    assert result.exit_code == 0, result.output
    for flag, value in (("--k", 3), ("--k-file", k_path)):
        result = run_cli(
            "perturb", "--manifest", manifest, "--mechanism", "lpa", "--epsilon", 2.4,
            flag, value, "--out", tmp_path / "out",
        )
        assert result.exit_code == 2, (flag, result.output)
        assert f"{flag} does not apply to lpa" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mechanism, flag", [("lpa", "--symmetric")])
def test_perturb_rejects_variant_flags_the_mechanism_ignores(manifest, tmp_path, mechanism, flag):
    # lpa keeps no coefficients to complete, so the flag would change nothing
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", mechanism, "--epsilon", 2.4,
        "--chunk-size", 8, flag, "--out", tmp_path / "out",
    )
    assert result.exit_code == 2, result.output
    assert f"does not apply to {mechanism}" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [("perturb", "--mechanism", "lpa", "--epsilon", 2.4, "--jobs", 2, "--out"),
     ("tune-k", "--chunk-size", 8, "--runs", 1, "--jobs", 2, "--out"),
     ("classify", "--mechanism", "cfpa", "--out-dir"),
     ("classify", "--epsilon", 4.8, "--out-dir"),
     ("classify", "--chunk-size", 32, "--out-dir")],
    ids=["perturb-jobs", "tune-k-jobs", "classify-mechanism", "classify-epsilon",
         "classify-chunk-size"],
)
def test_options_that_changed_no_result_are_gone(manifest, tmp_path, args):
    # perturb and tune-k load and release on one thread; classify's
    # annotations only copied unchecked text into summary.csv
    command, *flags, out_flag = args
    result = run_cli(command, "--manifest", manifest, *flags, out_flag, tmp_path / "out")
    assert result.exit_code == 2, result.output
    assert "No such option" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--conservative", "--literal-reconstruct"])
def test_perturb_accounting_and_reconstruction_flags_are_gone(manifest, tmp_path, flag):
    # the report always carries the sequence figure, and dcfpa has one
    # reconstruction, the running sum
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "dcfpa", "--epsilon", 2.4,
        "--chunk-size", 8, flag, "--out", tmp_path / "out",
    )
    assert result.exit_code == 2, result.output
    assert "No such option" in result.stderr
    assert not (tmp_path / "out").exists()


def test_perturb_sensitivity_file_is_an_unknown_option(manifest, tmp_path):
    # perturb calibrates only to the sensitivities of the corpus it
    # releases; a file could lower the noise under the same report
    sens = tmp_path / "sens.csv"
    sens.write_text("feature,chunk,domain,norm,value,group,chunk_size,length\n")
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "cfpa", "--epsilon", 2.4,
        "--chunk-size", 8, "--sensitivity-file", sens, "--out", tmp_path / "out",
    )
    assert result.exit_code == 2, result.output
    assert "No such option" in result.stderr
    assert not (tmp_path / "out").exists()


def test_perturb_bad_epsilon_is_exit_2(manifest, tmp_path):
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "lpa",
        "--epsilon", -1.0, "--out", tmp_path / "out",
    )
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_synth_over_a_release_removes_its_report(manifest, tmp_path):
    out = tmp_path / "d"
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "lpa", "--epsilon", 2.4,
        "--out", out,
    )
    assert result.exit_code == 0, result.output
    assert (out / REPORT_NAME).exists()
    result = run_cli(
        "synth", "--participants", 3, "--labels", 2, "--length", 40, "--features", 2,
        "--seed", 7, "--out", out,
    )
    assert result.exit_code == 0, result.output
    assert not (out / REPORT_NAME).exists()


def test_synth_over_a_larger_release_leaves_only_its_own_files(tmp_path):
    synth = ("synth", "--labels", 2, "--length", 40, "--features", 2, "--seed", 7)
    result = run_cli(*synth, "--participants", 4, "--out", tmp_path / "src")
    assert result.exit_code == 0, result.output
    out = tmp_path / "f"
    result = run_cli(
        "perturb", "--manifest", tmp_path / "src" / MANIFEST_NAME, "--mechanism", "lpa",
        "--epsilon", 2.4, "--out", out,
    )
    assert result.exit_code == 0, result.output
    assert len(list(out.glob("*.csv"))) == 8
    result = run_cli(*synth, "--participants", 2, "--out", out)
    assert result.exit_code == 0, result.output
    listed = {r["path"] for r in json.loads((out / MANIFEST_NAME).read_text())["recordings"]}
    assert len(listed) == 4
    assert {p.name for p in out.iterdir()} == listed | {MANIFEST_NAME, "schema.txt"}


def test_synth_and_perturb_refuse_a_non_empty_directory_without_a_manifest(manifest, tmp_path):
    # no manifest vouches for the files there: nothing is written or removed
    out = tmp_path / "d"
    out.mkdir()
    (out / "notes.csv").write_text("keep")
    for args in (
        ("synth", "--participants", 2, "--labels", 2, "--length", 8, "--features", 2),
        ("perturb", "--manifest", manifest, "--mechanism", "lpa", "--epsilon", 2.4),
    ):
        result = run_cli(*args, "--out", out)
        assert result.exit_code == 2, result.output
        assert f"holds no {MANIFEST_NAME}" in result.stderr
        assert [p.name for p in out.iterdir()] == ["notes.csv"]
        assert (out / "notes.csv").read_text() == "keep"


def test_perturb_corrupt_cell_is_exit_3(corpus_dir, tmp_path):
    broken_dir = tmp_path / "broken"
    broken_dir.mkdir()
    for p in corpus_dir.iterdir():
        (broken_dir / p.name).write_bytes(p.read_bytes())
    target = next(broken_dir.glob("p00*.csv"))
    text = target.read_text().splitlines()
    cells = text[2].split(",")
    cells[0] = "oops"
    text[2] = ",".join(cells)
    target.write_text("\n".join(text) + "\n")
    result = run_cli(
        "perturb", "--manifest", broken_dir / MANIFEST_NAME, "--mechanism", "lpa",
        "--epsilon", 2.4, "--out", tmp_path / "out",
    )
    assert result.exit_code == 3
    assert "row 3" in result.stderr


def _copy_corpus(corpus_dir, to):
    to.mkdir()
    for p in corpus_dir.iterdir():
        (to / p.name).write_bytes(p.read_bytes())
    return to / MANIFEST_NAME


def test_perturb_malformed_manifest_is_exit_3(corpus_dir, tmp_path):
    manifest = _copy_corpus(corpus_dir, tmp_path / "broken")
    raw = json.loads(manifest.read_text())
    raw["recordings"][0]["trim"] = [5]
    manifest.write_text(json.dumps(raw))
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "lpa",
        "--epsilon", 2.4, "--out", tmp_path / "out",
    )
    assert result.exit_code == 3
    assert "malformed manifest" in result.stderr


@pytest.mark.parametrize(
    "field, value",
    [
        ("recording_id", "../escaped"),
        ("recording_id", "sub/x"),
        ("trim", [0.9, 2.7]),
        ("trim", ["0", "3"]),
        ("excluded_features", "f0"),
        ("excluded_features", ["nope"]),
        ("step_seconds", math.inf),
    ],
)
def test_perturb_bad_manifest_fields_are_exit_3_before_any_write(corpus_dir, tmp_path, field, value):
    # A recording id is a file name in --out, trim bounds are integers,
    # excluded_features lists schema names, and step_seconds is finite
    # (json writes inf as Infinity, which strict parsers reject); anything
    # else is bad input (exit 3), found before the release writes a file.
    manifest = _copy_corpus(corpus_dir, tmp_path / "in")
    raw = json.loads(manifest.read_text())
    target = raw if field in ("excluded_features", "step_seconds") else raw["recordings"][0]
    target[field] = value
    manifest.write_text(json.dumps(raw))
    (tmp_path / "work").mkdir()
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "lpa",
        "--epsilon", 2.4, "--out", tmp_path / "work" / "out",
    )
    assert result.exit_code == 3, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert list((tmp_path / "work").iterdir()) == []


def test_perturb_non_utf8_schema_is_exit_3(corpus_dir, tmp_path):
    manifest = _copy_corpus(corpus_dir, tmp_path / "broken")
    schema = manifest.parent / json.loads(manifest.read_text())["schema"]
    schema.write_bytes(schema.read_bytes() + b"\xff\n")
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "lpa",
        "--epsilon", 2.4, "--out", tmp_path / "out",
    )
    assert result.exit_code == 3
    assert "UTF-8" in result.stderr


# --- sweep ---------------------------------------------------------------------


def test_sweep_small_grid(manifest, tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_cli(
        "sweep", "--manifest", manifest, "--mechanisms", "lpa,cfpa",
        "--epsilons", "2.4,24", "--chunk-sizes", "8", "--runs", 2,
        "--seed", 4, "--out", out,
    )
    assert result.exit_code == 0, result.output
    sweep = read_sweep_csv(out)
    assert len(sweep.rows) == 4
    high, low = (sweep_row(sweep, "cfpa", 8, e).mean_utility for e in (24.0, 2.4))
    assert high > low


def test_sweep_rerun_and_jobs_are_byte_identical(manifest, tmp_path):
    base = ("sweep", "--manifest", manifest, "--mechanisms", "dcfpa",
            "--epsilons", "4.8", "--chunk-sizes", "8", "--runs", 2, "--seed", 4)
    assert run_cli(*base, "--out", tmp_path / "a.csv").exit_code == 0
    assert run_cli(*base, "--out", tmp_path / "b.csv").exit_code == 0
    assert run_cli(*base, "--jobs", 4, "--out", tmp_path / "c.csv").exit_code == 0
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


@pytest.mark.parametrize(
    "grid, named",
    [
        (("cfpa,cfpa", "16,16", "1,1"), "repeated mechanism 'cfpa'"),
        (("cfpa", "16,8,16", "1"), "repeated chunk size 16"),
        (("lpa,cfpa", "8", "2.4,1,2.4"), "repeated epsilon 2.4"),
    ],
)
def test_sweep_repeated_grid_values_are_exit_2(manifest, tmp_path, grid, named):
    # A repeated value would release the same cells again and write
    # duplicate rows.
    mechanisms, chunk_sizes, epsilons = grid
    out = tmp_path / "sweep.csv"
    result = run_cli(
        "sweep", "--manifest", manifest, "--mechanisms", mechanisms,
        "--chunk-sizes", chunk_sizes, "--epsilons", epsilons, "--runs", 2, "--out", out,
    )
    assert result.exit_code == 2, result.output
    assert named in result.stderr
    assert not out.exists()


def test_synth_bad_step_seconds_is_exit_2_before_any_file(tmp_path):
    out = tmp_path / "x"
    synth = ("synth", "--participants", 2, "--labels", 2, "--length", 8, "--features", 2)
    for bad in ("0", "-1", "nan", "inf"):
        result = run_cli(*synth, "--step-seconds", bad, "--out", out)
        assert result.exit_code == 2, (bad, result.output)
        assert "step_seconds" in result.stderr
        assert not out.exists()
    # nothing was half-written, so a valid rerun into the same --out works
    result = run_cli(*synth, "--step-seconds", 0.25, "--out", out)
    assert result.exit_code == 0, result.output
    assert json.loads((out / MANIFEST_NAME).read_text())["step_seconds"] == 0.25


@pytest.mark.parametrize(
    "flags", [("--config", "sweep.json"), ("--tune",), ("--tune-epsilon", 4.8),
              ("--tune-runs", 2), ("--tune-mechanism", "cfpa")],
)
def test_sweep_config_and_tune_flags_are_gone(manifest, tmp_path, flags):
    # settings come from flags alone, and tuned counts from tune-k's file
    result = run_cli(
        "sweep", "--manifest", manifest, "--mechanisms", "lpa", "--runs", 1, *flags,
        "--out", tmp_path / "x.csv",
    )
    assert result.exit_code == 2, result.output
    assert "No such option" in result.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "mechanism, chunk_size", [("cfpa", 32), ("fpa", None)], ids=["cfpa32", "fpa"]
)
def test_sweep_k_file_from_tune_k_equals_the_library_tune_then_sweep(
    manifest, tmp_path, mechanism, chunk_size
):
    # a tuned sweep is tune-k under its own seed, then sweep --k-file
    from privseq.metrics import run_sweep, write_sweep_csv
    from privseq.noise import NoiseSource
    from privseq.tuning import tune_corpus

    size_args = () if chunk_size is None else ("--chunk-size", chunk_size)
    result = run_cli(
        "tune-k", "--manifest", manifest, "--mechanism", mechanism, *size_args,
        "--runs", 3, "--seed", 6, "--out", tmp_path / "k.csv",
    )
    assert result.exit_code == 0, result.output
    result = run_cli(
        "sweep", "--manifest", manifest, "--mechanisms", f"lpa,{mechanism}",
        "--epsilons", "2.4,24", "--chunk-sizes", 32, "--runs", 2, "--seed", 4,
        "--k-file", tmp_path / "k.csv", "--out", tmp_path / "cli.csv",
    )
    assert result.exit_code == 0, result.output

    corpus = load_corpus(manifest)
    table = tune_corpus(corpus, "category", chunk_size, mechanism, 4.8, 3, NoiseSource(6))
    write_sweep_csv(
        run_sweep(
            corpus, "category", NoiseSource(4), mechanisms=("lpa", mechanism),
            epsilons=(2.4, 24.0), chunk_sizes=(32,), runs=2, k_table=table,
        ),
        tmp_path / "lib.csv",
    )
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
    # the tune kept fewer than all coefficients somewhere, so the file mattered
    assert any(
        k < table.plans[label].chunk_lengths()[ci] for (label, _, ci), k in table.entries.items()
    )


# --- tune-k ----------------------------------------------------------------------


def test_tune_k_writes_reusable_table(manifest, tmp_path):
    k_path = tmp_path / "k.csv"
    result = run_cli(
        "tune-k", "--manifest", manifest, "--chunk-size", 8,
        "--runs", 2, "--seed", 6, "--out", k_path,
    )
    assert result.exit_code == 0, result.output
    table = load_k_csv(k_path)
    assert sorted(table.plans) == ["l0", "l1"]
    assert all(1 <= k <= 8 for k in table.entries.values())

    out = tmp_path / "noisy"
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "cfpa",
        "--epsilon", 2.4, "--chunk-size", 8, "--k-file", k_path, "--out", out,
    )
    assert result.exit_code == 0, result.output

    sweep_out = tmp_path / "k_sweep.csv"
    result = run_cli(
        "sweep", "--manifest", manifest, "--mechanisms", "cfpa",
        "--epsilons", "2.4", "--chunk-sizes", "8", "--runs", 1,
        "--k-file", k_path, "--out", sweep_out,
    )
    assert result.exit_code == 0, result.output


def test_perturb_k_file_must_match_the_chunk_plan(manifest, tmp_path):
    k_path = tmp_path / "k8.csv"
    result = run_cli(
        "tune-k", "--manifest", manifest, "--chunk-size", 8,
        "--runs", 2, "--seed", 6, "--out", k_path,
    )
    assert result.exit_code == 0, result.output
    for mechanism, size in (("cfpa", 16), ("dcfpa", 16), ("fpa", None)):
        size_args = () if size is None else ("--chunk-size", size)
        result = run_cli(
            "perturb", "--manifest", manifest, "--mechanism", mechanism,
            "--epsilon", 2.4, *size_args, "--k-file", k_path, "--out", tmp_path / "noisy",
        )
        assert result.exit_code == 2, (mechanism, result.output)
        assert "tuned for chunk size 8 over length 40" in result.stderr

    # a group the k file does not cover would silently keep every coefficient
    partial = tmp_path / "k8_l0.csv"
    lines = k_path.read_text().splitlines(keepends=True)
    partial.write_text("".join(lines[:1] + [l for l in lines[1:] if l.startswith("l0,")]))
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "cfpa", "--epsilon", 2.4,
        "--chunk-size", 8, "--k-file", partial, "--out", tmp_path / "noisy_partial",
    )
    assert result.exit_code == 2, result.output
    assert "no k table entries for label 'l1'" in result.stderr

    # a k file without the plan columns cannot say which chunking it indexes
    old = tmp_path / "old_k.csv"
    old.write_text("group_label,feature,chunk_index,k,runs_used,epsilon_used\n"
                   "l0,f00,0,1,2,4.8\n")
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "cfpa", "--epsilon", 2.4,
        "--chunk-size", 8, "--k-file", old, "--out", tmp_path / "noisy_old",
    )
    assert result.exit_code == 3
    assert "expected header" in result.stderr


@pytest.mark.parametrize("fault", [None, "k 0", "k over", "plan", "mechanism", "group"])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_perturb_k_file_report_matches_the_core(manifest, fault, data):
    # Random k files through perturb: valid ones, out-of-range k, another
    # plan, another mechanism, a missing group. A faulty file exits 2 or 3
    # without a report; otherwise every unit of report.json carries the
    # loaded corpus's own sensitivity, the file's k and fpa_lambda of the
    # chunk.
    mechanism = data.draw(st.sampled_from(("fpa", "cfpa", "dcfpa")), label="mechanism")
    size = None if mechanism == "fpa" else data.draw(st.sampled_from((8, 16)), label="size")
    epsilon = data.draw(st.sampled_from((0.5, 2.4, 48.0)), label="epsilon")
    config = MechanismConfig(mechanism=mechanism, epsilon=epsilon, chunk_size=size)
    plan = config.plan_for(40)
    tuned_for, tuned_plan, groups = mechanism, plan, ("l0", "l1")
    if fault == "mechanism":
        tuned_for = data.draw(st.sampled_from(sorted({"fpa", "cfpa", "dcfpa"} - {mechanism})))
    elif fault == "plan":
        other = data.draw(st.sampled_from(sorted({8, 16, 40} - {plan.chunk_size})))
        tuned_plan = chunk_plan(40, other)
    elif fault == "group":
        groups = data.draw(st.sampled_from((("l0",), ("l1",))))
    corpus = load_corpus(manifest)
    tuned_lengths = tuned_plan.chunk_lengths()
    ks = {
        (label, feature, ci): data.draw(st.integers(1, c), label=f"k {label} {feature} {ci}")
        for label in groups
        for feature in corpus.schema
        for ci, c in enumerate(tuned_lengths)
    }
    if fault in ("k 0", "k over"):
        key = data.draw(st.sampled_from(sorted(ks)), label="bad key")
        ks[key] = 0 if fault == "k 0" else tuned_lengths[key[2]] + 1

    with tempfile.TemporaryDirectory() as tmp:
        k_path, out = Path(tmp) / "k.csv", Path(tmp) / "out"
        k_path.write_text("group_label,feature,chunk_index,k,runs_used,epsilon_used,"
                          "chunk_size,length,mechanism\n" + "".join(
            f"{label},{feature},{ci},{k},2,4.8,{tuned_plan.chunk_size},40,{tuned_for}\n"
            for (label, feature, ci), k in sorted(ks.items())
        ))
        size_args = () if size is None else ("--chunk-size", size)
        result = run_cli("perturb", "--manifest", manifest, "--mechanism", mechanism,
                         "--epsilon", epsilon, *size_args, "--k-file", k_path,
                         "--seed", 3, "--out", out)
        if fault is not None:
            # a k below 1 is a bad file (3); the others do not fit the run (2)
            assert result.exit_code == (3 if fault == "k 0" else 2), result.output
            assert not (out / REPORT_NAME).exists()
            return
        assert result.exit_code == 0, result.output
        report = json.loads((out / REPORT_NAME).read_text())

    assert sorted(report) == ["l0", "l1"]
    lengths = plan.chunk_lengths()
    for label, payload in report.items():
        table = build_group_table(
            corpus, "category", label, plan, norms=(2,), domains=(config.domain,)
        )
        noised = [
            (f, ci) for f in corpus.schema for ci in range(len(plan))
            if table.value(f, ci, config.domain, 2) > 0.0
        ]
        assert [(u["feature"], u["chunk_index"]) for u in payload["units"]] == noised
        for u in payload["units"]:
            delta = table.value(u["feature"], u["chunk_index"], config.domain, 2)
            k = ks[(label, u["feature"], u["chunk_index"])]
            assert (u["sensitivity"], u["k"], u["epsilon"]) == (delta, k, epsilon)
            assert u["lambda"] == fpa_lambda(lengths[u["chunk_index"]], k, delta, epsilon)


def test_tune_k_fpa_tunes_the_whole_signal_plan(manifest, tmp_path):
    # fpa releases each group as one whole-signal chunk, so its table is
    # tuned on that plan and perturb and sweep accept it; --chunk-size is
    # ignored, with a warning.
    k_path = tmp_path / "k_fpa.csv"
    result = run_cli(
        "tune-k", "--manifest", manifest, "--mechanism", "fpa", "--chunk-size", 8,
        "--runs", 1, "--seed", 6, "--out", k_path,
    )
    assert result.exit_code == 0, result.output
    assert "--chunk-size is ignored by fpa" in result.stderr
    table = load_k_csv(k_path)
    assert {(p.chunk_size, p.total_length) for p in table.plans.values()} == {(40, 40)}
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "fpa", "--epsilon", 2.4,
        "--k-file", k_path, "--out", tmp_path / "noisy",
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "noisy" / REPORT_NAME).read_text())
    for label, r in report.items():
        for u in r["units"]:
            assert u["k"] == table.entries[(label, u["feature"], u["chunk_index"])]
    result = run_cli(
        "sweep", "--manifest", manifest, "--mechanisms", "lpa,fpa", "--epsilons", "2.4",
        "--chunk-sizes", 8, "--runs", 1, "--k-file", k_path, "--out", tmp_path / "sweep.csv",
    )
    assert result.exit_code == 0, result.output
    assert len(read_sweep_csv(tmp_path / "sweep.csv").rows) == 2


def test_tune_k_chunk_size_is_required_only_where_it_applies(manifest, tmp_path):
    result = run_cli(
        "tune-k", "--manifest", manifest, "--mechanism", "fpa", "--runs", 1,
        "--out", tmp_path / "k_fpa.csv",
    )
    assert result.exit_code == 0, result.output
    assert "warning" not in result.stderr
    assert {p.chunk_size for p in load_k_csv(tmp_path / "k_fpa.csv").plans.values()} == {40}
    for mechanism in ("cfpa", "dcfpa"):
        result = run_cli(
            "tune-k", "--manifest", manifest, "--mechanism", mechanism, "--runs", 1,
            "--out", tmp_path / "k.csv",
        )
        assert result.exit_code == 2, (mechanism, result.output)
        assert f"{mechanism} requires a positive chunk_size" in result.stderr


def test_k_file_must_match_the_mechanism(manifest, tmp_path):
    # difference-domain counts are not counts for raw chunks of the same plan
    k_path = tmp_path / "k_dcfpa.csv"
    result = run_cli(
        "tune-k", "--manifest", manifest, "--mechanism", "dcfpa", "--chunk-size", 8,
        "--runs", 1, "--seed", 6, "--out", k_path,
    )
    assert result.exit_code == 0, result.output
    assert load_k_csv(k_path).mechanism == "dcfpa"
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "cfpa", "--epsilon", 2.4,
        "--chunk-size", 8, "--k-file", k_path, "--out", tmp_path / "noisy",
    )
    assert result.exit_code == 2, result.output
    assert "tuned for dcfpa" in result.stderr
    result = run_cli(
        "sweep", "--manifest", manifest, "--mechanisms", "cfpa", "--epsilons", "2.4",
        "--chunk-sizes", 8, "--runs", 1, "--k-file", k_path, "--out", tmp_path / "sweep.csv",
    )
    assert result.exit_code == 2, result.output
    assert "tuned for dcfpa" in result.stderr
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "dcfpa", "--epsilon", 2.4,
        "--chunk-size", 8, "--k-file", k_path, "--out", tmp_path / "noisy",
    )
    assert result.exit_code == 0, result.output

    # a file from before the mechanism column cannot say which release it tunes
    old = tmp_path / "old_k.csv"
    lines = k_path.read_text().splitlines()
    old.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
    result = run_cli(
        "perturb", "--manifest", manifest, "--mechanism", "dcfpa", "--epsilon", 2.4,
        "--chunk-size", 8, "--k-file", old, "--out", tmp_path / "noisy_old",
    )
    assert result.exit_code == 3
    assert "expected header" in result.stderr


def test_sweep_k_file_must_match_every_plan(manifest, tmp_path):
    # a chunk-8 table read as counts for 16-sample chunks, or for fpa's
    # whole-signal chunk, is not the retention it was tuned for
    k_path = tmp_path / "k8.csv"
    result = run_cli(
        "tune-k", "--manifest", manifest, "--chunk-size", 8,
        "--runs", 2, "--seed", 6, "--out", k_path,
    )
    assert result.exit_code == 0, result.output
    result = run_cli(
        "sweep", "--manifest", manifest, "--mechanisms", "cfpa,fpa",
        "--epsilons", "2.4", "--chunk-sizes", 16, "--runs", 1,
        "--k-file", k_path, "--out", tmp_path / "sweep.csv",
    )
    assert result.exit_code == 2, result.output
    assert "tuned for chunk size 8 over length 40" in result.stderr
    result = run_cli(
        "sweep", "--manifest", manifest, "--mechanisms", "lpa,cfpa",
        "--epsilons", "2.4", "--chunk-sizes", 8, "--runs", 1,
        "--k-file", k_path, "--out", tmp_path / "sweep8.csv",
    )
    assert result.exit_code == 0, result.output


# --- corr ------------------------------------------------------------------------


def test_corr_writes_per_label_curves(manifest, tmp_path):
    out_dir = tmp_path / "curves"
    result = run_cli(
        "corr", "--manifest", manifest, "--feature", "f00", "--out-dir", out_dir,
    )
    assert result.exit_code == 0, result.output
    assert "0.5" in result.stdout  # synth default step-seconds
    for label in ("l0", "l1"):
        lines = (out_dir / f"corr_f00_{label}.csv").read_text().splitlines()
        assert lines[0] == "delta_t,r"
        assert len(lines) == 12
        assert float(lines[1].split(",")[1]) == 1.0


def test_corr_difference_domain(manifest, tmp_path):
    result = run_cli(
        "corr", "--manifest", manifest, "--feature", "f01",
        "--domain", "difference", "--out-dir", tmp_path,
    )
    assert result.exit_code == 0, result.output


def test_corr_unknown_feature_is_exit_2(manifest, tmp_path):
    result = run_cli(
        "corr", "--manifest", manifest, "--feature", "nope", "--out-dir", tmp_path,
    )
    assert result.exit_code == 2


# --- classify ----------------------------------------------------------------------


def test_classify_clean_corpus_is_perfect(manifest, tmp_path):
    out_dir = tmp_path / "clf"
    result = run_cli(
        "classify", "--manifest", manifest, "--window", 10, "--neighbors", 3,
        "--seed", 2, "--out-dir", out_dir,
    )
    assert result.exit_code == 0, result.output

    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "label_kind,mode,accuracy"
    cells = summary[1].split(",")
    assert cells[0] == "category"
    assert cells[1] == "majority"
    assert float(cells[2]) == 1.0

    folds = (out_dir / "folds.csv").read_text().splitlines()
    assert len(folds) == 4  # header + 3 participants
    assert folds[0].startswith("fold,held_out_participant")


def test_classify_instance_mode(manifest, tmp_path):
    result = run_cli(
        "classify", "--manifest", manifest, "--window", 10, "--neighbors", 3,
        "--no-majority", "--out-dir", tmp_path,
    )
    assert result.exit_code == 0, result.output
    cells = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
    assert cells[1] == "instance"
    assert float(cells[2]) == 1.0


def test_classify_too_many_neighbors_is_exit_2(manifest, tmp_path):
    result = run_cli(
        "classify", "--manifest", manifest, "--window", 10, "--neighbors", 500,
        "--out-dir", tmp_path,
    )
    assert result.exit_code == 2
