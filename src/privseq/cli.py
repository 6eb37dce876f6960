"""Command-line front end.

Commands cover the full workflow: generate a synthetic corpus, release a
privatized copy with its epsilon report, sweep utility across budget
grids, tune retention counts, inspect correlation structure, and score
downstream classification.

Every command is deterministic given its flags and --seed; running one
twice produces byte-identical outputs. perturb is the exception: without
--seed its noise comes from fresh OS entropy that is never printed or
stored, since anyone who knows a release's seed can remove its noise.
Exit codes: 0 success, 2 usage or configuration error, 3 data error, 4
internal invariant failure.
"""
from __future__ import annotations

import csv
import functools
import logging
import os
import sys

import click
import numpy as np

from privseq import classify as classify_mod
from privseq import dataio, metrics, tuning
from privseq.core import (
    ConfigurationError,
    DataError,
    InternalInvariantError,
    ParameterError,
)
from privseq.mechanisms import MECHANISMS, MechanismConfig, perturb_corpus
from privseq.noise import NoiseSource
from privseq.transform import diff_transform

__all__ = ["main"]

_SEED_OPT = click.option(
    "--seed",
    type=click.IntRange(min=0),
    default=0,
    show_default=True,
    help="Root seed; all randomness derives from it.",
)
_LABEL_KIND_OPT = click.option(
    "--label-kind",
    default="category",
    show_default=True,
    help="Which label map entry defines the participant groups.",
)


def _handled(fn):
    """Map library errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ParameterError, ConfigurationError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except DataError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except InternalInvariantError as exc:
            click.echo(f"internal invariant violated: {exc}", err=True)
            sys.exit(4)

    return wrapper


def _split_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ParameterError(f"{what} must be comma-separated numbers, got {text!r}")
    if not values:
        raise ParameterError(f"{what} is empty")
    return values


def _split_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ParameterError(f"{what} must be comma-separated integers, got {text!r}")
    if not values:
        raise ParameterError(f"{what} is empty")
    return values


def _split_names(text: str, what: str) -> tuple[str, ...]:
    values = tuple(v.strip() for v in text.split(",") if v.strip())
    if not values:
        raise ParameterError(f"{what} is empty")
    return values


@click.group()
def main() -> None:
    """Differentially private release of correlated time series."""
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")


@main.command()
@click.option("--participants", type=click.IntRange(min=1), default=20, show_default=True)
@click.option(
    "--labels",
    default="3",
    show_default=True,
    help="Label count, or comma-separated label names.",
)
@click.option("--recordings-per-label", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--length", type=click.IntRange(min=1), default=1024, show_default=True)
@click.option("--features", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--rho", type=click.FloatRange(0.0, 1.0, max_open=True), default=0.95, show_default=True)
@click.option(
    "--offsets",
    default=None,
    help="Comma-separated per-label mean offsets [default: 300 apart around 3000].",
)
@click.option("--noise-sd", type=float, default=1.0, show_default=True)
@click.option("--step-seconds", type=float, default=0.5, show_default=True)
@_SEED_OPT
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_handled
def synth(
    participants, labels, recordings_per_label, length, features, rho, offsets,
    noise_sd, step_seconds, seed, out_dir,
) -> None:
    """Generate a correlated synthetic corpus and write it to a directory."""
    if labels.replace(",", "").isdigit() and "," not in labels:
        label_names = tuple(f"l{i}" for i in range(int(labels)))
    else:
        label_names = _split_names(labels, "--labels")
    if offsets is None:
        base = 3000.0
        span = 300.0
        mid = (len(label_names) - 1) / 2.0
        offset_values = tuple(base + span * (i - mid) for i in range(len(label_names)))
    else:
        offset_values = _split_floats(offsets, "--offsets")
    spec = dataio.SynthSpec(
        participants=participants,
        recordings_per_label=recordings_per_label,
        labels=label_names,
        length=length,
        features=features,
        ar_coefficient=rho,
        offsets=offset_values,
        noise_sd=noise_sd,
        seed=seed,
    )
    corpus = dataio.synth_corpus(spec)
    dataio.write_corpus(corpus, out_dir, step_seconds=step_seconds)
    click.echo(
        f"wrote {len(corpus.matrices)} recordings "
        f"({participants} participants x {len(label_names)} labels x "
        f"{recordings_per_label}) to {out_dir}"
    )


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mechanism", required=True, type=click.Choice(MECHANISMS))
@click.option("--epsilon", required=True, type=float)
@click.option("--chunk-size", type=click.IntRange(min=1), default=None)
@click.option("--k", type=click.IntRange(min=1), default=None, help="Retained coefficients per chunk [default: chunk length]; not for lpa.")
@click.option("--k-file", type=click.Path(exists=True, dir_okay=False), default=None, help="Tuned retention table CSV, tuned for this run's mechanism and chunk plan and naming every group; excludes --k, not for lpa.")
@click.option("--clamp", is_flag=True, help="Zero negative outputs after noising.")
@click.option("--symmetric", is_flag=True, help="Conjugate-complete retained coefficients before inversion.")
@_LABEL_KIND_OPT
@click.option(
    "--seed",
    type=click.IntRange(min=0),
    default=None,
    help="Root seed of the noise, for a reproducible release; anyone who learns it can "
    "remove the noise [default: fresh OS entropy, never printed or stored].",
)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_handled
def perturb(
    manifest, mechanism, epsilon, chunk_size, k, k_file, clamp, symmetric,
    label_kind, seed, out_dir,
) -> None:
    """Privatize a corpus and write it with its epsilon report."""
    if k is not None and k_file is not None:
        raise ParameterError("--k and --k-file are mutually exclusive")
    if mechanism == "lpa" and (k is not None or k_file is not None):
        flag = "--k" if k is not None else "--k-file"
        raise ParameterError(f"{flag} does not apply to lpa, which keeps no coefficients")
    if mechanism in ("lpa", "fpa") and chunk_size is not None:
        click.echo(f"warning: --chunk-size is ignored by {mechanism}", err=True)
        chunk_size = None
    config = MechanismConfig(
        mechanism=mechanism,
        epsilon=epsilon,
        chunk_size=chunk_size,
        k=k,
        symmetric=symmetric,
        clamp=clamp,
    )
    loaded = dataio.read_manifest(manifest)
    corpus = dataio.load_corpus(loaded)
    k_table = tuning.load_k_csv(k_file) if k_file is not None else None
    if seed is None:
        src = NoiseSource(np.random.SeedSequence())
    else:
        src = NoiseSource(seed)
        click.echo("warning: anyone who learns --seed can regenerate and remove the noise", err=True)
    noisy, reports = perturb_corpus(corpus, label_kind, config, src, k_table=k_table)
    dataio.write_corpus(noisy, out_dir, step_seconds=loaded.step_seconds, reports=reports)
    for label, r in sorted(reports.items()):
        click.echo(
            f"group {label}: total epsilon {r.total_epsilon!r} per chunk, "
            f"{r.sequence_total_epsilon!r} per sequence"
        )
    click.echo(f"wrote {len(noisy.matrices)} privatized recordings to {out_dir}")


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mechanisms", "mechanisms_text", default=",".join(MECHANISMS), show_default=True, help="Comma-separated subset of the mechanisms.")
@click.option("--epsilons", "epsilons_text", default=",".join(f"{e:g}" for e in metrics.DEFAULT_EPSILONS), show_default=True, help="Comma-separated budgets.")
@click.option("--chunk-sizes", "chunk_sizes_text", default=",".join(map(str, metrics.DEFAULT_CHUNK_SIZES)), show_default=True, help="Comma-separated sizes.")
@click.option("--runs", type=click.IntRange(min=1), default=metrics.DEFAULT_RUNS, show_default=True, help="Noisy executions per cell.")
@click.option("--k-file", type=click.Path(exists=True, dir_okay=False), default=None, help="Tuned retention table CSV (from tune-k), tuned for every retaining row's mechanism and chunk plan.")
@_LABEL_KIND_OPT
@_SEED_OPT
@click.option(
    "--jobs",
    type=click.IntRange(min=1),
    default=None,
    help="Sweep worker threads [default: available cores]. Results do not depend on it.",
)
@click.option("--out", "out_path", default="sweep.csv", show_default=True, type=click.Path(dir_okay=False))
@_handled
def sweep(
    manifest, mechanisms_text, epsilons_text, chunk_sizes_text, runs, k_file,
    label_kind, seed, jobs, out_path,
) -> None:
    """Mean utility per (mechanism, chunk size, epsilon) over repeated runs."""
    mechanisms = _split_names(mechanisms_text, "--mechanisms")
    epsilons = _split_floats(epsilons_text, "--epsilons")
    chunk_sizes = _split_ints(chunk_sizes_text, "--chunk-sizes")
    corpus = dataio.load_corpus(manifest)
    result = metrics.run_sweep(
        corpus,
        label_kind,
        NoiseSource(seed),
        mechanisms=mechanisms,
        epsilons=epsilons,
        chunk_sizes=chunk_sizes,
        runs=runs,
        jobs=jobs if jobs is not None else (os.cpu_count() or 1),
        k_table=tuning.load_k_csv(k_file) if k_file is not None else None,
    )
    metrics.write_sweep_csv(result, out_path)
    click.echo(f"wrote {len(result.rows)} sweep rows to {out_path}")


@main.command(name="tune-k")
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--chunk-size", type=click.IntRange(min=1), default=None, help="Chunk size of the plan; required for cfpa and dcfpa, ignored by fpa.")
@click.option("--mechanism", type=click.Choice(("fpa", "cfpa", "dcfpa")), default="cfpa", show_default=True)
@click.option("--epsilon", type=float, default=4.8, show_default=True)
@click.option("--runs", type=click.IntRange(min=1), default=100, show_default=True)
@_LABEL_KIND_OPT
@_SEED_OPT
@click.option("--out", "out_path", default="k.csv", show_default=True, type=click.Path(dir_okay=False))
@_handled
def tune_k_cmd(manifest, chunk_size, mechanism, epsilon, runs, label_kind, seed, out_path) -> None:
    """Pick per-chunk retention counts on a reference corpus."""
    if mechanism == "fpa" and chunk_size is not None:
        click.echo("warning: --chunk-size is ignored by fpa", err=True)
        chunk_size = None
    elif mechanism != "fpa" and chunk_size is None:
        raise ParameterError(f"--chunk-size is required for {mechanism}")
    corpus = dataio.load_corpus(manifest)
    table = tuning.tune_corpus(
        corpus, label_kind, chunk_size, mechanism, epsilon, runs, NoiseSource(seed)
    )
    tuning.write_k_csv(table, out_path)
    click.echo(f"wrote {len(table.entries)} tuned entries to {out_path}")


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--feature", required=True)
@click.option("--reference", type=click.IntRange(min=0), default=5, show_default=True)
@click.option("--max-lag", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--domain", type=click.Choice(("raw", "difference")), default="raw", show_default=True)
@_LABEL_KIND_OPT
@click.option("--out-dir", default=".", show_default=True, type=click.Path(file_okay=False))
@_handled
def corr(manifest, feature, reference, max_lag, domain, label_kind, out_dir) -> None:
    """Per-label correlation curves of one feature across the group."""
    loaded = dataio.read_manifest(manifest)
    corpus = dataio.load_corpus(loaded)
    if feature not in corpus.schema:
        raise ParameterError(f"unknown feature {feature!r}")
    os.makedirs(out_dir, exist_ok=True)
    for label in corpus.label_values(label_kind):
        group = []
        for m in corpus.group(label_kind, label):
            col = m.column(feature)
            group.append(diff_transform(col) if domain == "difference" else col)
        curve = metrics.corr_curve(
            group, reference_index=reference, max_lag=max_lag,
            feature=feature, group_label=label,
        )
        path = os.path.join(out_dir, f"corr_{feature}_{label}.csv")
        metrics.write_correlation_csv(curve, path)
        click.echo(
            f"wrote {path} (each lag step spans {loaded.step_seconds!r} s)"
        )


@main.command(name="classify")
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--window", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--mean-pool", is_flag=True, help="Average each window instead of keeping its first row.")
@click.option("--neighbors", type=click.IntRange(min=1), default=11, show_default=True)
@click.option("--majority/--no-majority", default=True, show_default=True, help="Vote per recording across instances.")
@_LABEL_KIND_OPT
@_SEED_OPT
@click.option("--out-dir", default=".", show_default=True, type=click.Path(file_okay=False))
@_handled
def classify_cmd(
    manifest, window, mean_pool, neighbors, majority, label_kind, seed, out_dir,
) -> None:
    """Leave-one-person-out kNN accuracy of a (possibly privatized) corpus."""
    corpus = dataio.load_corpus(manifest)
    config = classify_mod.ClassifierConfig(
        window=window, mean_pool=mean_pool, neighbors=neighbors
    )
    folds, summary = classify_mod.lopo_cv(
        corpus, label_kind, config, majority=majority, src=NoiseSource(seed)
    )
    os.makedirs(out_dir, exist_ok=True)
    folds_path = os.path.join(out_dir, "folds.csv")
    with open(folds_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ("fold", "held_out_participant", "instances", "instance_accuracy", "voted_accuracy")
        )
        for i, fold in enumerate(folds):
            writer.writerow(
                [
                    i,
                    fold.held_out_participant,
                    len(fold.instance_predictions),
                    repr(fold.instance_accuracy),
                    "" if fold.voted_accuracy is None else repr(fold.voted_accuracy),
                ]
            )
    mode = "majority" if majority else "instance"
    accuracy = summary.voted_accuracy if majority else summary.instance_accuracy
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("label_kind", "mode", "accuracy"))
        writer.writerow([label_kind, mode, repr(accuracy)])
    click.echo(
        f"{mode} accuracy {accuracy!r} over {summary.folds} folds "
        f"(instance fold-mean {summary.instance_accuracy!r}, "
        f"pooled {summary.instance_accuracy_pooled!r})"
    )


if __name__ == "__main__":
    main()
