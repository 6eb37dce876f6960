"""Shared test helpers.

released_row puts one signal through the release core at sensitivities
a test picks: the units mechanisms._feature_units decides for one
feature from a sensitivity table and a k table holding the given
values, released by mechanisms._released on the 2n unit draws of one
stream, the draws perturb_corpus reads for that recording and feature.
read_sweep_csv reads back what metrics.write_sweep_csv wrote, and
sweep_row finds one cell among a sweep's rows.
"""
import csv

import numpy as np

from privseq.mechanisms import _draws, _feature_units, _released
from privseq.metrics import SweepRow, UtilitySweep
from privseq.sensitivity import SensitivityTable


def released_row(x, config, per_chunk, src):
    """x under config at per_chunk, one (sensitivity, k) per chunk of
    config.plan_for(len(x)); lpa takes one pair and ignores its k."""
    x = np.asarray(x, dtype=np.float64)[np.newaxis, :]
    plan = config.plan_for(x.shape[1])
    sens = SensitivityTable(
        {("x", ci, config.domain, config.norm_order): d for ci, (d, _) in enumerate(per_chunk)},
        plan=plan,
    )
    ks = {("x", ci): k for ci, (_, k) in enumerate(per_chunk)}
    units = _feature_units(config, plan, sens, "x", ks, config.epsilon)
    return _released(x, _draws([src], x.shape[1]), config, units)[0, 0]


def read_sweep_csv(path):
    """The rows of a sweep CSV, every float parsed back from its repr."""
    with open(path, newline="", encoding="utf-8") as fh:
        return UtilitySweep(tuple(
            SweepRow(r["mechanism"], int(r["chunk_size"]) if r["chunk_size"] else None,
                     float(r["epsilon"]), float(r["mean_utility"]), float(r["mean_nmse"]),
                     int(r["runs"]), int(r["flagged_rows"]))
            for r in csv.DictReader(fh)
        ))


def sweep_row(sweep, mechanism, chunk_size, epsilon):
    """The one row of sweep for the cell (mechanism, chunk_size, epsilon)."""
    cell = (mechanism, chunk_size, epsilon)
    (row,) = [r for r in sweep.rows if (r.mechanism, r.chunk_size, r.epsilon) == cell]
    return row
