"""Shared test helpers.

released_row puts one signal through the release core at sensitivities
a test picks: the units perturb_corpus would decide for one (group,
feature) — the layout, the given sensitivities and their scales —
released by mechanisms._released on the 2n unit draws of one stream,
the draws perturb_corpus reads for that recording and feature.
read_sweep_csv reads back what metrics.write_sweep_csv wrote.
"""
import csv

import numpy as np

from privseq.mechanisms import FpaLayout, _draws, _released, _unit_scales
from privseq.metrics import SweepRow, UtilitySweep


def released_row(x, config, per_chunk, src):
    """x under config at per_chunk, one (sensitivity, k) per chunk of
    config.plan_for(len(x)); lpa takes one pair and ignores its k."""
    x = np.asarray(x, dtype=np.float64)[np.newaxis, :]
    deltas = [d for d, _ in per_chunk]
    layout = None
    if config.mechanism != "lpa":
        layout = FpaLayout(config.plan_for(x.shape[1]), [k for _, k in per_chunk])
    units = (layout, deltas, _unit_scales(layout, deltas, config.epsilon))
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
