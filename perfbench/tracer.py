"""Span tracing of privseq's public functions, from outside the package.

A Tracer replaces each public entry point in WRAPPED with a wrapper that
records one span per call: name, layer, parent span, wall interval
(perf_counter), CPU time of the calling thread (thread_time) and work
counts read from the call's arguments or result. Spans stay in memory;
layer_metrics() folds them into the per-layer figures and tree() into a
span tree for the JSON file the runner writes at exit.

A name bound by `from ... import` is looked up in the importing module,
so installed() patches every public privseq module that binds the same
function object, not only its home module. Nothing inside src/ changes,
and only public names are touched.

Spans opened by pool worker threads have no parent on their own thread;
they are attached to the span open on the main thread when they start,
which is the call that submitted the work.
"""
from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable

from privseq import classify, dataio, mechanisms, metrics, noise, sensitivity, transform, tuning
from privseq.noise import NoiseSource

Counts = dict[str, int]


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _load_counts(fn, args, kwargs, result) -> Counts:
    manifest = _bound(fn, args, kwargs)["manifest"]
    if isinstance(manifest, dataio.CorpusManifest):
        base = manifest.base_dir
        files = [manifest.schema_path] + [r.file_path for r in manifest.recordings]
    else:
        base = os.path.dirname(os.fspath(manifest)) or "."
        with open(manifest, encoding="utf-8") as fh:
            raw = json.load(fh)
        files = [os.path.basename(manifest), raw["schema"]] + [r["path"] for r in raw["recordings"]]
    return {"bytes_read": _file_bytes(os.path.join(base, f) for f in files)}


def _write_counts(fn, args, kwargs, result) -> Counts:
    out_dir = os.fspath(_bound(fn, args, kwargs)["out_dir"])
    files = [os.path.join(out_dir, n) for n in (dataio.MANIFEST_NAME, dataio.SCHEMA_NAME, dataio.REPORT_NAME)]
    files += [os.path.join(out_dir, r.file_path) for r in result.recordings]
    return {"bytes_written": _file_bytes(files)}


def _pair_counts(fn, args, kwargs, result) -> Counts:
    group, plan = args[0], args[1]
    m = len(group)
    return {"calls": 1, "pairs": len(plan) * m * (m - 1) // 2}


def _transform_counts(fn, args, kwargs, result) -> Counts:
    rows, n = args[0].shape
    return {"calls": 1, "rows": rows, "direct_rows": rows if n & (n - 1) else 0}


def _draw_counts(fn, args, kwargs, result) -> Counts:
    return {"calls": 1, "draws": int(args[1])}


def _group_lengths(corpus, label_kind: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for m in corpus.matrices:
        label = m.labels[label_kind]
        out[label] = max(out.get(label, 0), m.length)
    return out


def _unit_counts(fn, args, kwargs, result) -> Counts:
    a = _bound(fn, args, kwargs)
    corpus, config = a["corpus"], a["config"]
    chunks = {
        label: len(config.plan_for(n)) for label, n in _group_lengths(corpus, a["label_kind"]).items()
    }
    features = len(corpus.included_features)
    return {"units": sum(chunks[m.labels[a["label_kind"]]] * features for m in corpus.matrices)}


def _candidate_counts(fn, args, kwargs, result) -> Counts:
    return {"candidates": _bound(fn, args, kwargs)["plan"].total_length}


def _cell_counts(fn, args, kwargs, result) -> Counts:
    a = _bound(fn, args, kwargs)
    corpus = a["corpus"]
    configs = sum(1 if m in ("lpa", "fpa") else len(a["chunk_sizes"]) for m in a["mechanisms"])
    cells = len(corpus.matrices) * len(corpus.included_features) * configs * len(a["epsilons"]) * a["runs"]
    return {"nmse_cells": cells, "flagged_cells": sum(r.flagged_rows for r in result.rows)}


def _query_counts(fn, args, kwargs, result) -> Counts:
    a = _bound(fn, args, kwargs)
    window = a["config"].window
    return {"queries": sum(math.ceil(m.length / window) for m in a["corpus"].matrices)}


# (owner, attribute, span name, layer, counter). Layers are privseq's modules.
WRAPPED = (
    (dataio, "load_corpus", "dataio.load", "dataio", _load_counts),
    (dataio, "write_corpus", "dataio.write", "dataio", _write_counts),
    (sensitivity, "build_group_table", "sensitivity.table", "sensitivity", None),
    (sensitivity, "chunk_sensitivities", "sensitivity.chunks", "sensitivity", _pair_counts),
    (transform, "dft_batch", "transform.fwd", "transform", _transform_counts),
    (transform, "idft_batch", "transform.inv", "transform", _transform_counts),
    (noise, "unit_laplace", "noise.laplace", "noise", _draw_counts),
    (NoiseSource, "derive", "noise.derive", "noise", None),
    (NoiseSource, "generator", "noise.generator", "noise", None),
    (mechanisms, "perturb_corpus", "mechanisms.perturb", "mechanisms", _unit_counts),
    (tuning, "tune_corpus", "tuning.corpus", "tuning", None),
    (tuning, "tune_k", "tuning.tune_k", "tuning", _candidate_counts),
    (metrics, "run_sweep", "metrics.sweep", "metrics", _cell_counts),
    (classify, "lopo_cv", "classify.lopo", "classify", _query_counts),
)

# Per-layer metrics, in BENCHMARK.json order: name -> unit.
LAYER_METRICS = {
    "dataio.load_s": "s",
    "dataio.write_s": "s",
    "dataio.bytes_read": "bytes",
    "dataio.bytes_written": "bytes",
    "sensitivity.s": "s",
    "sensitivity.calls": "count",
    "sensitivity.pairs": "count",
    "transform.fwd_s": "s",
    "transform.inv_s": "s",
    "transform.calls": "count",
    "transform.rows": "count",
    "transform.rows_per_call": "rows/call",
    "transform.direct_rows": "count",
    "noise.s": "s",
    "noise.calls": "count",
    "noise.draws": "count",
    "mechanisms.s": "s",
    "mechanisms.self_s": "s",
    "mechanisms.units": "count",
    "tuning.s": "s",
    "tuning.self_s": "s",
    "tuning.candidates": "count",
    "metrics.s": "s",
    "metrics.self_s": "s",
    "metrics.nmse_cells": "count",
    "metrics.flagged_cells": "count",
    "classify.s": "s",
    "classify.queries": "count",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
    "host.calib_s": "s",
    "host.calib_end_s": "s",
}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    covered, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered


def _public_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "privseq" and not any(
            part.startswith("_") for part in name.split(".")
        ):
            yield module


class Tracer:
    """Collects the spans of one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def call(self, name: str, layer: str, fn: Callable, /, *args, counts: Counts | None = None, **kwargs):
        """fn(*args, **kwargs) inside a span. `counts` is stored by
        reference, so a caller may fill it in after the call returns."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        sid = next(self._ids)
        stack.append(sid)
        c0, t0 = time.thread_time(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1, c1 = time.perf_counter(), time.thread_time()
            stack.pop()
            self.spans.append((sid, parent, name, layer, t0, t1, c1 - c0, {} if counts is None else counts,
                               threading.get_ident()))

    def _wrapper(self, fn: Callable, name: str, layer: str, counter) -> Callable:
        def traced(*args, **kwargs):
            counts: Counts = {}
            result = self.call(name, layer, fn, *args, counts=counts, **kwargs)
            if counter is not None:
                counts.update(counter(fn, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry of WRAPPED wherever privseq binds it, and put
        the original functions back on exit."""
        patched = []
        try:
            for owner, attr, name, layer, counter in WRAPPED:
                fn = getattr(owner, attr)
                traced = self._wrapper(fn, name, layer, counter)
                owners = [owner] if isinstance(owner, type) else [
                    m for m in _public_modules() if getattr(m, attr, None) is fn
                ]
                for target in owners:
                    setattr(target, attr, traced)
                    patched.append((target, attr, fn))
            yield self
        finally:
            for target, attr, fn in reversed(patched):
                setattr(target, attr, fn)

    def _self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that child spans cover.

        Children on pool threads also add the busy window of their
        thread (first child start to last child end) minus what those
        children cover: the worker's own time spent for the span.
        """
        children: dict[int, list[tuple]] = {}
        for span in self.spans:
            children.setdefault(span[1], []).append(span)
        out = {}
        for sid, _, _, _, t0, t1, _, _, thread in self.spans:
            kids = children.get(sid, ())
            own = (t1 - t0) - _covered([(k[4], k[5]) for k in kids], t0, t1)
            workers: dict[int, list[tuple[float, float]]] = {}
            for k in kids:
                if k[8] != thread:
                    workers.setdefault(k[8], []).append((k[4], k[5]))
            for intervals in workers.values():
                w0, w1 = min(a for a, _ in intervals), max(b for _, b in intervals)
                own += (w1 - w0) - _covered(intervals, w0, w1)
            out[sid] = own
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures over the spans held, as LAYER_METRICS names.

        `<layer>.s` sums the spans of a layer that have no ancestor in the
        same layer, so nested calls are not counted twice; with pool
        threads it is busy time summed over threads. `<layer>.self_s`
        sums self times. trace.unaccounted_s is the self time of the
        root "pass" spans: pass time spent outside every traced call.
        """
        by_id = {s[0]: s for s in self.spans}
        self_times = self._self_times()
        out: dict[str, float] = {
            name: 0 for name in LAYER_METRICS if not name.startswith(("trace.", "host."))
        }

        def outermost(span) -> bool:
            parent = by_id.get(span[1])
            while parent is not None:
                if parent[3] == span[3]:
                    return False
                parent = by_id.get(parent[1])
            return True

        unaccounted = 0.0
        for span in self.spans:
            sid, _, name, layer, t0, t1, _, counts, _ = span
            if layer == "bench":
                unaccounted += self_times[sid]
                continue
            if f"{layer}.self_s" in out:
                out[f"{layer}.self_s"] += self_times[sid]
            if name == "dataio.load":
                out["dataio.load_s"] += t1 - t0
            elif name == "dataio.write":
                out["dataio.write_s"] += t1 - t0
            elif name in ("transform.fwd", "transform.inv"):
                out[name + "_s"] += t1 - t0
            elif outermost(span) and f"{layer}.s" in out:
                out[f"{layer}.s"] += t1 - t0
            for key, value in counts.items():
                out[f"{layer}.{key}"] += value
        calls = out["transform.calls"]
        out["transform.rows_per_call"] = out["transform.rows"] / calls if calls else 0.0
        out["trace.unaccounted_s"] = unaccounted
        return out

    def tree(self) -> dict:
        """Span tree aggregated by call path: calls, wall, CPU and counts."""
        by_id = {s[0]: s for s in self.spans}
        nodes: dict[tuple[str, ...], dict] = {}
        for span in self.spans:
            path = [span[2]]
            parent = by_id.get(span[1])
            while parent is not None:
                path.append(parent[2])
                parent = by_id.get(parent[1])
            node = nodes.setdefault(tuple(reversed(path)), {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0})
            node["calls"] += 1
            node["wall_s"] += span[5] - span[4]
            node["cpu_s"] += span[6]
            for key, value in span[7].items():
                node[key] = node.get(key, 0) + value
        return {" > ".join(path): node for path, node in sorted(nodes.items())}
