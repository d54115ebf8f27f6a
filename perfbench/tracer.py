"""Traced CLI runs: spans around calls into each framebias module, and per-layer metrics.

Run as a script, it is a stand-in for ``python -m framebias.cli``::

    python tracer.py SPANS_JSON OP_ID -- eval --sim m.simm ...

It imports ``framebias.cli``, rebinds every public function named in ``WRAP``
in each framebias module that holds it (so ``cli.metrics_report`` and
``simulate.gt_rank`` are both traced), runs the command, and writes the spans
and counters to SPANS_JSON. Per-item helpers such as ``frame_length`` are left
alone: a wrapper would cost about as much as the call.

As a module, ``layer_metrics`` turns the span files of one op into the
per-layer metrics of ``PER_LAYER``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import defaultdict


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _size(path) -> int:
    return os.path.getsize(path)


# module -> {function: counter hook(args, result) -> {counter: amount}, or None}
WRAP = {
    "framebias.dataset": {
        "load_annotations": None,
        "parse_annotations": lambda a, r: {"dataset.parse_clips": len(r)},
        "build_class_index": None,
        "to_native_csv": lambda a, r: {"dataset.serialize_bytes": len(r.encode("utf-8"))},
    },
    "framebias.audit": {
        "class_stats": None,
        "discrepancy_table": None,
        "global_length_summary": None,
        "length_histogram": None,
        "histogram_csv": None,
    },
    "framebias.filtering": {
        "filter_margin": lambda a, r: {"filtering.removed_clips": r[1].removed_count},
        "filter_single_class": lambda a, r: {"filtering.removed_clips": r[1].removed_count},
        "sum_similarity_matrices": None,
    },
    "framebias.matrices": {
        "load_matrix": lambda a, r: {"matrices.load_bytes": _size(a[0])},
        "save_matrix": lambda a, r: {"matrices.save_bytes": _size(a[1])},
        "from_binary": None,
        "to_binary": None,
        "from_text": None,
        "to_text": None,
    },
    "framebias.metrics": {
        "metrics_report": None,
        "build_relevancy": lambda a, r: {"metrics.relevancy_bytes": r.values.nbytes},
        "ranking": lambda a, r: {"metrics.sort_elements": r.size},
        "ndcg_query": None,
        "average_precision": None,
        "gt_rank": None,
        "topk_avg_length": None,
        "recall_at_k": None,
        "ndcg_average": None,
        "map_average": None,
        "inspect_query": None,
    },
    "framebias.simulate": {
        "synth_dataset": None,
        "synth_similarity": None,
        "bias_sweep": lambda a, r: {"simulate.conditions": len(r)},
        "simulate": None,
        "single_class_ablation": None,
    },
    "framebias.reports": {
        "build_envelope": None,
        "write_report": lambda a, r: {"reports.write_bytes": _size(a[0])},
        "metrics_report_dict": None,
        "filter_report_dict": None,
        "histogram_dict": None,
    },
}

# SimilarityMatrix methods, also inherited by RelevancyMatrix.
WRAP_METHODS = {
    "__post_init__": ("matrices.SimilarityMatrix.__post_init__", lambda a, r: {"matrices.copy_bytes": a[0].values.nbytes}),
    "transposed": ("matrices.SimilarityMatrix.transposed", None),
}

# spans whose ru_maxrss rise is recorded as a counter
RSS_SPANS = {"matrices.load_matrix": "matrices.load_rss_mb", "metrics.metrics_report": "metrics.report_rss_mb"}


class Tracer:
    """Spans of one process, kept in memory and written once at exit.

    A span is ``[name, start, end, parent_index]`` with perf_counter times,
    which share CLOCK_MONOTONIC with run.py.
    """

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str, start: float) -> int:
        self.spans.append([name, start, 0.0, self.stack[-1]])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, hook):
        clock = time.perf_counter
        spans, stack, counters = self.spans, self.stack, self.counters
        rss_counter = RSS_SPANS.get(name)

        def traced(*args, **kwargs):
            rss0 = _maxrss_mb() if rss_counter else 0.0
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if rss_counter:
                counters[rss_counter] += _maxrss_mb() - rss0
            if hook is not None:
                for key, amount in hook(args, result).items():
                    counters[key] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every function in WRAP wherever a framebias module holds it."""
        from framebias.matrices import SimilarityMatrix

        wrappers = {}
        for module_name, functions in WRAP.items():
            module = sys.modules[module_name]
            layer = module_name.split(".")[1]
            for fn_name, hook in functions.items():
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = self.wrap(f"{layer}.{fn_name}", fn, hook)
        for module_name, module in list(sys.modules.items()):
            if module_name != "framebias" and not module_name.startswith("framebias."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        for method, (name, hook) in WRAP_METHODS.items():
            setattr(SimilarityMatrix, method, self.wrap(name, getattr(SimilarityMatrix, method), hook))

    def dump(self, path) -> None:
        record = {
            "op_id": self.op_id,
            "pid": os.getpid(),
            "counters": dict(self.counters),
            "spans": [[*span, self.op_id] for span in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, separators=(",", ":")))


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    spans_path, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON OP_ID -- CLI_ARGS...")
    tracer = Tracer(int(op_id))
    root = tracer.open("cli.main", start)
    try:
        index = tracer.open("cli.import", time.perf_counter())
        import framebias.cli

        tracer.close(index)
        tracer.install()
        return framebias.cli.main(cli_args)
    finally:
        tracer.close(root)
        tracer.dump(spans_path)


# --- per-layer metrics ---------------------------------------------------------

LAYERS = ("dataset", "audit", "filtering", "matrices", "metrics", "simulate", "reports", "cli")

# (metric, unit, better, kind, source)
#   time:    summed duration of spans of that name (outermost only when nested)
#   calls:   number of spans of that name
#   layer:   summed duration of the layer's outermost spans
#   self:    the layer's self time (span time minus child spans)
#   counter: the counter of that metric's name, recorded by the wrapper of source
#   other:   computed outside the per-name rules, by run.py or layer_metrics
PER_LAYER = [
    ("dataset.parse_s", "s", "lower", "time", "dataset.parse_annotations"),
    ("dataset.parse_clips", "count", "higher", "counter", "dataset.parse_annotations"),
    ("dataset.index_s", "s", "lower", "time", "dataset.build_class_index"),
    ("dataset.index_calls", "count", "lower", "calls", "dataset.build_class_index"),
    ("dataset.serialize_s", "s", "lower", "time", "dataset.to_native_csv"),
    ("dataset.serialize_bytes", "bytes", "lower", "counter", "dataset.to_native_csv"),
    ("dataset.self_s", "s", "lower", "self", "dataset"),
    ("audit.s", "s", "lower", "layer", "audit"),
    ("audit.class_stats_calls", "count", "lower", "calls", "audit.class_stats"),
    ("audit.self_s", "s", "lower", "self", "audit"),
    ("filtering.margin_s", "s", "lower", "time", "filtering.filter_margin"),
    ("filtering.margin_calls", "count", "lower", "calls", "filtering.filter_margin"),
    ("filtering.removed_clips", "count", "lower", "counter", "filtering.filter_margin"),
    ("filtering.self_s", "s", "lower", "self", "filtering"),
    ("matrices.load_s", "s", "lower", "time", "matrices.load_matrix"),
    ("matrices.load_bytes", "bytes", "lower", "counter", "matrices.load_matrix"),
    ("matrices.load_rss_mb", "MB", "lower", "counter", "matrices.load_matrix"),
    ("matrices.save_s", "s", "lower", "time", "matrices.save_matrix"),
    ("matrices.save_bytes", "bytes", "lower", "counter", "matrices.save_matrix"),
    ("matrices.construct_s", "s", "lower", "time", "matrices.SimilarityMatrix.__post_init__"),
    ("matrices.construct_calls", "count", "lower", "calls", "matrices.SimilarityMatrix.__post_init__"),
    ("matrices.copy_bytes", "bytes", "lower", "counter", "matrices.SimilarityMatrix.__post_init__"),
    ("matrices.transpose_calls", "count", "lower", "calls", "matrices.SimilarityMatrix.transposed"),
    ("matrices.self_s", "s", "lower", "self", "matrices"),
    ("metrics.report_s", "s", "lower", "time", "metrics.metrics_report"),
    ("metrics.report_rss_mb", "MB", "lower", "counter", "metrics.metrics_report"),
    ("metrics.relevancy_s", "s", "lower", "time", "metrics.build_relevancy"),
    ("metrics.relevancy_bytes", "bytes", "lower", "counter", "metrics.build_relevancy"),
    ("metrics.sort_s", "s", "lower", "time", "metrics.ranking"),
    ("metrics.sort_calls", "count", "lower", "calls", "metrics.ranking"),
    ("metrics.sort_elements", "count", "lower", "counter", "metrics.ranking"),
    ("metrics.ndcg_s", "s", "lower", "time", "metrics.ndcg_query"),
    ("metrics.ndcg_calls", "count", "lower", "calls", "metrics.ndcg_query"),
    ("metrics.ap_s", "s", "lower", "time", "metrics.average_precision"),
    ("metrics.ap_calls", "count", "lower", "calls", "metrics.average_precision"),
    ("metrics.gt_rank_s", "s", "lower", "time", "metrics.gt_rank"),
    ("metrics.gt_rank_calls", "count", "lower", "calls", "metrics.gt_rank"),
    ("metrics.topk_len_s", "s", "lower", "time", "metrics.topk_avg_length"),
    ("metrics.topk_len_calls", "count", "lower", "calls", "metrics.topk_avg_length"),
    ("metrics.self_s", "s", "lower", "self", "metrics"),
    ("simulate.synth_dataset_s", "s", "lower", "time", "simulate.synth_dataset"),
    ("simulate.synth_similarity_s", "s", "lower", "time", "simulate.synth_similarity"),
    ("simulate.synth_similarity_calls", "count", "lower", "calls", "simulate.synth_similarity"),
    ("simulate.sweep_s", "s", "lower", "time", "simulate.bias_sweep"),
    ("simulate.conditions", "count", "higher", "counter", "simulate.bias_sweep"),
    ("simulate.self_s", "s", "lower", "self", "simulate"),
    ("reports.envelope_s", "s", "lower", "time", "reports.build_envelope"),
    ("reports.write_s", "s", "lower", "time", "reports.write_report"),
    ("reports.write_bytes", "bytes", "lower", "counter", "reports.write_report"),
    ("reports.self_s", "s", "lower", "self", "reports"),
    ("cli.self_s", "s", "lower", "self", "cli"),
    ("cli.import_s", "s", "lower", "other", "fresh-interpreter import framebias.cli"),
    ("trace.overhead_s", "s", "lower", "other", "traced minus untraced op wall time"),
    ("trace.accounted_frac", "fraction", "higher", "other", "layer self times plus cli.self_s over traced op wall time"),
    ("trace.spans", "count", "lower", "other", "spans recorded in one traced op"),
]


def layer_metrics(records: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one op from its processes' span records.

    Returns the metric values and, for each metric the op never exercised,
    the reason it does not apply.
    """
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    outer = defaultdict(float)
    self_time = defaultdict(float)
    counters = defaultdict(float)
    for record in records:
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".")[0]
            duration = end - start
            calls[name] += 1
            self_time[layer] += duration - child_time[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                inclusive[name] += duration
            if not any(a.split(".")[0] == layer for a in ancestors):
                outer[layer] += duration
        for key, amount in record["counters"].items():
            counters[key] += amount
    values: dict[str, float] = {}
    missing: dict[str, str] = {}
    entered = {name.split(".")[0] for name in calls}
    for metric, _unit, _better, kind, source in PER_LAYER:
        if kind == "other":
            continue
        if kind in ("layer", "self"):
            values[metric] = (outer if kind == "layer" else self_time).get(source, 0.0)
            if source not in entered:
                missing[metric] = f"never enters framebias.{source}"
            continue
        values[metric] = {
            "time": inclusive.get(source, 0.0),
            "calls": float(calls.get(source, 0)),
            "counter": counters.get(metric, 0.0),
        }[kind]
        if source not in calls:
            missing[metric] = f"never calls framebias.{source}"
    values["trace.spans"] = float(sum(len(r["spans"]) for r in records))
    return values, missing


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
