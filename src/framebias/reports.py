"""Report envelope: one self-describing JSON schema for every command.

Numeric payload fields are normalized to 6 decimal digits before writing so
repeated runs produce byte-identical files (modulo the timestamp).
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

from framebias import __version__
from framebias.atomic import open_atomic
from framebias.audit import ClassStats, LengthHistogram
from framebias.dataset import ActionClass
from framebias.filtering import FilterReport
from framebias.metrics import DirectionMetrics, MetricsReport
from framebias.simulate import SweepRow


def round6(value):
    """Clamp a float to 6 decimal digits (ints and None pass through)."""
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return float(format(value, ".6f"))


def _normalize(obj):
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return round6(obj)


def action_class_dict(ac: ActionClass) -> dict:
    return {"verb_class": ac.verb_class, "noun_class": ac.noun_class}


def class_stats_dict(stats: ClassStats) -> dict:
    return {
        "action_class": action_class_dict(stats.action_class),
        "train_count": stats.train_count,
        "test_count": stats.test_count,
        "train_mean_len": stats.train_mean_len,
        "test_mean_len": stats.test_mean_len,
        "discrepancy": stats.discrepancy,
    }


def histogram_dict(hist: LengthHistogram, action_class: ActionClass | None) -> dict:
    return {
        "action_class": action_class_dict(action_class) if action_class else None,
        "bin_width": hist.bin_width,
        "bins": [list(b) for b in hist.bins],
    }


def filter_report_dict(report: FilterReport) -> dict:
    return {
        "removed_count": report.removed_count,
        "classes_touched": report.classes_touched,
        "removed_fraction": report.removed_fraction,
        "removed_clip_ids": list(report.removed_clip_ids),
        "per_class": [
            {
                "action_class": action_class_dict(o.action_class),
                "stop_reason": o.stop_reason,
                "before": class_stats_dict(o.before),
                "after": class_stats_dict(o.after),
            }
            for o in report.per_class
        ],
    }


def _direction_dict(block: DirectionMetrics) -> dict:
    return {
        "ndcg": block.ndcg,
        "map": block.map,
        "recall": {str(k): v for k, v in block.recall.items()},
        "mean_rank": block.mean_rank,
        "median_rank": block.median_rank,
        "mean_rank_optimistic": block.mean_rank_optimistic,
        "mean_rank_pessimistic": block.mean_rank_pessimistic,
        "num_queries": block.num_queries,
        "num_degenerate_ndcg": block.num_degenerate_ndcg,
        "num_degenerate_ap": block.num_degenerate_ap,
        "num_missing_gt": block.num_missing_gt,
        "gt_ranks": list(block.gt_ranks),
    }


def metrics_report_dict(report: MetricsReport) -> dict:
    return {
        "t2v": _direction_dict(report.t2v),
        "v2t": _direction_dict(report.v2t),
        "avg": {"ndcg": report.avg_ndcg, "map": report.avg_map},
    }


def sweep_row_dict(row: SweepRow) -> dict:
    return {
        "seed": row.seed,
        "alpha": row.alpha,
        "removed_count": row.removed_count,
        "classes_touched": row.classes_touched,
        "mean_gt_rank": row.mean_gt_rank,
        "recall_at_10": row.recall_at_10,
        "mean_topk_len": row.mean_topk_len,
    }


def build_envelope(command: str, config: dict, payload: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "config": _normalize(config),
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "payload": _normalize(payload),
    }


def write_report(path, envelope: dict) -> None:
    """Write atomically: a report file either exists complete or not at all."""
    with open_atomic(path) as fh:
        json.dump(envelope, fh, indent=2)
        fh.write("\n")
