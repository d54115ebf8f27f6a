"""Report envelope: one self-describing JSON schema for every command.

The result dataclasses are the schema: a payload holds them as they are, and
each becomes a JSON object of its fields in declaration order. Tuples become
lists and floats are rounded to 6 decimal digits, so repeated runs produce
byte-identical files (modulo the timestamp). Reports are strict JSON: a NaN or
infinity is an error, not a bare ``NaN`` token.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

from framebias import __version__
from framebias.atomic import open_atomic
from framebias.audit import LengthHistogram
from framebias.dataset import ActionClass
from framebias.filtering import FilterReport
from framebias.metrics import MetricsReport


def _normalize(obj):
    """The JSON form of a payload value; dataclasses become objects of their fields."""
    if isinstance(obj, float):
        return float(format(obj, ".6f"))
    if obj is None or isinstance(obj, (str, int)):  # bool is an int
        return obj
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    # a dataclass: its field table is in declaration order (fields() rebuilds it per call)
    return {name: _normalize(getattr(obj, name)) for name in obj.__dataclass_fields__}


def histogram_dict(hist: LengthHistogram, action_class: ActionClass | None) -> dict:
    return {"action_class": action_class, "bin_width": hist.bin_width, "bins": hist.bins}


def filter_report_dict(report: FilterReport) -> dict:
    return {name: getattr(report, name) for name in report.__dataclass_fields__}


def metrics_report_dict(report: MetricsReport) -> dict:
    return {"t2v": report.t2v, "v2t": report.v2t, "avg": {"ndcg": report.avg_ndcg, "map": report.avg_map}}


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
        json.dump(envelope, fh, indent=2, allow_nan=False)
        fh.write("\n")
