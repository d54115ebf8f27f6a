"""Report envelope: one self-describing JSON schema for every command.

The result dataclasses are the schema: a payload holds them as they are, and
each becomes a JSON object of its fields in declaration order. Tuples become
lists and floats are rounded to 6 decimal digits, so repeated runs produce
byte-identical files (modulo the timestamp). Reports are strict JSON: a NaN or
infinity is an error, not a bare ``NaN`` token. A report is laid out in one
pass over the payload, with no normalized copy, as ``json.dump`` with
``indent=2`` would write that copy.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone
from functools import cache
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import add

from framebias import __version__
from framebias.atomic import open_atomic
from framebias.audit import LengthHistogram
from framebias.dataset import ActionClass
from framebias.filtering import FilterReport
from framebias.metrics import MetricsReport


def _finite(value: float) -> str:
    """``repr`` of a float, which must be finite."""
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# the JSON text of each scalar type, as json writes it; bool comes before int,
# which it subclasses
_SCALARS = {
    str: encode_basestring_ascii,
    float: lambda value: _finite(float(format(value, ".6f"))),
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    type(None): lambda value: "null",
}


def _scalar(obj) -> str | None:
    """The JSON text of a scalar payload value, or None for a container."""
    encode = _SCALARS.get(type(obj))
    if encode is None:
        if isinstance(obj, (list, tuple, dict)) or hasattr(obj, "__dataclass_fields__"):
            return None
        # a subclass of a scalar type, such as numpy.float64
        encode = next((encode for kind, encode in _SCALARS.items() if isinstance(obj, kind)), None)
        if encode is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return encode(obj)


def _key(key) -> str:
    """A dict key as JSON text, converted as ``json`` converts it (a float key is not rounded)."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float):
        return f'"{_finite(key)}"'
    if key is None or isinstance(key, int):
        return f'"{_scalar(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


@cache
def _fields(cls) -> tuple[tuple[str, ...], list[str]]:
    """A dataclass's field names in declaration order, and each one's key text."""
    return tuple(cls.__dataclass_fields__), [_key(name) + ": " for name in cls.__dataclass_fields__]


def _layout(obj, write, level: int = 0) -> None:
    """Write ``obj`` as ``json.dump(..., indent=2)`` writes its JSON form:
    dataclasses become objects of their fields in declaration order, tuples
    become lists and floats are rounded to 6 decimal digits. A container of
    scalars goes out in one write."""
    if isinstance(obj, (list, tuple)):
        brackets, prefixes, values = "[]", repeat(""), obj
    elif isinstance(obj, dict):
        brackets, prefixes, values = "{}", [_key(key) + ": " for key in obj], list(obj.values())
    elif hasattr(obj, "__dataclass_fields__"):
        names, prefixes = _fields(type(obj))
        brackets, values = "{}", [getattr(obj, name) for name in names]
    else:
        write(_scalar(obj))
        return
    if not values:
        write(brackets)
        return
    inner, close = "\n" + "  " * (level + 1), "\n" + "  " * level + brackets[1]
    texts = [_scalar(value) for value in values]
    if None not in texts:
        write(brackets[0] + inner + f",{inner}".join(map(add, prefixes, texts)) + close)
        return
    separator = brackets[0] + inner
    for prefix, value, text in zip(prefixes, values, texts):
        write(separator + prefix)
        separator = "," + inner
        if text is None:
            _layout(value, write, level + 1)
        else:
            write(text)
    write(close)


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
        "config": config,
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "payload": payload,
    }


def layout_report(envelope: dict, fh) -> None:
    """Write the report to an open text file."""
    _layout(envelope, fh.write)
    fh.write("\n")


def write_report(path, envelope: dict) -> None:
    """Write atomically: a report file either exists complete or not at all."""
    with open_atomic(path) as fh:
        layout_report(envelope, fh)
