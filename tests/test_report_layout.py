"""Reports are laid out in one pass, exactly as ``json.dump`` with
``indent=2`` writes their normal form (dataclasses as objects of their
fields, tuples as lists, floats rounded to 6 decimal digits)."""

import json
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framebias.reports import _layout, build_envelope, write_report


def normalize(obj):
    """The JSON form of a payload value, built as a copy."""
    if isinstance(obj, float):
        return float(format(obj, ".6f"))
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [normalize(v) for v in obj]
    if isinstance(obj, dict):
        return {k: normalize(v) for k, v in obj.items()}
    return {name: normalize(getattr(obj, name)) for name in obj.__dataclass_fields__}


def layout(obj) -> str:
    parts = []
    _layout(obj, parts.append)
    return "".join(parts)


@dataclass(frozen=True)
class Pair:
    first: object
    second: object


@dataclass(frozen=True)
class Empty:
    pass


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 0.0, 1e300, 5e-7, 5e-6, 1.5e-7, 0.1])
TEXT = st.text(st.characters(codec="utf-8")) | st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "\U0001f600", "caf\u00e9\u2028"])
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | TEXT
KEYS = TEXT | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False, allow_infinity=False)
PAYLOADS = st.recursive(
    SCALARS | st.just(Empty()),
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=5)
        | st.builds(Pair, inner, inner)
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(PAYLOADS)
def test_layout_is_json_dumps_of_the_normal_form(payload):
    assert layout(payload) == json.dumps(normalize(payload), indent=2, allow_nan=False)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_float_raises_and_leaves_no_file(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        layout({"rows": [1, (2.0, Pair(0.5, [value]))]})
    with pytest.raises(ValueError):
        layout({value: 1})
    with pytest.raises(ValueError):
        write_report(tmp_path / "r.json", build_envelope("x", {}, {"deep": [Pair(1, {"v": value})]}))
    assert list(tmp_path.iterdir()) == []


def test_report_file_is_the_envelope_as_json_dump(tmp_path):
    payload = {"pairs": [Pair((1, 2), {3: 0.1234567})], "empty": (), "none": Empty()}
    envelope = build_envelope("x", {"flag": True}, payload)
    assert envelope["payload"] is payload  # no normalized copy
    write_report(tmp_path / "r.json", envelope)
    expected = json.dumps(normalize(envelope), indent=2, allow_nan=False) + "\n"
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == expected
