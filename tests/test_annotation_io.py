"""Annotation and matrix CSV input under damage, down to the CLI, and the
histogram size bound."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framebias.audit import length_histogram
from framebias.cli import main
from framebias.dataset import ClipRecord, Dataset, load_annotations, parse_annotations
from framebias.errors import AnnotationParseError, DegenerateInputError, FrameBiasError, ValidationError
from framebias.matrices import from_text

DATA = Path(__file__).parent / "data"
TINY = (DATA / "tiny.csv").read_bytes()
HEADER = "clip_id,video_id,split,start_frame,stop_frame,caption,verb_class,noun_class"
HUGE_FIELD = "x" * 200_000  # beyond the csv module's default 131072-char field limit


@st.composite
def damaged_tiny(draw):
    if draw(st.booleans()):
        return TINY[: draw(st.integers(0, len(TINY) - 1))]
    at = draw(st.integers(0, len(TINY) - 1))
    return TINY[:at] + bytes([draw(st.integers(0, 255))]) + TINY[at + 1 :]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damaged_tiny())
def test_damaged_csv_loads_or_raises_toolkit_error(tmp_path, raw):
    path = tmp_path / "damaged.csv"
    path.write_bytes(raw)
    try:
        assert isinstance(load_annotations(path), Dataset)
    except FrameBiasError:
        pass


def test_oversized_field_names_line():
    text = f"{HEADER}\na,v1,train,0,4,x,1,1\nb,v1,train,0,4,{HUGE_FIELD},1,1\n"
    with pytest.raises(AnnotationParseError, match="line 3"):
        parse_annotations(text)
    with pytest.raises(AnnotationParseError, match="train file, line 1"):
        parse_annotations((f"narration_id,{HUGE_FIELD}\n", ""), fmt="ek100_pair")


def test_oversized_matrix_field_names_line():
    with pytest.raises(AnnotationParseError, match="matrix line 2"):
        from_text(f",g1\nq1,{HUGE_FIELD}\n")


def test_parse_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"{HEADER}\na,v1,validation,0,4,x,1,1\n", encoding="utf-8")
    with pytest.raises(AnnotationParseError, match=r"bad\.csv: line 2: split"):
        load_annotations(path)
    ek_train = DATA / "tiny_ek_train.csv"
    with pytest.raises(AnnotationParseError, match=r"tiny_ek_train\.csv: line 1: expected header"):
        load_annotations(ek_train)
    with pytest.raises(AnnotationParseError, match=r"tiny_ek_train\.csv, .*bad\.csv: test file, line 1: missing"):
        load_annotations([ek_train, path], fmt="ek100_pair")


def test_non_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(f"{HEADER}\na,v1,train,0,4,caf\xe9,1,1\n".encode("latin-1"))
    with pytest.raises(AnnotationParseError, match=r"latin1\.csv: not UTF-8 text \(byte"):
        load_annotations(path)


@pytest.mark.parametrize(
    "content",
    [
        f"{HEADER}\na,v1,train,0,4,{HUGE_FIELD},1,1\n".encode(),
        f"{HEADER}\na,v1,train,0,4,caf\xe9,1,1\n".encode("latin-1"),
    ],
    ids=["oversized-field", "non-utf8"],
)
def test_cli_audit_rejects_bad_csv_in_one_line(tmp_path, capsys, content):
    path = tmp_path / "ann.csv"
    path.write_bytes(content)
    assert main(["audit", "--annotations", str(path), "--out", str(tmp_path / "audit.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "ann.csv" in lines[0]
    assert not (tmp_path / "audit.json").exists()


def test_validation_errors_name_file_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"{HEADER}\na,v1,train,0,4,x,1,1\nbad_clip,v1,train,9,3,x,1,1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"bad\.csv: line 3: clip 'bad_clip': stop_frame 3 < start_frame 9"):
        load_annotations(path)
    path.write_text(f"{HEADER}\na,v1,train,0,4,x,1,1\na,v1,test,0,4,x,1,1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"bad\.csv: line 3: duplicate clip_id 'a'"):
        load_annotations(path)
    ek_train = DATA / "tiny_ek_train.csv"
    with pytest.raises(ValidationError, match=r"tiny_ek_train\.csv, .*tiny_ek_train\.csv: test file, line 2: duplicate"):
        load_annotations([ek_train, ek_train], fmt="ek100_pair")


def test_cli_audit_names_file_and_line_of_invalid_row(tmp_path, capsys):
    path = tmp_path / "ann.csv"
    path.write_text(f"{HEADER}\na,v1,train,0,4,x,1,1\nb,v1,test,9,3,x,1,1\n", encoding="utf-8")
    assert main(["audit", "--annotations", str(path), "--out", str(tmp_path / "audit.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "ann.csv: line 3: clip 'b'" in lines[0]
    assert not (tmp_path / "audit.json").exists()


def test_histogram_bin_count_is_bounded():
    longest = 2_000_001
    clips = (
        ClipRecord("short", "v", "train", 0, 9, "c", 1, 1),
        ClipRecord("long", "v", "test", 0, longest - 1, "c", 1, 1),
    )
    for bin_width in (1, 2):  # 2,000,002 and 1,000,001 bins
        with pytest.raises(DegenerateInputError, match=f"'long' of {longest} frames"):
            length_histogram(Dataset(clips=clips), bin_width=bin_width)


# int() takes all of these; an annotation integer is an optional "-" and ASCII digits
LOOSE_INTEGERS = ["1_0", " 5", "5 ", "+3", "\u0663", "\uff15"]
INT_FIELDS = ("start_frame", "stop_frame", "verb_class", "noun_class")
VALID_ROW = {"start_frame": "0", "stop_frame": "40", "verb_class": "1", "noun_class": "1"}


def _annotation_files(tmp_path, fmt, field, value) -> list[str]:
    ints = {**VALID_ROW, field: value}
    start, stop, verb, noun = (ints[name] for name in INT_FIELDS)
    if fmt == "native":
        path = tmp_path / "ann.csv"
        path.write_text(f'{HEADER}\na,v1,train,"{start}","{stop}",x,"{verb}","{noun}"\n', encoding="utf-8")
        return [str(path)]
    header = "narration_id,video_id,start_frame,stop_frame,narration,verb_class,noun_class"
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text(f"{header}\na,v1,0,40,x,1,1\n", encoding="utf-8")
    test.write_text(f'{header}\nb,v1,"{start}","{stop}",x,"{verb}","{noun}"\n', encoding="utf-8")
    return [str(train), str(test)]


@pytest.mark.parametrize("value", LOOSE_INTEGERS, ids=["underscore", "space-before", "space-after", "plus", "arabic-indic", "fullwidth"])
@pytest.mark.parametrize("field", INT_FIELDS)
@pytest.mark.parametrize("fmt", ["native", "ek100_pair"])
def test_cli_rejects_integers_beyond_minus_and_ascii_digits(tmp_path, capsys, fmt, field, value):
    paths = _annotation_files(tmp_path, fmt, field, value)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["audit", "--annotations", *paths, "--format", fmt, "--out", str(out / "audit.json")]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    where = "line 2" if fmt == "native" else "test file, line 2"
    assert lines == [f"framebias audit: error: {', '.join(paths)}: {where}: field {field!r} must be an integer, got {value!r}"]
    assert list(out.iterdir()) == []
    with pytest.raises(AnnotationParseError, match=f"field {field!r}"):
        load_annotations(paths, fmt)


def test_minus_sign_and_leading_zeros_still_parse():
    clip = parse_annotations(f"{HEADER}\na,v1,train,-0,007,x,-3,-12\n").clips[0]
    assert (clip.start_frame, clip.stop_frame, clip.verb_class, clip.noun_class) == (0, 7, -3, -12)


def test_first_bad_integer_field_is_named():
    with pytest.raises(AnnotationParseError, match=r"field 'start_frame' must be an integer, got ' 5'"):
        parse_annotations(f'{HEADER}\na,v1,train," 5",x,x,1,1\n')
    with pytest.raises(AnnotationParseError, match=r"field 'noun_class' must be an integer, got '--1'"):
        parse_annotations(f"{HEADER}\na,v1,train,0,4,x,-1,--1\n")
