"""Annotations and text matrices are read row by row from the open file.

A file read as a stream must parse exactly as its text does, report a bad
byte at its offset in the file, keep one copy of each repeated string, hold
little more than the parsed result at its peak, and work from a pipe.
"""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framebias.dataset import EK100_COLUMNS, NATIVE_COLUMNS, SPLITS, load_annotations, parse_annotations
from framebias.errors import AnnotationParseError, ValidationError
from framebias.matrices import SimilarityMatrix, load_matrix, save_matrix, to_binary, to_text

from test_matrix_memory import square, traced_peak

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).parent / "data"
HEADER = ",".join(NATIVE_COLUMNS)

FIELD = st.sampled_from(["", "a", "b,c", 'say "hi"', "two\nlines", "cr\rinside", "café", "\U0001f600"])
INTEGER = st.sampled_from(["0", "7", "120", "-3", "+3", "1_0", "x", ""])
SPLIT = st.sampled_from(["train", "train", "test", "validation"])
TERMINATOR = st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n"])


def csv_line(fields, quote_all: bool) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="", quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL).writerow(fields)
    return buf.getvalue()


@st.composite
def annotation_text(draw, columns):
    """CSV text with the given header (or a damaged one) and rows of drawn fields."""
    header = list(columns) if draw(st.integers(0, 9)) else draw(st.lists(FIELD, max_size=3))
    lines = [csv_line(header, False)]
    for _ in range(draw(st.integers(0, 6))):
        row = {
            "clip_id": draw(st.sampled_from(["c1", "c2", "c3", "c4", "c5"])),  # repeats make duplicates
            "narration_id": draw(st.sampled_from(["n1", "n2", "n3"])),
            "video_id": draw(st.sampled_from(["v1", "v2", "v,3"])),
            "split": draw(SPLIT),
            "caption": draw(FIELD),
            "narration": draw(FIELD),
        }
        for name in ("start_frame", "stop_frame", "verb_class", "noun_class"):
            row[name] = draw(INTEGER)
        fields = [row.get(name, "") for name in columns]
        if draw(st.integers(0, 9)) == 0:
            fields = fields[:-1]
        lines.append(csv_line(fields, draw(st.booleans())))
    terminators = draw(st.lists(TERMINATOR, min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, terminators))


def outcome(fn, *args):
    """``fn``'s Dataset, or the type and message of its toolkit error."""
    try:
        return fn(*args)
    except (AnnotationParseError, ValidationError) as err:
        return type(err), str(err)


def write(path: Path, text: str) -> str:
    path.write_bytes(text.encode("utf-8"))
    return str(path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(annotation_text(NATIVE_COLUMNS))
def test_native_file_parses_as_its_text(tmp_path, text):
    path = write(tmp_path / "ann.csv", text)
    parsed = outcome(parse_annotations, text)
    loaded = outcome(load_annotations, path)
    if isinstance(parsed, tuple):
        assert loaded == (parsed[0], f"{path}: {parsed[1]}")
    else:
        assert loaded == parsed


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(annotation_text(EK100_COLUMNS), annotation_text(EK100_COLUMNS))
def test_ek100_pair_files_parse_as_their_texts(tmp_path, train, test):
    paths = [write(tmp_path / "train.csv", train), write(tmp_path / "test.csv", test)]
    parsed = outcome(parse_annotations, (train, test), "ek100_pair")
    loaded = outcome(load_annotations, paths, "ek100_pair")
    if isinstance(parsed, tuple):
        assert loaded == (parsed[0], f"{paths[0]}, {paths[1]}: {parsed[1]}")
    else:
        assert loaded == parsed


def ascii_rows(size: int, prefix: str = "") -> bytes:
    """A native or EK-100 annotation file of at least ``size`` bytes."""
    lines = [HEADER if not prefix else ",".join(EK100_COLUMNS)]
    i = 0
    while sum(len(line) + 1 for line in lines) < size:
        split = "" if prefix else ("train," if i % 2 else "test,")
        lines.append(f"{prefix}c{i},v{i % 7},{split}0,{i + 10},caption number {i},{i % 3},{i % 5}")
        i += 1
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("at", [100_000, 8191, 8192])
def test_bad_byte_is_reported_at_its_file_offset(tmp_path, at):
    raw = bytearray(ascii_rows(at + 5000))
    raw[at] = 0xFF
    path = tmp_path / "ann.csv"
    path.write_bytes(raw)
    with pytest.raises(AnnotationParseError) as caught:
        load_annotations(path)
    assert str(caught.value) == f"{path}: not UTF-8 text (byte {at})"


def test_bad_byte_in_the_second_file_of_a_pair_names_it(tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_bytes(ascii_rows(120_000, "tr"))
    raw = bytearray(ascii_rows(120_000, "te"))
    raw[100_000] = 0xC3  # a lead byte followed by ASCII
    test.write_bytes(raw)
    with pytest.raises(AnnotationParseError) as caught:
        load_annotations([train, test], fmt="ek100_pair")
    assert str(caught.value) == f"{test}: not UTF-8 text (byte 100000)"


def test_clips_share_repeated_strings(tmp_path):
    text = f"{HEADER}\na,vid,train,0,4,\"cut, the onion\",1,1\nb,vid,test,0,4,\"cut, the onion\",1,1\n"
    datasets = [parse_annotations(text), load_annotations(write(tmp_path / "ann.csv", text))]
    ek = DATA / "tiny_ek_train.csv", DATA / "tiny_ek_test.csv"
    datasets.append(load_annotations(ek, fmt="ek100_pair"))
    for dataset in datasets:
        for split in SPLITS:
            assert all(clip.split is split for clip in dataset.split_clips(split))
        for field in ("video_id", "caption"):
            first = {}
            for clip in dataset:
                assert first.setdefault(getattr(clip, field), getattr(clip, field)) is getattr(clip, field)
    a, b = datasets[1].clips
    assert a.video_id is b.video_id and a.caption is b.caption


def test_path_count_is_checked_before_any_file_is_opened(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(ValueError, match="native format takes 1"):
        load_annotations([missing, missing])
    with pytest.raises(ValueError, match="ek100_pair format takes 2"):
        load_annotations(missing, fmt="ek100_pair")
    # a two-line file is not a (train, test) pair
    two_lines = tmp_path / "two.csv"
    two_lines.write_text(",".join(EK100_COLUMNS) + "\nn1,v1,0,4,x,1,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="ek100_pair format takes 2"):
        load_annotations(two_lines, fmt="ek100_pair")


def test_load_holds_little_beyond_the_dataset(tmp_path):
    rows = [HEADER]
    for i in range(20_000):
        rows.append(f"clip{i:06d},P{i % 37:02d}_{i % 11:02d},{SPLITS[i % 2]},{i},{i + 40 + i % 97},caption {i % 900},{i % 60},{i % 45}")
    path = tmp_path / "ann.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dataset = load_annotations(path)
        retained, peak = (value - base for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(dataset) == 20_000
    # reading the whole text first held it twice, once at 4 bytes a character
    assert peak - retained <= path.stat().st_size


def run_cli(args, cwd: Path, stdin: bytes) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "framebias.cli", *args], cwd=cwd, env=env, input=stdin, capture_output=True, timeout=120
    )


def payload(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))["payload"]


@pytest.fixture
def eval_case(tmp_path):
    annotations = (DATA / "tiny.csv").read_text(encoding="utf-8")
    (tmp_path / "tiny.csv").write_text(annotations, encoding="utf-8")
    ids = tuple(clip.clip_id for clip in parse_annotations(annotations))
    values = np.random.default_rng(1).normal(size=(len(ids), len(ids)))
    matrix = SimilarityMatrix(rows=ids, cols=ids, values=values)
    save_matrix(matrix, tmp_path / "m.csv")
    return tmp_path, matrix


def test_text_matrix_from_a_pipe_scores_as_the_file(eval_case):
    tmp_path, matrix = eval_case
    ann = ["--annotations", "tiny.csv"]
    from_file = run_cli(["eval", "--sim", "m.csv", *ann, "--out", "file.json"], tmp_path, b"")
    from_pipe = run_cli(["eval", "--sim", "/dev/stdin", *ann, "--out", "pipe.json"], tmp_path, to_text(matrix).encode())
    assert from_file.returncode == 0 and from_pipe.returncode == 0, from_pipe.stderr
    assert payload(tmp_path / "pipe.json") == payload(tmp_path / "file.json")


def test_simm_from_a_pipe_is_refused_in_one_line(eval_case):
    tmp_path, matrix = eval_case
    args = ["eval", "--sim", "/dev/stdin", "--annotations", "tiny.csv", "--out", "eval.json"]
    proc = run_cli(args, tmp_path, to_binary(matrix))
    assert proc.returncode == 1
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and "/dev/stdin" in lines[0] and "SIMM" in lines[0]
    assert not (tmp_path / "eval.json").exists()


def test_annotations_from_a_pipe(eval_case):
    tmp_path, _ = eval_case
    from_file = run_cli(["audit", "--annotations", "tiny.csv", "--out", "file.json"], tmp_path, b"")
    stdin = (tmp_path / "tiny.csv").read_bytes()
    from_pipe = run_cli(["audit", "--annotations", "/dev/stdin", "--out", "pipe.json"], tmp_path, stdin)
    assert from_file.returncode == 0 and from_pipe.returncode == 0, from_pipe.stderr
    assert payload(tmp_path / "pipe.json") == payload(tmp_path / "file.json")


def test_text_matrix_load_holds_about_one_matrix(tmp_path):
    matrix = square(1500)
    save_matrix(matrix, tmp_path / "m.csv")
    peak, loaded = traced_peak(load_matrix, tmp_path / "m.csv")
    assert loaded == matrix
    assert loaded.values.flags.owndata and not loaded.values.flags.writeable
    # a list of Python floats per value held about 20 matrices
    assert peak <= 3 * matrix.values.nbytes


def test_text_matrix_save_holds_about_one_row(tmp_path):
    matrix = square(1500)
    peak, _ = traced_peak(save_matrix, matrix, tmp_path / "m.csv")
    with open(tmp_path / "m.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + 1500
    # the whole text held as one string peaked at about 5 matrices
    assert peak <= 0.1 * matrix.values.nbytes
