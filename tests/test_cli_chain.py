"""The commands chained as a user chains them: simulate -> filter -> audit ->
eval -> sum-sims -> inspect, on ids and captions of any text and on damaged
files. Each step exits 0 with nothing on stderr, or exits 1 with one stderr
line that names a file it was given; none prints a traceback."""

import csv
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framebias import cli
from framebias.dataset import Dataset, load_annotations, write_native_csv
from framebias.matrices import SimilarityMatrix, load_matrix, save_matrix, to_text

from test_block_sources import SRC, text

SIMULATE = ["simulate", "--classes", "3", "--train-per-class", "6", "--test-per-class", "2",
            "--seeds", "0", "--alphas", "20", "--min-class-size", "3"]
CLIPS = 3 * (6 + 2)
DAMAGES = ("none", "cut", "pad", "utf8", "cell")
NOT_A_NUMBER = ("", "x", "1.2.3", "0x10", "1e", "--1", "\U0001F600")


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """The baseline annotations and matrix of a small simulate run."""
    out = tmp_path_factory.mktemp("simulated")
    code, stderr = in_process([*SIMULATE, "--out-dir", out])
    assert (code, stderr) == (0, "")
    dataset = load_annotations(out / "annotations_seed0.csv")
    assert len(dataset) == CLIPS
    return dataset, load_matrix(out / "sim_seed0_baseline.simm")


def in_process(argv):
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = cli.main([str(arg) for arg in argv])
    return code, stderr.getvalue()


def in_child(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-m", "framebias.cli", *map(str, argv)], env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, encoding="utf-8", errors="replace")
    assert "Traceback" not in child.stderr
    return child.returncode, child.stderr


def relabeled(dataset, matrix, ids, captions):
    """``dataset`` and ``matrix`` with every clip id and caption replaced."""
    new = dict(zip((clip.clip_id for clip in dataset.clips), ids))
    clips = tuple(clip._replace(clip_id=new[clip.clip_id], caption=caption) for clip, caption in zip(dataset.clips, captions))
    rows, cols = (tuple(new[i] for i in side) for side in (matrix.rows, matrix.cols))
    return Dataset(clips=clips), SimilarityMatrix(rows=rows, cols=cols, values=matrix.values)


def write_inputs(work, dataset, matrix, damage, at, garbage):
    """Write the annotations and the matrix, with ``damage`` done to one of
    them (``at`` picks a place and ``garbage`` what goes there); return their
    paths and the damaged one."""
    ann = work / "ann.csv"
    with open(ann, "w", encoding="utf-8", newline="") as fh:
        write_native_csv(dataset, fh)
    sim = work / ("m.csv" if damage == "cell" else "m.simm")
    save_matrix(matrix, sim)
    if damage == "utf8":
        raw = ann.read_bytes()
        ann.write_bytes(raw[: at % len(raw)] + b"\xff" + raw[at % len(raw) :])
        return ann, sim, ann
    if damage == "cut":
        sim.write_bytes(sim.read_bytes()[: at % sim.stat().st_size])
    elif damage == "pad":
        sim.write_bytes(sim.read_bytes() + garbage.encode() + b"\0")
    elif damage == "cell":
        cells = list(csv.reader(io.StringIO(to_text(matrix), newline="")))
        i = 1 + at % (len(cells) - 1)
        cells[i][1 + at % (len(cells[i]) - 1)] = garbage
        with open(sim, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(cells)
    return ann, sim, None if damage == "none" else sim


def chain(work, ann, sim, query):
    """The steps after simulate, each with the files it reads."""
    filtered, summed = work / "filtered.csv", work / ("sum" + sim.suffix)
    return [
        (["filter", "--annotations", ann, "--alpha", "20", "--min-class-size", "3", "--out", filtered,
          "--report", work / "filter.json"], (ann,)),
        (["audit", "--annotations", filtered, "--out", work / "audit.json", "--hist-out", work / "hist.csv"],
         (filtered,)),
        (["eval", "--sim", sim, "--annotations", filtered, "--out", work / "eval.json"], (sim, filtered)),
        (["sum-sims", sim, sim, "--out", summed], (sim,)),
        (["inspect", "--sim", summed, "--annotations", filtered, f"--query={query}", "--topk", "3"],
         (summed, filtered)),
    ]


def run_chain(run, work, dataset, matrix, damage, at=0, garbage="x"):
    for name in os.listdir(work):
        os.unlink(work / name)
    ann, sim, damaged = write_inputs(work, dataset, matrix, damage, at, garbage)
    failed = []
    for argv, inputs in chain(work, ann, sim, matrix.rows[at % len(matrix.rows)]):
        code, stderr = run(argv)
        if code:
            assert code == 1 and stderr.count("\n") == 1 and stderr.endswith("\n"), (argv[0], stderr)
            assert any(str(path) in stderr for path in inputs), (argv[0], stderr)
            failed.append((argv[0], stderr))
        else:
            assert stderr == "", (argv[0], stderr)
    if damaged is None:
        assert not failed
    else:  # the first step given the damaged file refuses it by name
        assert failed[:1] and failed[0][0] == ("filter" if damage == "utf8" else "eval")
        assert str(damaged) in failed[0][1]


id_lists = st.lists(text, min_size=CLIPS, max_size=CLIPS, unique=True)
caption_lists = st.lists(text, min_size=CLIPS, max_size=CLIPS)
# a place in a file; small ones fall in the SIMM magic and header
places = st.integers(0, 20) | st.integers(0, 1 << 16)


@given(id_lists, caption_lists, st.sampled_from(DAMAGES), places, st.sampled_from(NOT_A_NUMBER))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_step_succeeds_or_names_the_file(tmp_path, simulated, ids, captions, damage, at, garbage):
    dataset, matrix = relabeled(*simulated, ids, captions)
    run_chain(in_process, tmp_path, dataset, matrix, damage, at, garbage)


@pytest.mark.parametrize("damage", DAMAGES)
def test_no_step_prints_a_traceback(tmp_path, damage):
    work = tmp_path / "work"
    work.mkdir()
    assert in_child([*SIMULATE, "--out-dir", tmp_path]) == (0, "")
    dataset = load_annotations(tmp_path / "annotations_seed0.csv")
    matrix = load_matrix(tmp_path / "sim_seed0_baseline.simm")
    tricky = ["a\rb", '"q"', "\U0001F600", "-x", "c,d", "e\nf"]
    ids = [*tricky, *(f"clip {i}" for i in range(CLIPS - len(tricky)))]
    captions = [f'say "{i}"\r\U00010348' for i in range(CLIPS)]
    run_chain(in_child, work, *relabeled(dataset, matrix, ids, captions), damage, at=7, garbage="1.2.3")
