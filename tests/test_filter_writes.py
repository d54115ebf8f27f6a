"""filter and filter-one write their CSV and report at once, the report on a
forked process where the command may fork: the outputs are those of one
process, and a failed output leaves both targets as they were, with one
stderr line.

Each command runs through ``test_sweep_processes.run_sweep``: a fresh
interpreter, as the CLI runs in, in its own session, counting its forks.
"""

import json
import os
import re

import pytest

from framebias.forking import usable_cpus

from test_collector import write_clips
from test_sweep_processes import COUNT_FORKS, run_sweep

COMMANDS = {
    "filter": ["--alpha", "20"],
    "filter-one": ["--verb", "3", "--noun", "4", "--mode", "long"],
}
PIN = "import os\nos.sched_setaffinity(0, [min(os.sched_getaffinity(0))])\n"
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or usable_cpus() < 2, reason="filter forks only with os.fork and 2+ usable CPUs"
)
needs_pin = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins itself with sched_setaffinity")
LAYOUTS = [pytest.param(False, marks=needs_fork, id="forked"), pytest.param(True, marks=needs_pin, id="pinned")]


@pytest.fixture(scope="module")
def annotations(tmp_path_factory):
    path = tmp_path_factory.mktemp("clips") / "ann.csv"
    write_clips(path, 2000)
    return path


def run_filter(work, command, annotations, out, report, pinned, patch="") -> tuple[int, int, str]:
    """The exit code, fork count and stderr of ``command`` in a fresh
    interpreter, pinned to one CPU or not, after the script ``patch``; no
    process may be left."""
    argv = [command, "--annotations", str(annotations), *COMMANDS[command], "--out", str(out), "--report", str(report)]
    code, stdout, stderr = run_sweep((PIN if pinned else "") + patch + COUNT_FORKS, argv, work)
    assert code == 0, stderr
    counted = json.loads(stdout)
    return counted["code"], counted["forks"], stderr


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("pinned", LAYOUTS)
def test_the_outputs_are_written_at_once_on_two_cpus_and_in_turn_on_one(tmp_path, annotations, command, pinned):
    code, forks, stderr = run_filter(tmp_path, command, annotations, tmp_path / "f.csv", tmp_path / "f.json", pinned)
    assert (code, forks, stderr) == (0, 0 if pinned else 1, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "f.json"]


@pytest.mark.parametrize("command", COMMANDS)
@needs_fork
@needs_pin
def test_forked_and_pinned_outputs_are_byte_identical(tmp_path, annotations, command):
    outputs = []
    for pinned in (False, True):
        work = tmp_path / str(pinned)
        work.mkdir()
        # relative paths, which the report's config echoes
        assert run_filter(work, command, annotations, "f.csv", "f.json", pinned)[0] == 0
        outputs.append(((work / "f.csv").read_bytes(), TIMESTAMP.sub(b"", (work / "f.json").read_bytes())))
    assert outputs[0] == outputs[1]
    assert b'"removed_count": 0,' not in outputs[0][1]  # the filter removed clips


# each case breaks --out, --report or both; the CSV's error is reported first
BROKEN = {
    "missing-out-dir": ("missing/f.csv", "f.json", "[Errno 2] No such file or directory: '{out}'"),
    "missing-report-dir": ("f.csv", "missing/f.json", "[Errno 2] No such file or directory: '{report}'"),
    "report-is-a-dir": ("f.csv", "taken", "[Errno 21] Is a directory: '{report}'"),
    "both": ("missing/f.csv", "taken", "[Errno 2] No such file or directory: '{out}'"),
}


@pytest.mark.parametrize("case", BROKEN)
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("pinned", LAYOUTS)
def test_a_failed_output_leaves_both_targets_as_they_were(tmp_path, annotations, command, pinned, case):
    out, report, message = BROKEN[case]
    out, report = tmp_path / out, tmp_path / report
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken" / "inside").write_bytes(b"kept\n")
    for path, old in ((out, b"old csv\n"), (report, b"old report\n")):
        if path.parent.is_dir() and not path.exists():
            path.write_bytes(old)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    code, forks, stderr = run_filter(tmp_path, command, annotations, out, report, pinned)
    assert (code, forks) == (1, 0)  # a target that cannot be created fails before anything forks
    assert stderr == f"framebias {command}: error: {message.format(out=out, report=report)}\n"
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before  # no .tmp left either


# the report's writer puts part of the report in its temp file, on the
# process that runs it, and then finds the disk full
FULL_DISK = """
import errno, os
from framebias import cli

def layout_report(envelope, fh):
    fh.write('{"partial": ')
    fh.flush()
    assert os.fstat(fh.fileno()).st_size > 0
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

cli.layout_report = layout_report
"""


@pytest.mark.parametrize("pinned", LAYOUTS)
def test_a_report_that_fails_midway_leaves_both_targets_as_they_were(tmp_path, annotations, pinned):
    out, report = tmp_path / "f.csv", tmp_path / "f.json"
    out.write_bytes(b"old csv\n")
    report.write_bytes(b"old report\n")
    code, forks, stderr = run_filter(tmp_path, "filter", annotations, out, report, pinned, FULL_DISK)
    assert (code, forks) == (1, 0 if pinned else 1)
    assert stderr == "framebias filter: error: [Errno 28] No space left on device\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {"f.csv": b"old csv\n", "f.json": b"old report\n"}
