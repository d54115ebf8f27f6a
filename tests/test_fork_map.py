"""``forking.fork_map`` is the one way framebias runs work at once: process p
of P runs items p, p + P, … in turn, the results come back in item order,
each process stops at its own first failure, and the error raised is that of
the first failing item, as a loop over the items raises it. The CLI starts no
thread.

Each map runs in a fresh interpreter, in its own session, through
``test_sweep_processes.run_sweep``, so a process left behind is found.
"""

import json
import os

import pytest

from test_eval_processes import write_eval_inputs
from test_sweep_processes import run_sweep

ITEMS = 7

# maps the square over items 0-6 on argv[2] processes; the items in argv[1]
# raise NotFoundError, and "boom" raises RuntimeError at argv[3] if given.
# Each item run is recorded as a file named after it, holding its process id.
MAP = """
import json, os, sys
from framebias import forking
from framebias.errors import NotFoundError
failing, processes = set(json.loads(sys.argv[1])), int(sys.argv[2])
boom = int(sys.argv[3]) if len(sys.argv) > 3 else None

def work(item):
    with open(f"ran/{item}", "w") as fh:
        fh.write(str(os.getpid()))
    if item == boom:
        raise RuntimeError(f"boom at {item}")
    if item in failing:
        raise NotFoundError(f"item {item}")
    return item * item

os.mkdir("ran")
try:
    print(json.dumps({"pid": os.getpid(), "results": forking.fork_map(work, range(%d), processes)}))
except NotFoundError as error:
    print(json.dumps({"pid": os.getpid(), "error": str(error)}))
except RuntimeError as error:
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    print(json.dumps({"pid": os.getpid(), "raised": str(error), "children left": left}))
except ChildProcessError as error:
    print(json.dumps({"pid": os.getpid(), "child": str(error)}))
""" % ITEMS

# counts the threads started by the command, in it and in its forked
# children, which name each start on stderr
COUNT_THREADS = """
import json, sys, threading
starts = []
start = threading.Thread.start

def counted(thread):
    starts.append(thread.name)
    print(f"thread {thread.name} started", file=sys.stderr)
    return start(thread)

threading.Thread.start = counted
from framebias.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "starts": len(starts)}))
"""

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="fork_map forks with os.fork")


def run_map(tmp_path, processes, failing=(), boom=None) -> tuple[dict, dict, str]:
    """The script's printed outcome, the process id that ran each item, and
    its stderr."""
    args = [json.dumps(list(failing)), str(processes)] + ([] if boom is None else [str(boom)])
    code, out, err = run_sweep(MAP, args, tmp_path)
    assert code == 0, err
    ran = {int(p.name): int(p.read_text()) for p in (tmp_path / "ran").iterdir()}
    return json.loads(out), ran, err


def shares(processes):
    return [list(range(p, ITEMS, processes)) for p in range(processes)]


@needs_fork
@pytest.mark.parametrize("processes", [1, 3])
def test_results_come_back_in_item_order_from_each_share(tmp_path, processes):
    outcome, ran, err = run_map(tmp_path, processes)
    assert (outcome["results"], err) == ([i * i for i in range(ITEMS)], "")
    # process p ran items p, p + P, ...; this process share 0 and a child each other share
    pids = [{ran[i] for i in share} for share in shares(processes)]
    assert pids[0] == {outcome["pid"]} and all(len(pid) == 1 for pid in pids)
    assert len(set.union(*pids)) == processes


# on three processes the shares are [0, 3, 6], [1, 4] and [2, 5]
@needs_fork
@pytest.mark.parametrize("processes", [1, 3])
@pytest.mark.parametrize(
    "failing",
    [[6, 4, 5], [3, 1, 5], [2], [0, 4], [5]],
    ids=["each-last", "each-first", "one-child", "this-process-first", "a-child's-last"],
)
def test_the_first_failing_item_is_raised_and_no_process_runs_past_its_own(tmp_path, processes, failing):
    outcome, ran, err = run_map(tmp_path, processes, failing)
    assert (outcome.get("error"), err) == (f"item {min(failing)}", "")
    expected = set()
    for share in shares(processes):
        stop = next((at for at, item in enumerate(share) if item in failing), len(share))
        expected |= set(share[: stop + 1])
    assert set(ran) == expected


@needs_fork
def test_another_error_in_a_child_fails_the_map(tmp_path):
    # it wins over a reported error at a lower item
    outcome, ran, err = run_map(tmp_path, 3, failing=[1], boom=5)
    assert outcome["child"].startswith("forked process ") and outcome["child"].endswith(" exited with status 1")
    assert "RuntimeError: boom at 5" in err
    assert set(ran) == {0, 3, 6, 1, 2, 5}


@needs_fork
def test_another_error_in_this_process_is_raised_once_every_child_is_reaped(tmp_path):
    outcome, ran, err = run_map(tmp_path, 3, failing=[1], boom=3)
    assert (outcome["raised"], outcome["children left"], err) == ("boom at 3", False, "")
    assert set(ran) == {0, 3, 1, 2, 5}  # this share stopped at 3, the children ran theirs


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--sim", "m.simm", "--annotations", "ann.csv", "--out", "eval.json"],
        # at 300 x 300 a condition spans two of the sweep's blocks
        ["simulate", "--classes", "30", "--test-per-class", "10", "--seeds", "3", "--out-dir", "out"],
    ],
    ids=["eval", "simulate"],
)
def test_the_cli_starts_no_thread(tmp_path, command):
    write_eval_inputs(tmp_path)  # four blocks of queries in each direction
    code, out, err = run_sweep(COUNT_THREADS, command, tmp_path)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"code": 0, "starts": 0}
