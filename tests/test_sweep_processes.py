"""simulate spreads its seeds over forked processes: the outputs are those of
one process, a failure is reported as one process reports it, and no process
outlives the command.

Each sweep runs in a fresh interpreter, as the CLI does, in its own session,
so a process left behind is found by signalling the session's group.
"""

import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from framebias import forking
from framebias.dataset import load_annotations
from framebias.filtering import FilterConfig, filter_margin
from framebias.forking import usable_cpus
from framebias.matrices import load_matrix, save_matrix
from framebias.reports import build_envelope, write_report
from framebias.simulate import SimConfig, bias_sweep, synth_dataset, synth_similarity

SRC = Path(__file__).resolve().parent.parent / "src"
SHAPE = ["--classes", "5", "--train-per-class", "12", "--test-per-class", "3", "--min-class-size", "2"]
ALPHAS = (15.0, 60.0)

# the script counts the forks of the command's own process; a child leaves
# through os._exit, so only the parent prints
COUNT_FORKS = """
import json, os, sys
forks = []
fork = os.fork

def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = counted
from framebias.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "forks": len(forks)}))
"""

# seed N, if listed in the script's first argument, fails in synth_dataset
FAIL_SEEDS = """
import json, sys
from framebias import simulate
failing, make = set(json.loads(sys.argv.pop(1))), simulate.synth_dataset

def synth_dataset(config):
    if config.seed in failing:
        raise OSError(f"no dataset for seed {config.seed}")
    return make(config)

simulate.synth_dataset = synth_dataset
from framebias.cli import main
sys.exit(main(sys.argv[1:]))
"""

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or usable_cpus() < 2, reason="the sweep forks only with os.fork and 2+ usable CPUs"
)


def run_sweep(script, args, cwd) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``script`` run on the arguments in a
    fresh interpreter in a new session; after it exits, no process of that
    session may be left."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # on 3.12+ a fork of a process running threads warns: the sweep must not do that
    argv = [sys.executable, "-W", "error::DeprecationWarning", "-c", script, *args]
    with subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        out, err = proc.communicate(timeout=120)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # the session's group, led by the command
    return proc.returncode, out, err


def sweep_args(seeds, out) -> list[str]:
    return [
        "simulate", *SHAPE, "--seeds", ",".join(map(str, seeds)), "--alphas", ",".join(f"{a:g}" for a in ALPHAS),
        "--out-dir", str(out),
    ]


def conditions(seed) -> list[tuple[str, str]]:
    """The (matrix, annotations) file names of a seed's conditions."""
    tags = [(f"seed{seed}", "_baseline")] + [(f"seed{seed}_alpha{a:g}", "") for a in ALPHAS]
    return [(f"sim_{tag}{suffix}.simm", f"annotations_{tag}.csv") for tag, suffix in tags]


@needs_fork
def test_a_sweep_over_processes_writes_what_one_process_computes(tmp_path):
    seeds = [3, 0, 7, 1, 5]
    code, out, err = run_sweep(COUNT_FORKS, sweep_args(seeds, tmp_path / "out"), tmp_path)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"code": 0, "forks": min(len(seeds), usable_cpus()) - 1}

    report = json.loads((tmp_path / "out" / "sweep_report.json").read_text(encoding="utf-8"))
    config = SimConfig(**report["payload"]["sim_config"])
    rows = bias_sweep(config, ALPHAS, seeds, min_class_size=2)
    write_report(tmp_path / "expected.json", build_envelope("simulate", {}, {"conditions": rows}))
    expected = json.loads((tmp_path / "expected.json").read_text(encoding="utf-8"))
    assert report["payload"]["conditions"] == expected["payload"]["conditions"]

    names = {"sweep_report.json"}
    for seed in seeds:
        cfg = replace(config, seed=seed)
        dataset = synth_dataset(cfg)
        references = [dataset] + [filter_margin(dataset, FilterConfig(alpha=a, min_class_size=2))[0] for a in ALPHAS]
        for (simm, csv), reference in zip(conditions(seed), references):
            save_matrix(synth_similarity(dataset, cfg, reference)[0], tmp_path / "expected.simm")
            assert (tmp_path / "out" / simm).read_bytes() == (tmp_path / "expected.simm").read_bytes(), simm
            names |= {simm, csv}
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(names)


def test_a_one_seed_sweep_forks_nothing(tmp_path):
    code, out, err = run_sweep(COUNT_FORKS, sweep_args([4], tmp_path / "out"), tmp_path)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"code": 0, "forks": 0}


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--topk", "0"], "topk must be >= 1, got 0"),
        (["--alphas", "20,-1"], "alpha must be >= 0, got -1.0"),
        (["--min-class-size", "0"], "min_class_size must be >= 1, got 0"),
    ],
    ids=["topk", "alpha", "min-class-size"],
)
def test_a_sweep_refused_by_its_arguments_forks_nothing(tmp_path, flags, message):
    args = ["simulate", "--classes", "4", "--seeds", "0,1,2", *flags, "--out-dir", str(tmp_path / "out")]
    code, out, err = run_sweep(COUNT_FORKS, args, tmp_path)
    assert (code, err) == (0, f"framebias simulate: error: {message}\n")
    assert json.loads(out) == {"code": 1, "forks": 0}
    assert not (tmp_path / "out").exists()  # no file written


@needs_fork
def test_the_first_failing_seed_in_seeds_order_is_reported(tmp_path):
    seeds = [0, 1, 2, 3, 4, 5]
    processes = min(len(seeds), usable_cpus())
    shares = [seeds[i::processes] for i in range(processes)]
    # this process fails on its last seed, each child on its first
    failing = [shares[0][-1]] + [share[0] for share in shares[1:]]
    code, _, err = run_sweep(FAIL_SEEDS, [json.dumps(failing), *sweep_args(seeds, tmp_path / "out")], tmp_path)
    first = min(failing, key=seeds.index)
    assert (code, err) == (1, f"framebias simulate: error: no dataset for seed {first}\n")

    out = tmp_path / "out"
    written = set()
    for seed in seeds:
        for simm, csv in conditions(seed):
            assert (out / simm).exists() == (out / csv).exists(), simm
            if (out / simm).exists():
                assert load_matrix(out / simm).shape == (15, 15)
                assert len(load_annotations([out / csv]).split_clips("test")) == 15
                written.add(seed)
    # each process stopped at its failing seed, after writing the seeds before it
    assert written == {seed for share, bad in zip(shares, failing) for seed in share[: share.index(bad)]}
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
    assert not (out / "sweep_report.json").exists()


def test_a_process_running_threads_plans_one_process():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert forking.plan(8) == 1
    finally:
        stop.set()
        thread.join()


@needs_fork
def test_a_child_that_dies_fails_the_map(tmp_path):
    script = """
import os, sys
from framebias import forking

def work(share):
    if share == "die":
        os._exit(3)
    return share * 2

try:
    forking.fork_map(work, ["ok", "die", "fine"], 3)
except ChildProcessError as error:
    print(error)
print(forking.fork_map(work, ["a", "b", "c"], 3))
"""
    code, out, err = run_sweep(script, [], tmp_path)
    assert (code, err) == (0, "")
    died, mapped = out.splitlines()
    assert died.startswith("forked process ") and died.endswith(" exited with status 3")
    assert mapped == "['aa', 'bb', 'cc']"
