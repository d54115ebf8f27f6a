"""numpy is imported on first use: audit, filter and filter-one never load it,
and the commands that need it still work in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).parent / "data"
# LazyLoader registers a placeholder named "numpy"; a real import loads submodules
NUMPY_SUBMODULES = "sorted(m for m in sys.modules if m.startswith('numpy.'))"


def run_python(args, cwd: Path, **preset) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args``; ``preset`` replaces the thread-count
    variables OpenBLAS reads, which are otherwise removed."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_annotation_commands_load_no_numpy(tmp_path):
    code = f"""
import sys
import framebias
print({NUMPY_SUBMODULES})
from framebias.cli import main
ann = ["--annotations", {str(DATA / "tiny.csv")!r}]
assert main(["audit", *ann, "--out", "a.json", "--hist-out", "h.csv"]) == 0
assert main(["filter", *ann, "--alpha", "5", "--out", "f.csv", "--report", "f.json"]) == 0
assert main(["filter-one", *ann, "--verb", "3", "--noun", "4", "--mode", "long",
             "--out", "g.csv", "--report", "g.json"]) == 0
print({NUMPY_SUBMODULES})
"""
    result = run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.json", "f.csv", "f.json", "g.csv", "g.json", "h.csv"
    ]


def test_eval_in_a_fresh_process(tmp_path):
    cli = ["-m", "framebias.cli"]
    to_simm = run_python([*cli, "sum-sims", str(DATA / "tiny_sim.csv"), "--out", "sim.simm"], tmp_path)
    assert to_simm.returncode == 0, to_simm.stderr
    argv = ["eval", "--sim", "sim.simm", "--annotations", str(DATA / "tiny.csv"), "--out", "eval.json"]
    result = run_python([*cli, *argv], tmp_path)
    assert result.returncode == 0, result.stderr
    golden = json.loads((DATA / "golden" / "eval.json").read_text())
    assert json.loads((tmp_path / "eval.json").read_text())["payload"] == golden["payload"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads")
@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "3"}])
def test_the_cli_starts_no_blas_threads(tmp_path, preset):
    to_simm = run_python(["-m", "framebias.cli", "sum-sims", str(DATA / "tiny_sim.csv"), "--out", "sim.simm"], tmp_path)
    assert to_simm.returncode == 0, to_simm.stderr
    code = f"""
import os
import sys
from framebias.cli import main
assert main(["eval", "--sim", "sim.simm", "--annotations", {str(DATA / "tiny.csv")!r}, "--out", "eval.json"]) == 0
print({NUMPY_SUBMODULES} != [], len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""
    result = run_python(["-c", code], tmp_path, **preset)
    assert result.returncode == 0, result.stderr
    loaded, threads, setting = result.stdout.split()
    assert loaded == "True"
    if preset:
        assert setting == "3"  # the caller's setting is kept
    else:
        assert (threads, setting) == ("1", "1")


def test_numpy_imported_first_is_used_as_is(tmp_path):
    code = """
import sys
import numpy
import framebias.metrics
from framebias._numpy import np
assert np is numpy and type(np) is type(sys)
"""
    result = run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr


def test_missing_numpy_fails_at_import(tmp_path):
    code = """
import sys
sys.modules["numpy"] = None  # find_spec then finds no numpy
try:
    import framebias
except ModuleNotFoundError as err:
    print(err.name)
"""
    result = run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "numpy"


def test_importing_the_cli_loads_neither_numpy_nor_pickle(tmp_path):
    code = f"""
import sys
import framebias.cli
print({NUMPY_SUBMODULES}, "pickle" in sys.modules)
ann = ["--annotations", {str(DATA / "tiny.csv")!r}]
assert framebias.cli.main(["audit", *ann, "--out", "a.json"]) == 0
print("pickle" in sys.modules)
assert framebias.cli.main(["filter", *ann, "--alpha", "5", "--out", "f.csv", "--report", "f.json"]) == 0
print("pickle" in sys.modules)
"""
    result = run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    # pickle loads as filter's writes are shared out by forking.fork_map, and only then
    assert result.stdout.splitlines() == ["[] False", "False", "True"]
