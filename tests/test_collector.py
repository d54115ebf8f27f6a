"""Commands run with the cyclic collector off: no framebias structure holds a
cycle, so a command leaves the same few cyclic objects whatever the size of
its input, and the collector's state is the caller's again once it returns."""

import gc
import random

import pytest

from framebias import cli
from framebias.cli import main
from framebias.dataset import NATIVE_COLUMNS


def write_clips(path, count: int, seed: int = 0) -> None:
    """A native annotation file of ``count`` clips over 40 classes; every
    fourth clip is a test clip, 60 frames longer on average."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(NATIVE_COLUMNS) + "\n")
        for i in range(count):
            verb, noun = rng.randrange(8), rng.randrange(5)
            split = "test" if i % 4 == 0 else "train"
            start, length = rng.randrange(1000), rng.randrange(20, 400) + (60 if split == "test" else 0)
            fh.write(f"c{i},v{i % 17},{split},{start},{start + length - 1},cap {verb} {noun},{verb},{noun}\n")


@pytest.fixture
def restore_collector():
    yield
    gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("rows, code", [(20, 0), (0, 1)], ids=["exit-0", "exit-1"])
def test_a_command_runs_without_the_collector_and_restores_it(tmp_path, monkeypatch, restore_collector,
                                                              enabled, rows, code):
    if rows:
        write_clips(tmp_path / "ann.csv", rows)
    else:
        (tmp_path / "ann.csv").write_text("not,the,header\n", encoding="utf-8")
    during, real = [], cli.load_annotations

    def load(*args):
        during.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(cli, "load_annotations", load)
    gc.enable() if enabled else gc.disable()
    assert main(["audit", "--annotations", str(tmp_path / "ann.csv"), "--out", str(tmp_path / "a.json")]) == code
    assert (during, gc.isenabled()) == ([False], enabled)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_collector_is_restored_when_a_command_raises(tmp_path, monkeypatch, restore_collector, enabled):
    def fail(*args):
        raise RuntimeError("not a data error")

    monkeypatch.setattr(cli, "load_annotations", fail)
    gc.enable() if enabled else gc.disable()
    with pytest.raises(RuntimeError, match="not a data error"):
        main(["audit", "--annotations", str(tmp_path / "ann.csv"), "--out", str(tmp_path / "a.json")])
    assert gc.isenabled() is enabled


def cyclic_garbage(argv) -> int:
    """The objects that ``gc.collect()`` finds after ``main(argv)``, with the
    collector off from a collection just before, so the command made them all."""
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


def test_annotation_commands_leave_cyclic_garbage_of_a_fixed_size(tmp_path):
    for count in (2000, 20000):
        write_clips(tmp_path / f"ann{count}.csv", count)

    def commands(count):
        ann = ["--annotations", str(tmp_path / f"ann{count}.csv")]
        return [
            ["audit", *ann, "--out", str(tmp_path / "a.json"), "--hist-out", str(tmp_path / "h.csv")],
            ["filter", *ann, "--alpha", "20", "--out", str(tmp_path / "f.csv"), "--report", str(tmp_path / "f.json")],
        ]

    for argv in commands(2000):  # what a first run loads and caches is not the command's garbage
        cyclic_garbage(argv)
    small, large = ([cyclic_garbage(argv) for argv in commands(count)] for count in (2000, 20000))
    assert small == large
    assert max(small) < 2000  # argparse's own cycles, not one per clip


def test_simulate_leaves_cyclic_garbage_of_a_fixed_size(tmp_path):
    def argv(seeds):
        shape = ["--classes", "5", "--train-per-class", "12", "--test-per-class", "3", "--min-class-size", "2"]
        return ["simulate", *shape, "--seeds", seeds, "--alphas", "15,60", "--out-dir", str(tmp_path / seeds)]

    cyclic_garbage(argv("9"))
    assert cyclic_garbage(argv("0")) == cyclic_garbage(argv("1,2,3"))
