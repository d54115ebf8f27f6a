"""A command with two outputs replaces neither target before both files are
whole: audit's report and histogram, and each simulate condition's matrix
and annotation CSV. An output that cannot be written leaves every old file as
it was, with no temp file, and one stderr line. (filter and filter-one are
tested in ``test_filter_writes``.)"""

import os

import pytest

from framebias.cli import main

SHAPE = ["--classes", "2", "--train-per-class", "4", "--test-per-class", "2", "--min-class-size", "2"]


def files(root) -> dict:
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", ["audit", "simulate"])
def test_every_output_is_in_its_temp_file_before_a_target_is_replaced(tmp_path, data_dir, monkeypatch, command):
    argv = {
        "audit": ["audit", "--annotations", str(data_dir / "tiny.csv"), "--out", "a.json", "--hist-out", "h.csv"],
        "simulate": ["simulate", *SHAPE, "--seeds", "0", "--alphas", "30", "--out-dir", "sim"],
    }[command]
    seen, rename = [], os.replace

    def replace(src, dst):  # the bytes of every temp file, by its target, at each rename
        seen.append({tmp.parent / tmp.name.rsplit(".", 2)[0]: tmp.read_bytes() for tmp in tmp_path.rglob("*.tmp")})
        rename(src, dst)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "replace", replace)
    assert main(argv) == 0
    assert any(len(temps) == 2 for temps in seen)
    assert all(data == target.read_bytes() for temps in seen for target, data in temps.items())


def test_audit_whose_report_cannot_be_created_leaves_the_histogram(tmp_path, data_dir, capsys):
    hist, out = tmp_path / "hist.csv", tmp_path / "missing" / "audit.json"
    hist.write_bytes(b"old histogram\n")
    argv = ["audit", "--annotations", str(data_dir / "tiny.csv"), "--out", str(out), "--hist-out", str(hist)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"framebias audit: error: [Errno 2] No such file or directory: '{out}'\n")
    assert files(tmp_path) == {hist: b"old histogram\n"}


@pytest.mark.parametrize("taken", ["annotations_seed0.csv", "annotations_seed0_alpha30.csv"])
def test_simulate_condition_whose_csv_cannot_be_created_leaves_no_matrix(tmp_path, capsys, taken):
    out = tmp_path / "sim"
    (out / taken).mkdir(parents=True)
    assert main(["simulate", *SHAPE, "--seeds", "0", "--alphas", "30", "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", f"framebias simulate: error: [Errno 21] Is a directory: '{out / taken}'\n")
    # the baseline, scored before the filtered condition, is written whole
    written = [] if taken == "annotations_seed0.csv" else ["annotations_seed0.csv", "sim_seed0_baseline.simm"]
    assert sorted(p.name for p in out.iterdir()) == sorted([taken, *written])
    assert list((out / taken).iterdir()) == []
