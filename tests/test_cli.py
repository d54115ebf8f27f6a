"""End-to-end CLI tests: golden reports, exit codes, round trips.

Golden files live in tests/data/golden/ and are compared byte-for-byte
after normalizing the timestamp field. Set UPDATE_GOLDENS=1 to regenerate.
"""

import json
import os
import re
import shutil
from pathlib import Path

import pytest

from framebias.cli import main
from framebias.dataset import load_annotations
from framebias.reports import build_envelope, write_report

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

TIMESTAMP_RE = re.compile(rb'"timestamp": "[^"]*"')


def normalize(raw: bytes) -> bytes:
    return TIMESTAMP_RE.sub(b'"timestamp": "<timestamp>"', raw)


def check_golden(produced: Path, name: str) -> None:
    data = normalize(produced.read_bytes())
    golden_path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDENS"):
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_bytes(data)
    assert golden_path.exists(), f"golden file {name} missing; run with UPDATE_GOLDENS=1"
    assert data == golden_path.read_bytes(), f"{name} drifted from golden"


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    for name in ("tiny.csv", "tiny_sim.csv", "tiny_ek_train.csv", "tiny_ek_test.csv"):
        shutil.copy(DATA / name, fixtures / name)
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_audit_golden(workspace):
    argv = [
        "audit", "--annotations", "fixtures/tiny.csv", "--class", "3,4",
        "--bin-width", "100", "--out", "out/audit.json", "--hist-out", "out/hist.csv",
    ]
    assert main(argv) == 0
    check_golden(workspace / "out/audit.json", "audit.json")
    check_golden(workspace / "out/hist.csv", "hist.csv")


def test_audit_rerun_byte_identical(workspace):
    argv = [
        "audit", "--annotations", "fixtures/tiny.csv",
        "--out", "out/a1.json",
    ]
    assert main(argv) == 0
    assert main(argv[:-1] + ["out/a2.json"]) == 0
    a1 = normalize((workspace / "out/a1.json").read_bytes())
    a2 = normalize((workspace / "out/a2.json").read_bytes())
    # identical apart from the echoed output path
    assert a1.replace(b"a1.json", b"") == a2.replace(b"a2.json", b"")


def test_audit_ek100_pair(workspace):
    argv = [
        "audit", "--annotations", "fixtures/tiny_ek_train.csv", "fixtures/tiny_ek_test.csv",
        "--format", "ek100_pair", "--out", "out/audit_ek.json",
    ]
    assert main(argv) == 0
    payload = json.loads((workspace / "out/audit_ek.json").read_text())["payload"]
    assert payload["num_clips"] == 5
    assert payload["global"]["test_mean_len"] > payload["global"]["train_mean_len"]


def test_audit_unknown_class_exits_nonzero(workspace, capsys):
    argv = ["audit", "--annotations", "fixtures/tiny.csv", "--class", "9,9", "--out", "out/x.json"]
    assert main(argv) == 1
    assert "not present" in capsys.readouterr().err
    assert not (workspace / "out/x.json").exists()


def test_filter_golden_and_round_trip(workspace):
    argv = [
        "filter", "--annotations", "fixtures/tiny.csv", "--alpha", "20",
        "--min-class-size", "1", "--out", "out/filtered.csv", "--report", "out/filter.json",
    ]
    assert main(argv) == 0
    check_golden(workspace / "out/filter.json", "filter.json")
    check_golden(workspace / "out/filtered.csv", "filtered.csv")
    # filtered annotations re-parse and re-audit cleanly
    filtered = load_annotations(workspace / "out/filtered.csv")
    assert "c04" not in filtered.by_id
    assert main(["audit", "--annotations", "out/filtered.csv", "--out", "out/re_audit.json"]) == 0


def test_filter_huge_alpha_noop(workspace):
    argv = [
        "filter", "--annotations", "fixtures/tiny.csv", "--alpha", "1e9",
        "--min-class-size", "1", "--out", "out/same.csv", "--report", "out/r.json",
    ]
    assert main(argv) == 0
    assert (workspace / "out/same.csv").read_bytes() == (workspace / "fixtures/tiny.csv").read_bytes()
    report = json.loads((workspace / "out/r.json").read_text())
    assert report["payload"]["removed_count"] == 0


def test_filter_derived_fixture_via_cli(workspace):
    # the {10,100,400} fixture: exactly one clip removed at alpha 20, floor 2
    rows = [
        "clip_id,video_id,split,start_frame,stop_frame,caption,verb_class,noun_class",
        "t1,v,train,0,9,x,1,1",
        "t2,v,train,0,99,x,1,1",
        "t3,v,train,0,399,x,1,1",
        "e1,v,test,0,99,x,1,1",
    ]
    (workspace / "fixtures/three.csv").write_text("\n".join(rows) + "\n")
    argv = [
        "filter", "--annotations", "fixtures/three.csv", "--alpha", "20",
        "--min-class-size", "2", "--out", "out/three_f.csv", "--report", "out/three.json",
    ]
    assert main(argv) == 0
    report = json.loads((workspace / "out/three.json").read_text())
    assert report["payload"]["removed_clip_ids"] == ["t3"]
    assert report["payload"]["per_class"][0]["stop_reason"] == "size_floor"


def test_filter_one_golden(workspace):
    argv = [
        "filter-one", "--annotations", "fixtures/tiny.csv", "--verb", "3", "--noun", "4",
        "--mode", "long", "--fraction", "0.5", "--out", "out/one.csv", "--report", "out/one.json",
    ]
    assert main(argv) == 0
    check_golden(workspace / "out/one.json", "filter_one.json")
    filtered = load_annotations(workspace / "out/one.csv")
    assert "c05" not in filtered.by_id  # the longer of the two train clips


def test_eval_golden(workspace):
    argv = [
        "eval", "--sim", "fixtures/tiny_sim.csv", "--annotations", "fixtures/tiny.csv",
        "--out", "out/eval.json",
    ]
    assert main(argv) == 0
    check_golden(workspace / "out/eval.json", "eval.json")
    payload = json.loads((workspace / "out/eval.json").read_text())["payload"]
    assert payload["avg"]["ndcg"] == pytest.approx(
        0.5 * (payload["t2v"]["ndcg"] + payload["v2t"]["ndcg"]), abs=1e-6
    )


def test_eval_identity_is_perfect(workspace):
    # disjoint classes, so identity similarity realizes the ideal ranking
    rows = [
        "clip_id,video_id,split,start_frame,stop_frame,caption,verb_class,noun_class",
        "a,v,test,0,9,one,1,1",
        "b,v,test,0,9,two,2,2",
        "c,v,test,0,9,three,3,3",
    ]
    (workspace / "fixtures/disjoint.csv").write_text("\n".join(rows) + "\n")
    lines = [",a,b,c", "a,1.0,0.0,0.0", "b,0.0,1.0,0.0", "c,0.0,0.0,1.0"]
    (workspace / "fixtures/ident.csv").write_text("\n".join(lines) + "\n")
    argv = [
        "eval", "--sim", "fixtures/ident.csv", "--annotations", "fixtures/disjoint.csv",
        "--out", "out/ident.json",
    ]
    assert main(argv) == 0
    payload = json.loads((workspace / "out/ident.json").read_text())["payload"]
    assert payload["avg"]["ndcg"] == 1.0
    assert payload["avg"]["map"] == 1.0
    assert payload["t2v"]["gt_ranks"] == [1, 1, 1]


def test_eval_id_mismatch_names_offender(workspace, capsys):
    lines = [",c03,zz9", "c03,1.0,0.0"]
    (workspace / "fixtures/bad.csv").write_text("\n".join(lines) + "\n")
    argv = [
        "eval", "--sim", "fixtures/bad.csv", "--annotations", "fixtures/tiny.csv",
        "--out", "out/bad.json",
    ]
    assert main(argv) == 1
    assert "zz9" in capsys.readouterr().err


def test_inspect_golden(workspace, capsys):
    argv = [
        "inspect", "--sim", "fixtures/tiny_sim.csv", "--annotations", "fixtures/tiny.csv",
        "--query", "c08", "--topk", "2",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    golden_path = GOLDEN / "inspect.txt"
    if os.environ.get("UPDATE_GOLDENS"):
        golden_path.write_text(out)
    assert out == golden_path.read_text()


def test_inspect_unknown_query(workspace, capsys):
    argv = [
        "inspect", "--sim", "fixtures/tiny_sim.csv", "--annotations", "fixtures/tiny.csv",
        "--query", "nope",
    ]
    assert main(argv) == 1
    assert "nope" in capsys.readouterr().err


def test_simulate_golden(workspace):
    argv = [
        "simulate", "--classes", "2", "--train-per-class", "4", "--test-per-class", "2",
        "--bias", "0.6", "--test-offset", "50", "--train-len-mean", "100",
        "--len-stddev", "10", "--class-spread", "60", "--buckets", "4",
        "--min-class-size", "2", "--seeds", "0,1", "--alphas", "30",
        "--out-dir", "out/sim",
    ]
    assert main(argv) == 0
    check_golden(workspace / "out/sim/sweep_report.json", "sweep_report.json")
    for name in (
        "annotations_seed0.csv",
        "sim_seed0_baseline.simm",
        "annotations_seed0_alpha30.csv",
        "sim_seed0_alpha30.simm",
        "annotations_seed1.csv",
        "sim_seed1_baseline.simm",
    ):
        assert (workspace / "out/sim" / name).exists(), name
    # generated annotations flow back through the standard commands
    assert main(["audit", "--annotations", "out/sim/annotations_seed0.csv",
                 "--out", "out/sim_audit.json"]) == 0


def test_simulate_rerun_identical_artifacts(workspace):
    argv = [
        "simulate", "--classes", "2", "--train-per-class", "3", "--test-per-class", "2",
        "--seeds", "0", "--alphas", "10", "--out-dir",
    ]
    assert main(argv + ["out/simA"]) == 0
    assert main(argv + ["out/simB"]) == 0
    a = (workspace / "out/simA/sim_seed0_baseline.simm").read_bytes()
    b = (workspace / "out/simB/sim_seed0_baseline.simm").read_bytes()
    assert a == b
    annA = (workspace / "out/simA/annotations_seed0.csv").read_bytes()
    annB = (workspace / "out/simB/annotations_seed0.csv").read_bytes()
    assert annA == annB


def test_sum_sims_golden(workspace):
    argv = [
        "sum-sims", "fixtures/tiny_sim.csv", "fixtures/tiny_sim.csv", "--out", "out/sum.csv",
    ]
    assert main(argv) == 0
    check_golden(workspace / "out/sum.csv", "sum.csv")


def test_sum_sims_mean_passthrough(workspace):
    argv = [
        "sum-sims", "fixtures/tiny_sim.csv", "fixtures/tiny_sim.csv", "--mean",
        "--out", "out/mean.csv",
    ]
    assert main(argv) == 0
    single = ["sum-sims", "fixtures/tiny_sim.csv", "--out", "out/single.csv"]
    assert main(single) == 0
    assert (workspace / "out/mean.csv").read_text() == (workspace / "out/single.csv").read_text()


def test_sum_sims_mismatch(workspace, capsys):
    (workspace / "fixtures/small.csv").write_text(",c03\nc03,1.0\n")
    argv = [
        "sum-sims", "fixtures/tiny_sim.csv", "fixtures/small.csv", "--out", "out/x.csv",
    ]
    assert main(argv) == 1
    assert "id mappings" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, place",
    [
        (",c03,c06,c08\nc03,0.9,0.2,0.5\nc09,0.1,0.8,0.3\nc08,0.9,0.1,0.7\n", " at row 1: 'c09' against 'c06'"),
        (",c03,c06,c09\nc03,0.9,0.2,0.5\nc06,0.1,0.8,0.3\nc08,0.9,0.1,0.7\n", " at column 2: 'c09' against 'c08'"),
        (",c03\nc03,1.0\n", ": shape 1x1 against 3x3"),
    ],
    ids=["row", "column", "shape"],
)
def test_sum_sims_names_the_input_and_the_place_where_ids_differ(workspace, capsys, text, place):
    (workspace / "fixtures/other.csv").write_text(text)
    argv = ["sum-sims", "fixtures/tiny_sim.csv", "fixtures/tiny_sim.csv", "fixtures/other.csv", "--out", "out/x.csv"]
    assert main(argv) == 1
    message = "fixtures/other.csv: id mappings differ from fixtures/tiny_sim.csv's" + place
    assert capsys.readouterr() == ("", f"framebias sum-sims: error: {message}\n")
    assert list((workspace / "out").iterdir()) == []


@pytest.mark.parametrize("name", ["q.csv", "q.simm"])
@pytest.mark.parametrize(
    "command, message",
    [
        (["eval", "--out", "out/e.json"], "matrix column id 'q' does not resolve to a clip"),
        (["inspect", "--query", "c03", "--topk", "1"], "gallery id 'q' does not resolve to a clip"),
    ],
)
def test_an_id_that_does_not_resolve_is_named_with_the_matrix_path(workspace, capsys, name, command, message):
    # column q is no clip of the annotations, and c03's best match
    (workspace / "fixtures/q.csv").write_text(",c03,c06,q\nc03,0.1,0.2,0.9\nc06,0.1,0.8,0.3\nc08,0.9,0.1,0.7\n")
    if name.endswith(".simm"):
        assert main(["sum-sims", "fixtures/q.csv", "--out", f"fixtures/{name}"]) == 0
    argv = [command[0], "--sim", f"fixtures/{name}", "--annotations", "fixtures/tiny.csv", *command[1:]]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"framebias {command[0]}: error: fixtures/{name}: {message}\n")
    assert list((workspace / "out").iterdir()) == []


def test_parse_error_exit_code(workspace, capsys):
    (workspace / "fixtures/broken.csv").write_text("clip_id,video_id\nx,y\n")
    assert main(["audit", "--annotations", "fixtures/broken.csv", "--out", "out/x.json"]) == 1
    assert "header" in capsys.readouterr().err


def test_missing_file_exit_code(workspace, capsys):
    assert main(["audit", "--annotations", "fixtures/absent.csv", "--out", "out/x.json"]) == 1
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "framebias" in capsys.readouterr().out


@pytest.mark.parametrize(
    "seeds, alphas, named",
    [
        ("0", "12.3456789,12.3456781", "alpha values 12.3456789 and 12.3456781 share the file tag alpha12.3457"),
        ("3,1,3", "20", "seed values 3 and 3 share the file tag seed3"),
    ],
    ids=["alphas-share-a-tag", "repeated-seed"],
)
def test_simulate_rejects_conditions_sharing_files(workspace, capsys, seeds, alphas, named):
    argv = [
        "simulate", "--classes", "2", "--train-per-class", "3", "--test-per-class", "2",
        "--seeds", seeds, "--alphas", alphas, "--out-dir", "out/clash",
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert named in err
    assert not (workspace / "out/clash").exists()


@pytest.mark.parametrize("topk", ["0", "-3"])
def test_simulate_rejects_topk_below_one_before_writing(workspace, capsys, topk):
    argv = [
        "simulate", "--classes", "2", "--train-per-class", "3", "--test-per-class", "2",
        "--seeds", "0", "--alphas", "10", "--topk", topk, "--out-dir", "out/sim",
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"framebias simulate: error: topk must be >= 1, got {topk}"]
    assert not (workspace / "out/sim").exists()


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--min-class-size=0", "min_class_size must be >= 1, got 0"),
        ("--alphas=-5", "alpha must be >= 0, got -5.0"),
        ("--seeds=", "alphas and seeds must be non-empty"),
    ],
    ids=["min-class-size-zero", "negative-alpha", "no-seeds"],
)
def test_simulate_rejects_sweep_arguments_before_writing(workspace, capsys, flag, message):
    argv = [
        "simulate", "--classes", "2", "--train-per-class", "3", "--test-per-class", "2",
        "--seeds", "0", "--alphas", "10", flag, "--out-dir", "out/sim",
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"framebias simulate: error: {message}"]
    assert list((workspace / "out").iterdir()) == []  # not even the --out-dir


def test_simulate_rejects_a_negative_seed_before_writing(workspace, capsys):
    argv = [
        "simulate", "--classes", "4", "--train-per-class", "12", "--test-per-class", "2",
        "--seeds", "0,-1", "--alphas", "20", "--out-dir", "out/sim",
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["framebias simulate: error: seed must be an integer >= 0, got -1"]
    assert not (workspace / "out/sim").exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
def test_non_finite_float_flags_rejected(workspace, capsys, value):
    argv = [
        "filter", "--annotations", "fixtures/tiny.csv", f"--alpha={value}",
        "--out", "out/f.csv", "--report", "out/f.json",
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err
    sim = ["simulate", "--classes", "2", "--train-per-class", "3", "--test-per-class", "2", "--seeds", "0"]
    assert main(sim + [f"--alphas=10,{value}", "--out-dir", "out/sim"]) == 1
    assert "finite" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(sim + [f"--bias={value}", "--out-dir", "out/sim"])
    assert sorted(p.name for p in (workspace / "out").iterdir()) == []


def test_report_rejects_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        write_report(tmp_path / "r.json", build_envelope("x", {}, {"value": float("inf")}))
    assert list(tmp_path.iterdir()) == []


def test_sum_sims_names_the_bad_file(workspace, capsys):
    (workspace / "fixtures/bad.csv").write_text(",c03\nc03,nan\n")
    assert main(["sum-sims", "fixtures/bad.csv", "--out", "out/x.csv"]) == 1
    err = capsys.readouterr().err
    assert "fixtures/bad.csv: matrix values must all be finite" in err and "'c03'" in err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["audit", "--out", "out/r.json", "--hist-out", "out/r.json"], "--out and --hist-out"),
        (["audit", "--out", "out/r.json", "--hist-out", "./out/r.json"], "--out and --hist-out"),
        (["filter", "--alpha", "5", "--out", "out/f", "--report", "out/f"], "--out and --report"),
        (["filter", "--alpha", "5", "--out", "./out/f", "--report", "out/../out/f"], "--out and --report"),
        (
            ["filter-one", "--verb", "3", "--noun", "4", "--mode", "long", "--out", "out/f", "--report", "./out/f"],
            "--out and --report",
        ),
    ],
    ids=["audit", "audit-dot-slash", "filter", "filter-dot-dot", "filter-one"],
)
@pytest.mark.parametrize("annotations", ["fixtures/tiny.csv", "fixtures/absent.csv"])
def test_outputs_of_one_command_must_differ(workspace, capsys, argv, flags, annotations):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--annotations", annotations, *argv[1:]])
    assert exc.value.code == 2  # a usage error, found before any input is read
    assert f"{argv[0]}: {flags} name the same file" in capsys.readouterr().err
    assert list((workspace / "out").iterdir()) == []
