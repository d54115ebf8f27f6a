"""Self-test of the benchmark's checks, on small inputs.

Usage, from the repository root::

    python3 perfbench/selftest.py

For each workload it runs real ops on small inputs and requires that the
genuine outputs pass the output check and the determinism check, also when an
op is traced. Then it corrupts one output at a time and requires that the
check rejects each corruption. It also requires that the metric names in
BENCHMARK.json match the ones run.py reports. Exits 0 when every case
behaves as required.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from run import END_TO_END, ROOT, WORK, Runner, outputs_digest
from tracer import PER_LAYER
from workloads import WORKLOADS


def edit_json(path: Path, change) -> None:
    envelope = json.loads(path.read_text())
    change(envelope["payload"])
    path.write_text(json.dumps(envelope, indent=2) + "\n")


def edit_lines(path: Path, change) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(change(lines)))


def bump(block: dict, key: str, amount: float) -> None:
    block[key] += amount


def scale_simm_row(path: Path, row: int) -> None:
    """Negate one row of a SIMM file's scores, in place."""
    raw = bytearray(path.read_bytes())
    ncols = int.from_bytes(raw[9:13], "little")
    import numpy as np

    values = np.frombuffer(raw, dtype="<f8", count=ncols, offset=13 + 8 * row * ncols).copy()
    raw[13 + 8 * row * ncols : 13 + 8 * (row + 1) * ncols] = (-values).tobytes()
    path.write_bytes(bytes(raw))


def remove_test_clip(out: Path) -> None:
    """Claim a test clip as removed by the filter and drop it from the filtered CSV."""
    lines = (out / "filtered.csv").read_text().splitlines(keepends=True)
    victim = next(i for i, line in enumerate(lines) if ",test," in line)
    clip_id = lines[victim].split(",", 1)[0]
    (out / "filtered.csv").write_text("".join(lines[:victim] + lines[victim + 1 :]))

    def change(payload):
        payload["removed_clip_ids"].append(clip_id)
        payload["removed_count"] += 1

    edit_json(out / "filter.json", change)


def drop_first_test_row(lines: list[str]) -> list[str]:
    victim = next(i for i, line in enumerate(lines) if ",test," in line)
    return lines[:victim] + lines[victim + 1 :]


def swap_first_two(items: list) -> None:
    items[0], items[1] = items[1], items[0]


def set_stop_reason(payload: dict, old: str, new: str) -> None:
    outcome = next(o for o in payload["per_class"] if o["stop_reason"] == old)
    outcome["stop_reason"] = new


CORRUPTIONS = {
    "eval_4k": {
        "gt rank off by one": lambda o: edit_json(o / "eval.json", lambda p: bump(p["t2v"]["gt_ranks"], 0, 1)),
        "t2v nDCG shifted": lambda o: edit_json(o / "eval.json", lambda p: bump(p["t2v"], "ndcg", 1e-4)),
        "v2t mAP shifted": lambda o: edit_json(o / "eval.json", lambda p: bump(p["v2t"], "map", -1e-3)),
        "recall@5 shifted": lambda o: edit_json(o / "eval.json", lambda p: bump(p["v2t"]["recall"], "5", 0.01)),
        "pessimistic rank shifted": lambda o: edit_json(
            o / "eval.json", lambda p: bump(p["t2v"], "mean_rank_pessimistic", 0.5)
        ),
    },
    "sweep_1k": {
        "mean_gt_rank shifted": lambda o: edit_json(
            o / "sweep_report.json", lambda p: bump(p["conditions"][1], "mean_gt_rank", 0.01)
        ),
        "written SIMM differs from the scored one": lambda o: scale_simm_row(
            next(o.glob("sim_*_alpha*.simm")), 0
        ),
        "removed_count off by one": lambda o: edit_json(
            o / "sweep_report.json", lambda p: bump(p["conditions"][1], "removed_count", 1)
        ),
        "test clip dropped from a filtered CSV": lambda o: edit_lines(
            next(o.glob("annotations_*_alpha*.csv")), drop_first_test_row
        ),
    },
    "annotate_77k": {
        "class train mean shifted": lambda o: edit_json(
            o / "audit.json", lambda p: bump(p["class_stats"][0], "train_mean_len", 0.5)
        ),
        "discrepancy table reordered": lambda o: edit_json(
            o / "audit.json", lambda p: swap_first_two(p["discrepancy_table"])
        ),
        "histogram CSV count off": lambda o: edit_lines(
            o / "hist.csv", lambda lines: lines[:1] + [lines[1].replace(",", ",1", 1)] + lines[2:]
        ),
        "test clip removed": remove_test_clip,
        "stop reason inconsistent with its gap": lambda o: edit_json(
            o / "filter.json", lambda p: set_stop_reason(p, "within_margin", "no_improvement")
        ),
    },
}


def check_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    if [m["name"] for m in spec["end_to_end"]] != [name for name, _ in END_TO_END]:
        failures.append("BENCHMARK.json end_to_end names differ from run.END_TO_END")
    if {(m["name"], m["unit"]) for m in spec["end_to_end"]} != set(END_TO_END):
        failures.append("BENCHMARK.json end_to_end units differ from run.END_TO_END")
    want = [(name, unit, better) for name, unit, better, *_ in PER_LAYER]
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != want:
        failures.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return failures


def selftest_workload(name: str) -> list[str]:
    failures = []
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    wl = WORKLOADS[name](WORK, seed=7, small=True)
    runner = Runner(wl, seconds=0.0, deadline=time.perf_counter() + 300)
    runner.setup()
    ops = [runner.op(0, traced=False), runner.op(1, traced=True)]
    errors = runner.verify(ops)
    if errors or not all(op["ok"] for op in ops):
        return [f"{name}: genuine outputs rejected: {errors[:3] or [op['why'] for op in ops]}"]
    print(f"ok   {name}: genuine outputs pass; the traced op's outputs equal the untraced op's")
    saved = WORK / "saved"
    shutil.copytree(wl.out, saved)
    for label, corrupt in CORRUPTIONS[name].items():
        shutil.rmtree(wl.out)
        shutil.copytree(saved, wl.out)
        corrupt(wl.out)
        errors = runner.check()
        if errors:
            print(f"ok   {name}: rejects '{label}': {errors[0][:100]}")
        else:
            failures.append(f"{name}: check accepted the corruption '{label}'")
        if outputs_digest(wl.outputs()) == ops[0]["digest"]:
            failures.append(f"{name}: determinism digest missed '{label}'")
    if not failures:
        print(f"ok   {name}: the determinism digest changes under every corruption")
    shutil.rmtree(WORK, ignore_errors=True)
    return failures


def main() -> int:
    failures = check_names()
    for name in WORKLOADS:
        failures += selftest_workload(name)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
