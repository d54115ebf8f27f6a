"""framebias benchmark: closed-loop CLI workloads with checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload eval_4k --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

One client runs one op at a time, back to back, for ``--seconds``. An op is a
fresh ``python -m framebias.cli ...`` child (two for annotate_77k) with this
checkout's ``src/`` on PYTHONPATH. Each child is timed from outside and its
peak RSS is read from ``os.wait4`` for that child alone. Every op's outputs
must equal the first op's (report timestamps aside), and the last op's outputs
are checked against an independent recomputation (``checks.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates untraced
and traced ops (``tracer.py``) and prints the per-layer metrics. The last line
of standard output is one JSON object; details and provenance go to
``perfbench/results/``.

A child's ``ru_maxrss`` starts at its parent's peak RSS (the child is spawned
from the parent's memory image), so this process keeps its own peak small: it
never imports numpy, and set-up and checks run in children. Its peak is
recorded as ``runner_peak_rss_mb`` beside the results.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYERS, PER_LAYER, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
RUN_LIMIT_S = 150.0  # no op starts or runs past this, so the run ends within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)

TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], timeout: float) -> tuple[float, float, int, str]:
    """Run one child to completion: (wall seconds, its peak RSS in MB, exit code, stderr)."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text(errors="replace")


def outputs_digest(paths) -> str:
    """sha256 over the output files, with report timestamps blanked."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(TIMESTAMP.sub(b"", path.read_bytes()))
    return h.hexdigest()


class Runner:
    """Set-up, the closed op loop and the checks of one workload run."""

    def __init__(self, workload, seconds: float, deadline: float) -> None:
        self.wl = workload
        self.seconds = seconds
        self.deadline = deadline

    def helper(self, action: str) -> list[str]:
        args = [sys.executable, str(HERE / "workloads.py"), action, self.wl.name, str(self.wl.seed), str(WORK)]
        return args + (["--small"] if self.wl.small else [])

    def setup(self) -> list[float]:
        """Make the inputs and warm the interpreter, several times; each time is one sample."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            _, _, code, err = run_child(self.helper("setup"), max(1.0, self.deadline - time.perf_counter()))
            if code != 0:
                raise SystemExit(f"perfbench: {self.wl.name} set-up failed:\n{err}")
            run_child([sys.executable, "-c", "import framebias.cli"], 60.0)
            times.append(time.perf_counter() - start)
        return times

    def import_times(self) -> list[float]:
        code = "import time; t = time.perf_counter(); import framebias.cli; print(time.perf_counter() - t)"
        times = []
        for _ in range(IMPORT_REPEATS):
            out = subprocess.run(
                [sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60
            )
            if out.returncode == 0:
                times.append(float(out.stdout))
        return times

    def op(self, op_id: int, traced: bool) -> dict:
        self.wl.clear_outputs()
        record = {"op": op_id, "traced": traced, "wall_s": 0.0, "peak_rss_mb": 0.0, "ok": True, "why": "", "spans": []}
        for k, args in enumerate(self.wl.commands()):
            if traced:
                spans = WORK / f"spans_{op_id}_{k}.json"
                record["spans"].append(spans)
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans), str(op_id), "--", *args]
            else:
                argv = [sys.executable, "-m", "framebias.cli", *args]
            wall, rss, code, err = run_child(argv, max(1.0, self.deadline - time.perf_counter()))
            record["wall_s"] += wall
            record["peak_rss_mb"] = max(record["peak_rss_mb"], rss)
            if code != 0 or "Traceback" in err:
                tail = err.strip().splitlines()[-1:] or [""]
                record.update(ok=False, why=f"{args[0]} exited {code}: {tail[0]}")
                return record
        record["digest"] = outputs_digest(self.wl.outputs())
        return record

    def loop(self, trace: bool) -> list[dict]:
        """Closed loop, one client: the next op starts when the last one ends."""
        ops: list[dict] = []
        start = time.perf_counter()
        while (
            not ops
            or (trace and len(ops) < 2)
            or time.perf_counter() - start < self.seconds
        ) and time.perf_counter() < self.deadline:
            ops.append(self.op(len(ops), traced=trace and len(ops) % 2 == 1))
        return ops

    def check(self) -> list[str]:
        out = subprocess.run(self.helper("check"), cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            tail = out.stderr.strip().splitlines()[-1:] or [""]
            return [f"output check crashed: {tail[0]}"]
        return json.loads(out.stdout.splitlines()[-1])

    def verify(self, ops: list[dict]) -> list[str]:
        """Determinism against the first op, then the full check of the last op's outputs."""
        reference = ops[0].get("digest")
        for op in ops:
            if op["ok"] and op["digest"] != reference:
                op.update(ok=False, why="outputs differ from the first op's")
        errors = self.check() if ops[-1]["ok"] else ["last op failed, so no outputs were checked"]
        if errors:
            for op in ops:
                if op["ok"]:
                    op.update(ok=False, why=f"output check failed: {errors[0]}")
        return errors


def end_to_end(setup: list[float], ops: list[dict], items: int) -> dict[str, float]:
    good = [op for op in ops if op["ok"]] or ops
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(op["wall_s"] for op in good),
        "items_per_s": items * len(good) / sum(op["wall_s"] for op in good),
        "peak_rss_mb": max(op["peak_rss_mb"] for op in ops),
        "ok_frac": sum(op["ok"] for op in ops) / len(ops),
    }


def per_layer(ops: list[dict], import_times: list[float]) -> tuple[dict[str, float], dict[str, str], list]:
    """Medians over traced ops of each per-layer metric, the reasons some do not apply, and the spans."""
    per_op = []
    missing: dict[str, str] = {}
    records = []
    for op in ops:
        if not op["traced"] or not op["ok"]:
            continue
        op_records = [json.loads(p.read_text()) for p in op["spans"]]
        records.extend(op_records)
        values, missing = layer_metrics(op_records)
        values["trace.accounted_frac"] = sum(values[f"{layer}.self_s"] for layer in LAYERS) / op["wall_s"]
        per_op.append(values)
    metrics = {name: 0.0 for name, *_ in PER_LAYER}
    if per_op:
        metrics.update({name: statistics.median(v[name] for v in per_op) for name in per_op[0]})
    traced = [op["wall_s"] for op in ops if op["traced"]]
    plain = [op["wall_s"] for op in ops if not op["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["cli.import_s"] = statistics.median(import_times) if import_times else 0.0
    return metrics, missing, records


def git_commit() -> str:
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unavailable (not a git checkout)"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(wl, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "inputs": wl.sizes(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    wl = WORKLOADS[name](WORK, seed)
    runner = Runner(wl, seconds, deadline)
    setup = runner.setup()
    import_times = runner.import_times() if trace else []
    ops = runner.loop(trace)
    errors = runner.verify(ops)
    result = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(wl, seed),
        "items_per_op": wl.items(),
        "item": wl.item,
        "setup_samples_s": setup,
        "ops": [{k: v for k, v in op.items() if k != "spans"} for op in ops],
        "check_errors": errors,
    }
    if trace:
        result["metrics"], result["not_applicable"], records = per_layer(ops, import_times)
        result["cli_import_samples_s"] = import_times
    else:
        result["metrics"] = end_to_end(setup, ops, wl.items())
        records = []
    result["runner_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if records:
        (RESULTS / f"{stem}_spans.json").write_text(json.dumps(records, separators=(",", ":")))
    shutil.rmtree(WORK, ignore_errors=True)
    return result


def print_result(result: dict, units: dict[str, str]) -> None:
    p = result["provenance"]
    ops = result["ops"]
    failed = sum(not op["ok"] for op in ops)
    print(
        f"== {result['workload']} seed={p['seed']} trace={result['trace']} python={p['python']} "
        f"numpy={p['numpy']} nproc={p['nproc']} cpu={p['cpu']!r} commit={p['commit']}"
    )
    print(f"   inputs: {json.dumps(p['inputs'])}; {result['items_per_op']} x {result['item']} per op")
    print(f"   ops attempted={len(ops)} failed={failed} failed_frac={failed / len(ops):.4g}")
    samples = {
        "setup_s": f"median of {len(result['setup_samples_s'])} set-ups",
        "wall_s": f"median of {sum(op['ok'] for op in ops) or len(ops)} ops",
        "items_per_s": f"{result['items_per_op']} items per op, over the ops' summed wall time",
        "peak_rss_mb": f"max over {len(ops)} ops",
    }
    for name, value in result["metrics"].items():
        note = samples.get(name, "")
        if name in result.get("not_applicable", {}):
            note = "n/a: " + result["not_applicable"][name]
        print(f"   {name:34s} {value:14.6g} {units[name]:9s} {note}")
    for error in result["check_errors"][:5]:
        print(f"   check: {error}", file=sys.stderr)
    for op in ops:
        if not op["ok"]:
            print(f"   op {op['op']} failed: {op['why']}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own run.py process, so no run inherits another's memory peak."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=200)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {out.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "framebias" / "cli.py").is_file():
        print(f"perfbench: no framebias sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    units = dict(END_TO_END) | {name: unit for name, unit, *_ in PER_LAYER}
    print_result(result, units)
    ops = result["ops"]
    print(json.dumps({
        "correct": not result["check_errors"] and all(op["ok"] for op in ops),
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
