"""The benchmark's workloads: inputs made from a seed, CLI ops, and output checks.

Each workload writes its inputs under ``WORK/in`` and has its ops write under
``WORK/out``. An op is one or more ``framebias`` CLI invocations; ``run.py``
runs and times them. ``check`` recomputes the outputs with
``checks.py``, which shares no code with framebias.

``run.py`` runs set-up and checks as child processes, so that its own memory
stays small::

    python workloads.py setup|check NAME SEED WORK [--small]

``check`` prints a JSON list of errors. ``--small`` shrinks the inputs, for
``selftest.py``. This module imports numpy only inside those actions.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path


class Workload:
    name = ""
    item = ""

    def __init__(self, work: Path, seed: int, small: bool = False) -> None:
        self.inputs = work / "in"
        self.out = work / "out"
        self.seed = seed
        self.small = small

    def setup(self) -> None:
        """Write the inputs (the same bytes for the same seed)."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def commands(self) -> list[list[str]]:
        """Arguments of each CLI process of one op, run in order."""
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        return sorted(self.out.iterdir())

    def items(self) -> int:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


class EvalWorkload(Workload):
    name = "eval_4k"
    item = "query (both directions)"

    def __init__(self, work, seed, small=False):
        super().__init__(work, seed, small)
        self.classes, self.train, self.test = (30, 15, 5) if small else (400, 30, 10)
        self.simm = self.inputs / "eval.simm"
        self.csv = self.inputs / "eval.csv"
        self.report = self.out / "eval.json"

    def setup(self):
        from framebias.dataset import to_native_csv
        from framebias.matrices import save_matrix
        from framebias.simulate import SimConfig, synth_dataset, synth_similarity

        super().setup()
        config = SimConfig(
            num_classes=self.classes,
            train_per_class=self.train,
            test_per_class=self.test,
            class_len_spread=600.0,
            seed=self.seed,
        )
        dataset = synth_dataset(config)
        sim, _ = synth_similarity(dataset, config, dataset)
        save_matrix(sim, self.simm)
        self.csv.write_text(to_native_csv(dataset), encoding="utf-8")

    def commands(self):
        return [["eval", "--sim", str(self.simm), "--annotations", str(self.csv), "--out", str(self.report)]]

    def items(self):
        return 2 * self.classes * self.test

    def sizes(self):
        n = self.classes * self.test
        return {
            "matrix_shape": [n, n],
            "matrix_bytes": self.simm.stat().st_size,
            "clips": self.classes * (self.train + self.test),
            "classes": self.classes,
        }

    def check(self):
        import checks

        return checks.check_eval(self.simm, self.csv, self.report, seed=self.seed)


class SweepWorkload(Workload):
    name = "sweep_1k"
    item = "condition"

    ALPHAS = (10, 20, 40)
    TOPK = 20

    def __init__(self, work, seed, small=False):
        super().__init__(work, seed, small)
        self.classes, self.train, self.test, nseeds = (12, 15, 5, 2) if small else (100, 30, 10, 8)
        self.alphas = self.ALPHAS[1:2] if small else self.ALPHAS
        self.seeds = [nseeds * seed + i for i in range(nseeds)]

    def commands(self):
        return [[
            "simulate",
            "--classes", str(self.classes),
            "--train-per-class", str(self.train),
            "--test-per-class", str(self.test),
            "--seeds", ",".join(map(str, self.seeds)),
            "--alphas", ",".join(map(str, self.alphas)),
            "--topk", str(self.TOPK),
            "--out-dir", str(self.out),
        ]]

    def items(self):
        return len(self.seeds) * (1 + len(self.alphas))

    def sizes(self):
        n = self.classes * self.test
        return {
            "conditions": self.items(),
            "matrix_shape": [n, n],
            "matrix_bytes_per_condition": 8 * n * n,
            "clips_per_seed": self.classes * (self.train + self.test),
            "classes": self.classes,
        }

    def check(self):
        import checks

        return checks.check_sweep(self.out, self.seeds, self.alphas, self.TOPK)


class AnnotateWorkload(Workload):
    name = "annotate_77k"
    item = "clip"

    ALPHA = 20
    MIN_CLASS_SIZE = 11
    TEST_FRACTION = 0.126

    def __init__(self, work, seed, small=False):
        super().__init__(work, seed, small)
        self.clips, self.classes = (3_000, 150) if small else (77_000, 3_000)
        self.csv = self.inputs / "annotations.csv"
        self.audit = self.out / "audit.json"
        self.hist = self.out / "hist.csv"
        self.filtered = self.out / "filtered.csv"
        self.report = self.out / "filter.json"

    def setup(self):
        super().setup()
        write_long_tail_annotations(self.csv, self.seed, self.clips, self.classes, self.TEST_FRACTION)

    def commands(self):
        ann = ["--annotations", str(self.csv)]
        return [
            ["audit", *ann, "--out", str(self.audit), "--hist-out", str(self.hist)],
            [
                "filter", *ann,
                "--alpha", str(self.ALPHA),
                "--min-class-size", str(self.MIN_CLASS_SIZE),
                "--out", str(self.filtered),
                "--report", str(self.report),
            ],
        ]

    def items(self):
        return self.clips

    def sizes(self):
        return {"clips": self.clips, "classes": self.classes, "csv_bytes": self.csv.stat().st_size}

    def check(self):
        import checks

        return checks.check_audit(self.csv, self.audit, self.hist) + checks.check_filter(
            self.csv, self.filtered, self.report, self.ALPHA, self.MIN_CLASS_SIZE
        )


WORKLOADS = {w.name: w for w in (EvalWorkload, SweepWorkload, AnnotateWorkload)}

_SYLLABLES = ("ka", "lo", "mi", "ne", "pu", "ra", "si", "to", "ve", "zu", "bri", "sha")


def _words(rng, count: int) -> list[str]:
    picks = rng.integers(0, len(_SYLLABLES), size=(count, 3))
    return ["".join(_SYLLABLES[i] for i in row) for row in picks]


def write_long_tail_annotations(path: Path, seed: int, clips: int, classes: int, test_fraction: float) -> None:
    """Native annotation CSV with Zipf-like class sizes, EK-100 style.

    Class sizes follow 1/(rank + 5) on top of a floor of 2 clips, so a few
    classes hold thousands of clips and most hold a handful. Each class gets a
    train/test length shift, so the margin filter has work to do. Some captions
    hold commas and quotes, so the CSV needs quoting.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0xA77])
    weights = 1.0 / (np.arange(1, classes + 1) + 5.0)
    sizes = 2 + np.floor((clips - 2 * classes) * weights / weights.sum()).astype(np.int64)
    sizes[: clips - int(sizes.sum())] += 1
    verbs, nouns = 97, 300
    pairs = rng.choice(verbs * nouns, size=classes, replace=False)
    base = np.exp(rng.normal(np.log(150.0), 0.7, size=classes)).clip(10.0, 3000.0)
    shift = rng.normal(0.15, 0.2, size=classes)
    cls = np.repeat(np.arange(classes), sizes)
    test = rng.random(clips) < test_fraction
    mean = base[cls] * (1.0 + shift[cls] * test)
    length = np.maximum(1, np.rint(rng.normal(mean, 0.35 * base[cls]))).astype(np.int64)
    start = rng.integers(0, 50_000, size=clips)
    video = rng.integers(0, 700, size=clips)
    extra = rng.random(clips)
    other = rng.integers(0, nouns, size=clips)
    verb_words, noun_words = _words(rng, verbs), _words(rng, nouns)
    order = rng.permutation(clips)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["clip_id", "video_id", "split", "start_frame", "stop_frame", "caption", "verb_class", "noun_class"])
        for i in order:
            v, n = divmod(int(pairs[cls[i]]), nouns)
            caption = f"{verb_words[v]} {noun_words[n]}"
            if extra[i] < 0.05:
                caption = f'{verb_words[v]} the "{noun_words[n]}"'
            elif extra[i] < 0.25:
                caption += f", then {noun_words[other[i]]}"
            vid = f"P{video[i] // 100 + 1:02d}_{video[i] % 100 + 1:03d}"
            writer.writerow([
                f"{vid}_{i}", vid, "test" if test[i] else "train",
                int(start[i]), int(start[i] + length[i] - 1), caption, v, n,
            ])


def main(argv: list[str]) -> int:
    action, name, seed, work, *flags = argv
    workload = WORKLOADS[name](Path(work), int(seed), small="--small" in flags)
    if action == "setup":
        workload.setup()
    elif action == "check":
        print(json.dumps(workload.check()))
    else:
        raise SystemExit(f"unknown action {action!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
