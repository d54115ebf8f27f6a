"""Synthetic datasets and similarity matrices with a length-leakage knob.

The leakage mechanism: each test caption is embedded as
``concat[(1-lambda) * onehot(class), lambda * onehot(bucket(train mean length
of its class))]`` and each test clip as ``concat[(1-lambda) * onehot(class),
lambda * onehot(bucket(clip length))]`` plus Gaussian noise; similarity is
the dot product. With lambda > 0 a caption is pulled toward clips whose
length matches its class's average TRAIN length, so a train/test length
offset degrades ground-truth retrieval, and re-deriving train means from a
filtered train set mimics retraining after debiasing.

No embedding is materialised: per test clip, a class index, a caption bucket
and a clip bucket give the class and bucket matches, the noise-free score is
a lookup in a 4-entry table by (class match, bucket match), and each
caption's noise is added as two rows of the transposed noise matrix. Nor is a
sweep's matrix: each condition is a block source (``_Synthesis``) whose row
blocks are built, written and scored in one pass, and a seed's conditions
build their shared test-side inputs and the noise once. A sweep runs in the
calling process; the CLI maps its seeds over forked processes (``forking``).

The noise stream is a fixed function of the seed and matrix shape, not of
the train reference, so regenerating similarities after filtering changes
only the length-bucket term. Everything is a pure function of (config, seed);
the generator is numpy's seeded default_rng (PCG64) for cross-platform
reproducibility.
"""

from __future__ import annotations

import math
import operator
from contextlib import nullcontext
from dataclasses import dataclass, replace

from framebias import metrics
from framebias._numpy import np
from framebias.audit import class_stats
from framebias.dataset import ActionClass, ClipRecord, Dataset, class_of, frame_length
from framebias.errors import DegenerateInputError
from framebias.filtering import FilterConfig, filter_margin, filter_single_class
from framebias.matrices import SimilarityMatrix, SimmWriter, block_rows, each_block
from framebias.metrics import gt_ranks, recall_at_k, top_k

GENERATOR_ID = "numpy-default-rng-pcg64"
_NOISE_STREAM = 0x6E6F6973  # keeps clip noise independent of the length draws
_NOISE_BAND = 1 << 16  # noise values drawn at once


@dataclass(frozen=True)
class SimConfig:
    """Synthetic benchmark shape and leakage knobs.

    ``bias_strength`` is the leakage weight in [0, 1]. ``class_len_spread``
    spaces per-class base lengths evenly across a band of that width centered
    on ``train_len_mean`` (0 = every class shares the global mean); the
    train/test offset applies on top, per class.
    """

    num_classes: int = 40
    train_per_class: int = 30
    test_per_class: int = 10
    train_len_mean: float = 400.0
    test_len_mean: float = 480.0
    len_stddev: float = 40.0
    class_len_spread: float = 0.0
    bias_strength: float = 0.6
    noise_stddev: float = 0.02
    num_len_buckets: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("train_len_mean", "test_len_mean", "len_stddev", "class_len_spread", "bias_strength", "noise_stddev"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("num_classes", "train_per_class", "test_per_class", "num_len_buckets", "seed"):
            value, low = getattr(self, name), 0 if name == "seed" else 1
            try:
                valid = operator.index(value) >= low  # numpy integers pass, floats do not
            except TypeError:
                valid = False
            if not valid:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not 0.0 <= self.bias_strength <= 1.0:
            raise ValueError(f"bias_strength must lie in [0, 1], got {self.bias_strength}")
        if self.len_stddev < 0 or self.noise_stddev < 0:
            raise ValueError("stddevs must be >= 0")
        if self.class_len_spread < 0:
            raise ValueError(f"class_len_spread must be >= 0, got {self.class_len_spread}")


@dataclass(frozen=True)
class SimOutput:
    dataset: Dataset
    sim_t2v: SimilarityMatrix
    provenance: dict


def class_for_index(config: SimConfig, index: int) -> ActionClass:
    """Action class assigned to the index-th synthetic class."""
    verbs = math.isqrt(config.num_classes - 1) + 1 if config.num_classes > 1 else 1
    return ActionClass(verb_class=index % verbs, noun_class=index // verbs)


def _class_means(config: SimConfig) -> list[float]:
    c = config.num_classes
    if c == 1 or config.class_len_spread == 0:
        return [config.train_len_mean] * c
    return [
        config.train_len_mean + config.class_len_spread * (i / (c - 1) - 0.5) for i in range(c)
    ]


def _draw_lengths(rng: np.random.Generator, mean: float, stddev: float, count: int) -> np.ndarray:
    raw = np.rint(rng.normal(mean, stddev, size=count))
    return np.maximum(raw, 1.0).astype(int)


def synth_dataset(config: SimConfig) -> Dataset:
    """Per class, draw rounded-normal train/test clip lengths (min 1 frame)."""
    rng = np.random.default_rng(config.seed)
    offset = config.test_len_mean - config.train_len_mean
    means = _class_means(config)
    clips: list[ClipRecord] = []
    for c in range(config.num_classes):
        ac = class_for_index(config, c)
        verb, noun = ac.verb_class, ac.noun_class
        caption = f"do v{verb:03d} n{noun:03d}"
        video = f"vid_{c:04d}"
        for split, tag, count, mean in (
            ("train", "tr", config.train_per_class, means[c]),
            ("test", "te", config.test_per_class, means[c] + offset),
        ):
            lengths = _draw_lengths(rng, mean, config.len_stddev, count).tolist()
            clips += (
                ClipRecord(f"{tag}_{c:04d}_{i:04d}", video, split, 0, length - 1, caption, verb, noun)
                for i, length in enumerate(lengths)
            )
    return Dataset(clips=tuple(clips))


def _bucketer(config: SimConfig, lengths) -> tuple:
    lo = float(min(lengths))
    hi = float(max(lengths))
    width = (hi - lo) / config.num_len_buckets
    last = config.num_len_buckets - 1

    def bucket(x: float) -> int:
        if width == 0.0:
            return 0
        return min(last, max(0, int((x - lo) // width)))

    return bucket, lo, hi


class _TestSide:
    """What every condition of one dataset shares: its test clips' ids,
    lengths and classes, and, built once per key they depend on, the
    test-side codes and the noise."""

    def __init__(self, dataset: Dataset, config: SimConfig) -> None:
        clips = dataset.split_clips("test")
        if not clips:
            raise DegenerateInputError("dataset has no test clips to embed")
        self.config = config
        self.ids = tuple(c.clip_id for c in clips)
        self.lengths = [frame_length(c) for c in clips]
        self.classes = [class_of(c) for c in clips]
        self._built = {}

    def once(self, key, build):
        """``build()``'s result, made on the first call with ``key`` only."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]


class _Synthesis:
    """One condition's similarity matrix as a block source (see
    ``matrices``), from the (class index, bucket) codes of its captions and
    clips: a block's noise-free scores are a lookup in ``table`` by (class
    match, bucket match), and each caption adds its two ``noise`` terms, a
    weight times a row of the transposed noise. Every value takes the same
    operations whatever block holds it, so it is the same bit for bit however
    the rows are blocked."""

    def __init__(self, rows, cols, captions, clips, table, noise_t, noise) -> None:
        self.rows, self.cols, self.shape = rows, cols, (len(rows), len(cols))
        self.captions, self.clips = captions, clips  # (class indices, buckets) of the rows, of the columns
        self.table, self.noise_t, self.noise = table, noise_t, noise

    def taking(self, rows) -> _Synthesis:
        """The source of the captions at indices ``rows`` alone."""
        ids = tuple(self.rows[i] for i in rows)
        captions = tuple(codes[rows] for codes in self.captions)
        noise = tuple((weight, dims[rows]) for weight, dims in self.noise)
        return _Synthesis(ids, self.cols, captions, self.clips, self.table, self.noise_t, noise)

    def blocks(self, rows: int):
        return self._fill

    def _fill(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Rows ``start:stop`` of the matrix, into ``out``."""
        (own_class, own_bucket), (class_, bucket) = self.captions, self.clips
        code = (own_class[start:stop, None] == class_).view(np.uint8)
        code += 2 * (own_bucket[start:stop, None] == bucket).view(np.uint8)
        self.table.take(code, out=out, mode="clip")  # codes are 0-3; "clip" writes out unbuffered
        if self.noise_t is not None:
            for weight, dims in self.noise:
                term = self.noise_t[dims[start:stop]]
                term *= weight
                out += term
                del term  # or the next gather would allocate beside it
        return out


def _match_components(shared: _TestSide, train_reference: Dataset):
    """The class count, per-clip codes (``qi``: class index, ``qb``/``cb``:
    caption/clip bucket) and provenance of one condition; caption i matches
    clip j on class where ``qi[i] == qi[j]`` and on length where
    ``qb[i] == cb[j]``."""
    ref_train = train_reference.split_clips("train")
    if not ref_train:
        raise DegenerateInputError("train reference has no train clips")

    ref_means = {s.action_class: s.train_mean_len for s in class_stats(train_reference) if s.train_count}
    ref_lengths = [frame_length(c) for c in ref_train]
    global_mean = sum(ref_lengths) / len(ref_train)
    bucket, lo, hi = _bucketer(shared.config, ref_lengths + shared.lengths)

    classes = shared.classes
    known = tuple(sorted({*classes, *train_reference.index}))

    def class_indices():
        index = {ac: i for i, ac in enumerate(known)}
        return np.array([index[ac] for ac in classes])

    qi = shared.once(("class indices", known), class_indices)
    caption_bucket = {ac: bucket(ref_means.get(ac, global_mean)) for ac in dict.fromkeys(classes)}
    qb = np.array([caption_bucket[ac] for ac in classes])
    cb = shared.once(("clip buckets", lo, hi), lambda: np.array([bucket(x) for x in shared.lengths]))
    provenance = {
        "generator": GENERATOR_ID,
        "bucket_low": lo,
        "bucket_high": hi,
        "fallback_classes": [str(ac) for ac in caption_bucket if ac not in ref_means],
        "config": dict(vars(shared.config)),
    }
    return len(known), qi, qb, cb, provenance


def _synthesis(shared: _TestSide, train_reference: Dataset) -> tuple[_Synthesis, dict]:
    config = shared.config
    num_classes, qi, qb, cb, provenance = _match_components(shared, train_reference)
    lam = config.bias_strength
    a, b = (1.0 - lam) ** 2, lam**2
    # a * class_match + b * bucket_match at each (class, bucket) match pair
    table = np.array([0.0, a, b, a + b])
    noise_t = None
    if config.noise_stddev > 0:
        # one noise coordinate per embedding dimension of each test clip;
        # caption i adds clip j's coordinates at its class and bucket dims
        shape = (len(qi), num_classes + config.num_len_buckets)

        def draw():
            # drawn a band of clips at a time, which continues the one stream a
            # single draw of the whole shape gives, so no second copy is held
            rng = np.random.default_rng([config.seed, _NOISE_STREAM])
            noise_t = np.empty(shape[::-1])
            step = max(1, _NOISE_BAND // shape[1])
            for start in range(0, shape[0], step):
                stop = min(start + step, shape[0])
                noise_t[:, start:stop] = rng.normal(0.0, config.noise_stddev, size=(stop - start, shape[1])).T
            return noise_t

        noise_t = shared.once(("noise", shape), draw)
    noise = ((1.0 - lam, qi), (lam, qb + num_classes))
    return _Synthesis(shared.ids, shared.ids, (qi, qb), (qi, cb), table, noise_t, noise), provenance


def synth_similarity(
    dataset: Dataset, config: SimConfig, train_reference: Dataset
) -> tuple[SimilarityMatrix, dict]:
    """Test-caption x test-clip similarity under the leakage construction.

    ``train_reference`` supplies the per-class train mean lengths; a class
    missing there falls back to the global train mean (noted in provenance).
    The blocks of the condition's source are collected into the matrix, so
    besides it only the noise and one block's scratch are held.
    """
    source, provenance = _synthesis(_TestSide(dataset, config), train_reference)
    values = np.empty(source.shape)
    rows = block_rows(source, metrics._BLOCK_SCORES)
    fill = source.blocks(rows)
    for start in range(0, len(values), rows):  # in place: ``each_block`` would fill a buffer and copy it
        fill(start, min(start + rows, len(values)), values[start : start + rows])
    return SimilarityMatrix(rows=source.rows, cols=source.cols, values=values), provenance


def simulate(config: SimConfig) -> SimOutput:
    """Generate a dataset and its own-reference similarity matrix."""
    dataset = synth_dataset(config)
    sim, provenance = synth_similarity(dataset, config, dataset)
    return SimOutput(dataset=dataset, sim_t2v=sim, provenance=provenance)


@dataclass(frozen=True)
class SweepRow:
    """One (seed, condition) cell of a sweep; alpha None = unfiltered."""

    seed: int
    alpha: float | None
    removed_count: int
    classes_touched: int
    mean_gt_rank: float
    recall_at_10: float
    mean_topk_len: float


def _condition_metrics(source, gt: np.ndarray, lengths: np.ndarray, topk: int):
    """Mean GT rank, recall@10 and mean top-k gallery length over the queries
    of a block source, scored block by block.

    ``gt`` holds each query's ground-truth column (the gallery clip with its
    own id) and ``lengths`` each gallery clip's length, so a top-k length is
    an integer sum over k.
    """
    k = min(topk, source.shape[1])
    ranks, topk_sums = np.empty((2, len(gt)), dtype=np.int64)

    def score(start, stop, scores):
        ranks[start:stop] = gt_ranks(scores, gt[start:stop])
        topk_sums[start:stop] = lengths[top_k(scores, k)].sum(axis=1)

    # half eval's blocks: building a block and partitioning its top k each
    # hold a block-sized temporary beside it, and smaller blocks sweep no slower
    each_block(source, score, metrics._BLOCK_SCORES // 2)
    ranks, topk_means = ranks.tolist(), (topk_sums / k).tolist()
    return sum(ranks) / len(ranks), recall_at_k(ranks, 10), sum(topk_means) / len(topk_means)


def check_sweep(config: SimConfig, alphas: list, seeds: list, min_class_size: int, topk: int):
    """The config of each seed and the filter config of each alpha of a
    sweep, once every argument has passed the checks ``bias_sweep`` makes."""
    if not alphas or not seeds:
        raise ValueError("alphas and seeds must be non-empty")
    if topk < 1:
        raise ValueError(f"topk must be >= 1, got {topk}")
    configs = [replace(config, seed=seed) for seed in seeds]
    return configs, [FilterConfig(alpha=alpha, min_class_size=min_class_size) for alpha in alphas]


def bias_sweep(
    config: SimConfig, alphas, seeds, min_class_size: int = 11, topk: int = 20, on_condition=None
) -> list[SweepRow]:
    """Mechanism sweep: unfiltered baseline vs margin filter at each alpha.

    Per seed: generate data, score with the unfiltered train reference, then
    for each alpha filter the train side, re-derive similarities against the
    filtered reference, and score again. No matrix is held whole: each is
    built and scored a block of rows at a time.

    ``on_condition(seed, alpha, dataset, reference)`` is called per cell
    (alpha None = baseline) for a context manager that is entered while the
    cell is scored. It gives None or a seekable binary file, to which the
    cell's matrix is written as SIMM block by block (see ``SimmWriter``); an
    error in the cell leaves the manager by it.
    """
    alphas = list(alphas)
    configs, filters = check_sweep(config, alphas, list(seeds), min_class_size, topk)

    rows = []
    for cfg in configs:
        dataset = synth_dataset(cfg)
        shared = _TestSide(dataset, cfg)
        gt = np.arange(len(shared.ids))  # the rows and the columns are the same clips
        lengths = np.array(shared.lengths, dtype=np.int64)

        def condition(alpha, reference):
            source, _ = _synthesis(shared, reference)
            cell = nullcontext() if on_condition is None else on_condition(cfg.seed, alpha, dataset, reference)
            with cell as fh:
                return _condition_metrics(source if fh is None else SimmWriter(source, fh), gt, lengths, topk)

        rows.append(SweepRow(cfg.seed, None, 0, 0, *condition(None, dataset)))
        for alpha, filter_config in zip(alphas, filters):
            filtered, report = filter_margin(dataset, filter_config)
            scores = condition(alpha, filtered)
            rows.append(SweepRow(cfg.seed, alpha, report.removed_count, report.classes_touched, *scores))
    return rows


@dataclass(frozen=True)
class AblationRow:
    """One (seed, mode) cell of a single-class ablation; metrics cover only
    the ablated class's queries."""

    seed: int
    mode: str
    mean_gt_rank: float
    mean_topk_len: float


def single_class_ablation(
    config: SimConfig, action_class: ActionClass, fraction: float, seeds, topk: int = 20
) -> list[AblationRow]:
    """Remove-long vs remove-short ablation of one class across seeds."""
    if topk < 1:
        raise ValueError(f"topk must be >= 1, got {topk}")
    rows = []
    for seed in seeds:
        cfg = replace(config, seed=seed)
        dataset = synth_dataset(cfg)
        shared = _TestSide(dataset, cfg)
        lengths = np.array(shared.lengths, dtype=np.int64)
        source, _ = _synthesis(shared, dataset)
        targets = [i for i, ac in enumerate(shared.classes) if ac == action_class]
        if not targets:
            raise DegenerateInputError(f"no test queries of class {action_class}")
        gt = np.array(targets)  # the rows of the class's captions alone are scored
        mean_rank, _, mean_len = _condition_metrics(source.taking(targets), gt, lengths, topk)
        rows.append(AblationRow(seed, "baseline", mean_rank, mean_len))
        for mode in ("remove_long", "remove_short"):
            filtered, _ = filter_single_class(dataset, action_class, mode, fraction)
            source, _ = _synthesis(shared, filtered)
            mean_rank, _, mean_len = _condition_metrics(source.taking(targets), gt, lengths, topk)
            rows.append(AblationRow(seed, mode, mean_rank, mean_len))
    return rows
