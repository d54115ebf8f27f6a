"""Naive reference implementations for the ranking metrics and the simulator.

The metric references are deliberately written with plain Python sorting and
arithmetic, no numpy, so they stay independent of the library code paths they
are used to check. Ties follow the same convention: descending score,
ascending index. The simulator reference builds its similarity the direct way,
from dense indicator matrices, to check the code-based construction bit for
bit.
"""

import math
from dataclasses import asdict

import numpy as np

from framebias.audit import class_stats
from framebias.dataset import class_of, frame_length
from framebias.errors import DegenerateInputError
from framebias.simulate import _NOISE_STREAM, GENERATOR_ID


def naive_ranking(scores):
    return [i for _, i in sorted(((-s, i) for i, s in enumerate(scores)))]


def naive_ndcg(scores, rels, depth=None):
    """nDCG for one query; None when the ideal DCG is not positive (nothing
    has positive relevance, or negative relevance cancels it)."""
    d = len(scores) if depth is None else min(depth, len(scores))
    idcg = 0.0
    for pos, rel in enumerate(sorted(rels, reverse=True)[:d], start=1):
        idcg += rel / math.log2(pos + 1)
    if idcg <= 0:
        return None
    dcg = 0.0
    for pos, idx in enumerate(naive_ranking(scores)[:d], start=1):
        dcg += rels[idx] / math.log2(pos + 1)
    return dcg / idcg


def naive_ap(scores, rels, threshold=1.0):
    """Average precision for one query; None when nothing is relevant."""
    relevant = [r >= threshold for r in rels]
    total = sum(relevant)
    if total == 0:
        return None
    hits = 0
    ap = 0.0
    for pos, idx in enumerate(naive_ranking(scores), start=1):
        if relevant[idx]:
            hits += 1
            ap += hits / pos
    return ap / total


def _rows(values):
    return [list(row) for row in values]


def _cols(values):
    return [list(col) for col in zip(*values)]


def naive_direction_mean(sim_rows, rel_rows, per_query):
    used = []
    for srow, rrow in zip(sim_rows, rel_rows):
        value = per_query(srow, rrow)
        if value is not None:
            used.append(value)
    if not used:
        return None
    return sum(used) / len(used)


def naive_ndcg_average(sim_values, rel_values, direction="avg", depth=None):
    fn = lambda s, r: naive_ndcg(s, r, depth)
    if direction == "t2v":
        return naive_direction_mean(_rows(sim_values), _rows(rel_values), fn)
    if direction == "v2t":
        return naive_direction_mean(_cols(sim_values), _cols(rel_values), fn)
    t2v = naive_ndcg_average(sim_values, rel_values, "t2v", depth)
    v2t = naive_ndcg_average(sim_values, rel_values, "v2t", depth)
    if t2v is None or v2t is None:
        return None
    return 0.5 * (t2v + v2t)


def naive_map_average(sim_values, rel_values, threshold=1.0, direction="avg"):
    fn = lambda s, r: naive_ap(s, r, threshold)
    if direction == "t2v":
        return naive_direction_mean(_rows(sim_values), _rows(rel_values), fn)
    if direction == "v2t":
        return naive_direction_mean(_cols(sim_values), _cols(rel_values), fn)
    t2v = naive_map_average(sim_values, rel_values, threshold, "t2v")
    v2t = naive_map_average(sim_values, rel_values, threshold, "v2t")
    if t2v is None or v2t is None:
        return None
    return 0.5 * (t2v + v2t)


def naive_synth_similarity(dataset, config, train_reference):
    """The simulator's similarity built by broadcasting: an N x N x 2 class
    comparison, float indicator matrices and column gathers of the noise.

    Returns (rows, values, provenance) for ``synth_similarity`` to match bit
    for bit; raises DegenerateInputError where it must.
    """
    test_clips = dataset.split_clips("test")
    if not test_clips:
        raise DegenerateInputError("dataset has no test clips to embed")
    ref_train = train_reference.split_clips("train")
    if not ref_train:
        raise DegenerateInputError("train reference has no train clips")

    ref_means = {s.action_class: s.train_mean_len for s in class_stats(train_reference) if s.train_count}
    global_mean = sum(frame_length(c) for c in ref_train) / len(ref_train)
    lengths = [frame_length(c) for c in ref_train] + [frame_length(c) for c in test_clips]
    lo, hi = float(min(lengths)), float(max(lengths))
    width = (hi - lo) / config.num_len_buckets

    def bucket(x):
        if width == 0.0:
            return 0
        return min(config.num_len_buckets - 1, max(0, int((x - lo) // width)))

    fallback = []
    query_buckets = []
    classes = [class_of(c) for c in test_clips]
    for ac in classes:
        mean = ref_means.get(ac)
        if mean is None:
            mean = global_mean
            if str(ac) not in fallback:
                fallback.append(str(ac))
        query_buckets.append(bucket(mean))
    clip_buckets = [bucket(frame_length(c)) for c in test_clips]

    class_arr = np.array([(ac.verb_class, ac.noun_class) for ac in classes])
    class_match = np.all(class_arr[:, None, :] == class_arr[None, :, :], axis=2).astype(np.float64)
    bucket_match = (np.array(query_buckets)[:, None] == np.array(clip_buckets)[None, :]).astype(np.float64)
    lam = config.bias_strength
    values = (1.0 - lam) ** 2 * class_match + lam**2 * bucket_match
    if config.noise_stddev > 0:
        class_list = sorted({*classes, *(class_of(c) for c in train_reference.clips)})
        class_idx = {ac: i for i, ac in enumerate(class_list)}
        dim = len(class_list) + config.num_len_buckets
        rng = np.random.default_rng([config.seed, _NOISE_STREAM])
        noise = rng.normal(0.0, config.noise_stddev, size=(len(test_clips), dim))
        qi = np.array([class_idx[ac] for ac in classes])
        qb = np.array(query_buckets) + len(class_list)
        values = values + (1.0 - lam) * noise[:, qi].T + lam * noise[:, qb].T
    provenance = {
        "generator": GENERATOR_ID,
        "bucket_low": lo,
        "bucket_high": hi,
        "fallback_classes": fallback,
        "config": asdict(config),
    }
    return tuple(c.clip_id for c in test_clips), values, provenance
