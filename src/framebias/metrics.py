"""Relevancy-aware retrieval metrics over similarity matrices.

The ranking convention everywhere: gallery items sorted by descending score,
ties broken by ascending gallery index. Degenerate queries (for nDCG an ideal
DCG that is not positive, for AP nothing relevant at the threshold) are
excluded from averages and counted in the report. Aggregate means sum in
ascending query order, so results do not depend on evaluation schedule.
Every metric ranks through one blocked kernel, by position: a query is scored
from where its tracked columns land (nonzero relevance, relevance at the AP
threshold, its GT column) in its sorted row, so no full ranking is built.
Blocks of queries are scored on a few threads; each writes only its own
queries' results, so they do not depend on the thread count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from framebias.dataset import ActionClass, Dataset, class_of, frame_length
from framebias.errors import DegenerateInputError, NotFoundError, ShapeMismatchError
from framebias.matrices import RelevancyMatrix, SimilarityMatrix

DIRECTIONS = ("t2v", "v2t", "avg")
_BLOCK_SCORES = 1 << 17  # scores ranked at once: a block's scratch arrays stay small
# threads that score blocks at once: the usable CPUs, at most four
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _block_bounds(values: np.ndarray) -> list[tuple[int, int]]:
    rows = max(1, _BLOCK_SCORES // max(1, values.shape[1]))
    return [(start, min(start + rows, values.shape[0])) for start in range(0, values.shape[0], rows)]


def score_blocks(values: np.ndarray):
    """Yield ``(start, stop, scores)`` per block of query rows.

    A block holds about ``_BLOCK_SCORES`` scores (at least one row), so its
    scratch arrays stay a fixed size whatever the gallery width. For the v2t
    direction pass ``matrix.values.T``: each block of that view is copied out
    contiguous, so no transposed matrix is ever made.
    """
    for start, stop in _block_bounds(values):
        yield start, stop, np.ascontiguousarray(values[start:stop])


def _each_block(values: np.ndarray, score) -> None:
    """Call ``score(start, stop, scores)`` on the blocks ``score_blocks`` yields,
    on up to ``_WORKERS`` threads, this one included.

    A thread copies its next block out of ``values`` only when it takes it,
    so at most one block per thread is alive. After an error no further
    block starts, and the lowest failing block's error is raised, as a
    serial loop raises it.
    """
    bounds = _block_bounds(values)
    pending = iter(bounds)
    lock = threading.Lock()
    errors = {}

    def work():
        while not errors:
            with lock:
                start, stop = next(pending, (None, None))
            if start is None:
                return
            try:
                score(start, stop, np.ascontiguousarray(values[start:stop]))
            except BaseException as error:
                errors[start] = error

    threads = [threading.Thread(target=work) for _ in range(min(_WORKERS, len(bounds)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]


def positions(scores: np.ndarray, tracked: np.ndarray):
    """Stable 1-based ranks of the tracked scores of a block of rows.

    Returns ``(row, col, ranks, left, right)``, one entry per tracked score,
    ordered by row and then by rank (descending score, ties by ascending
    column), with the number of scores strictly above and at or above it.
    Only the rows' values are sorted: each tracked score is searched in its
    sorted row, and equal tracked scores are ranked by column. A row where a
    tracked score ties an untracked one is ranked by its full stable argsort.
    """
    nb, n = scores.shape
    flat = np.flatnonzero(tracked)  # row-major: columns ascend within a row
    bounds = np.searchsorted(flat, np.arange(0, nb * n + 1, n)).tolist()
    keys = -scores.ravel()[flat]
    ordered = np.negative(scores)
    ordered.sort(axis=1)
    left = np.empty(flat.size, dtype=np.int64)
    for values, lo, hi in zip(ordered, bounds, bounds[1:]):
        left[lo:hi] = values.searchsorted(keys[lo:hi])
    # equal scores share ``left``: order the entries by (row, left, column),
    # then count each one's equal tracked scores before it
    packed = np.sort((flat // n * (n + 1) + left) * n + flat % n)
    run, col = np.divmod(packed, n)
    row, left = np.divmod(run, n + 1)
    index = np.arange(packed.size)
    ranks = left + index + 1 - np.maximum.accumulate(np.where(np.diff(run, prepend=-1) != 0, index, 0))
    last = np.diff(run, append=-1) != 0
    right = ranks[np.minimum.accumulate(np.where(last, index, packed.size)[::-1])[::-1]]
    # the score just past the end of a run must differ, or an untracked score ties it
    here, after = ordered.ravel()[row * n + np.stack((left, np.minimum(ranks, n - 1)))]
    for i in np.unique(row[last & (ranks < n) & ((after == here) | np.isnan(here))]).tolist():
        lo, hi = bounds[i], bounds[i + 1]
        rank_of = np.empty(n, dtype=np.int64)
        rank_of[np.argsort(-scores[i], kind="stable")] = np.arange(1, n + 1)
        ranks[lo:hi] = rank_of[col[lo:hi]]
        right[lo:hi] = ordered[i].searchsorted(here[lo:hi], "right")
    return row, col, ranks, left, right


def ranking(scores) -> np.ndarray:
    """Gallery indices by descending score; equal scores keep index order."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def _codes(classes) -> tuple[np.ndarray, np.ndarray]:
    """Verb and noun code arrays of action classes or clips."""
    return np.array([c.verb_class for c in classes]), np.array([c.noun_class for c in classes])


def build_relevancy(query_classes, gallery_classes, row_ids=None, col_ids=None) -> RelevancyMatrix:
    """Graded relevance from action classes: half per matching component.

    value = 0.5 * (verb match + noun match), so values lie in {0, 0.5, 1}
    and 1 means the full (verb, noun) pair agrees.
    """
    query_classes, gallery_classes = list(query_classes), list(gallery_classes)
    if not query_classes or not gallery_classes:
        raise ValueError("query and gallery class lists must be non-empty")
    (qv, qn), (gv, gn) = _codes(query_classes), _codes(gallery_classes)
    values = 0.5 * ((qv[:, None] == gv).astype(np.float64) + (qn[:, None] == gn))
    rows = tuple(row_ids) if row_ids is not None else tuple(f"q{i}" for i in range(len(query_classes)))
    cols = tuple(col_ids) if col_ids is not None else tuple(f"g{j}" for j in range(len(gallery_classes)))
    return RelevancyMatrix(rows=rows, cols=cols, values=values)


def class_relevance(a: ActionClass, b: ActionClass) -> float:
    return 0.5 * ((a.verb_class == b.verb_class) + (a.noun_class == b.noun_class))


def gt_rank(sim: SimilarityMatrix, query_index: int, gt_gallery_id: str) -> int:
    """1-based rank of the ground-truth gallery item for one query."""
    if gt_gallery_id not in sim.col_index:
        raise NotFoundError(f"gallery id {gt_gallery_id!r} not present in matrix columns")
    tracked = np.arange(len(sim.cols)) == sim.col_index[gt_gallery_id]
    return int(positions(sim.values[[query_index]], tracked[None, :])[2][0])


def recall_at_k(ranks, k: int) -> float:
    """Fraction of ranks at or above the cutoff."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranks = list(ranks)
    if not ranks:
        raise ValueError("ranks must be non-empty")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def _scan(values, relevance, threshold=1.0, depth=None, gt=None):
    """Per-query nDCG and AP and the index-tie, optimistic and pessimistic ranks
    of gallery indices ``gt``. nDCG is NaN where the ideal DCG is not positive
    (negative dense relevance can cancel it), AP where nothing reaches the
    threshold.

    ``relevance`` is a dense matrix oriented like ``values``, or the verb and
    noun codes ``(qv, qn, gv, gn)`` of queries and gallery; the ideal DCG of
    class relevance comes in closed form from its counts of 1.0 and 0.5.
    """
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    nq, ng = values.shape
    depth = ng if depth is None else min(depth, ng)
    disc = np.zeros(ng + 1)  # discount at each rank; zero past the depth
    disc[1 : depth + 1] = 1.0 / np.log2(np.arange(2, depth + 2))
    gain = np.cumsum(disc)  # DCG of j relevant items ranked first
    ndcg, ap = np.full((2, nq), np.nan)
    ranks = np.zeros((3, nq), dtype=np.int64)
    codes = isinstance(relevance, tuple)
    scale = 0.5 if codes else 1.0  # class relevance counts matching components

    def score(start, stop, scores):
        nb = stop - start
        if codes:
            qv, qn, gv, gn = relevance
            rel = (gv == qv[start:stop, None]).view(np.int8) + (gn == qn[start:stop, None]).view(np.int8)
        else:
            rel = relevance[start:stop]
        tracked = (rel != 0) | (rel >= threshold / scale)
        if gt is not None:
            tracked[np.arange(nb), gt[start:stop]] = True
        row, col, rank, left, right = positions(scores, tracked)
        gains = scale * rel[row, col]
        if codes:
            positive = np.bincount(row[gains > 0], minlength=nb)
            ideal = 0.5 * (gain[np.bincount(row[gains == 1.0], minlength=nb)] + gain[positive])
        else:
            ideal = (np.sort(rel, axis=1)[:, ::-1][:, :depth] * disc[1 : depth + 1]).sum(axis=1)
        dcg = np.bincount(row, gains * disc[rank], minlength=nb)
        np.divide(dcg, ideal, out=ndcg[start:stop], where=ideal > 0)
        hit = np.flatnonzero(gains >= threshold)  # in rank order within each row
        total = np.bincount(row[hit], minlength=nb)
        seen = np.arange(1, hit.size + 1) - np.repeat(np.cumsum(total) - total, total)
        np.divide(np.bincount(row[hit], seen / rank[hit], minlength=nb), total, out=ap[start:stop], where=total > 0)
        if gt is not None:
            at = np.flatnonzero(col == gt[start:stop][row])
            ranks[:, start:stop] = rank[at], left[at] + 1, right[at]

    _each_block(values, score)
    return ndcg, ap, ranks


_DEGENERATE = ("its ideal DCG is not positive", "nothing is relevant at the threshold")  # per metric


def _mean(per_query: np.ndarray, metric: int) -> float:
    """Mean over non-degenerate queries, summed in ascending query order."""
    used = per_query[~np.isnan(per_query)].tolist()
    if not used:
        raise DegenerateInputError(f"every query is degenerate ({_DEGENERATE[metric]})")
    return sum(used) / len(used)


def _query_metric(sim_row, rel_row, metric: int, **options) -> float:
    scores, rels = np.asarray(sim_row, dtype=np.float64), np.asarray(rel_row, dtype=np.float64)
    if scores.shape != rels.shape or scores.ndim != 1 or scores.size < 1:
        raise ShapeMismatchError("score and relevance rows must be equal-length 1-D vectors")
    return _mean(_scan(scores[None, :], rels[None, :], **options)[metric], metric)


def ndcg_query(sim_row, rel_row, depth: int | None = None) -> float:
    """Normalized discounted cumulative gain of one ranked gallery."""
    return _query_metric(sim_row, rel_row, 0, depth=depth)


def average_precision(sim_row, rel_row, threshold: float = 1.0) -> float:
    """AP with relevance binarized at the threshold."""
    return _query_metric(sim_row, rel_row, 1, threshold=threshold)


def _dense_average(sim, rel, direction: str, metric: int, **options) -> float:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if sim.rows != rel.rows or sim.cols != rel.cols:
        raise ShapeMismatchError("similarity and relevancy matrices must share id mappings")
    if direction == "avg":
        t2v = _dense_average(sim, rel, "t2v", metric, **options)
        return 0.5 * (t2v + _dense_average(sim, rel, "v2t", metric, **options))
    pair = (sim.values, rel.values) if direction == "t2v" else (sim.values.T, rel.values.T)
    return _mean(_scan(*pair, **options)[metric], metric)


def ndcg_average(
    sim: SimilarityMatrix, rel: RelevancyMatrix, direction: str = "avg", depth: int | None = None
) -> float:
    """Mean nDCG over non-degenerate queries, per direction or averaged."""
    return _dense_average(sim, rel, direction, 0, depth=depth)


def map_average(
    sim: SimilarityMatrix, rel: RelevancyMatrix, threshold: float = 1.0, direction: str = "avg"
) -> float:
    """Mean AP over non-degenerate queries, per direction or averaged."""
    return _dense_average(sim, rel, direction, 1, threshold=threshold)


def _gallery_clip(sim: SimilarityMatrix, dataset: Dataset, j: int):
    clip = dataset.by_id.get(sim.cols[j])
    if clip is None:
        raise NotFoundError(f"gallery id {sim.cols[j]!r} does not resolve to a clip")
    return clip


def topk_avg_length(sim: SimilarityMatrix, dataset: Dataset, query_index: int, k: int) -> float:
    """Mean frame length of the k best-ranked gallery clips for one query."""
    if not 1 <= k <= len(sim.cols):
        raise ValueError(f"k must be in [1, {len(sim.cols)}], got {k}")
    order = ranking(sim.values[query_index])[:k]
    return sum(frame_length(_gallery_clip(sim, dataset, j)) for j in order) / k


@dataclass(frozen=True)
class InspectEntry:
    gallery_id: str
    score: float
    caption: str
    frame_length: int
    relevance: float


def inspect_query(sim: SimilarityMatrix, dataset: Dataset, query_id: str, k: int) -> list[InspectEntry]:
    """Top-k retrieved gallery clips with metadata, for eyeballing a query."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if query_id not in sim.row_index:
        raise NotFoundError(f"query id {query_id!r} not present in matrix rows")
    query_clip = dataset.by_id.get(query_id)
    if query_clip is None:
        raise NotFoundError(f"query id {query_id!r} does not resolve to a clip")
    row = sim.values[sim.row_index[query_id]]
    out = []
    for j in ranking(row)[:k]:
        clip = _gallery_clip(sim, dataset, j)
        rel = class_relevance(class_of(query_clip), class_of(clip))
        out.append(InspectEntry(clip.clip_id, float(row[j]), clip.caption, frame_length(clip), rel))
    return out


@dataclass(frozen=True)
class DirectionMetrics:
    """Scores for one retrieval direction (queries on the rows)."""

    ndcg: float
    map: float
    recall: dict[int, float]
    mean_rank: float | None
    median_rank: float | None
    mean_rank_optimistic: float | None
    mean_rank_pessimistic: float | None
    num_queries: int
    num_degenerate_ndcg: int
    num_degenerate_ap: int
    num_missing_gt: int
    gt_ranks: tuple[int, ...]


@dataclass(frozen=True)
class MetricsReport:
    t2v: DirectionMetrics
    v2t: DirectionMetrics
    avg_ndcg: float
    avg_map: float


def _direction_metrics(ndcg, ap, gt_ranks, has_gt, recall_ks) -> DirectionMetrics:
    ranks, ranks_opt, ranks_pes = (r[has_gt].tolist() for r in gt_ranks)
    return DirectionMetrics(
        ndcg=_mean(ndcg, 0),
        map=_mean(ap, 1),
        recall={k: recall_at_k(ranks, k) for k in recall_ks} if ranks else {},
        mean_rank=sum(ranks) / len(ranks) if ranks else None,
        median_rank=float(np.median(ranks)) if ranks else None,
        mean_rank_optimistic=sum(ranks_opt) / len(ranks_opt) if ranks_opt else None,
        mean_rank_pessimistic=sum(ranks_pes) / len(ranks_pes) if ranks_pes else None,
        num_queries=ndcg.size,
        num_degenerate_ndcg=int(np.isnan(ndcg).sum()),
        num_degenerate_ap=int(np.isnan(ap).sum()),
        num_missing_gt=ndcg.size - int(has_gt.sum()),
        gt_ranks=tuple(ranks),
    )


def metrics_report(
    sim: SimilarityMatrix,
    dataset: Dataset,
    threshold: float = 1.0,
    depth: int | None = None,
    recall_ks=(1, 5, 10),
) -> MetricsReport:
    """Full two-direction evaluation of a similarity matrix against a dataset.

    Relevance comes from the clips' action classes; the ground-truth gallery
    item of a query is the entry with the same id on the other axis.
    """
    for side, ids in (("row", sim.rows), ("column", sim.cols)):
        missing = next((i for i in ids if i not in dataset.by_id), None)
        if missing is not None:
            raise NotFoundError(f"matrix {side} id {missing!r} does not resolve to a clip")
    if not sim.rows or not sim.cols:
        raise ValueError("query and gallery class lists must be non-empty")
    rows, cols = (_codes([dataset.by_id[i] for i in ids]) for ids in (sim.rows, sim.cols))
    directions = []
    for values, queries, gallery, query_codes, gallery_codes in (
        (sim.values, sim.rows, sim.col_index, rows, cols),
        (sim.values.T, sim.cols, sim.row_index, cols, rows),
    ):
        gt = np.array([gallery.get(q, -1) for q in queries])
        scan = _scan(values, (*query_codes, *gallery_codes), threshold, depth, np.maximum(gt, 0))
        directions.append(_direction_metrics(*scan, gt >= 0, recall_ks))
    t2v, v2t = directions
    return MetricsReport(t2v, v2t, 0.5 * (t2v.ndcg + v2t.ndcg), 0.5 * (t2v.map + v2t.map))
