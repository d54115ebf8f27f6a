"""Relevancy-aware retrieval metrics over similarity matrices.

The ranking convention everywhere: gallery items sorted by descending score,
ties broken by ascending gallery index. Degenerate queries (for nDCG an ideal
DCG that is not positive, for AP nothing relevant at the threshold) are
excluded from averages and counted in the report. Aggregate means sum in
ascending query order, so results do not depend on evaluation schedule.
``ranking`` is the one definition of that order. The block kernels build no
full ranking: eval scores a query from where its tracked columns (nonzero
relevance, relevance at the AP threshold, its GT column) land in its sorted
row (``positions``), and a GT rank or a top k is a compare count or a partial
partition (``gt_ranks``, ``top_k``). Each kernel resolves tie-free rows itself
and hands a row with a tie it cannot order to ``ranking``.
Blocks of queries are filled and scored in turn (``matrices.each_block``),
each writing only its own queries' results. Asked to fork (as the CLI's eval
asks), ``metrics_report`` cuts each direction's queries into P shares, row
ranges ``lo:hi`` cut at block bounds, P the processes ``forking.plan``
gives, at most ``_PROCESSES``, and maps them with ``forking.fork_map``:
process p scores share p of t2v and then of v2t, the calling process share
0 and forked children the rest, and the shares' per-query results are
joined in query order, so they do not depend on the process count.
"""

from __future__ import annotations

from dataclasses import dataclass

from framebias._numpy import np
from framebias.dataset import Dataset, frame_length
from framebias.errors import DegenerateInputError, NotFoundError, ShapeMismatchError
from framebias.forking import fork_map, plan
from framebias.matrices import RelevancyMatrix, SimilarityMatrix, block_rows, each_block

DIRECTIONS = ("t2v", "v2t", "avg")
RECALL_KS = (1, 5, 10)  # cutoffs of each direction's recall
_BLOCK_SCORES = 1 << 17  # scores ranked at once: a block's scratch arrays stay small
_PROCESSES = 4  # processes that score eval's shares at once, at most; ``forking.plan`` caps them by the usable CPUs


def _block_bounds(source) -> list[tuple[int, int]]:
    """Eval's blocks of rows, of about ``_BLOCK_SCORES`` scores, at least one row each."""
    rows = block_rows(source, _BLOCK_SCORES)
    return [(start, min(start + rows, source.shape[0])) for start in range(0, source.shape[0], rows)]


def positions(scores: np.ndarray, tracked: np.ndarray, out: np.ndarray | None = None):
    """Stable 1-based ranks of the tracked scores of a block of rows.

    Returns ``(row, col, ranks, left, right)``, one entry per tracked score,
    ordered by row and then by rank (descending score, ties by ascending
    column), with the number of scores strictly above and at or above it.
    Only the rows' values are sorted: each tracked score is searched in its
    sorted row, and equal tracked scores are ranked by column. A row where a
    tracked score ties an untracked one is ranked by its full stable argsort.
    The sorted rows are written into ``out`` (of the block's shape) if given.
    """
    nb, n = scores.shape
    flat = np.flatnonzero(tracked)  # row-major: columns ascend within a row
    bounds = np.searchsorted(flat, np.arange(0, nb * n + 1, n)).tolist()
    keys = -scores.ravel()[flat]
    ordered = np.negative(scores, out=out)
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
        rank_of[ranking(scores[i])] = np.arange(1, n + 1)
        ranks[lo:hi] = rank_of[col[lo:hi]]
        right[lo:hi] = ordered[i].searchsorted(here[lo:hi], "right")
    return row, col, ranks, left, right


def gt_ranks(scores: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Stable 1-based rank of column ``gt[i]`` in each row ``i`` of a block:
    1 + the scores above it, or its place in ``ranking`` where its score
    occurs more than once in the row."""
    at = np.take_along_axis(scores, gt[:, None], axis=1)
    ranks = 1 + np.count_nonzero(scores > at, axis=1)
    for i in np.flatnonzero(np.count_nonzero(scores == at, axis=1) > 1).tolist():
        ranks[i] = 1 + np.flatnonzero(ranking(scores[i]) == gt[i])[0]
    return ranks


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k best scores (``1 <= k <= n``), in no order: a
    partial partition, or ``ranking(row)[:k]`` where a tie with the k-th
    score straddles the cut."""
    n = scores.shape[1]
    top = np.argpartition(scores, n - k, axis=1)[:, n - k :]  # top[:, 0] holds the k-th best
    kth = np.take_along_axis(scores, top[:, :1], axis=1)
    for i in np.flatnonzero(np.count_nonzero(scores >= kth, axis=1) > k).tolist():
        top[i] = ranking(scores[i])[:k]
    return top


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


def gt_rank(sim: SimilarityMatrix, query_index: int, gt_gallery_id: str) -> int:
    """1-based rank of the ground-truth gallery item for one query."""
    if gt_gallery_id not in sim.cols:
        raise NotFoundError(f"gallery id {gt_gallery_id!r} not present in matrix columns")
    return int(gt_ranks(sim.values[[query_index]], np.array([sim.cols.index(gt_gallery_id)]))[0])


def recall_at_k(ranks, k: int) -> float:
    """Fraction of ranks at or above the cutoff."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranks = list(ranks)
    if not ranks:
        raise ValueError("ranks must be non-empty")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def _scan(source, relevance, threshold=1.0, depth=None, gt=None, lo=0, hi=None):
    """Per-query nDCG and AP and the index-tie, optimistic and pessimistic ranks
    of gallery indices ``gt``, of the queries ``lo:hi`` (default: all; ``lo``
    a block bound). nDCG is NaN where the ideal DCG is not positive (negative
    dense relevance can cancel it), AP where nothing reaches the threshold.

    ``source`` is a block source of the scores. ``relevance`` is a dense
    array oriented like it, or the verb and noun codes ``(qv, qn, gv, gn)`` of
    queries and gallery; the ideal DCG of class relevance comes in closed form
    from its counts of 1.0 and 0.5; it and ``gt`` index every query. Blocks
    are sorted into one scratch buffer: fresh block-sized ones can each cost
    an mmap and its page faults.
    """
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    nq, ng = source.shape
    hi = nq if hi is None else hi
    depth = ng if depth is None else min(depth, ng)
    disc = np.zeros(ng + 1)  # discount at each rank; zero past the depth
    disc[1 : depth + 1] = 1.0 / np.log2(np.arange(2, depth + 2))
    gain = np.cumsum(disc)  # DCG of j relevant items ranked first
    ndcg, ap = np.full((2, hi - lo), np.nan)
    ranks = np.zeros((3, hi - lo), dtype=np.int64)
    scratch = np.empty((min(block_rows(source, _BLOCK_SCORES), hi - lo), ng))
    codes = isinstance(relevance, tuple)
    scale = 0.5 if codes else 1.0  # class relevance counts matching components

    def score(start, stop, scores):
        nb, own = stop - start, slice(start - lo, stop - lo)
        if codes:
            qv, qn, gv, gn = relevance
            rel = (gv == qv[start:stop, None]).view(np.int8) + (gn == qn[start:stop, None]).view(np.int8)
        else:
            rel = relevance[start:stop]
        tracked = (rel != 0) | (rel >= threshold / scale)
        if gt is not None:
            tracked[np.arange(nb), gt[start:stop]] = True
        row, col, rank, left, right = positions(scores, tracked, scratch[:nb])
        gains = scale * rel[row, col]
        if codes:
            positive = np.bincount(row[gains > 0], minlength=nb)
            ideal = 0.5 * (gain[np.bincount(row[gains == 1.0], minlength=nb)] + gain[positive])
        else:
            ranked = rel.copy(order="C")  # a row's sum is then the same in a block of any shape
            ranked.sort(axis=1)
            ideal = (ranked[:, ::-1][:, :depth] * disc[1 : depth + 1]).sum(axis=1)
        dcg = np.bincount(row, gains * disc[rank], minlength=nb)
        np.divide(dcg, ideal, out=ndcg[own], where=ideal > 0)
        hit = np.flatnonzero(gains >= threshold)  # in rank order within each row
        total = np.bincount(row[hit], minlength=nb)
        seen = np.arange(1, hit.size + 1) - np.repeat(np.cumsum(total) - total, total)
        np.divide(np.bincount(row[hit], seen / rank[hit], minlength=nb), total, out=ap[own], where=total > 0)
        if gt is not None:
            at = np.flatnonzero(col == gt[start:stop][row])
            ranks[:, own] = rank[at], left[at] + 1, right[at]

    each_block(source, score, _BLOCK_SCORES, lo, hi)
    return ndcg, ap, ranks


def _shares(source, processes: int) -> list[tuple[int, int]]:
    """``processes`` contiguous query ranges ``(lo, hi)`` of a block source
    (with at least as many blocks), cut at its block bounds, of nearly equal
    block counts."""
    bounds = _block_bounds(source)
    cuts = [bounds[len(bounds) * p // processes][0] for p in range(processes)]
    return list(zip(cuts, cuts[1:] + [source.shape[0]]))


def _scan_directions(directions, threshold, depth, fork: bool) -> list:
    """The ``_scan`` of each direction ``(source, codes, gt)`` in shares of
    its queries: one share, or with ``fork`` one per process that
    ``forking.plan`` gives, at most ``_PROCESSES``. A direction is its block
    source, the class codes ``(qv, qn, gv, gn)`` of its queries and gallery,
    and each query's GT column, -1 where it has none.

    Item ``(d, p)`` of the ``fork_map`` is share p of direction d, so process
    p scans share p of each direction in turn, and the error raised is that
    of the first failing (direction, share), the one a single pass raises.
    """
    blocks = min(len(_block_bounds(source)) for source, _, _ in directions)
    processes = plan(min(blocks, _PROCESSES)) if fork else 1
    cuts = [_shares(source, processes) for source, _, _ in directions]

    def scan(item):
        d, p = item
        source, codes, gt = directions[d]
        return _scan(source, codes, threshold, depth, np.maximum(gt, 0), *cuts[d][p])

    scans = fork_map(scan, [(d, p) for d in range(len(directions)) for p in range(processes)], processes)
    return [
        tuple(np.concatenate(parts, axis=-1) for parts in zip(*scans[d * processes : (d + 1) * processes]))
        for d in range(len(directions))
    ]


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
    for name, row in (("scores", scores), ("relevance", rels)):
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            raise ShapeMismatchError(f"{name} row values must all be finite: {row[bad[0]]} at position {bad[0]}")
    sim = SimilarityMatrix(rows=("",), cols=tuple(map(str, range(scores.size))), values=scores[None, :])
    return _mean(_scan(sim, rels[None, :], **options)[metric], metric)


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
    pair = (sim, rel.values) if direction == "t2v" else (sim.T, rel.values.T)
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
    top = top_k(sim.values[[query_index]], k)[0]
    return sum(frame_length(_gallery_clip(sim, dataset, j)) for j in top) / k


@dataclass(frozen=True)
class InspectEntry:
    gallery_id: str
    score: float
    caption: str
    frame_length: int
    relevance: float


def inspect_query(sim, dataset: Dataset, query_id: str, k: int) -> list[InspectEntry]:
    """Top-k retrieved gallery clips with metadata, for eyeballing a query.
    Of a block source (a matrix, an open SIMM file), only the query's row is read."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if query_id not in sim.rows:
        raise NotFoundError(f"query id {query_id!r} not present in matrix rows")
    query_clip = dataset.by_id.get(query_id)
    if query_clip is None:
        raise NotFoundError(f"query id {query_id!r} does not resolve to a clip")
    i = sim.rows.index(query_id)
    row = sim.blocks(1)(i, i + 1, np.empty((1, len(sim.cols))))[0]
    out = []
    for j in ranking(row)[:k]:
        clip = _gallery_clip(sim, dataset, j)
        rel = 0.5 * ((clip.verb_class == query_clip.verb_class) + (clip.noun_class == query_clip.noun_class))
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


def _direction_metrics(ndcg, ap, all_ranks, has_gt) -> DirectionMetrics:
    ranks, ranks_opt, ranks_pes = (r[has_gt].tolist() for r in all_ranks)
    return DirectionMetrics(
        ndcg=_mean(ndcg, 0),
        map=_mean(ap, 1),
        recall={k: recall_at_k(ranks, k) for k in RECALL_KS} if ranks else {},
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
    sim, dataset: Dataset, threshold: float = 1.0, depth: int | None = None, fork: bool = False
) -> MetricsReport:
    """Full two-direction evaluation of a similarity matrix against a dataset.

    Relevance comes from the clips' action classes; the ground-truth gallery
    item of a query is the entry with the same id on the other axis. ``sim``
    is any block source (see ``matrices``): an open SIMM file is scored block
    by block as it is read. With ``fork`` (the CLI's eval), the queries are
    scored in shares on forked processes where ``forking.plan`` allows more
    than one; otherwise the calling process is never forked.
    """
    for side, ids in (("row", sim.rows), ("column", sim.cols)):
        missing = next((i for i in ids if i not in dataset.by_id), None)
        if missing is not None:
            # a file's non-finite value is named first, as loading it names it
            each_block(sim, lambda *block: None, _BLOCK_SCORES)
            raise NotFoundError(f"matrix {side} id {missing!r} does not resolve to a clip")
    if not sim.rows or not sim.cols:
        raise ValueError("query and gallery class lists must be non-empty")
    rows, cols = (_codes([dataset.by_id[i] for i in ids]) for ids in (sim.rows, sim.cols))
    directions = []
    for source, query_codes, gallery_codes in ((sim, rows, cols), (sim.T, cols, rows)):
        gallery = {g: j for j, g in enumerate(source.cols)}
        gt = np.array([gallery.get(q, -1) for q in source.rows])
        directions.append((source, (*query_codes, *gallery_codes), gt))
    scans = _scan_directions(directions, threshold, depth, fork)
    t2v, v2t = (_direction_metrics(*scan, gt >= 0) for scan, (_, _, gt) in zip(scans, directions))
    return MetricsReport(t2v, v2t, 0.5 * (t2v.ndcg + v2t.ndcg), 0.5 * (t2v.map + v2t.map))
