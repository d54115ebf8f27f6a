"""Independent recomputation of framebias outputs.

Nothing in this module imports framebias. Each check reads the files the CLI
read and wrote, recomputes the numbers with its own code, and returns a list
of error strings (empty when the output is right). Report payloads are rounded
to 6 decimals, so floats are compared at ``TOL``.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

TOL = 1e-6
RECALL_KS = (1, 5, 10)
STOP_REASONS = ("within_margin", "size_floor", "no_improvement", "skipped_no_test", "skipped_no_train")


class Annotations:
    """Columns of a native annotation CSV, in file order."""

    def __init__(self, path) -> None:
        ids, split, start, stop, verb, noun = [], [], [], [], [], []
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                ids.append(row[0])
                split.append(row[2] == "test")
                start.append(int(row[3]))
                stop.append(int(row[4]))
                verb.append(int(row[6]))
                noun.append(int(row[7]))
        self.ids = ids
        self.row_of = {cid: i for i, cid in enumerate(ids)}
        self.is_test = np.array(split, dtype=bool)
        self.length = np.array(stop, dtype=np.int64) - np.array(start, dtype=np.int64) + 1
        self.verb = np.array(verb, dtype=np.int64)
        self.noun = np.array(noun, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids) -> np.ndarray:
        return np.array([self.row_of[i] for i in ids], dtype=np.int64)


def read_simm(path) -> tuple[list[str], list[str], np.ndarray]:
    """Row ids, column ids and values of a SIMM file, read without framebias."""
    raw = Path(path).read_bytes()
    if raw[:5] != b"SIMM\x01":
        raise ValueError(f"{path}: not a version-1 SIMM file")
    nrows, ncols = struct.unpack_from("<II", raw, 5)
    end = 13 + 8 * nrows * ncols
    values = np.frombuffer(raw, dtype="<f8", count=nrows * ncols, offset=13).reshape(nrows, ncols)
    lists = []
    offset = end
    for _ in range(2):
        (count,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        ids = []
        for _ in range(count):
            (n,) = struct.unpack_from("<I", raw, offset)
            ids.append(raw[offset + 4 : offset + 4 + n].decode("utf-8"))
            offset += 4 + n
        lists.append(ids)
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes")
    return lists[0], lists[1], values


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOL


def _compare(errors: list, label: str, got, want) -> None:
    if not _close(got, want):
        errors.append(f"{label}: report has {got!r}, recomputed {want!r}")


# --- ranking -----------------------------------------------------------------

def gt_ranks(values: np.ndarray, gt_cols: np.ndarray, block: int = 256) -> np.ndarray:
    """Ranks of each row's ground-truth column: rows are (index rule, optimistic, pessimistic).

    Index rule: 1 + #(higher scores) + #(equal scores at a lower column index).
    """
    n, m = values.shape
    cols = np.arange(m)
    out = np.empty((3, n), dtype=np.int64)
    for lo in range(0, n, block):
        v = values[lo : lo + block]
        g = gt_cols[lo : lo + block]
        gt_score = v[np.arange(len(v)), g][:, None]
        above = (v > gt_score).sum(axis=1)
        equal = v == gt_score
        out[0, lo : lo + len(v)] = 1 + above + (equal & (cols < g[:, None])).sum(axis=1)
        out[1, lo : lo + len(v)] = 1 + above
        out[2, lo : lo + len(v)] = above + equal.sum(axis=1)
    return out


def class_ndcg_ap(values, qv, qn, gv, gn, threshold: float = 1.0, block: int = 256):
    """Full-depth nDCG and AP per query for class-derived graded relevance.

    Relevance is 0.5 per matching class component. Degenerate queries get NaN.
    """
    n, m = values.shape
    disc = 1.0 / np.log2(np.arange(2, m + 2, dtype=np.float64))
    cum_disc = np.concatenate([[0.0], np.cumsum(disc)])
    pos = np.arange(1, m + 1, dtype=np.float64)
    ndcg = np.full(n, np.nan)
    ap = np.full(n, np.nan)
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        order = np.argsort(-values[lo:hi], axis=1, kind="stable")
        rel = 0.5 * (gv[order] == qv[lo:hi, None]) + 0.5 * (gn[order] == qn[lo:hi, None])
        full = (rel == 1.0).sum(axis=1)
        half = (rel == 0.5).sum(axis=1)
        ideal = cum_disc[full] + 0.5 * (cum_disc[full + half] - cum_disc[full])
        with np.errstate(invalid="ignore", divide="ignore"):
            ndcg[lo:hi] = np.where(ideal > 0, (rel @ disc) / ideal, np.nan)
            hits = rel >= threshold
            total = hits.sum(axis=1)
            precision_sum = (hits * np.cumsum(hits, axis=1) / pos).sum(axis=1)
            ap[lo:hi] = np.where(total > 0, precision_sum / total, np.nan)
    return ndcg, ap


def plain_ndcg_ap(scores: list, rels: list, threshold: float = 1.0) -> tuple[float, float]:
    """One query's nDCG and AP with plain loops: the reference for class_ndcg_ap."""
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    dcg = sum(rels[j] / math.log2(r + 2) for r, j in enumerate(order))
    idcg = sum(v / math.log2(r + 2) for r, v in enumerate(sorted(rels, reverse=True)))
    hits = 0
    precision_sum = 0.0
    for r, j in enumerate(order, start=1):
        if rels[j] >= threshold:
            hits += 1
            precision_sum += hits / r
    return dcg / idcg, precision_sum / hits


# --- eval --------------------------------------------------------------------

def check_eval(simm_path, csv_path, report_path, sample: int = 16, seed: int = 0) -> list[str]:
    """Check an eval report against ranks, nDCG and AP recomputed from its inputs."""
    errors: list[str] = []
    ann = Annotations(csv_path)
    rows, cols, values = read_simm(simm_path)
    payload = load_report(report_path)["payload"]
    threshold = payload["threshold"]
    if payload["depth"] is not None:
        return [f"eval check supports full-depth nDCG only, report has depth {payload['depth']}"]
    rng = np.random.default_rng(seed)
    means = {}
    for direction, matrix, queries, gallery in (
        ("t2v", values, rows, cols),
        ("v2t", values.T, cols, rows),
    ):
        block = payload[direction]
        qr, gr = ann.rows(queries), ann.rows(gallery)
        qv, qn, gv, gn = ann.verb[qr], ann.noun[qr], ann.verb[gr], ann.noun[gr]
        gallery_pos = {g: j for j, g in enumerate(gallery)}
        with_gt = [i for i, q in enumerate(queries) if q in gallery_pos]
        gt = np.array([gallery_pos[queries[i]] for i in with_gt], dtype=np.int64)
        ranks = gt_ranks(matrix if len(with_gt) == len(queries) else matrix[with_gt], gt)
        if block["gt_ranks"] != ranks[0].tolist():
            errors.append(f"{direction}: gt_ranks differ from the recomputed ranks")
        if block["num_missing_gt"] != len(queries) - len(with_gt):
            errors.append(f"{direction}: num_missing_gt is {block['num_missing_gt']}")
        if block["num_queries"] != len(queries):
            errors.append(f"{direction}: num_queries is {block['num_queries']}")
        if len(with_gt):
            _compare(errors, f"{direction}.mean_rank", block["mean_rank"], float(ranks[0].mean()))
            _compare(errors, f"{direction}.median_rank", block["median_rank"], float(np.median(ranks[0])))
            _compare(errors, f"{direction}.mean_rank_optimistic", block["mean_rank_optimistic"], float(ranks[1].mean()))
            _compare(errors, f"{direction}.mean_rank_pessimistic", block["mean_rank_pessimistic"], float(ranks[2].mean()))
            for k in RECALL_KS:
                _compare(errors, f"{direction}.recall@{k}", block["recall"].get(str(k)), float(np.mean(ranks[0] <= k)))
        ndcg, ap = class_ndcg_ap(matrix, qv, qn, gv, gn, threshold)
        for name, per_query in (("ndcg", ndcg), ("map", ap)):
            used = ~np.isnan(per_query)
            degenerate = f"num_degenerate_{'ap' if name == 'map' else 'ndcg'}"
            if block[degenerate] != int((~used).sum()):
                errors.append(f"{direction}.{degenerate} is {block[degenerate]}")
            means[direction, name] = float(per_query[used].mean()) if used.any() else None
            _compare(errors, f"{direction}.{name}", block[name], means[direction, name])
        for i in rng.choice(len(queries), size=min(sample, len(queries)), replace=False):
            rels = (0.5 * (gv == qv[i]) + 0.5 * (gn == qn[i])).tolist()
            if not any(r >= threshold for r in rels):
                continue
            want = plain_ndcg_ap(matrix[i].tolist(), rels, threshold)
            if abs(want[0] - ndcg[i]) > 1e-9 or abs(want[1] - ap[i]) > 1e-9:
                errors.append(f"{direction} query {queries[i]}: vectorised and plain nDCG/AP disagree")
    for name, key in (("ndcg", "ndcg"), ("map", "map")):
        if means["t2v", name] is not None and means["v2t", name] is not None:
            _compare(errors, f"avg.{key}", payload["avg"][key], 0.5 * (means["t2v", name] + means["v2t", name]))
    return errors


# --- simulate ----------------------------------------------------------------

def check_sweep(out_dir, seeds, alphas, topk: int) -> list[str]:
    """Reload every written SIMM and recompute its condition's row of the sweep report."""
    out_dir = Path(out_dir)
    errors: list[str] = []
    conditions = load_report(out_dir / "sweep_report.json")["payload"]["conditions"]
    expected = [(s, a) for s in seeds for a in [None, *alphas]]
    got = [(c["seed"], c["alpha"]) for c in conditions]
    if got != [(s, None if a is None else float(a)) for s, a in expected]:
        return [f"sweep conditions are {got}, expected {expected}"]
    for (seed, alpha), row in zip(expected, conditions):
        tag = f"seed{seed}" if alpha is None else f"seed{seed}_alpha{alpha:g}"
        base = Annotations(out_dir / f"annotations_seed{seed}.csv")
        ref = Annotations(out_dir / f"annotations_{tag}.csv")
        simm = out_dir / (f"sim_seed{seed}_baseline.simm" if alpha is None else f"sim_{tag}.simm")
        rows, cols, values = read_simm(simm)
        label = f"seed {seed} alpha {alpha}"
        removed = set(base.ids) - set(ref.ids)
        if set(ref.ids) - set(base.ids) or any(base.is_test[base.row_of[i]] for i in removed):
            errors.append(f"{label}: filtered annotations are not the baseline minus train clips")
        if row["removed_count"] != len(removed):
            errors.append(f"{label}: removed_count {row['removed_count']}, CSVs differ by {len(removed)}")
        col_pos = {c: j for j, c in enumerate(cols)}
        ranks = gt_ranks(values, np.array([col_pos[r] for r in rows], dtype=np.int64))[0]
        _compare(errors, f"{label} mean_gt_rank", row["mean_gt_rank"], float(ranks.mean()))
        _compare(errors, f"{label} recall_at_10", row["recall_at_10"], float(np.mean(ranks <= 10)))
        k = min(topk, len(cols))
        top = np.argsort(-values, axis=1, kind="stable")[:, :k]
        lengths = base.length[base.rows(cols)]
        _compare(errors, f"{label} mean_topk_len", row["mean_topk_len"], float(lengths[top].mean(axis=1).mean()))
    return errors


# --- annotations ---------------------------------------------------------------

class ClassTable:
    """Per-class train/test counts and length sums, classes in (verb, noun) order."""

    def __init__(self, ann: Annotations, keep=None) -> None:
        keep = np.ones(len(ann), dtype=bool) if keep is None else keep
        pairs = np.stack([ann.verb, ann.noun], axis=1)
        self.classes, inverse = np.unique(pairs, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        c = len(self.classes)
        train = keep & ~ann.is_test
        test = keep & ann.is_test
        self.train_n = np.bincount(inverse[train], minlength=c)
        self.test_n = np.bincount(inverse[test], minlength=c)
        self.train_sum = np.bincount(inverse[train], weights=ann.length[train], minlength=c).astype(np.int64)
        self.test_sum = np.bincount(inverse[test], weights=ann.length[test], minlength=c).astype(np.int64)
        self.inverse = inverse

    def stats(self, k: int) -> dict:
        tn, sn = int(self.train_n[k]), int(self.test_n[k])
        train_mean = float(self.train_sum[k] / tn) if tn else None
        test_mean = float(self.test_sum[k] / sn) if sn else None
        return {
            "action_class": {"verb_class": int(self.classes[k, 0]), "noun_class": int(self.classes[k, 1])},
            "train_count": tn,
            "test_count": sn,
            "train_mean_len": train_mean,
            "test_mean_len": test_mean,
            "discrepancy": abs(train_mean - test_mean) if tn and sn else None,
        }


def _compare_stats(errors: list, label: str, got: dict, want: dict) -> None:
    for key in ("action_class", "train_count", "test_count"):
        if got[key] != want[key]:
            errors.append(f"{label}.{key}: report has {got[key]!r}, recomputed {want[key]!r}")
    for key in ("train_mean_len", "test_mean_len", "discrepancy"):
        _compare(errors, f"{label}.{key}", got[key], want[key])


def check_audit(csv_path, report_path, hist_path, bin_width: int = 30) -> list[str]:
    """Check an audit report and its histogram CSV against per-class means recomputed with numpy."""
    errors: list[str] = []
    ann = Annotations(csv_path)
    table = ClassTable(ann)
    payload = load_report(report_path)["payload"]
    if payload["num_clips"] != len(ann) or payload["num_classes"] != len(table.classes):
        errors.append("audit: clip or class count differs from the CSV")
    glob = payload["global"]
    train_len, test_len = ann.length[~ann.is_test], ann.length[ann.is_test]
    if glob["train_count"] != len(train_len) or glob["test_count"] != len(test_len):
        errors.append("audit: global split counts differ from the CSV")
    _compare(errors, "global.train_mean_len", glob["train_mean_len"], float(train_len.sum() / len(train_len)))
    _compare(errors, "global.test_mean_len", glob["test_mean_len"], float(test_len.sum() / len(test_len)))
    want = [table.stats(k) for k in range(len(table.classes))]
    if len(payload["class_stats"]) != len(want):
        errors.append("audit: class_stats has the wrong number of classes")
    else:
        for k, (got, w) in enumerate(zip(payload["class_stats"], want)):
            _compare_stats(errors, f"class_stats[{k}]", got, w)
    ranked = sorted(
        (s for s in want if s["discrepancy"] is not None and s["train_count"] >= 1),
        key=lambda s: -s["discrepancy"],
    )
    got_order = [s["action_class"] for s in payload["discrepancy_table"]]
    if got_order != [s["action_class"] for s in ranked]:
        errors.append("audit: discrepancy_table order differs from the recomputed ranking")
    counts = np.zeros((int(ann.length.max()) // bin_width + 1, 2), dtype=np.int64)
    np.add.at(counts, (ann.length // bin_width, ann.is_test.astype(np.int64)), 1)
    want_bins = [[k * bin_width, int(a), int(b)] for k, (a, b) in enumerate(counts)]
    if payload["histogram"]["bins"] != want_bins:
        errors.append("audit: histogram bins differ from the recomputed counts")
    with open(hist_path, encoding="utf-8", newline="") as fh:
        hist_rows = [[int(x) for x in r] for r in list(csv.reader(fh))[1:]]
    if hist_rows != want_bins:
        errors.append("audit: histogram CSV differs from the recomputed counts")
    return errors


def _gap_exceeds(train_sum, train_n, test_sum, test_n, alpha) -> bool:
    """Exact |train_sum/train_n - test_sum/test_n| > alpha for integer sums."""
    return Fraction(abs(int(test_n) * int(train_sum) - int(train_n) * int(test_sum)), int(train_n) * int(test_n)) > alpha


def check_filter(csv_path, filtered_path, report_path, alpha: float, min_class_size: int) -> list[str]:
    """Check the margin filter's invariants and report against the input and filtered CSVs."""
    errors: list[str] = []
    ann = Annotations(csv_path)
    out = Annotations(filtered_path)
    payload = load_report(report_path)["payload"]
    removed = payload["removed_clip_ids"]
    removed_set = set(removed)
    if len(removed_set) != len(removed) or not removed_set <= set(ann.row_of):
        return ["filter: removed ids repeat or are not in the input"]
    removed_rows = ann.rows(removed)
    if ann.is_test[removed_rows].any():
        errors.append("filter: a test clip was removed")
    if out.ids != [i for i in ann.ids if i not in removed_set]:
        errors.append("filter: filtered CSV is not the input minus the removed clips, in order")
    keep = np.ones(len(ann), dtype=bool)
    keep[removed_rows] = False
    before, after = ClassTable(ann), ClassTable(ann, keep)
    per_class = payload["per_class"]
    if len(per_class) != len(before.classes):
        return errors + ["filter: per_class does not list every class"]
    touched = 0
    for k, outcome in enumerate(per_class):
        label = f"per_class[{k}]"
        _compare_stats(errors, f"{label}.before", outcome["before"], before.stats(k))
        _compare_stats(errors, f"{label}.after", outcome["after"], after.stats(k))
        reason = outcome["stop_reason"]
        n0, n1 = int(before.train_n[k]), int(after.train_n[k])
        tn, ts = int(before.test_n[k]), int(before.test_sum[k])
        touched += n1 < n0
        if reason not in STOP_REASONS:
            errors.append(f"{label}: unknown stop reason {reason!r}")
        elif reason.startswith("skipped"):
            empty = tn if reason == "skipped_no_test" else n0
            if empty or n1 != n0:
                errors.append(f"{label}: {reason} but the class has that split or lost clips")
        elif n1 < n0 and n1 < min_class_size:
            errors.append(f"{label}: train count {n1} fell below the floor {min_class_size}")
        elif reason == "within_margin" and _gap_exceeds(after.train_sum[k], n1, ts, tn, alpha):
            errors.append(f"{label}: within_margin but the gap exceeds alpha")
        elif reason != "within_margin" and not _gap_exceeds(after.train_sum[k], n1, ts, tn, alpha):
            errors.append(f"{label}: {reason} but the gap is within alpha")
        elif reason == "size_floor" and n1 - 1 >= min_class_size:
            errors.append(f"{label}: size_floor with {n1} train clips left")
        elif reason == "no_improvement":
            lengths = ann.length[keep & ~ann.is_test & (before.inverse == k)]
            s = int(after.train_sum[k])
            old = abs(tn * s - n1 * ts) * (n1 - 1)
            new = np.abs(tn * (s - lengths) - (n1 - 1) * ts) * n1
            if n1 - 1 < min_class_size or (new < old).any():
                errors.append(f"{label}: no_improvement but a removal would narrow the gap")
    if payload["removed_count"] != len(removed) or payload["classes_touched"] != touched:
        errors.append("filter: removed_count or classes_touched disagree with the removed ids")
    _compare(errors, "filter.removed_fraction", payload["removed_fraction"], len(removed) / len(ann))
    return errors
