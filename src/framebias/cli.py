"""Command-line surface: audit, filter, filter-one, eval, inspect, simulate, sum-sims.

Every command writes a ReportEnvelope JSON (or prints, for inspect) and
returns exit code 0 only when its outputs were completely written. Data
errors exit 1 with a diagnostic on stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path

from framebias import __version__, forking
from framebias.atomic import open_atomic
from framebias.audit import (
    class_stats,
    discrepancy_table,
    global_length_summary,
    histogram_csv,
    length_histogram,
)
from framebias.dataset import ActionClass, load_annotations, write_native_csv
from framebias.errors import REPORTED, DegenerateInputError, NotFoundError
from framebias.filtering import FilterConfig, SumSource, filter_margin, filter_single_class
from framebias.matrices import _named, open_matrix, save_matrix
from framebias.metrics import inspect_query, metrics_report
from framebias.reports import build_envelope, filter_report_dict, histogram_dict, layout_report
from framebias.reports import metrics_report_dict, write_report
from framebias.simulate import SimConfig, bias_sweep, check_sweep


def _parse_class(text: str) -> ActionClass:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected verb,noun class pair, got {text!r}")
    try:
        return ActionClass(int(parts[0]), int(parts[1]))
    except ValueError:
        raise ValueError(f"class components must be integers, got {text!r}") from None


def _finite_float(text: str) -> float:
    """A float flag value; nan and +-inf are refused, so reports stay strict JSON."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_list(text: str, cast):
    try:
        return [cast(v) for v in text.split(",") if v != ""]
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise ValueError(f"expected comma-separated list, got {text!r}: {err}") from None


def _check_distinct_tags(label: str, values, spec: str) -> None:
    """Each simulate condition writes its own files: no two values may share a tag."""
    tags = [label + format(v, spec) for v in values]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ValueError(f"{label} values {values[tags.index(tag)]} and {values[i]} share the file tag {tag}")


def _echo(args) -> dict:
    """The report's config block: every parsed flag, in parser order."""
    return {("class" if k == "cls" else k): v for k, v in vars(args).items() if k not in ("command", "func")}


def _annotation_args(sub) -> None:
    sub.add_argument(
        "--annotations",
        nargs="+",
        required=True,
        metavar="PATH",
        help="annotation file (native) or train+test pair (ek100_pair)",
    )
    sub.add_argument("--format", choices=("native", "ek100_pair"), default="native")


def cmd_audit(args) -> int:
    dataset = load_annotations(args.annotations, args.format)
    selected = _parse_class(args.cls) if args.cls else None
    hist = length_histogram(dataset, selected, args.bin_width)
    train_mean, test_mean, train_count, test_count = global_length_summary(dataset)
    stats = class_stats(dataset)
    payload = {
        "num_clips": len(dataset),
        "num_classes": len(dataset.classes()),
        "global": {
            "train_mean_len": train_mean,
            "test_mean_len": test_mean,
            "train_count": train_count,
            "test_count": test_count,
        },
        "class_stats": stats,
        "discrepancy_table": discrepancy_table(stats),
        "histogram": histogram_dict(hist, selected),
    }
    with ExitStack() as stack:  # the report is written inside the histogram's open_atomic
        if args.hist_out:
            fh = stack.enter_context(open_atomic(args.hist_out))
            fh.write(histogram_csv(hist))
            fh.flush()  # whole before the report is renamed
        write_report(args.out, build_envelope("audit", _echo(args), payload))
    return 0


def _write_filtered(args, filtered, envelope) -> None:
    """Write the filtered CSV to ``--out`` and the report to ``--report`` at
    once, as two items of one ``fork_map`` (in turn, where ``forking.plan``
    gives one process), each to its ``open_atomic`` temp file, which a forked
    child inherits open. Neither target is replaced before both files are
    whole; if either fails, neither is touched, and the CSV's error is raised
    before the report's."""

    def write(item):  # a forked child leaves through os._exit, which flushes nothing
        layout, value, fh = item
        layout(value, fh)
        fh.flush()

    with open_atomic(args.out) as csv_fh, open_atomic(args.report) as report_fh:
        outputs = [(write_native_csv, filtered, csv_fh), (layout_report, envelope, report_fh)]
        forking.fork_map(write, outputs, forking.plan(len(outputs)))


def cmd_filter(args) -> int:
    dataset = load_annotations(args.annotations, args.format)
    filtered, report = filter_margin(
        dataset, FilterConfig(alpha=args.alpha, min_class_size=args.min_class_size)
    )
    payload = {
        "filter": {"kind": "margin", "alpha": args.alpha, "min_class_size": args.min_class_size},
        **filter_report_dict(report),
    }
    _write_filtered(args, filtered, build_envelope("filter", _echo(args), payload))
    return 0


def cmd_filter_one(args) -> int:
    dataset = load_annotations(args.annotations, args.format)
    action_class = ActionClass(args.verb, args.noun)
    mode = "remove_long" if args.mode == "long" else "remove_short"
    filtered, report = filter_single_class(dataset, action_class, mode, args.fraction)
    payload = {
        "filter": {
            "kind": "single_class",
            "action_class": action_class,
            "mode": mode,
            "fraction": args.fraction,
        },
        **filter_report_dict(report),
    }
    _write_filtered(args, filtered, build_envelope("filter_one", _echo(args), payload))
    return 0


@contextmanager
def _open_scores(path):
    """``open_matrix``, refusing a matrix with no rows or no columns, which no command can use."""
    with open_matrix(path) as sim:
        if 0 in sim.shape:
            raise DegenerateInputError(f"{path}: the matrix is empty ({sim.shape[0]} rows, {sim.shape[1]} columns)")
        yield sim


def cmd_eval(args) -> int:
    dataset = load_annotations(args.annotations, args.format)
    with _open_scores(args.sim) as sim, _named(args.sim, NotFoundError):  # a SIMM file is ranked as it is read
        report = metrics_report(sim, dataset, threshold=args.threshold, depth=args.depth, fork=True)
    payload = {"threshold": args.threshold, "depth": args.depth, **metrics_report_dict(report)}
    write_report(args.out, build_envelope("eval", _echo(args), payload))
    return 0


def cmd_inspect(args) -> int:
    dataset = load_annotations(args.annotations, args.format)
    with _open_scores(args.sim) as sim, _named(args.sim, NotFoundError):  # of a SIMM file, one row is read
        entries = inspect_query(sim, dataset, args.query, args.topk)
    print(f"query {args.query}: top {len(entries)} of {len(sim.cols)} gallery clips")
    print(f"{'rank':>4}  {'gallery_id':<24} {'score':>12} {'frames':>7} {'rel':>4}  caption")
    for rank, e in enumerate(entries, start=1):
        print(
            f"{rank:>4}  {e.gallery_id:<24} {e.score:>12.6f} {e.frame_length:>7} "
            f"{e.relevance:>4.1f}  {e.caption}"
        )
    return 0


def cmd_simulate(args) -> int:
    config = SimConfig(
        num_classes=args.classes,
        train_per_class=args.train_per_class,
        test_per_class=args.test_per_class,
        train_len_mean=args.train_len_mean,
        test_len_mean=args.train_len_mean + args.test_offset,
        len_stddev=args.len_stddev,
        class_len_spread=args.class_spread,
        bias_strength=args.bias,
        noise_stddev=args.noise_stddev,
        num_len_buckets=args.buckets,
    )
    seeds = _parse_list(args.seeds, int)
    alphas = _parse_list(args.alphas, _finite_float)
    _check_distinct_tags("seed", seeds, "d")
    _check_distinct_tags("alpha", alphas, "g")
    # each process's sweeps check their own arguments: all are checked before any process starts
    check_sweep(config, alphas, seeds, args.min_class_size, args.topk)
    out_dir = Path(args.out_dir)

    @contextmanager
    def emit(seed, alpha, dataset, reference):
        # bias_sweep checks its arguments before the first condition
        out_dir.mkdir(parents=True, exist_ok=True)
        tag = f"seed{seed}" if alpha is None else f"seed{seed}_alpha{alpha:g}"
        simm = out_dir / f"sim_{tag}{'_baseline' if alpha is None else ''}.simm"
        # the matrix is written as the condition is scored, then the CSV; a failed one leaves neither file
        with open_atomic(simm, "wb") as fh, open_atomic(out_dir / f"annotations_{tag}.csv") as csv_fh:
            yield fh
            fh.flush()  # whole before the CSV is renamed
            write_native_csv(reference, csv_fh)

    def sweep(seed):
        return bias_sweep(config, alphas, [seed], min_class_size=args.min_class_size, topk=args.topk, on_condition=emit)

    # the first failing seed in --seeds order is reported, as one process reports it
    rows = [row for group in forking.fork_map(sweep, seeds, forking.plan(len(seeds))) for row in group]
    payload = {
        "sim_config": config,
        "alphas": alphas,
        "seeds": seeds,
        "min_class_size": args.min_class_size,
        "topk": args.topk,
        "conditions": rows,
    }
    write_report(out_dir / "sweep_report.json", build_envelope("simulate", _echo(args), payload))
    return 0


def cmd_sum_sims(args) -> int:
    with ExitStack() as stack:  # a block of rows is read from every input, summed and written
        inputs = [stack.enter_context(_open_scores(path)) for path in args.paths]
        save_matrix(SumSource(inputs, mean=args.mean, names=args.paths), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framebias",
        description="Frame-length bias audit, debiasing filters, and retrieval metrics "
        "for trimmed-clip text-video datasets.",
    )
    parser.add_argument("--version", action="version", version=f"framebias {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="per-class and global length discrepancy report")
    _annotation_args(p)
    p.add_argument("--class", dest="cls", metavar="V,N", help="histogram class (default: all clips)")
    p.add_argument("--bin-width", type=int, default=30)
    p.add_argument("--out", required=True, metavar="PATH", help="report JSON path")
    p.add_argument("--hist-out", metavar="PATH", help="histogram plot-data CSV path")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("filter", help="greedy margin filter over every class")
    _annotation_args(p)
    p.add_argument("--alpha", type=_finite_float, required=True, help="discrepancy margin in frames")
    p.add_argument("--min-class-size", type=int, default=11)
    p.add_argument("--out", required=True, metavar="PATH", help="filtered annotations CSV path")
    p.add_argument("--report", required=True, metavar="PATH", help="report JSON path")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("filter-one", help="remove longest/shortest train clips of one class")
    _annotation_args(p)
    p.add_argument("--verb", type=int, required=True)
    p.add_argument("--noun", type=int, required=True)
    p.add_argument("--mode", choices=("long", "short"), required=True)
    p.add_argument("--fraction", type=_finite_float, default=31 / 88, help="fraction of train clips to remove")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--report", required=True, metavar="PATH")
    p.set_defaults(func=cmd_filter_one)

    p = sub.add_parser("eval", help="score a similarity matrix against annotations")
    p.add_argument("--sim", required=True, metavar="PATH")
    _annotation_args(p)
    p.add_argument("--threshold", type=_finite_float, default=1.0, help="mAP relevance binarization")
    p.add_argument("--depth", type=int, default=None, help="nDCG ranking depth (default: full)")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="print the top-k retrieved clips for one query")
    p.add_argument("--sim", required=True, metavar="PATH")
    _annotation_args(p)
    p.add_argument("--query", required=True, metavar="ID")
    p.add_argument("--topk", type=int, default=10)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("simulate", help="bias-mechanism sweep on synthetic data")
    p.add_argument("--classes", type=int, default=40)
    p.add_argument("--train-per-class", type=int, default=30)
    p.add_argument("--test-per-class", type=int, default=10)
    p.add_argument("--bias", type=_finite_float, default=0.6, help="length leakage strength in [0,1]")
    p.add_argument("--test-offset", type=_finite_float, default=80.0, help="test minus train mean length")
    p.add_argument("--train-len-mean", type=_finite_float, default=400.0)
    p.add_argument("--len-stddev", type=_finite_float, default=40.0)
    p.add_argument("--class-spread", type=_finite_float, default=600.0, help="per-class base length band")
    p.add_argument("--noise-stddev", type=_finite_float, default=0.02)
    p.add_argument("--buckets", type=int, default=24)
    p.add_argument("--min-class-size", type=int, default=11)
    p.add_argument("--topk", type=int, default=20)
    p.add_argument("--seeds", default="0,1,2,3,4", metavar="LIST")
    p.add_argument("--alphas", default="20", metavar="LIST")
    p.add_argument("--out-dir", required=True, metavar="PATH")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sum-sims", help="elementwise sum of similarity matrices")
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--mean", action="store_true", help="divide by the number of matrices")
    p.set_defaults(func=cmd_sum_sims)

    return parser


# output flags of the commands that write two files
_OUTPUT_FLAGS = {"audit": ("out", "hist_out"), "filter": ("out", "report"), "filter-one": ("out", "report")}


def _check_distinct_outputs(parser: argparse.ArgumentParser, args) -> None:
    """Two output flags naming one file would leave only the last file written."""
    dests = _OUTPUT_FLAGS.get(args.command, ())
    paths = [getattr(args, dest) for dest in dests]
    if len(paths) == 2 and paths[1] is not None and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        flags = " and ".join("--" + dest.replace("_", "-") for dest in dests)
        parser.error(f"{args.command}: {flags} name the same file {paths[1]!r}")


def main(argv=None) -> int:
    # framebias calls no BLAS routine; numpy loads inside a command, so this
    # keeps OpenBLAS from starting a thread per CPU unless the caller chose
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_distinct_outputs(parser, args)
    # no framebias structure holds a cycle, so the cyclic collector would
    # only walk every parsed clip again and again (a ClipRecord, a tuple
    # subclass, is never untracked); it is off while the command runs
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except REPORTED as err:
        print(f"framebias {args.command}: error: {err}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
