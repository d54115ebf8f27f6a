"""Trimmed-clip annotation model: records, action classes, parsing, indexing.

A clip is a frame span of a longer video, annotated with one caption and a
(verb, noun) action-class pair. Datasets are immutable after construction
and keep ingestion order, so every downstream statistic is deterministic.
A Dataset groups its clips by class and split, in class order, the first time
that index is read; per-class statistics walk it.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import contains, itemgetter
from typing import NamedTuple

from framebias.errors import AnnotationParseError, ValidationError

NATIVE_COLUMNS = (
    "clip_id",
    "video_id",
    "split",
    "start_frame",
    "stop_frame",
    "caption",
    "verb_class",
    "noun_class",
)

EK100_COLUMNS = (
    "narration_id",
    "video_id",
    "start_frame",
    "stop_frame",
    "narration",
    "verb_class",
    "noun_class",
)

SPLITS = ("train", "test")

_NATIVE_FIELDS = tuple(name for name in NATIVE_COLUMNS if name != "split")
_SPLIT_AT = NATIVE_COLUMNS.index("split")
_INT_FIELDS = ("start_frame", "stop_frame", "verb_class", "noun_class")


@dataclass(frozen=True, order=True)
class ActionClass:
    """A (verb, noun) class pair; ordering is lexicographic on the pair."""

    verb_class: int
    noun_class: int

    def __str__(self) -> str:
        return f"{self.verb_class},{self.noun_class}"


class _ClipFields(NamedTuple):  # in NATIVE_COLUMNS order
    clip_id: str
    video_id: str
    split: str
    start_frame: int
    stop_frame: int
    caption: str
    verb_class: int
    noun_class: int


class ClipRecord(_ClipFields):
    """One trimmed clip: frame span, caption, split, and action class.

    An immutable tuple of the ``NATIVE_COLUMNS`` fields, validated when built;
    ``_make`` and ``_replace`` validate too.
    """

    __slots__ = ()

    def __new__(cls, clip_id, video_id, split, start_frame, stop_frame, caption, verb_class, noun_class):
        if split not in SPLITS:
            raise ValidationError(f"clip {clip_id!r}: split must be one of {SPLITS}, got {split!r}")
        if start_frame < 0:
            raise ValidationError(f"clip {clip_id!r}: start_frame must be >= 0, got {start_frame}")
        if stop_frame < start_frame:
            raise ValidationError(f"clip {clip_id!r}: stop_frame {stop_frame} < start_frame {start_frame}")
        return tuple.__new__(
            cls, (clip_id, video_id, split, start_frame, stop_frame, caption, verb_class, noun_class)
        )

    @classmethod
    def _make(cls, iterable) -> ClipRecord:
        return cls(*iterable)


def frame_length(clip: ClipRecord) -> int:
    """Number of frames in the clip's span, inclusive of both endpoints."""
    return clip.stop_frame - clip.start_frame + 1


def class_of(clip: ClipRecord) -> ActionClass:
    """The clip's (verb, noun) action class."""
    return ActionClass(clip.verb_class, clip.noun_class)


def build_class_index(clips: tuple[ClipRecord, ...]) -> dict[ActionClass, dict[str, tuple[ClipRecord, ...]]]:
    """Group the clips by action class, in (verb, noun) order, then by split.

    Each class maps ``"train"`` and ``"test"`` to its clips in ingestion
    order; rebuilding from the same clips gives an equal index.
    """
    groups: dict[tuple[int, int, str], list[ClipRecord]] = {}
    for clip in clips:
        groups.setdefault((clip.verb_class, clip.noun_class, clip.split), []).append(clip)
    return {
        ActionClass(verb, noun): {split: tuple(groups.get((verb, noun, split), ())) for split in SPLITS}
        for verb, noun in sorted({key[:2] for key in groups})
    }


@dataclass(frozen=True)
class Dataset:
    """Immutable, ordered collection of clips. Its id map and its grouping by
    class and split are built on first use and kept."""

    clips: tuple[ClipRecord, ...]

    def __post_init__(self) -> None:
        seen = set()
        for clip in self.clips:
            if clip.clip_id in seen:
                raise ValidationError(f"duplicate clip_id {clip.clip_id!r}")
            seen.add(clip.clip_id)

    @classmethod
    def _of(cls, clips: tuple[ClipRecord, ...]) -> Dataset:
        """The dataset of ``clips``, unchecked: the caller knows their ids
        to be distinct (parsed ones, or a subset of a dataset's clips)."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "clips", clips)
        return dataset

    @cached_property
    def by_id(self) -> dict[str, ClipRecord]:
        """Each clip under its id."""
        return dict(zip(map(itemgetter(0), self.clips), self.clips))

    @cached_property
    def index(self) -> dict[ActionClass, dict[str, tuple[ClipRecord, ...]]]:
        """``build_class_index`` of the clips."""
        return build_class_index(self.clips)

    def __len__(self) -> int:
        return len(self.clips)

    def __iter__(self):
        return iter(self.clips)

    def classes(self) -> list[ActionClass]:
        """All action classes present, in (verb, noun) lexicographic order."""
        return list(self.index)

    def split_clips(self, split: str) -> tuple[ClipRecord, ...]:
        if split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
        return tuple(c for c in self.clips if c.split == split)

    def clips_of(self, action_class: ActionClass, split: str) -> tuple[ClipRecord, ...]:
        """The class's clips in one split, in ingestion order; empty if the class is unknown."""
        if split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
        entry = self.index.get(action_class)
        return entry[split] if entry is not None else ()


def _int_field(value: str, name: str) -> int:
    """``value`` as an int: an optional ``-`` then ASCII digits, nothing else."""
    digits = value[1:] if value.startswith("-") else value
    if digits.isascii() and digits.isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise AnnotationParseError(f"field {name!r} must be an integer, got {value!r}")


def _parse_rows(lines, columns: tuple[str, ...], split: str | None, label: str, by_id: dict, shared: dict) -> None:
    """Add the clips of one CSV file, read from ``lines`` (an open text file
    or any iterable of lines), to ``by_id``, which maps the ids of the clips
    read so far to the clips. ``columns`` name the ClipRecord fields other
    than split, in field order. ``split=None`` reads the split per row and
    requires the native header; a fixed split takes any header holding
    ``columns``. ``shared`` maps each split, video id and caption read so far
    to the one string that every clip holding it keeps. Every error is
    prefixed with ``label`` and the line number."""
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise AnnotationParseError("empty annotation file")
        if split is None and tuple(header) != NATIVE_COLUMNS:
            raise AnnotationParseError(f"expected header {','.join(NATIVE_COLUMNS)}, got {','.join(header)}")
        for name in columns:
            if name not in header:
                raise AnnotationParseError(f"missing required column {name!r}")
        pick = itemgetter(*(header.index(name) for name in columns))
        share = shared.setdefault
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise AnnotationParseError(f"expected {len(header)} fields, got {len(row)}")
            clip_id, video_id, start, stop, caption, verb, noun = pick(row)
            if clip_id in by_id:
                raise ValidationError(f"duplicate clip_id {clip_id!r}")
            row_split = split or share(row[_SPLIT_AT], row[_SPLIT_AT])
            if row_split not in SPLITS:
                raise AnnotationParseError(f"split must be train or test, got {row_split!r}")
            try:
                start_i, stop_i, verb_i, noun_i = int(start), int(stop), int(verb), int(noun)
                # int() also takes "+3", " 3", "1_0" and non-ASCII digits
                digits = (start + stop + verb + noun).replace("-", "")
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
            except ValueError:  # name the first bad field
                start_i, stop_i, verb_i, noun_i = map(_int_field, (start, stop, verb, noun), _INT_FIELDS)
            by_id[clip_id] = ClipRecord(
                clip_id, share(video_id, video_id), row_split, start_i, stop_i, share(caption, caption), verb_i, noun_i
            )
    except (csv.Error, AnnotationParseError, ValidationError) as err:
        kind = ValidationError if isinstance(err, ValidationError) else AnnotationParseError
        where = f"line {reader.line_num}: " if reader.line_num else ""  # no line read: the file is empty
        raise kind(f"{label}{where}{err}") from None


def parse_annotations(source, fmt: str = "native") -> Dataset:
    """Parse annotation file content into a Dataset.

    ``fmt="native"`` takes one file's content (split column per row).
    ``fmt="ek100_pair"`` takes a (train, test) pair of EK-100 style files;
    split is assigned by which file a row came from, and columns beyond the
    required ones are ignored. A file's content is its text, or an open text
    file (any iterable of lines), which is read row by row. Equal split,
    video id and caption strings are kept once, shared by every clip.
    """
    by_id: dict[str, ClipRecord] = {}
    shared = {split: split for split in SPLITS}
    if fmt == "native":
        _parse_rows(_lines(source), _NATIVE_FIELDS, None, "", by_id, shared)
    elif fmt == "ek100_pair":
        try:
            train, test = source
        except (TypeError, ValueError):
            raise ValueError("ek100_pair format expects (train_text, test_text)") from None
        _parse_rows(_lines(train), EK100_COLUMNS, SPLITS[0], "train file, ", by_id, shared)
        _parse_rows(_lines(test), EK100_COLUMNS, SPLITS[1], "test file, ", by_id, shared)
    else:
        raise ValueError(f"unknown annotation format {fmt!r}")
    return Dataset._of(tuple(by_id.values()))


def _lines(content):
    """Lines of a file's text, or of an open text file, split only at ``\\n``."""
    return io.StringIO(content) if isinstance(content, str) else content


_PATH_COUNTS = {"native": 1, "ek100_pair": 2}


def load_annotations(paths, fmt: str = "native") -> Dataset:
    """Read one path (native) or a (train, test) path pair (ek100_pair) and
    parse it row by row; every parse or validation error names the file(s)."""
    paths = [paths] if isinstance(paths, (str, os.PathLike)) else list(paths)
    if fmt not in _PATH_COUNTS:
        raise ValueError(f"unknown annotation format {fmt!r}")
    if len(paths) != _PATH_COUNTS[fmt]:
        raise ValueError(f"{fmt} format takes {_PATH_COUNTS[fmt]} annotation path(s), got {len(paths)}")
    try:
        with ExitStack() as stack:
            # newline="\n" splits lines at "\n" alone, as StringIO(text) does
            files = [stack.enter_context(open(path, encoding="utf-8", newline="\n")) for path in paths]
            return parse_annotations(files[0] if fmt == "native" else tuple(files), fmt)
    except UnicodeDecodeError:
        # the decoder's offset is relative to its chunk: find the byte in the files
        for path in paths:
            at = bad_utf8_byte(path)
            if at is not None:
                raise AnnotationParseError(f"{path}: not UTF-8 text (byte {at})") from None
        raise AnnotationParseError(f"{', '.join(map(str, paths))}: not UTF-8 text") from None
    except (AnnotationParseError, ValidationError) as err:
        raise type(err)(f"{', '.join(map(str, paths))}: {err}") from None


def bad_utf8_byte(path) -> int | None:
    """Offset of the first byte of ``path`` that is not UTF-8, from a second
    read of the file; None if it decodes or is not a regular file (a pipe
    cannot be read twice)."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        try:
            fh.read().decode("utf-8")
        except UnicodeDecodeError as err:
            return err.start
    return None


def csv_writer(fh, strings):
    """A ``csv.writer`` for ``fh`` whose rows the readers here parse back:
    ``csv`` leaves a lone ``\\r`` unquoted, which they refuse, so every field
    is quoted when one of ``strings`` (the text to be written) holds one."""
    has_cr = any(map(contains, strings, repeat("\r")))
    return csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL if has_cr else csv.QUOTE_MINIMAL)


def write_native_csv(dataset: Dataset, fh) -> None:
    """Write the native format to an open text file, row by row."""
    texts = map(itemgetter(0, 1, 5), dataset.clips)  # clip id, video id, caption
    writer = csv_writer(fh, chain.from_iterable(texts))
    writer.writerow(NATIVE_COLUMNS)
    writer.writerows(dataset.clips)


def to_native_csv(dataset: Dataset) -> str:
    """Serialize to the native format; re-parsing yields an equal Dataset."""
    buf = io.StringIO()
    write_native_csv(dataset, buf)
    return buf.getvalue()
