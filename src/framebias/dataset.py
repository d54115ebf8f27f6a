"""Trimmed-clip annotation model: records, action classes, parsing, indexing.

A clip is a frame span of a longer video, annotated with one caption and a
(verb, noun) action-class pair. Datasets are immutable after construction
and keep ingestion order, so every downstream statistic is deterministic.
A Dataset groups its clips by class and split once, in class order; per-class
statistics walk that index.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from operator import itemgetter
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
    """Immutable, ordered collection of clips, grouped once by class and split."""

    clips: tuple[ClipRecord, ...]
    index: dict[ActionClass, dict[str, tuple[ClipRecord, ...]]] = field(
        init=False, compare=False, repr=False
    )
    by_id: dict[str, ClipRecord] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        by_id: dict[str, ClipRecord] = {}
        for clip in self.clips:
            if clip.clip_id in by_id:
                raise ValidationError(f"duplicate clip_id {clip.clip_id!r}")
            by_id[clip.clip_id] = clip
        object.__setattr__(self, "by_id", by_id)
        object.__setattr__(self, "index", build_class_index(self.clips))

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


def _parse_rows(text: str, columns: tuple[str, ...], split: str | None, label: str, seen: set[str]) -> list[ClipRecord]:
    """Clips of one CSV file; ``columns`` name the ClipRecord fields other than
    split, in field order. ``split=None`` reads the split per row and requires
    the native header; a fixed split takes any header holding ``columns``.
    ``seen`` holds the clip ids read so far and gains this file's. Every error
    is prefixed with ``label`` and the line number."""
    if not text:
        raise AnnotationParseError(f"{label}empty annotation file")
    reader = csv.reader(io.StringIO(text))
    clips = []
    try:
        header = next(reader, [])
        if split is None and tuple(header) != NATIVE_COLUMNS:
            raise AnnotationParseError(f"expected header {','.join(NATIVE_COLUMNS)}, got {','.join(header)}")
        for name in columns:
            if name not in header:
                raise AnnotationParseError(f"missing required column {name!r}")
        pick = itemgetter(*(header.index(name) for name in columns))
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise AnnotationParseError(f"expected {len(header)} fields, got {len(row)}")
            clip_id, video_id, start, stop, caption, verb, noun = pick(row)
            if clip_id in seen:
                raise ValidationError(f"duplicate clip_id {clip_id!r}")
            seen.add(clip_id)
            row_split = split or row[_SPLIT_AT]
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
            clips.append(ClipRecord(clip_id, video_id, row_split, start_i, stop_i, caption, verb_i, noun_i))
    except (csv.Error, AnnotationParseError, ValidationError) as err:
        kind = ValidationError if isinstance(err, ValidationError) else AnnotationParseError
        raise kind(f"{label}line {reader.line_num}: {err}") from None
    return clips


def parse_annotations(source, fmt: str = "native") -> Dataset:
    """Parse annotation file content into a Dataset.

    ``fmt="native"`` takes one file's text (split column per row).
    ``fmt="ek100_pair"`` takes a (train_text, test_text) pair of EK-100
    style files; split is assigned by which file a row came from, and
    columns beyond the required ones are ignored.
    """
    if fmt == "native":
        if not isinstance(source, str):
            raise ValueError("native format expects a single file's text content")
        clips = _parse_rows(source, _NATIVE_FIELDS, None, "", set())
    elif fmt == "ek100_pair":
        try:
            train_text, test_text = source
        except (TypeError, ValueError):
            raise ValueError("ek100_pair format expects (train_text, test_text)") from None
        seen: set[str] = set()
        clips = _parse_rows(train_text, EK100_COLUMNS, "train", "train file, ", seen)
        clips += _parse_rows(test_text, EK100_COLUMNS, "test", "test file, ", seen)
    else:
        raise ValueError(f"unknown annotation format {fmt!r}")
    return Dataset(clips=tuple(clips))


def load_annotations(paths, fmt: str = "native") -> Dataset:
    """Read one path (native) or a (train, test) path pair (ek100_pair) and
    parse it; every parse or validation error names the file(s)."""
    paths = [paths] if isinstance(paths, (str, os.PathLike)) else list(paths)
    texts = []
    for path in paths:
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                texts.append(fh.read())
        except UnicodeDecodeError as err:
            raise AnnotationParseError(f"{path}: not UTF-8 text (byte {err.start})") from None
    try:
        return parse_annotations(texts[0] if len(texts) == 1 else tuple(texts), fmt)
    except (AnnotationParseError, ValidationError) as err:
        raise type(err)(f"{', '.join(map(str, paths))}: {err}") from None


def to_native_csv(dataset: Dataset) -> str:
    """Serialize to the native format; re-parsing yields an equal Dataset."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(NATIVE_COLUMNS)
    writer.writerows(dataset.clips)
    return buf.getvalue()
