import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framebias.dataset import (
    NATIVE_COLUMNS,
    SPLITS,
    ActionClass,
    ClipRecord,
    Dataset,
    build_class_index,
    class_of,
    frame_length,
    length_sum,
    load_annotations,
    parse_annotations,
    to_native_csv,
)
from framebias.errors import AnnotationParseError, ValidationError

HEADER = "clip_id,video_id,split,start_frame,stop_frame,caption,verb_class,noun_class"


def test_parse_two_rows():
    text = f"{HEADER}\na,v1,train,0,4,wash cup,2,9\nb,v1,test,3,3,wash cup,2,9\n"
    ds = parse_annotations(text)
    assert len(ds) == 2
    assert ds.classes() == [ActionClass(2, 9)]
    assert ds.clips[0].clip_id == "a"
    assert ds.clips[1].split == "test"


def test_parse_two_classes():
    text = f"{HEADER}\na,v1,train,0,4,wash cup,2,9\nb,v1,train,0,4,wash pan,2,10\n"
    ds = parse_annotations(text)
    assert ds.classes() == [ActionClass(2, 9), ActionClass(2, 10)]


def test_inverted_span_names_clip():
    text = f"{HEADER}\nbad_clip,v1,train,9,5,x,1,1\n"
    with pytest.raises(ValidationError, match="bad_clip"):
        parse_annotations(text)


def test_duplicate_clip_id_rejected():
    text = f"{HEADER}\na,v1,train,0,4,x,1,1\na,v1,test,0,4,x,1,1\n"
    with pytest.raises(ValidationError, match="duplicate"):
        parse_annotations(text)


def test_wrong_column_count_names_line():
    text = f"{HEADER}\na,v1,train,0,4,x,1,1\nb,v1,train,0,4,x,1\n"
    with pytest.raises(AnnotationParseError, match="line 3"):
        parse_annotations(text)


def test_non_integer_frame_names_line():
    text = f"{HEADER}\na,v1,train,zero,4,x,1,1\n"
    with pytest.raises(AnnotationParseError, match="line 2"):
        parse_annotations(text)


def test_missing_class_field_rejected():
    text = f"{HEADER}\na,v1,train,0,4,x,,1\n"
    with pytest.raises(AnnotationParseError, match="verb_class"):
        parse_annotations(text)


def test_bad_split_rejected():
    text = f"{HEADER}\na,v1,validation,0,4,x,1,1\n"
    with pytest.raises(AnnotationParseError, match="split"):
        parse_annotations(text)


def test_bad_header_rejected():
    with pytest.raises(AnnotationParseError, match="header"):
        parse_annotations("clip,video\na,b\n")


def test_quoted_caption_with_comma():
    text = f'{HEADER}\na,v1,train,0,4,"pick up, rubbish",1,1\n'
    ds = parse_annotations(text)
    assert ds.clips[0].caption == "pick up, rubbish"


@pytest.mark.parametrize(
    "start,stop,expected",
    [(10, 10, 1), (0, 24, 25), (100, 396, 297)],
)
def test_frame_length(start, stop, expected):
    clip = ClipRecord("a", "v", "train", start, stop, "x", 1, 1)
    assert frame_length(clip) == expected


def test_class_of():
    a = ClipRecord("a", "v", "train", 0, 1, "x", 3, 7)
    b = ClipRecord("b", "v", "test", 5, 9, "y", 3, 7)
    c = ClipRecord("c", "v", "test", 5, 9, "y", 3, 8)
    assert class_of(a) == ActionClass(3, 7)
    assert class_of(a) == class_of(b)
    assert class_of(a) != class_of(c)


def test_action_class_ordering():
    assert ActionClass(1, 9) < ActionClass(2, 0)
    assert ActionClass(2, 1) < ActionClass(2, 2)
    assert sorted([ActionClass(2, 2), ActionClass(1, 9)])[0] == ActionClass(1, 9)


def _random_dataset(rng, n=80):
    clips = []
    for i in range(n):
        start = int(rng.integers(0, 100))
        clips.append(
            ClipRecord(
                clip_id=f"clip{i:04d}",
                video_id=f"v{rng.integers(0, 5)}",
                split="train" if rng.random() < 0.7 else "test",
                start_frame=start,
                stop_frame=start + int(rng.integers(0, 400)),
                caption=f"cap {i}, with comma" if i % 7 == 0 else f"cap {i}",
                verb_class=int(rng.integers(0, 4)),
                noun_class=int(rng.integers(0, 4)),
            )
        )
    return Dataset(clips=tuple(clips))


def test_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ds = _random_dataset(rng)
        assert parse_annotations(to_native_csv(ds)) == ds


def test_parse_determinism():
    rng = np.random.default_rng(12)
    text = to_native_csv(_random_dataset(rng))
    assert parse_annotations(text) == parse_annotations(text)


def test_index_rebuild_exact():
    rng = np.random.default_rng(13)
    ds = _random_dataset(rng)
    assert build_class_index(ds.clips) == ds.index


def test_ingestion_order_preserved(data_dir):
    ds = load_annotations(data_dir / "tiny.csv")
    assert [c.clip_id for c in ds] == [f"c{i:02d}" for i in range(1, 9)]


def test_ek100_pair(data_dir):
    ds = load_annotations(
        [data_dir / "tiny_ek_train.csv", data_dir / "tiny_ek_test.csv"], fmt="ek100_pair"
    )
    assert len(ds) == 5
    assert [c.split for c in ds] == ["train"] * 3 + ["test"] * 2
    first = ds.clips[0]
    assert first.clip_id == "P01_01_0"
    assert first.caption == "open door"
    assert class_of(first) == ActionClass(3, 3)
    assert frame_length(first) == 195
    # round-trips through the native format
    assert parse_annotations(to_native_csv(ds)) == ds


def test_ek100_missing_column():
    text = "narration_id,video_id\nx,y\n"
    with pytest.raises(AnnotationParseError, match="start_frame"):
        parse_annotations((text, text), fmt="ek100_pair")


def test_unknown_format():
    with pytest.raises(ValueError, match="format"):
        parse_annotations("x", fmt="tsv")


def test_clip_lookup(data_dir):
    ds = load_annotations(data_dir / "tiny.csv")
    assert ds.by_id["c05"].caption == "pick up rubbish"
    assert [c.clip_id for c in ds.clips_of(ActionClass(1, 2), "train")] == ["c01", "c02"]
    assert [c.clip_id for c in ds.clips_of(ActionClass(1, 2), "test")] == ["c03"]
    assert ds.clips_of(ActionClass(9, 9), "train") == ()


# negative and repeated codes; a class often has clips in one split only
_CLIP_KEYS = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.sampled_from(SPLITS)), max_size=40)


@given(keys=_CLIP_KEYS)
@settings(max_examples=200, deadline=None)
def test_class_index_groups_clips_in_class_then_ingestion_order(keys):
    clips = tuple(
        ClipRecord(f"c{i}", "v", split, 0, i, "x", verb, noun) for i, (verb, noun, split) in enumerate(keys)
    )
    classes = sorted({class_of(c) for c in clips})
    naive = [
        (ac, {split: tuple(c for c in clips if class_of(c) == ac and c.split == split) for split in SPLITS})
        for ac in classes
    ]
    assert list(build_class_index(clips).items()) == naive
    ds = Dataset(clips=clips)
    assert list(ds.index.items()) == naive
    assert ds.classes() == classes
    listed = ds.classes()
    listed.append(ActionClass(9, 9))
    assert ds.classes() == classes  # a fresh list per call
    for ac, by_split in naive:
        for split in SPLITS:
            assert ds.clips_of(ac, split) == by_split[split]
    assert ds.clips_of(ActionClass(3, 3), "train") == ()
    with pytest.raises(ValueError, match="split"):
        ds.clips_of(ActionClass(0, 0), "val")


CLIP = ClipRecord("a", "v", "train", 2, 9, "x", 1, 1)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"split": "val"}, "split must be one of"),
        ({"start_frame": -1}, "start_frame must be >= 0, got -1"),
        ({"stop_frame": -5}, "stop_frame -5 < start_frame 2"),
    ],
    ids=["bad-split", "negative-start", "stop-before-start"],
)
def test_clip_record_validates_however_it_is_built(change, message):
    fields = {**CLIP._asdict(), **change}
    with pytest.raises(ValidationError, match=f"clip 'a': {message}"):
        ClipRecord(**fields)
    with pytest.raises(ValidationError, match=message):
        ClipRecord._make(fields.values())
    with pytest.raises(ValidationError, match=message):
        CLIP._replace(**change)


def test_clip_record_is_a_tuple_in_native_column_order():
    assert ClipRecord._fields == NATIVE_COLUMNS
    assert CLIP == ("a", "v", "train", 2, 9, "x", 1, 1)
    assert CLIP._replace(stop_frame=20) == ClipRecord("a", "v", "train", 2, 20, "x", 1, 1)
    copy = pickle.loads(pickle.dumps(CLIP))
    assert copy == CLIP and type(copy) is ClipRecord


@given(st.lists(st.tuples(st.integers(0, 1 << 40), st.integers(0, 1 << 40)), max_size=30))
@example(spans=[])
@settings(max_examples=200, deadline=None)
def test_length_sum_is_the_sum_of_frame_lengths(spans):
    clips = [ClipRecord(f"c{i}", "v", "train", start, start + length, "cap", 0, 0)
             for i, (start, length) in enumerate(spans)]
    assert length_sum(clips) == sum(map(frame_length, clips))
    assert length_sum(tuple(clips)) == length_sum(clips)
