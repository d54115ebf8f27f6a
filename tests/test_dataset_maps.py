"""A Dataset builds its id map and class index on first use: however it is
made, it reads as one built eagerly from its clips, and a filtered subset
holds neither until they are read.
"""

import io
import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from framebias.dataset import (
    EK100_COLUMNS,
    SPLITS,
    ActionClass,
    ClipRecord,
    Dataset,
    build_class_index,
    class_of,
    csv_writer,
    parse_annotations,
    to_native_csv,
)
from framebias.filtering import FilterConfig, filter_margin, filter_single_class

from test_block_sources import text


def eager(clips):
    """The id map, class index and class list of ``clips``, built naively."""
    by_id = {c.clip_id: c for c in clips}
    classes = sorted({class_of(c) for c in clips})
    index = {
        ac: {split: tuple(c for c in clips if class_of(c) == ac and c.split == split) for split in SPLITS}
        for ac in classes
    }
    return by_id, index, classes


def assert_reads_as(dataset, clips, index_first):
    """``dataset`` reads as an eagerly built dataset of ``clips``, whichever
    of its maps is read first."""
    by_id, index, classes = eager(clips)
    assert dataset == Dataset(clips=clips) and len(dataset) == len(clips)
    if index_first:
        assert list(dataset.index.items()) == list(index.items())
    assert list(dataset.by_id.items()) == list(by_id.items())
    assert list(dataset.index.items()) == list(index.items())
    assert dataset.by_id is dataset.by_id and dataset.index is dataset.index  # built once
    assert dataset.classes() == classes
    for ac in [*classes, ActionClass(9, 9)]:
        for split in SPLITS:
            assert dataset.clips_of(ac, split) == index.get(ac, {}).get(split, ())


def ek100_text(clips) -> str:
    buf = io.StringIO()
    writer = csv_writer(buf, [s for c in clips for s in (c.clip_id, c.video_id, c.caption)])
    writer.writerow(EK100_COLUMNS)
    writer.writerows((c.clip_id, c.video_id, c.start_frame, c.stop_frame, c.caption, c.verb_class, c.noun_class)
                     for c in clips)
    return buf.getvalue()


@st.composite
def clip_lists(draw):
    """Clips with ids from full Unicode and interleaved, negative class codes;
    few clips per class, so many classes have clips in one split only."""
    clips = []
    for clip_id in draw(st.lists(text, max_size=24, unique=True)):
        start = draw(st.integers(0, 50))
        clips.append(ClipRecord(
            clip_id, draw(text), draw(st.sampled_from(SPLITS)), start, start + draw(st.integers(0, 80)),
            draw(text), draw(st.integers(-2, 2)), draw(st.integers(-2, 1)),
        ))
    return tuple(clips)


@given(clips=clip_lists(), index_first=st.booleans(), alpha=st.sampled_from([0.0, 3.0, 40.0]))
@settings(max_examples=150, deadline=None)
def test_every_way_of_making_a_dataset_reads_as_an_eager_one(clips, index_first, alpha):
    assert_reads_as(Dataset(clips=clips), clips, index_first)
    assert_reads_as(parse_annotations(to_native_csv(Dataset(clips=clips))), clips, index_first)

    train = tuple(c for c in clips if c.split == "train")
    test = tuple(c for c in clips if c.split == "test")
    paired = parse_annotations((ek100_text(train), ek100_text(test)), fmt="ek100_pair")
    assert_reads_as(paired, train + test, index_first)

    dataset = Dataset(clips=clips)
    kept, report = filter_margin(dataset, FilterConfig(alpha=alpha, min_class_size=1))
    removed = set(report.removed_clip_ids)
    assert all(k is c for k, c in zip(kept.clips, (c for c in clips if c.clip_id not in removed)))
    assert_reads_as(kept, tuple(c for c in clips if c.clip_id not in removed), index_first)

    for ac in eager(clips)[2]:
        if len(dataset.clips_of(ac, "train")) >= 2:
            kept, report = filter_single_class(dataset, ac, "remove_long", 0.5)
            removed = set(report.removed_clip_ids)
            assert_reads_as(kept, tuple(c for c in clips if c.clip_id not in removed), index_first)


def traced_held(fn, *args):
    """Bytes that ``fn(*args)`` allocates and still holds while its result
    lives, and the result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return tracemalloc.get_traced_memory()[0] - base, result
    finally:
        tracemalloc.stop()


def long_tail_csv(clips=20_000, classes=600, seed=7) -> str:
    """A native CSV of ``clips`` clips over ``classes`` classes of Zipf-like
    sizes, whose test clips run longer, so the margin filter removes some."""
    rng = random.Random(seed)
    weights = [1 / (rank + 5) for rank in range(classes)]
    rows = []
    for i in range(clips):
        c = rng.choices(range(classes), weights)[0]
        split = "test" if rng.random() < 0.13 else "train"
        length = max(1, round(rng.gauss(150 + c % 40 * 10 + (30 if split == "test" else 0), 50)))
        rows.append(f"P{i % 70:02d}_{i},P{i % 70:02d},{split},0,{length - 1},do {c},{c % 97},{c // 97}\n")
    return "clip_id,video_id,split,start_frame,stop_frame,caption,verb_class,noun_class\n" + "".join(rows)


def test_a_filtered_subset_holds_no_maps_until_they_are_read():
    dataset = parse_annotations(long_tail_csv())
    dataset.index  # the filter walks it, so it is built before the filter runs
    held, (kept, report) = traced_held(filter_margin, dataset, FilterConfig(alpha=20))
    assert 1000 < report.removed_count and len(kept) == len(dataset) - report.removed_count
    # a kept set that built its maps would hold these too: the filter holds under half of that
    maps, _ = traced_held(lambda clips: ({c.clip_id: c for c in clips}, build_class_index(clips)), kept.clips)
    assert held < maps


def test_a_parsed_dataset_builds_its_id_map_when_it_is_read():
    dataset = parse_annotations(long_tail_csv())
    first, by_id = traced_held(lambda: dataset.by_id)
    assert first > 16 * len(dataset) and len(by_id) == len(dataset)  # a key and a value per clip
    again, _ = traced_held(lambda: dataset.by_id)
    assert again < 1000
