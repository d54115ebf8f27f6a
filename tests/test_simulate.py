import io
import math
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framebias import metrics
from framebias.audit import global_length_summary
from framebias.dataset import ActionClass, Dataset, class_of, frame_length
from framebias.errors import DegenerateInputError
from framebias.filtering import FilterConfig, filter_margin, filter_single_class
from framebias.matrices import to_binary
from framebias.metrics import gt_rank, topk_avg_length
from framebias.simulate import (
    _NOISE_STREAM,
    SimConfig,
    _match_components,
    _TestSide,
    bias_sweep,
    class_for_index,
    simulate,
    single_class_ablation,
    synth_dataset,
    synth_similarity,
)

from oracles import naive_synth_similarity

MECHANISM_CONFIG = SimConfig(
    num_classes=40,
    train_per_class=30,
    test_per_class=10,
    train_len_mean=400.0,
    test_len_mean=480.0,
    len_stddev=40.0,
    class_len_spread=600.0,
    bias_strength=0.6,
    noise_stddev=0.02,
    num_len_buckets=24,
)


class TestSynthDataset:
    def test_zero_variance(self):
        cfg = SimConfig(num_classes=3, train_per_class=5, test_per_class=2,
                        train_len_mean=100, test_len_mean=100, len_stddev=0, seed=7)
        ds = synth_dataset(cfg)
        assert {frame_length(c) for c in ds} == {100}

    def test_same_seed_identical(self):
        cfg = SimConfig(num_classes=4, train_per_class=6, test_per_class=3, seed=9)
        assert synth_dataset(cfg) == synth_dataset(cfg)

    def test_different_seed_differs(self):
        a = synth_dataset(SimConfig(num_classes=4, train_per_class=6, test_per_class=3, seed=1))
        b = synth_dataset(SimConfig(num_classes=4, train_per_class=6, test_per_class=3, seed=2))
        assert a != b

    def test_global_offset(self):
        cfg = SimConfig(num_classes=4, train_per_class=100, test_per_class=100,
                        train_len_mean=200, test_len_mean=280, len_stddev=10, seed=0)
        train_mean, test_mean, _, _ = global_length_summary(synth_dataset(cfg))
        assert abs((test_mean - train_mean) - 80) < 2

    def test_counts_and_splits(self):
        cfg = SimConfig(num_classes=5, train_per_class=7, test_per_class=3, seed=3)
        ds = synth_dataset(cfg)
        assert len(ds.split_clips("train")) == 35
        assert len(ds.split_clips("test")) == 15
        assert len(ds.classes()) == 5

    def test_lengths_at_least_one(self):
        cfg = SimConfig(num_classes=3, train_per_class=50, test_per_class=10,
                        train_len_mean=5, test_len_mean=5, len_stddev=30, seed=2)
        assert min(frame_length(c) for c in synth_dataset(cfg)) >= 1

    def test_class_spread_centered(self):
        cfg = SimConfig(num_classes=9, train_per_class=200, test_per_class=1,
                        train_len_mean=300, test_len_mean=300, len_stddev=0,
                        class_len_spread=200, seed=0)
        ds = synth_dataset(cfg)
        per_class = sorted(
            np.mean([frame_length(c) for c in ds.clips_of(ac, "train")]) for ac in ds.classes()
        )
        assert per_class[0] == 200
        assert per_class[-1] == 400
        assert np.mean(per_class) == 300

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(num_classes=0)
        with pytest.raises(ValueError):
            SimConfig(bias_strength=1.5)
        with pytest.raises(ValueError):
            SimConfig(len_stddev=-1)
        with pytest.raises(ValueError):
            SimConfig(num_len_buckets=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            *((field, 2.5) for field in ("num_classes", "train_per_class", "test_per_class", "num_len_buckets", "seed")),
            ("seed", -1),
            ("seed", 1.5),
            ("num_classes", "3"),
        ],
    )
    def test_integer_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= [01], got {value!r}$"):
            SimConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(num_classes=np.int64(3), num_len_buckets=np.int32(4), seed=np.uint8(7))
        assert synth_dataset(cfg) == synth_dataset(SimConfig(num_classes=3, num_len_buckets=4, seed=7))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        ["train_len_mean", "test_len_mean", "len_stddev", "class_len_spread", "bias_strength", "noise_stddev"],
    )
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SimConfig(**{field: value})


class TestSynthSimilarity:
    def test_pure_class_signal(self):
        cfg = SimConfig(num_classes=4, train_per_class=3, test_per_class=3,
                        bias_strength=0.0, noise_stddev=0.0, seed=1)
        ds = synth_dataset(cfg)
        sim, _ = synth_similarity(ds, cfg, ds)
        classes = [class_of(ds.by_id[r]) for r in sim.rows]
        expected = np.array([[1.0 if a == b else 0.0 for b in classes] for a in classes])
        assert np.array_equal(sim.values, expected)
        # GT never ranked below the same-class block
        for i, rid in enumerate(sim.rows):
            assert gt_rank(sim, i, rid) <= 3

    def test_pure_length_signal_two_buckets(self):
        # class 0: train mean 100, class 1: train mean 200; test offset +100.
        # All test clips land in the upper bucket, so class-1 captions
        # (train mean 200 -> upper bucket) tie with every test clip while
        # class-0 captions (lower bucket) match nothing.
        cfg = SimConfig(num_classes=2, train_per_class=4, test_per_class=2,
                        train_len_mean=150, test_len_mean=250, len_stddev=0,
                        class_len_spread=100, bias_strength=1.0, noise_stddev=0.0,
                        num_len_buckets=2, seed=5)
        ds = synth_dataset(cfg)
        sim, _ = synth_similarity(ds, cfg, ds)
        by_class = [class_of(ds.by_id[r]) for r in sim.rows]
        c0 = class_for_index(cfg, 0)
        for i, ac in enumerate(by_class):
            if ac == c0:
                assert np.all(sim.values[i] == 0.0)
            else:
                assert np.all(sim.values[i] == 1.0)
                # wrong-class clip at the same score ties ahead of GT by index
                assert gt_rank(sim, i, sim.rows[i]) > 1

    def test_same_seed_identical_matrix(self):
        cfg = SimConfig(num_classes=3, train_per_class=4, test_per_class=2, seed=6)
        ds = synth_dataset(cfg)
        assert synth_similarity(ds, cfg, ds)[0] == synth_similarity(ds, cfg, ds)[0]

    def test_monotone_leakage_term(self):
        cfg = SimConfig(num_classes=4, train_per_class=5, test_per_class=3,
                        noise_stddev=0.0, seed=8, class_len_spread=100)
        ds = synth_dataset(cfg)
        _, qi, qb, cb, _ = _match_components(_TestSide(ds, cfg), ds)
        class_match, bucket_match = qi[:, None] == qi, qb[:, None] == cb
        # a length term that matches everywhere or nowhere would say nothing
        assert bucket_match.any() and not bucket_match.all()
        contributions = []
        for lam in [0.0, 0.3, 0.6, 1.0]:
            sim, _ = synth_similarity(ds, replace(cfg, bias_strength=lam), ds)
            leakage = sim.values - (1.0 - lam) ** 2 * class_match
            assert np.allclose(leakage, lam**2 * bucket_match, rtol=0, atol=1e-12)
            contributions.append(leakage)
        for weaker, stronger in zip(contributions, contributions[1:]):
            assert np.all(stronger >= weaker - 1e-12)
            assert np.all(stronger[bucket_match] > weaker[bucket_match])

    def test_fallback_class_recorded(self):
        cfg = SimConfig(num_classes=3, train_per_class=4, test_per_class=2, seed=4)
        ds = synth_dataset(cfg)
        # drop one class's train clips from the reference entirely
        victim = ds.classes()[0]
        from framebias.dataset import Dataset

        ref = Dataset(
            clips=tuple(
                c for c in ds.clips if not (c.split == "train" and class_of(c) == victim)
            )
        )
        sim, prov = synth_similarity(ds, cfg, ref)
        assert str(victim) in prov["fallback_classes"]
        assert prov["generator"] == "numpy-default-rng-pcg64"

    def test_matrix_ids_cover_test_split(self):
        out = simulate(SimConfig(num_classes=3, train_per_class=4, test_per_class=2, seed=4))
        test_ids = tuple(c.clip_id for c in out.dataset.split_clips("test"))
        assert out.sim_t2v.rows == test_ids
        assert out.sim_t2v.cols == test_ids

    def test_no_test_clips_rejected(self):
        cfg = SimConfig(num_classes=2, train_per_class=3, test_per_class=1, seed=1)
        ds = synth_dataset(cfg)
        from framebias.dataset import Dataset

        train_only = Dataset(clips=ds.split_clips("train"))
        with pytest.raises(DegenerateInputError):
            synth_similarity(train_only, cfg, ds)


def reference_for(ds: Dataset, kind: str) -> Dataset:
    """The train reference a similarity is built against."""
    if kind == "margin":
        return filter_margin(ds, FilterConfig(alpha=5.0, min_class_size=2))[0]
    victim = ds.classes()[-1]
    if kind == "single_class":
        if len(ds.clips_of(victim, "train")) < 2:
            return ds
        return filter_single_class(ds, victim, "remove_long", 0.5)[0]
    if kind == "drop_class":  # the victim's captions fall back to the global mean
        return Dataset(clips=tuple(c for c in ds.clips if not (c.split == "train" and class_of(c) == victim)))
    return ds


sim_configs = st.builds(
    SimConfig,
    num_classes=st.integers(1, 6),
    train_per_class=st.integers(1, 6),
    test_per_class=st.integers(1, 4),
    train_len_mean=st.sampled_from([5.0, 100.0, 400.0]),
    test_len_mean=st.sampled_from([5.0, 150.0, 480.0]),
    len_stddev=st.sampled_from([0.0, 3.0, 40.0]),
    class_len_spread=st.sampled_from([0.0, 50.0, 600.0]),
    bias_strength=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    noise_stddev=st.sampled_from([0.0, 0.02, 0.7]),
    num_len_buckets=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)


@given(config=sim_configs, kind=st.sampled_from(["own", "margin", "single_class", "drop_class"]))
@example(config=SimConfig(num_classes=5, bias_strength=0.0), kind="own")
@example(config=SimConfig(num_classes=5, bias_strength=1.0), kind="margin")
@example(config=SimConfig(num_classes=5, noise_stddev=0.0), kind="own")
@example(config=SimConfig(num_classes=5, num_len_buckets=1), kind="own")
@example(config=SimConfig(num_classes=5, len_stddev=0.0, train_len_mean=50.0, test_len_mean=50.0), kind="own")
@example(config=SimConfig(num_classes=5, class_len_spread=0.0), kind="single_class")
@example(config=SimConfig(num_classes=5, class_len_spread=300.0), kind="margin")
@example(config=SimConfig(num_classes=5, class_len_spread=300.0), kind="drop_class")
@settings(max_examples=150, deadline=None)
def test_similarity_matches_broadcast_oracle(config, kind):
    ds = synth_dataset(config)
    ref = reference_for(ds, kind)
    try:
        ids, expected, expected_prov = naive_synth_similarity(ds, config, ref)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            synth_similarity(ds, config, ref)
        return
    sim, prov = synth_similarity(ds, config, ref)
    assert sim.rows == ids and sim.cols == ids
    assert np.array_equal(sim.values.view(np.int64), expected.view(np.int64))
    assert prov == expected_prov
    if kind == "drop_class":
        assert prov["fallback_classes"] == [str(ds.classes()[-1])]


def n2_similarity(dataset, config, train_reference):
    """The matrix as built whole: N x N class- and bucket-match matrices, one
    table lookup over all of them, then each row's noise from two scaled
    copies of the transposed noise."""
    num_classes, qi, qb, cb, _ = _match_components(_TestSide(dataset, config), train_reference)
    lam = config.bias_strength
    a, b = (1.0 - lam) ** 2, lam**2
    table = np.array([0.0, a, b, a + b])
    class_match = qi[:, None] == qi[None, :]
    bucket_match = qb[:, None] == cb[None, :]
    values = table.take(class_match + 2 * bucket_match.view(np.uint8))
    if config.noise_stddev > 0:
        rng = np.random.default_rng([config.seed, _NOISE_STREAM])
        dim = num_classes + config.num_len_buckets
        noise_t = rng.normal(0.0, config.noise_stddev, size=(len(qi), dim)).T.copy()
        class_noise, bucket_noise = (1.0 - lam) * noise_t, lam * noise_t
        for row, c, k in zip(values, qi.tolist(), (qb + num_classes).tolist()):
            row += class_noise[c]
            row += bucket_noise[k]
    return values


@given(
    config=sim_configs,
    lam=st.sampled_from([0.0, 0.6, 1.0]),
    kind=st.sampled_from(["own", "drop_class"]),
    block_scores=st.sampled_from([1, 5, 64, metrics._BLOCK_SCORES]),
)
@example(config=SimConfig(num_classes=5, noise_stddev=0.0), lam=0.6, kind="own", block_scores=1)
@example(config=SimConfig(num_classes=3, len_stddev=0.0, train_len_mean=50.0, test_len_mean=50.0),
         lam=0.6, kind="own", block_scores=5)
@example(config=SimConfig(num_classes=5, class_len_spread=300.0), lam=1.0, kind="drop_class", block_scores=64)
@example(config=SimConfig(num_classes=5, class_len_spread=300.0), lam=0.0, kind="own",
         block_scores=metrics._BLOCK_SCORES)
@settings(max_examples=150, deadline=None)
def test_block_build_matches_whole_matrix_build(config, lam, kind, block_scores):
    config = replace(config, bias_strength=lam)
    ds = synth_dataset(config)
    ref = reference_for(ds, kind)
    if not ref.split_clips("train"):
        return
    expected = n2_similarity(ds, config, ref)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_BLOCK_SCORES", block_scores)  # one row per block up to one block
        sim, _ = synth_similarity(ds, config, ref)
    assert np.array_equal(sim.values.view(np.int64), expected.view(np.int64))


class TestMechanism:
    def test_topk_length_tracks_train_mean(self):
        # over >= 10 seeds, per-query top-20 mean length correlates with the
        # query class's (empirical) train mean length
        corrs = []
        for seed in range(10):
            cfg = SimConfig(num_classes=10, train_per_class=20, test_per_class=5,
                            train_len_mean=300, test_len_mean=380, len_stddev=30,
                            class_len_spread=400, bias_strength=0.6,
                            noise_stddev=0.02, num_len_buckets=24, seed=seed)
            ds = synth_dataset(cfg)
            sim, _ = synth_similarity(ds, cfg, ds)
            train_means = {
                ac: np.mean([frame_length(c) for c in ds.clips_of(ac, "train")])
                for ac in ds.classes()
            }
            xs, ys = [], []
            for i, rid in enumerate(sim.rows):
                xs.append(train_means[class_of(ds.by_id[rid])])
                ys.append(topk_avg_length(sim, ds, i, 20))
            corrs.append(np.corrcoef(xs, ys)[0, 1])
        assert np.mean(corrs) > 0

    def test_filter_improves_gt_rank_single_seed(self):
        cfg = MECHANISM_CONFIG
        ds = synth_dataset(cfg)
        sim0, _ = synth_similarity(ds, cfg, ds)
        filtered, _ = filter_margin(ds, FilterConfig(alpha=20, min_class_size=11))
        sim1, _ = synth_similarity(ds, cfg, filtered)
        rank0 = np.mean([gt_rank(sim0, i, sim0.rows[i]) for i in range(len(sim0.rows))])
        rank1 = np.mean([gt_rank(sim1, i, sim1.rows[i]) for i in range(len(sim1.rows))])
        assert rank1 < rank0


class TestSweep:
    def test_row_layout_and_determinism(self):
        cfg = SimConfig(num_classes=4, train_per_class=8, test_per_class=3,
                        class_len_spread=100, seed=0)
        rows = bias_sweep(cfg, alphas=[10.0, 30.0], seeds=[0, 1], min_class_size=2, topk=5)
        assert len(rows) == 2 * 3
        assert [r.alpha for r in rows[:3]] == [None, 10.0, 30.0]
        again = bias_sweep(cfg, alphas=[10.0, 30.0], seeds=[0, 1], min_class_size=2, topk=5)
        assert rows == again

    def test_lambda_zero_flat(self):
        cfg = SimConfig(num_classes=6, train_per_class=10, test_per_class=4,
                        bias_strength=0.0, class_len_spread=200, seed=0)
        rows = bias_sweep(cfg, alphas=[15.0], seeds=range(6), min_class_size=3)
        base = {r.seed: r for r in rows if r.alpha is None}
        filt = {r.seed: r for r in rows if r.alpha is not None}
        for seed, b in base.items():
            assert filt[seed].mean_gt_rank == b.mean_gt_rank
            assert filt[seed].recall_at_10 == b.recall_at_10

    def test_empty_args_rejected(self):
        with pytest.raises(ValueError):
            bias_sweep(SimConfig(), [], [1])
        with pytest.raises(ValueError):
            bias_sweep(SimConfig(), [1.0], [])

    def test_topk_below_one_rejected_before_any_condition(self):
        cfg = SimConfig(num_classes=3, train_per_class=6, test_per_class=2, seed=0)
        calls = []
        with pytest.raises(ValueError, match="topk"):
            bias_sweep(cfg, alphas=[5.0], seeds=[0], min_class_size=2, topk=0,
                       on_condition=lambda *args: calls.append(args))
        assert calls == []
        with pytest.raises(ValueError, match="topk"):
            single_class_ablation(cfg, class_for_index(cfg, 0), 0.5, seeds=[0], topk=-1)

    @pytest.mark.parametrize("alphas, min_class_size", [([5.0, -5.0], 2), ([5.0], 0)])
    def test_filter_arguments_rejected_before_any_condition(self, alphas, min_class_size):
        cfg = SimConfig(num_classes=3, train_per_class=6, test_per_class=2, seed=0)
        calls = []
        with pytest.raises(ValueError, match="alpha|min_class_size"):
            bias_sweep(cfg, alphas=alphas, seeds=[0], min_class_size=min_class_size,
                       on_condition=lambda *args: calls.append(args))
        assert calls == []

    @pytest.mark.parametrize("seeds", [[0, -1], [0, 1.5]])
    def test_bad_seed_rejected_before_any_condition(self, seeds):
        cfg = SimConfig(num_classes=3, train_per_class=6, test_per_class=2, seed=0)
        calls = []
        with pytest.raises(ValueError, match="^seed must be"):
            bias_sweep(cfg, alphas=[5.0], seeds=seeds, min_class_size=2,
                       on_condition=lambda *args: calls.append(args))
        assert calls == []

    def test_no_condition_matrix_outlives_its_scoring(self, monkeypatch):
        cfg = SimConfig(num_classes=3, train_per_class=6, test_per_class=2, seed=0)
        events = []

        @contextmanager
        def record(seed, alpha, ds, ref):
            events.append(("enter", alpha))
            yield None
            events.append(("exit", alpha))

        def no_matrix(*args, **kwargs):
            raise AssertionError("the sweep built a whole matrix")

        monkeypatch.setattr("framebias.simulate.SimilarityMatrix", no_matrix)
        bias_sweep(cfg, alphas=[5.0, 10.0], seeds=[0, 1], min_class_size=2, on_condition=record)
        # no matrix is ever built, and each condition is scored inside its own hook
        assert events == [(event, alpha) for alpha in (None, 5.0, 10.0) for event in ("enter", "exit")] * 2

    def test_callback_sees_every_condition(self):
        cfg = SimConfig(num_classes=3, train_per_class=6, test_per_class=2, seed=0)
        calls = []
        bias_sweep(cfg, alphas=[5.0], seeds=[0, 1], min_class_size=2,
                   on_condition=lambda seed, alpha, ds, ref: calls.append((seed, alpha)) or nullcontext())
        assert calls == [(0, None), (0, 5.0), (1, None), (1, 5.0)]

    @pytest.mark.parametrize("block_scores", [256, metrics._BLOCK_SCORES])  # ten blocks or one of a 48-wide matrix
    def test_each_written_matrix_is_the_collected_one(self, monkeypatch, block_scores):
        monkeypatch.setattr(metrics, "_BLOCK_SCORES", block_scores)
        cfg = SimConfig(num_classes=12, train_per_class=12, test_per_class=4, class_len_spread=300.0)
        written = {}

        @contextmanager
        def keep(seed, alpha, ds, ref):
            buf = io.BytesIO()
            yield buf
            written[seed, alpha] = (buf.getvalue(), ds, ref)

        rows = bias_sweep(cfg, [0.0, 20.0], [0, 1], min_class_size=4, topk=5, on_condition=keep)
        assert rows == bias_sweep(cfg, [0.0, 20.0], [0, 1], min_class_size=4, topk=5)
        assert list(written) == [(row.seed, row.alpha) for row in rows]
        for (seed, _), (blob, ds, ref) in written.items():
            sim, _ = synth_similarity(ds, replace(cfg, seed=seed), ref)
            assert blob == to_binary(sim)

    def test_a_failed_condition_leaves_its_hook_by_the_error(self):
        cfg = SimConfig(num_classes=3, train_per_class=6, test_per_class=2, seed=0)
        outcomes = []

        class FullDisk(io.BytesIO):
            def write(self, data):
                raise OSError("disk full")

        @contextmanager
        def record(seed, alpha, ds, ref):
            try:
                yield FullDisk()
            except OSError as error:
                outcomes.append((alpha, str(error)))
                raise
            outcomes.append((alpha, None))

        with pytest.raises(OSError, match="disk full"):
            bias_sweep(cfg, alphas=[5.0], seeds=[0], min_class_size=2, on_condition=record)
        assert outcomes == [(None, "disk full")]


class TestAblation:
    def test_modes_and_rows(self):
        cfg = SimConfig(num_classes=4, train_per_class=10, test_per_class=4,
                        class_len_spread=150, seed=0)
        ac = class_for_index(cfg, 2)
        rows = single_class_ablation(cfg, ac, 0.5, seeds=[0, 1])
        assert [r.mode for r in rows] == ["baseline", "remove_long", "remove_short"] * 2

    def test_unknown_class(self):
        cfg = SimConfig(num_classes=2, train_per_class=4, test_per_class=2, seed=0)
        with pytest.raises(DegenerateInputError):
            single_class_ablation(cfg, ActionClass(99, 99), 0.5, seeds=[0])
