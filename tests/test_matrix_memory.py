"""Memory use of matrix I/O and construction: one copy of every matrix.

numpy reports its array allocations to ``tracemalloc``, so a traced peak
counts every temporary copy of the values.
"""

import tracemalloc

import numpy as np
import pytest

from framebias.errors import ShapeMismatchError
from framebias.filtering import sum_similarity_matrices
from framebias.matrices import RelevancyMatrix, SimilarityMatrix, load_matrix, save_matrix, to_binary
from framebias.metrics import _BLOCK_SCORES, _block_bounds
from framebias.simulate import SimConfig, synth_dataset, synth_similarity

from test_rank_kernel import block_order

N = 1500


def square(n, seed=0):
    ids = tuple(f"c{i:05d}" for i in range(n))
    return SimilarityMatrix(rows=ids, cols=ids, values=np.random.default_rng(seed).normal(size=(n, n)))


def traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs, and its result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def simm_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mem") / "m.simm"
    save_matrix(square(N), path)
    return path


def test_load_holds_one_copy(simm_path):
    peak, loaded = traced_peak(load_matrix, simm_path)
    assert loaded.shape == (N, N)
    assert peak <= 1.1 * loaded.values.nbytes


def test_loaded_values_are_owned_and_read_only(simm_path):
    values = load_matrix(simm_path).values
    assert values.flags.owndata and values.flags.c_contiguous
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0] = 1.0


def test_save_streams_without_copying(simm_path, tmp_path):
    matrix = load_matrix(simm_path)
    peak, _ = traced_peak(save_matrix, matrix, tmp_path / "again.simm")
    assert peak <= 0.1 * matrix.values.nbytes
    assert (tmp_path / "again.simm").read_bytes() == to_binary(matrix) == simm_path.read_bytes()


def test_matrix_from_a_view_is_a_copy():
    base = np.arange(12.0).reshape(3, 4)
    matrix = SimilarityMatrix(rows=("a", "b"), cols=("w", "x", "y", "z"), values=base[:2])
    base[0, 0] = 99.0
    assert matrix.values[0, 0] == 0.0
    assert matrix.values.flags.owndata and not matrix.values.flags.writeable
    assert base.flags.writeable


def test_matrix_from_an_owned_array_freezes_it():
    values = np.zeros((2, 2))
    matrix = SimilarityMatrix(rows=("a", "b"), cols=("x", "y"), values=values)
    assert matrix.values is values
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0] = 1.0


@pytest.mark.parametrize(
    "values",
    [np.zeros((2, 2), dtype=np.float32), np.zeros((2, 2), order="F"), [[0.0, 1.0], [1.0, 0.0]]],
    ids=["float32", "fortran", "list"],
)
def test_other_inputs_are_copied_to_owned_float64(values):
    matrix = SimilarityMatrix(rows=("a", "b"), cols=("x", "y"), values=values)
    assert matrix.values is not values
    assert matrix.values.dtype == np.float64 and matrix.values.flags.c_contiguous
    assert matrix.values.flags.owndata and not matrix.values.flags.writeable


def test_rejected_array_stays_writeable():
    values = np.array([[0.5, np.inf]])
    with pytest.raises(ShapeMismatchError, match="finite"):
        SimilarityMatrix(rows=("a",), cols=("x", "y"), values=values)
    with pytest.raises(ShapeMismatchError, match=r"\[0, 1\]"):
        RelevancyMatrix(rows=("a",), cols=("x", "y"), values=np.array([[0.5, 1.5]]))
    with pytest.raises(ShapeMismatchError, match="finite"):
        RelevancyMatrix(rows=("a",), cols=("x", "y"), values=np.array([[np.nan, 0.5]]))
    assert values.flags.writeable


def test_sum_holds_the_total_and_one_matrix():
    n, k = 800, 4

    def matrices():
        for seed in range(k):
            yield square(n, seed)

    peak, total = traced_peak(sum_similarity_matrices, matrices(), True)
    expected = sum(square(n, seed).values for seed in range(k)) / k
    assert np.array_equal(total.values, expected)
    # the running total and the matrix being built; never a second loaded one
    assert peak <= 2.5 * 8 * n * n


def test_simulator_builds_its_matrix_in_place():
    config = SimConfig(num_classes=200, train_per_class=2, test_per_class=10, class_len_spread=600.0, seed=0)
    dataset = synth_dataset(config)
    peak, (sim, _) = traced_peak(synth_similarity, dataset, config, dataset)
    assert sim.values.shape == (2000, 2000)
    # the matrix, the transposed noise (0.11x here) and one block's scratch
    assert peak <= 1.2 * sim.values.nbytes


def test_blocks_hold_a_bounded_number_of_scores():
    values = np.random.default_rng(1).normal(size=(40, 5000)).round(1)
    blocks = [(start, stop, values[start:stop]) for start, stop in _block_bounds(values)]
    assert len(blocks) > 1
    assert all(scores.size <= _BLOCK_SCORES for _, _, scores in blocks)
    assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
    order = np.concatenate([block_order(scores) for *_, scores in blocks])
    assert np.array_equal(order, np.argsort(-values, axis=1, kind="stable"))
    # a row wider than the budget is ranked alone
    wide = np.zeros((3, _BLOCK_SCORES + 1))
    assert _block_bounds(wide) == [(0, 1), (1, 2), (2, 3)]
