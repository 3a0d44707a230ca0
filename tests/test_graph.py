import numpy as np
import pytest

from etclab import consensus_cost_rows, laplacian_dense


def brute_force_cost(n, x):
    # independent oracle: dense quadratic form with L = n*I - ones
    L = n * np.eye(n) - np.ones((n, n))
    return float(np.asarray(x) @ L @ np.asarray(x))


def test_consensus_vector_costs_nothing():
    for c in (0.0, 1.7, -4.2):
        assert consensus_cost_rows([c, c, c]) == 0.0


def test_two_agent_unit_gap():
    assert consensus_cost_rows([1.0, 0.0]) == 1.0


def test_single_deviating_agent():
    # brute force with the dense Laplacian gives 2 for [1, 0, 0]
    assert consensus_cost_rows([1.0, 0.0, 0.0]) == 2.0
    assert brute_force_cost(3, [1.0, 0.0, 0.0]) == pytest.approx(2.0)


def test_laplacian_small_cases():
    assert np.array_equal(laplacian_dense(1), [[0.0]])
    assert np.array_equal(laplacian_dense(2), [[1, -1], [-1, 1]])
    assert np.array_equal(
        laplacian_dense(3), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    )


def test_matches_dense_quadratic_form():
    rng = np.random.default_rng(3)
    for n in range(1, 17):
        L = laplacian_dense(n)
        rows = rng.normal(size=(20, n)) * 10
        stacked = consensus_cost_rows(rows)
        assert stacked.shape == (20,)
        for x, cost in zip(rows, stacked):
            dense = x @ L @ x
            assert consensus_cost_rows(x) == pytest.approx(dense, rel=1e-12, abs=1e-9)
            # a single row takes the same reduction as a row of a stack
            assert cost == consensus_cost_rows(x)


def test_squares_buffer_keeps_the_bits_of_a_per_row_reduction():
    # below eight agents the sums run down the agents' strided columns;
    # numpy sums fewer than eight elements in order, so each row's bits
    # equal a reduction along that row, and a caller's buffer for the
    # squares changes none of them
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        rows = rng.normal(size=(4, 9, 2 * n))[..., ::2] * 10
        plain = np.maximum(n * (rows * rows).sum(axis=-1) - rows.sum(axis=-1) ** 2, 0.0)
        squares = np.empty(rows.shape)
        assert np.array_equal(consensus_cost_rows(rows), plain)
        assert np.array_equal(consensus_cost_rows(rows, squares=squares), plain)
        assert np.array_equal(squares, rows * rows)


def test_laplacian_structure():
    for n in (1, 2, 5, 11):
        L = laplacian_dense(n)
        assert np.allclose(L, L.T)
        assert np.allclose(L @ np.ones(n), 0.0)
        assert np.all(np.linalg.eigvalsh(L) > -1e-10)


def test_translation_invariance():
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.normal(size=6)
        shift = rng.normal() * 100
        assert consensus_cost_rows(x + shift) == pytest.approx(
            consensus_cost_rows(x), rel=1e-9, abs=1e-9
        )


def test_quadratic_scaling():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal(size=5)
        a = rng.normal()
        assert consensus_cost_rows(a * x) == pytest.approx(
            a * a * consensus_cost_rows(x), rel=1e-9, abs=1e-12
        )


def test_half_sum_of_pairwise_gaps():
    rng = np.random.default_rng(6)
    for n in (2, 4, 9):
        x = rng.normal(size=n)
        pairwise = sum(
            (x[i] - x[j]) ** 2 for i in range(n) for j in range(n)
        ) / 2.0
        assert consensus_cost_rows(x) == pytest.approx(pairwise, rel=1e-12)
