"""Alignment baselines: DTW and its smoothed variant."""

import math
import tracemalloc

import numpy as np
import pytest

from trackscore.baselines import _wavefront_bytes, cost_matrix, dtw, dtw_family, soft_dtw

from oracles import soft_dtw_loop


def test_cost_matrix_squared_euclidean():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([[0.0, 1.0], [3.0, 4.0]])
    c = cost_matrix(x, y)
    assert c.shape == (2, 2)
    np.testing.assert_allclose(c, [[1.0, 25.0], [2.0, 20.0]])
    with pytest.raises(ValueError):
        cost_matrix(x, np.zeros((2, 3)))


def test_dtw_zero_on_identical():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((9, 2))
    assert dtw(x, x) == 0.0


def test_dtw_ignores_frame_duplication_of_same_track():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 2))
    dup = np.repeat(x, 2, axis=0)  # each frame twice, same trace
    assert dtw(dup, x) == 0.0
    assert dtw(x, dup) == 0.0


def test_dtw_single_frames():
    x = np.array([[0.0, 0.0]])
    y = np.array([[3.0, 0.0]])
    assert dtw(x, y) == pytest.approx(9.0)


def test_dtw_known_small_case():
    # alignment can skip the outlier by stretching the cheap frames
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([[0.0], [2.0]])
    # path (0,0)->(1,0)|(1,1)->(2,1): best is 0 + 1 + 0 = 1
    assert dtw(x, y) == pytest.approx(1.0)


def test_soft_dtw_single_cell_matches_cost():
    x = np.array([[0.0, 0.0]])
    y = np.array([[3.0, 0.0]])
    for gamma in (1.0, 0.1, 0.01):
        assert soft_dtw(x, y, gamma) == pytest.approx(9.0)


def test_soft_dtw_below_dtw_and_converges():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, 2))
    y = rng.standard_normal((8, 2))
    hard = dtw(x, y)
    prev = -math.inf
    for gamma in (1.0, 0.3, 0.1, 0.01, 0.001):
        soft = soft_dtw(x, y, gamma)
        assert soft <= hard + 1e-12
        assert soft >= prev - 1e-12  # tightens monotonically as gamma drops
        prev = soft
    assert soft_dtw(x, y, 1e-4) == pytest.approx(hard, abs=1e-2)


def test_soft_dtw_self_value_not_positive():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 2))
    assert soft_dtw(x, x, 1.0) <= 0.0


def test_soft_dtw_rejects_bad_gamma():
    x = np.zeros((2, 1))
    for gamma in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            soft_dtw(x, x, gamma)


def test_non_finite_points_rejected():
    y = np.zeros((3, 2))
    for bad in (math.nan, math.inf, -math.inf):
        x = np.zeros((4, 2))
        x[2, 1] = bad
        for call in (cost_matrix, dtw, lambda a, b: soft_dtw(a, b, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                call(x, y)
            with pytest.raises(ValueError, match="finite"):
                call(y, x)


def test_dtw_family_hard_column_equals_dtw_bit_for_bit():
    # mixed lengths, length one included, at widths 1 to 3, plus a pair
    # whose costs overflow
    rng = np.random.default_rng(7)
    xs, ys = [], []
    for n, m in ((1, 1), (1, 7), (6, 1), (5, 9), (9, 5), (8, 8), (40, 33)):
        for d in (1, 2, 3):
            for _ in range(2):
                xs.append(rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4))
                ys.append(rng.standard_normal((m, d)))
    xs.append(np.array([[1e200], [0.0]]))
    ys.append(np.array([[-1e200], [1e200]]))
    order = rng.permutation(len(xs))
    xs, ys = [xs[k] for k in order], [ys[k] for k in order]
    got = dtw_family(xs, ys, [])[:, 0]
    assert np.array_equal(got, [dtw(x, y) for x, y in zip(xs, ys)])
    assert got[np.argmax(order)] == math.inf


def test_soft_dtw_overflowing_costs_give_inf():
    x = np.array([[1e200], [0.0]])
    y = np.array([[-1e200], [1e200]])
    with np.errstate(over="ignore"):
        assert soft_dtw_loop(x, y, 1.0) == math.inf
        assert dtw(x, y) == math.inf
    assert soft_dtw(x, y, 1.0) == math.inf


def test_dtw_family_one_gamma_keeps_diagonals_not_tables():
    # 81 pairs of 101 x 101 points in the plane at one gamma; a
    # materialised (pairs, n, m) cost tensor alone would be about 25
    # times the stacked inputs
    rng = np.random.default_rng(6)
    xs = [rng.standard_normal((101, 2)) for _ in range(81)]
    ys = [rng.standard_normal((101, 2)) for _ in range(81)]
    inputs = sum(a.nbytes + b.nbytes for a, b in zip(xs, ys))
    tracemalloc.start()
    try:
        dtw_family(xs, ys, [0.1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * inputs, peak / inputs


FAMILY_GAMMAS = (1e-3, 1e-2, 0.1, 1.0, 10.0)


def _mixed_pairs(seed: int):
    """Pairs of every shape class and widths 1 and 3, interleaved, and
    last a pair whose costs overflow."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for n, m in ((1, 1), (1, 7), (6, 1), (5, 9), (9, 5), (8, 8)):
        for d in (1, 3):
            for _ in range(2):
                xs.append(rng.standard_normal((n, d)) * 10.0 ** rng.integers(-2, 3))
                ys.append(rng.standard_normal((m, d)))
    order = rng.permutation(len(xs))
    xs, ys = [xs[k] for k in order], [ys[k] for k in order]
    return xs + [np.array([[1e200], [0.0]])], ys + [np.array([[-1e200], [1e200]])]


def test_dtw_family_matches_independent_routes():
    # soft columns against the textbook recursion, the hard column
    # against the scalar loop
    xs, ys = _mixed_pairs(8)
    got = dtw_family(xs, ys, FAMILY_GAMMAS)
    assert got.shape == (len(xs), len(FAMILY_GAMMAS) + 1)
    assert np.array_equal(got[:, -1], [dtw(x, y) for x, y in zip(xs, ys)])
    for x, y, row in zip(xs[:-1], ys[:-1], got):
        for g, v in zip(FAMILY_GAMMAS, row):
            ref = soft_dtw_loop(x, y, g)
            assert abs(v - ref) <= 1e-12 * (1.0 + abs(ref)), (x.shape, y.shape, g)
    assert (got[-1] == math.inf).all()


def test_dtw_family_row_alone_equals_row_in_batch():
    xs, ys = _mixed_pairs(9)
    got = dtw_family(xs, ys, FAMILY_GAMMAS)
    for k, (x, y) in enumerate(zip(xs, ys)):
        assert np.array_equal(dtw_family([x], [y], FAMILY_GAMMAS)[0], got[k])
        # a gamma's column does not depend on the other gammas in the call
        assert got[k, :-1].tolist() == [soft_dtw(x, y, g) for g in FAMILY_GAMMAS], k
    assert np.array_equal(got[:, -1], [dtw(x, y) for x, y in zip(xs, ys)])


def test_dtw_family_validation():
    x = np.zeros((2, 1))
    for gamma in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            dtw_family([x], [x], [1.0, gamma])
    with pytest.raises(ValueError, match="flat sequence"):
        dtw_family([x], [x], [[1.0]])
    with pytest.raises(ValueError, match="one y per x"):
        dtw_family([x, x], [x], [1.0])
    # no gammas leaves the hard column alone
    assert dtw_family([x], [x + 1.0], []).tolist() == [[2.0]]


def test_dtw_family_keeps_diagonals_not_tables():
    # the warp sweep's call: 27 pairs of 101 x 101 points in the plane
    # at 3 gammas.  A materialised (pairs, n, m) cost tensor alone would
    # be about 25 times the stacked inputs, and the four whole DP tables
    # of each pair about 100 times.  The pass holds the stacked points,
    # two diagonals of each of the four tables (twice the inputs here),
    # and one diagonal's gamma and soft-min temporaries for three tables,
    # which is the warp sweep guard's estimate.
    rng = np.random.default_rng(10)
    xs = [rng.standard_normal((101, 2)) for _ in range(27)]
    ys = [rng.standard_normal((101, 2)) for _ in range(27)]
    inputs = sum(a.nbytes + b.nbytes for a, b in zip(xs, ys))
    tracemalloc.start()
    try:
        dtw_family(xs, ys, (1.0, 0.1, 0.01))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * inputs, peak / inputs
    assert peak <= _wavefront_bytes(27, 101, 101, 2, 4), peak


def test_empty_inputs_rejected():
    x = np.zeros((0, 2))
    y = np.zeros((3, 2))
    with pytest.raises(ValueError):
        dtw(x, y)
    with pytest.raises(ValueError):
        soft_dtw(y, x, 1.0)
    # points with no coordinates
    for call in (dtw, lambda a, b: soft_dtw(a, b, 1.0)):
        with pytest.raises(ValueError):
            call(np.zeros((2, 0)), np.zeros((2, 0)))
