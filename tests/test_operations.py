import math

import numpy as np
import pytest

from steenrips.cohomology import Bar, Barcode, cohomology_basis, persistent_barcode
from steenrips.errors import InternalInvariantError, ValidationError
from steenrips.metric import circle_grid, vr_filtration
from steenrips.operations import (
    Operation,
    RankFunction,
    homological_radius,
    image_barcode,
    kernel_barcode,
    kernel_rank_function,
    rank_to_barcode,
    theta_radius,
    theta_rank_function,
)
from steenrips.simplicial import build, rp2_complex, sublevel
from steenrips.synthetic import random_filtered_complex

from oracles import kernel_rank, theta_rank

INF = math.inf


def test_operation_properties():
    assert Operation.identity(1).target_degree == 1
    assert Operation.sq(1, 1).target_degree == 2
    assert Operation.sq(2, 1).name == "Sq2"
    assert Operation.zero(3).name == "zero"
    with pytest.raises(ValidationError):
        Operation("cup", 1)


def test_theta_rank_identity_is_restriction_rank():
    rng = np.random.default_rng(61)
    from oracles import brute_rank

    for _ in range(15):
        K = random_filtered_complex(rng, target_size=18)
        N = K.num_values
        for ell in range(K.dimension + 1):
            op = Operation.identity(ell)
            for i in range(N):
                for j in range(i, N):
                    # cohomology restriction rank equals homology corank
                    assert theta_rank(K, op, i, j) == brute_rank(K, ell, i, j)


def test_theta_rank_zero_op():
    rng = np.random.default_rng(63)
    K = random_filtered_complex(rng, target_size=15)
    op = Operation.zero(1)
    for i in range(K.num_values):
        for j in range(i, K.num_values):
            assert theta_rank(K, op, i, j) == 0


def test_theta_rank_index_order():
    K = rp2_complex()
    with pytest.raises(ValidationError):
        theta_rank(K, Operation.identity(0), 1, 0)


def test_rp2_sq1_ranks():
    K = rp2_complex()
    op = Operation.sq(1, 1)
    assert theta_rank(K, op, 0, 0) == 1       # Sq1(sigma) = sigma^2 != 0
    assert kernel_rank(K, op, 0, 0) == 0      # Sq1 injective on H^1(RP^2)


def test_kernel_rank_zero_and_identity():
    rng = np.random.default_rng(65)
    from oracles import brute_rank

    for _ in range(10):
        K = random_filtered_complex(rng, target_size=15)
        for ell in range(K.dimension + 1):
            zero, ident = Operation.zero(ell), Operation.identity(ell)
            for i in range(K.num_values):
                for j in range(i, K.num_values):
                    assert kernel_rank(K, zero, i, j) == brute_rank(K, ell, i, j)
                    assert kernel_rank(K, ident, i, j) == 0


def test_rank_nullity_pointwise():
    rng = np.random.default_rng(67)
    for _ in range(10):
        K = random_filtered_complex(rng, target_size=20)
        for ell in range(K.dimension + 1):
            for op in (Operation.identity(ell), Operation.zero(ell),
                       Operation.sq(1, ell)):
                for i in range(K.num_values):
                    dim_h = len(cohomology_basis(sublevel(K, i), ell))
                    assert (theta_rank(K, op, i, i)
                            + kernel_rank(K, op, i, i)) == dim_h


def test_fast_tables_match_literal_ops():
    rng = np.random.default_rng(69)
    for _ in range(12):
        K = random_filtered_complex(rng, target_size=20)
        for ell in range(min(2, K.dimension) + 1):
            for op in (Operation.identity(ell), Operation.sq(1, ell),
                       Operation.zero(ell)):
                R_img = theta_rank_function(K, op)
                R_ker = kernel_rank_function(K, op)
                for i in range(K.num_values):
                    for j in range(i, K.num_values):
                        assert R_img.rank(i, j) == theta_rank(K, op, i, j)
                        assert R_ker.rank(i, j) == kernel_rank(K, op, i, j)


def test_rank_function_monotonicity():
    rng = np.random.default_rng(71)
    for _ in range(10):
        K = random_filtered_complex(rng, target_size=20)
        op = Operation.sq(1, 1)
        R = theta_rank_function(K, op)
        N = K.num_values
        for i in range(N):
            for j in range(i, N):
                r = R.rank(i, j)
                assert r <= min(R.rank(i, i), R.rank(j, j))
                if j + 1 < N:
                    assert r >= R.rank(i, j + 1)
                if i - 1 >= 0:
                    assert r >= R.rank(i - 1, j)


def test_rank_to_barcode_single_index():
    R = RankFunction.dense([[3]])
    bc = rank_to_barcode(R, [0.5], degree=2)
    assert bc == Barcode([Bar(2, 0.5, INF, 3)])


def test_rank_to_barcode_interval_module():
    # interval module alive on grid indices [1, 2] of a 4-point grid
    table = np.zeros((4, 4), dtype=int)
    table[1, 1] = table[1, 2] = table[2, 2] = 1
    bc = rank_to_barcode(RankFunction.dense(table), [0.0, 1.0, 2.0, 3.0])
    assert bc == Barcode([Bar(0, 1.0, 3.0)])


def test_rank_to_barcode_recovers_interval_sums():
    rng = np.random.default_rng(73)
    values = [0.0, 1.0, 2.0, 3.0, 4.0]
    N = len(values)
    for _ in range(40):
        n_intervals = int(rng.integers(1, 5))
        intervals = []
        for _ in range(n_intervals):
            b = int(rng.integers(0, N))
            d = int(rng.integers(b + 1, N + 1))  # death index, N = infinite
            intervals.append((b, d))
        table = np.zeros((N, N), dtype=int)
        for b, d in intervals:
            for i in range(b, min(d, N)):
                for j in range(i, min(d, N)):
                    table[i, j] += 1
        expected = Barcode(
            Bar(0, values[b], values[d] if d < N else INF)
            for b, d in intervals
        )
        # the stored table r(i, j) = #intervals containing [i, j] reads the
        # same covariantly and contravariantly, so both inversions agree
        for reversed_module in (False, True):
            bc = rank_to_barcode(RankFunction.dense(table), values,
                                 reversed_module=reversed_module)
            assert bc == expected


def test_rank_to_barcode_negative_multiplicity_raises():
    table = np.zeros((2, 2), dtype=int)
    table[0, 0] = 1
    table[0, 1] = 1
    table[1, 1] = 0  # rank of a map exceeding the target dimension: broken
    with pytest.raises(InternalInvariantError):
        rank_to_barcode(RankFunction.dense(table), [0.0, 1.0])


def test_image_barcode_identity_matches_persistent_barcode():
    rng = np.random.default_rng(75)
    for _ in range(25):
        K = random_filtered_complex(rng, target_size=22)
        bc = persistent_barcode(K, K.dimension)
        for ell in range(K.dimension + 1):
            assert image_barcode(K, Operation.identity(ell)) == bc.in_degree(ell)
            assert kernel_barcode(K, Operation.zero(ell)) == bc.in_degree(ell)


def test_image_barcode_alive_consistency():
    rng = np.random.default_rng(77)
    for _ in range(10):
        K = random_filtered_complex(rng, target_size=20)
        op = Operation.sq(1, 1)
        R = theta_rank_function(K, op)
        bc = image_barcode(K, op)
        for i, t in enumerate(K.distinct_values):
            assert bc.alive(op.target_degree, t) == R.rank(i, i)
        Rk = kernel_rank_function(K, op)
        kc = kernel_barcode(K, op)
        for i, t in enumerate(K.distinct_values):
            assert kc.alive(op.source_degree, t) == Rk.rank(i, i)


def test_barcode_from_dense_literal_table_matches_fast_path():
    rng = np.random.default_rng(79)
    for _ in range(8):
        K = random_filtered_complex(rng, target_size=18)
        N = K.num_values
        for op in (Operation.identity(1), Operation.sq(1, 1)):
            table = np.zeros((N, N), dtype=int)
            for i in range(N):
                for j in range(i, N):
                    table[i, j] = theta_rank(K, op, i, j)
            dense = rank_to_barcode(RankFunction.dense(table),
                                    K.distinct_values, reversed_module=True,
                                    degree=op.target_degree)
            assert dense == image_barcode(K, op)


def test_rp2_sq1_image_barcode():
    K = rp2_complex()
    op = Operation.sq(1, 1)
    assert image_barcode(K, op) == Barcode([Bar(2, 0.0, INF)])
    assert kernel_barcode(K, op) == Barcode()


def test_empty_complex_barcodes():
    K = build([])
    assert image_barcode(K, Operation.sq(1, 1)) == Barcode()


def test_radii():
    assert homological_radius(Barcode(), 1) == 0.0
    assert theta_radius(Barcode()) == 0.0
    bc = Barcode([Bar(0, 0.0, INF), Bar(1, 0.0, 2.0), Bar(1, 0.5, 3.0)])
    assert homological_radius(bc, 1) == 2.0
    assert homological_radius(bc, 2) == 0.0
    assert theta_radius(Barcode([Bar(2, 0.0, 1.5)])) == 1.5
    # bars born at the start but never dying
    assert homological_radius(Barcode([Bar(1, 0.0, INF)]), 1) == INF


def test_circle_radius_small_grid():
    # 12-point circle: the degree-1 class dies near 2*pi/3 already
    X = circle_grid(12, 1.0)
    K = vr_filtration(X, 2, 2.5)
    bc = persistent_barcode(K, 1)
    rad = homological_radius(bc, 1)
    assert rad == pytest.approx(2 * math.pi / 3, abs=2 * math.pi / 12)