import math
from itertools import combinations

import numpy as np
import pytest

import steenrips.cohomology as cohomology
import steenrips.operations as operations
from steenrips.cohomology import Bar, Barcode, persistent_barcode
from steenrips.errors import ValidationError
from steenrips.metric import circle_grid, projective_sample, vr_filtration
from steenrips.operations import (
    Operation,
    homological_radius,
    image_barcode,
    kernel_barcode,
    theta_radius,
)
from steenrips.simplicial import build, rp2_complex, sublevel
from steenrips.synthetic import random_filtered_complex

from oracles import (
    brute_barcode,
    kernel_rank,
    mobius_barcode,
    oracle_cohomology_basis,
    theta_rank,
)

INF = math.inf


def barcode_rank(bc: Barcode, values, i: int, j: int) -> int:
    """r(i, j) of a barcode: bars alive at both values[i] and values[j]."""
    return sum(b.multiplicity for b in bc
               if b.birth <= values[i] and b.death > values[j])


def assert_matches_literal_ops(K, op):
    """Image and kernel barcodes give the literal ranks at every i <= j."""
    img, ker = image_barcode(K, op), kernel_barcode(K, op)
    values = K.distinct_values
    for i in range(K.num_values):
        for j in range(i, K.num_values):
            assert barcode_rank(img, values, i, j) == theta_rank(K, op, i, j)
            assert barcode_rank(ker, values, i, j) == kernel_rank(K, op, i, j)


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
                    dim_h = len(oracle_cohomology_basis(sublevel(K, i), ell))
                    assert (theta_rank(K, op, i, i)
                            + kernel_rank(K, op, i, i)) == dim_h


def test_oracles_never_read_the_reduction(monkeypatch):
    """The oracles stay independent of the cohomology reduction that the
    barcodes and bases they check are read from: with it broken, they
    still run."""
    def refuse(self, K, p):
        raise AssertionError("the cohomology reduction was read")

    monkeypatch.setattr(cohomology.CohomologyReduction, "degree", refuse)
    K = random_filtered_complex(np.random.default_rng(73), target_size=20)
    with pytest.raises(AssertionError):
        persistent_barcode(K, K.dimension)
    assert len(brute_barcode(K, K.dimension)) > 0
    last = K.num_values - 1
    for ell in range(K.dimension + 1):
        oracle_cohomology_basis(K, ell)
        for op in (Operation.identity(ell), Operation.sq(1, ell)):
            for i in range(K.num_values):
                theta_rank(K, op, i, last)
                kernel_rank(K, op, i, last)


def test_fast_tables_match_literal_ops():
    rng = np.random.default_rng(69)
    for _ in range(12):
        K = random_filtered_complex(rng, target_size=20)
        for ell in range(min(2, K.dimension) + 1):
            for op in (Operation.identity(ell), Operation.sq(1, ell),
                       Operation.zero(ell)):
                assert_matches_literal_ops(K, op)


@pytest.fixture
def cup_bits_calls(monkeypatch):
    """Records the arguments of every _cup_bits call made by operations."""
    calls = []
    cup_bits = operations._cup_bits

    def counting(*args, **kwargs):
        calls.append(args)
        return cup_bits(*args, **kwargs)

    monkeypatch.setattr(operations, "_cup_bits", counting)
    return calls


def test_one_sq_evaluation_per_cohomology_bar(cup_bits_calls):
    K = vr_filtration(projective_sample(2, 20, seed=1), 3, 2.3)
    image_barcode(K, Operation.sq(1, 1))
    # one evaluation per positive-length H^1 bar, not one per grid index
    assert len(cup_bits_calls) == len(persistent_barcode(K, 1).in_degree(1)) == 6


def test_barcode_image_kernel_share_one_reduction(cup_bits_calls, monkeypatch):
    """Separate barcode, image and kernel calls on one complex find the
    cofacets of each degree once and evaluate Sq1 once per H^1 bar."""
    built = []
    facets = cohomology._facets

    def counting(K, p):
        built.append(p)
        return facets(K, p)

    monkeypatch.setattr(cohomology, "_facets", counting)
    K = vr_filtration(projective_sample(2, 20, seed=1), 3, 2.3)
    op = Operation.sq(1, 1)
    bc = persistent_barcode(K, 2)
    img, ker = image_barcode(K, op), kernel_barcode(K, op)
    assert sorted(built) == [0, 1, 2]
    assert len(cup_bits_calls) == len(bc.in_degree(1)) == 6
    assert img == image_barcode(K, op) and ker == kernel_barcode(K, op)
    assert len(cup_bits_calls) == 6 and sorted(built) == [0, 1, 2]


def test_dense_columns_only_where_an_insertion_reaches(monkeypatch):
    """The barcode builds no dense column; the image barcode builds only
    the delta_1 and delta_0 pivot columns that its insertions reach."""
    built = []
    pack = cohomology.pack

    def counting(rows):
        built.append(rows)
        return pack(rows)

    monkeypatch.setattr(cohomology, "pack", counting)
    K = vr_filtration(projective_sample(2, 20, seed=1), 3, 2.3)
    persistent_barcode(K, 2)
    assert built == []
    image_barcode(K, Operation.sq(1, 1))
    assert 0 < len(built) < len(cohomology.reduction(K).pivot_rows[1])


def test_tied_values_match_literal_ops():
    complexes = [rp2_complex()]
    rng = np.random.default_rng(81)
    complexes += [random_filtered_complex(rng, target_size=20,
                                          random_values=False)
                  for _ in range(8)]
    for K in complexes:
        assert K.num_values == 1
        for ell in range(min(2, K.dimension) + 1):
            for op in (Operation.identity(ell), Operation.sq(1, ell),
                       Operation.zero(ell), Operation.sq(0, ell)):
                assert_matches_literal_ops(K, op)


KLEIN_N = 4


def klein_vertex(i: int, j: int) -> int:
    """Vertex (i, j) of the KLEIN_N x KLEIN_N grid Klein bottle: the seam
    i = KLEIN_N flips j, the seam j = KLEIN_N does not."""
    n = KLEIN_N
    j = -j if (i // n) % 2 else j
    return (j % n) * n + i % n


def klein_loop(point) -> list[int]:
    """Closed grid loop through point(0), ..., point(KLEIN_N - 1)."""
    return [point(t) for t in range(KLEIN_N)]


def klein_bottle_filtration(surface_value, loops=(), cones=()):
    """The grid Klein bottle at ``surface_value``, except the vertices and
    edges of each (value, loop) in ``loops``, which enter by that value;
    plus a new cone on each (value, loop) in ``cones``."""
    n = KLEIN_N
    values = {}
    for i in range(n):
        for j in range(n):
            corner = klein_vertex(i, j), klein_vertex(i + 1, j + 1)
            for tri in ((*corner, klein_vertex(i + 1, j)),
                        (*corner, klein_vertex(i, j + 1))):
                for k in (1, 2, 3):
                    for face in combinations(sorted(tri), k):
                        values[face] = surface_value
    for value, loop in loops:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            for s in ((a,), (min(a, b), max(a, b))):
                values[s] = min(values[s], value)
    for apex, (value, loop) in enumerate(cones, start=n * n):
        for a, b in zip(loop, loop[1:] + loop[:1]):
            for s in ((apex,), (a, apex), (*sorted((a, b)), apex)):
                values[s] = value
    return build(values.items())


DIAGONAL = klein_loop(lambda t: klein_vertex(t, t))
TWISTED = klein_loop(lambda t: klein_vertex(t, 0))
STRAIGHT = klein_loop(lambda t: klein_vertex(0, t))


def test_image_needs_bars_by_decreasing_death():
    # The crosscap classes x, y of the Klein bottle have x^2 = y^2 != 0.
    # Coning the diagonal loop at 5 and the twisted loop at 10 kills H^1
    # in two steps while a nonzero square lives on to 10: one image bar,
    # which taking the H^1 bars in reduction order splits at 5.
    K = klein_bottle_filtration(0.0, cones=[(5.0, DIAGONAL), (10.0, TWISTED)])
    op = Operation.sq(1, 1)
    assert image_barcode(K, op) == Barcode([Bar(2, 0.0, 10.0)])
    assert kernel_barcode(K, op) == Barcode([Bar(1, 0.0, 5.0)])
    assert_matches_literal_ops(K, op)


def test_kernel_needs_candidates_by_decreasing_death():
    # The diagonal class is born at 0 and lives to 8, the straight one is
    # born at 1; both squares appear with the surface at 3.  Their kernel
    # candidates end at 8 and at 3, the reverse of their H^1 deaths, and
    # taking them in H^1 order pairs the birth at 0 with the end at 3.
    K = klein_bottle_filtration(3.0, loops=[(0.0, DIAGONAL), (1.0, STRAIGHT)],
                                cones=[(8.0, TWISTED)])
    op = Operation.sq(1, 1)
    assert kernel_barcode(K, op) == Barcode([Bar(1, 0.0, 8.0), Bar(1, 1.0, 3.0)])
    assert_matches_literal_ops(K, op)


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
        bc = image_barcode(K, op)
        kc = kernel_barcode(K, op)
        for i, t in enumerate(K.distinct_values):
            assert bc.alive(op.target_degree, t) == theta_rank(K, op, i, i)
            assert kc.alive(op.source_degree, t) == kernel_rank(K, op, i, i)


def test_barcode_from_dense_literal_table_matches_fast_path():
    rng = np.random.default_rng(79)
    for _ in range(8):
        K = random_filtered_complex(rng, target_size=18)
        for op in (Operation.identity(1), Operation.sq(1, 1)):
            dense = mobius_barcode(lambda i, j: theta_rank(K, op, i, j),
                                   K.distinct_values, op.target_degree)
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