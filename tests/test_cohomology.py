import math
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import steenrips
from steenrips import distances
from steenrips.cohomology import (
    Bar,
    Barcode,
    cohomology_basis,
    is_coboundary,
    persistent_barcode,
    reduction,
)
from steenrips.errors import ValidationError
from steenrips.metric import circle_grid, projective_sample, vr_filtration
from steenrips.simplicial import (
    Cochain,
    FilteredComplex,
    build,
    coboundary,
    coboundary_columns,
    rp2_complex,
    sublevel,
)
from steenrips.synthetic import random_filtered_complex

from oracles import (
    brute_barcode,
    brute_betti,
    dense_reduction,
    oracle_cohomology_basis,
    quotient_rank,
)

INF = math.inf


def test_bar_validation():
    with pytest.raises(ValidationError):
        Bar(0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        Bar(0, 0.0, 1.0, 0)
    bar = Bar(0, 0, 3)
    assert type(bar.birth) is float and type(bar.death) is float


def test_barcode_multiset_merge_and_sort():
    b = Barcode([Bar(1, 0.0, 2.0), Bar(0, 0.0, INF), Bar(1, 0.0, 2.0)])
    assert b.bars[0].degree == 0
    assert b.bars[1].multiplicity == 2
    assert len(b) == 3


def test_barcode_json_roundtrip():
    b = Barcode([Bar(1, 0.5, 2.0, 3), Bar(0, 0.0, INF)])
    d = b.to_json_dict()
    assert d["field"] == "F2"
    assert d["bars"][0]["death"] is None
    assert Barcode.from_json_dict(d) == b


def test_single_point_barcode():
    K = build([([0], 0.0)])
    assert persistent_barcode(K, 1) == Barcode([Bar(0, 0.0, INF)])


def test_four_point_circle_barcode():
    X = circle_grid(4, 1.0)
    K = vr_filtration(X, 3, 4.0)
    bc = persistent_barcode(K, 1)
    half_pi, pi = math.pi / 2, math.pi
    deg1 = bc.in_degree(1).expanded()
    assert len(deg1) == 1
    assert deg1[0][0] == pytest.approx(half_pi)
    assert deg1[0][1] == pytest.approx(pi)
    deg0 = bc.in_degree(0).expanded()
    assert deg0.count((0.0, INF)) == 1
    finite0 = [p for p in deg0 if p[1] != INF]
    assert len(finite0) == 3
    assert all(d == pytest.approx(half_pi) for _, d in finite0)


def test_reduced_flag_drops_one_component_bar():
    K = build([([0], 0.0), ([1], 0.0)])
    assert len(persistent_barcode(K, 0)) == 2
    assert len(persistent_barcode(K, 0).reduced()) == 1


def test_barcode_against_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(30):
        K = random_filtered_complex(rng, target_size=22)
        assert persistent_barcode(K, K.dimension) == brute_barcode(K, K.dimension)


def test_vr_barcode_against_brute_force():
    from steenrips.synthetic import random_metric_space

    rng = np.random.default_rng(18)
    for _ in range(10):
        X = random_metric_space(rng, int(rng.integers(4, 7)))
        K = vr_filtration(X, 2, X.diameter() + 1e-9)
        assert persistent_barcode(K, 2) == brute_barcode(K, 2)


def test_alive_counts_equal_betti_of_sublevels():
    rng = np.random.default_rng(19)
    for _ in range(20):
        K = random_filtered_complex(rng, target_size=20)
        bc = persistent_barcode(K, K.dimension)
        for i in range(K.num_values):
            Ki = sublevel(K, i)
            t = K.distinct_values[i]
            for p in range(K.dimension + 1):
                assert bc.alive(p, t) == len(oracle_cohomology_basis(Ki, p))
                assert bc.alive(p, t) == brute_betti(Ki, p)


def test_disjoint_union_is_multiset_union():
    rng = np.random.default_rng(23)
    for _ in range(10):
        A = random_filtered_complex(rng, target_size=12, random_values=False)
        B = random_filtered_complex(rng, target_size=12, random_values=False)
        shift = max(v for _, v in zip(A.simplices, A.values)) if len(A) else 0
        offset = 1 + max(v for s in A.simplices for v in s)
        union = build(
            [(list(s), v) for s, v in zip(A.simplices, A.values)]
            + [([v + offset for v in s], val)
               for s, val in zip(B.simplices, B.values)]
        )
        got = persistent_barcode(union, 3)
        want = persistent_barcode(A, 3).union(persistent_barcode(B, 3))
        assert got == want


def test_cohomology_basis_triangle():
    hollow = build([([v], 0.0) for v in range(3)]
                   + [([a, b], 0.0) for a, b in ((0, 1), (0, 2), (1, 2))])
    basis = cohomology_basis(hollow, 1)
    assert len(basis) == 1
    assert coboundary(basis.cocycles[0]).is_zero
    full = build([([v], 0.0) for v in range(3)]
                 + [([a, b], 0.0) for a, b in ((0, 1), (0, 2), (1, 2))]
                 + [([0, 1, 2], 0.0)])
    assert len(cohomology_basis(full, 1)) == 0


def test_cohomology_basis_cocycles_and_independence():
    rng = np.random.default_rng(27)
    # the 2-sphere, its triangles entering one by one, and RP^2 carry
    # top-degree classes, whose representatives are unit cochains
    sphere = build([((v,), 0.0) for v in range(4)]
                   + [(e, 0.0) for e in combinations(range(4), 2)]
                   + [(t, 1.0 + i) for i, t in enumerate(combinations(range(4), 3))])
    complexes = [sphere, rp2_complex()]
    complexes += [random_filtered_complex(rng, target_size=20) for _ in range(15)]
    top_classes = 0
    for K in complexes:
        for p in range(K.dimension + 2):  # no classes above the dimension
            basis = cohomology_basis(K, p)
            assert len(basis) == brute_betti(K, p)
            for c in basis.cocycles:
                assert coboundary(c).is_zero
            coboundaries = coboundary_columns(K, p - 1) if p else []
            assert quotient_rank([c.bits for c in basis.cocycles],
                                 coboundaries) == len(basis)
            if p == K.dimension:
                top_classes += len(basis)
    assert top_classes == 2


def test_rp2_betti():
    K = rp2_complex()
    assert [len(cohomology_basis(K, p)) for p in range(4)] == [1, 1, 1, 0]
    with pytest.raises(ValidationError):
        cohomology_basis(K, -1)


def test_rp2_barcode():
    K = rp2_complex()
    bc = persistent_barcode(K, 2)
    assert bc == Barcode([Bar(0, 0.0, INF), Bar(1, 0.0, INF), Bar(2, 0.0, INF)])


def test_top_degree_memory_is_linear():
    """The cocycle of a top-degree bar is the unit cochain of its birth
    simplex and is not stored: reading the top degree keeps a bounded
    number of bytes per top simplex, not an int as long as the degree
    for each bar."""
    K = vr_filtration(projective_sample(2, 25, seed=3), 3, 10.0)
    persistent_barcode(K, K.dimension - 1)
    tracemalloc.start()
    bc = persistent_barcode(K, K.dimension)
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    n_top = K.n_simplices(K.dimension)
    assert n_top == 12650 and len(bc.in_degree(3)) > n_top // 2
    assert retained < 200 * n_top


def _workload_complexes(monkeypatch) -> list[FilteredComplex]:
    """The complexes that the job of each benchmark workload builds on its
    first instance at seed 1, copied without their reductions."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks"))
    import workloads

    built = []

    def spy(X, max_dim, max_scale):
        built.append(vr_filtration(X, max_dim, max_scale))
        return built[-1]

    monkeypatch.setattr(steenrips, "vr_filtration", spy)
    monkeypatch.setattr(distances, "vr_filtration", spy)
    for wl in workloads.WORKLOADS.values():
        wl.job(wl.make_inputs(1)[0])
    assert len(built) == 5  # one rp2-sq1 complex, two per gh and cloud job
    return [FilteredComplex(K.dim_simplices, K.dim_values) for K in built]


@pytest.mark.parametrize("source", ["random", "tied", "rp2", "workloads"])
def test_sparse_reduction_matches_dense_oracle(source, monkeypatch):
    """In every degree the bars, companions (None is the unit cochain),
    pivots and pivot columns equal those of the dense reduction, whether a
    column is built by ``build`` or by a reduction that reaches it."""
    rng = np.random.default_rng(41)
    complexes = {
        "random": lambda: [random_filtered_complex(rng, target_size=24) for _ in range(30)],
        "tied": lambda: [random_filtered_complex(rng, target_size=24, random_values=False)
                         for _ in range(30)],
        "rp2": lambda: [rp2_complex()],
        "workloads": lambda: _workload_complexes(monkeypatch),
    }[source]()
    for K in complexes:
        tables, bars = dense_reduction(K, K.dimension)
        red = reduction(K)
        for p in range(K.dimension + 1):
            table, got = red.degree(K, p)
            assert ([(s, d, 1 << s if z is None else z) for s, d, z in got]
                    == [(s, d, 1 << s if z is None else z) for s, d, z in bars[p]])
            assert red.pivot_rows[p].tolist() == sorted(tables[p])
            assert not table.columns
            # a coboundary of delta_p's pivot columns is one; reducing it
            # builds the columns it reaches into the table
            for tau in list(tables[p])[::3]:
                c = Cochain(K, p + 1, tables[p][tau])
                assert is_coboundary(c)
            assert all(tables[p][tau] == col for tau, col in table.columns.items())
            for tau in range(K.n_simplices(p + 1) + 2):  # and the unit bits above
                assert table.build(tau) == tables[p].get(tau)


def test_facet_lookup_is_exact_for_any_vertex_ids():
    """Vertex ids near 2**40 or beyond int64, and a 12-simplex on 30
    vertices, whose vertex rows as base-30 numbers pass 2**63, give the
    brute-force bars."""
    rng = np.random.default_rng(43)
    complexes = []
    for offset in (2**40, 2**64):
        for _ in range(6):
            K = random_filtered_complex(rng, target_size=20)
            complexes.append(build([([offset + 977 * v for v in s], value)
                                    for s, value in zip(K.simplices, K.values)]))
    top = (0, 2, 3, 5, 8, 11, 13, 17, 19, 22, 23, 27, 29)
    # the boundary of the 12-simplex enters at 0, the simplex at 1
    simplices = [((v,), 0.0) for v in range(30)]
    simplices += [(f, 0.0) for k in range(2, 13) for f in combinations(top, k)]
    complexes.append(build(simplices + [(top, 1.0)]))
    for K in complexes:
        assert persistent_barcode(K, K.dimension) == brute_barcode(K, K.dimension)
    assert persistent_barcode(complexes[-1], 12).in_degree(11) == Barcode([Bar(11, 0.0, 1.0)])
