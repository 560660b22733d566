import gc
import math
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import steenrips
from steenrips import cohomology, distances
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
    coboundary_matrix,
    rp2_complex,
)
from steenrips.synthetic import random_filtered_complex

from oracles import (
    brute_barcode,
    brute_betti,
    dense_reduction,
    oracle_cohomology_basis,
    quotient_rank,
    sublevel,
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


def test_barcode_builds_a_bar_only_where_multiplicities_add(monkeypatch):
    distinct = [Bar(1, 0.5, 2.0, 3), Bar(0, 0.0, INF), Bar(0, 0.0, 1.0)]
    merged = [Bar(0, 0.0, 1.0), Bar(0, 0.0, 1.0, 2)]
    calls = []
    post_init = Bar.__post_init__
    monkeypatch.setattr(Bar, "__post_init__",
                        lambda self: calls.append(self) or post_init(self))
    b = Barcode(distinct)
    assert not calls
    assert b.bars == tuple(sorted(distinct))
    assert all(x is y for x, y in zip(b.bars, sorted(distinct)))
    b = Barcode(distinct + merged)
    assert [(c.degree, c.birth, c.death, c.multiplicity) for c in calls] == [(0, 0.0, 1.0, 4)]
    assert b.bars == (Bar(0, 0.0, 1.0, 4), Bar(0, 0.0, INF), Bar(1, 0.5, 2.0, 3))
    assert len(b) == 8


def test_barcode_json_refuses_what_it_would_convert():
    good = {"degree": 1, "birth": 0.5, "death": 2, "mult": 3}
    assert Barcode.from_json_dict({"bars": [good]}) == Barcode([Bar(1, 0.5, 2.0, 3)])
    for field, value in [("degree", 1.7), ("degree", True), ("degree", "1"),
                         ("mult", 2.9), ("mult", True), ("birth", "0.5"),
                         ("birth", None), ("birth", False), ("death", "inf"),
                         ("death", True)]:
        with pytest.raises(ValidationError, match="malformed barcode JSON: .* a degree and "
                           "a mult must be integers, a birth a number and a death a number or null"):
            Barcode.from_json_dict({"bars": [{**good, field: value}]})
    with pytest.raises(ValidationError, match="bar degree must be nonnegative, got -2"):
        Bar(-2, 0.0, 1.0)
    with pytest.raises(ValidationError, match="bar degree must be nonnegative, got -2"):
        Barcode.from_json_dict({"bars": [{**good, "degree": -2}]})


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
            coboundaries = coboundary_matrix(K, p - 1) if p else []
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
    return [FilteredComplex(K._vertices, K.dim_rows, K.dim_values) for K in built]


# four vertices at 0; of the edges left after degree 0, 23 is apparent
# (owning 023), 12 emergent (owning 123) and 13, whose earliest cofacet
# is 123, reaches 12's column
_EMERGENT_REACHED = [([0], 0), ([1], 0), ([2], 0), ([3], 0), ([0, 3], 1), ([0, 1], 2),
                     ([1, 3], 2), ([0, 2], 6), ([1, 2], 7), ([2, 3], 7),
                     ([0, 2, 3], 7), ([1, 2, 3], 7)]
# of the edges left, 03 is apparent (owning 023), 13 emergent (owning 013,
# the bar [7, 11)) and 12 has no cofacet: no column reaches 13's
_EMERGENT_UNREACHED = [([0], 0), ([1], 0), ([2], 0), ([3], 0), ([2, 3], 2), ([0, 1], 4),
                       ([0, 2], 4), ([1, 3], 7), ([0, 3], 9), ([1, 2], 9),
                       ([0, 2, 3], 9), ([0, 1, 3], 11)]


def _oracle_complexes(source: str, monkeypatch) -> list[FilteredComplex]:
    rng = np.random.default_rng(41)
    return {
        "random": lambda: [random_filtered_complex(rng, target_size=24) for _ in range(30)],
        "tied": lambda: [random_filtered_complex(rng, target_size=24, random_values=False)
                         for _ in range(30)],
        "rp2": lambda: [rp2_complex()],
        "workloads": lambda: _workload_complexes(monkeypatch),
        "reached": lambda: [build(_EMERGENT_REACHED)],
        "unreached": lambda: [build(_EMERGENT_UNREACHED)],
    }[source]()


def _assert_matches_dense(K: FilteredComplex, tables: list, bars: list) -> None:
    """In every degree the bars, companions (None is the unit cochain),
    pivots and pivot columns of K's reduction equal the dense ones."""
    red = reduction(K)
    for p in range(K.dimension + 1):
        column, pivots, got = red.degree(K, p)
        assert ([(s, d, 1 << s if z is None else z) for s, d, z in got]
                == [(s, d, 1 << s if z is None else z) for s, d, z in bars[p]])
        assert pivots.tolist() == sorted(tables[p])
        # a coboundary of delta_p's pivot columns is one
        for tau in list(tables[p])[::3]:
            c = Cochain(K, p + 1, tables[p][tau][0])
            assert is_coboundary(c)
        for tau in range(K.n_simplices(p + 1) + 2):  # and rows past the last
            assert column(tau) == _column(tables[p].get(tau))


@pytest.mark.parametrize("source", ["random", "tied", "rp2", "workloads"])
def test_sparse_reduction_matches_dense_oracle(source, monkeypatch):
    """In every degree the bars, companions (None is the unit cochain),
    pivots and pivot columns equal those of the dense reduction: each
    pivot's column, a reduced list or an apparent or emergent owner's
    cofacets, lists the rows of the dense column with its companion, and
    no other row has one."""
    for K in _oracle_complexes(source, monkeypatch):
        _assert_matches_dense(K, *dense_reduction(K, K.dimension))


@pytest.mark.parametrize("source, emergent, reaches", [
    ("random", 4, 0), ("tied", 4, 0), ("workloads", 50, 8), ("reached", 1, 1),
    ("unreached", 1, 0)])
def test_emergent_columns_are_read_only_when_reached(source, emergent, reaches, monkeypatch):
    """A column left after clearing and apparent pairs whose earliest
    cofacet tau has no owner yet keeps tau as its pivot unreduced (an
    emergent pair; its dense companion is its unit bit).  The sparse loop
    reads its cofacets only after a later column's reduction has looked
    tau up, and never where none reaches it; bars, pivots and columns
    stay the dense reduction's.  The source's complexes have ``emergent``
    emergent columns, of which ``reaches`` are reached."""
    events: list[tuple[str, int, int]] = []  # ("read", call, s), ("lookup", call, tau)
    calls = []
    reduce_columns, insert = cohomology._reduce_columns, cohomology.insert

    def spy(values, death, apparent, pivot, cofacets, value_up, cleared):
        call = len(calls)
        calls.append((death, apparent, pivot, cleared))

        def reading(j):
            events.append(("read", call, j))
            return cofacets(j)

        return reduce_columns(values, death, apparent, pivot, reading, value_up, cleared)

    def inserting(columns, heap, z, lookup):
        call = len(calls) - 1

        def looking(tau):
            events.append(("lookup", call, tau))
            return lookup(tau)

        return insert(columns, heap, z, looking)

    found = reached = 0
    for K in _oracle_complexes(source, monkeypatch):
        tables, bars = dense_reduction(K, K.dimension)
        events.clear()
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(cohomology, "_reduce_columns", spy)
            m.setattr(cohomology, "insert", inserting)
            reduction(K).degree(K, K.dimension)
        seen = {}
        for i, event in enumerate(events):
            seen.setdefault(event, i)
        for call, (death, apparent, pivot, cleared) in enumerate(calls):
            table = tables[call + 1]  # degree 0 is union-find
            left = death < INF
            left[cleared] = False
            for s in np.flatnonzero(left & ~apparent).tolist():
                (tau,) = pivot(np.array([s]))
                if table[tau][1] != 1 << s:
                    continue  # reduced, or cancelled by an owner of tau
                found += 1
                if ("read", call, s) in seen:
                    reached += 1
                    assert seen.get(("lookup", call, tau), INF) < seen["read", call, s]
        _assert_matches_dense(K, tables, bars)
    assert (found, reached) == (emergent, reaches)


def _column(found: tuple[int, int] | None) -> tuple[list[int], int] | None:
    """A dense pivot column as the set bits of its column, increasing (its
    pivot first), and its companion."""
    if found is None:
        return None
    bits, z = found
    return [i for i in range(bits.bit_length()) if bits >> i & 1], z


def _random_graph(rng: np.random.Generator, levels: int) -> FilteredComplex:
    """A random graph on 1 to 9 vertices, often disconnected, with a few
    triangles.  Values are multiples of 1 / levels below 2, so few
    levels tie them and one makes them all 0; an edge enters with its
    later end at least a third of the time (a zero-length H0 bar) and a
    triangle with its last edge.  Vertex ids are not positions."""
    n = int(rng.integers(1, 10))
    at = rng.integers(0, levels, n) / levels
    entries = [([7 * v + 2], at[v]) for v in range(n)]
    edge = {}
    for a, b in combinations(range(n), 2):
        if rng.uniform() < 0.35:
            edge[a, b] = max(at[a], at[b]) + (rng.uniform() > 1 / 3) * rng.integers(0, levels) / levels
            entries.append(([7 * a + 2, 7 * b + 2], edge[a, b]))
    for t in combinations(range(n), 3):
        if all(e in edge for e in combinations(t, 2)) and rng.uniform() < 0.5:
            entries.append(([7 * v + 2 for v in t], max(edge[e] for e in combinations(t, 2))))
    return build(entries)


def _components_of(K: FilteredComplex) -> list[int]:
    """The indicators of the components of K's 1-skeleton, merged as sets."""
    part = {v: {v} for v in range(K.n_simplices(0))}
    for a, b in (K.dim_rows[1].tolist() if K.dimension else ()):
        if part[a] is not part[b]:
            merged = part[a] | part[b]
            for v in merged:
                part[v] = merged
    return sorted({min(c): sum(1 << v for v in c) for c in part.values()}.values())


@pytest.mark.parametrize("levels", [1000, 3, 1])
def test_union_find_matches_dense_oracle(levels):
    """Degree 0 by union-find gives the dense reduction's bars, companions
    (None exactly for one vertex), pivots and every pivot column with its
    companion, on graphs with several components, non-VR vertex values,
    distinct or tied, and zero-length H0 bars, on random complexes and on
    vertex-only ones; the H^0 basis is the components' indicators."""
    rng = np.random.default_rng(53 + levels)
    complexes = [_random_graph(rng, levels) for _ in range(60)]
    complexes += [random_filtered_complex(rng, target_size=16, random_values=levels > 1)
                  for _ in range(20)]
    complexes.append(build([([v], (v % 3) / levels) for v in range(5)]))
    seen = {"components": 0, "zero-length": 0, "vertex-only": 0}
    for K in complexes:
        tables, bars = dense_reduction(K, 0)
        column, pivots, got = reduction(K).degree(K, 0)
        assert [(s, d) for s, d, _ in got] == [(s, d) for s, d, _ in bars[0]]
        for (s, _, z), (_, _, want) in zip(got, bars[0]):
            assert z == (None if want == 1 << s else want)
        assert pivots.tolist() == sorted(tables[0])
        for tau in range(K.n_simplices(1) + 2):
            assert column(tau) == _column(tables[0].get(tau))
        for tau, (col, _) in tables[0].items():
            assert is_coboundary(Cochain(K, 1, col))
        components = _components_of(K)
        assert sorted(c.bits for c in cohomology_basis(K, 0).cocycles) == components
        seen["components"] += len(components) > 1
        seen["zero-length"] += len(tables[0]) > sum(d < INF for _, d, _ in bars[0])
        seen["vertex-only"] += K.dimension == 0
    assert min(seen.values()) > 0, seen


def test_reduction_is_freed_by_reference_counting():
    """A complex whose reduction has read the pivot columns of degrees 0
    and 1 (the Sq^1 image and kernel passes) holds no reference cycle, so
    it is freed as soon as it is dropped: the collector finds nothing."""
    from steenrips.operations import Operation, image_barcode, kernel_barcode

    X = projective_sample(2, 20, seed=1)
    gc.collect()
    gc.disable()
    try:
        K = vr_filtration(X, 3, 2.3)
        persistent_barcode(K, 2)
        image_barcode(K, Operation.sq(1, 1)), kernel_barcode(K, Operation.sq(1, 1))
        del K
        assert gc.collect() == 0
    finally:
        gc.enable()


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
