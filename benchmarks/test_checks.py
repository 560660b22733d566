"""Self-test of the benchmark: every checker rejects a corrupted output.

    python3 -m pytest -q benchmarks/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_setup  # noqa: E402

sr = bench_setup.import_library()

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _circle(seed: int, n: int = 40, noise: float = 0.1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    r = 1.0 + noise * np.clip(rng.standard_normal(n), -2.0, 2.0)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def _h01(seed: int):
    X = sr.metric_from_points(_circle(seed))
    return X, sr.persistent_barcode(sr.vr_filtration(X, 2, 1.0), 1)


def test_rank_nullity_rejects_a_dropped_kernel_bar():
    K = sr.vr_filtration(sr.projective_sample(2, 12, seed=2), 3, 2.3)
    op = sr.Operation.sq(1, 1)
    bc, img, ker = sr.persistent_barcode(K, 2), sr.image_barcode(K, op), sr.kernel_barcode(K, op)
    assert len(ker) > 0
    assert checks.rank_nullity(K.distinct_values, bc, img, ker) == []
    dropped = ker.without_one(ker.bars[0])
    assert checks.rank_nullity(K.distinct_values, bc, img, dropped)


def test_mst_check_rejects_a_dropped_h0_death():
    X, bc = _h01(1)
    assert checks.h0_matches_mst(X.d, 1.0, bc) == []
    finite = next(b for b in bc if b.degree == 0 and not b.is_infinite)
    assert checks.h0_matches_mst(X.d, 1.0, bc.without_one(finite))


def test_bottleneck_certificate_rejects_a_neighbouring_candidate():
    (_, a), (_, b) = _h01(1), _h01(2)
    pa, pb = a.expanded(0), b.expanded(0)
    d = sr.bottleneck(a, b, 0)
    assert checks.bottleneck_certificate(pa, pb, d) == []
    cands = checks.candidates(pa, pb)
    i = cands.index(d)
    for wrong in (cands[i - 1], cands[i + 1]):
        assert checks.bottleneck_certificate(pa, pb, wrong)


def test_workload_check_rejects_a_nudged_report_value():
    wl = WORKLOADS["gh-rp2-wedge"]
    inst = wl.make_inputs(1)[0]
    out = wl.run(inst, Tracer())
    assert out["result"] == wl.job(inst)["result"]
    assert wl.check(inst, out) == []
    pa, pb, d = out["matchings"][0]
    cands = checks.candidates(pa, pb)
    out["matchings"][0] = (pa, pb, cands[cands.index(d) + 1])
    assert wl.check(inst, out)


def test_self_time_excludes_child_spans():
    tr = Tracer()
    tr.job = 0
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    spans = {s["name"]: s["end"] - s["start"] for s in tr.spans}
    st = tr.self_times(0)
    assert st["inner"] == spans["inner"]
    assert abs(st["outer"] - (spans["outer"] - spans["inner"])) < 1e-12


def test_repeat_output_must_equal_the_checked_result():
    import run

    class Stub:
        name = "stub"

        def check(self, inst, out):
            return []

    r = run.Run(Stub(), [None], 1, {}, None)
    assert r.problems(0, 0, {"result": 1.5}, {"result": 1.5}) == []
    assert r.problems(1, 0, {"result": 1.5}, {"result": 1.5}) == []
    assert r.problems(2, 0, {"result": 1.25}, {"result": 1.25})
