"""Theorem-level verification suites, shared by the CLI and the test suite.

Each suite returns a report dict: suite name, overall pass flag, one
entry per check, and a counterexample dump for the first failure.  A
check that ran on no case is left out, as it has shown nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .cohomology import cohomology_basis, is_coboundary
from .distances import bottleneck, bottleneck_oracle, rips_barcodes, stability_check
from .metric import circle_grid, gluing_wedge, linf_product
from .operations import Operation
from .simplicial import Cochain, coboundary, rp2_complex
from .steenrod import cup_i, sq
from .synthetic import (
    random_barcode,
    random_bounded_metric,
    random_filtered_complex,
    random_metric_space,
)

INF = math.inf


def _report(suite: str, checks: list[dict]) -> dict:
    return {
        "suite": suite,
        # a suite that ran no check has shown nothing
        "passed": bool(checks) and all(c["passed"] for c in checks),
        "checks": checks,
    }


def verify_wedge(seed: int = 0, trials: int = 20) -> dict:
    """Homology, Sq^1 image and Sq^1 kernel barcodes of a metric wedge
    are the multiset unions of the factors' barcodes."""
    rng = np.random.default_rng(seed)
    op = Operation.sq(1, 1)
    checks = []
    for trial in range(trials):
        nx = int(rng.integers(3, 9))
        ny = int(rng.integers(3, 9))
        X = random_metric_space(rng, nx)
        Y = random_metric_space(rng, ny)
        x0 = int(rng.integers(0, nx))
        y0 = int(rng.integers(0, ny))
        W = gluing_wedge(X, x0, Y, y0)
        scale = W.diameter() + 1e-9
        (hx, ix), (hy, iy), (hw, iw) = (
            rips_barcodes(Z, 2, [op], scale) for Z in (X, Y, W))
        ok = True
        detail = None
        # one essential H0 bar for the shared basepoint component
        expected = hx.union(hy).reduced()
        for deg in (0, 1, 2):
            if hw.in_degree(deg) != expected.in_degree(deg):
                ok, detail = False, {
                    "degree": deg,
                    "wedge": hw.in_degree(deg).to_json_dict(),
                    "expected": expected.in_degree(deg).to_json_dict(),
                }
                break
        for k, invariant in ((0, "imgSq1"), (1, "kerSq1")):
            iexp = ix[op][k].union(iy[op][k])
            if ok and iw[op][k] != iexp:
                ok, detail = False, {
                    "invariant": invariant,
                    "wedge": iw[op][k].to_json_dict("Sq1"),
                    "expected": iexp.to_json_dict("Sq1"),
                }
        checks.append({"name": f"pair-{trial}", "passed": ok,
                       "counterexample": detail})
    return _report("wedge", checks)


def verify_product(seed: int = 0, trials: int = 2) -> dict:
    """Kunneth rank check for l-infinity products of Vietoris-Rips
    filtrations, on the 4-point circle squared and ``trials`` small random
    pairs."""
    rng = np.random.default_rng(seed)
    cases = [("circle4 x circle4", circle_grid(4, 1.0), circle_grid(4, 1.0))]
    for t in range(trials):
        cases.append((f"random-{t}",
                      random_metric_space(rng, 3),
                      random_metric_space(rng, 3)))
    checks = []
    for name, X, Y in cases:
        P = linf_product(X, Y)
        scale = P.diameter() + 1e-9
        bp, bx, by = (rips_barcodes(Z, 2, [], scale)[0] for Z in (P, X, Y))
        ok, detail = True, None
        # the Betti numbers of a sublevel complex are its alive counts,
        # step functions that change only at the bars' endpoints
        ends = {t for b in (*bp, *bx, *by) for t in (b.birth, b.death)}
        for t_val in sorted(ends - {INF}):
            for m in (0, 1, 2):
                expected = sum(bx.alive(i, t_val) * by.alive(m - i, t_val)
                               for i in range(m + 1))
                got = bp.alive(m, t_val)
                if got != expected:
                    ok, detail = False, {
                        "value": t_val, "degree": m,
                        "product_betti": got, "kunneth_sum": expected,
                    }
                    break
            if not ok:
                break
        checks.append({"name": name, "passed": ok, "counterexample": detail})
    return _report("product", checks)


def verify_stability(seed: int = 0, trials: int = 50) -> dict:
    """Sup-norm perturbations of size 0.05 move homology and image
    barcodes of a 12-point metric by at most 0.05."""
    if trials < 1:  # stability_check refuses to check nothing
        return {**_report("stability", []), "max_ratio": 0.0}
    rng = np.random.default_rng(seed)
    X = random_bounded_metric(rng, 12)
    report = stability_check(X, delta=0.05, trials=trials, seed=seed + 1,
                             op=Operation.sq(1, 1), degree=1)
    violations = set(report["violations"])
    checks = [{
        "name": f"trial-{r['trial']}",
        "passed": r["trial"] not in violations,
        "counterexample": r if r["trial"] in violations else None,
    } for r in report["results"]]
    out = _report("stability", checks)
    out["max_ratio"] = report["max_ratio"]
    return out


def verify_steenrod_axioms(seed: int = 0, trials: int = 12) -> dict:
    """Chain-level axioms: coboundary identity, Sq^0 = id, vanishing
    above the degree, cup-square at the top, representative independence,
    additivity, and the projective-plane action."""
    rng = np.random.default_rng(seed)
    checks = []

    K = rp2_complex()
    sigma = cohomology_basis(K, 1).cocycles[0]
    square = cup_i(sigma, sigma, 0)
    checks.append({
        "name": "rp2-sq1-generates-h2",
        "passed": (not is_coboundary(square))
        and is_coboundary(sq(1, sigma) + square)
        and coboundary(square).is_zero,
        "counterexample": None,
    })
    lhs = sq(1, cup_i(sigma, sigma, 0))
    rhs = cup_i(sq(1, sigma), sigma, 0) + cup_i(sigma, sq(1, sigma), 0)
    checks.append({
        "name": "rp2-cartan-spot",
        "passed": is_coboundary(lhs + rhs),
        "counterexample": None,
    })
    checks.append({
        "name": "rp2-sq-above-degree",
        "passed": sq(2, sigma).is_zero and sq(3, sigma).is_zero,
        "counterexample": None,
    })

    coboundary_ok = True
    axioms_ok = True
    detail = None
    for _ in range(trials):
        Kr = random_filtered_complex(rng, target_size=25)
        for p in range(Kr.dimension + 1):
            for q in range(Kr.dimension + 1):
                for i in range(min(p, q) + 1):
                    if p + q - i > Kr.dimension + 1:
                        continue
                    a = Cochain(Kr, p, int(rng.integers(0, 1 << Kr.n_simplices(p))))
                    b = Cochain(Kr, q, int(rng.integers(0, 1 << Kr.n_simplices(q))))
                    lhs = coboundary(cup_i(a, b, i))
                    rhs = cup_i(coboundary(a), b, i) + cup_i(a, coboundary(b), i)
                    if i >= 1:
                        rhs = rhs + cup_i(a, b, i - 1) + cup_i(b, a, i - 1)
                    if lhs.bits != rhs.bits:
                        coboundary_ok = False
                        detail = {"complex_size": len(Kr), "p": p, "q": q, "i": i}
        for p in range(Kr.dimension + 1):
            basis = cohomology_basis(Kr, p).cocycles
            for c in basis:
                if not is_coboundary(sq(0, c) + c):
                    axioms_ok = False
                if not sq(p + 1, c).is_zero:
                    axioms_ok = False
            if p >= 1 and basis:
                c = basis[0]
                shift = coboundary(
                    Cochain(Kr, p - 1, int(rng.integers(0, 1 << Kr.n_simplices(p - 1))))
                )
                for k in range(p + 1):
                    if not is_coboundary(sq(k, c) + sq(k, c + shift)):
                        axioms_ok = False
            if len(basis) >= 2:
                c, c2 = basis[0], basis[1]
                for k in range(p + 1):
                    if not is_coboundary(sq(k, c + c2) + sq(k, c) + sq(k, c2)):
                        axioms_ok = False
    if trials > 0:
        checks.append({"name": "coboundary-identity", "passed": coboundary_ok,
                       "counterexample": detail})
        checks.append({"name": "class-axioms-random", "passed": axioms_ok,
                       "counterexample": None})
    return _report("steenrod-axioms", checks)


def verify_adem_sq1(seed: int = 0, trials: int = 20) -> dict:
    """[Sq^1 Sq^1 c] = 0 for every cocycle basis element."""
    rng = np.random.default_rng(seed)
    hosts = [random_filtered_complex(rng, target_size=25)
             for _ in range(trials)]
    hosts.append(rp2_complex())
    checks = []
    for idx, K in enumerate(hosts):
        ok, detail = True, None
        for p in range(K.dimension + 1):
            for c in cohomology_basis(K, p).cocycles:
                if not is_coboundary(sq(1, sq(1, c))):
                    ok = False
                    detail = {"complex": idx, "degree": p}
        name = "rp2" if idx == len(hosts) - 1 else f"complex-{idx}"
        checks.append({"name": name, "passed": ok, "counterexample": detail})
    return _report("adem-sq1", checks)


def verify_bottleneck_oracle(seed: int = 0, trials: int = 200) -> dict:
    """Matching-based bottleneck equals exhaustive enumeration."""
    rng = np.random.default_rng(seed)
    checks = []
    worst = None
    ok = True
    for t in range(trials):
        a = random_barcode(rng, max_bars=6)
        b = random_barcode(rng, max_bars=6)
        fast = bottleneck(a, b, 0)
        slow = bottleneck_oracle(a, b, 0)
        if fast != slow:
            ok = False
            worst = {"trial": t, "fast": fast, "oracle": slow,
                     "a": a.to_json_dict(), "b": b.to_json_dict()}
            break
    if trials > 0:
        checks.append({"name": f"{trials}-random-pairs", "passed": ok,
                       "counterexample": worst})
    return _report("bottleneck-oracle", checks)


SUITES = {
    "wedge": verify_wedge,
    "product": verify_product,
    "stability": verify_stability,
    "steenrod-axioms": verify_steenrod_axioms,
    "adem-sq1": verify_adem_sq1,
    "bottleneck-oracle": verify_bottleneck_oracle,
}
