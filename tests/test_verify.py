import pytest

from steenrips.verify import SUITES, verify_product, verify_wedge


def test_all_suites_registered():
    assert set(SUITES) == {
        "wedge", "product", "stability", "steenrod-axioms",
        "adem-sq1", "bottleneck-oracle",
    }


@pytest.mark.parametrize("name,kwargs", [
    ("wedge", {"seed": 3, "trials": 4}),
    ("product", {"seed": 0}),
    ("stability", {"seed": 2, "trials": 5}),
    ("steenrod-axioms", {"seed": 0, "trials": 4}),
    ("adem-sq1", {"seed": 0, "trials": 5}),
    ("bottleneck-oracle", {"seed": 0, "trials": 40}),
])
def test_suites_pass(name, kwargs):
    report = SUITES[name](**kwargs)
    assert report["suite"] == name
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_suite_without_checks_fails():
    """At trials=0 (or below) every suite reports only the checks of its
    fixed cases, and one left with no check fails: a check over zero
    cases is no pass."""
    fixed = {
        "wedge": [],
        "product": ["circle4 x circle4"],
        "stability": [],
        "steenrod-axioms": ["rp2-sq1-generates-h2", "rp2-cartan-spot",
                            "rp2-sq-above-degree"],
        "adem-sq1": ["rp2"],
        "bottleneck-oracle": [],
    }
    assert set(fixed) == set(SUITES)
    for name, suite in SUITES.items():
        for trials in (0, -1):
            report = suite(seed=0, trials=trials)
            assert [c["name"] for c in report["checks"]] == fixed[name], name
            assert report["passed"] is bool(fixed[name]), name


def test_reports_are_json_ready():
    import json

    report = verify_product(seed=1)
    json.dumps(report)
    report = verify_wedge(seed=1, trials=2)
    json.dumps(report)
