import pytest

from steenrips.verify import (
    SUITES, verify_product, verify_stability, verify_wedge,
)


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
    report = verify_stability(seed=0, trials=0)
    assert report["checks"] == [] and report["passed"] is False


def test_reports_are_json_ready():
    import json

    report = verify_product(seed=1)
    json.dumps(report)
    report = verify_wedge(seed=1, trials=2)
    json.dumps(report)
