import json
import math
import re

import pytest

from steenrips import cli, distances
from steenrips.cli import main
from steenrips.cohomology import Bar, Barcode
from steenrips.metric import vr_filtration
from steenrips.simplicial import dump_complex, rp2_complex


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "c12.dmat"
    assert main(["make", "circle", "--count", "12", "--grid",
                 "--out", str(path)]) == 0
    return path


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_make_circle_grid(circle_file):
    lines = circle_file.read_text().splitlines()
    assert lines[0] == "12"
    row = [float(t) for t in lines[1].split()]
    assert row[1] == pytest.approx(2 * math.pi / 12)


def test_make_requires_force_to_overwrite(circle_file, capsys):
    code = main(["make", "circle", "--count", "12", "--grid",
                 "--out", str(circle_file)])
    assert code == 2
    assert "exists" in capsys.readouterr().err
    assert main(["make", "circle", "--count", "12", "--grid",
                 "--out", str(circle_file), "--force"]) == 0


def test_barcode_command(circle_file, capsys):
    code, data = run_json(capsys, [
        "barcode", "--input", str(circle_file),
        "--max-dim", "2", "--max-scale", "2.5", "--degree", "1",
    ])
    assert code == 0
    assert data["field"] == "F2" and data["operation"] == "id"
    assert len(data["bars"]) == 1
    bar = data["bars"][0]
    assert bar["degree"] == 1
    assert bar["birth"] == pytest.approx(2 * math.pi / 12, abs=1e-6)
    assert data["radii"][0]["u_scale"] == pytest.approx(bar["death"] / 2)


def test_barcode_requires_caps(circle_file, capsys):
    assert main(["barcode", "--input", str(circle_file)]) == 2
    assert "mandatory" in capsys.readouterr().err


def test_barcode_deterministic(circle_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["barcode", "--input", str(circle_file),
            "--max-dim", "2", "--max-scale", "2.5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_vr_and_complex_input(circle_file, tmp_path, capsys):
    cplx = tmp_path / "c12.cplx"
    assert main(["vr", "--input", str(circle_file), "--max-dim", "2",
                 "--max-scale", "2.5", "--out", str(cplx)]) == 0
    code, data = run_json(capsys, ["barcode", "--complex", str(cplx),
                                   "--degree", "1"])
    assert code == 0
    assert len(data["bars"]) == 1


def test_metric_barcodes_equal_complex_barcodes(tmp_path, monkeypatch):
    """Below --max-dim the barcode commands cut a metric's VR complex at
    its enclosing radius and at the top degree they read; their JSON stays
    that of the full VR complex."""
    built = []

    def spy(X, max_dim, max_scale):
        built.append((max_dim, max_scale))
        return vr_filtration(X, max_dim, max_scale)

    monkeypatch.setattr(cli, "vr_filtration", spy)
    monkeypatch.setattr(distances, "vr_filtration", spy)
    dmat, cplx = tmp_path / "rp.dmat", tmp_path / "rp.cplx"
    # a seeded sample whose Sq^1 image barcode is not empty
    assert main(["make", "rp", "--count", "28", "--seed", "3",
                 "--out", str(dmat)]) == 0
    caps = ["--max-dim", "3", "--max-scale", "4"]
    assert main(["vr", "--input", str(dmat), *caps, "--out", str(cplx)]) == 0
    assert built == [(3, 4.0)]
    for i, argv in enumerate([
        ["barcode", "--degree", "1"],
        ["image-barcode", "--op", "sq:1", "--source-degree", "1"],
        ["kernel-barcode", "--op", "sq:1", "--source-degree", "1"],
    ]):
        a, b = tmp_path / f"metric{i}.json", tmp_path / f"complex{i}.json"
        assert main(argv + ["--input", str(dmat), *caps, "--out", str(a)]) == 0
        assert main(argv + ["--complex", str(cplx), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["bars"]
    # the default top degree is --max-dim - 1
    a, b = tmp_path / "metric-all.json", tmp_path / "complex-all.json"
    assert main(["barcode", "--input", str(dmat), *caps, "--out", str(a)]) == 0
    assert main(["barcode", "--complex", str(cplx), "--max-degree", "2",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # built to the top degree read, at the enclosing radius
    assert [dim for dim, _ in built] == [3, 1, 2, 2, 2]
    assert built[1][1] == built[2][1] == built[3][1] == built[4][1] < 4.0
    # a top degree at --max-dim exits 2 before any complex is built
    assert main(["barcode", "--input", str(dmat), *caps,
                 "--max-degree", "3"]) == 2
    assert len(built) == 5


def test_barcode_degree_above_max_degree_exits_2(tmp_path, capsys):
    """The octahedron's one H2 bar: --degree above --max-degree is an
    error on either input, not an empty barcode."""
    pts, cplx = tmp_path / "octahedron.csv", tmp_path / "octahedron.cplx"
    pts.write_text("1,0,0\n-1,0,0\n0,1,0\n0,-1,0\n0,0,1\n0,0,-1\n")
    caps = ["--max-dim", "3", "--max-scale", "3"]
    assert main(["vr", "--points", str(pts), *caps, "--out", str(cplx)]) == 0
    for source in (["--points", str(pts), *caps], ["--complex", str(cplx)]):
        code, data = run_json(capsys, ["barcode", *source, "--degree", "2"])
        assert code == 0
        assert [(b["degree"], b["birth"], b["death"]) for b in data["bars"]] == [
            (2, pytest.approx(math.sqrt(2)), 2.0)]
        assert main(["barcode", *source, "--degree", "2", "--max-degree", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--degree 2 is above --max-degree 1" in captured.err


def test_theta_barcode_degree_other_than_its_own_exits_2(tmp_path, monkeypatch, capsys):
    """An image barcode lives only in the operation's target degree and a
    kernel barcode only in its source degree: any other --degree exits 2
    on either input before a complex is built, not with an empty barcode."""
    built = []

    def spy(X, max_dim, max_scale):
        built.append(max_dim)
        return vr_filtration(X, max_dim, max_scale)

    monkeypatch.setattr(cli, "vr_filtration", spy)
    monkeypatch.setattr(distances, "vr_filtration", spy)
    dmat, cplx = tmp_path / "rp.dmat", tmp_path / "rp.cplx"
    assert main(["make", "rp", "--count", "28", "--seed", "3",
                 "--out", str(dmat)]) == 0
    caps = ["--max-dim", "3", "--max-scale", "4"]
    assert main(["vr", "--input", str(dmat), *caps, "--out", str(cplx)]) == 0
    op = ["--op", "sq:1", "--source-degree", "1"]
    for source in (["--input", str(dmat), *caps], ["--complex", str(cplx)]):
        for name, own, other in (("image-barcode", 2, 1), ("kernel-barcode", 1, 2)):
            code, data = run_json(capsys, [name, *source, *op, "--degree", str(own)])
            assert code == 0
            assert data["bars"] and {b["degree"] for b in data["bars"]} == {own}
            n_built = len(built)
            assert main([name, *source, *op, "--degree", str(other)]) == 2
            assert len(built) == n_built
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"--degree {other} is not {own}" in captured.err


def test_image_barcode_rp2(tmp_path, capsys):
    cplx = tmp_path / "rp2.cplx"
    with open(cplx, "w") as fh:
        dump_complex(rp2_complex(), fh)
    code, data = run_json(capsys, [
        "image-barcode", "--complex", str(cplx),
        "--op", "sq:1", "--source-degree", "1",
    ])
    assert code == 0
    assert data["operation"] == "Sq1"
    assert data["bars"] == [{
        "degree": 2, "birth": 0.0, "death": None, "mult": 1,
        "death_u_scale": None,
    }]


def test_kernel_barcode_zero_op(tmp_path, capsys):
    cplx = tmp_path / "rp2.cplx"
    with open(cplx, "w") as fh:
        dump_complex(rp2_complex(), fh)
    code, data = run_json(capsys, [
        "kernel-barcode", "--complex", str(cplx),
        "--op", "zero", "--source-degree", "1",
    ])
    assert code == 0
    assert data["bars"] == [{
        "degree": 1, "birth": 0.0, "death": None, "mult": 1,
        "death_u_scale": None,
    }]


def test_empty_complex_barcode(tmp_path, capsys):
    cplx = tmp_path / "empty.cplx"
    cplx.write_text("# nothing here\n")
    code, data = run_json(capsys, ["barcode", "--complex", str(cplx)])
    assert code == 0
    assert data["bars"] == []


def test_bottleneck_command(circle_file, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["barcode", "--input", str(circle_file),
            "--max-dim", "2", "--max-scale", "2.5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    code, data = run_json(capsys, ["bottleneck", "--a", str(a), "--b", str(b),
                                   "--degree", "1"])
    assert code == 0
    assert data == {"degree": 1, "d_B": 0.0}


def test_bottleneck_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["bottleneck", "--a", missing, "--b", missing,
                 "--degree", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_barcode_missing_input(tmp_path, capsys):
    assert main(["barcode", "--input", str(tmp_path / "missing.dmat"),
                 "--max-dim", "1", "--max-scale", "1.0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bottleneck_truncated_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bars": [')
    assert main(["bottleneck", "--a", str(bad), "--b", str(bad),
                 "--degree", "0"]) == 2
    assert "malformed barcode JSON" in capsys.readouterr().err


NOT_UTF8 = bytes(range(0x80, 0x100))  # continuation bytes cannot start text


@pytest.mark.parametrize("argv", [
    ["barcode", "--input", "{bad}", "--max-dim", "2", "--max-scale", "1"],
    ["bottleneck", "--a", "{bom}", "--b", "{ok}", "--degree", "0"],
    ["gh-bound", "--a", "{bad}", "--b", "{bad}", "--degrees", "0",
     "--max-dim", "1", "--max-scale", "1"],
])
def test_input_not_utf8(tmp_path, capsys, argv):
    files = {"bad": NOT_UTF8, "bom": b"\xff\xfe" + NOT_UTF8,
             "ok": b'{"bars": []}'}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [a.format(**{k: str(tmp_path / k) for k in files}) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bottleneck_non_numeric_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bars": [{"degree": 0, "birth": "x", "death": 1}]}')
    assert main(["bottleneck", "--a", str(bad), "--b", str(bad),
                 "--degree", "0"]) == 2
    assert "malformed barcode JSON" in capsys.readouterr().err


def test_bottleneck_infinite_birth(tmp_path, capsys):
    # |-inf - -inf| is nan, which no pair cost may be
    bad = tmp_path / "bad.json"
    bad.write_text('{"bars": [{"degree": 0, "birth": -Infinity, "death": 1}]}')
    assert main(["bottleneck", "--a", str(bad), "--b", str(bad),
                 "--degree", "0"]) == 2
    assert "bar birth must be finite" in capsys.readouterr().err


def test_gh_bound_command(circle_file, tmp_path, capsys):
    code, data = run_json(capsys, [
        "gh-bound", "--a", str(circle_file), "--b", str(circle_file),
        "--degrees", "0,1", "--op", "sq:1@1",
        "--max-dim", "3", "--max-scale", "2.5",
    ])
    assert code == 0
    assert data["gh_lower_bound"] == 0.0
    names = [e["invariant"] for e in data["per_invariant"]]
    assert names == ["H0", "H1", "imgSq1@deg2"]


def test_verify_command(capsys):
    code, data = run_json(capsys, ["verify", "adem-sq1", "--seed", "1",
                                   "--trials", "3"])
    assert code == 0
    assert data["passed"] is True


def test_verify_trials_reaches_every_suite(capsys):
    # product runs the circle case plus one random pair per trial
    code, data = run_json(capsys, ["verify", "product", "--trials", "1"])
    assert code == 0
    assert len(data["checks"]) == 2


def test_failing_report_is_strict_json(monkeypatch, capsys):
    """A failing verify report that holds inf and NaN, as a stability or
    bottleneck-oracle check can, is written with null in their place."""
    report = {"passed": False, "checks": [{"fast": math.inf, "oracle": 0.5},
                                          {"d_B_image": -math.inf, "ratio": math.nan}]}
    monkeypatch.setitem(cli.SUITES, "failing", lambda seed: report)
    assert main(["verify", "failing"]) == 1

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    data = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert data["checks"] == [{"fast": None, "oracle": 0.5},
                              {"d_B_image": None, "ratio": None}]


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_svg_csv_export(circle_file, tmp_path):
    svg, csvp = tmp_path / "d.svg", tmp_path / "d.csv"
    assert main(["barcode", "--input", str(circle_file),
                 "--max-dim", "2", "--max-scale", "2.5",
                 "--out", str(tmp_path / "b.json"),
                 "--svg", str(svg), "--csv", str(csvp)]) == 0
    assert svg.read_text().startswith("<svg")
    assert "inf" in csvp.read_text()  # essential degree-0 bar
    lines = csvp.read_text().splitlines()
    assert lines[0] == "degree,birth,death,multiplicity"


def test_bad_op_spec(tmp_path, capsys):
    cplx = tmp_path / "rp2.cplx"
    with open(cplx, "w") as fh:
        dump_complex(rp2_complex(), fh)
    assert main(["image-barcode", "--complex", str(cplx),
                 "--op", "cup:1", "--source-degree", "1"]) == 2


@pytest.mark.parametrize("argv, fragment", [
    pytest.param(["verify", "wedge", "--seed", "-1"],
                 "--seed must be nonnegative", id="negative-seed"),
    pytest.param(["verify", "stability", "--trials", "-3"],
                 "--trials must be at least 1", id="negative-trials"),
    pytest.param(["verify", "stability", "--trials", "0"],
                 "--trials must be at least 1", id="zero-trials"),
    pytest.param(["gh-bound", "--a", "{c}", "--b", "{c}", "--degrees", "x",
                  "--max-dim", "1", "--max-scale", "1"],
                 "bad --degrees 'x'", id="degrees-not-int"),
    pytest.param(["gh-bound", "--a", "{c}", "--b", "{c}", "--degrees", "0,-1",
                  "--max-dim", "1", "--max-scale", "1"],
                 "bad --degrees '0,-1'", id="negative-degree"),
    pytest.param(["gh-bound", "--a", "{c}", "--b", "{c}", "--op", "sq:1@x",
                  "--max-dim", "1", "--max-scale", "1"],
                 "bad source degree in 'sq:1@x'", id="bad-source-degree"),
    pytest.param(["image-barcode", "--input", "{c}", "--max-dim", "1",
                  "--max-scale", "1", "--op", "cup:1", "--source-degree", "1"],
                 "unknown operation spec 'cup:1'", id="bad-op"),
    pytest.param(["kernel-barcode", "--input", "{c}", "--max-dim", "1",
                  "--max-scale", "1", "--op", "id", "--source-degree", "-1"],
                 "source degree must be nonnegative", id="negative-source-degree"),
    pytest.param(["make", "wedge", "--a", "{c}", "--out", "{c}.out"],
                 "make wedge needs --a and --b", id="wedge-without-b"),
    pytest.param(["make", "product", "--b", "{c}", "--out", "{c}.out"],
                 "make product needs --a and --b", id="product-without-a"),
    pytest.param(["vr", "--max-dim", "1", "--max-scale", "1", "--out", "{c}.out"],
                 "need --input or --points", id="vr-without-input"),
    pytest.param(["gh-bound", "--a", "{neg}", "--b", "{c}", "--max-dim", "1",
                  "--max-scale", "1"],
                 "point count -1 is negative", id="negative-point-count"),
    pytest.param(["gh-bound", "--a", "{c}", "--b", "{c}", "--degrees", "0,5",
                  "--max-dim", "2", "--max-scale", "1"],
                 "degree 5 is outside 0..1", id="degree-above-max-dim"),
    pytest.param(["gh-bound", "--a", "{c}", "--b", "{c}", "--degrees", "0,1",
                  "--max-dim", "1", "--max-scale", "1"],
                 "degree 1 is outside 0..0", id="degree-at-max-dim"),
    pytest.param(["gh-bound", "--a", "{c}", "--b", "{c}", "--degrees", "",
                  "--max-dim", "0", "--max-scale", "1"],
                 "no invariants requested", id="no-invariants"),
    pytest.param(["image-barcode", "--input", "{c}", "--max-dim", "2",
                  "--max-scale", "1", "--op", "sq:1", "--source-degree", "2"],
                 "degree 3 is outside 0..1", id="image-target-above-max-dim"),
    pytest.param(["image-barcode", "--input", "{c}", "--max-dim", "2",
                  "--max-scale", "1", "--op", "sq:1", "--source-degree", "1"],
                 "degree 2 is outside 0..1", id="image-target-at-max-dim"),
    pytest.param(["kernel-barcode", "--input", "{c}", "--max-dim", "1",
                  "--max-scale", "1", "--op", "sq:1", "--source-degree", "1"],
                 "degree 2 is outside 0..0", id="kernel-target-above-max-dim"),
    pytest.param(["barcode", "--input", "{c}", "--max-dim", "1", "--max-scale", "1",
                  "--degree", "3"],
                 "degree 3 is outside 0..0", id="barcode-degree-above-max-dim"),
    pytest.param(["barcode", "--input", "{c}", "--max-dim", "2", "--max-scale", "1",
                  "--degree", "2"],
                 "degree 2 is outside 0..1", id="barcode-degree-at-max-dim"),
    pytest.param(["barcode", "--input", "{c}", "--max-dim", "1", "--max-scale", "0"],
                 "max_scale must be positive", id="nonpositive-scale"),
    pytest.param(["barcode", "--input", "{c}", "--max-dim", "0", "--max-scale", "1"],
                 "--max-dim must be at least 1, got 0", id="barcode-zero-max-dim"),
    pytest.param(["barcode", "--input", "{c}", "--max-dim", "-1", "--max-scale", "1"],
                 "--max-dim must be at least 1, got -1", id="barcode-negative-max-dim"),
    pytest.param(["kernel-barcode", "--input", "{c}", "--max-dim", "0",
                  "--max-scale", "1", "--op", "id", "--source-degree", "0"],
                 "--max-dim must be at least 1, got 0", id="kernel-zero-max-dim"),
    pytest.param(["gh-bound", "--a", "{c}", "--b", "{c}", "--max-dim", "-1",
                  "--max-scale", "1"],
                 "max_dim must be at least 1, got -1", id="gh-bound-negative-max-dim"),
    pytest.param(["bottleneck", "--a", "{c}", "--b", "{c}", "--degree", "0"],
                 "malformed barcode JSON", id="bottleneck-not-json"),
    pytest.param(["bottleneck", "--a", "{bars}", "--b", "{bars}", "--degree", "-1"],
                 "degree must be nonnegative, got -1", id="bottleneck-negative-degree"),
    pytest.param(["bottleneck", "--a", "{fractional-degree}", "--b", "{bars}", "--degree", "1"],
                 "'degree': 1.7", id="bottleneck-fractional-degree"),
    pytest.param(["bottleneck", "--a", "{bars}", "--b", "{fractional-mult}", "--degree", "0"],
                 "'mult': 2.9", id="bottleneck-fractional-mult"),
    pytest.param(["bottleneck", "--a", "{bool-mult}", "--b", "{bars}", "--degree", "0"],
                 "'mult': True", id="bottleneck-bool-mult"),
    pytest.param(["bottleneck", "--a", "{string-birth}", "--b", "{bars}", "--degree", "0"],
                 "'birth': '0.5'", id="bottleneck-string-birth"),
    pytest.param(["bottleneck", "--a", "{string-death}", "--b", "{bars}", "--degree", "0"],
                 "'death': 'inf'", id="bottleneck-string-death"),
    pytest.param(["bottleneck", "--a", "{negative-degree}", "--b", "{bars}", "--degree", "0"],
                 "bar degree must be nonnegative, got -2", id="bottleneck-negative-bar-degree"),
    pytest.param(["bottleneck", "--a", "{overflow-death}", "--b", "{bars}", "--degree", "0"],
                 "a death must be finite or null", id="bottleneck-overflow-death"),
    pytest.param(["bottleneck", "--a", "{bars}", "--b", "{infinity-death}", "--degree", "0"],
                 "a death must be finite or null", id="bottleneck-infinity-death"),
    pytest.param(["barcode", "--input", "{c}", "--max-dim", "2", "--max-scale", "1",
                  "--max-degree", "1", "--degree", "-1"],
                 "--degree must be nonnegative, got -1", id="barcode-negative-degree"),
    pytest.param(["make", "circle", "--count", "1", "--out", "{c}.out"],
                 "need at least two sample points", id="one-point-circle"),
])
def test_bad_arguments_exit_2(circle_file, capsys, argv, fragment):
    """Each case exits 2 with its own message, not an earlier error."""
    negative = circle_file.with_name("negative.dmat")
    negative.write_text("-1 5\n")
    files = {"c": circle_file, "neg": negative, "bars": circle_file.with_name("bars.json")}
    files["bars"].write_text(json.dumps(Barcode([Bar(0, 0.0, 1.0)]).to_json_dict()))
    for name, field, value in [("fractional-degree", "degree", 1.7),
                               ("fractional-mult", "mult", 2.9), ("bool-mult", "mult", True),
                               ("string-birth", "birth", "0.5"), ("string-death", "death", "inf"),
                               ("negative-degree", "degree", -2)]:
        files[name] = circle_file.with_name(f"{name}.json")
        bar = {"degree": 0, "birth": 0.0, "death": 1.0, "mult": 1, field: value}
        files[name].write_text(json.dumps({"bars": [bar]}))
    # json.dumps cannot write these deaths, which json reads as inf
    for name, death in [("overflow-death", "1e400"), ("infinity-death", "Infinity")]:
        files[name] = circle_file.with_name(f"{name}.json")
        files[name].write_text(f'{{"bars": [{{"degree": 0, "birth": 0.0, "death": {death}}}]}}')
    code = main([re.sub(r"\{([a-z-]+)\}", lambda m: str(files[m[1]]), a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert fragment in err
    assert "Traceback" not in err
