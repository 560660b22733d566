"""Cross-module checks pinned to the decomposition theorems."""

import ast
import math
from pathlib import Path

import pytest

from steenrips.cli import main
from steenrips.cohomology import persistent_barcode
from steenrips.errors import InternalInvariantError
from steenrips.metric import (
    circle_grid,
    gluing_wedge,
    projective_sample,
    vr_filtration,
)
from steenrips.operations import Operation, image_barcode


def test_circle_wedge_degree1_is_union():
    c4 = circle_grid(4, 1.0)
    W = gluing_wedge(c4, 0, c4, 0)
    scale = W.diameter() + 1e-9
    bw = persistent_barcode(vr_filtration(W, 2, scale), 1).in_degree(1)
    bx = persistent_barcode(vr_filtration(c4, 2, scale), 1).in_degree(1)
    assert bw == bx.union(bx)
    assert len(bw) == 2
    bar = bw.bars[0]
    assert bar.birth == pytest.approx(math.pi / 2)
    assert bar.death == pytest.approx(math.pi)


@pytest.mark.slow
def test_rp_sample_wedge_image_barcode_is_union():
    # factors chosen so both carry a nonempty img_Sq1 barcode
    A = projective_sample(2, 30, seed=1)
    B = projective_sample(2, 30, seed=3)
    W = gluing_wedge(A, 0, B, 0)
    op = Operation.sq(1, 1)
    ia = image_barcode(vr_filtration(A, 3, 2.3), op)
    ib = image_barcode(vr_filtration(B, 3, 2.3), op)
    iw = image_barcode(vr_filtration(W, 3, 2.3), op)
    assert len(ia) == 1 and len(ib) == 1
    assert iw == ia.union(ib)


def test_cli_internal_invariant_exit_code(tmp_path, monkeypatch, capsys):
    import steenrips.cli as cli

    def boom(*args, **kwargs):
        raise InternalInvariantError("negative multiplicity (simulated)")

    monkeypatch.setattr(cli, "rips_barcodes", boom)
    path = tmp_path / "c.dmat"
    assert main(["make", "circle", "--count", "6", "--grid",
                 "--out", str(path)]) == 0
    assert main(["barcode", "--input", str(path),
                 "--max-dim", "1", "--max-scale", "4.0"]) == 3
    assert "invariant" in capsys.readouterr().err


def test_demos_import_no_private_name():
    """The demos use the public API: no module or name they import from
    steenrips starts with an underscore."""
    demos = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
    private = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level:
                module = node.module or ""
                names = [module, *(f"{module}.{a.name}" for a in node.names)]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            private += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] == "steenrips"
                        and any(part.startswith("_") for part in name.split("."))]
    assert demos and private == []
