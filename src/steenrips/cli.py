"""Command-line interface.

Subcommands: make, vr, barcode, image-barcode, kernel-barcode,
bottleneck, gh-bound, verify.  Every command calls the same library
functions the test suite uses; the CLI layer only parses, dispatches
and serializes.

Exit codes: 0 success, 1 verification failure, 2 validation error or
unreadable/unwritable file, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from pathlib import Path

from .cohomology import Barcode, persistent_barcode
from .diagrams import write_csv, write_svg
from .distances import bottleneck, gh_lower_bound
from .errors import InternalInvariantError, ValidationError
from .metric import (
    FiniteMetricSpace,
    _vr_for_degrees,
    circle_grid,
    gluing_wedge,
    linf_product,
    load_distance_matrix,
    load_points_csv,
    metric_from_points,
    projective_sample,
    save_distance_matrix,
    sphere_sample,
    vr_filtration,
)
from .operations import (
    Operation,
    homological_radius,
    image_barcode,
    kernel_barcode,
)
from .simplicial import dump_complex, load_complex
from .verify import SUITES


def _round9(obj):
    """9 significant digits on every float, for stable golden files."""
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return obj
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _emit(data: dict, out: str | None, force: bool) -> None:
    text = json.dumps(_round9(data), indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text, force)


def _write_text(path: str, text: str, force: bool) -> None:
    p = Path(path)
    if p.exists() and not force:
        raise ValidationError(f"{path} exists; pass --force to overwrite")
    p.write_text(text)


def _parse_op(spec: str, source_degree: int) -> Operation:
    if spec == "id":
        return Operation.identity(source_degree)
    if spec == "zero":
        return Operation.zero(source_degree)
    if spec.startswith("sq:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad operation spec {spec!r}") from None
        return Operation.sq(k, source_degree)
    raise ValidationError(f"unknown operation spec {spec!r} (id | zero | sq:K)")


def _parse_op_at(spec: str) -> Operation:
    """Operation with inline source degree: 'sq:1@1' or 'id@0'."""
    if "@" not in spec:
        raise ValidationError(f"operation spec {spec!r} needs '@SOURCE_DEGREE'")
    body, deg = spec.rsplit("@", 1)
    try:
        source = int(deg)
    except ValueError:
        raise ValidationError(f"bad source degree in {spec!r}") from None
    return _parse_op(body, source)


def _read_matrix(path: str) -> FiniteMetricSpace:
    with open(path) as fh:
        return load_distance_matrix(fh)


def _load_space(args) -> FiniteMetricSpace:
    if getattr(args, "points", None):
        pts = load_points_csv(Path(args.points).read_text())
        return metric_from_points(pts, args.metric)
    if args.input is None:
        raise ValidationError("need --input or --points")
    return _read_matrix(args.input)


def _filtration_from_args(args, top_degree: int | None):
    """The complex to read barcodes in degrees <= top_degree from; a
    metric's VR complex is cut where those stay exact."""
    if getattr(args, "complex", None):
        with open(args.complex) as fh:
            return load_complex(fh)
    if args.input is None and getattr(args, "points", None) is None:
        raise ValidationError("need --input/--points with caps, or --complex")
    if args.max_dim is None or args.max_scale is None:
        raise ValidationError("--max-dim and --max-scale are mandatory for VR input")
    X = _load_space(args)
    return _vr_for_degrees(X, top_degree, args.max_dim, args.max_scale)


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="distance-matrix file")
    p.add_argument("--points", help="point-cloud CSV file")
    p.add_argument("--metric", default="euclidean",
                   help="metric for --points: euclidean | sphere:RADIUS")
    p.add_argument("--complex", help="filtered-complex text file (skips VR)")
    p.add_argument("--max-dim", type=int, help="VR dimension cap (mandatory)")
    p.add_argument("--max-scale", type=float, help="VR scale cap (mandatory)")


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--svg", help="also write an SVG persistence diagram")
    p.add_argument("--csv", help="also write a CSV of the diagram points")
    p.add_argument("--force", action="store_true",
                   help="allow overwriting existing output files")


def _finish_barcode(bc: Barcode, operation: str, args,
                    u_scale: bool = False) -> None:
    if args.degree is not None:
        bc = bc.in_degree(args.degree)
    payload = bc.to_json_dict(operation=operation, u_scale=u_scale)
    payload["radii"] = []
    for d in sorted({b.degree for b in bc.bars}):
        r = homological_radius(bc, d)
        r = None if math.isinf(r) else r
        payload["radii"].append({"degree": d, "vr_scale": r,
                                 "u_scale": None if r is None else r / 2.0})
    _emit(payload, args.out, args.force)
    for path, write in ((args.svg, write_svg), (args.csv, write_csv)):
        if path:
            buf = io.StringIO()
            write(bc, buf)
            _write_text(path, buf.getvalue(), args.force)


def cmd_make(args) -> int:
    if args.kind == "circle":
        if args.grid:
            X = circle_grid(args.count, args.radius)
        else:
            X = sphere_sample(1, args.radius, args.count, args.seed)
    elif args.kind == "sphere":
        X = sphere_sample(args.dim, args.radius, args.count, args.seed,
                          antipodal_closure=args.antipodal)
    elif args.kind == "rp":
        X = projective_sample(args.dim, args.count, args.seed, args.radius)
    elif args.kind in ("wedge", "product"):
        if args.a is None or args.b is None:
            raise ValidationError(f"make {args.kind} needs --a and --b")
        A, B = _read_matrix(args.a), _read_matrix(args.b)
        if args.kind == "wedge":
            X = gluing_wedge(A, args.a_base, B, args.b_base)
        else:
            X = linf_product(A, B)
    else:
        raise ValidationError(f"unknown space kind {args.kind!r}")
    buf = io.StringIO()
    save_distance_matrix(X, buf)
    _write_text(args.out, buf.getvalue(), args.force)
    return 0


def cmd_vr(args) -> int:
    K = vr_filtration(_load_space(args), args.max_dim, args.max_scale)
    buf = io.StringIO()
    dump_complex(K, buf)
    _write_text(args.out, buf.getvalue(), args.force)
    return 0


def cmd_barcode(args) -> int:
    top = args.degree if args.max_degree is None else args.max_degree
    K = _filtration_from_args(args, args.max_dim if top is None else top)
    max_degree = args.max_degree
    if max_degree is None:
        max_degree = args.degree if args.degree is not None else max(K.dimension, 0)
    bc = persistent_barcode(K, max_degree, reduced=args.reduced)
    _finish_barcode(bc, "id", args)
    return 0


def cmd_theta_barcode(args, kernel: bool) -> int:
    op = _parse_op(args.op, args.source_degree)
    K = _filtration_from_args(args, op.target_degree)
    bc = kernel_barcode(K, op) if kernel else image_barcode(K, op)
    _finish_barcode(bc, op.name, args, u_scale=True)
    return 0


def _load_barcode(path: str) -> Barcode:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: malformed barcode JSON: {exc}") from None
    return Barcode.from_json_dict(data)


def cmd_bottleneck(args) -> int:
    A, B = _load_barcode(args.a), _load_barcode(args.b)
    d = bottleneck(A, B, args.degree)
    _emit({"degree": args.degree, "d_B": None if math.isinf(d) else d},
          args.out, args.force)
    return 0


def cmd_gh_bound(args) -> int:
    X, Y = _read_matrix(args.a), _read_matrix(args.b)
    try:
        degrees = [int(t) for t in args.degrees.split(",") if t != ""]
        if any(d < 0 for d in degrees):
            raise ValueError
    except ValueError:
        raise ValidationError(f"bad --degrees {args.degrees!r}; need "
                              "comma-separated nonnegative integers") from None
    ops = [_parse_op_at(s) for s in args.op or []]
    report = gh_lower_bound(X, Y, degrees, ops, args.max_dim, args.max_scale)
    for entry in report["per_invariant"]:
        if math.isinf(entry["d_B"]):
            entry["d_B"] = None
    if math.isinf(report["gh_lower_bound"]):
        report["gh_lower_bound"] = None
    _emit(report, args.out, args.force)
    return 0


def cmd_verify(args) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        raise ValidationError(
            f"unknown suite {args.suite!r}; pick from {sorted(SUITES)}"
        )
    if args.seed < 0:
        raise ValidationError("--seed must be nonnegative")
    if args.trials is not None and args.trials < 1:
        raise ValidationError("--trials must be at least 1")
    kwargs = {"seed": args.seed}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    report = suite(**kwargs)
    _emit(report, args.out, args.force)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steenrips",
        description="Steenrod-square barcodes and Gromov-Hausdorff bounds "
                    "for Vietoris-Rips filtrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make", help="synthesize a distance-matrix file")
    p.add_argument("kind", choices=["circle", "sphere", "rp", "wedge", "product"])
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", action="store_true",
                   help="circle: equally spaced points (seed ignored)")
    p.add_argument("--antipodal", action="store_true",
                   help="sphere: append the antipode of every sample")
    p.add_argument("--a", help="wedge/product: first factor file")
    p.add_argument("--a-base", type=int, default=0)
    p.add_argument("--b", help="wedge/product: second factor file")
    p.add_argument("--b-base", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_make)

    p = sub.add_parser("vr", help="expand a VR filtration to a complex file")
    p.add_argument("--input")
    p.add_argument("--points")
    p.add_argument("--metric", default="euclidean")
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--max-scale", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_vr)

    p = sub.add_parser("barcode", help="persistent barcode (F2)")
    _add_input_options(p)
    p.add_argument("--degree", type=int, help="report only this degree")
    p.add_argument("--max-degree", type=int)
    p.add_argument("--reduced", action="store_true",
                   help="drop one infinite degree-0 bar")
    _add_output_options(p)
    p.set_defaults(func=cmd_barcode)

    for name, kernel in (("image-barcode", False), ("kernel-barcode", True)):
        p = sub.add_parser(name, help=f"{name.split('-')[0]} barcode of an operation")
        _add_input_options(p)
        p.add_argument("--op", required=True, help="id | zero | sq:K")
        p.add_argument("--source-degree", type=int, required=True)
        p.add_argument("--degree", type=int, help="report only this degree")
        _add_output_options(p)
        p.set_defaults(func=lambda a, k=kernel: cmd_theta_barcode(a, k))

    p = sub.add_parser("bottleneck", help="bottleneck distance of two barcodes")
    p.add_argument("--a", required=True, help="barcode JSON file")
    p.add_argument("--b", required=True, help="barcode JSON file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_bottleneck)

    p = sub.add_parser("gh-bound", help="Gromov-Hausdorff lower-bound report")
    p.add_argument("--a", required=True, help="distance-matrix file")
    p.add_argument("--b", required=True, help="distance-matrix file")
    p.add_argument("--degrees", default="0,1",
                   help="comma-separated homology degrees")
    p.add_argument("--op", action="append",
                   help="operation with source degree, e.g. sq:1@1 (repeatable)")
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--max-scale", type=float, required=True)
    p.add_argument("--out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gh_bound)

    p = sub.add_parser("verify", help="run a theorem-level property suite")
    p.add_argument("suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int,
                   help="number of random cases (suite default if omitted)")
    p.add_argument("--out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "make" and args.radius is None:
        args.radius = 2.0 if args.kind == "rp" else 1.0
    try:
        return args.func(args)
    except (ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
