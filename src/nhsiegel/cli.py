"""Batch command-line front end.

Subcommands: eval, reduce, check, bound, moderate, sample.  Reports are
written as JSON (sorted keys, no timestamps) or CSV, so identical
configuration and seed produce byte-identical output.

Exit codes: 0 success / no violations, 1 violations or numerical failure,
2 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import FormDataError, NhsiegelError
from .formio import load_form_package, load_points, save_form_package
from .forms import FormPackage, check_invariance, evaluate, phi
from .growth import (
    GrowthReport,
    SweepConfig,
    check_blocks,
    estimate_constant,
    verify_growth_bound,
    verify_moderate_growth,
)
from .samples import SAMPLE_BUILDERS, build_sample
from .symplectic import PointBatch, SiegelPoint, delta_for_degree, reduce_batch

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

# reduce's allowance under delta_for_degree(n): the reduced Y's least eigenvalue is rounded.
REDUCE_TOL = 1e-9


def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The layout of a point's entries: the upper triangle, row major."""
    return np.triu_indices(n)


def _triangle_to_sym(values: list[float]) -> np.ndarray:
    r = len(values)
    n = int((math.isqrt(8 * r + 1) - 1) // 2)
    if n * (n + 1) // 2 != r:
        raise FormDataError(
            f"{r} entries do not fill an upper triangle (expected 1, 3, 6, ...)"
        )
    m = np.zeros((n, n))
    i, j = _upper(n)
    m[i, j] = m[j, i] = values
    return m


def parse_point(spec: str) -> SiegelPoint:
    """Parse 'x11,x12,...;y11,y12,...' (upper triangle, row major)."""
    parts = spec.split(";")
    if len(parts) != 2:
        raise FormDataError(f"point {spec!r} must have an X part and a Y part split by ';'")
    try:
        xs = [float(v) for v in parts[0].split(",")]
        ys = [float(v) for v in parts[1].split(",")]
    except ValueError:
        raise FormDataError(f"point {spec!r} has non-numeric entries")
    if len(xs) != len(ys):
        raise FormDataError(f"point {spec!r}: X and Y must have the same entry count")
    try:
        return SiegelPoint(_triangle_to_sym(xs), _triangle_to_sym(ys))
    except ValueError as exc:
        raise FormDataError(f"point {spec!r}: {exc}")


def _load_points(args) -> PointBatch:
    """Every --z and --points record, each validated once, as one batch of
    a single degree."""
    named = [(f"point {spec!r}", parse_point(spec)) for spec in args.z or []]
    if args.points:
        named += [(f"points[{i}]", z) for i, z in enumerate(load_points(args.points))]
    if not named:
        raise FormDataError("no points given; use --z or --points")
    n = named[0][1].n
    for where, z in named:
        if z.n != n:
            raise FormDataError(f"{where}: degree {z.n} differs from degree {n} of the first point")
    return PointBatch.from_points(z for _, z in named)


def _finite_or_null(value):
    """A JSON payload with every non-finite float replaced by None, which
    is written as null: strict JSON has no token for inf or NaN."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _emit(payload, args, csv_rows=None, csv_header=None) -> None:
    if csv_rows is not None and args.fmt == "csv":
        buf = io.StringIO()
        # csv writes a float cell as str(x), which is repr(x): it reads back exactly.
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    package = load_form_package(args.form)
    points = _load_points(args)
    values = evaluate(package.expansion, points)
    phis = phi(package, points)
    records = [
        {"point": {"X": x, "Y": y}, "value": value, "phi": magnitude}
        for x, y, value, magnitude in zip(
            points.X.tolist(), points.Y.tolist(),
            np.stack([values.real, values.imag], axis=-1).tolist(), phis.tolist(),
        )
    ]
    dim = package.rep.dim
    header = (
        _point_header(points.n)
        + [f"re_{i}" for i in range(dim)]
        + [f"im_{i}" for i in range(dim)]
        + ["phi"]
    )
    rows = np.column_stack([_point_cells(points.X, points.Y), values.real, values.imag, phis])
    _emit({"results": records}, args, rows.tolist(), header)
    return EXIT_OK


def cmd_reduce(args) -> int:
    points = _load_points(args)
    gamma, reduced = reduce_batch(points)
    delta = delta_for_degree(points.n)
    # Whether Y >= delta I up to REDUCE_TOL, read off the reduced batch's eigenvalues.
    least = reduced.eigvals[:, -1]
    records = [
        {"gamma": g, "z_red": {"X": x, "Y": y}, "min_im_eigenvalue": low,
         "in_V_delta": inside, "delta": delta}
        for g, x, y, low, inside in zip(
            gamma.tolist(), reduced.X.tolist(), reduced.Y.tolist(), least.tolist(),
            (least >= delta - REDUCE_TOL).tolist(),
        )
    ]
    header = _point_header(points.n)
    header = header + [h + "_red" for h in header] + ["min_im_eigenvalue"]
    rows = np.column_stack(
        [_point_cells(points.X, points.Y), _point_cells(reduced.X, reduced.Y), least]
    )
    _emit({"results": records}, args, rows.tolist(), header)
    return EXIT_OK


def cmd_check(args) -> int:
    package = load_form_package(args.form)
    report = check_invariance(package, check_blocks(package.n, _sweep_config(args)))
    _emit(asdict(report), args)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _sweep_config(args, seed_offset: int = 0) -> SweepConfig:
    return SweepConfig(samples=args.samples, seed=args.seed + seed_offset)


def _constant(args, package: FormPackage) -> float:
    if args.constant is None:
        return estimate_constant(package, _sweep_config(args))
    return args.constant


def cmd_bound(args) -> int:
    package = load_form_package(args.form)
    report = verify_growth_bound(
        package, _constant(args, package), kind=args.kind, config=_sweep_config(args, seed_offset=1)
    )
    return _emit_sweep(
        report, args, lambda z: _point_cells(z.real, z.imag), _point_header(package.n)
    )


def cmd_moderate(args) -> int:
    package = load_form_package(args.form)
    report = verify_moderate_growth(
        package, _constant(args, package), config=_sweep_config(args, seed_offset=1)
    )
    m = 2 * package.n
    header = [f"g_{i+1}{j+1}" for i in range(m) for j in range(m)]
    return _emit_sweep(report, args, lambda g: g.reshape(len(g), -1), header)


def _emit_sweep(report: GrowthReport, args, coords, coord_header: list[str]) -> int:
    # One record stream feeds both outputs: the JSON summary and the CSV
    # rows, whose first cells ``coords`` makes from the samples' locations.
    rows = None
    if args.fmt == "csv":
        where, *rest = report.records
        rows = np.column_stack([coords(where), *rest]).tolist()
    _emit(report.to_dict(), args, rows, coord_header + ["phi", "rhs", "ratio"])
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_sample(args) -> int:
    package = build_sample(args.name)
    if not args.out:
        raise FormDataError("--out is required for sample")
    save_form_package(package, args.out)
    return EXIT_OK


def _point_header(n: int) -> list[str]:
    labels = [f"{i+1}{j+1}" for i, j in zip(*_upper(n))]
    return [f"x{lab}" for lab in labels] + [f"y{lab}" for lab in labels]


def _point_cells(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The entries of (N, n, n) stacks X and Y in the layout of ``_upper``,
    as an (N, n(n+1)) array."""
    i, j = _upper(x.shape[-1])
    return np.concatenate([x[:, i, j], y[:, i, j]], axis=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhsiegel",
        description="Evaluate truncated Siegel-type form expansions and certify growth bounds.",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "form": dict(required=True, help="form package JSON file"),
        "z": dict(action="append", help="inline point 'x11,..;y11,..'"),
        "points": dict(help="JSON points file"),
        "samples": dict(type=int, default=1000),
        "seed": dict(type=int, default=0),
        "out": dict(default=None),
        "format": dict(dest="fmt", choices=("json", "csv"), default="json"),
        "kind": dict(choices=("theorem", "corollary"), default="theorem"),
        "constant": dict(type=float, default=None, help="force the constant instead of estimating it"),
        "name": dict(choices=sorted(SAMPLE_BUILDERS), required=True),
    }
    # Each subcommand takes the flags it reads.
    sweep = "form samples seed out format"
    for name, func, help_, names in (
        ("eval", cmd_eval, "evaluate F(Z) and phi(Z) at points", "form z points out format"),
        ("reduce", cmd_reduce, "reduce points to the fundamental domain", "z points out format"),
        ("check", cmd_check, "check the transformation law on samples", "form samples seed out"),
        ("bound", cmd_bound, "sweep the growth bound", sweep + " kind constant"),
        ("moderate", cmd_moderate, "sweep the moderate-growth inequality", sweep + " constant"),
        ("sample", cmd_sample, "write a bundled sample form file", "name out"),
    ):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        for flag in names.split():
            p.add_argument(f"--{flag}", **flags[flag])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        given = vars(args)  # only the flags of args.command
        for flag, least in (("samples", 1), ("seed", 0)):
            if given.get(flag, least) < least:
                raise FormDataError(f"--{flag} must be >= {least}")
        if (value := given.get("constant")) is not None and not (math.isfinite(value) and value > 0):
            raise FormDataError(f"--constant must be finite and positive, got {value}")
        return args.func(args)
    except NhsiegelError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_VIOLATION
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


def entry() -> None:
    """The process entry point: ``python -m nhsiegel.cli`` and ``nhsiegel``."""
    try:
        sys.exit(main())
    finally:
        # CPython's shutdown collections free the module-level cycles
        # (numpy's above all) one object at a time: about 20 ms of a 250 ms
        # process on a 2-core machine.  They skip the permanent generation
        # that freeze moves every object to, and the OS reclaims the memory.
        # The interpreter still flushes stdout and stderr, and nothing in the
        # package needs a finalizer at exit.  In-process callers of main()
        # never freeze.
        gc.freeze()


if __name__ == "__main__":
    entry()
