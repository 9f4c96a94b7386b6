"""Command-line front end.

Reports are machine-readable JSON on stdout (byte-identical for identical
configurations, seed included); human summaries go to stderr.  Exit codes:
0 success/consistent, 1 property violation found, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .ball import BallGrid, transport_residual, vanishes_on_ball, vanishes_on_reals
from .cylinder import CylinderGrid, constant_one, cylinder_extension, generator, star_product
from .discretize import build_partition, discretize_generators, verify_bounds
from .expr import ExprError, parse, variables
from .freenorm import SearchConfig, norm_sandwich
from .models import model_to_json

USAGE_ERROR = 2
VIOLATION = 1


def _echo(args: argparse.Namespace, **extra) -> dict:
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    params.update(extra)
    return {"version": __version__, "command": args.command, "params": params}


def _emit(report: dict, summary: str) -> None:
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError:
        _usage_error("the report holds a non-finite number: the input overflows double precision")
    print(text)
    print(summary, file=sys.stderr)


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports its own errors (bad values, unknown options) as usage errors."""

    def error(self, message: str) -> NoReturn:
        _usage_error(message)


def _parse_expr_or_exit(text: str):
    try:
        return parse(text)
    except ExprError as exc:
        _usage_error(str(exc))


def _cylinder_grid(n: int, args: argparse.Namespace) -> CylinderGrid:
    try:
        return CylinderGrid.regular(n, r_levels=args.grid_r, face_points=args.grid_sphere)
    except ValueError as exc:
        _usage_error(str(exc))


def _parse_vector(name: str, value: str) -> np.ndarray:
    """``eN`` (1-based basis vector) or comma-separated finite numbers."""
    if value.startswith("e") and value[1:].isdigit():
        index = int(value[1:]) - 1
        if index < 0:
            _usage_error(f"generator for {name!r}: basis vectors start at e1, got {value!r}")
        vec = np.zeros(index + 1)
        vec[index] = 1.0
        return vec
    try:
        vec = np.asarray([float(x) for x in value.split(",")], dtype=float)
    except ValueError:
        _usage_error(f"generator for {name!r} must be eN or comma-separated numbers, got {value!r}")
    if not np.all(np.isfinite(vec)):
        _usage_error(f"generator for {name!r} has a non-finite coordinate: {value!r}")
    return vec


def _parse_gens(text: str | None, names: tuple[str, ...],
                n: int | None) -> tuple[dict, int]:
    """Parse ``"v=e1;w=0.5,0.5"`` into vectors of one dimension, returned with
    it: ``n`` when given, else the longest generator.  Default: the basis in
    name order, of dimension ``n`` or the number of names."""
    if text:
        gens = {}
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                _usage_error(f"generator assignment {part!r} is not of the form name=vector")
            name, value = part.split("=", 1)
            gens[name.strip()] = value.strip()
        parsed = {name: _parse_vector(name, value) for name, value in gens.items()}
        dim = n or max((vec.shape[0] for vec in parsed.values()), default=1)
        out = {}
        for name, vec in parsed.items():
            if vec.shape[0] > dim:
                _usage_error(f"generator for {name!r} has {vec.shape[0]} coordinates, "
                             f"more than --n {dim}")
            full = np.zeros(dim)
            full[: vec.shape[0]] = vec
            out[name] = full
        missing = [name for name in names if name not in out]
        if missing:
            _usage_error(f"no generators for variables {missing}")
        return out, dim
    dim = n or max(len(names), 1)
    if len(names) > dim:
        _usage_error(f"{len(names)} variables but dimension {dim}")
    gens = {}
    for i, name in enumerate(names):
        vec = np.zeros(dim)
        vec[i] = 1.0
        gens[name] = vec
    return gens, dim


def _real_line_check(e, args: argparse.Namespace, report: dict, **kwargs):
    """``vanishes_on_reals`` at the CLI's scale, seed and tol, recorded in ``report``."""
    real = vanishes_on_reals(e, scale=3.0, seed=args.seed, tol=args.tol, **kwargs)
    if not math.isfinite(real.max_scaled_residual):
        _usage_error(f"the term or its majorant is not finite at {real.witness}: "
                     f"the input overflows double precision")
    report["real_residual"] = real.max_scaled_residual
    if real.grid_capped:
        report["real_grid_per_axis"] = real.grid_per_axis
    return real


def cmd_check_identity(args: argparse.Namespace) -> int:
    e = _parse_expr_or_exit(args.expr)
    report = _echo(args)
    real = _real_line_check(e, args, report, samples=args.iters * 100)
    report["vanishes_on_reals"] = real.vanishes
    if not real.vanishes:
        report["witness"] = real.witness
        report["verdict"] = "non-identity"
        _emit(report, f"not an identity; witness {real.witness}")
        return 0

    worst, witness = transport_residual(e, args.seed)
    if not math.isfinite(worst):
        model, point = witness
        _usage_error(f"the term or its majorant is not finite in model "
                     f"{model_to_json(model)} at {point}: "
                     f"the input overflows double precision")
    report["model_residual"] = worst
    consistent = worst <= args.tol
    report["verdict"] = "identity" if consistent else "transport-violation"
    if not consistent:
        report["violating_model"] = model_to_json(witness[0])
    _emit(report, f"identity transport residual {worst:.3e}")
    return 0 if consistent else VIOLATION


def cmd_kernel(args: argparse.Namespace) -> int:
    e = _parse_expr_or_exit(args.expr)
    gens, dim = _parse_gens(args.gens, variables(e), args.n)
    if args.grid_sphere < 3:
        _usage_error(f"--grid-sphere must be >= 3 for the ball grid, got {args.grid_sphere}")
    points = args.grid_sphere if args.grid_sphere % 2 == 1 else args.grid_sphere + 1
    try:
        grid = BallGrid(dim, points)
    except ValueError as exc:
        _usage_error(str(exc))
    ball = vanishes_on_ball(e, gens, grid, tol=args.tol)
    report = _echo(args)
    real = _real_line_check(e, args, report)
    if not ball.vanishes:
        verdict = "nonzero on ball"
    elif real.vanishes:
        verdict = "identity"
    else:
        verdict = "ball-kernel witness"
    report.update({"verdict": verdict, "ball_residual": ball.max_residual})
    _emit(report, f"{verdict} (ball residual {ball.max_residual:.3e})")
    return 0


def cmd_surface(args: argparse.Namespace) -> int:
    if args.n != 2:
        _usage_error("surfaces are emitted for dimension 2 only")
    grid = _cylinder_grid(2, args)
    one = constant_one(grid)
    surfaces = {
        "generator_e1.csv": generator([1.0, 0.0], grid),
        "generator_e2.csv": generator([0.0, 1.0], grid),
        "unit_star_unit.csv": star_product(one, one),
    }
    if args.expr:
        e = _parse_expr_or_exit(args.expr)
        gens, _ = _parse_gens(args.gens, variables(e), 2)
        surfaces["expression.csv"] = cylinder_extension(e, gens, grid)
    out_dir = Path(args.out or ".")
    files = [str(out_dir / name) for name in surfaces]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, surface in zip(files, surfaces.values()):
            surface.to_csv(path)
    except OSError as exc:
        _usage_error(f"cannot write the surfaces to {str(out_dir)!r}: {exc}")
    report = _echo(args)
    report["files"] = sorted(files)
    _emit(report, f"wrote {len(files)} surfaces to {out_dir}")
    return 0


def cmd_norm(args: argparse.Namespace) -> int:
    e = _parse_expr_or_exit(args.expr)
    gens, n = _parse_gens(args.gens, variables(e), args.n)
    config = SearchConfig(search_iters=args.iters, seed=args.seed,
                          delta_list=tuple(args.delta or (2.0 ** -5, 2.0 ** -6, 2.0 ** -7)))
    try:
        sandwich = norm_sandwich(e, gens, config, n)
    except ValueError as exc:
        _usage_error(str(exc))
    report = _echo(args)
    report.update({"lower": sandwich.lower, "upper": sandwich.upper,
                   "witness": sandwich.witness.to_json(), "iters": args.iters})
    _emit(report, f"norm in [{sandwich.lower:.6g}, {sandwich.upper:.6g}]")
    return 0


def cmd_discretize(args: argparse.Namespace) -> int:
    e = _parse_expr_or_exit(args.expr)
    gens, n = _parse_gens(args.gens, variables(e), args.n)
    grid = _cylinder_grid(n, args)
    w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
    keys = sorted(gens)
    originals = [generator(gens[name], grid).values for name in keys]
    runs = []
    for delta in args.delta or [2.0 ** -5]:
        try:
            discrete = discretize_generators([v[0] for v in originals], grid, delta)
        except ValueError as exc:
            _usage_error(f"generator absolute-sum norms must stay below 1 + delta = "
                         f"{1.0 + delta} to discretize ({exc})")
        composite_gens = dict(zip(keys, zip(originals, discrete.coefficients)))
        bounds = verify_bounds(discrete.splits, discrete.discretes, w, discrete.weights,
                               discrete.atoms, delta, pair_trials=args.iters, seed=args.seed,
                               composite=e, composite_gens=composite_gens)
        runs.append(bounds.to_json())
    all_ok = all(run["ok"] for run in runs)
    report = _echo(args)
    report["runs"] = runs
    _emit(report, f"{len(runs)} discretization runs, ok={all_ok}")
    return 0 if all_ok else VIOLATION


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--expr", help="expression text")
    sub.add_argument("--gens", help='generator assignment, e.g. "v=e1;w=e2" or "v=0.5,0.5"')
    sub.add_argument("--n", type=int, default=None, help="ambient dimension")
    sub.add_argument("--grid-r", type=int, default=33, dest="grid_r",
                     help="radial levels for cylinder grids")
    sub.add_argument("--grid-sphere", type=int, default=8, dest="grid_sphere",
                     help="points per face axis (cylinder) or per axis (ball)")
    sub.add_argument("--delta", type=float, action="append",
                     help="mesh parameter; repeatable")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--iters", type=int, default=100)
    sub.add_argument("--out", help="output path (directory for surfaces)")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="latalg",
        description="Lattice-algebra expression toolkit: identity checks, "
                    "kernel classification, cylinder surfaces, norm sandwiches "
                    "and level-set discretization.")
    parser.add_argument("--version", action="version", version=f"latalg {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = {
        "check-identity": cmd_check_identity,
        "kernel": cmd_kernel,
        "surface": cmd_surface,
        "norm": cmd_norm,
        "discretize": cmd_discretize,
    }
    for name, func in commands.items():
        sub = subparsers.add_parser(name)
        _add_common(sub)
        sub.set_defaults(func=func)
    args = parser.parse_args(argv)
    if args.command != "surface" and not args.expr:
        _usage_error("--expr is required")
    if args.iters < 0:
        _usage_error(f"--iters must be >= 0, got {args.iters}")
    if args.n is not None and args.n < 1:
        _usage_error(f"--n must be >= 1, got {args.n}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        _usage_error(f"--tol must be a finite number >= 0, got {args.tol}")
    for delta in args.delta or ():
        try:
            build_partition(delta)
        except ValueError as exc:
            _usage_error(str(exc))
    # Overflow surfaces as a non-finite residual or report value, which the
    # commands turn into usage errors; numpy's warnings would only add lines.
    with np.errstate(all="ignore"):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
