"""Command-line front end: ``_OPTIONS`` declares each option once, and each
command takes only the options ``_COMMANDS`` lists for it, echoed in ``params``.

Reports are machine-readable JSON on stdout (byte-identical for identical
configurations, seed included); human summaries go to stderr.  The verdicts
of ``check-identity`` and ``kernel`` rest on finitely many sampled points, and
their reports say so: ``"method": "sampled"``.  Exit codes:
0 success/consistent, 1 property violation found, 2 usage or parse error:
every input the library refuses with a ValueError, reported in one
``error:`` line on stderr.
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
from .ball import BallGrid, generator_vectors, transport_residual, vanishes_on_ball, vanishes_on_reals
from .cylinder import CylinderGrid, constant_one, cylinder_extension, generator, star_product
from .discretize import build_partition, discretize_generators, verify_bounds
from .expr import contains_product, eval_pointwise, parse, variables
from .freenorm import SearchConfig, norm_sandwich
from .models import model_to_json

USAGE_ERROR = 2
VIOLATION = 1


def _echo(args: argparse.Namespace) -> dict:
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
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
    name order, ``"x=e1;y=e2;..."``.  The library binds the variables of the
    term to these vectors and refuses a variable without one."""
    text = text or ";".join(f"{name}=e{i}" for i, name in enumerate(names, 1))
    parsed = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            _usage_error(f"generator assignment {part!r} is not of the form name=vector")
        name, value = (side.strip() for side in part.split("=", 1))
        if name in parsed:
            _usage_error(f"generator {name!r} is assigned twice")
        parsed[name] = _parse_vector(name, value)
    dim = n or max((vec.shape[0] for vec in parsed.values()), default=1)
    for name, vec in parsed.items():
        if vec.shape[0] > dim:
            _usage_error(f"generator for {name!r} has {vec.shape[0]} coordinates, "
                         f"more than the dimension {dim}")
    return {name: np.pad(vec, (0, dim - vec.shape[0])) for name, vec in parsed.items()}, dim


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
    e = parse(args.expr)
    report = _echo(args)
    report["method"] = "sampled"
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
        model, coordinates = witness
        report["violating_model"] = model_to_json(model)
        if not contains_product(e):  # the weights never enter: each model point is a real one
            values = eval_pointwise(e, {name: np.array(v) for name, v in coordinates.items()})
            point = int(np.argmax(np.abs(values)))  # its scaled real residual is at least worst
            report["witness"] = {name: v[point] for name, v in coordinates.items()}
            report["verdict"] = "non-identity"
    _emit(report, f"identity transport residual {worst:.3e}")
    return VIOLATION if report["verdict"] == "transport-violation" else 0


def cmd_kernel(args: argparse.Namespace) -> int:
    e = parse(args.expr)
    gens, dim = _parse_gens(args.gens, variables(e), args.n)
    if args.grid_sphere < 3:
        _usage_error(f"--grid-sphere must be >= 3 for the ball grid, got {args.grid_sphere}")
    points = args.grid_sphere if args.grid_sphere % 2 == 1 else args.grid_sphere + 1
    ball = vanishes_on_ball(e, gens, BallGrid(dim, points), tol=args.tol)
    report = _echo(args)
    report["method"] = "sampled"
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
    if args.n not in (None, 2):
        _usage_error("surfaces are emitted for dimension 2 only")
    grid = CylinderGrid.regular(2, r_levels=args.grid_r, face_points=args.grid_sphere)
    one = constant_one(grid)
    surfaces = {
        "generator_e1.csv": generator([1.0, 0.0], grid),
        "generator_e2.csv": generator([0.0, 1.0], grid),
        "unit_star_unit.csv": star_product(one, one),
    }
    if args.expr:
        e = parse(args.expr)
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
    e = parse(args.expr)
    gens, n = _parse_gens(args.gens, variables(e), args.n)
    config = SearchConfig(search_iters=args.iters, seed=args.seed,
                          delta_list=tuple(args.delta or SearchConfig.delta_list))
    sandwich = norm_sandwich(e, gens, config, n)
    report = _echo(args)
    report.update(sandwich.to_json())
    _emit(report, f"norm in [{sandwich.lower:.6g}, {sandwich.upper:.6g}]")
    return 0


def cmd_discretize(args: argparse.Namespace) -> int:
    e = parse(args.expr)
    gens, n = _parse_gens(args.gens, variables(e), args.n)
    vectors, _ = generator_vectors(e, gens, n)
    grid = CylinderGrid.regular(n, r_levels=args.grid_r, face_points=args.grid_sphere)
    w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
    values = {name: grid.sphere_points @ vec for name, vec in vectors.items()}
    runs = []
    for delta in args.delta or [2.0 ** -5]:
        try:
            discrete = discretize_generators(list(values.values()), grid, delta)
        except ValueError as exc:
            _usage_error(f"generator absolute-sum norms must stay below 1 + delta = "
                         f"{1.0 + delta} to discretize ({exc})")
        composite_gens = {name: (np.broadcast_to(row, grid.shape), coefficients)
                          for (name, row), coefficients in zip(values.items(), discrete.coefficients)}
        bounds = verify_bounds(discrete.splits, discrete.discretes, w, discrete.weights,
                               discrete.atoms, delta, composite=e, composite_gens=composite_gens)
        runs.append(bounds.to_json())
    all_ok = all(run["ok"] for run in runs)
    report = _echo(args)
    report["runs"] = runs
    _emit(report, f"{len(runs)} discretization runs, ok={all_ok}")
    return 0 if all_ok else VIOLATION


def _checked(convert, check):
    """An argparse ``type``: argparse reports text that ``convert`` rejects, and
    the ValueError that ``check`` raises on the value is the usage error."""
    def parse(text: str):
        value = convert(text)
        try:
            check(value)
        except ValueError as exc:
            _usage_error(str(exc))
        return value
    parse.__name__ = convert.__name__  # argparse's message: "invalid int value: 'abc'"
    return parse


def _at_least(flag: str, least):
    def check(value) -> None:
        if not least <= value < math.inf:
            raise ValueError(f"{flag} must lie in [{least}, inf), got {value}")
    return check


_OPTIONS = {
    "expr": dict(help='the term, e.g. "pos(x)*neg(x)"'),
    "gens": dict(help='generators, e.g. "v=e1;w=0.5,0.5" (default: the basis in name order)'),
    "n": dict(type=_checked(int, _at_least("--n", 1)), help="ambient dimension"),
    "grid_r": dict(type=int, default=33, help="radial levels of the cylinder grid"),
    "grid_sphere": dict(type=int, default=8, help="points per axis (ball) or face axis (cylinder)"),
    "delta": dict(type=_checked(float, build_partition), action="append",
                  help="mesh parameter in (0, 1); repeatable"),
    "seed": dict(type=int, default=0, help="seed of every random draw"),
    "tol": dict(type=_checked(float, _at_least("--tol", 0.0)), default=1e-9, help="zero tolerance"),
    "iters": dict(type=_checked(int, _at_least("--iters", 0)), default=100,
                  help="hundreds of real-line samples or ascent atoms"),
    "out": dict(help="directory of the surface CSVs (default: .)"),
}
# Each command with the options it reads; "!" marks a required one.
_COMMANDS = {
    "check-identity": (cmd_check_identity, ("expr!", "seed", "tol", "iters")),
    "kernel": (cmd_kernel, ("expr!", "gens", "n", "grid_sphere", "seed", "tol")),
    "surface": (cmd_surface, ("expr", "gens", "n", "grid_r", "grid_sphere", "out")),
    "norm": (cmd_norm, ("expr!", "gens", "n", "delta", "seed", "iters")),
    "discretize": (cmd_discretize, ("expr!", "gens", "n", "grid_r", "grid_sphere", "delta")),
}


def main(argv=None) -> int:
    # allow_abbrev=False: one spelling per option, no unique prefixes.
    parser = _ArgumentParser(
        prog="latalg", allow_abbrev=False,
        description="Lattice-algebra expression toolkit: identity checks, "
                    "kernel classification, cylinder surfaces, norm sandwiches "
                    "and level-set discretization.")
    parser.add_argument("--version", action="version", version=f"latalg {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (func, options) in _COMMANDS.items():
        sub = subparsers.add_parser(command, allow_abbrev=False)
        for name in options:
            dest = name.rstrip("!")
            sub.add_argument("--" + dest.replace("_", "-"), required=dest != name, **_OPTIONS[dest])
        sub.set_defaults(func=func)
    args = parser.parse_args(argv)
    # Overflow surfaces as a non-finite residual or report value, which the
    # commands turn into usage errors; numpy's warnings would only add lines.
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except ValueError as exc:  # every input the library refuses, parse errors included
        _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
