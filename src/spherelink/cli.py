"""Command-line interface.

Subcommands:
  link         evaluate a link spec (JSON) and print a run report (JSON)
  phi          tabulate the distance kernels to CSV
  convergence  per-level values of a link run, CSV
  catalog      list catalog kinds and their parameter schemas
  oracle       R^3 Gauss-integral oracle for an S^3 curve-pair spec

Exit codes for link/oracle: 0 when the value rounds to an accepted integer,
2 when rounding is rejected or the quadrature did not converge, 1 for any
validation problem (malformed JSON, dimension mismatch, disjointness).

All floating-point output is formatted with 17 significant digits, which
round-trips IEEE doubles exactly; reports serialize with sorted keys so a
given spec and version yields byte-identical output (pass --stable to zero
the wall-time field, the one legitimately varying value).
"""

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .catalog import build_entry, catalog_schemas
from .engine import (
    DisjointnessError,
    GridSpec,
    evaluate_corollary,
    evaluate_join_degree,
    evaluate_main_theorem,
    round_to_linking,
)
from .kernels import get_evaluator
from .oracle import oracle_linking

METHODS = ("main", "corollary", "join-full", "join-reduced", "oracle")


def _fmt(x) -> str:
    """17-significant-digit formatting (lossless for IEEE doubles)."""
    return format(float(x), ".17g")


def _to_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_to_json(obj[k])}" for k in sorted(obj))
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def _load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(spec, dict):
        raise ValueError(f"a spec must be a JSON object, got {type(spec).__name__}")
    return spec


def _field(obj: dict, key: str, conv, default, where: str = ""):
    """obj[key] converted by conv, or default when absent.

    A value conv rejects raises ValueError naming the field.
    """
    if key not in obj:
        return default
    try:
        return conv(obj[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"spec field '{where}{key}' must be {conv.__name__}, got {obj[key]!r}") from exc


def _object(spec: dict, key: str) -> dict:
    """An optional object-valued field; null or empty reads as {}."""
    value = spec.get(key) or {}
    if not isinstance(value, dict):
        raise ValueError(f"spec field {key!r} must be an object, got {value!r}")
    return value


def _grid_from_spec(spec: dict) -> GridSpec:
    g = _object(spec, "grid")
    return GridSpec(
        curve=_field(g, "curve", int, 64, "grid."),
        surface=_field(g, "surface", int, 32, "grid."),
        u=_field(g, "u", int, 32, "grid."),
        k_nodes=_field(g, "k", int, None, "grid."),
        l_nodes=_field(g, "l", int, None, "grid."),
    )


def _validate_spec(spec: dict) -> tuple:
    for field in ("ambient_n", "K", "L", "method"):
        if field not in spec:
            raise ValueError(f"spec is missing required field {field!r}")
    n = _field(spec, "ambient_n", int, None)
    if spec["method"] not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    K = build_entry(spec["K"], n)
    L = build_entry(spec["L"], n)
    if K.dim + L.dim != n - 1:
        raise ValueError(
            f"dim K + dim L = {K.dim + L.dim}, but the linking integral requires "
            f"dim K + dim L = n - 1 = {n - 1}"
        )
    if spec["method"] == "oracle" and (n != 3 or K.dim != 1 or L.dim != 1):
        raise ValueError("the oracle method requires two curves in S^3")
    return n, K, L


def _apply_overrides(spec: dict, args) -> dict:
    spec = dict(spec)
    if getattr(args, "tol", None) is not None:
        spec["tol"] = args.tol
    if getattr(args, "max_level", None) is not None:
        spec["max_level"] = args.max_level
    if getattr(args, "min_alpha", None) is not None:
        spec["min_alpha"] = args.min_alpha
    if getattr(args, "grid", None):
        g = dict(_object(spec, "grid"))
        for part in args.grid.split(","):
            key, _, val = part.partition("=")
            if key.strip() not in ("k", "l", "u", "curve", "surface") or not val:
                raise ValueError(f"bad --grid component {part!r}; use k=..,l=..,u=..")
            g[key.strip()] = int(val)
        spec["grid"] = g
    if getattr(args, "seed", None) is not None:
        spec["seed"] = args.seed
    return spec


def _dispatch(spec: dict):
    _, K, L = _validate_spec(spec)
    method = spec["method"]
    grid = _grid_from_spec(spec)
    tol = _field(spec, "tol", float, 1e-9)
    max_level = _field(spec, "max_level", int, 4)
    min_alpha = _field(spec, "min_alpha", float, 0.01)
    if method == "oracle":
        m = grid.nodes_for(K, "k")
        if grid.l_nodes is not None and grid.l_nodes != m:
            raise ValueError(f"spec field 'grid.l' ({grid.l_nodes}) must equal the K node "
                             f"count ({m}): the oracle takes one count for both curves")
        return oracle_linking(K, L, m=m, tol=tol, max_level=max_level)
    kw = dict(grid=grid, tol=tol, max_level=max_level, min_alpha=min_alpha)
    if method == "main":
        return evaluate_main_theorem(K, L, **kw)
    if method == "corollary":
        return evaluate_corollary(K, L, **kw)
    return evaluate_join_degree(K, L, variant=method.removeprefix("join-"), **kw)


def _kernel_mode(spec: dict) -> str:
    return "gauss" if spec["method"] == "oracle" else "closed_form"


def _apply_thresholds(spec: dict, report):
    """Optional spec-level rounding thresholds re-round the raw value."""
    thr = _object(spec, "thresholds")
    if not thr:
        return report.nearest_integer, report.residual, report.accepted
    nearest, residual, accepted = round_to_linking(
        report.raw_value, report.error_estimate,
        residual_cap=_field(thr, "residual_cap", float, 0.25, "thresholds."),
        error_mult=_field(thr, "error_mult", float, 10.0, "thresholds."),
        error_floor=_field(thr, "error_floor", float, 1e-6, "thresholds."))
    return nearest, residual, accepted and report.converged


def _run_report(spec: dict, report, kernel_mode: str, wall_ms: float) -> dict:
    nearest, residual, accepted = _apply_thresholds(spec, report)
    linking = -nearest if report.method.startswith("join_degree") else nearest
    return {
        "kernel_mode": kernel_mode,
        "node_counts": list(report.node_counts),
        "report": {
            "raw_value": report.raw_value,
            "nearest_integer": nearest,
            "linking_number": linking,
            "residual": residual,
            "error_estimate": report.error_estimate,
            "min_alpha": report.min_alpha,
            "max_alpha": report.max_alpha,
            "method": report.method,
            "converged": report.converged,
            "accepted": accepted,
            "levels_used": report.levels_used,
        },
        "spec": spec,
        "version": __version__,
        "wall_time_ms": wall_ms,
    }


def _run_and_print(spec: dict, args) -> int:
    t0 = time.perf_counter()
    report = _dispatch(spec)
    wall = 0.0 if args.stable else (time.perf_counter() - t0) * 1e3
    out = _run_report(spec, report, _kernel_mode(spec), wall)
    print(_to_json(out))
    return 0 if (out["report"]["accepted"] and report.converged) else 2


def cmd_link(args) -> int:
    return _run_and_print(_apply_overrides(_load_spec(args.spec), args), args)


def cmd_oracle(args) -> int:
    spec = _apply_overrides(_load_spec(args.spec), args)
    spec["method"] = "oracle"
    return _run_and_print(spec, args)


def cmd_phi(args) -> int:
    if args.k < 0 or args.l < 0:
        raise ValueError("kernel orders must be nonnegative")
    ev = get_evaluator(args.k, args.l)
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.num)
    print("alpha,phi,kernel_ratio,convolution")
    phi_vals = np.atleast_1d(ev.phi(alphas))
    ratio_vals = np.atleast_1d(ev.kernel_ratio(alphas))
    conv_vals = np.atleast_1d(ev.convolution(alphas))
    for a, p, r, c in zip(alphas, phi_vals, ratio_vals, conv_vals):
        print(f"{_fmt(a)},{_fmt(p)},{_fmt(r)},{_fmt(c)}")
    return 0


def cmd_convergence(args) -> int:
    """Per-level values of the run `link` makes, refined `--levels` times.

    Row j compares the grid refined j times with the one before it; its
    converged flag tests that difference against the spec's tolerance.
    """
    if args.levels < 1:
        raise ValueError(f"--levels must be at least 1, got {args.levels}")
    spec = _apply_overrides(_load_spec(args.spec), args)
    tol = _field(spec, "tol", float, 1e-9)
    report = _dispatch(dict(spec, tol=0.0, max_level=args.levels - 1))
    values = report.level_values
    print("level,nodes,value,error_estimate,converged")
    for j in range(1, len(values)):
        err = abs(values[j] - values[j - 1])
        print(f"{j},{report.node_counts[j]},{_fmt(values[j])},"
              f"{_fmt(err)},{str(err < tol).lower()}")
    return 0


def cmd_catalog(args) -> int:
    schemas = catalog_schemas()
    if args.json:
        print(_to_json(schemas))
        return 0
    for kind in sorted(schemas):
        print(kind)
        for field, desc in schemas[kind].items():
            print(f"  {field}: {desc}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherelink",
        description="Linking numbers of closed submanifolds of the n-sphere.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("spec", help="path to a JSON link spec")
        p.add_argument("--tol", type=float, default=None,
                       help="refinement tolerance (default from spec or 1e-9)")
        p.add_argument("--grid", default=None,
                       help="node-count overrides, e.g. k=64,l=32,u=16")
        p.add_argument("--max-level", type=int, default=None, dest="max_level",
                       help="refinement levels allowed after levels 0 and 1, "
                            "which always run (at most max_level + 1 grid doublings)")
        p.add_argument("--min-alpha", type=float, default=None, dest="min_alpha",
                       help="disjointness threshold in radians")
        p.add_argument("--seed", type=int, default=None,
                       help="seed echoed into the report (randomized fixtures only)")
        p.add_argument("--stable", action="store_true",
                       help="zero the wall-time field for byte-identical reports")

    p_link = sub.add_parser("link", help="evaluate a link spec")
    add_run_flags(p_link)
    p_link.set_defaults(func=cmd_link)

    p_phi = sub.add_parser("phi", help="tabulate the kernels to CSV")
    p_phi.add_argument("--k", type=int, required=True)
    p_phi.add_argument("--l", type=int, required=True)
    p_phi.add_argument("--alpha-min", type=float, default=0.01, dest="alpha_min")
    p_phi.add_argument("--alpha-max", type=float, default=float(np.pi), dest="alpha_max")
    p_phi.add_argument("--num", type=int, default=65)
    p_phi.set_defaults(func=cmd_phi)

    p_conv = sub.add_parser("convergence", help="per-level refinement study")
    add_run_flags(p_conv)
    p_conv.add_argument("--levels", type=int, default=4)
    p_conv.set_defaults(func=cmd_convergence)

    p_cat = sub.add_parser("catalog", help="list catalog kinds")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(func=cmd_catalog)

    p_oracle = sub.add_parser("oracle", help="R^3 Gauss oracle for S^3 curves")
    add_run_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, DisjointnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
