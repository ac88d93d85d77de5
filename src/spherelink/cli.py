"""Command-line interface.

Subcommands:
  link     evaluate a link spec (JSON) and print a run report (JSON)
  phi      tabulate the distance kernels to CSV
  catalog  list catalog kinds and their parameter schemas

Every spec method is an entry of the engine's route table, the Gauss
integral of the stereographic images in R^n (written on S^n, any order)
included.  A refinement study is `link --tol 0 --max-level N`.  Each of its
N + 1 steps probes every chart factor once, a periodic factor doubled and
an open one by its Gauss-Kronrod rule; each of the first N steps then
doubles every factor in the base, and the last grows nothing.  Its report holds the value and node count of every
level sum, each step's base grid and its one-factor probes.

Exit codes: 0 when the value rounds to an accepted integer, 2 when rounding
is rejected or the quadrature did not converge, 1 for any invalid input
(a usage error, malformed JSON, dimension mismatch, disjointness).

All floating-point output is formatted with 17 significant digits, which
round-trips IEEE doubles exactly; reports serialize with sorted keys so a
given spec and version yields byte-identical output (pass --stable to zero
the wall-time field, the one legitimately varying value).

The CLI restates no library decision: the method list, each method's curve
default, the method that holds min_alpha fixed and the report's
kernel_mode come from the engine's route table, a run report holds every
LinkingReport field, and an absent spec field takes the library's default.
"""

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__
from .catalog import _float, _int, build_entry, catalog_schemas
from .engine import _ROUTES, DisjointnessError, GridSpec, _evaluate
from .kernels import get_evaluator

METHODS = tuple(_ROUTES)


def _count(value) -> int:
    """A grid node count: an integer >= 1."""
    count = _int(value)
    if count < 1:
        raise ValueError(f"expected a node count >= 1, got {value!r}")
    return count


# most rows `spherelink phi` tabulates: its four float64 columns stay near 32 MB
PHI_MAX_ROWS = 1 << 20


def _rows(value) -> int:
    """A `phi` row count: a node count of at most PHI_MAX_ROWS."""
    count = _count(value)
    if count > PHI_MAX_ROWS:
        raise ValueError(f"expected at most {PHI_MAX_ROWS} rows, got {value!r}")
    return count


# optional spec fields and their converters, forwarded to the engine only
# when present, so an absent field takes the engine's default; each run
# flag's argparse dest is its spec key
_RUN_FIELDS = {"tol": _float, "max_level": _int, "min_alpha": _float}
_THRESHOLD_FIELDS = {"residual_cap": _float, "error_mult": _float, "error_floor": _float}
_GRID_FIELDS = {"curve": _count, "surface": _count, "u": _count, "k": _count, "l": _count}
# grid keys named otherwise on GridSpec
_GRID_NAMES = {"k": "k_nodes", "l": "l_nodes"}


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


def _field(obj: dict, key: str, conv, where: str = ""):
    """obj[key] converted by conv; a value conv rejects raises ValueError
    naming the field."""
    try:
        return conv(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"spec field '{where}{key}' is malformed: {exc}") from exc


def _present(obj: dict, fields: dict, where: str = "") -> dict:
    """{key: converted value} of each of `fields` (key: type) that obj holds."""
    return {key: _field(obj, key, conv, where) for key, conv in fields.items() if key in obj}


def _object(spec: dict, key: str) -> dict:
    """An optional object-valued field; null or empty reads as {}."""
    value = spec.get(key) or {}
    if not isinstance(value, dict):
        raise ValueError(f"spec field {key!r} must be an object, got {value!r}")
    return value


def _validate_spec(spec: dict) -> tuple:
    for field in ("ambient_n", "K", "L", "method"):
        if field not in spec:
            raise ValueError(f"spec is missing required field {field!r}")
    n = _field(spec, "ambient_n", _int)
    if spec["method"] not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    return build_entry(spec["K"], n), build_entry(spec["L"], n)


def _apply_overrides(spec: dict, args) -> dict:
    spec = dict(spec, **{key: vars(args)[key] for key in _RUN_FIELDS
                         if vars(args)[key] is not None})
    if args.grid:
        g = dict(_object(spec, "grid"))
        for part in args.grid.split(","):
            key, _, val = (s.strip() for s in part.partition("="))
            if key not in _GRID_FIELDS or not val.isdecimal():
                raise ValueError(f"bad --grid component {part!r}; use k=..,l=..,u=.. "
                                 "with integer node counts")
            g[key] = int(val)
        spec["grid"] = g
    return spec


def _dispatch(spec: dict):
    """Run the spec's method, forwarding only the fields the spec holds."""
    K, L = _validate_spec(spec)
    method = spec["method"]
    route = _ROUTES[method]
    grid = _present(_object(spec, "grid"), _GRID_FIELDS, "grid.")
    grid = {_GRID_NAMES.get(key, key): value for key, value in grid.items()}
    kw = _present(spec, _RUN_FIELDS)
    if "min_alpha" in kw and route.min_alpha is not None:
        raise ValueError(f"spec field 'min_alpha' does not apply to method {method}, which "
                         f"checks geodesic separation at the fixed {route.min_alpha} rad")
    return _evaluate(method, K, L, GridSpec(**{"curve": route.curve, **grid}), **kw)


def _apply_thresholds(spec: dict, report):
    """The report re-rounded at the rounding thresholds the spec holds."""
    return report.rounded(**_present(_object(spec, "thresholds"), _THRESHOLD_FIELDS,
                                     "thresholds."))


def _run_report(spec: dict, report, wall_ms: float) -> dict:
    """The run report: every LinkingReport field and linking_number under
    "report", except node_counts, which sits beside it."""
    fields = dataclasses.asdict(report)
    return {
        "kernel_mode": _ROUTES[spec["method"]].kernel_mode,
        "node_counts": fields.pop("node_counts"),
        "report": dict(fields, linking_number=report.linking_number),
        "spec": spec,
        "version": __version__,
        "wall_time_ms": wall_ms,
    }


def cmd_link(args) -> int:
    spec = _apply_overrides(_load_spec(args.spec), args)
    t0 = time.perf_counter()
    report = _dispatch(spec)
    wall = 0.0 if args.stable else (time.perf_counter() - t0) * 1e3
    report = _apply_thresholds(spec, report)
    print(_to_json(_run_report(spec, report, wall)))
    return 0 if report.accepted else 2


def cmd_phi(args) -> int:
    for dest, conv in (("alpha_min", _float), ("alpha_max", _float), ("num", _rows)):
        try:
            conv(vars(args)[dest])
        except ValueError as exc:
            raise ValueError(f"--{dest.replace('_', '-')} is malformed: {exc}") from exc
    ev = get_evaluator(args.k, args.l)
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.num)
    phi_vals = np.atleast_1d(ev.phi_fast(alphas))
    ratio_vals = np.atleast_1d(ev.kernel_ratio(alphas))
    conv_vals = np.atleast_1d(ev.convolution_fast(alphas))
    print("alpha,phi,kernel_ratio,convolution")
    for a, p, r, c in zip(alphas, phi_vals, ratio_vals, conv_vals):
        print(f"{_fmt(a)},{_fmt(p)},{_fmt(r)},{_fmt(c)}")
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every other invalid input does; exit 2 is a
    rejected or unconverged result.  Subparsers take this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spherelink",
        description="Linking numbers of closed submanifolds of the n-sphere.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_link = sub.add_parser("link", help="evaluate a link spec")
    p_link.add_argument("spec", help="path to a JSON link spec")
    p_link.add_argument("--tol", type=float, default=None,
                        help="refinement tolerance on the Lk scale "
                             "(default from spec or 1e-9)")
    p_link.add_argument("--grid", default=None,
                        help="node-count overrides, e.g. k=64,l=32,u=16")
    p_link.add_argument("--max-level", type=int, default=None, dest="max_level",
                        help="doublings allowed per chart factor of the base grid; "
                             "probes go one further")
    p_link.add_argument("--min-alpha", type=float, default=None, dest="min_alpha",
                        help="geodesic disjointness threshold in radians (refused by "
                             "a method that holds it fixed)")
    p_link.add_argument("--stable", action="store_true",
                        help="zero the wall-time field for byte-identical reports")
    p_link.set_defaults(func=cmd_link)

    p_phi = sub.add_parser("phi", help="tabulate the kernels to CSV")
    p_phi.add_argument("--k", type=int, required=True)
    p_phi.add_argument("--l", type=int, required=True)
    p_phi.add_argument("--alpha-min", type=float, default=0.01, dest="alpha_min")
    p_phi.add_argument("--alpha-max", type=float, default=float(np.pi), dest="alpha_max")
    p_phi.add_argument("--num", type=int, default=65)
    p_phi.set_defaults(func=cmd_phi)

    p_cat = sub.add_parser("catalog", help="list catalog kinds")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(func=cmd_catalog)

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
