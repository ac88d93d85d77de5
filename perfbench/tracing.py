"""Spans recorded around calls into spherelink's public functions.

A :class:`Tracer` wraps the functions each layer exposes, patching every
name under which the package looks them up (modules import by name, so
``spherelink.engine.run_chunked`` is wrapped as well as
``spherelink.quadrature.run_chunked``).  Each span records its name, layer,
start, end, parent span and case id; spans stay in memory until
:meth:`Tracer.dump`.  :func:`layer_sums` and :func:`finish` turn span lists
into the per-layer metrics.
"""

import functools
import itertools
import json
import threading
import time

from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    case: str | None
    points: int = 0       # kernel: alpha values; catalog: chart points
    chunks: int = 0       # run_chunked: chunk count
    workers: int = 0      # run_chunked: threads that could run chunks

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.case: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    # -- span recording -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer, name, fn, args, kwargs, parent=None, points=0):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        span = Span(sid, parent, layer, name, 0.0, 0.0, self.case, points)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(self, layer, name, fn, points=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = points(args) if points else 0
            return self.call(layer, name, fn, args, kwargs, points=n)[0]
        return traced

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, sl):
        """Wrap the public functions of every hot-path module of `sl`."""
        kernels, catalog, quadrature = sl.kernels, sl.catalog, sl.quadrature
        engine, oracle = sl.engine, sl.oracle
        cli = getattr(sl, "cli", None)

        # kernels: table build and the three evaluation entry points
        kev = kernels.KernelEvaluator
        self._patch(kev, "__init__", self.wrap("kernels", "build", kev.__init__))
        for meth in ("kernel_ratio", "convolution_fast", "phi_fast"):
            self._patch(kev, meth, self.wrap("kernels", meth, getattr(kev, meth),
                                             points=lambda a: _size(a[1])))

        # catalog: batch on every concrete submanifold class
        for cls in _subclasses(catalog.OrientedSubmanifold):
            if "batch" in cls.__dict__:
                self._patch(cls, "batch", self.wrap("catalog", f"{cls.__name__}.batch",
                                                    cls.__dict__["batch"],
                                                    points=lambda a: _rows(a[1])))

        # quadrature: reductions, refinement and the chunk runner, wherever named
        orig_rc = quadrature.run_chunked
        for fname in ("tree_sum", "tree_sum_axis"):
            traced = self.wrap("quadrature", fname, getattr(quadrature, fname))
            for mod in (quadrature, engine, oracle):
                if hasattr(mod, fname):
                    self._patch(mod, fname, traced)
        self._patch(quadrature, "run_chunked",
                    self._traced_run_chunked(orig_rc, quadrature, "quadrature"))
        self._patch(engine, "run_chunked", self._traced_run_chunked(orig_rc, quadrature, "engine"))
        self._patch(engine, "refine_until", self._traced_refine(quadrature.refine_until))

        # engine evaluators and the oracle, in every namespace that calls them
        evals = {
            "evaluate_main_theorem": lambda a, k: "main",
            "evaluate_corollary": lambda a, k: "corollary",
            "evaluate_join_degree": lambda a, k: "join-" + k.get(
                "variant", a[3] if len(a) > 3 else "reduced"),
        }
        for fname, method_of in evals.items():
            traced = self._traced_evaluator(getattr(engine, fname), method_of)
            for mod in (engine, sl, cli):
                if mod is not None and hasattr(mod, fname):
                    self._patch(mod, fname, traced)
        traced_oracle = self.wrap("oracle", "oracle_linking", oracle.oracle_linking)
        for mod in (oracle, sl, cli):
            if mod is not None and hasattr(mod, "oracle_linking"):
                self._patch(mod, "oracle_linking", traced_oracle)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _traced_run_chunked(self, orig, quadrature, work_layer):
        tracer = self

        @functools.wraps(orig)
        def run_chunked(total, work, workers=None, chunk=quadrature.CHUNK):
            nchunks = -(-int(total) // int(chunk))
            w = workers if workers is not None else quadrature.worker_count()
            eff = 1 if w <= 1 or nchunks <= 1 else min(w, nchunks)
            holder = {}

            def traced_work(s, e):
                return tracer.call(work_layer, "work", work, (s, e), {},
                                   parent=holder["sid"])[0]

            def body():
                holder["sid"] = tracer._stack()[-1]
                return orig(total, traced_work, workers, chunk)

            out, span = tracer.call("quadrature", "run_chunked", body, (), {})
            span.chunks, span.workers = nchunks, eff
            return out
        return run_chunked

    def _traced_refine(self, orig):
        tracer = self

        @functools.wraps(orig)
        def refine_until(grid0, integrand, *args, **kwargs):
            traced_integrand = tracer.wrap("engine", "integrand", integrand)
            return tracer.call("quadrature", "refine_until", orig,
                               (grid0, traced_integrand) + args, kwargs)[0]
        return refine_until

    def _traced_evaluator(self, orig, method_of):
        tracer = self

        @functools.wraps(orig)
        def evaluator(*args, **kwargs):
            return tracer.call("engine", "evaluate." + method_of(args, kwargs), orig,
                               args, kwargs)[0]
        return evaluator

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


def _size(a) -> int:
    size = getattr(a, "size", None)
    return int(size) if size is not None else 1


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    return int(shape[0]) if shape else 1


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_sums(spans) -> dict:
    """Additive per-layer sums over a span list (one pass, or one process).

    Kernel and catalog figures count outermost spans of their layer only
    (``kernel_ratio`` calls ``phi_fast``; a rotated manifold's batch calls
    its base's).  ``engine.self_s`` sums, over engine spans (evaluators,
    the engine's chunk work and the join-full integrand), each span's
    duration minus the union of its children's intervals.  Spans on worker
    threads add up, so these are thread times, not wall times.  Keys that
    start with ``_`` are inputs to :func:`finish`.
    """
    by_id = {s.sid: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def outermost(layer):
        return [s for s in spans if s.layer == layer
                and (s.parent not in by_id or by_id[s.parent].layer != layer)]

    kern = [s for s in outermost("kernels") if s.name != "build"]
    cat = outermost("catalog")
    runs = [s for s in spans if s.name == "run_chunked"]
    evals = [s for s in spans if s.name.startswith("evaluate.")]
    out = {
        "kernels.eval_s": sum(s.seconds for s in kern),
        "kernels.eval_points": float(sum(s.points for s in kern)),
        "catalog.batch_s": sum(s.seconds for s in cat),
        "catalog.batch_points": float(sum(s.points for s in cat)),
        "quadrature.reduce_s": sum(s.seconds for s in spans
                                   if s.name in ("tree_sum", "tree_sum_axis")),
        "quadrature.refine_s": sum(s.seconds for s in spans if s.name == "refine_until"),
        "quadrature.chunks": float(sum(s.chunks for s in runs)),
        "engine.self_s": sum(
            s.seconds - _union_length([(c.start, c.end) for c in children.get(s.sid, [])],
                                      s.start, s.end)
            for s in spans if s.layer == "engine"),
        "oracle.s": sum(s.seconds for s in spans if s.layer == "oracle"),
        "_work_s": sum(s.seconds for s in spans if s.name == "work"),
        "_capacity_s": sum(s.seconds * s.workers for s in runs),
        "_engine_eval_s": sum(s.seconds for s in evals),
        "_build_s": sum(s.seconds for s in spans if s.name == "build"),
    }
    for method in ("main", "corollary", "join-reduced", "join-full"):
        out[f"engine.evaluate_s.{method}"] = sum(
            s.seconds for s in evals if s.name == "evaluate." + method)
    return out


def add_sums(total: dict, part: dict) -> dict:
    for key, val in part.items():
        total[key] = total.get(key, 0.0) + val
    return total


def finish(sums: dict) -> dict:
    """Ratios from (possibly summed) :func:`layer_sums`; drops private keys.

    ``quadrature.busy_ratio`` is the chunk work's time over the threads
    that could run it times the ``run_chunked`` wall time."""
    out = {k: v for k, v in sums.items() if not k.startswith("_")}
    points = sums["kernels.eval_points"]
    out["kernels.ns_per_point"] = 1e9 * sums["kernels.eval_s"] / points if points else 0.0
    cap = sums["_capacity_s"]
    out["quadrature.busy_ratio"] = sums["_work_s"] / cap if cap else 0.0
    return out
