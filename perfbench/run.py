"""spherelink benchmark: time to a certified Lk, end to end and per layer.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload surface-orders --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload curve-routes --smoke   # tiny grids, self-check

Workloads (each a closed loop with one client; cases run one after another):

* ``surface-orders`` -- small round sphere pairs at (k,l) = (1,1) ... (2,3),
  ``main`` and ``corollary`` each, surface=16, tol=1e-6, SPHERELINK_WORKERS=2.
  Numeric-order kernels and the verification level do the work.
* ``curve-routes`` -- five S^3 curve pairs by all five methods at
  SPHERELINK_WORKERS=1.  The (1,1) kernel is a cheap closed form; the join
  map, reduced kernel, catalog batches, refinement and oracle do the work.
* ``cli-cold`` -- ``python3 -m spherelink.cli link SPEC --stable`` in fresh
  interpreters, 42 per pass.  Start-up, import and kernel builds dominate.

``--trace 0`` repeats untraced passes for ``--seconds`` (at least three)
and prints the end-to-end metrics; ``--trace 1`` runs untraced, traced, traced and
untraced passes (plus, on surface-orders, one pass at one worker) and prints
the per-layer metrics.  The second-to-last stdout line is a JSON record with the
environment, every pass and every case row; the last line is the result.
Outputs also land in ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Span, Tracer, add_sums, finish, layer_sums
from workloads import (
    PY, WORKLOADS, build_cases, cli_row, cross_check_antipodal, module_env,
    run_case, run_process, write_specs,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certified_rate": "ratio",
}
PER_LAYER = {
    "fail_rate": "ratio",
    "underestimate_rate": "ratio",
    "cli.process_ms.p50": "ms",
    "cli.process_ms.p75": "ms",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.interp_s": "s",
    "kernels.build_s": "s",
    "kernels.build_s.max": "s",
    "kernels.eval_s": "s",
    "kernels.eval_points": "count",
    "kernels.ns_per_point": "ns",
    "catalog.batch_s": "s",
    "catalog.batch_points": "count",
    "quadrature.reduce_s": "s",
    "quadrature.refine_s": "s",
    "quadrature.chunks": "count",
    "quadrature.busy_ratio": "ratio",
    "quadrature.thread_speedup": "ratio",
    "engine.evaluate_s.main": "s",
    "engine.evaluate_s.corollary": "s",
    "engine.evaluate_s.join-reduced": "s",
    "engine.evaluate_s.join-full": "s",
    "engine.self_s": "s",
    "engine.pair_nodes": "count",
    "engine.pair_nodes_per_s": "1/s",
    "engine.refine_cost_ratio": "ratio",
    "engine.levels_used": "count",
    "oracle.s": "s",
    "oracle.nodes": "count",
    "trace.overhead_s": "s",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "SPHERELINK_WORKERS")
SETUP_PROBES = 9
MIN_PASSES = 3
MAX_RUN_S = 150.0   # stop starting passes past this, whatever --seconds says


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "spherelink").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    """HEAD of the checkout, read from .git directly (None outside a repo)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError) as exc:   # numpy versions differ in what they expose
        blas = f"unavailable: {exc}"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# set-up: fresh interpreters
# ---------------------------------------------------------------------------

class SetupProbes:
    """Fresh-interpreter set-up samples: ``import spherelink`` plus the first
    ``get_evaluator`` of each order the workload uses.  Samples are taken
    in small batches between passes, so one run's median spans its whole
    duration rather than one moment of machine load."""

    def __init__(self, wl, env, workdir, total: int):
        self.argv = [PY, str(HERE / "probe_setup.py"),
                     *(f"{k},{l}" for k, l in WORKLOADS[wl]["orders"])]
        self.env, self.workdir, self.total = env, workdir, total
        self.samples = []

    def sample(self, n: int):
        for _ in range(min(n, self.total - len(self.samples))):
            _wall, code, out, err, _usage = run_process(self.argv, self.env, self.workdir)
            if code != 0:
                raise RuntimeError(f"set-up probe failed (exit {code}): {err.strip()[-500:]}")
            self.samples.append(json.loads(out.strip().splitlines()[-1]))

    def summary(self) -> dict:
        self.sample(self.total)
        totals = [s["import_s"] + sum(s["build_s"].values()) for s in self.samples]
        builds = [sum(s["build_s"].values()) for s in self.samples]
        return {"setup_s": statistics.median(totals), "build_s": statistics.median(builds),
                "build_s.max": max(builds), "samples": self.samples}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(sl, cases, wl, env, workdir, tracer=None, trace_dir=None) -> dict:
    load_before = os.getloadavg()
    rows = []
    children = []
    t0 = time.perf_counter()
    for i, case in enumerate(cases):
        if wl != "cli-cold":
            if tracer is not None:
                tracer.case = case.case_id
            rows.append(run_case(sl, case))
            continue
        if tracer is None:
            argv = [PY, "-m", "spherelink.cli", "link", case.spec_path, "--stable"]
        else:
            span_file = os.path.join(trace_dir, f"cli_{i}.json")
            argv = [PY, str(HERE / "probe_cli.py"), span_file, "link", case.spec_path,
                    "--stable"]
        wall, code, out, err, usage = run_process(argv, env, workdir)
        row = cli_row(case, wall, code, out, err)
        row["maxrss_kb"] = usage.ru_maxrss
        rows.append(row)
        if tracer is not None:
            children.append((case.case_id, wall, span_file))
    wall = time.perf_counter() - t0
    return {"solve_s": sum(r["seconds"] for r in rows), "wall_s": wall,
            "rows": rows, "children": children, "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(), "workers": os.environ.get("SPHERELINK_WORKERS")}


def gate(rows) -> dict:
    accepted = [r for r in rows if r["accepted"]]
    failed = sum(r["wrong"] or r["uncertified"] for r in rows)
    under = sum(r["underestimate"] for r in accepted)
    return {
        "attempted": len(rows),
        "wrong": sum(r["wrong"] for r in rows),
        "fail_rate": failed / len(rows),
        "underestimate_rate": under / len(accepted) if accepted else 0.0,
        "certified_rate": 1.0 - failed / len(rows),
    }


def solve_seconds(passes) -> float:
    """Each case's median time over the passes, summed: the warm time to
    solve every case once, robust to a stall in any one pass."""
    return sum(statistics.median(p["rows"][i]["seconds"] for p in passes)
               for i in range(len(passes[0]["rows"])))


def end_to_end(passes, setup, wl) -> dict:
    rows = [r for p in passes for r in p["rows"]]
    if wl == "cli-cold":
        peak_kb = max(r["maxrss_kb"] for r in rows)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solve_s": solve_seconds(passes),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_kb / 1024.0,
        "certified_rate": gate(rows)["certified_rate"],
    }


def _cli_children(children):
    """Per-process timings and summed layer sums of a traced cli-cold pass."""
    per_proc, sums = [], {}
    for case_id, wall, path in children:
        with open(path) as fh:
            header = json.loads(fh.readline())
            spans = [Span(**d) for d in json.loads(fh.read())]
        part = layer_sums(spans)
        add_sums(sums, part)
        per_proc.append({"case": case_id, "wall_s": wall, **header, "build_s": part["_build_s"],
                         "interp_s": wall - header["import_s"] - header["main_s"]
                         - header["probe_s"]})
    return per_proc, sums


def per_layer(traced, spans, plain, wl, serial=None) -> dict:
    """Per-layer metrics from the traced passes, as per-pass averages."""
    if wl == "cli-cold":
        per_proc, sums = _cli_children([c for p in traced for c in p["children"]])
        builds = [p["build_s"] for p in per_proc if p["build_s"] > 0]
        q = statistics.quantiles([r["seconds"] for p in plain for r in p["rows"]], n=4,
                                 method="inclusive")
        out = {
            "cli.process_ms.p50": 1e3 * q[1],
            "cli.process_ms.p75": 1e3 * q[2],
            "cli.import_s": statistics.median(p["import_s"] for p in per_proc),
            "cli.main_s": statistics.median(p["main_s"] for p in per_proc),
            "cli.interp_s": statistics.median(p["interp_s"] for p in per_proc),
            "kernels.build_s": statistics.median(builds) if builds else 0.0,
            "kernels.build_s.max": max(builds) if builds else 0.0,
        }
        traced[0]["processes"] = per_proc
    else:
        sums = layer_sums(spans)
        out = {"cli.process_ms.p50": 0.0, "cli.process_ms.p75": 0.0,
               "cli.import_s": 0.0, "cli.main_s": 0.0, "cli.interp_s": 0.0}
    sums = {k: v / len(traced) for k, v in sums.items()}
    rows = traced[0]["rows"]
    engine_rows = [r for r in rows if r["method"] != "oracle" and r["node_counts"]]
    nodes = sum(sum(r["node_counts"]) for r in engine_rows)
    level0 = sum(r["node_counts"][0] for r in engine_rows)
    eval_total = sums["_engine_eval_s"]
    plain_s = statistics.mean(p["solve_s"] for p in plain)
    out.update(finish(sums))
    out.update({
        "engine.pair_nodes": float(nodes),
        "engine.pair_nodes_per_s": nodes / eval_total if eval_total else 0.0,
        "engine.refine_cost_ratio": nodes / level0 if level0 else 0.0,
        "engine.levels_used": float(sum(r["levels_used"] for r in engine_rows)),
        "oracle.nodes": float(sum(sum(r["node_counts"]) for r in rows if r["method"] == "oracle")),
        "quadrature.thread_speedup": serial["solve_s"] / plain_s if serial else 0.0,
        "trace.overhead_s": statistics.mean(p["solve_s"] for p in traced) - plain_s,
    })
    return out


def traced_run(sl, one_pass, wl, workers, workdir):
    """Untraced, traced, traced, untraced passes (the order cancels a steady
    drift in machine speed from the tracing overhead) and, on surface-orders,
    one untraced pass at one worker; returns (passes, per-layer values)."""
    plain = [one_pass()]
    tracer = Tracer()
    tracer.install(sl)
    try:
        traced = []
        for j in range(2):
            trace_dir = os.path.join(workdir, f"trace{j}")
            os.makedirs(trace_dir, exist_ok=True)
            traced.append(one_pass(tracer=tracer, trace_dir=trace_dir))
    finally:
        tracer.uninstall()
    plain.append(one_pass())
    serial = None
    if wl == "surface-orders":
        os.environ["SPHERELINK_WORKERS"] = "1"
        try:
            serial = one_pass()
        finally:
            os.environ["SPHERELINK_WORKERS"] = workers
    if tracer.spans:
        tracer.dump(os.path.join(workdir, "spans.json"))
    values = per_layer(traced, tracer.spans, plain, wl, serial)
    labels = ("untraced", "traced", "traced", "untraced", "workers=1")
    passes = [p for p in (plain[0], *traced, plain[1], serial) if p is not None]
    for p, label in zip(passes, labels):
        p["label"] = label
    g = gate([r for p in passes for r in p["rows"]])
    values["fail_rate"] = g["fail_rate"]
    values["underestimate_rate"] = g["underestimate_rate"]
    return passes, values


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def check_smoke(result, trace: int) -> list:
    """Problems with a smoke result: missing names, wrong units, wrong integers."""
    want = PER_LAYER if trace else END_TO_END
    problems = []
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text())
        declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        if declared != want:
            problems.append(f"BENCHMARK.json declares {declared}, the benchmark emits {want}")
    for name, unit in want.items():
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit or not isinstance(got.get("value"), float):
            problems.append(f"metric {name} missing or not in {unit}: {got}")
    if set(result["metrics"]) != set(want):
        problems.append(f"unexpected metrics: {set(result['metrics']) - set(want)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} case(s) returned a wrong integer or none")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, one pass; check metric names, units and integers")
    args = ap.parse_args(argv)

    if not (SRC / "spherelink" / "__init__.py").is_file():
        print(f"error: no spherelink sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import spherelink as sl

    wl = args.workload
    workers = WORKLOADS[wl]["workers"]
    os.environ["SPHERELINK_WORKERS"] = workers
    env = module_env(str(SRC), workers)
    out_dir = HERE / "out"
    workdir = out_dir / f"{wl}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    record = {"workload": wl, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
              "seconds": args.seconds, "environment": environment(np),
              "loadavg_start": os.getloadavg()}
    probes = SetupProbes(wl, env, str(workdir), 2 if args.smoke else SETUP_PROBES)
    probes.sample(3)
    cases = build_cases(sl, wl, args.seed, args.smoke)
    write_specs(cases, str(workdir))
    xcheck = cross_check_antipodal(sl, cases)   # also warms every code path

    def one_pass(**kw):
        p = run_pass(sl, cases, wl, env, str(workdir), **kw)
        probes.sample(2)
        return p

    if args.trace:
        passes, values = traced_run(sl, one_pass, wl, workers, str(workdir))
        setup = probes.summary()
        if wl != "cli-cold":   # cli-cold times builds inside its traced CLI processes
            values["kernels.build_s"] = setup["build_s"]
            values["kernels.build_s.max"] = setup["build_s.max"]
    else:
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(one_pass())
            elapsed = time.perf_counter() - t0
            typical = statistics.median(p["wall_s"] for p in passes)
            if args.smoke or time.perf_counter() - started + typical > MAX_RUN_S:
                break
            # at least MIN_PASSES, so each case's median outvotes one stalled
            # pass, then stop where the next pass would end more than half a
            # pass past --seconds; on a slow machine, never run more than a
            # fifth past --seconds, so a set of runs keeps its time budget
            if elapsed + typical > 1.2 * args.seconds:
                break
            if len(passes) >= MIN_PASSES and elapsed + typical / 2 >= args.seconds:
                break
        setup = probes.summary()
        values = end_to_end(passes, setup, wl)

    rows = xcheck + [r for p in passes for r in p["rows"]]
    g = gate(rows)
    record.update({
        "setup": setup, "antipodal_checks": xcheck, "gate": g,
        "passes": [{k: v for k, v in p.items() if k != "children"} for p in passes],
        "loadavg_end": os.getloadavg(), "run_s": time.perf_counter() - started,
    })
    result = {
        "correct": g["wrong"] == 0,
        "attempted": g["attempted"],
        "failed": g["wrong"],
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END).items()},
    }
    text = json.dumps({"record": record}, default=str)
    (workdir / "record.json").write_text(text)
    print(text)
    print(json.dumps(result))
    if args.smoke:
        problems = check_smoke(result, args.trace)
        for p in problems:
            print(f"smoke: {p}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
