"""The benchmark's workloads: seeded inputs, expected integers, case runners.

Every case carries the integer it must produce and a one-line reason.  The
linking number ``lk`` is what ``main``, ``oracle`` and the CLI report; the
corollary integral is expected to give ``lk + (-1)^n lk_anti`` with
``lk_anti = Lk(K, -L)``; the join routes report the join-map degree, whose
expected value is ``-lk``.
"""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# Round-off floor added to a case's own error estimate before its distance
# from the expected integer counts as an underestimate.
ROUNDOFF_FLOOR = 1e-12

SURFACE_ORDERS = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3))
SMALL_SPHERE_RADIUS = 1.2

# Perturbation scale of the seeded Fourier pair.  At 0.12 (the test-suite
# default) about one seed in six needs a second join-full level, which
# moves curve-routes solve_s by ~20% from seed to seed.
FOURIER_SCALE = 0.06
FOURIER_MIN_SEP = 0.15

HOPF_BASE = np.array([0.3, -0.2, 0.8, 0.4]) / np.linalg.norm([0.3, -0.2, 0.8, 0.4])

CLI_ROUNDS = 6            # 7 specs x 6 rounds = 42 processes per pass
CLI_TIMEOUT_S = 60.0
PY = sys.executable or "python3"


@dataclass
class Case:
    case_id: str
    method: str           # main | corollary | join-reduced | join-full | oracle
    k: int
    l: int
    lk: int               # expected linking number
    reason: str
    lk_anti: int = 0      # expected Lk(K, -L), used by corollary cases
    K: object = None
    L: object = None
    kwargs: dict = field(default_factory=dict)
    spec: dict | None = None   # CLI spec (cli-cold only)
    spec_path: str | None = None

    @property
    def n(self) -> int:
        return self.k + self.l + 1

    @property
    def expected_raw(self) -> int:
        """The integer the method's raw value should round to."""
        if self.method == "corollary":
            return self.lk + (-1) ** self.n * self.lk_anti
        if self.method.startswith("join"):
            return -self.lk
        return self.lk

    @property
    def expected_linking(self) -> int:
        """The integer the CLI reports as ``linking_number``."""
        return -self.expected_raw if self.method.startswith("join") else self.expected_raw


def antipodal_sign(l: int) -> int:
    """Lk(K, -L) / Lk(K, L) for the pairs below: the orientation sign
    (-1)^(l+1) that negating L's base and tangent columns carries."""
    return (-1) ** (l + 1)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def random_rotation(dim: int, rng) -> np.ndarray:
    """Element of SO(dim) via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def small_sphere_pair(sl, k: int, l: int, rot: np.ndarray):
    """Shrunk copies of the nested great spheres, carried by `rot`."""
    d = k + l + 2
    eye = np.eye(d)
    center_k, frame_k = eye[k + 1], eye[: k + 1]
    center_l, frame_l = eye[0], eye[k + 1 : k + l + 2]
    return (sl.small_round_sphere(k, rot @ center_k, SMALL_SPHERE_RADIUS, frame_k @ rot.T),
            sl.small_round_sphere(l, rot @ center_l, SMALL_SPHERE_RADIUS, frame_l @ rot.T))


def _fourier_points(cc, sc, samples: int):
    s = np.arange(samples) * (2 * np.pi / samples)
    j = np.arange(cc.shape[0])
    c = np.cos(np.outer(s, j)) @ cc + np.sin(np.outer(s, j)) @ sc
    return c / np.linalg.norm(c, axis=1, keepdims=True), float(np.min(np.linalg.norm(c, axis=1)))


def _homotopy_disjoint(c1, c2, min_sep: float, steps: int = 16, samples: int = 64) -> bool:
    """Coefficients linearly homotoped from the orthogonal great circles
    (t = 0) to the sampled pair (t = 1) stay disjoint on a dense scan, so the
    pair links like the great circles, +1."""
    base1, base2 = _fourier_base()
    for t in np.linspace(0.0, 1.0, steps + 1):
        p1, r1 = _fourier_points(*(b + t * (c - b) for b, c in zip(base1, c1)), samples)
        p2, r2 = _fourier_points(*(b + t * (c - b) for b, c in zip(base2, c2)), samples)
        if min(r1, r2) < 1e-3:
            return False
        alpha = np.arccos(np.clip(p1 @ p2.T, -1.0, 1.0))
        if float(alpha.min()) <= min_sep or float(alpha.max()) >= np.pi - min_sep:
            return False
    return True


def _fourier_base():
    cc1, sc1, cc2, sc2 = (np.zeros((3, 4)) for _ in range(4))
    cc1[1, 0] = sc1[1, 1] = 1.0
    cc2[1, 2] = sc2[1, 3] = 1.0
    return (cc1, sc1), (cc2, sc2)


def seeded_fourier_pair(sl, rng):
    """Two perturbed orthogonal circles on S^3, rejection-sampled until the
    pair and the linear homotopy to the unperturbed circles are disjoint."""
    mask_c = np.array([[1.0], [1.0], [0.5]])
    mask_s = np.array([[0.0], [1.0], [0.5]])
    (cc1, sc1), (cc2, sc2) = _fourier_base()
    for _ in range(100):
        c1 = (cc1 + rng.normal(0.0, FOURIER_SCALE, (3, 4)) * mask_c,
              sc1 + rng.normal(0.0, FOURIER_SCALE, (3, 4)) * mask_s)
        c2 = (cc2 + rng.normal(0.0, FOURIER_SCALE, (3, 4)) * mask_c,
              sc2 + rng.normal(0.0, FOURIER_SCALE, (3, 4)) * mask_s)
        if not _homotopy_disjoint(c1, c2, FOURIER_MIN_SEP):
            continue
        try:
            return sl.fourier_curve(*c1), sl.fourier_curve(*c2)
        except ValueError:
            continue
    raise RuntimeError("could not sample a disjoint perturbed pair")


# ---------------------------------------------------------------------------
# case lists
# ---------------------------------------------------------------------------

def surface_cases(sl, rng, smoke: bool):
    grid = sl.GridSpec(curve=8, surface=6) if smoke else sl.GridSpec(curve=32, surface=16)
    kw = dict(grid=grid, tol=1e-3 if smoke else 1e-6)
    cases = []
    for k, l in SURFACE_ORDERS:
        K, L = small_sphere_pair(sl, k, l, random_rotation(k + l + 2, rng))
        for method in ("main", "corollary"):
            cases.append(Case(
                f"small_{k}{l}.{method}", method, k, l, lk=1, lk_anti=antipodal_sign(l),
                reason="nested small round spheres link +1", K=K, L=L, kwargs=kw))
    return cases


def curve_cases(sl, rng, smoke: bool):
    loop_cc = np.zeros((2, 4))
    loop_sc = np.zeros((2, 4))
    loop_cc[0, 0], loop_cc[1, 1], loop_sc[1, 2], loop_cc[1, 3] = 0.95, 0.30, 0.28, 0.05
    pairs = [
        ("hopf", sl.hopf_fiber((1, 0, 0, 0)), sl.hopf_fiber(HOPF_BASE), 1,
         "distinct Hopf fibers link once", 24),
        ("torus23", sl.clifford_torus_curve(2, 3), sl.clifford_torus_curve(2, 3, np.pi / 4), 6,
         "a (p,q) torus curve and its phase-shifted copy link p*q = 6", 64),
        ("fourier", *seeded_fourier_pair(sl, rng), 1,
         "perturbed orthogonal great circles, disjoint along the homotopy to them, link once", 32),
        ("unknot", sl.fourier_curve(loop_cc, loop_sc), sl.great_subsphere(1, (2, 3), 3), 0,
         "a small loop near +e0 bounds a disk clear of the great circle: unlinked", 32),
        ("torus11_great", sl.clifford_torus_curve(1, 1), sl.great_subsphere(1, (2, 3), 3), 1,
         "a (p,q) torus curve winds q = 1 times around the core circle", 32),
    ]
    cases = []
    for name, K, L, lk, reason, full_curve in pairs:
        for method in ("main", "corollary", "join-reduced", "join-full", "oracle"):
            if smoke:
                kw = dict(grid=sl.GridSpec(curve=24, u=8), tol=1e-6, max_level=1)
                if method == "join-full":
                    kw = dict(grid=sl.GridSpec(curve=full_curve, u=6), tol=1e-3, max_level=0)
                elif method == "oracle":
                    kw = dict(m=64, tol=1e-6, max_level=1)
            elif method == "join-full":
                kw = dict(grid=sl.GridSpec(curve=full_curve, u=10), tol=1e-6, max_level=1)
            else:
                kw = {}
            cases.append(Case(f"{name}.{method}", method, 1, 1, lk=lk,
                              lk_anti=antipodal_sign(1) * lk, reason=reason, K=K, L=L,
                              kwargs=kw))
    return cases


def _givens_entry(base: dict, angles) -> dict:
    return {"kind": "rotated", "base": base,
            "givens": [{"plane": [i, i + 1], "angle": float(a)} for i, a in enumerate(angles)]}


def cli_cases(rng, smoke: bool):
    """Great-subsphere pairs at every order, one corollary and one oracle
    spec; each pair is moved by one seeded chain of Givens rotations."""
    grid = {"curve": 8, "surface": 4} if smoke else {"curve": 16, "surface": 8}
    tol = 1e-3 if smoke else 1e-6
    specs = []

    def great(k, l, method):
        n = k + l + 1
        angles = rng.uniform(-np.pi, np.pi, n)
        K = {"kind": "great_subsphere", "k": k, "axes": list(range(k + 1))}
        L = {"kind": "great_subsphere", "k": l, "axes": list(range(k + 1, n + 1))}
        return {"ambient_n": n, "K": _givens_entry(K, angles), "L": _givens_entry(L, angles),
                "method": method, "grid": grid, "tol": tol}

    for k, l in SURFACE_ORDERS:
        specs.append((f"great_{k}{l}.main", k, l, great(k, l, "main"),
                      "nested great subspheres link +1"))
    specs.append(("great_22.corollary", 2, 2, great(2, 2, "corollary"),
                  "nested great subspheres link +1"))
    angles = rng.uniform(-np.pi, np.pi, 3)
    hopf = {"ambient_n": 3, "method": "oracle", "grid": grid, "tol": tol,
            "K": _givens_entry({"kind": "hopf_fiber", "base": [1.0, 0.0, 0.0, 0.0]}, angles),
            "L": _givens_entry({"kind": "hopf_fiber", "base": HOPF_BASE.tolist()}, angles)}
    specs.append(("hopf.oracle", 1, 1, hopf, "distinct Hopf fibers link once"))
    rounds = 1 if smoke else CLI_ROUNDS
    return [Case(f"{cid}#{r}", spec["method"], k, l, lk=1, lk_anti=antipodal_sign(l),
                 reason=reason, spec=spec)
            for r in range(rounds) for cid, k, l, spec, reason in specs]


WORKLOADS = {
    "surface-orders": dict(workers="2", orders=SURFACE_ORDERS),
    "curve-routes": dict(workers="1", orders=((1, 1),)),
    "cli-cold": dict(workers="1", orders=SURFACE_ORDERS),
}


def build_cases(sl, workload: str, seed: int, smoke: bool):
    rng = np.random.default_rng(seed)
    if workload == "surface-orders":
        return surface_cases(sl, rng, smoke)
    if workload == "curve-routes":
        return curve_cases(sl, rng, smoke)
    return cli_cases(rng, smoke)


# ---------------------------------------------------------------------------
# running one case
# ---------------------------------------------------------------------------

def call_method(sl, case: Case):
    """Run one case through the library, looking each evaluator up on its
    module at call time so that installed trace wrappers are used."""
    K, L, kw = case.K, case.L, case.kwargs
    engine, oracle = sl.engine, sl.oracle
    if case.method == "main":
        return engine.evaluate_main_theorem(K, L, **kw)
    if case.method == "corollary":
        return engine.evaluate_corollary(K, L, **kw)
    if case.method.startswith("join"):
        return engine.evaluate_join_degree(K, L, variant=case.method[5:], **kw)
    return oracle.oracle_linking(K, L, **kw)


def _row(case: Case, seconds: float, raw=None, err=None, accepted=False, converged=False,
         node_counts=(), levels_used=0, error=None, exit_code=None):
    integer = None if raw is None else int(round(raw))
    row = {
        "case": case.case_id, "method": case.method, "kl": [case.k, case.l],
        "seconds": seconds, "node_counts": [int(c) for c in node_counts],
        "levels_used": int(levels_used), "raw_value": raw, "error_estimate": err,
        "expected": case.expected_raw, "reason": case.reason,
        "abs_dev": None if raw is None else abs(raw - case.expected_raw),
        "accepted": bool(accepted), "converged": bool(converged), "error": error,
    }
    if exit_code is not None:
        row["exit_code"] = exit_code
    # wrong: no integer or the wrong one.  uncertified: the right integer,
    # but not accepted, not converged or a nonzero CLI exit.
    row["wrong"] = error is not None or integer != case.expected_raw
    row["uncertified"] = not row["wrong"] and not (accepted and converged and not exit_code)
    row["underestimate"] = bool(
        accepted and raw is not None and err is not None
        and abs(raw - case.expected_raw) > err + ROUNDOFF_FLOOR)
    return row


def run_case(sl, case: Case) -> dict:
    t0 = time.perf_counter()
    try:
        rep = call_method(sl, case)
    except Exception as exc:   # a failing case is counted, not fatal
        return _row(case, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return _row(case, seconds, rep.raw_value, rep.error_estimate, rep.accepted, rep.converged,
                rep.node_counts, rep.levels_used)


def write_specs(cases, directory: str):
    """Write each CLI case's spec to `directory` and remember its path."""
    for case in cases:
        if case.spec is not None:
            case.spec_path = os.path.join(directory, case.case_id.split("#")[0] + ".json")
            with open(case.spec_path, "w") as fh:
                json.dump(case.spec, fh)


def run_process(argv, env, workdir: str, timeout: float = CLI_TIMEOUT_S):
    """Run a child to completion: (wall_s, exit_code, stdout, stderr, rusage).

    The child is reaped with wait4, so its peak RSS is its own and never
    mixes with other children's.  Output goes through files in `workdir`,
    so a child never blocks on a full pipe before it is reaped."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fo, open(err_path) as fe:
        return wall, proc.returncode, fo.read(), fe.read(), usage


def cli_row(case: Case, wall: float, code: int, stdout: str, stderr: str) -> dict:
    try:
        rep = json.loads(stdout)
        r = rep["report"]
    except (ValueError, KeyError):
        return _row(case, wall, error=f"exit {code}: {stderr.strip()[-300:]}", exit_code=code)
    error = None
    if r["linking_number"] != case.expected_linking:
        error = f"linking_number {r['linking_number']} != {case.expected_linking}"
    return _row(case, wall, r["raw_value"], r["error_estimate"], r["accepted"], r["converged"],
                rep["node_counts"], r["levels_used"], error=error, exit_code=code)


def cross_check_antipodal(sl, cases):
    """Check each pair's stated Lk(K, -L) once, by the main integral on
    (K, antipodal_image(L)) on a cheap grid (only the integer matters)."""
    rows = []
    seen = set()
    for case in cases:
        key = case.case_id.split(".")[0]
        if case.method != "corollary" or key in seen:
            continue
        seen.add(key)
        K, L = case.K, case.L
        if case.spec is not None:
            K = sl.catalog.build_entry(case.spec["K"], case.n)
            L = sl.catalog.build_entry(case.spec["L"], case.n)
        anti = Case(f"{key}.antipodal_check", "main", case.k, case.l, lk=case.lk_anti,
                    reason="stated Lk(K, -L) of the corollary expectation", K=K,
                    L=sl.antipodal_image(L),
                    kwargs=dict(grid=sl.GridSpec(curve=16, surface=8), tol=1e-3, max_level=1))
        rows.append(run_case(sl, anti))
    return rows


def module_env(src: str, workers: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SPHERELINK_WORKERS"] = workers
    return env

