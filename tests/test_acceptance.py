"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line per
criterion (a failed assertion is the corresponding FAIL line).
"""

import json
import time
from functools import partial

import numpy as np
import pytest

from spherelink import (
    GridSpec,
    antipodal_image,
    evaluate_corollary,
    evaluate_join_degree,
    evaluate_main_theorem,
    great_subsphere,
    orientation_reversed,
    rotated,
    sign_factor,
)
from spherelink import kernels
from spherelink.cli import main as cli_main
from spherelink.engine import _kernel_terms, _level_sum, _side_arrays
from spherelink.oracle import oracle_linking
from spherelink.spheregeom import _vol_sphere_any

from conftest import (
    clifford_pair,
    conv_numeric,
    great_pair,
    hopf_pair,
    phi_numeric,
    random_fourier_pair,
    random_rotation,
    small_sphere_pair,
    unknotted_distant_pair,
)


def _passline(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# ---------------------------------------------------------------------------
# shared fixture table
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fixture_table():
    """Catalog link pairs with per-fixture grids for the join-degree runs.

    Entries: name -> (K, L, full_grid, full_kwargs, reduced_grid).
    """
    from spherelink import clifford_torus_curve
    fourier = random_fourier_pair(np.random.default_rng(7))
    small = GridSpec(curve=24, u=8)
    table = {
        "great_1_1_3": (*great_pair(1, 1), GridSpec(curve=24, u=8), {}, None),
        "great_1_2_4": (*great_pair(1, 2), GridSpec(curve=16, surface=10, u=8), {}, None),
        "great_2_2_5": (*great_pair(2, 2), GridSpec(surface=10, u=8),
                        dict(tol=1e-5, max_level=0), GridSpec(curve=32, surface=12, u=12)),
        "great_0_1_2": (*great_pair(0, 1), GridSpec(curve=32, u=8), {}, None),
        "great_1_3_5": (*great_pair(1, 3), GridSpec(curve=16, surface=8, u=8),
                        dict(tol=1e-5, max_level=0), GridSpec(curve=32, surface=12, u=12)),
        "hopf": (*hopf_pair(), GridSpec(curve=24, u=10), {}, None),
        "clifford_2_3": (*clifford_pair(2, 3, np.pi / 4), GridSpec(curve=64, u=10), {}, None),
        "clifford_1_1_vs_great": (clifford_torus_curve(1, 1),
                                  great_subsphere(1, (2, 3), 3),
                                  GridSpec(curve=32, u=10), {}, None),
        "small_round_1_1_3": (*small_sphere_pair(1, 1), small, {}, None),
        "fourier": (*fourier, GridSpec(curve=32, u=10), {}, None),
    }
    return table


@pytest.fixture(scope="module")
def main_reports(fixture_table):
    """Direct-integral value for every fixture at default grids, with timing."""
    out = {}
    for name, (K, L, *_rest) in fixture_table.items():
        t0 = time.perf_counter()
        out[name] = (evaluate_main_theorem(K, L, tol=1e-9), time.perf_counter() - t0)
    return out


def test_criterion_1_great_subspheres(main_reports):
    cases = ["great_1_1_3", "great_1_2_4", "great_2_2_5", "great_0_1_2", "great_1_3_5"]
    for name in cases:
        report, seconds = main_reports[name]
        assert abs(report.raw_value - 1.0) < 1e-6, (name, report.raw_value)
        assert seconds < 10.0, (name, seconds)
    _passline(1, "nested great subspheres link once (5 dimension patterns, "
                 "each run < 10 s at default grids)")


def test_criterion_2_closed_form_kernels():
    alphas = np.linspace(0.0, np.pi, 256)
    checks = [
        ("phi(1,1)", kernels.phi(1, 1, alphas), phi_numeric(1, 1, alphas)),
        ("phi(1,2)", kernels.phi(1, 2, alphas), phi_numeric(1, 2, alphas)),
        ("conv(1,1)", kernels.convolution(1, 1, alphas), conv_numeric(1, 1, alphas)),
        ("conv(2,2)", kernels.convolution(2, 2, alphas), conv_numeric(2, 2, alphas)),
    ]
    for name, closed, numeric in checks:
        sup = float(np.max(np.abs(np.asarray(closed) - numeric)))
        assert sup < 1e-10, (name, sup)
    _passline(2, "closed-form kernels match adaptive quadrature to 1e-10 "
                 "sup-norm on a 256-point grid")


def test_criterion_3_corollary_fixtures():
    # orthogonal great 2-spheres in S^5: value 2
    K, L = great_pair(2, 2)
    r = evaluate_corollary(K, L, tol=1e-8)
    assert abs(r.raw_value - 2.0) < 1e-6, r.raw_value

    # orthogonal great circles in S^3: value 0 with pointwise-zero integrand
    K1, L1 = great_pair(1, 1)
    r0 = evaluate_corollary(K1, L1)
    assert abs(r0.raw_value) < 1e-12
    pk, fk, _ = _side_arrays(K1, (64,))
    pl, fl, _ = _side_arrays(L1, (64,))
    alpha = np.arccos(np.clip(pk @ pl.T, -1.0, 1.0))
    ev = kernels.get_evaluator(1, 1)
    kern = ev.convolution_fast(alpha) / kernels.stable_sin(alpha) ** 3
    # bracket values are bounded by 1 here; the kernel itself must vanish
    assert float(np.max(np.abs(kern))) < 1e-12
    _passline(3, "antipodally-paired integral: orthogonal 2-spheres in S^5 "
                 "give 2; orthogonal circles give 0 with |integrand| < 1e-12 "
                 "at every node")


def test_criterion_4_method_agreement(fixture_table, main_reports):
    for name, (K, L, full_grid, full_kwargs, reduced_grid) in fixture_table.items():
        main_val = main_reports[name][0].raw_value
        red = evaluate_join_degree(K, L, variant="reduced",
                                   grid=reduced_grid, tol=1e-8,
                                   max_level=2 if reduced_grid else 4)
        assert abs(main_val + red.raw_value) < 1e-6, (name, main_val, red.raw_value)
        kwargs = dict(tol=1e-6, max_level=1)
        kwargs.update(full_kwargs)
        full = evaluate_join_degree(K, L, variant="full", grid=full_grid, **kwargs)
        assert abs(main_val + full.raw_value) < 1e-4, (name, main_val, full.raw_value)
    _passline(4, "join-map degree equals minus the linking number on every "
                 "catalog fixture (reduced to 1e-6, exact-derivative full "
                 "variant to 1e-4)")


def test_criterion_5_oracle_equivalence():
    # expected integers for the deterministic pairs were derived from the
    # Euclidean oracle and frozen; parallel (p, q) torus curves link p*q
    # times, and a (p, q) curve winds q times around the core circle of
    # its second block
    from spherelink import clifford_torus_curve
    pairs = [
        ("great circles", *great_pair(1, 1), 1),
        ("hopf axis", *hopf_pair(generic=False), 1),
        ("hopf generic", *hopf_pair(), 1),
        ("clifford (1,0) shift", *clifford_pair(1, 0, np.pi / 2), 0),
        ("clifford (1,1) shift", *clifford_pair(1, 1, np.pi), 1),
        ("clifford (1,-1) shift", *clifford_pair(1, -1, np.pi), -1),
        ("clifford (1,2) shift", *clifford_pair(1, 2, np.pi / 2), 2),
        ("clifford (2,3) shift", *clifford_pair(2, 3, np.pi / 4), 6),
        ("clifford (2,-3) shift", *clifford_pair(2, -3, np.pi / 4), -6),
        ("(2,3) vs core circle", clifford_torus_curve(2, 3),
         great_subsphere(1, (2, 3), 3), 2),
    ]
    for seed in (11, 12, 13):
        pairs.append((f"fourier seed {seed}",
                      *random_fourier_pair(np.random.default_rng(seed)), None))
    assert len(pairs) >= 13
    for name, K, L, expected in pairs:
        main = evaluate_main_theorem(K, L, tol=1e-9)
        orc = oracle_linking(K, L, tol=1e-9)
        assert main.converged and orc.converged, name
        assert abs(main.raw_value - orc.raw_value) < 1e-3, (
            name, main.raw_value, orc.raw_value)
        assert main.nearest_integer == orc.nearest_integer, name
        if expected is not None:
            assert main.nearest_integer == expected, name
    # surfaces, on one test-sized grid per pair for both routes
    surfaces = [(f"small ({k},{l})", *small_sphere_pair(k, l))
                for k, l in ((1, 2), (2, 1), (2, 2), (1, 3))]
    surfaces += [(f"great ({k},{l})", *great_pair(k, l)) for k, l in ((1, 2), (2, 2))]
    grid = GridSpec(curve=16, surface=6)
    for name, K, L in surfaces:
        main = evaluate_main_theorem(K, L, grid, tol=1e-6, max_level=1)
        orc = oracle_linking(K, L, grid, tol=1e-6, max_level=1)
        assert abs(main.raw_value - orc.raw_value) < 1e-6, (
            name, main.raw_value, orc.raw_value)
        assert main.nearest_integer == orc.nearest_integer == 1, name
    _passline(5, f"sphere integral matches the Euclidean oracle on "
                 f"{len(pairs)} curve pairs (|diff| < 1e-3) and {len(surfaces)} "
                 f"surface pairs (|diff| < 1e-6), same integer")


def test_criterion_6_identity_suite(rng):
    u_nodes, u_weights = np.polynomial.legendre.leggauss(128)
    u = 0.5 * (u_nodes + 1.0)
    uw = 0.5 * u_weights
    count = 0
    while count < 100:
        k = int(rng.integers(0, 5))
        l = int(rng.integers(0, 5))
        a = float(rng.uniform(0.0, np.pi))
        count += 1
        # symmetry in the orders
        assert abs(kernels.phi(k, l, a) - kernels.phi(l, k, a)) < 1e-10
        # reflection: phi(pi - a) = (-1)^k int_0^a sin^k(b - a) sin^l(b) db
        beta = 0.5 * a * (u_nodes + 1.0)
        bw = 0.5 * a * u_weights
        reflected = (-1) ** k * float(
            np.sum(bw * np.sin(beta - a) ** k * np.sin(beta) ** l))
        assert abs(kernels.phi(k, l, np.pi - a) - reflected) < 1e-10
        # convolution assembly
        lhs = kernels.phi(k, l, a) + (-1) ** k * kernels.phi(k, l, np.pi - a)
        rhs = (-1) ** k * kernels.convolution(k, l, a)
        assert abs(lhs - rhs) < 1e-10
        # collapse of the join parameter: int_0^1 (pi-a) A^k B^l du = phi(a)
        eta = np.pi - a
        a_fac = np.sin(a) * np.cos(u * eta) + np.cos(a) * np.sin(u * eta)
        b_fac = np.sin(u * eta)
        swept = eta * float(np.sum(uw * a_fac**k * b_fac**l))
        assert abs(swept - kernels.phi(k, l, a)) < 1e-10
    _passline(6, "kernel identity suite (symmetry, reflection, convolution "
                 "assembly, join-parameter collapse) holds to 1e-10 on "
                 f"{count} random (k, l, alpha) samples")


def test_criterion_7_sign_laws(fixture_table, main_reports):
    # anti-commutation and orientation reversal on every fixture
    for name, (K, L, *_rest) in fixture_table.items():
        base = main_reports[name][0]
        # integrality: converged fixture values sit on integers
        assert base.converged and base.residual < 1e-3, name
        swap = evaluate_main_theorem(L, K, tol=1e-9)
        sign = sign_factor("block_swap", k=K.dim, l=L.dim)
        tol = 10 * (base.error_estimate + swap.error_estimate) + 1e-8
        assert abs(swap.raw_value - sign * base.raw_value) < tol, name
        flipped = evaluate_main_theorem(orientation_reversed(K), L, tol=1e-9)
        tol = 10 * (base.error_estimate + flipped.error_estimate) + 1e-8
        assert abs(flipped.raw_value + base.raw_value) < tol, name

    # antipodal substitution on the hopf and great-circle fixtures:
    # Lk(K, -L) carries the sign of transferring the orientation through
    # the antipodal map, against the kernel evaluated at pi - alpha
    for name in ("hopf", "great_1_1_3"):
        K, L = fixture_table[name][0], fixture_table[name][1]
        l_dim = L.dim
        n = K.ambient_n
        direct = evaluate_main_theorem(K, antipodal_image(L), tol=1e-9)
        ev = kernels.get_evaluator(K.dim, l_dim)
        reflected_kernel = lambda cos_alpha: ev.kernel_ratio(None, -cos_alpha)
        value, _, _, _ = _level_sum(K, L, GridSpec(curve=128).counts(K, L),
                                    partial(_kernel_terms, reflected_kernel,
                                            1 / _vol_sphere_any(n), (K.span, L.span), None),
                                    lambda amin, amax: None)
        expected = sign_factor("antipodal_transfer", l=l_dim) * value
        assert abs(direct.raw_value - expected) < 1e-8, name
    _passline(7, "anti-commutation, orientation-reversal negation, and the "
                 "antipodal-image sign all hold on the fixture suite")


def test_criterion_8_isometry_invariance(rng):
    fixtures = [great_pair(1, 1), hopf_pair()]
    count = 0
    for K, L in fixtures:
        base = evaluate_main_theorem(K, L, tol=1e-9).raw_value
        for _ in range(10):
            r = random_rotation(K.ambient_n + 1, rng)
            moved = evaluate_main_theorem(rotated(K, r), rotated(L, r),
                                          tol=1e-9).raw_value
            assert abs(moved - base) < 1e-5
            count += 1
    assert count == 20
    _passline(8, "20 random ambient rotations change raw values by < 1e-5")


def test_criterion_9_determinism(tmp_path, capsys, monkeypatch):
    b = np.array([0.3, -0.2, 0.8, 0.4])
    b /= np.linalg.norm(b)
    specs = [
        {"ambient_n": 3,
         "K": {"kind": "great_subsphere", "k": 1, "axes": [0, 1]},
         "L": {"kind": "great_subsphere", "k": 1, "axes": [2, 3]},
         "method": "main"},
        {"ambient_n": 3,
         "K": {"kind": "hopf_fiber", "base": [1, 0, 0, 0]},
         "L": {"kind": "hopf_fiber", "base": b.tolist()},
         "method": "main"},
        {"ambient_n": 3,
         "K": {"kind": "clifford_torus_curve", "p": 2, "q": 3},
         "L": {"kind": "clifford_torus_curve", "p": 2, "q": 3,
               "phase": 0.7853981633974483},
         "method": "join-reduced"},
        {"ambient_n": 3,
         "K": {"kind": "clifford_torus_curve", "p": 1, "q": 1},
         "L": {"kind": "clifford_torus_curve", "p": 1, "q": 1, "phase": 3.1},
         "method": "corollary"},
        {"ambient_n": 4,
         "K": {"kind": "great_subsphere", "k": 1, "axes": [0, 1]},
         "L": {"kind": "great_subsphere", "k": 2, "axes": [2, 3, 4]},
         "method": "main", "grid": {"k": 32, "l": 16}},
        {"ambient_n": 3,
         "K": {"kind": "great_subsphere", "k": 1, "axes": [0, 1]},
         "L": {"kind": "great_subsphere", "k": 1, "axes": [2, 3]},
         "method": "oracle"},
    ]
    paths = []
    for i, spec in enumerate(specs):
        p = tmp_path / f"spec{i}.json"
        p.write_text(json.dumps(spec))
        paths.append(str(p))

    def run_suite():
        outputs = []
        for p in paths:
            code = cli_main(["link", p, "--stable"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        return "".join(outputs)

    monkeypatch.setenv("SPHERELINK_WORKERS", "1")
    run_a = run_suite()
    monkeypatch.setenv("SPHERELINK_WORKERS", "8")
    run_b = run_suite()
    monkeypatch.setenv("SPHERELINK_WORKERS", "1")
    run_c = run_suite()
    assert run_a.encode() == run_b.encode() == run_c.encode()
    _passline(9, "fixture-suite reports are byte-identical across repeat "
                 "runs with worker counts 1 and 8")
