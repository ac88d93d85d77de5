import numpy as np
import pytest

from spherelink.kernels import (
    KernelEvaluator,
    _rational_forms,
    convolution,
    get_evaluator,
    phi,
    phi_kernel_ratio,
    stable_sin,
)

from spherelink.engine import MIN_ALPHA, sign_factor

from conftest import conv_numeric, phi_numeric, reduced_kernel_numeric


def gl(a, b, m=160):
    x, w = np.polynomial.legendre.leggauss(m)
    return (b + a) / 2 + (b - a) / 2 * x, (b - a) / 2 * w


def phi_reference(k, l, alpha, m=160):
    """Independent oracle: plain Gauss-Legendre of the defining integral."""
    beta, w = gl(alpha, np.pi, m)
    return float(np.sum(w * np.sin(beta - alpha) ** k * np.sin(beta) ** l))


def conv_reference(k, l, alpha, m=160):
    beta, w = gl(0.0, np.pi, m)
    return float(np.sum(w * np.sin(alpha - beta) ** k * np.sin(beta) ** l))


ALPHAS = np.linspace(0.0, np.pi, 256)


class TestClosedForms:
    def test_phi_11(self):
        expected = 0.5 * ((np.pi - ALPHAS) * np.cos(ALPHAS) + np.sin(ALPHAS))
        assert np.max(np.abs(phi(1, 1, ALPHAS) - expected)) < 1e-14

    def test_phi_12_and_symmetry(self):
        expected = (1 + np.cos(ALPHAS)) ** 2 / 3
        assert np.max(np.abs(phi(1, 2, ALPHAS) - expected)) < 1e-14
        assert np.max(np.abs(phi(2, 1, ALPHAS) - expected)) < 1e-14

    def test_phi_00(self):
        assert np.max(np.abs(phi(0, 0, ALPHAS) - (np.pi - ALPHAS))) < 1e-14

    def test_conv_11(self):
        expected = -np.pi / 2 * np.cos(ALPHAS)
        assert np.max(np.abs(convolution(1, 1, ALPHAS) - expected)) < 1e-14

    def test_conv_22(self):
        expected = np.pi / 8 * (1 + 2 * np.cos(ALPHAS) ** 2)
        assert np.max(np.abs(convolution(2, 2, ALPHAS) - expected)) < 1e-14

    def test_conv_11_at_right_angle(self):
        assert convolution(1, 1, np.pi / 2) == pytest.approx(0.0, abs=1e-15)


class TestPhiGeneral:
    def test_vanishes_at_pi(self):
        for k in range(5):
            for l in range(5):
                assert abs(phi(k, l, np.pi)) < 1e-15

    def test_right_angle_moment(self):
        # phi at pi/2 equals the [0, pi/2] moment of sin^k cos^l
        theta, w = gl(0.0, np.pi / 2)
        for k, l in [(1, 1), (2, 2), (1, 3), (0, 1), (3, 2)]:
            moment = float(np.sum(w * np.sin(theta) ** k * np.cos(theta) ** l))
            assert phi(k, l, np.pi / 2) == pytest.approx(moment, abs=1e-12)

    def test_against_reference_quadrature(self):
        for k, l in [(1, 1), (2, 2), (1, 3), (0, 4), (4, 3)]:
            for a in [0.1, 0.9, 2.0, 3.0]:
                assert phi(k, l, a) == pytest.approx(phi_reference(k, l, a), abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            phi(1, 1, -0.1)
        with pytest.raises(ValueError):
            phi(1, 1, 3.3)

    def test_scalar_return(self):
        assert isinstance(phi(2, 2, 1.0), float)
        assert isinstance(convolution(2, 3, 1.0), float)
        assert isinstance(phi_kernel_ratio(2, 2, 1.0), float)


class TestKernelRatio:
    def test_closed_points(self):
        assert phi_kernel_ratio(1, 1, np.pi / 2) == pytest.approx(0.5, abs=1e-14)
        assert phi_kernel_ratio(1, 2, np.pi / 2) == pytest.approx(1 / 3, abs=1e-14)

    def test_limit_at_pi(self):
        # independent high-precision quotient at alpha = pi - 1e-4: the
        # substituted form eps * int_0^1 sin^k(eps(1-w)) sin^l(eps w) dw
        # keeps full relative precision
        eps = 1e-4
        w, q = gl(0.0, 1.0, 200)
        for k, l in [(1, 1), (1, 2), (2, 2), (1, 3)]:
            n = k + l + 1
            quotient = eps * float(
                np.sum(q * np.sin(eps * (1 - w)) ** k * np.sin(eps * w) ** l)
            ) / np.sin(np.pi - eps) ** n
            assert phi_kernel_ratio(k, l, np.pi - eps) == pytest.approx(quotient, abs=1e-9)
        assert phi_kernel_ratio(1, 1, np.pi) == pytest.approx(1 / 6, abs=1e-12)

    def test_branch_agreement_at_switchover(self):
        # quotient branch and series branch must agree near pi - 1e-3
        for k, l in [(1, 1), (1, 2), (2, 2), (1, 3), (0, 1)]:
            ev = get_evaluator(k, l)
            a = np.pi - 1e-3
            below = float(np.asarray(ev.kernel_ratio(a - 1e-12)))
            above = float(np.asarray(ev.kernel_ratio(a + 1e-12)))
            assert abs(below - above) < 1e-9

    def test_error_below_min(self):
        with pytest.raises(ValueError):
            phi_kernel_ratio(1, 1, 1e-9)

    def test_matches_quotient_midrange(self):
        a = np.linspace(0.2, 2.8, 40)
        for k, l in [(2, 2), (1, 3), (0, 1)]:
            n = k + l + 1
            expected = np.array([phi_reference(k, l, x) for x in a]) / np.sin(a) ** n
            got = phi_kernel_ratio(k, l, a)
            rel = np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected)))
            assert rel < 1e-12


class TestIdentities:
    def test_symmetry_grid(self):
        alphas = np.linspace(0.0, np.pi, 256)
        for k in range(5):
            for l in range(k + 1, 5):
                d = np.max(np.abs(np.asarray(phi(k, l, alphas)) - np.asarray(phi(l, k, alphas))))
                assert d < 1e-11, (k, l, d)

    def test_reflection(self, rng):
        # phi(pi - a) = (-1)^k * integral over [0, a] of sin^k(b - a) sin^l(b)
        for _ in range(60):
            k = int(rng.integers(0, 5))
            l = int(rng.integers(0, 5))
            a = float(rng.uniform(0.05, np.pi - 0.05))
            beta, w = gl(0.0, a)
            rhs = (-1) ** k * float(np.sum(w * np.sin(beta - a) ** k * np.sin(beta) ** l))
            assert phi(k, l, np.pi - a) == pytest.approx(rhs, abs=1e-11)

    def test_convolution_identity(self, rng):
        # phi(a) + (-1)^k phi(pi - a) = (-1)^k conv(a)
        for _ in range(60):
            k = int(rng.integers(0, 5))
            l = int(rng.integers(0, 5))
            a = float(rng.uniform(0.0, np.pi))
            lhs = phi(k, l, a) + (-1) ** k * phi(k, l, np.pi - a)
            rhs = (-1) ** k * convolution(k, l, a)
            assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_u_substitution(self, rng):
        # int_0^1 (pi - a) A^k B^l du = phi(a) with
        # A = sin(a) cos(u(pi-a)) + cos(a) sin(u(pi-a)), B = sin(u(pi-a))
        u, w = gl(0.0, 1.0, 128)
        for _ in range(60):
            k = int(rng.integers(0, 5))
            l = int(rng.integers(0, 5))
            a = float(rng.uniform(0.0, np.pi))
            eta = np.pi - a
            a_fac = np.sin(a) * np.cos(u * eta) + np.cos(a) * np.sin(u * eta)
            b_fac = np.sin(u * eta)
            lhs = eta * float(np.sum(w * a_fac**k * b_fac**l))
            assert lhs == pytest.approx(phi(k, l, a), abs=1e-11)


class TestEvaluator:
    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            KernelEvaluator(-1, 2)
        with pytest.raises(ValueError):
            KernelEvaluator(1.5, 1)

    @pytest.mark.parametrize("k, l", [(0, 35), (0, 83), (4, 82), (60, 60),
                                      (82, 5), (6, 82), (81, 11)])
    def test_orders_past_float64_series_rejected(self, k, l):
        # the switch search turns negative, the integers overflow, a psi
        # coefficient is NaN, or the near-pi series is not finite
        with pytest.raises(ValueError, match=rf"\({k}, {l}\)"):
            KernelEvaluator(k, l)

    @pytest.mark.parametrize("k, l", [(40, 42), (0, 82)])
    def test_high_orders_that_fit_still_build(self, k, l):
        ev = KernelEvaluator(k, l)
        alphas = np.array([0.01, 1.0, 2.0, 3.0, np.pi])
        for values in (ev.phi_fast(alphas), ev.kernel_ratio(alphas), ev.convolution_fast(alphas)):
            assert np.isfinite(values).all()

    @pytest.mark.parametrize("k, l", [(1, 1), (2, 3)])
    def test_nan_and_out_of_range_rejected(self, k, l):
        # NaN fails every range comparison, so it must fail the check too;
        # on both paths, for an even and an odd k + l
        ev = KernelEvaluator(k, l)
        for bad in (np.nan, -0.5, 4.0):
            for kern in (ev.phi_fast, ev.kernel_ratio, ev.convolution_fast):
                with pytest.raises(ValueError, match=r"alpha must lie in \[0, pi\]"):
                    kern(np.array([1.0, bad]))
        for bad in (np.nan, -1.5, 1.0 + 1e-9):
            for kern in (ev.phi_fast, ev.kernel_ratio, ev.convolution_fast):
                with pytest.raises(ValueError, match=r"cos alpha must lie in \[-1, 1\]"):
                    kern(None, np.array([0.5, bad]))

    @pytest.mark.parametrize("k, l", [(1, 1), (2, 3)])
    def test_cos_path_error_below_min(self, k, l):
        # cos(1e-8) rounds to 1: c = 1 is alpha = 0, the largest c below it
        # is alpha = 1.5e-8
        ev = KernelEvaluator(k, l)
        with pytest.raises(ValueError, match="alpha < 1e-8"):
            ev.kernel_ratio(None, np.array([0.0, 1.0]))
        assert np.isfinite(ev.kernel_ratio(None, np.nextafter(1.0, 0.0)))

    def test_fast_paths_match_direct(self):
        alphas = np.linspace(0.0, np.pi, 257)
        for k, l in [(2, 2), (1, 3), (0, 2)]:
            ev = KernelEvaluator(k, l)
            assert np.max(np.abs(ev.phi_fast(alphas) - phi_numeric(k, l, alphas))) < 1e-12

    @pytest.mark.parametrize("k, l", [(1, 1), (1, 2), (2, 2), (2, 3)])
    def test_out_may_be_the_input(self, k, l):
        # the engine's routes write the kernel over its dot products: the
        # same bits as a fresh array, across several 2^14 blocks
        ev = KernelEvaluator(k, l)
        c = np.cos(np.linspace(0.02, np.pi - 0.02, 3 * 7001)).reshape(3, -1)
        for method, kw in ((ev.kernel_ratio, {}), (ev.convolution_fast, {"sin_power": ev.n})):
            fresh = method(None, c, **kw)
            buf = c.copy()
            got = method(None, buf, out=buf, **kw)
            assert np.shares_memory(got, buf) and got.shape == c.shape
            assert np.array_equal(got, fresh)

    def test_stable_sin(self):
        a = np.array([0.0, 1e-9, np.pi / 2, np.pi - 1e-9, np.pi])
        assert np.allclose(stable_sin(a), np.sin(np.minimum(a, np.pi - a)))
        # full relative accuracy near pi, unlike naive sin
        eps = 1e-7
        assert stable_sin(np.pi - eps) == pytest.approx(np.sin(eps), rel=1e-15)


# ---------------------------------------------------------------------------
# full-accuracy coverage against the adaptive Gauss-Legendre reference
# ---------------------------------------------------------------------------

GRID = np.linspace(0.01, np.pi, 20001)
ORDERS = [(k, l) for k in range(5) for l in range(5)]
# every order with odd k + l <= 7, on [MIN_ALPHA, pi]
ODD_ORDERS = [(k, total - k) for total in (1, 3, 5, 7) for k in range(total + 1)]
MIN_GRID = np.linspace(MIN_ALPHA, np.pi, 4001)


@pytest.fixture(scope="module")
def reference():
    """phi and convolution on GRID for every order, by the reference."""
    return {(k, l): (phi_numeric(k, l, GRID), conv_numeric(k, l, GRID))
            for k, l in ORDERS}


def _sin_n(alpha, n):
    return np.sin(np.minimum(alpha, (np.pi - alpha) + 1.2246467991473532e-16)) ** n


class TestFullAccuracy:
    def test_kernel_ratio_relative(self, reference):
        for k, l in ORDERS:
            ref = reference[k, l][0] / _sin_n(GRID, k + l + 1)
            rel = np.max(np.abs(phi_kernel_ratio(k, l, GRID) - ref) / ref)
            assert rel <= 1e-13, (k, l, rel)

    def test_phi_and_convolution(self, reference):
        for k, l in ORDERS:
            phi_ref, conv_ref = reference[k, l]
            for got, ref in ((phi(k, l, GRID), phi_ref), (convolution(k, l, GRID), conv_ref)):
                err = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))
                assert err <= 1e-13, (k, l, err)

    def test_cos_path_matches_alpha_path(self):
        # the engine hands over the dot products c; alpha = arccos(c).  The
        # corollary quotient diverges at pi, so it is compared up to the
        # default antipodal margin.
        c = np.cos(GRID)
        alpha = np.arccos(c)
        off_pi = alpha < np.pi - 0.01
        for k, l in ORDERS:
            ev = get_evaluator(k, l)
            n = ev.n
            pairs = [(ev.kernel_ratio(alpha, c), ev.kernel_ratio(alpha)),
                     (ev.convolution_fast(alpha[off_pi], c[off_pi], sin_power=n),
                      ev.convolution_fast(alpha[off_pi], sin_power=n))]
            for engine, alpha_only in pairs:
                rel = np.max(np.abs(engine - alpha_only) / np.abs(alpha_only))
                assert rel <= 1e-12, (k, l, rel)

    @pytest.mark.parametrize("k, l", ODD_ORDERS)
    def test_rational_forms_match_closed_form(self, k, l):
        # odd k + l evaluate P(1 - c) / (1 - c)^(n/2) and Q(c); with the
        # rational forms switched off the same evaluator takes the closed
        # form plus the near-pi series, which the even orders keep.  Bounds
        # are those above: 1e-13 relative for the ratio, 1e-13 of
        # max(1, |value|) for phi and the convolution, 1e-12 relative for
        # the corollary quotient short of the antipodal margin.
        c = np.cos(MIN_GRID)
        alpha = np.arccos(c)
        off_pi = alpha < np.pi - 0.01
        ev = KernelEvaluator(k, l)
        closed = KernelEvaluator(k, l)
        closed._rational = None
        n = ev.n
        ref_ratio = closed.kernel_ratio(alpha)
        ref_phi, ref_conv = closed.phi_fast(alpha), closed.convolution_fast(alpha)
        ref_quot = closed.convolution_fast(alpha[off_pi], sin_power=n)
        for args in ((alpha, None), (None, c)):
            rel = np.max(np.abs(ev.kernel_ratio(*args) - ref_ratio) / ref_ratio)
            assert rel <= 1e-13, (k, l, args[0] is None, rel)
            pairs = ((ev.phi_fast(*args), ref_phi), (ev.convolution_fast(*args), ref_conv))
            for got, ref in pairs:
                err = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))
                assert err <= 1e-13, (k, l, args[0] is None, err)
            quot = ev.convolution_fast(*(a if a is None else a[off_pi] for a in args), sin_power=n)
            rel = np.max(np.abs(quot - ref_quot) / np.abs(ref_quot))
            assert rel <= 1e-12, (k, l, args[0] is None, rel)

    def test_rational_numerator_has_positive_coefficients(self):
        # P in t = 1 - c has no cancelling terms, which is what keeps the
        # odd-order ratio accurate on all of [0, pi] without a series
        for total in range(1, 42, 2):
            for k in range(total + 1):
                numerator = _rational_forms(k, total - k)[0]
                assert (numerator > 0).all(), (k, total - k)

    def test_join_reduced_is_signed_kernel_ratio(self):
        # integrating the join parameter out of the reduced join-degree
        # integrand leaves the main kernel times the join sign
        sign = sign_factor("join_reduced_net")
        for k, l in ORDERS:
            ref = reduced_kernel_numeric(k, l, GRID)
            rel = np.max(np.abs(sign * phi_kernel_ratio(k, l, GRID) - ref) / np.abs(ref))
            assert rel <= 1e-11, (k, l, rel)

    def test_switch_is_continuous(self):
        for k, l in ORDERS:
            ev = get_evaluator(k, l)
            a = ev.alpha_switch
            below = ev.kernel_ratio(np.nextafter(a, 0.0))
            above = ev.kernel_ratio(np.nextafter(a, 4.0))
            assert abs(below - above) <= 1e-13 * abs(below), (k, l)
