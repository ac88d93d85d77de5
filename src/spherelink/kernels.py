"""Distance kernels for the linking integrals, both functions of the
geodesic distance alpha:

* ``phi(k, l, alpha)`` -- the sweep kernel, integral over [alpha, pi] of
  sin^k(beta - alpha) sin^l(beta) d beta; the direct linking integrand
  carries phi / sin^n(alpha), n = k + l + 1;
* ``convolution(k, l, alpha)`` -- the circular convolution, integral over
  [0, pi] of sin^k(alpha - beta) sin^l(beta) d beta, for the antipodally
  paired variant.

They satisfy phi(k,l) = phi(l,k) and phi(k, l, alpha) + (-1)^k phi(k, l,
pi - alpha) = (-1)^k convolution(k, l, alpha).  Both come from one closed
form generated per (k, l) by product-to-sum: with c = cos(alpha),
s = sin(alpha), phi = P(c) + s Q(c) + (pi - alpha)(R(c) + s S(c)) and the
convolution is the same without the (pi - alpha) part.  phi vanishes to
order n at alpha = pi, where the form cancels; past a switch point
phi / sin^n comes from its Taylor series in (pi - alpha)^2, whose
coefficients are summed exactly in integers.  Switch and term count follow
per order from bounds (_near_pi_series).  Against adaptive Gauss-Legendre
on [0.01, pi] for k, l <= 4 the ratio is good to ~1e-14 relative.

The engine passes cos(alpha) along with alpha: s is then sqrt((1-c)(1+c)),
whose factors are exact near c = +-1, and no transcendental is evaluated.
"""

import math
from functools import lru_cache
from itertools import zip_longest

import numpy as np

__all__ = ["KernelEvaluator", "phi", "phi_kernel_ratio", "convolution",
           "get_evaluator", "stable_sin"]

# Tail of pi dropped by float64; (np.pi - alpha) + _PI_LO recovers the true
# pi - alpha to full precision, consistent with libm's argument reduction.
_PI_LO = 1.2246467991473532e-16
_UNIT_ROUNDOFF = 2.0 ** -53
_FORM_TOL = 1e-14        # closed-form rounding estimate allowed, relative to phi
_SERIES_TERMS = 40       # near-pi Taylor terms generated (enough to eps ~ 1.6)
_BLOCK = 1 << 14         # elements per evaluation block; temporaries stay in L2


def _eps_from_pi(alpha):
    """pi - alpha with the two-part-pi correction."""
    return (np.pi - alpha) + _PI_LO


def stable_sin(alpha):
    """sin(alpha) for alpha in [0, pi] with full relative accuracy at both
    ends, using sin(alpha) = sin(pi - alpha) on the upper half."""
    alpha = np.asarray(alpha, dtype=float)
    return np.sin(np.minimum(alpha, _eps_from_pi(alpha)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cos_sin_monomials(m: int):
    """Monomial coefficients in c of cos(m alpha) = T_m(c) and of
    sin(m alpha) / s = U_{m-1}(c), by the recurrence X_m = 2 c X_{m-1} - X_{m-2}."""
    if m < 2:
        return ((1,), ()) if m == 0 else ((0, 1), (1,))
    (t1, u1), (t2, u2) = _cos_sin_monomials(m - 1), _cos_sin_monomials(m - 2)
    return tuple(tuple(2 * x - y for x, y in zip_longest((0,) + a, b, fillvalue=0))
                 for a, b in ((t1, t2), (u1, u2)))


def _closed_form(k: int, l: int, kernel: str):
    """Terms (coeffs, with_s, with_eps) whose sum coeffs(c) [* s] [* (pi - alpha)]
    is the kernel; coeffs are monomials in c, lowest degree first.

    phi: each e^{i(p(beta - alpha) + q beta)} integrates over [alpha, pi] to
    ((-1)^f e^{-ip alpha} - e^{iq alpha}) / (i f) for f = p + q != 0, and to
    (pi - alpha) e^{-ip alpha} for f = 0.  convolution: e^{ip alpha}
    e^{i(q - p) beta} integrates over [0, pi] to e^{ip alpha} times pi or
    ((-1)^g - 1) / (i g), g = q - p.  The kernel is real, so z e^{i m alpha}
    contributes Re z cos(|m| alpha) - sign(m) Im z sin(|m| alpha).
    """
    def sin_power(m):  # (p, a_p) with sin^m x = sum of a_p e^{i p x}
        return [(m - 2 * j, (-0.5j) ** m * math.comb(m, j) * (-1) ** j) for j in range(m + 1)]

    polys = [[0.0] * (max(k, l) + 1) for _ in range(4)]  # (cos, sin) x (plain, swept)
    for p, a in sin_power(k):
        for q, b in sin_power(l):
            if kernel == "phi":
                f = p + q
                parts = ([(2, -p, a * b)] if f == 0 else
                         [(0, -p, a * b * (-1) ** f / (1j * f)), (0, q, -a * b / (1j * f))])
            else:
                g = q - p
                parts = [(0, p, a * b * (np.pi if g == 0 else ((-1) ** g - 1) / (1j * g)))]
            for row, m, z in parts:
                cos_m, sin_m = _cos_sin_monomials(abs(m))
                for i, v in enumerate(cos_m):
                    polys[row][i] += z.real * v
                for i, v in enumerate(sin_m):  # empty for m = 0
                    polys[row + 1][i] -= (z.imag if m > 0 else -z.imag) * v
    terms = [(np.trim_zeros(np.array(c), "b"), bool(i & 1), i >= 2) for i, c in enumerate(polys)]
    return [t for t in terms if t[0].size]


@lru_cache(maxsize=1)
def _x_over_sin_x() -> np.ndarray:
    """Taylor coefficients in x^2 of x / sin x (all positive), by series division."""
    inv = [(-1.0) ** (i + 1) / math.factorial(2 * i + 1) for i in range(_SERIES_TERMS)]
    beta = [1.0]
    for j in range(1, _SERIES_TERMS):
        beta.append(sum([inv[i] * beta[j - i] for i in range(1, j + 1)]))
    return np.array(beta)


def _psi_series(k: int, l: int) -> np.ndarray:
    """Taylor coefficients in eps^2 of psi(eps) = phi(pi - eps) / eps^n.

    sin^k x = 2^-k sum over a of i^(a-k) S_k(a) x^a / a! with the integers
    S_k(a) = sum_j C(k,j) (-1)^j (k - 2j)^a, the (positive) coefficients of
    sinh^k.  As phi(pi - eps) = eps int_0^1 sin^k(eps(1-w)) sin^l(eps w) dw,
    Beta integrals reduce the product to a plain convolution of S_k and S_l:
    positive terms, so each coefficient is good to a few ulps.
    """
    def s_int(m):
        steps = [(m - 2 * j) ** 2 for j in range(m + 1)]
        terms = [math.comb(m, j) * (-1) ** j * (m - 2 * j) ** m for j in range(m + 1)]
        out = []
        for _ in range(_SERIES_TERMS):
            out.append(float(sum(terms)))
            terms = [t * b for t, b in zip(terms, steps)]
        return np.array(out)

    den = [2.0 ** (k + l) * math.factorial(k + l + 1)]
    for a in range(k + l + 2, k + l + 2 * _SERIES_TERMS, 2):
        den.append(-den[-1] * a * (a + 1))
    return np.convolve(s_int(k), s_int(l))[:_SERIES_TERMS] / np.array(den)


def _near_pi_series(k: int, l: int, form):
    """Switch eps and the truncated Taylor series of phi / sin^n in eps^2.

    The closed form's rounding error is estimated as u times its summed
    coefficient magnitudes (|c|, |s| <= 1, pi - alpha <= pi).  The switch is
    the smallest eps where that is _FORM_TOL of phi(pi - eps) = eps^n psi(eps),
    capped at pi/2; psi decreases there, so eps <- (estimate / psi(eps))^(1/n)
    climbs to it from 0, gaining ~10x per step.  The series converges for
    eps < pi and keeps the terms before the first one under u/4 of the
    leading term at the switch (later terms shrink > 2x each).

    For high orders float64 cannot carry this: the integers overflow, the
    truncated psi is <= 0 at a step of the search (its root would be
    complex) or the kept series is not finite.  Each raises ValueError
    naming (k, l).
    """
    n = k + l + 1
    refused = f"kernel orders (k, l) = ({k}, {l}) are too high for the float64 near-pi series"
    try:
        psi = _psi_series(k, l)
    except OverflowError as exc:
        raise ValueError(refused) from exc
    mass = sum(float(np.abs(c).sum()) * (np.pi if with_eps else 1.0) for c, _, with_eps in form)
    target = _UNIT_ROUNDOFF * mass / _FORM_TOL
    eps, psi_desc = 0.0, psi[::-1].tolist()
    for _ in range(8):
        value = 0.0
        for v in psi_desc:
            value = value * eps * eps + v
        if value <= 0.0:  # the root would be complex
            raise ValueError(refused)
        eps = min(0.5 * np.pi, (target / value) ** (1.0 / n))
    h = np.ones(1)
    for _ in range(n):
        h = np.convolve(h, _x_over_sin_x())[:_SERIES_TERMS]
    ratio = np.convolve(psi, h)[:_SERIES_TERMS]
    small = np.abs(ratio) * eps ** (2 * np.arange(_SERIES_TERMS)) < 0.25 * _UNIT_ROUNDOFF * ratio[0]
    series = ratio[: int(np.argmax(small)) if small.any() else _SERIES_TERMS]
    if not np.isfinite(series).all():
        raise ValueError(refused)
    return eps, series


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.full_like(x, coeffs[-1])
    for v in coeffs[-2::-1]:
        acc *= x
        acc += v
    return acc


def _form_at(form, a, c, s):
    """A closed form's value on one block (forms have at least one term)."""
    out = None
    for coeffs, with_s, with_eps in form:
        v = _horner(coeffs, c)
        if with_s:
            v *= s
        if with_eps:
            v *= _eps_from_pi(a)
        out = v if out is None else np.add(out, v, out=out)
    return out


def _sin_pow(s: np.ndarray, s2: np.ndarray, n: int) -> np.ndarray:
    """s^n from s and s2 = s^2 (n >= 1)."""
    out = s if n & 1 else s2
    for _ in range((n - 1) // 2):
        out = out * s2
    return out


class KernelEvaluator:
    """Kernels of one (k, l) order pair, read-only after construction (which
    generates the closed forms and series; nothing is fitted), so threads
    may share it.  The fast entry points take alpha and, optionally,
    cos(alpha); without it, c = cos(alpha) and s = stable_sin(alpha).
    """

    def __init__(self, k: int, l: int):
        if k < 0 or l < 0 or int(k) != k or int(l) != l:
            raise ValueError("kernel orders must be nonnegative integers")
        self.k = int(k)
        self.l = int(l)
        self.n = self.k + self.l + 1
        self._phi_form = _closed_form(self.k, self.l, "phi")
        self._conv_form = _closed_form(self.k, self.l, "conv")
        # too high an order overflows inside the series, which then raises
        with np.errstate(over="ignore", invalid="ignore"):
            eps_switch, self._series = _near_pi_series(self.k, self.l, self._phi_form)
        self.alpha_switch = np.pi - eps_switch

    def _evaluate(self, alpha, cos_alpha, form, sin_power=0, series=False):
        """form / sin^sin_power over cache-sized blocks; with series, entries
        past the switch come from the near-pi series instead."""
        alpha = np.asarray(alpha, dtype=float)
        a = alpha.ravel()
        if cos_alpha is None:
            c, s = np.cos(a), stable_sin(a)
        else:
            c, s = np.asarray(cos_alpha, dtype=float).ravel(), None
        out = np.empty_like(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(0, a.size, _BLOCK):
                part = slice(i, i + _BLOCK)
                ab, cb = a[part], c[part]
                lo, hi = float(ab.min()), float(ab.max())
                if lo < -1e-12 or hi > np.pi + 1e-12:
                    raise ValueError("alpha must lie in [0, pi]")
                if sin_power and lo < 1e-8:
                    raise ValueError(
                        "kernel ratio requested at alpha < 1e-8; the integrand is "
                        "unbounded there (points of K and L nearly coincide)")
                if s is None:
                    s2 = (1.0 - cb) * (1.0 + cb)
                    sb = np.sqrt(s2)
                else:
                    sb = s[part]
                    s2 = sb * sb
                val = _form_at(form, ab, cb, sb)
                if sin_power:
                    val /= _sin_pow(sb, s2, sin_power)
                if series and hi > self.alpha_switch:
                    near = np.flatnonzero(ab > self.alpha_switch)
                    fix = self.near_pi_ratio(_eps_from_pi(ab[near]))
                    if sin_power < self.n:
                        fix *= _sin_pow(sb[near], s2[near], self.n - sin_power)
                    val[near] = fix
                out[part] = val
        return _maybe_scalar(out.reshape(alpha.shape))

    def phi(self, alpha):
        """Sweep kernel phi(k, l, alpha)."""
        return self.phi_fast(alpha)

    def phi_fast(self, alpha, cos_alpha=None):
        """phi, optionally from cos(alpha); series times sin^n past the switch."""
        return self._evaluate(alpha, cos_alpha, self._phi_form, series=True)

    def kernel_ratio(self, alpha, cos_alpha=None):
        """phi(alpha) / sin^n(alpha) with the endpoint handled by series.

        Finite on (0, pi]; tends to k! l! / n! at alpha = pi.  Raises for
        alpha outside [0, pi] and below 1e-8, where the ratio diverges like
        alpha^{-n} and the disjointness hypothesis of the linking integral
        is violated.
        """
        return self._evaluate(alpha, cos_alpha, self._phi_form, self.n, series=True)

    def near_pi_ratio(self, eps):
        """kernel_ratio at alpha = pi - eps by the series, for eps <= pi - alpha_switch."""
        eps = np.asarray(eps, dtype=float)
        return _horner(self._series, eps * eps)

    def convolution(self, alpha):
        """Circular convolution kernel convolution(k, l, alpha)."""
        return self.convolution_fast(alpha)

    def convolution_fast(self, alpha, cos_alpha=None, sin_power=0):
        """Convolution kernel over sin^sin_power(alpha); the corollary uses
        sin_power = n, kept off alpha = 0 and pi by its margins."""
        return self._evaluate(alpha, cos_alpha, self._conv_form, sin_power)


def _maybe_scalar(out):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=128)
def get_evaluator(k: int, l: int) -> KernelEvaluator:
    """Shared evaluator cache; closed forms are built once per order pair."""
    return KernelEvaluator(k, l)


def phi(k: int, l: int, alpha):
    """Sweep kernel: integral of sin^k(beta - alpha) sin^l(beta) over [alpha, pi]."""
    return get_evaluator(k, l).phi(alpha)


def phi_kernel_ratio(k: int, l: int, alpha):
    """phi(k, l, alpha) / sin^n(alpha) for n = k + l + 1, endpoint-safe at pi."""
    return get_evaluator(k, l).kernel_ratio(alpha)


def convolution(k: int, l: int, alpha):
    """Convolution kernel: integral of sin^k(alpha - beta) sin^l(beta) over [0, pi]."""
    return get_evaluator(k, l).convolution(alpha)
