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
form generated per (k, l) by product-to-sum, its coefficients exact
integers over one common denominator: with c = cos(alpha), s = sin(alpha),
phi = P(c) + s Q(c) + (pi - alpha)(R(c) + s S(c)) and the convolution is
the same without the (pi - alpha) part.  Each order takes one of two
forms:

* odd k + l (even n): both kernels are polynomials in c, and phi is
  divisible by (1 + c)^(n/2), where it vanishes to order n at alpha = pi.
  Exact division gives phi / sin^n = P(c) / (1 - c)^(n/2) and
  convolution / sin^n = Q(c) / (1 - c^2)^(n/2); there is nothing to cancel
  and no transcendental to evaluate.
* even k + l: the closed form cancels at alpha = pi, so past a switch
  point phi / sin^n comes from its Taylor series in (pi - alpha)^2, whose
  coefficients are summed exactly in integers.  Switch and term count
  follow per order from bounds (_near_pi_series).

Against adaptive Gauss-Legendre on [0.01, pi] for k, l <= 4 the ratio is
good to ~1e-14 relative.

Every kernel is evaluated from alpha or from c = cos(alpha) alone, the
engine's dot products.  From c, 1 - c and 1 + c are exact near c = +-1;
the even orders form alpha = arccos(c) and s = sqrt((1-c)(1+c)) block by
block.  From alpha, 1 - c = 2 sin^2(alpha/2) and 1 + c = 2 cos^2(alpha/2).
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


# i^e as (real, imaginary) parts, for e mod 4
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@lru_cache(maxsize=None)
def _closed_form_exact(k: int, l: int, kernel: str):
    """The closed form as integer monomial rows over one denominator.

    Returns (rows, den): rows 0-3 multiply (1, s, pi - alpha, s (pi - alpha))
    and rows 4-5 (pi, pi s); row i's coefficients in c, lowest degree first,
    are over the common denominator den = 2^(k+l) lcm(1 .. k+l).

    phi: each e^{i(p(beta - alpha) + q beta)} integrates over [alpha, pi] to
    ((-1)^f e^{-ip alpha} - e^{iq alpha}) / (i f) for f = p + q != 0, and to
    (pi - alpha) e^{-ip alpha} for f = 0.  convolution: e^{ip alpha}
    e^{i(q - p) beta} integrates over [0, pi] to e^{ip alpha} times pi or
    ((-1)^g - 1) / (i g), g = q - p.  With 2^(k+l) sin^k x sin^l y the sum
    of C(k,j) C(l,j') (-1)^(j+j') (-i)^(k+l) e^{i(px + qy)}, every term is
    an integer times a power of i; the kernel is real, so z e^{i m alpha}
    contributes Re z cos(|m| alpha) - sign(m) Im z sin(|m| alpha).
    """
    total = k + l
    lcm = math.lcm(*range(1, total + 1))
    rows = [[0] * (max(k, l) + 1) for _ in range(6)]
    for j in range(k + 1):
        for jj in range(l + 1):
            p, q = k - 2 * j, l - 2 * jj
            b = math.comb(k, j) * math.comb(l, jj) * (-1) ** (j + jj) * lcm
            e = 3 * total  # (-i)^(k+l); 1 / (i f) = i^3 / f
            if kernel == "phi":
                f = p + q
                parts = ([(2, -p, b, e)] if f == 0 else
                         [(0, -p, (-b if f % 2 else b) // f, e + 3), (0, q, -b // f, e + 3)])
            else:
                g = q - p
                parts = ([(4, p, b, e)] if g == 0 else
                         [(0, p, -2 * b // g, e + 3)] if g % 2 else [])
            for row, m, w, ee in parts:
                re, im = (w * x for x in _I_POWERS[ee % 4])
                cos_m, sin_m = _cos_sin_monomials(abs(m))
                for i, v in enumerate(cos_m):
                    rows[row][i] += re * v
                for i, v in enumerate(sin_m):  # empty for m = 0
                    rows[row + 1][i] -= (im if m > 0 else -im) * v
    return rows, 2 ** total * lcm


def _closed_form(k: int, l: int, kernel: str):
    """Terms (coeffs, with_s, with_eps) whose sum coeffs(c) [* s] [* (pi - alpha)]
    is the kernel; coeffs are float monomials in c, lowest degree first,
    each the exact coefficient correctly rounded."""
    rows, den = _closed_form_exact(k, l, kernel)
    terms = []
    for i in range(4):
        pis = rows[i + 4] if i < 2 else [0] * len(rows[i])
        coeffs = np.trim_zeros(np.array([a / den + np.pi * (b / den)
                                         for a, b in zip(rows[i], pis)]), "b")
        if coeffs.size:
            terms.append((coeffs, bool(i & 1), i >= 2))
    return terms


def _rational_forms(k: int, l: int):
    """For odd k + l: P, float monomials in t = 1 - c, with
    phi / sin^n = P(t) / t^(n/2), and Q, float monomials in c, with
    convolution = Q(c).

    Both closed forms are then plain polynomials in c (every f and g is odd,
    so each term is real and no pi or pi - alpha enters).  phi vanishes to
    order n at alpha = pi, so its integer polynomial is divided exactly by
    (1 + c)^(n/2), and a nonzero remainder raises ArithmeticError.  The
    quotient is then shifted exactly to t = 1 - c, where its coefficients
    are positive for every k + l < 90 (checked): no term cancels on
    [0, pi].
    """
    (phi_rows, den), (conv_rows, _) = (_closed_form_exact(k, l, kern) for kern in ("phi", "conv"))
    if any(any(row) for row in phi_rows[1:] + conv_rows[1:]):
        raise ArithmeticError(f"closed forms of ({k}, {l}) are not polynomials in cos alpha")
    quotient = phi_rows[0]
    for _ in range((k + l + 1) // 2):
        high_first, carry = [], 0
        for v in reversed(quotient):  # synthetic division by c + 1
            carry = v - carry
            high_first.append(carry)
        if high_first.pop():
            raise ArithmeticError(f"phi of ({k}, {l}) is not divisible by (1 + cos alpha)^(n/2)")
        quotient = high_first[::-1]
    in_t = [sum(v * math.comb(i, j) for i, v in enumerate(quotient) if i >= j) * (-1) ** j
            for j in range(len(quotient))]
    return tuple(np.trim_zeros(np.array([v / den for v in poly]), "b")
                 for poly in (in_t, conv_rows[0]))


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

    For high orders float64 cannot carry this: the integers overflow, a
    psi coefficient is not finite (inf / inf in its denominators), the
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
    if not np.isfinite(psi).all():
        raise ValueError(refused)
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
    """The polynomial coeffs (lowest degree first) at x, a new array."""
    if coeffs.size == 1:
        return np.full_like(x, coeffs[0])
    acc = coeffs[-1] * x
    for i, v in enumerate(coeffs[-2::-1]):
        if i:
            acc *= x
        if v:
            acc += v
    return acc


def _poly(coeffs: np.ndarray, x: np.ndarray):
    """coeffs at x, or the constant itself when there is one coefficient."""
    return coeffs[0] if coeffs.size == 1 else _horner(coeffs, x)


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


def _power(x: np.ndarray, p: int) -> np.ndarray:
    """x^p (p >= 1) by repeated multiplies; x itself when p = 1."""
    if p == 1:
        return x
    out = x * x
    for _ in range(p - 2):
        out *= x
    return out


def _sin_pow(s, s2: np.ndarray, n: int) -> np.ndarray:
    """s^n from s and s2 = s^2 (n >= 1; s is read only for odd n)."""
    out = s if n & 1 else s2
    for _ in range((n - 1) // 2):
        out = out * s2
    return out


def _one_pm_cos(x: np.ndarray, from_cos: bool, sign: float) -> np.ndarray:
    """1 + sign cos(alpha) (sign = +-1) from c = x, or from alpha = x as
    2 sin^2(alpha/2) or 2 cos^2(alpha/2), exact to rounding at both ends."""
    if from_cos:
        return 1.0 + sign * x
    out = (np.sin if sign < 0 else np.cos)(0.5 * x)
    out *= out
    out *= 2.0
    return out


class KernelEvaluator:
    """Kernels of one (k, l) order pair, read-only after construction (which
    generates the closed forms, the series and, for odd k + l, P and Q;
    nothing is fitted), so threads may share it.  The fast entry points take
    alpha or, instead, cos(alpha) alone: with cos_alpha given, alpha is not
    read and may be None.
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
        self._rational = _rational_forms(self.k, self.l) if self.n % 2 == 0 else None

    def _evaluate(self, alpha, cos_alpha, kernel, sin_power=0, out=None):
        """kernel ("phi" or "conv") / sin^sin_power over cache-sized blocks,
        from cos_alpha when it is given, else from alpha, into `out` when it
        is given (a C-contiguous array of their shape, which may be that
        input itself: each block is read whole before its values are
        written); phi is only asked for sin_power 0 or n."""
        from_cos = cos_alpha is not None
        x = np.asarray(cos_alpha if from_cos else alpha, dtype=float)
        flat = x.ravel()
        out = np.empty_like(flat) if out is None else out.reshape(flat.shape)
        lo_ok, hi_ok = (-1.0, 1.0) if from_cos else (0.0, np.pi)
        block = self._rational_block if self._rational else self._form_block
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(0, flat.size, _BLOCK):
                part = slice(i, i + _BLOCK)
                xb = flat[part]
                lo, hi = float(xb.min()), float(xb.max())
                if not (lo >= lo_ok - 1e-12 and hi <= hi_ok + 1e-12):
                    raise ValueError("cos alpha must lie in [-1, 1]" if from_cos
                                     else "alpha must lie in [0, pi]")
                # cos(1e-8) rounds to 1.0
                if sin_power and (hi >= 1.0 if from_cos else lo < 1e-8):
                    raise ValueError(
                        "kernel ratio requested at alpha < 1e-8; the integrand is "
                        "unbounded there (points of K and L nearly coincide)")
                block(xb, from_cos, kernel, sin_power, out[part])
        return _maybe_scalar(out.reshape(x.shape))

    def _rational_block(self, x, from_cos, kernel, sin_power, out):
        """Odd k + l, from c or alpha = x, into out: the ratio P(t) / t^(n/2)
        or phi = P(t) (1 + c)^(n/2) for t = 1 - c, or Q(c) / sin^sin_power."""
        t = _one_pm_cos(x, from_cos, -1.0)
        if kernel == "phi":
            p = _poly(self._rational[0], t)
            if sin_power:
                np.divide(p, _power(t, self.n // 2), out=out)
            else:
                np.multiply(p, _power(_one_pm_cos(x, from_cos, 1.0), self.n // 2), out=out)
            return
        q = _poly(self._rational[1], x if from_cos else np.cos(x))
        if sin_power:
            t *= _one_pm_cos(x, from_cos, 1.0)  # sin^2 alpha
            np.divide(q, _sin_pow(np.sqrt(t) if sin_power & 1 else None, t, sin_power), out=out)
        else:
            out[...] = q

    def _form_block(self, x, from_cos, kernel, sin_power, out):
        """Even k + l, from c or alpha = x, into out: the closed form, phi
        past the switch from the series."""
        if from_cos:
            c = np.clip(x, -1.0, 1.0)
            a = np.arccos(c)
            s2 = (1.0 - c) * (1.0 + c)
            s = np.sqrt(s2)
        else:
            a, c, s = x, np.cos(x), stable_sin(x)
            s2 = s * s
        val = _form_at(self._phi_form if kernel == "phi" else self._conv_form, a, c, s)
        if sin_power:
            val /= _sin_pow(s, s2, sin_power)
        if kernel == "phi" and float(a.max()) > self.alpha_switch:
            near = np.flatnonzero(a > self.alpha_switch)
            fix = self.near_pi_ratio(_eps_from_pi(a[near]))
            if sin_power < self.n:
                fix *= _sin_pow(s[near], s2[near], self.n - sin_power)
            val[near] = fix
        out[...] = val

    def phi_fast(self, alpha, cos_alpha=None):
        """phi at alpha, or from cos_alpha alone."""
        return self._evaluate(alpha, cos_alpha, "phi")

    def kernel_ratio(self, alpha, cos_alpha=None, out=None):
        """phi(alpha) / sin^n(alpha), at alpha or from cos_alpha alone,
        written into `out` when it is given (cos_alpha itself included).

        Finite on (0, pi]; tends to k! l! / n! at alpha = pi.  Raises for
        alpha outside [0, pi] (cos_alpha outside [-1, 1]) or NaN, and below
        1e-8, where the ratio diverges like alpha^{-n} and the disjointness
        hypothesis of the linking integral is violated.
        """
        return self._evaluate(alpha, cos_alpha, "phi", self.n, out)

    def near_pi_ratio(self, eps):
        """kernel_ratio at alpha = pi - eps by the series, for eps <= pi - alpha_switch."""
        eps = np.asarray(eps, dtype=float)
        return _horner(self._series, eps * eps)

    def convolution_fast(self, alpha, cos_alpha=None, sin_power=0, out=None):
        """Convolution kernel over sin^sin_power(alpha), at alpha or from
        cos_alpha alone, written into `out` when it is given (cos_alpha
        itself included); the corollary uses sin_power = n, kept off
        alpha = 0 and pi by its margins."""
        return self._evaluate(alpha, cos_alpha, "conv", sin_power, out)


def _maybe_scalar(out):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=128)
def get_evaluator(k: int, l: int) -> KernelEvaluator:
    """Shared evaluator cache; closed forms are built once per order pair."""
    return KernelEvaluator(k, l)


def phi(k: int, l: int, alpha):
    """Sweep kernel: integral of sin^k(beta - alpha) sin^l(beta) over [alpha, pi]."""
    return get_evaluator(k, l).phi_fast(alpha)


def phi_kernel_ratio(k: int, l: int, alpha):
    """phi(k, l, alpha) / sin^n(alpha) for n = k + l + 1, endpoint-safe at pi."""
    return get_evaluator(k, l).kernel_ratio(alpha)


def convolution(k: int, l: int, alpha):
    """Convolution kernel: integral of sin^k(alpha - beta) sin^l(beta) over [0, pi]."""
    return get_evaluator(k, l).convolution_fast(alpha)
