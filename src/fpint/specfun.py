"""Self-contained special functions used by the closed forms and series.

Everything here is binary64:  real gamma (math.gamma, reflected below 0)
and ln|gamma| with its sign, digamma (shifted Stirling), the upper and the
regularized incomplete gamma (series / continued fraction; the upper one
takes a complex second argument), generalized hypergeometric pFq by
term-ratio recurrence with compensated summation, the large-argument form of
the coincident-parameter 2F2, Bessel J0, Airy Ai / Ai', modified Bessel
I_{+-1/3}, and real zeta / zeta' including negative arguments.

J0 and Ai / Ai' are Horner kernels on coefficient tables built at import:
J0 by its Maclaurin series for |x| <= 12.5 and its Hankel expansion beyond
(error below 5e-12 of the envelope min(1, sqrt(2/(pi x)))), Ai / Ai' by
their Maclaurin series for |x| <= 6 and their asymptotic forms beyond.  The
Airy error is a few 1e-16 on [-3, 3], about 1e-10 just past |x| = 6, and
up to 6e-8 relative on [5, 6], where the Maclaurin series cancels; there
neither series alone gets much below 5e-9.  The number of terms of
every point is a function of that point's x alone, so an array value is
bitwise the value of its point alone.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NoConvergence, PoleError
from .precision import CONSECUTIVE_SMALL_TERMS, PrecisionConfig, default_precision

EULER_GAMMA = 0.5772156649015328606065120900824024310422

# Crossover |z| above which the asymptotic 2F2 route is admitted.
CROSSOVER_2F2 = 60.0

_TINY = 1e-300


def _is_int(x: float, tol: float = 1e-12) -> bool:
    return abs(x - round(x)) < tol


def _near_nonpositive_int(z: complex) -> bool:
    return abs(z.imag) < 1e-12 and z.real < 0.5 and _is_int(z.real)


class _KahanC:
    """Compensated accumulator for complex series."""

    __slots__ = ("s", "c")

    def __init__(self) -> None:
        self.s = 0.0 + 0.0j
        self.c = 0.0 + 0.0j

    def add(self, term: complex) -> complex:
        y = term - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t
        return self.s


# ---------------------------------------------------------------------------
# Gamma and digamma
# ---------------------------------------------------------------------------

def gamma_real(x: float) -> float:
    """Gamma(x) for real x; PoleError at the non-positive integers."""
    if x > 0.0:
        return math.gamma(x)
    if _is_int(x):
        raise PoleError(f"gamma pole at x={x}")
    # reflection keeps math.gamma on positive arguments
    return math.pi / (math.sin(math.pi * x) * math.gamma(1.0 - x))


def lgamma_sign(x: float) -> tuple[float, float]:
    """(ln|Gamma(x)|, sign) for real non-pole x; safe far outside gamma's range."""
    if x > 0.0:
        return math.lgamma(x), 1.0
    if _is_int(x):
        raise PoleError(f"gamma pole at x={x}")
    sign = -1.0 if math.floor(-x) % 2 == 0 else 1.0
    return math.lgamma(x), sign


_DIGAMMA_ASYM = (
    # B_{2n}/(2n) for the Stirling series of psi
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
    1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0,
)


def _digamma_core(zc: complex) -> complex:
    shift = 0.0 + 0.0j
    while zc.real < 10.0:
        shift -= 1.0 / zc
        zc += 1.0
    inv2 = 1.0 / (zc * zc)
    tail = 0.0 + 0.0j
    p = inv2
    for coeff in _DIGAMMA_ASYM:
        tail += coeff * p
        p *= inv2
    return shift + cmath.log(zc) - 0.5 / zc - tail


def digamma(z: complex) -> complex:
    """psi(z) via recurrence shift to Re z >= 10 plus the Stirling tail."""
    zc = complex(z)
    if _near_nonpositive_int(zc):
        raise PoleError(f"digamma pole at z={z}")
    if zc.real < 0.0:
        # reflection: psi(1-z) - psi(z) = pi cot(pi z)
        val = _digamma_core(1.0 - zc) - math.pi / cmath.tan(math.pi * zc)
    else:
        val = _digamma_core(zc)
    if isinstance(z, complex):
        return val
    return val.real


# ---------------------------------------------------------------------------
# Incomplete gamma
# ---------------------------------------------------------------------------

def _lower_gamma_series(s: float, x: complex, rel_tol: float) -> complex:
    # gamma(s, x) = x^s e^{-x} sum_n x^n / (s (s+1) ... (s+n))
    term = 1.0 / s
    acc = _KahanC()
    total = acc.add(term)
    for n in range(1, 800):
        term *= x / (s + n)
        total = acc.add(term)
        if abs(term) <= rel_tol * abs(total):
            break
    else:
        raise NoConvergence("lower incomplete gamma series did not converge")
    return cmath.exp(-x + s * cmath.log(x)) * total


def _upper_cf_factor(s: float, x: complex, rel_tol: float) -> complex:
    # Gamma(s, x) = e^{-x} x^s * h with h the Lentz continued fraction
    # 1/(x + 1 - s - 1(1-s)/(x + 3 - s - ...))
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b if b != 0 else 1.0 / _TINY
    h = d
    for i in range(1, 600):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < rel_tol:
            return h
    raise NoConvergence("upper incomplete gamma continued fraction stalled")


def incomplete_gamma_upper(s: float, x: float | complex) -> float | complex:
    """Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt, s > 0.

    x may be complex (principal branch of x^s), which the catalog's
    oscillatory-kernel entries need.
    """
    rel_tol = default_precision().rel_tol
    if s <= 0.0:
        raise DomainError("upper incomplete gamma needs s > 0")
    xc = complex(x)
    if xc == 0:
        return math.gamma(s)
    if xc.imag == 0.0 and xc.real > 0.0 and xc.real >= s + 1.0:
        val = cmath.exp(-xc + s * cmath.log(xc)) * _upper_cf_factor(s, xc, rel_tol)
    else:
        val = math.gamma(s) - _lower_gamma_series(s, xc, rel_tol)
    return val if isinstance(x, complex) else val.real


def incomplete_gamma_p(s: float, x: float) -> float:
    """Regularized lower gamma P(s, x) = gamma(s, x)/Gamma(s); stable at large s."""
    rel_tol = default_precision().rel_tol
    if s <= 0.0:
        raise DomainError("regularized lower incomplete gamma needs s > 0")
    if x < 0.0:
        raise DomainError("regularized incomplete gamma needs x >= 0")
    if x == 0.0:
        return 0.0
    ln_pref = s * math.log(x) - x
    if x < s + 1.0:
        # P = x^s e^-x / Gamma(s+1) * sum_n x^n / ((s+1)...(s+n))
        term = 1.0
        total = 1.0
        for n in range(1, 1000):
            term *= x / (s + n)
            total += term
            if term <= rel_tol * total:
                break
        else:
            raise NoConvergence("regularized lower gamma series stalled")
        return math.exp(ln_pref - math.lgamma(s + 1.0)) * total
    h = _upper_cf_factor(s, complex(x), rel_tol).real
    return 1.0 - math.exp(ln_pref - math.lgamma(s)) * h


def incomplete_gamma_q(s: float, x: float) -> float:
    """Regularized upper gamma Q(s, x) = Gamma(s, x)/Gamma(s)."""
    return 1.0 - incomplete_gamma_p(s, x)


# ---------------------------------------------------------------------------
# Generalized hypergeometric pFq
# ---------------------------------------------------------------------------

class PfqResult(NamedTuple):
    value: complex
    terms_used: int


def hyper_pfq(numerators: Sequence[complex], denominators: Sequence[complex],
              z: complex, precision: PrecisionConfig | None = None) -> PfqResult:
    """pFq(numerators; denominators; z) by forward term-ratio recurrence.

    Requires p <= q + 1; for p = q + 1 the series only converges on |z| < 1.
    Raises PoleError if a denominator parameter is a non-positive integer,
    NoConvergence if max_terms is hit first.
    """
    precision = precision or default_precision()
    num = [complex(a) for a in numerators]
    den = [complex(b) for b in denominators]
    if len(num) > len(den) + 1:
        raise DomainError("pFq with p > q + 1 is outside the supported family")
    for b in den:
        if _near_nonpositive_int(b):
            raise PoleError(f"denominator parameter {b} is a non-positive integer")
    zc = complex(z)
    if len(num) == len(den) + 1 and abs(zc) >= 1.0 and zc != 0:
        raise DomainError("p = q + 1 series requires |z| < 1")
    if zc == 0:
        return PfqResult(1.0 + 0.0j, 1)

    term: complex = 1.0 + 0.0j
    acc = _KahanC()
    total = acc.add(term)
    small_streak = 0
    for n in range(precision.max_terms):
        # a numerator parameter equal to a non-positive integer truncates
        ratio = zc / (n + 1.0)
        for a in num:
            ratio *= a + n
        if ratio == 0:
            return PfqResult(total, n + 1)
        for b in den:
            ratio /= b + n
        term *= ratio
        total = acc.add(term)
        if abs(term) < precision.rel_tol * max(abs(total), _TINY):
            small_streak += 1
            if small_streak >= CONSECUTIVE_SMALL_TERMS:
                return PfqResult(total, n + 2)
        else:
            small_streak = 0
    raise NoConvergence(
        f"pFq did not reach rel_tol={precision.rel_tol} within {precision.max_terms} terms")


def _exp_e1_asymptotic(w: complex) -> complex:
    """E_1(w) by its optimally truncated asymptotic series (|w| large)."""
    inv = 1.0 / w
    term = inv
    total = term
    prev = abs(term)
    for j in range(1, 60):
        term *= -j * inv
        if abs(term) > prev:
            break
        total += term
        prev = abs(term)
    return cmath.exp(-w) * total


def hyper_2f2_asymptotic_11(k: int, a: float, s: float) -> complex:
    """Large-|a s| value of (ia)^{k+1} s / (k+1)! * 2F2(1,1; 2,2+k; i a s).

    Uses the exact reduction T_k(z) = (1/k) T_{k-1}(z) - (e^z - e_k(z)) / (k z^k)
    with T_0(z) = -gamma - log(-z) - E_1(-z); the only asymptotic ingredient is
    E_1, so the result carries the ln s, ln|a|, i pi/2 sgn(a) and psi(k+1)
    structure of the double-pole expansion with negligible truncation error.
    """
    if k < 0 or int(k) != k:
        raise DomainError("k must be a non-negative integer")
    if a == 0.0:
        raise DomainError("a must be nonzero")
    if abs(a * s) < CROSSOVER_2F2:
        raise DomainError(
            f"|a*s| = {abs(a * s):g} below the asymptotic crossover {CROSSOVER_2F2:g}")
    z = 1j * a * s
    t = -EULER_GAMMA - cmath.log(-z) - _exp_e1_asymptotic(-z)
    if k > 0:
        ez = cmath.exp(z)
        for j in range(1, k + 1):
            # e_j(z) / z^j accumulated with non-positive powers of z only
            ej_over_zj = 0.0 + 0.0j
            for i in range(j + 1):
                ej_over_zj += z ** (i - j) / math.factorial(i)
            t = t / j - (ez * z ** (-j) - ej_over_zj) / j
    return (1j * a) ** k * t


# ---------------------------------------------------------------------------
# Bessel J0 and Airy Ai, Ai': fixed-coefficient Horner kernels
# ---------------------------------------------------------------------------

def _horner(coef: np.ndarray, t: np.ndarray, last: np.ndarray | None = None) -> np.ndarray:
    """sum_k coef[r, k] t^k for every row r of coef at every point of t.

    `last` (broadcast to (rows, t.size)) gives each point its own highest
    power: its coefficients past it are zeroed, so the leading Horner steps
    hold it at an exact 0 and its value is the one it has alone, whatever the
    other points of the array.  Without `last` every point takes every column.
    The loop is elementwise on purpose: a BLAS reduction over the columns
    would sum in an order that depends on the array.
    """
    cols = coef.T[:, :, None]                  # one (rows, 1) block per power
    if last is not None:
        steps = int(last.max()) + 1
        cols = cols[:steps] * (np.arange(steps)[:, None, None] <= last)
    acc = np.empty((coef.shape[0], t.size))
    acc[:] = cols[-1]
    for j in range(len(cols) - 2, -1, -1):
        acc *= t
        acc += cols[j]
    return acc


_J0_SPLIT = 12.5
_J0_TOL = 1e-17


def _j0_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # Maclaurin: J0 = sum_k q^k / (k!)^2, q = -x^2/4; term k is below _J0_TOL
    # for x < 2 (_J0_TOL (k!)^2)^(1/2k), which grows with k
    fact = [math.factorial(k) for k in range(40)]
    series = np.array([[1.0 / (f * f) for f in fact]])
    series_edges = np.array([2.0 * (_J0_TOL * fact[k] ** 2) ** (0.5 / k)
                             for k in range(1, 40)])
    # Hankel: a_m = alpha_m / x^m, alpha_m = prod_{j<=m} (2j-1)^2 / (m! 8^m).
    # a_m <= a_{m-1} for x >= (2m-1)^2/(8m), and a_m < _J0_TOL for x above
    # (alpha_m / _J0_TOL)^(1/m), which falls with m up to m = 38
    alpha = [1.0]
    num = 1
    for m in range(1, 40):
        num *= (2 * m - 1) ** 2
        alpha.append(num / (math.factorial(m) * 8 ** m))
    sign = [(-1.0) ** k for k in range(20)]
    hankel = np.array([[s * alpha[2 * k] for k, s in enumerate(sign)],
                       [s * alpha[2 * k + 1] for k, s in enumerate(sign)]])
    falling = np.array([(2 * m - 1) ** 2 / (8.0 * m) for m in range(1, 40)])
    small = np.array([(alpha[m] / _J0_TOL) ** (1.0 / m) for m in range(38, 0, -1)])
    return series, series_edges, hankel, falling, small


_J0_SERIES, _J0_SERIES_EDGES, _J0_HANKEL, _J0_FALLING, _J0_SMALL = _j0_tables()


def _j0_series_arr(x: np.ndarray) -> np.ndarray:
    # each point stops at its first term below _J0_TOL
    last = np.searchsorted(_J0_SERIES_EDGES, x, side="right") + 1
    return _horner(_J0_SERIES, -0.25 * x * x, last[None, :])[0]


def _j0_asym_arr(x: np.ndarray) -> np.ndarray:
    # Hankel expansion (DLMF 10.17.3): J0 = sqrt(2/(pi x)) (P cos w + Q sin w),
    # w = x - pi/4, P = a_0 - a_2 + a_4 - ..., Q = a_1 - a_3 + ..., both in
    # powers of 1/x^2 and stopped at each point's smallest term a_M or at its
    # first term below _J0_TOL, whichever comes first
    smallest = np.searchsorted(_J0_FALLING, x, side="right")
    below_tol = len(_J0_SMALL) + 1 - np.searchsorted(_J0_SMALL, x, side="left")
    m = np.minimum(smallest, below_tol)
    inv = 1.0 / x                   # not 1 / x^2, which overflows past 1e154
    pq = _horner(_J0_HANKEL, inv * inv, np.stack([m // 2, (m - 1) // 2]))
    w = x - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (pq[0] * np.cos(w) + pq[1] * inv * np.sin(w))


def bessel_j0(x: float | np.ndarray) -> float | np.ndarray:
    """J_0(x): Maclaurin series for |x| <= 12.5, Hankel asymptotics beyond.

    Each point takes a number of terms set by its own |x| (a short table of
    breakpoints), so its value does not depend on the other points of its
    array.  The series stops at its first term below 1e-17; the Hankel sums
    stop at their smallest term or at their first term below 1e-17.  The
    crossover at 12.5 balances the series' cancellation against the Hankel
    sums' smallest term (about e^{-2x}); against mpmath the error is below
    5e-12 of the envelope min(1, sqrt(2/(pi x))) on [0, 40], largest near
    the crossover, and below 3e-15 of it past x = 20.  J0(+-inf) = 0, and
    nan gives nan.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(np.abs(arr))          # J0 is even
    out = np.where(arr == math.inf, 0.0, np.nan)   # J0(+-inf) = 0; nan stays nan
    small = arr <= _J0_SPLIT
    large = (arr > _J0_SPLIT) & (arr < math.inf)
    if small.any():
        out[small] = _j0_series_arr(arr[small])
    if large.any():
        out[large] = _j0_asym_arr(arr[large])
    return float(out[0]) if scalar else out


_AI0 = 0.3550280538878172392600631860041831763980             # Ai(0)
_AIP0 = -0.2588194037928067984051835601892039634793           # Ai'(0)
_AIRY_SPLIT = 6.0
# -x past which the oscillatory phase (2/3)|x|^1.5 exceeds 2^53, where floats
# are 2 or more apart: Ai, Ai' there have no correct digit and are refused
_AIRY_PHASE_LIMIT = (1.5 * 2.0 ** 53) ** (2.0 / 3.0)
_AIRY_DEGREE = 28
_AIRY_TOL = 1e-18


def _airy_maclaurin_coeffs(degree: int) -> np.ndarray:
    # f = sum_k c_k t^k and g = x sum_k d_k t^k, t = x^3, with
    # c_k = 1 / prod_{j<=k} (3j-1)(3j) and d_k = 1 / prod_{j<=k} (3j)(3j+1);
    # f' = x^2 sum_k 3(k+1) c_{k+1} t^k and g' = sum_k (3k+1) d_k t^k
    cden, dden = [1], [1]
    for k in range(1, degree + 2):
        cden.append(cden[-1] * (3 * k - 1) * (3 * k))
        dden.append(dden[-1] * (3 * k) * (3 * k + 1))
    ks = range(degree + 1)
    return np.array([[1 / cden[k] for k in ks],
                     [1 / dden[k] for k in ks],
                     [3 * (k + 1) / cden[k + 1] for k in ks],
                     [(3 * k + 1) / dden[k] for k in ks]])


_AIRY_MACLAURIN = _airy_maclaurin_coeffs(_AIRY_DEGREE)
_AIRY_XPOW = np.array([0, 1, 2, 0])        # the factor x^p of each row: g = x G, f' = x^2 F'
# degree k suffices below |x| = _AIRY_EDGES[k]: there the term of power k+1
# of every row, with its factor x^p, is below _AIRY_TOL
_AIRY_EDGES = np.array([
    np.min((_AIRY_TOL / _AIRY_MACLAURIN[:, k + 1]) ** (1.0 / (3 * k + 3 + _AIRY_XPOW)))
    for k in range(_AIRY_DEGREE)])


def _airy_series_arr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ai, Ai' for |x| <= 6 from the Maclaurin series.

    Ai = Ai(0) f + Ai'(0) g over the standard solution basis, each point to
    the degree in x^3 at which its omitted terms fall below 1e-18 (28 at
    |x| = 6; most calls need far fewer).  Against mpmath the error is a few
    1e-16 on [-3, 3] and up to 2e-13 of the envelope |x|^(-/+1/4)/sqrt(pi)
    near x = -6.  On the positive axis the terms grow like e^zeta while Ai
    falls like e^-zeta, zeta = (2/3) x^1.5: the relative error rises to
    about 1e-11 at x = 4 and 6e-8 at x = 6.
    """
    last = np.searchsorted(_AIRY_EDGES, np.abs(x), side="right")
    fg = _horner(_AIRY_MACLAURIN, x ** 3, last[None, :])
    ai = _AI0 * fg[0] + _AIP0 * (x * fg[1])
    aip = _AI0 * (x * x * fg[2]) + _AIP0 * fg[3]
    return ai, aip


def _airy_u_coeffs(n: int) -> list[float]:
    u = [1.0]
    for kk in range(n - 1):
        u.append(u[-1] * (6 * kk + 1) * (6 * kk + 3) * (6 * kk + 5)
                 / (216.0 * (kk + 1) * (2 * kk + 1)))
    return u


_AIRY_U = _airy_u_coeffs(26)
_AIRY_V = [(6 * kk + 1) / (1.0 - 6 * kk) * _AIRY_U[kk] if kk else 1.0
           for kk in range(len(_AIRY_U))]
_AIRY_UV = np.array([[(-1.0) ** k * u for k, u in enumerate(_AIRY_U)],
                     [(-1.0) ** k * v for k, v in enumerate(_AIRY_V)]])
# u_k / zeta^k stops falling once 1/zeta > u_{k-1} / u_k; the ratios fall with k
_AIRY_GROWS = np.array(_AIRY_U[-2::-1]) / np.array(_AIRY_U[:0:-1])


def _airy_asym_pos(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ai, Ai' for x > 6 from the asymptotic series in 1/zeta (DLMF 9.7.5-6).

    Each point stops before its own first growing term, so the error is
    about that term: 1.4e-10 relative at x = 6.001, 1e-12 at 7, and a few
    ulp (the rounding of zeta in e^-zeta) past x = 8.
    """
    with np.errstate(over="ignore"):     # zeta = inf past x ~ 3e205: Ai = Ai' = 0
        zeta = (2.0 / 3.0) * x ** 1.5
    inv = 1.0 / zeta
    last = len(_AIRY_GROWS) - np.searchsorted(_AIRY_GROWS, inv, side="left")
    s = _horner(_AIRY_UV, inv, last[None, :])
    decay = np.exp(-zeta)
    root4 = x ** 0.25
    return (decay / (2.0 * math.sqrt(math.pi) * root4) * s[0],
            -root4 * decay / (2.0 * math.sqrt(math.pi)) * s[1])


def _airy_asym_neg(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ai, Ai' at -t for t > 6: the oscillatory forms of DLMF 9.7.9-9.7.11.

    The error is largest at the crossover, 1e-10 of the envelope for Ai and
    4e-10 for Ai' at t = 6.001, and below 1e-14 past t = 8.
    """
    zeta = (2.0 / 3.0) * t ** 1.5
    inv2 = 1.0 / (zeta * zeta)
    ce, se = np.zeros_like(t), np.zeros_like(t)
    cpe, spe = np.zeros_like(t), np.zeros_like(t)
    p = np.ones_like(t)
    for kk in range(0, len(_AIRY_U) // 2):
        sgn = (-1.0) ** kk
        u_even, v_even = _AIRY_U[2 * kk], _AIRY_V[2 * kk]
        ce += sgn * u_even * p
        cpe += sgn * v_even * p
        if 2 * kk + 1 < len(_AIRY_U):
            se += sgn * _AIRY_U[2 * kk + 1] * p / zeta
            spe += sgn * _AIRY_V[2 * kk + 1] * p / zeta
        p = p * inv2
        done = np.abs(p) * abs(_AIRY_U[min(2 * kk + 2, len(_AIRY_U) - 1)]) < 1e-18
        if done.all():
            break
        p[done] = 0.0      # a converged point adds nothing more
    phase = zeta - 0.25 * math.pi
    ai = (np.cos(phase) * ce + np.sin(phase) * se) / (math.sqrt(math.pi) * t ** 0.25)
    aip = (t ** 0.25 / math.sqrt(math.pi)) * (np.sin(phase) * cpe - np.cos(phase) * spe)
    return ai, aip


def _airy_pair(x: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    mid = np.abs(arr) <= _AIRY_SPLIT
    if mid.all():                  # most calls: no region to pick apart
        return (*_airy_series_arr(arr), scalar)
    ai = np.where(np.isinf(arr), 0.0, np.nan)    # Ai, Ai' vanish at +-inf; nan stays nan
    aip = ai.copy()
    pos = (arr > _AIRY_SPLIT) & (arr < math.inf)
    neg = (arr < -_AIRY_SPLIT) & (arr > -math.inf)
    if (arr[neg] < -_AIRY_PHASE_LIMIT).any():
        raise DomainError(f"Ai(x) at x < -{_AIRY_PHASE_LIMIT:.3g}: its phase (2/3)|x|^1.5 "
                          "is past 2^53 and keeps no digit in binary64")
    if mid.any():
        ai[mid], aip[mid] = _airy_series_arr(arr[mid])
    if pos.any():
        ai[pos], aip[pos] = _airy_asym_pos(arr[pos])
    if neg.any():
        ai[neg], aip[neg] = _airy_asym_neg(-arr[neg])
    return ai, aip, scalar


def airy_ai(x: float | np.ndarray) -> float | np.ndarray:
    """Airy Ai(x) on the real line, 0 at +-inf; each value is its one-point
    value.  DomainError below x = -_AIRY_PHASE_LIMIT, where the phase is lost."""
    ai, _, scalar = _airy_pair(x)
    return float(ai[0]) if scalar else ai


def airy_ai_prime(x: float | np.ndarray) -> float | np.ndarray:
    """Airy Ai'(x) on the real line, 0 at +-inf; refused as airy_ai is."""
    _, aip, scalar = _airy_pair(x)
    return float(aip[0]) if scalar else aip


def bessel_i_third(order_sign: int, x: float) -> float:
    """I_{order_sign/3}(x) for order_sign in {+1, -1}, x >= 0; plain series."""
    if order_sign not in (1, -1):
        raise DomainError("order_sign must be +1 or -1 (order +-1/3)")
    if x < 0.0:
        raise DomainError("bessel_i_third needs x >= 0")
    nu = order_sign / 3.0
    if x == 0.0:
        return 0.0 if order_sign == 1 else math.inf
    half = 0.5 * x
    q = half * half
    term = half ** nu / gamma_real(1.0 + nu)
    total = term
    for kk in range(1, 500):
        term *= q / (kk * (kk + nu))
        total += term
        if term < 1e-17 * total:
            return total
    raise NoConvergence("modified Bessel series did not converge")


# ---------------------------------------------------------------------------
# Bernoulli numbers and the zeta family
# ---------------------------------------------------------------------------

def _bernoulli_table(n_max: int) -> list[Fraction]:
    # B^- convention (B_1 = -1/2), exact rationals.  B_2n comes from the
    # tangent number T_n by B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)), and
    # the T_n from the integer recurrence of Knuth and Buckholtz (Math. Comp.
    # 21, 1967), far cheaper than the Fraction recurrence defining B_m
    half = n_max // 2
    tangent = [0, 1] + [0] * (half - 1)
    for k in range(2, half + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    out = [Fraction(1), Fraction(-1, 2)]
    for n in range(1, half + 1):
        four_n = 4 ** n
        out.append(Fraction((-1) ** (n - 1) * 2 * n * tangent[n], four_n * (four_n - 1)))
        out.append(Fraction(0))
    return out[:n_max + 1]


# B_0 .. B_30; B_2j / (2j)! for j = 1..15 are the Euler-Maclaurin correction
# weights of _zeta_em
_BERNOULLI = _bernoulli_table(30)
_ZETA_EM_WEIGHTS = tuple(float(_BERNOULLI[2 * j]) / math.factorial(2 * j)
                         for j in range(1, 16))


_ZETA_EM_N = 24.0
_ZETA_EM_LN_N = math.log(_ZETA_EM_N)
# (k, ln k) for the direct part of the sum, k = 1..23
_ZETA_EM_HEAD = tuple((k, math.log(k)) for k in range(1, 24))
# each correction weight with the factors s + i that take the Pochhammer
# symbol (s)_{2j-1} = s (s+1) ... (s+2j-2) on from the previous term
_ZETA_EM_TERMS = tuple(zip(_ZETA_EM_WEIGHTS, ((0.0,),) + tuple(
    (2.0 * j - 1.0, 2.0 * j) for j in range(1, len(_ZETA_EM_WEIGHTS)))))


def _zeta_em(s: float, want_derivative: bool = False) -> float:
    """Euler-Maclaurin zeta(s) (or zeta'(s)) for s > -1, s != 1."""
    total = 0.0
    dtotal = 0.0
    for kk, ln_k in _ZETA_EM_HEAD:
        p = kk ** (-s)
        total += p
        dtotal -= ln_k * p
    nn = _ZETA_EM_N
    ln_n = _ZETA_EM_LN_N
    a = nn ** (1.0 - s) / (s - 1.0)
    total += a
    dtotal += -ln_n * a - nn ** (1.0 - s) / (s - 1.0) ** 2
    b = 0.5 * nn ** (-s)
    total += b
    dtotal -= ln_n * b
    npow = nn ** (-s - 1.0)
    poch = 1.0
    dpoch = 0.0
    for coeff, steps in _ZETA_EM_TERMS:
        for i in steps:
            dpoch = dpoch * (s + i) + poch
            poch *= s + i
        total += coeff * poch * npow
        dtotal += coeff * (dpoch - poch * ln_n) * npow
        npow /= nn * nn
    return dtotal if want_derivative else total


def zeta_real(s: float) -> float:
    """Riemann zeta at real s != 1 (functional equation for s < -1/2)."""
    if s == 1.0:
        raise PoleError("zeta pole at s = 1")
    if s >= 54.0:
        return 1.0          # zeta(s) - 1 < 2^(1-s) rounds away from s = 54 on
    if s >= -0.5:
        return _zeta_em(s)
    if _is_int(s) and round(s) % 2 == 0:
        return 0.0          # the trivial zeros, where sin(pi s / 2) does not round to 0
    sin_factor = math.sin(0.5 * math.pi * s)
    zr = _zeta_em(1.0 - s)
    ln_mag = (s * math.log(2.0) + (s - 1.0) * math.log(math.pi)
              + math.lgamma(1.0 - s) + math.log(abs(sin_factor)) + math.log(abs(zr)))
    return math.copysign(math.exp(ln_mag), sin_factor * zr)


def zeta_prime_real(s: float) -> float:
    """zeta'(s) at real s != 1."""
    if s == 1.0:
        raise PoleError("zeta pole at s = 1")
    if s >= -0.5:
        return _zeta_em(s, want_derivative=True)
    if _is_int(s) and round(s) % 2 == 0:
        # negative even: zeta(s) = 0; spec-form derivative
        return zeta_prime_at_negative_even(int(round(-s)) // 2)
    z = zeta_real(s)
    zs = _zeta_em(1.0 - s)
    dzs = _zeta_em(1.0 - s, want_derivative=True)
    log_deriv = (math.log(2.0 * math.pi)
                 + 0.5 * math.pi / math.tan(0.5 * math.pi * s)
                 - digamma(1.0 - s).real - dzs / zs)
    return z * log_deriv


def zeta_prime_at_negative_even(n: int) -> float:
    """zeta'(-2n) = (-1)^n (2n)! zeta(2n+1) / (2 (2 pi)^{2n}), n >= 1."""
    if n < 1:
        raise DomainError("zeta_prime_at_negative_even expects n >= 1")
    return ((-1.0) ** n * math.factorial(2 * n) * _zeta_em(2.0 * n + 1.0)
            / (2.0 * (2.0 * math.pi) ** (2 * n)))
