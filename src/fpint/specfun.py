"""Self-contained special functions used by the closed forms and series.

Everything here is binary64:  gamma/digamma (Lanczos, shifted Stirling),
incomplete gamma (series / continued fraction, complex second argument
supported), generalized hypergeometric pFq by term-ratio recurrence with
compensated summation, the large-argument form of the coincident-parameter
2F2, Bessel J0, Airy Ai / Ai', modified Bessel I_{+-1/3}, and real zeta /
zeta' including negative arguments.
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

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

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

def gamma(z: complex) -> complex:
    """Gamma(z) for real or complex z; PoleError at non-positive integers.

    Lanczos approximation on Re z >= 1/2, reflection formula otherwise.
    Real input gives real output.
    """
    zc = complex(z)
    if _near_nonpositive_int(zc):
        raise PoleError(f"gamma pole at z={z}")
    if zc.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        val = math.pi / (cmath.sin(math.pi * zc) * gamma(1.0 - zc))
    else:
        x = zc - 1.0
        acc = _LANCZOS[0]
        for i, c in enumerate(_LANCZOS[1:], start=1):
            acc = acc + c / (x + i)
        t = x + _LANCZOS_G + 0.5
        val = math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * cmath.exp(-t) * acc
    if isinstance(z, complex):
        return val
    return val.real


def gamma_real(x: float) -> float:
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


def _upper_gamma_cf(s: float, x: complex, rel_tol: float) -> complex:
    return cmath.exp(-x + s * cmath.log(x)) * _upper_cf_factor(s, x, rel_tol)


def incomplete_gamma_lower(s: float, x: float) -> float:
    """gamma(s, x) = int_0^x t^{s-1} e^{-t} dt, s > 0, x >= 0."""
    rel_tol = default_precision().rel_tol
    if s <= 0.0:
        raise DomainError("lower incomplete gamma needs s > 0")
    if x < 0.0:
        raise DomainError("lower incomplete gamma needs x >= 0")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _lower_gamma_series(s, complex(x), rel_tol).real
    return math.gamma(s) - _upper_gamma_cf(s, complex(x), rel_tol).real


def incomplete_gamma_upper(s: float, x: float | complex) -> float | complex:
    """Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt.

    Any real s is admitted when x != 0 (downward recurrence lifts s <= 0);
    x may be complex (principal branch of x^s), which the catalog's
    oscillatory-kernel entries need.
    """
    rel_tol = default_precision().rel_tol
    xc = complex(x)
    if xc == 0:
        if s <= 0.0:
            raise DomainError("Gamma(s, 0) diverges for s <= 0")
        return math.gamma(s)
    if s <= 0.0:
        # Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s
        n_shift = int(math.floor(1.0 - s))
        s_top = s + n_shift
        val = incomplete_gamma_upper(s_top, xc)
        for j in range(n_shift):
            sj = s_top - 1 - j
            val = (val - cmath.exp(sj * cmath.log(xc) - xc)) / sj
        return val if isinstance(x, complex) else val.real
    if xc.imag == 0.0 and xc.real > 0.0 and xc.real >= s + 1.0:
        val = _upper_gamma_cf(s, xc, rel_tol)
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


def hyper_2f2_11_direct(k: int, a: float, s: float) -> complex:
    """Direct-summation value of the same quantity (small |a s| route)."""
    z = 1j * a * s
    val = hyper_pfq([1.0, 1.0], [2.0, 2.0 + k], z).value
    return (1j * a) ** (k + 1) * s / math.factorial(k + 1) * val


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------

_J0_SPLIT = 9.0


def _j0_series_arr(x: np.ndarray) -> np.ndarray:
    q = -0.25 * x * x
    term = np.ones_like(q)
    total = np.ones_like(q)
    for kk in range(1, 40):
        term = term * q / (kk * kk)
        total += term
        if np.all(np.abs(term) < 1e-17 * np.maximum(np.abs(total), 1e-30)):
            break
    return total


def _j0_asym_arr(x: np.ndarray) -> np.ndarray:
    # Hankel expansion: J0 = sqrt(2/(pi x)) (P cos w + Q sin w), w = x - pi/4,
    # P = 1 - a2 + a4 - ..., Q = a1 - a3 + ..., a_m = prod(2j-1)^2 / (m! (8x)^m)
    w = x - 0.25 * math.pi
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    for m in range(1, 40):
        term = term * (2 * m - 1) ** 2 / (8.0 * m * x)
        sign = (-1.0) ** (m // 2)
        if m % 2 == 1:
            q += sign * term
        else:
            p += sign * term
        if np.all(term < 1e-18):
            break
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(w) + q * np.sin(w))


def bessel_j0(x: float | np.ndarray) -> float | np.ndarray:
    """J_0(x): Maclaurin series for |x| <= 9, Hankel asymptotics beyond.

    Both loops stop when the term of every point in the array is small, so a
    point may take a few more terms in an array than alone.  Measured over
    5,000 seeded points, its value then differs from the one-point value by
    at most an ulp of the envelope min(1, sqrt(2/(pi x))): a few 1e-16
    relative away from J0's zeros.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(np.abs(arr))          # J0 is even
    out = np.empty_like(arr)
    small = arr <= _J0_SPLIT
    if small.any():
        out[small] = _j0_series_arr(arr[small])
    if (~small).any():
        out[~small] = _j0_asym_arr(arr[~small])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Airy Ai, Ai'
# ---------------------------------------------------------------------------

_AI0 = 0.3550280538878172392600631860041831763980             # Ai(0)
_AIP0 = -0.2588194037928067984051835601892039634793           # Ai'(0)
_AIRY_SPLIT = 6.0


def _airy_series_arr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Ai = Ai(0) f + Ai'(0) g over the standard solution basis
    #   f = sum_k z^{3k} prod(3j-2)/(3k)!,  g = sum_k z^{3k+1} prod(3j-1)/(3k+1)!
    z3 = x ** 3
    tf = np.ones_like(x)          # f term, power 3k
    tg = np.copy(x)               # g term, power 3k+1
    uf = 0.5 * x * x              # f' term, power 3k-1 (k >= 1)
    vg = np.ones_like(x)          # g' term, power 3k
    f = np.ones_like(x)
    g = np.copy(x)
    fd = np.copy(uf)
    gd = np.ones_like(x)
    for kk in range(80):
        tf = tf * z3 / ((3 * kk + 2) * (3 * kk + 3))
        tg = tg * z3 / ((3 * kk + 3) * (3 * kk + 4))
        vg = vg * z3 / ((3 * kk + 1) * (3 * kk + 3))
        if kk >= 1:
            uf = uf * ((kk + 1) / kk) * z3 / ((3 * kk + 2) * (3 * kk + 3))
        f += tf
        g += tg
        gd += vg
        if kk >= 1:
            fd += uf
        done = np.abs(tf) + np.abs(tg) < 1e-18 * (np.abs(f) + np.abs(g) + 1e-30)
        if done.all():
            break
        # every term carries a factor z3: a converged point's further terms
        # are 0, so the other points of the array do not change its value
        z3[done] = 0.0
    ai = _AI0 * f + _AIP0 * g
    aip = _AI0 * fd + _AIP0 * gd
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


def _airy_asym_pos(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    zeta = (2.0 / 3.0) * x ** 1.5
    inv = 1.0 / zeta
    s_ai = np.zeros_like(x)
    s_aip = np.zeros_like(x)
    p = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    live = np.ones(x.shape, dtype=bool)
    # the series diverges: each point stops at its own first growing term, so
    # its value does not depend on the other points of the array
    for kk, (u, v) in enumerate(zip(_AIRY_U, _AIRY_V)):
        mag = np.abs(p) * abs(u)
        live &= ~(mag > prev)
        if not live.any():
            break
        p = p * live
        t = ((-1.0) ** kk) * p
        s_ai += t * u
        s_aip += t * v
        prev = mag
        p = p * inv
    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi) * x ** 0.25)
    return pref * s_ai, -(x ** 0.25) * np.exp(-zeta) / (2.0 * math.sqrt(math.pi)) * s_aip


def _airy_asym_neg(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # DLMF 9.7.9-9.7.11 oscillatory forms at -t, t > 0
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
    ai = np.empty_like(arr)
    aip = np.empty_like(arr)
    mid = np.abs(arr) <= _AIRY_SPLIT
    pos = arr > _AIRY_SPLIT
    neg = arr < -_AIRY_SPLIT
    if mid.any():
        ai[mid], aip[mid] = _airy_series_arr(arr[mid])
    if pos.any():
        ai[pos], aip[pos] = _airy_asym_pos(arr[pos])
    if neg.any():
        ai[neg], aip[neg] = _airy_asym_neg(-arr[neg])
    return ai, aip, scalar


def airy_ai(x: float | np.ndarray) -> float | np.ndarray:
    """Airy Ai(x) on the real line; each value is its one-point value."""
    ai, _, scalar = _airy_pair(x)
    return float(ai[0]) if scalar else ai


def airy_ai_prime(x: float | np.ndarray) -> float | np.ndarray:
    """Airy Ai'(x) on the real line."""
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
    # B^- convention (B_1 = -1/2); exact rationals by the defining recurrence.
    out = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * out[j]
        out.append(-acc / (m + 1))
    return out


_BERNOULLI = _bernoulli_table(128)
# B_2j / (2j)! for j = 1..15: the Euler-Maclaurin correction weights of _zeta_em
_ZETA_EM_WEIGHTS = tuple(float(_BERNOULLI[2 * j]) / math.factorial(2 * j)
                         for j in range(1, 16))


def bernoulli_even(n: int) -> float:
    """B_{2n} as a float (exact-rational table underneath)."""
    if n < 0 or 2 * n >= len(_BERNOULLI):
        raise DomainError(f"B_{2 * n} outside the precomputed table")
    return float(_BERNOULLI[2 * n])


def _zeta_em(s: float, want_derivative: bool = False) -> float:
    """Euler-Maclaurin zeta(s) (or zeta'(s)) for s > -1, s != 1."""
    n_base = 24
    total = 0.0
    dtotal = 0.0
    for kk in range(1, n_base):
        p = kk ** (-s)
        total += p
        dtotal -= math.log(kk) * p
    nn = float(n_base)
    ln_n = math.log(nn)
    a = nn ** (1.0 - s) / (s - 1.0)
    total += a
    dtotal += -ln_n * a - nn ** (1.0 - s) / (s - 1.0) ** 2
    b = 0.5 * nn ** (-s)
    total += b
    dtotal -= ln_n * b
    npow = nn ** (-s - 1.0)
    for j, coeff in enumerate(_ZETA_EM_WEIGHTS, 1):
        poch = 1.0
        dpoch = 0.0
        for i in range(2 * j - 1):
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
    if s >= -0.5:
        return _zeta_em(s)
    sin_factor = math.sin(0.5 * math.pi * s)
    if sin_factor == 0.0:
        return 0.0
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


def zeta_at_negative(n: int) -> float:
    """zeta(-n) for integer n >= 0: -B_{n+1}/(n+1)."""
    if n < 0:
        raise DomainError("zeta_at_negative expects n >= 0")
    if n == 0:
        return -0.5
    return float(-_BERNOULLI[n + 1] / (n + 1))


def zeta_prime_at_negative_even(n: int) -> float:
    """zeta'(-2n) = (-1)^n (2n)! zeta(2n+1) / (2 (2 pi)^{2n}), n >= 1."""
    if n < 1:
        raise DomainError("zeta_prime_at_negative_even expects n >= 1")
    return ((-1.0) ** n * math.factorial(2 * n) * _zeta_em(2.0 * n + 1.0)
            / (2.0 * (2.0 * math.pi) ** (2 * n)))
