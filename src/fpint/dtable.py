"""Closed forms for the tabulated half-line finite-part integrals (D.1-D.25).

Each entry evaluates one divergent-integral family ffp_0^inf f(x)/x^p dx in
terms of gamma/digamma/zeta/incomplete-gamma primitives.  The same formulas
back the per-builtin finite-part providers used by the transform evaluators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import specfun as sf
from .errors import DomainError, UnknownItem

_SQRT_PI = math.sqrt(math.pi)
_SQRT3 = math.sqrt(3.0)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _psi(x: float) -> float:
    return sf.digamma(float(x))


def d1(a: float, m: int, nu: float) -> float:
    """exp(-a x) against x^{-(m+nu)}."""
    _check(a > 0 and 0 < nu < 1 and m >= 1, "need a>0, 0<nu<1, m>=1")
    w = m + nu
    return (-1.0) ** m * math.pi / math.sin(math.pi * nu) \
        * math.exp((w - 1.0) * math.log(a) - math.lgamma(w))


def d2(a: float, m: int, nu: float) -> complex:
    """exp(i a x) against x^{-(m+nu)}: (-ia)^{m+nu-1} Gamma(1-m-nu)."""
    _check(a != 0 and 0 < nu < 1 and m >= 1, "need a!=0, 0<nu<1, m>=1")
    w = m + nu
    # Gamma(1-w) = (-1)^m pi / (sin(pi nu) Gamma(w)); phases split off |a|
    mag = math.exp((w - 1.0) * math.log(abs(a)) - math.lgamma(w))
    phase = cmath.exp(-0.5j * math.pi * (w - 1.0) * math.copysign(1.0, a))
    return (-1.0) ** m * math.pi / math.sin(math.pi * nu) * mag * phase


def d2_log(a: float, k: int) -> complex:
    """exp(i a x) against x^{-(k+1)}, the nu = 0 case of D.2:
    -((ia)^k / k!) (ln|a| - i pi sgn(a)/2 - psi(k+1)), weights in log space."""
    mag = math.exp(k * math.log(abs(a)) - math.lgamma(k + 1.0))
    phase = cmath.exp(0.5j * math.pi * k * math.copysign(1.0, a))
    return -(mag * phase) * (math.log(abs(a)) - 0.5j * math.pi * math.copysign(1.0, a)
                             - _psi(k + 1.0))


def d3(a: float, lam: float) -> float:
    """J0(a x)^2 against x^{-lam}, lam > 1 and not an odd integer."""
    _check(a > 0 and lam > 1, "need a>0, lam>1")
    cosf = math.cos(0.5 * math.pi * lam)
    _check(abs(cosf) > 1e-12, "lam must stay away from odd integers")
    return (_SQRT_PI / (2.0 * cosf)
            * math.exp((lam - 1.0) * math.log(a) + math.lgamma(0.5 * lam)
                       - 3.0 * math.lgamma(0.5 * (lam + 1.0))))


def d4(a: float, n: int) -> float:
    """J0(a x)^2 against x^{-(2n+1)} (the logarithmic family)."""
    _check(a > 0 and n >= 0, "need a>0, n>=0")
    ln_mag = (2.0 * n * math.log(a) + math.lgamma(n + 0.5)
              - math.lgamma(0.5) - 3.0 * math.lgamma(n + 1.0))
    return (-1.0) ** n * math.exp(ln_mag) * (
        1.5 * _psi(n + 1.0) - 0.5 * _psi(n + 0.5) - math.log(a))


def d5(a: float, k: int) -> float:
    """1/sqrt(x^2+a^2) against x^{-(2k+1)}."""
    _check(a > 0 and k >= 0, "need a>0, k>=0")
    ln_mag = (-(2 * k + 1) * math.log(a) + math.lgamma(k + 0.5)
              - math.lgamma(k + 1.0))
    return ((-1.0) ** k / (2.0 * _SQRT_PI) * math.exp(ln_mag)
            * (2.0 * math.log(a) + _psi(k + 1.0) - _psi(k + 0.5)))


def d6(a: float, m: int, nu: float) -> float:
    """1/sqrt(x^2+a^2) against x^{-(m+nu)}."""
    _check(a > 0 and 0 < nu < 1 and m >= 1, "need a>0, 0<nu<1, m>=1")
    w = m + nu
    ln_neg, sign = sf.lgamma_sign(0.5 - 0.5 * w)
    return (sign / (2.0 * _SQRT_PI)
            * math.exp(-w * math.log(a) + ln_neg + math.lgamma(0.5 * w)))


def d7(c: float, m: int, nu: float) -> float:
    """1/(x^3+c^3) against x^{-(m+nu)}."""
    _check(c > 0 and 0 < nu < 1 and m >= 1, "need c>0, 0<nu<1, m>=1")
    cosf = math.cos(math.pi * (2 * m + 2 * nu + 1) / 6.0)
    _check(abs(cosf) > 1e-12, "cosine factor vanishes at this (m, nu)")
    return math.pi / (3.0 * cosf) * math.exp(-(m + nu + 2.0) * math.log(c))


def d8(a: float, c: float, m: int, nu: float) -> float:
    """exp(-a x)/(x+c) against x^{-(m+nu)}."""
    _check(a > 0 and c > 0 and 0 < nu < 1 and m >= 1, "need a,c>0, 0<nu<1, m>=1")
    w = m + nu
    return ((-1.0) ** m * math.pi / math.sin(math.pi * nu)
            * sf.incomplete_gamma_q(w, a * c)
            * math.exp(a * c - w * math.log(c)))


def d9(a: float, c: float, n: int) -> float:
    """exp(-a x)/(x+c) against x^{-(n+1)} (logarithmic family)."""
    _check(a > 0 and c > 0 and n >= 0, "need a>0, c>0, n>=0")
    f22 = sf.hyper_pfq([n + 1.0, n + 1.0], [n + 2.0, n + 2.0], -a * c).value.real
    # gamma(n+1, ac)/n! is the regularized P(n+1, ac)
    ln_c = math.log(c)
    return (-1.0) ** n * (
        math.exp(a * c - (n + 1) * ln_c) * math.log(c)
        + (math.log(a) - _psi(n + 1.0)) * sf.incomplete_gamma_p(n + 1.0, a * c)
        * math.exp(a * c - (n + 1) * ln_c)
        - math.exp(a * c + (n + 1) * math.log(a) - math.lgamma(n + 1.0))
        / (n + 1.0) ** 2 * f22)


def d10(s: float, mu: float, n: int) -> float:
    """(s+x)^{-mu} against x^{-(n+1)}."""
    _check(s > 0 and mu > 0 and n >= 0, "need s>0, mu>0, n>=0")
    ln_mag = (math.lgamma(n + mu) - (n + mu) * math.log(s)
              - math.lgamma(n + 1.0) - math.lgamma(mu))
    return ((-1.0) ** n * math.exp(ln_mag)
            * (math.log(s) + _psi(n + 1.0) - _psi(n + mu)))


def d11(s: float, mu: float, m: int, nu: float) -> float:
    """(s+x)^{-mu} against x^{-(m+nu)}."""
    _check(s > 0 and mu > 0 and 0 < nu < 1 and m >= 1, "need s,mu>0, 0<nu<1, m>=1")
    w = m + nu
    ln_mag = (math.lgamma(w + mu - 1.0) - (w + mu - 1.0) * math.log(s)
              - math.lgamma(mu) - math.lgamma(w))
    return (-1.0) ** m * math.pi / math.sin(math.pi * nu) * math.exp(ln_mag)


def d12(a: float, m: int, nu: float) -> float:
    """1/(exp(a x)+1) against x^{-(m+nu)}."""
    _check(a > 0 and 0 < nu < 1 and m >= 1, "need a>0, 0<nu<1, m>=1")
    w = m + nu
    # zeta(1-w)/Gamma(w) = 2 (2 pi)^-w cos(pi w/2) zeta(w): all factors stay
    # representable however deep the kernel
    pi_w = math.exp((w - 1.0) * math.log(a) - w * math.log(math.pi))
    tpi_w = math.exp((w - 1.0) * math.log(a) - w * math.log(2.0 * math.pi))
    return (-(-1.0) ** m * 2.0 * math.pi * math.cos(0.5 * math.pi * w)
            * sf.zeta_real(w) * (pi_w - tpi_w) / math.sin(math.pi * nu))


def d13(a: float) -> float:
    """1/(exp(a x)+1) against x^{-1}."""
    _check(a > 0, "need a>0")
    return math.log(math.sqrt(math.pi / (2.0 * a))) - 0.5 * sf.EULER_GAMMA


def d14(a: float, n: int) -> float:
    """1/(exp(a x)+1) against x^{-2n}."""
    _check(a > 0 and n >= 1, "need a>0, n>=1")
    if n <= 40:
        b2n = sf.bernoulli_even(n)
        p2 = 2.0 ** (2 * n)
        return (a ** (2 * n - 1) * b2n / math.factorial(2 * n)
                * (p2 * math.log(2.0) - (p2 - 1.0) * (_psi(2.0 * n) - math.log(a)))
                + a ** (2 * n - 1) * (p2 - 1.0) / math.factorial(2 * n - 1)
                * sf.zeta_prime_real(1.0 - 2 * n))
    # large n: B_2n/(2n)! = (-1)^{n+1} 2 zeta(2n)/(2 pi)^{2n} keeps every factor
    # representable (the raw Bernoulli numbers overflow binary64 around n ~ 130)
    z2n = sf.zeta_real(2.0 * n)
    r = (-1.0) ** (n + 1) * 2.0 * z2n
    pi2n = math.exp(-2.0 * n * math.log(math.pi))        # (2/(2 pi))^{2n}
    tpi2n = math.exp(-2.0 * n * math.log(2.0 * math.pi))
    psi2n = _psi(2.0 * n)
    ln_ratio = sf.zeta_prime_real(2.0 * n) / z2n
    term1 = r * (pi2n * math.log(2.0)
                 - (pi2n - tpi2n) * (psi2n - math.log(a)))
    term2 = (pi2n - tpi2n) * r * (psi2n - math.log(2.0 * math.pi) + ln_ratio)
    return a ** (2 * n - 1) * (term1 + term2)


def d15(a: float, n: int) -> float:
    """1/(exp(a x)+1) against x^{-(2n+1)}."""
    _check(a > 0 and n >= 1, "need a>0, n>=1")
    if n <= 40:
        return (-(2.0 ** (2 * n + 1) - 1.0) * a ** (2 * n) / math.factorial(2 * n)
                * sf.zeta_prime_at_negative_even(n))
    pi2n = math.exp(-2.0 * n * math.log(math.pi))
    tpi2n = math.exp(-2.0 * n * math.log(2.0 * math.pi))
    return (-(-1.0) ** n * a ** (2 * n) * sf.zeta_real(2.0 * n + 1.0)
            * (pi2n - 0.5 * tpi2n))


def d16(a: float, n: int) -> float:
    """Ai(-a x) against x^{-3n}."""
    _check(a > 0 and n >= 1, "need a>0, n>=1")
    return 2.0 * (-1.0) ** n * math.exp(
        (n - 1) * math.log(3.0) + (3 * n - 1) * math.log(a)
        + math.lgamma(n + 1.0) - math.lgamma(3.0 * n + 1.0))


def d17(a: float, n: int) -> float:
    """Ai(-a x) against x^{-(3n-1)}."""
    _check(a > 0 and n >= 1, "need a>0, n>=1")
    return ((-1.0) ** n * 3.0 ** (-2 * n - 1.0 / 3.0) * a ** (3 * n - 2)
            / (math.gamma(n) * math.gamma(n + 1.0 / 3.0))
            * (math.log(a ** 3 / 9.0) + 2.0 * _SQRT3 * math.pi / 3.0
               - _psi(n) - _psi(n + 1.0 / 3.0)))


def d18(a: float, n: int) -> float:
    """Ai(-a x) against x^{-(3n-2)}."""
    _check(a > 0 and n >= 1, "need a>0, n>=1")
    return ((-1.0) ** n * 3.0 ** (-2 * n + 1.0 / 3.0) * a ** (3 * n - 3)
            / (math.gamma(n) * math.gamma(n - 1.0 / 3.0))
            * (math.log(a ** 3 / 9.0) - 2.0 * _SQRT3 * math.pi / 3.0
               - _psi(n) - _psi(n - 1.0 / 3.0)))


def d19(a: float, n: int) -> float:
    """Ai(a x) against x^{-3n}."""
    _check(a > 0 and n >= 1, "need a>0, n>=1")
    return math.exp((n - 1) * math.log(3.0) + (3 * n - 1) * math.log(a)
                    + math.lgamma(n + 1.0) - math.lgamma(3.0 * n + 1.0))


def d20(a: float, n: int) -> float:
    """Ai(a x) against x^{-(3n-1)}."""
    _check(a > 0 and n >= 1, "need a>0, n>=1")
    return (3.0 ** (-2 * n - 1.0 / 3.0) * a ** (3 * n - 2)
            / (math.gamma(n) * math.gamma(n + 1.0 / 3.0))
            * (math.log(a ** 3 / 9.0) - _SQRT3 * math.pi / 3.0
               - _psi(n) - _psi(n + 1.0 / 3.0)))


def d21(a: float, n: int) -> float:
    """Ai(a x) against x^{-(3n-2)}."""
    _check(a > 0 and n >= 1, "need a>0, n>=1")
    return (-3.0 ** (-2 * n + 1.0 / 3.0) * a ** (3 * n - 3)
            / (math.gamma(n) * math.gamma(n - 1.0 / 3.0))
            * (math.log(a ** 3 / 9.0) + _SQRT3 * math.pi / 3.0
               - _psi(n) - _psi(n - 1.0 / 3.0)))


def d22(a: float, m: int, nu: float) -> float:
    """Ai(a x) against x^{-(m+nu)}."""
    _check(a > 0 and 0 < nu < 1 and m >= 1, "need a>0, 0<nu<1, m>=1")
    w = m + nu
    return (math.pi * 3.0 ** (-(3.0 + 4.0 * w) / 6.0) * a ** (w - 1.0) / 2.0
            / (math.sin(math.pi * (1.0 - w) / 3.0) * math.sin(math.pi * (1.0 + w) / 3.0))
            / (math.gamma((1.0 + w) / 3.0) * math.gamma((2.0 + w) / 3.0)))


def d23(a: float, m: int, nu: float) -> float:
    """Ai(-a x) against x^{-(m+nu)}."""
    _check(a > 0 and 0 < nu < 1 and m >= 1, "need a>0, 0<nu<1, m>=1")
    w = m + nu
    return (math.pi * 3.0 ** (-(3.0 + 4.0 * w) / 6.0) * a ** (w - 1.0)
            * math.cos(math.pi * w / 3.0)
            / (math.sin(math.pi * (1.0 - w) / 3.0) * math.sin(math.pi * (1.0 + w) / 3.0))
            / (math.gamma((1.0 + w) / 3.0) * math.gamma((2.0 + w) / 3.0)))


def d24(a: float, n: int) -> float:
    """Ai(a x) Ai'(a x) against x^{-(n+1)}."""
    _check(a > 0 and n >= 0, "need a>0, n>=0")
    ln_mag = (-(3.0 - 2.0 * n) / 3.0 * math.log(2.0)
              - (9.0 - 2.0 * n) / 6.0 * math.log(3.0)
              + n * math.log(a) + math.lgamma((3.0 + 2.0 * n) / 6.0)
              - math.lgamma(n + 1.0) - 1.5 * math.log(math.pi))
    return ((-1.0) ** n * math.exp(ln_mag)
            * ((math.log(12.0 * a ** 3) + _psi((3.0 + 2.0 * n) / 6.0)
                - 3.0 * _psi(n + 1.0)) * math.cos(n * math.pi / 3.0)
               - math.pi * math.sin(n * math.pi / 3.0)))


def d25(a: float, m: int, nu: float) -> float:
    """Ai(a x) Ai'(a x) against x^{-(m+nu)}."""
    _check(a > 0 and 0 < nu < 1 and m >= 1, "need a>0, 0<nu<1, m>=1")
    w = m + nu
    return (-(12.0 ** (-(5.0 - 2.0 * w) / 6.0)) / _SQRT_PI * a ** (w - 1.0)
            / math.sin(math.pi * w) / math.gamma(w)
            * math.gamma((1.0 + 2.0 * w) / 6.0) * math.sin(math.pi * (1.0 + 2.0 * w) / 6.0))


@dataclass(frozen=True)
class DItem:
    item_id: str
    description: str
    domain: str
    evaluate: Callable[..., complex]
    used_in: tuple[str, ...]
    param_names: tuple[str, ...]
    # deterministic low/mid/high sampling ranges per parameter
    sample_space: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    integer_params: tuple[str, ...] = ()


D_ITEMS: dict[str, DItem] = {}


def _add(item_id: str, description: str, domain: str, evaluate, used_in,
         param_names, sample_space, integer_params=()) -> None:
    D_ITEMS[item_id] = DItem(item_id, description, domain, evaluate, tuple(used_in),
                             tuple(param_names), dict(sample_space), tuple(integer_params))


_add("D.1", "exp(-ax) / x^(m+nu)", "a>0, 0<nu<1, m>=1", d1, ("C.10", "C.11"),
     ("a", "m", "nu"), {"a": (0.5, 2.5), "m": (1, 2), "nu": (0.2, 0.8)}, ("m",))
_add("D.2", "exp(iax) / x^(m+nu)", "a>0, 0<nu<1, m>=1", d2, ("C.12", "C.13"),
     ("a", "m", "nu"), {"a": (0.5, 2.0), "m": (1, 2), "nu": (0.2, 0.8)}, ("m",))
_add("D.3", "J0(ax)^2 / x^lam", "a>0, lam>1, lam not odd", d3, ("C.5", "C.7", "C.8", "C.9"),
     ("a", "lam"), {"a": (0.5, 2.0), "lam": (1.3, 2.6)})
_add("D.4", "J0(ax)^2 / x^(2n+1)", "a>0, n>=0", d4, ("C.6",),
     ("a", "n"), {"a": (0.5, 2.0), "n": (0, 1)}, ("n",))
_add("D.5", "x^-(2k+1) / sqrt(x^2+a^2)", "a>0, k>=0", d5, ("C.1",),
     ("a", "k"), {"a": (0.5, 2.0), "k": (0, 1)}, ("k",))
_add("D.6", "x^-(m+nu) / sqrt(x^2+a^2)", "a>0, 0<nu<1, m>=1", d6, ("C.2", "C.3", "C.4"),
     ("a", "m", "nu"), {"a": (0.5, 2.0), "m": (1, 2), "nu": (0.2, 0.8)}, ("m",))
_add("D.7", "x^-(m+nu) / (x^3+c^3)", "c>0, 0<nu<1, m>=1", d7, ("C.22", "C.23", "C.24"),
     ("c", "m", "nu"), {"c": (0.6, 2.0), "m": (1, 2), "nu": (0.2, 0.8)}, ("m",))
_add("D.8", "exp(-ax) x^-(m+nu) / (x+c)", "a,c>0, 0<nu<1, m>=1", d8, ("C.14", "C.15"),
     ("a", "c", "m", "nu"), {"a": (0.5, 1.5), "c": (0.7, 2.0), "m": (1, 2), "nu": (0.2, 0.8)},
     ("m",))
_add("D.9", "exp(-ax) x^-(n+1) / (x+c)", "a>0, c>0, n>=0", d9, ("C.16", "C.17"),
     ("a", "c", "n"), {"a": (0.5, 1.5), "c": (0.7, 2.0), "n": (0, 2)}, ("n",))
_add("D.10", "x^-(n+1) (s+x)^-mu", "s>0, mu>0, n>=0", d10, ("C.18",),
     ("s", "mu", "n"), {"s": (0.7, 2.0), "mu": (0.5, 2.5), "n": (0, 2)}, ("n",))
_add("D.11", "x^-(m+nu) (s+x)^-mu", "s>0, mu>0, 0<nu<1, m>=1", d11, ("C.19", "C.20", "C.21"),
     ("s", "mu", "m", "nu"), {"s": (0.7, 2.0), "mu": (0.5, 2.5), "m": (1, 2), "nu": (0.2, 0.8)},
     ("m",))
_add("D.12", "x^-(m+nu) / (exp(ax)+1)", "a>0, 0<nu<1, m>=1", d12, ("C.32",),
     ("a", "m", "nu"), {"a": (0.6, 1.8), "m": (1, 2), "nu": (0.2, 0.8)}, ("m",))
_add("D.13", "x^-1 / (exp(ax)+1)", "a>0", d13, ("C.31",),
     ("a",), {"a": (0.5, 2.5)})
_add("D.14", "x^-2n / (exp(ax)+1)", "a>0, n>=1", d14, ("C.31",),
     ("a", "n"), {"a": (0.6, 1.8), "n": (1, 1)}, ("n",))
_add("D.15", "x^-(2n+1) / (exp(ax)+1)", "a>0, n>=1", d15, ("C.31",),
     ("a", "n"), {"a": (0.6, 1.8), "n": (1, 1)}, ("n",))
_add("D.16", "Ai(-ax) / x^3n", "a>0, n>=1", d16, ("C.25",),
     ("a", "n"), {"a": (0.6, 1.5), "n": (1, 1)}, ("n",))
_add("D.17", "Ai(-ax) / x^(3n-1)", "a>0, n>=1", d17, ("C.25",),
     ("a", "n"), {"a": (0.6, 1.5), "n": (1, 1)}, ("n",))
_add("D.18", "Ai(-ax) / x^(3n-2)", "a>0, n>=1", d18, ("C.25",),
     ("a", "n"), {"a": (0.6, 1.5), "n": (1, 1)}, ("n",))
_add("D.19", "Ai(ax) / x^3n", "a>0, n>=1", d19, ("C.25", "C.26"),
     ("a", "n"), {"a": (0.6, 1.5), "n": (1, 1)}, ("n",))
_add("D.20", "Ai(ax) / x^(3n-1)", "a>0, n>=1", d20, ("C.25", "C.26"),
     ("a", "n"), {"a": (0.6, 1.5), "n": (1, 1)}, ("n",))
_add("D.21", "Ai(ax) / x^(3n-2)", "a>0, n>=1", d21, ("C.25", "C.26"),
     ("a", "n"), {"a": (0.6, 1.5), "n": (1, 1)}, ("n",))
_add("D.22", "Ai(ax) / x^(m+nu)", "a>0, 0<nu<1, m>=1", d22, ("C.27", "C.28"),
     ("a", "m", "nu"), {"a": (0.6, 1.5), "m": (1, 2), "nu": (0.2, 0.8)}, ("m",))
_add("D.23", "Ai(-ax) / x^(m+nu)", "a>0, 0<nu<1, m>=1", d23, ("C.28",),
     ("a", "m", "nu"), {"a": (0.6, 1.5), "m": (1, 2), "nu": (0.2, 0.8)}, ("m",))
_add("D.24", "Ai(ax) Ai'(ax) / x^(n+1)", "a>0, n>=0", d24, ("C.29",),
     ("a", "n"), {"a": (0.6, 1.5), "n": (0, 2)}, ("n",))
_add("D.25", "Ai(ax) Ai'(ax) / x^(m+nu)", "a>0, 0<nu<1, m>=1", d25, ("C.30",),
     ("a", "m", "nu"), {"a": (0.6, 1.5), "m": (1, 2), "nu": (0.2, 0.8)}, ("m",))


def get_item(item_id: str) -> DItem:
    try:
        return D_ITEMS[item_id]
    except KeyError:
        raise UnknownItem(f"no finite-part table entry {item_id!r}") from None


# ---------------------------------------------------------------------------
# Closed-form finite-part providers for the builtin functions.  A provider
# maps a kernel (k, nu, upper=inf) to ffp_0^inf f(x) / x^(k+nu) dx, returning
# None where no closed form is tabulated (callers then fall back to the
# generic series + tail route).
# ---------------------------------------------------------------------------

def _hook_exp_decay(a: float):
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf:
            return None
        if nu > 0.0:
            return d1(a, k, nu) if k >= 1 else None
        # ffp exp(-ax)/x^k = (-a)^(k-1)/(k-1)! (psi(k) - ln a)
        mag = math.exp((k - 1) * math.log(a) - math.lgamma(float(k)))
        return (-1.0) ** (k - 1) * mag * (_psi(float(k)) - math.log(a))
    return hook


def _hook_exp_osc(a: float):
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf:
            return None
        if nu > 0.0:
            return d2(a, k, nu) if k >= 1 else None
        return d2_log(a, k - 1)
    return hook


def _hook_gaussian(a: float, shift: int = 0):
    # x^shift exp(-a x^2): the monomial absorbs into the kernel power,
    # s = k - shift + nu; positive odd integer s is the logarithmic case
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf:
            return None
        s = k - shift + nu
        if nu == 0.0 and int(round(s)) % 2 == 1 and s >= 1:
            mm = (int(round(s)) + 1) // 2
            mag = math.exp((mm - 1) * math.log(a) - math.lgamma(float(mm)))
            return 0.5 * (-1.0) ** (mm - 1) * mag * (_psi(float(mm)) - math.log(a))
        ln_neg, sign = sf.lgamma_sign(0.5 * (1.0 - s))
        return 0.5 * sign * math.exp(0.5 * (s - 1.0) * math.log(a) + ln_neg)
    return hook


def _hook_j0_squared(a: float):
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf:
            return None
        if nu == 0.0 and k % 2 == 1:
            return d4(a, (k - 1) // 2)
        lam = k + nu
        return d3(a, lam) if lam > 1.0 else None
    return hook


def _hook_sqrt_inv_quad(a: float):
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf:
            return None
        if nu > 0.0:
            return d6(a, k, nu) if k >= 1 else None
        if k % 2 == 1:
            return d5(a, (k - 1) // 2)
        return None
    return hook


def _hook_inv_cubic(c: float):
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf or nu <= 0.0 or k < 1:
            return None
        return d7(c, k, nu)
    return hook


def _hook_inv_power_shift(s: float, mu: float):
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf:
            return None
        if nu > 0.0:
            return d11(s, mu, k, nu) if k >= 1 else None
        return d10(s, mu, k - 1)
    return hook


def _hook_exp_decay_shift(a: float, c: float):
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf:
            return None
        if nu > 0.0:
            return d8(a, c, k, nu) if k >= 1 else None
        return d9(a, c, k - 1)
    return hook


def _hook_fermi(a: float):
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf:
            return None
        if nu > 0.0:
            return d12(a, k, nu) if k >= 1 else None
        if k == 1:
            return d13(a)
        if k % 2 == 0:
            return d14(a, k // 2)
        return d15(a, (k - 1) // 2)
    return hook


def _hook_airy(a: float, negated: bool):
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf:
            return None
        if nu > 0.0:
            if k < 1:
                return None
            return d23(a, k, nu) if negated else d22(a, k, nu)
        if k % 3 == 0:
            return d16(a, k // 3) if negated else d19(a, k // 3)
        if k % 3 == 2:
            return d17(a, (k + 1) // 3) if negated else d20(a, (k + 1) // 3)
        return d18(a, (k + 2) // 3) if negated else d21(a, (k + 2) // 3)
    return hook


def _hook_airy_prod(a: float):
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf:
            return None
        if nu > 0.0:
            return d25(a, k, nu) if k >= 1 else None
        return d24(a, k - 1)
    return hook


def _hook_rational_quartic(beta: float, omega_j: float):
    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf or nu != 0.0 or k < 2 or k % 2 != 0:
            return None
        from .finitepart import fp_quartic
        return fp_quartic(beta, omega_j, (k - 2) // 2)
    return hook


HOOK_FACTORIES = {
    "exp_decay": lambda p: _hook_exp_decay(p["a"]),
    "exp_osc": lambda p: _hook_exp_osc(p["a"]),
    "gaussian": lambda p: _hook_gaussian(p["a"], 0),
    "power_gaussian": lambda p: _hook_gaussian(p["a"], int(p["m"])),
    "j0_squared": lambda p: _hook_j0_squared(p["a"]),
    "sqrt_inv_quad": lambda p: _hook_sqrt_inv_quad(p["a"]),
    "inv_cubic": lambda p: _hook_inv_cubic(p["c"]),
    "inv_power_shift": lambda p: _hook_inv_power_shift(p["s"], p["mu"]),
    "inv_linear": lambda p: _hook_inv_power_shift(p["c"], 1.0),
    "exp_decay_shift": lambda p: _hook_exp_decay_shift(p["a"], p["c"]),
    "fermi": lambda p: _hook_fermi(p["a"]),
    "airy": lambda p: _hook_airy(p["a"], negated=False),
    "airy_neg": lambda p: _hook_airy(p["a"], negated=True),
    "airy_prod": lambda p: _hook_airy_prod(p["a"]),
    "rational_quartic": lambda p: _hook_rational_quartic(p["beta"], p["omega_j"]),
}
