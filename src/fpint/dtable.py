"""Closed forms for the tabulated half-line finite-part integrals (D.1-D.25).

Each entry evaluates one divergent-integral family ffp_0^inf f(x)/x^p dx in
terms of gamma/digamma/zeta/incomplete-gamma primitives.

A row (DItem) also states which integral it is: the builtin f it integrates
and its kernel lattice, k = step*n + offset with n >= first in the index
parameter n, and nu either a free parameter or 0.  Both uses of the table
are derived from the rows.  fp_hook(name, params) builds the closed-form
finite-part provider of a builtin: it walks that builtin's rows for the
kernel, then tries _EXTRA, the closed forms with no row (exp_decay and
exp_osc at nu = 0, gaussian / power_gaussian, rational_quartic through
fp_quartic); inv_linear is inv_power_shift at mu = 1.  The catalog builds
each D item's function and FpKernel from the same row.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

from . import specfun as sf
from .errors import DomainError, FpintError, NoConvergence, UnknownItem

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
    # B_2n/(2n)! = (-1)^{n+1} 2 zeta(2n)/(2 pi)^{2n} keeps every factor in range
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
    # zeta'(-2n) = (-1)^n (2n)! zeta(2n+1) / (2 (2 pi)^{2n}) cancels the (2n)!
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
    """One table row: ffp_0^inf f(x) x^-(k+nu) dx for f = builtin(`builtin`).

    Kernels: k = step*n + offset, n >= first, in the index parameter `index`;
    nu is a parameter (0 < nu < 1) when `free_nu`, else 0.  The index `lam`
    of D.3 is the whole power k + nu (lam > first); D.13 (index None) is the
    single kernel k = offset.
    """

    item_id: str
    description: str
    domain: str
    evaluate: Callable[..., complex]
    builtin: str
    # deterministic low/mid/high sampling ranges per parameter
    sample_space: Mapping[str, tuple[float, float]]
    index: str | None = "m"
    step: int = 1
    offset: int = 0
    first: int = 1
    free_nu: bool = True

    @property
    def builtin_params(self) -> tuple[str, ...]:
        """The parameters of f, in the order `evaluate` takes them first."""
        return tuple(p for p in self.sample_space if p not in (self.index, "nu"))

    @property
    def integer_params(self) -> tuple[str, ...]:
        return () if self.index in (None, "lam") else (self.index,)

    def kernel(self, params: Mapping[str, float]) -> tuple[int, float]:
        """The (k, nu) of the row's integral at these parameters."""
        if self.index == "lam":
            k = math.floor(params["lam"])
            return k, params["lam"] - k
        n = params[self.index] if self.index else 0
        return self.step * n + self.offset, params["nu"] if self.free_nu else 0.0


_NU = (0.2, 0.8)
D_ITEMS: dict[str, DItem] = {row.item_id: row for row in [
    DItem("D.1", "exp(-ax) / x^(m+nu)", "a>0, 0<nu<1, m>=1", d1, "exp_decay",
          {"a": (0.5, 2.5), "m": (1, 2), "nu": _NU}),
    DItem("D.2", "exp(iax) / x^(m+nu)", "a>0, 0<nu<1, m>=1", d2, "exp_osc",
          {"a": (0.5, 2.0), "m": (1, 2), "nu": _NU}),
    DItem("D.3", "J0(ax)^2 / x^lam", "a>0, lam>1, lam not odd", d3, "j0_squared",
          {"a": (0.5, 2.0), "lam": (1.3, 2.6)}, index="lam"),
    DItem("D.4", "J0(ax)^2 / x^(2n+1)", "a>0, n>=0", d4, "j0_squared",
          {"a": (0.5, 2.0), "n": (0, 1)}, index="n", step=2, offset=1, first=0, free_nu=False),
    DItem("D.5", "x^-(2k+1) / sqrt(x^2+a^2)", "a>0, k>=0", d5, "sqrt_inv_quad",
          {"a": (0.5, 2.0), "k": (0, 1)}, index="k", step=2, offset=1, first=0, free_nu=False),
    DItem("D.6", "x^-(m+nu) / sqrt(x^2+a^2)", "a>0, 0<nu<1, m>=1", d6, "sqrt_inv_quad",
          {"a": (0.5, 2.0), "m": (1, 2), "nu": _NU}),
    DItem("D.7", "x^-(m+nu) / (x^3+c^3)", "c>0, 0<nu<1, m>=1", d7, "inv_cubic",
          {"c": (0.6, 2.0), "m": (1, 2), "nu": _NU}),
    DItem("D.8", "exp(-ax) x^-(m+nu) / (x+c)", "a,c>0, 0<nu<1, m>=1", d8, "exp_decay_shift",
          {"a": (0.5, 1.5), "c": (0.7, 2.0), "m": (1, 2), "nu": _NU}),
    DItem("D.9", "exp(-ax) x^-(n+1) / (x+c)", "a>0, c>0, n>=0", d9, "exp_decay_shift",
          {"a": (0.5, 1.5), "c": (0.7, 2.0), "n": (0, 2)},
          index="n", offset=1, first=0, free_nu=False),
    DItem("D.10", "x^-(n+1) (s+x)^-mu", "s>0, mu>0, n>=0", d10, "inv_power_shift",
          {"s": (0.7, 2.0), "mu": (0.5, 2.5), "n": (0, 2)},
          index="n", offset=1, first=0, free_nu=False),
    DItem("D.11", "x^-(m+nu) (s+x)^-mu", "s>0, mu>0, 0<nu<1, m>=1", d11, "inv_power_shift",
          {"s": (0.7, 2.0), "mu": (0.5, 2.5), "m": (1, 2), "nu": _NU}),
    DItem("D.12", "x^-(m+nu) / (exp(ax)+1)", "a>0, 0<nu<1, m>=1", d12, "fermi",
          {"a": (0.6, 1.8), "m": (1, 2), "nu": _NU}),
    DItem("D.13", "x^-1 / (exp(ax)+1)", "a>0", d13, "fermi",
          {"a": (0.5, 2.5)}, index=None, offset=1, free_nu=False),
    DItem("D.14", "x^-2n / (exp(ax)+1)", "a>0, n>=1", d14, "fermi",
          {"a": (0.6, 1.8), "n": (1, 1)}, index="n", step=2, free_nu=False),
    DItem("D.15", "x^-(2n+1) / (exp(ax)+1)", "a>0, n>=1", d15, "fermi",
          {"a": (0.6, 1.8), "n": (1, 1)}, index="n", step=2, offset=1, free_nu=False),
    DItem("D.16", "Ai(-ax) / x^3n", "a>0, n>=1", d16, "airy_neg",
          {"a": (0.6, 1.5), "n": (1, 1)}, index="n", step=3, free_nu=False),
    DItem("D.17", "Ai(-ax) / x^(3n-1)", "a>0, n>=1", d17, "airy_neg",
          {"a": (0.6, 1.5), "n": (1, 1)}, index="n", step=3, offset=-1, free_nu=False),
    DItem("D.18", "Ai(-ax) / x^(3n-2)", "a>0, n>=1", d18, "airy_neg",
          {"a": (0.6, 1.5), "n": (1, 1)}, index="n", step=3, offset=-2, free_nu=False),
    DItem("D.19", "Ai(ax) / x^3n", "a>0, n>=1", d19, "airy",
          {"a": (0.6, 1.5), "n": (1, 1)}, index="n", step=3, free_nu=False),
    DItem("D.20", "Ai(ax) / x^(3n-1)", "a>0, n>=1", d20, "airy",
          {"a": (0.6, 1.5), "n": (1, 1)}, index="n", step=3, offset=-1, free_nu=False),
    DItem("D.21", "Ai(ax) / x^(3n-2)", "a>0, n>=1", d21, "airy",
          {"a": (0.6, 1.5), "n": (1, 1)}, index="n", step=3, offset=-2, free_nu=False),
    DItem("D.22", "Ai(ax) / x^(m+nu)", "a>0, 0<nu<1, m>=1", d22, "airy",
          {"a": (0.6, 1.5), "m": (1, 2), "nu": _NU}),
    DItem("D.23", "Ai(-ax) / x^(m+nu)", "a>0, 0<nu<1, m>=1", d23, "airy_neg",
          {"a": (0.6, 1.5), "m": (1, 2), "nu": _NU}),
    DItem("D.24", "Ai(ax) Ai'(ax) / x^(n+1)", "a>0, n>=0", d24, "airy_prod",
          {"a": (0.6, 1.5), "n": (0, 2)}, index="n", offset=1, first=0, free_nu=False),
    DItem("D.25", "Ai(ax) Ai'(ax) / x^(m+nu)", "a>0, 0<nu<1, m>=1", d25, "airy_prod",
          {"a": (0.6, 1.5), "m": (1, 2), "nu": _NU}),
]}


def get_item(item_id: str) -> DItem:
    try:
        return D_ITEMS[item_id]
    except KeyError:
        raise UnknownItem(f"no finite-part table entry {item_id!r}") from None


# ---------------------------------------------------------------------------
# Closed-form finite-part providers for the builtins, derived from the rows
# ---------------------------------------------------------------------------

# per builtin: f's parameter names, then its rows at nu = 0 and at nu > 0 as
# (evaluate, (step, offset, lowest k, highest k, flag)); flag: the row takes
# its index (D.13 does not) at nu = 0, the whole power (D.3) at nu > 0.  D.3
# goes last at nu = 0, where its odd powers are D.4's.
_ROWS: dict[str, tuple[tuple[str, ...], list, list]] = {}
for _row in sorted(D_ITEMS.values(), key=lambda r: r.index == "lam"):
    _names, _log, _nu = _ROWS.setdefault(_row.builtin, (_row.builtin_params, [], []))
    _lo = _row.offset + (0 if _row.index is None else _row.step * _row.first)
    _lattice = (_row.step, _row.offset, _lo, _lo if _row.index is None else math.inf)
    if not _row.free_nu or _row.index == "lam":
        _log.append((_row.evaluate, (*_lattice, _row.index is not None)))
    if _row.free_nu:
        _nu.append((_row.evaluate, (*_lattice, _row.index == "lam")))


def _exp_decay_log(a: float, k: int, nu: float) -> float | None:
    # ffp exp(-ax)/x^k = (-a)^(k-1)/(k-1)! (psi(k) - ln a)
    if nu > 0.0:
        return None
    mag = math.exp((k - 1) * math.log(a) - math.lgamma(float(k)))
    return (-1.0) ** (k - 1) * mag * (_psi(float(k)) - math.log(a))


def _exp_osc_log(a: float, k: int, nu: float) -> complex | None:
    return None if nu > 0.0 else d2_log(a, k - 1)


def _gaussian(a: float, shift: int, k: int, nu: float) -> float:
    # x^shift exp(-a x^2): the monomial absorbs into the kernel power,
    # s = k - shift + nu; positive odd integer s is the logarithmic case
    s = k - shift + nu
    if nu == 0.0 and int(round(s)) % 2 == 1 and s >= 1:
        # x = sqrt(t) makes it half the exp_decay log case at k = (s + 1)/2
        return 0.5 * _exp_decay_log(a, (int(round(s)) + 1) // 2, 0.0)
    ln_neg, sign = sf.lgamma_sign(0.5 * (1.0 - s))
    return 0.5 * sign * math.exp(0.5 * (s - 1.0) * math.log(a) + ln_neg)


def _rational_quartic(beta: float, omega_j: float, k: int, nu: float) -> float | None:
    if nu != 0.0 or k % 2 != 0:
        return None
    from .finitepart import fp_quartic
    return fp_quartic(beta, omega_j, (k - 2) // 2)


# closed forms with no table row, per builtin: params -> fp(k, nu)
_EXTRA: dict[str, Callable[[Mapping[str, float]], Callable]] = {
    "exp_decay": lambda p: partial(_exp_decay_log, p["a"]),
    "exp_osc": lambda p: partial(_exp_osc_log, p["a"]),
    "gaussian": lambda p: partial(_gaussian, p["a"], 0),
    "power_gaussian": lambda p: partial(_gaussian, p["a"], int(p["m"])),
    "rational_quartic": lambda p: partial(_rational_quartic, p["beta"], p["omega_j"]),
}


def fp_hook(name: str, params: Mapping[str, float]):
    """The closed-form finite-part provider of builtin `name`, or None.

    The provider maps (k, nu, upper) to ffp_0^inf f(x) x^-(k+nu) dx from the
    first row of f whose lattice holds the kernel, else from f's _EXTRA
    closed form.  It returns None for a finite upper limit, for a kernel
    outside k + nu > 0 (where FpKernel refuses) and where no closed form
    applies; callers then take the generic series + tail route.  A closed
    form that binary64 cannot evaluate raises NoConvergence.
    """
    if name == "inv_linear":             # 1/(c+x) is (s+x)^-mu at s = c, mu = 1
        name, params = "inv_power_shift", {"s": params["c"], "mu": 1.0}
    names, log, free = _ROWS.get(name, ((), (), ()))
    extra = _EXTRA.get(name)
    if name not in _ROWS and extra is None:
        return None
    extra = extra(params) if extra else None
    args = [params[p] for p in names]
    log_rows = [(partial(fn, *args),) + lattice for fn, lattice in log]
    nu_rows = [(partial(fn, *args),) + lattice for fn, lattice in free]

    def hook(k: int, nu: float, upper: float) -> complex | None:
        if upper != math.inf:
            return None
        try:
            if nu == 0.0:
                for call, step, offset, lo, hi, indexed in log_rows:
                    if lo <= k <= hi and (k - offset) % step == 0:
                        return call((k - offset) // step) if indexed else call()
            else:
                for call, step, offset, lo, hi, power in nu_rows:
                    if lo <= k <= hi and (k - offset) % step == 0:
                        return call(k + nu) if power else call((k - offset) // step, nu)
            # no row holds a kernel below k = 1, so only the extras need the check
            return None if extra is None or k + nu <= 0.0 else extra(k, nu)
        except FpintError:                   # a DomainError is also a ValueError
            raise
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise NoConvergence(f"{name}: closed-form finite part at k = {k}, "
                                f"nu = {nu:g} is outside the float range") from exc
    return hook
