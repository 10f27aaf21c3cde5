"""Machine-readable catalog of the tabulated transforms and finite parts.

32 half-line/full-line Hilbert-transform entries (C.1-C.32) and 25 finite-part
entries (D.1-D.25).  Every entry carries a closed form over the special-function
layer, the theorem route that reproduces it, and an independent oracle; the
verification harness cross-checks the triple on deterministic parameter samples
and serializes the outcome to JSON/CSV.

A C row (`_c_item`) gives id, description, domain, variant, family, closed
form, builtin, sample space, omega cap (omega samples 0.3/0.55/0.8 of it) and
linked D items.  f's parameters are the space's keys other than `nu`; nu is a
parameter exactly when the space has `nu`; the sampler's seed offset is the
item number; the tolerance is AIRY_TOL for the "airy" family.  A D row is a
`dtable.DItem` (builtin, kernel, space; seed offset 100 + row index) linked
back from the C rows.  `kind` is "finite_part" exactly for the D items.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dtable
from . import hilbert as hb
from . import specfun as sf
from .errors import FpintError, UnknownItem
from .finitepart import FpKernel, fp_epsilon_oracle, fp_infinite, fp_quartic
from .funcmodel import builtin, quartic_rho0
from .precision import PrecisionConfig, sum_series
from .pvoracle import pv_transform

SERIES_MAX_TERMS = 50_000
DEFAULT_TOL = 1e-6
AIRY_TOL = 1e-5
SAMPLE_SEED = 20240801


def _sum_terms(term_fn: Callable[[int], complex]) -> complex:
    return sum_series(term_fn, 1e-13, SERIES_MAX_TERMS)[0]


def _pfq(num, den, z) -> complex:
    return sf.hyper_pfq(num, den, z,
                        PrecisionConfig(rel_tol=1e-13, max_terms=SERIES_MAX_TERMS)).value


_PI = math.pi
_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Closed forms for the transform table (label numbering C.1-C.32)
# ---------------------------------------------------------------------------

def _c1(a, omega):
    f_val = 1.0 / math.sqrt(a * a + omega * omega)
    series = _sum_terms(lambda k: (-(omega / a) ** 2) ** k
                        * math.gamma(k + 0.5) / math.gamma(k + 1.0)
                        * (sf.digamma(k + 1.0) - sf.digamma(k + 0.5)))
    return math.log(omega / a) * f_val - series / (2.0 * a * _SQRT_PI)


def _c2(a, nu, omega):
    t1 = (-omega / (2.0 * _SQRT_PI * a ** (2.0 + nu))
          * sf.gamma_real(1.0 + 0.5 * nu) * sf.gamma_real(-0.5 * (1.0 + nu))
          * _pfq([1.0, 1.0 + 0.5 * nu], [0.5 * (3.0 + nu)], -(omega / a) ** 2))
    t2 = 0.5 * _PI * math.tan(0.5 * _PI * nu) / (omega ** nu * math.sqrt(omega ** 2 + a ** 2))
    return t1 + t2


def _c3(a, nu, omega):
    t1 = (-1.0 / (2.0 * _SQRT_PI * a ** (1.0 + nu))
          * sf.gamma_real(-0.5 * nu) * sf.gamma_real(0.5 * (1.0 + nu))
          * _pfq([1.0, 0.5 * (1.0 + nu)], [1.0 + 0.5 * nu], -(omega / a) ** 2))
    t2 = -0.5 * _PI / math.tan(0.5 * _PI * nu) / (omega ** nu * math.sqrt(omega ** 2 + a ** 2))
    return t1 + t2


def _c4(a, nu, omega):
    lead = -1j * _PI / (omega ** nu * math.sqrt(omega ** 2 + a ** 2))
    pref = cmath.exp(-0.5j * _PI * nu) / (a ** (nu + 1.0) * _SQRT_PI)
    inner = (1j * math.sin(0.5 * _PI * nu) * sf.gamma_real(-0.5 * nu)
             * sf.gamma_real(0.5 * (1.0 + nu))
             * _pfq([1.0, 0.5 * (1.0 + nu)], [1.0 + 0.5 * nu], -(omega / a) ** 2)
             + (omega / a) * math.cos(0.5 * _PI * nu)
             * sf.gamma_real(-0.5 * (nu + 1.0)) * sf.gamma_real(0.5 * (2.0 + nu))
             * _pfq([1.0, 1.0 + 0.5 * nu], [0.5 * (3.0 + nu)], -(omega / a) ** 2))
    return lead - pref * inner


def _c5(a, omega):
    return 4.0 * a * omega / _PI * _pfq([1.0, 1.0], [1.5, 1.5, 1.5], -(a * omega) ** 2)


def _c6(a, omega):
    j0w = sf.bessel_j0(a * omega) ** 2
    series = _sum_terms(lambda k: (-1.0) ** k * (a * omega) ** (2 * k)
                        * math.gamma(k + 0.5) / math.factorial(k) ** 3
                        * (3.0 * sf.digamma(k + 1.0) - sf.digamma(k + 0.5)))
    return j0w * math.log(a * omega) - series / (2.0 * _SQRT_PI)


def _c7(a, nu, omega):
    j0w = sf.bessel_j0(a * omega) ** 2
    g3 = sf.gamma_real(0.5 * (3.0 + nu))
    return (0.5 * _PI * math.tan(0.5 * _PI * nu) * j0w / omega ** nu
            + 0.5 * _SQRT_PI * a ** nu * (a * omega) / math.cos(0.5 * _PI * nu)
            * sf.gamma_real(1.0 + 0.5 * nu) / g3 ** 3
            * _pfq([1.0, 1.0 + 0.5 * nu],
                   [0.5 * (3.0 + nu), 0.5 * (3.0 + nu), 0.5 * (3.0 + nu)],
                   -(a * omega) ** 2))


def _c8(a, nu, omega):
    j0w = sf.bessel_j0(a * omega) ** 2
    g2 = sf.gamma_real(1.0 + 0.5 * nu)
    return (0.5 * _SQRT_PI * a ** nu / math.sin(0.5 * _PI * nu)
            * sf.gamma_real(0.5 * (1.0 + nu)) / g2 ** 3
            * _pfq([1.0, 0.5 * (1.0 + nu)],
                   [1.0 + 0.5 * nu, 1.0 + 0.5 * nu, 1.0 + 0.5 * nu],
                   -(a * omega) ** 2)
            - 0.5 * _PI / math.tan(0.5 * _PI * nu) * j0w / omega ** nu)


def _c9(a, nu, omega):
    j0w = sf.bessel_j0(a * omega) ** 2
    g3 = sf.gamma_real(0.5 * (3.0 + nu))
    g2 = sf.gamma_real(1.0 + 0.5 * nu)
    half = cmath.exp(-0.5j * _PI * nu)
    return (-1j * _PI * j0w / omega ** nu
            + _SQRT_PI * a ** nu * (a * omega) * half * g2 / g3 ** 3
            * _pfq([1.0, 1.0 + 0.5 * nu],
                   [0.5 * (3.0 + nu)] * 3, -(a * omega) ** 2)
            + 1j * _SQRT_PI * a ** nu * half
            * sf.gamma_real(0.5 * (1.0 + nu)) / g2 ** 3
            * _pfq([1.0, 0.5 * (1.0 + nu)],
                   [1.0 + 0.5 * nu] * 3, -(a * omega) ** 2))


def _c10(a, nu, omega):
    sn = math.sin(_PI * nu)
    return (-_PI / sn * a ** nu * (a * omega) / math.gamma(2.0 + nu)
            * _pfq([1.0], [1.0 + 0.5 * nu, 0.5 * (3.0 + nu)], 0.25 * (a * omega) ** 2)
            + 0.5 * _PI / omega ** nu
            * (math.exp(a * omega) / sn - math.exp(-a * omega) / math.tan(_PI * nu)))


def _c11(a, nu, omega):
    sn = math.sin(_PI * nu)
    return (_PI / sn * a ** nu / math.gamma(1.0 + nu)
            * _pfq([1.0], [0.5 * (1.0 + nu), 1.0 + 0.5 * nu], 0.25 * (a * omega) ** 2)
            - 0.5 * _PI / omega ** nu
            * (math.exp(-a * omega) / math.tan(_PI * nu) + math.exp(a * omega) / sn))


def _c12(a, nu, omega):
    gam_ratio = sf.incomplete_gamma_upper(nu, 1j * a * omega) / sf.gamma_real(nu)
    return (_PI * math.tan(0.5 * _PI * nu) * math.copysign(1.0, omega)
            * cmath.exp(1j * a * omega) / abs(omega) ** nu
            - 2j * _PI * (1j * omega) ** (-nu) * cmath.exp(1j * a * omega)
            * math.sin(0.5 * _PI * nu) / math.sin(_PI * nu) * (1.0 - gam_ratio))


def _c13(a, nu, omega):
    gam_ratio = sf.incomplete_gamma_upper(nu, 1j * a * omega) / sf.gamma_real(nu)
    return (-_PI / math.tan(0.5 * _PI * nu) * cmath.exp(1j * a * omega) / abs(omega) ** nu
            + 2.0 * _PI * (1j * omega) ** (-nu) * cmath.exp(1j * a * omega)
            * math.cos(0.5 * _PI * nu) / math.sin(_PI * nu) * (1.0 - gam_ratio))


def _c14(a, c, nu, omega):
    sn = math.sin(_PI * nu)
    series = _sum_terms(lambda k: (omega / c) ** (2 * k)
                        * sf.incomplete_gamma_q(2 * k + 2 + nu, a * c))
    return (-_PI * math.exp(a * c) / sn / c ** (nu + 1.0) * (omega / c) * series
            + 0.5 * _PI / omega ** nu
            * (math.exp(a * omega) / (sn * (c - omega))
               - math.exp(-a * omega) / (math.tan(_PI * nu) * (omega + c))))


def _c15(a, c, nu, omega):
    sn = math.sin(_PI * nu)
    series = _sum_terms(lambda k: (omega / c) ** (2 * k)
                        * sf.incomplete_gamma_q(2 * k + 1 + nu, a * c))
    return (_PI * math.exp(a * c) / sn / c ** (nu + 1.0) * series
            - 0.5 * _PI / omega ** nu
            * (math.exp(a * omega) / (sn * (c - omega))
               + math.exp(-a * omega) / (math.tan(_PI * nu) * (omega + c))))


def _c16(a, c, omega):
    eac = math.exp(a * c)
    s1 = _sum_terms(lambda k: (omega / c) ** (2 * k)
                    * sf.incomplete_gamma_p(2 * k + 2.0, a * c)
                    * (math.log(a) - sf.digamma(2 * k + 2.0)))
    s2 = _sum_terms(lambda k: (a * omega) ** (2 * k)
                    / (math.factorial(2 * k + 1) * (2 * k + 2.0) ** 2)
                    * _pfq([2 * k + 2.0, 2 * k + 2.0],
                           [2 * k + 3.0, 2 * k + 3.0], -a * c))
    return (eac * omega / c ** 2 * s1 - a ** 2 * omega * eac * s2
            + omega * eac * math.log(c) / (c ** 2 - omega ** 2)
            + 0.5 * (math.exp(-a * omega) / (c + omega)
                     - math.exp(a * omega) / (c - omega)) * math.log(omega))


def _c17(a, c, omega):
    eac = math.exp(a * c)
    s1 = _sum_terms(lambda k: (omega / c) ** (2 * k)
                    * sf.incomplete_gamma_p(2 * k + 1.0, a * c)
                    * (math.log(a) - sf.digamma(2 * k + 1.0)))
    s2 = _sum_terms(lambda k: (a * omega) ** (2 * k)
                    / (math.factorial(2 * k) * (2 * k + 1.0) ** 2)
                    * _pfq([2 * k + 1.0, 2 * k + 1.0],
                           [2 * k + 2.0, 2 * k + 2.0], -a * c))
    return (-eac / c * s1 + a * eac * s2
            - c * eac * math.log(c) / (c ** 2 - omega ** 2)
            + 0.5 * (math.exp(-a * omega) / (c + omega)
                     + math.exp(a * omega) / (c - omega)) * math.log(omega))


def _c18_weight(x, n, mu):
    """x^n Gamma(n+mu)/n!, in log space once Gamma overflows (n + mu > 171)."""
    try:
        return x ** n * math.gamma(n + mu) / math.gamma(n + 1.0)
    except OverflowError:
        return math.copysign(math.exp(n * math.log(abs(x)) + math.lgamma(n + mu)
                                      - math.lgamma(n + 1.0)), x ** n)


def _c18(s, mu, omega):
    pref = 1.0 / (s ** mu * math.gamma(mu))
    s1 = _sum_terms(lambda n: _c18_weight(-omega / s, n, mu) * sf.digamma(n + 1.0))
    s2 = _sum_terms(lambda n: _c18_weight(-omega / s, n, mu) * sf.digamma(n + mu))
    return -pref * s1 + pref * s2 + math.log(omega / s) / (s + omega) ** mu


def _c19(s, mu, nu, omega):
    return (-_PI / omega ** nu / math.tan(_PI * nu) / (s + omega) ** mu
            + _PI / s ** (nu + mu) / math.sin(_PI * nu)
            * math.gamma(nu + mu) / (math.gamma(mu) * math.gamma(1.0 + nu))
            * _pfq([1.0, mu + nu], [1.0 + nu], -omega / s))


def _c20(s, mu, nu, omega):
    sn = math.sin(_PI * nu)
    return (0.5 * _PI / omega ** nu
            * (1.0 / (sn * (s - omega) ** mu)
               - 1.0 / (math.tan(_PI * nu) * (s + omega) ** mu))
            - _PI / s ** (nu + mu) * (omega / s) / sn
            * math.gamma(1.0 + mu + nu) / (math.gamma(mu) * math.gamma(2.0 + nu))
            * _pfq([1.0, 0.5 * (1.0 + mu + nu), 1.0 + 0.5 * (mu + nu)],
                   [1.0 + 0.5 * nu, 0.5 * (3.0 + nu)], (omega / s) ** 2))


def _c21(s, mu, nu, omega):
    sn = math.sin(_PI * nu)
    return (-0.5 * _PI / omega ** nu
            * (1.0 / (sn * (s - omega) ** mu)
               + 1.0 / (math.tan(_PI * nu) * (s + omega) ** mu))
            + _PI / s ** (nu + mu) / sn
            * math.gamma(mu + nu) / (math.gamma(mu) * math.gamma(1.0 + nu))
            * _pfq([1.0, 0.5 * (mu + nu), 0.5 * (1.0 + mu + nu)],
                   [0.5 * (1.0 + nu), 1.0 + 0.5 * nu], (omega / s) ** 2))


def _sec(x):
    return 1.0 / math.cos(x)


def _c22(c, nu, omega):
    return (-_PI / omega ** nu / math.tan(_PI * nu) / (omega ** 3 + c ** 3)
            + _PI / (3.0 * c ** (2.0 + nu)) / (omega ** 3 + c ** 3)
            * (c ** 2 / math.sin(_PI * nu / 3.0)
               + c * omega * _sec(_PI * nu / 3.0 - _PI / 6.0)
               + omega ** 2 * _sec(_PI * nu / 3.0 + _PI / 6.0)))


def _c23(c, nu, omega):
    sn = math.sin(_PI * nu)
    return (0.5 * _PI / omega ** nu
            * (1.0 / (sn * (c ** 3 - omega ** 3))
               - 1.0 / (math.tan(_PI * nu) * (c ** 3 + omega ** 3)))
            - _PI / (3.0 * c ** (nu + 2.0)) * omega / (c ** 6 - omega ** 6)
            * (c ** 2 * omega ** 2 / math.sin(_PI * nu / 3.0)
               + omega ** 4 * _sec(_PI * nu / 3.0 + _PI / 6.0)
               - c ** 4 * _sec(_PI * nu / 3.0 - _PI / 6.0)))


def _c24(c, nu, omega):
    sn = math.sin(_PI * nu)
    return (-0.5 * _PI / omega ** nu
            * (1.0 / (sn * (c ** 3 - omega ** 3))
               + 1.0 / (math.tan(_PI * nu) * (c ** 3 + omega ** 3)))
            + _PI / (3.0 * c ** (nu + 1.0)) / (c ** 6 - omega ** 6)
            * (c ** 4 / math.sin(_PI * nu / 3.0)
               + c ** 2 * omega ** 2 * _sec(_PI * nu / 3.0 + _PI / 6.0)
               - omega ** 4 * _sec(_PI * nu / 3.0 - _PI / 6.0)))


def _c25(a, omega):
    z = (2.0 / 3.0) * (a * omega) ** 1.5
    return (-0.5 * (a * omega) ** 2
            * _pfq([1.0], [4.0 / 3.0, 5.0 / 3.0], (a * omega) ** 3 / 9.0)
            + _PI / (3.0 * math.sqrt(3.0)) * math.sqrt(a * omega)
            * (sf.bessel_i_third(-1, z) + sf.bessel_i_third(1, z)))


def _c26(a, omega):
    z = (2.0 / 3.0) * (a * omega) ** 1.5
    im = sf.bessel_i_third(-1, z)
    ip = sf.bessel_i_third(1, z)
    series = _sum_terms(lambda j: ((a * omega) ** 3 / 9.0) ** (j + 1)
                        * (3.0 ** (-1.0 / 3.0) / (a * omega) ** 2
                           * (sf.digamma(j + 1.0) + sf.digamma(j + 1.0 + 1.0 / 3.0))
                           / (math.gamma(j + 1.0) * math.gamma(j + 1.0 + 1.0 / 3.0))
                           - 3.0 ** (1.0 / 3.0) / (a * omega) ** 3
                           * (sf.digamma(j + 1.0) + sf.digamma(j + 1.0 - 1.0 / 3.0))
                           / (math.gamma(j + 1.0) * math.gamma(j + 1.0 - 1.0 / 3.0))))
    return (sf.airy_ai(a * omega) * math.log(omega)
            - (a * omega) ** 2 / 6.0 * _pfq([1.0], [4.0 / 3.0, 5.0 / 3.0],
                                            (a * omega) ** 3 / 9.0)
            + math.sqrt(a * omega) / 9.0 * _PI / math.sqrt(3.0) * (im + ip)
            + math.sqrt(a * omega) / 9.0 * math.log(a ** 3 / 9.0) * (im - ip)
            + series)


def _c27(a, nu, omega):
    z = (a * omega) ** 3 / 9.0
    s3 = math.sin(_PI / 3.0)

    def blk(shift):
        return (math.gamma((shift + nu) / 3.0) * math.gamma((shift + 1 + nu) / 3.0))

    t0 = -_PI / math.tan(_PI * nu) * sf.airy_ai(a * omega) / omega ** nu
    t1 = (-(a * omega) ** 2 * 3.0 ** (-3.0 - 2.0 * nu / 3.0) * _PI * a ** nu * s3
          / (math.sin(_PI * (1.0 - nu) / 3.0) * math.sin(_PI * (2.0 - nu) / 3.0))
          * _pfq([1.0], [(4.0 + nu) / 3.0, (5.0 + nu) / 3.0], z) / blk(4))
    t2 = (-(a * omega) * 3.0 ** (-7.0 / 3.0 - 2.0 * nu / 3.0) * _PI * a ** nu * s3
          / (math.sin(_PI * (2.0 - nu) / 3.0) * math.sin(_PI * (3.0 - nu) / 3.0))
          * _pfq([1.0], [(3.0 + nu) / 3.0, (4.0 + nu) / 3.0], z) / blk(3))
    t3 = (3.0 ** (-5.0 / 3.0 - 2.0 * nu / 3.0) * _PI * a ** nu * s3
          / (math.sin(_PI * (1.0 - nu) / 3.0) * math.sin(_PI * (3.0 - nu) / 3.0))
          * _pfq([1.0], [(2.0 + nu) / 3.0, (3.0 + nu) / 3.0], z) / blk(2))
    return t0 + t1 + t2 + t3


def _c28(a, nu, omega):
    z = (a * omega) ** 3 / 9.0
    s3 = math.sin(_PI / 3.0)
    w = cmath.exp(-1j * _PI * nu)

    def blk(shift):
        return (math.gamma((shift + nu) / 3.0) * math.gamma((shift + 1 + nu) / 3.0))

    t0 = -1j * _PI * sf.airy_ai(a * omega) / omega ** nu
    t1 = (-3.0 ** (-3.0 - 2.0 * nu / 3.0) * _PI * a ** nu * (a * omega) ** 2
          * (s3 + 2.0 * w * s3 * math.cos(_PI * nu / 3.0))
          / (math.sin(_PI * (1.0 - nu) / 3.0) * math.sin(_PI * (2.0 - nu) / 3.0))
          * _pfq([1.0], [(4.0 + nu) / 3.0, (5.0 + nu) / 3.0], z) / blk(4))
    t2 = (-3.0 ** (-7.0 / 3.0 - 2.0 * nu / 3.0) * _PI * a ** nu * (a * omega)
          * (s3 - w * (1.5 * math.sin(_PI * nu / 3.0) + s3 * math.cos(_PI * nu / 3.0)))
          / (math.sin(_PI * (2.0 - nu) / 3.0) * math.sin(_PI * (3.0 - nu) / 3.0))
          * _pfq([1.0], [(3.0 + nu) / 3.0, (4.0 + nu) / 3.0], z) / blk(3))
    t3 = (3.0 ** (-5.0 / 3.0 - 2.0 * nu / 3.0) * _PI * a ** nu
          * (s3 - w * (-1.5 * math.sin(_PI * nu / 3.0) + s3 * math.cos(_PI * nu / 3.0)))
          / (math.sin(_PI * (1.0 - nu) / 3.0) * math.sin(_PI * (3.0 - nu) / 3.0))
          * _pfq([1.0], [(2.0 + nu) / 3.0, (3.0 + nu) / 3.0], z) / blk(2))
    return t0 + t1 + t2 + t3


def _c29(a, omega):
    z = (4.0 / 9.0) * a ** 3 * omega ** 3
    lg = math.log(12.0 ** (1.0 / 3.0) * a)
    s12 = math.sqrt(12.0)
    s12pi = math.sqrt(12.0 * _PI)
    series1 = _sum_terms(lambda k: (-(12.0 ** (1.0 / 3.0)) * a * omega) ** k
                         * sf.digamma(0.5 - k / 3.0)
                         / (math.gamma(k + 1.0) * sf.gamma_real(0.5 - k / 3.0)))
    series2 = _sum_terms(lambda k: (-(12.0 ** (1.0 / 3.0)) * a * omega) ** k
                         * sf.digamma(k + 1.0)
                         / (math.gamma(k + 1.0) * sf.gamma_real(0.5 - k / 3.0)))
    return (sf.airy_ai(a * omega) * sf.airy_ai_prime(a * omega) * math.log(omega)
            - lg / (_PI * s12) * _pfq([0.5], [1.0 / 3.0, 2.0 / 3.0], z)
            + lg / s12pi * (12.0 ** (1.0 / 3.0) * a * omega / math.gamma(1.0 / 6.0)
                            * _pfq([5.0 / 6.0], [2.0 / 3.0, 4.0 / 3.0], z)
                            - 18.0 ** (1.0 / 3.0) * a ** 2 * omega ** 2
                            / sf.gamma_real(-1.0 / 6.0)
                            * _pfq([7.0 / 6.0], [4.0 / 3.0, 5.0 / 3.0], z))
            - series1 / (3.0 * s12pi) + series2 / s12pi)


def _c30(a, nu, omega):
    z = (4.0 / 9.0) * a ** 3 * omega ** 3
    sn = math.sin(_PI * nu)
    pref = 12.0 ** (nu / 3.0) * a ** nu / math.sqrt(12.0 * _PI)
    t0 = (-_PI / math.tan(_PI * nu)
          * sf.airy_ai(a * omega) * sf.airy_ai_prime(a * omega) / omega ** nu)
    t1 = (-pref * math.cos(_PI * nu / 3.0) / sn
          * math.gamma(0.5 + nu / 3.0) / math.gamma(1.0 + nu)
          * _pfq([1.0, 0.5 + nu / 3.0],
                 [(1.0 + nu) / 3.0, (2.0 + nu) / 3.0, (3.0 + nu) / 3.0], z))
    t2 = (12.0 ** (1.0 / 3.0) * a * omega * pref
          * math.cos(_PI * (1.0 + nu) / 3.0) / sn
          * math.gamma(5.0 / 6.0 + nu / 3.0) / math.gamma(2.0 + nu)
          * _pfq([1.0, 5.0 / 6.0 + nu / 3.0],
                 [(2.0 + nu) / 3.0, (3.0 + nu) / 3.0, (4.0 + nu) / 3.0], z))
    t3 = ((12.0 ** (1.0 / 3.0) * a * omega) ** 2 * pref
          * math.cos(_PI * (1.0 - nu) / 3.0) / sn
          * math.gamma(7.0 / 6.0 + nu / 3.0) / math.gamma(3.0 + nu)
          * _pfq([1.0, 7.0 / 6.0 + nu / 3.0],
                 [(3.0 + nu) / 3.0, (4.0 + nu) / 3.0, (5.0 + nu) / 3.0], z))
    return t0 + t1 + t2 + t3


def _c31(a, omega):
    # n = j + 1.  The functional equation, zeta(1 - 2n) = 2 (-1)^n (2n-1)!
    # zeta(2n) / (2 pi)^2n, cancels each term's factorial against the growth
    # of zeta(1 - 2n) and zeta'(-2n), so no factor leaves the float range: the
    # terms fall like q^n = (a omega / pi)^2n, r^n = q^n / 4^n
    aw = a * omega
    q, r = (aw / _PI) ** 2, (aw / (2.0 * _PI)) ** 2
    s1 = _sum_terms(lambda j: (-1.0) ** (j + 1) * (q ** (j + 1) - 0.5 * r ** (j + 1))
                    * sf.zeta_real(2.0 * j + 3.0))
    s2 = _sum_terms(lambda j: 2.0 * (-1.0) ** (j + 1) * sf.zeta_real(2.0 * j + 2.0)
                    * (r ** (j + 1) * math.log(a) - q ** (j + 1) * math.log(2.0 * a)
                       + (q ** (j + 1) - r ** (j + 1)) * sf.digamma(2.0 * j + 2.0)))
    s3 = _sum_terms(lambda j: 2.0 * (-1.0) ** (j + 1) * (q ** (j + 1) - r ** (j + 1))
                    * (sf.zeta_real(2.0 * j + 2.0)
                       * (math.log(2.0 * _PI) - sf.digamma(2.0 * j + 2.0))
                       - sf.zeta_prime_real(2.0 * j + 2.0)))
    return (0.5 * sf.EULER_GAMMA + 0.5 * math.log(2.0 * a / _PI)
            + s1 - s2 / aw - s3 / aw
            + math.log(omega) / (math.exp(a * omega) + 1.0))


def _c32(a, nu, omega):
    t0 = (-_PI / omega ** nu / math.tan(_PI * nu)
          / (1.0 + math.exp(a * omega)))
    series = _sum_terms(lambda k: (a * omega) ** k * (2.0 ** (k + nu + 1.0) - 1.0)
                        * sf.zeta_real(-k - nu)
                        / (math.sin(_PI * (k + nu)) * math.gamma(k + nu + 1.0)))
    return t0 - _PI * a ** nu * series


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogItem:
    item_id: str
    description: str
    domain: str
    kernel: str                    # transform variant, or "finite_part"
    function_family: str
    closed_form: Callable[..., complex]
    theorem_route: Callable[..., complex]      # (params, fp_mode="auto")
    oracle: Callable[..., complex]
    sampler: Callable[[int], list[dict]]
    linked_fp_items: tuple[str, ...] = ()
    tolerance: float = DEFAULT_TOL
    notes: str = ""

    @property
    def kind(self) -> str:
        return "finite_part" if self.kernel == "finite_part" else "hilbert"


def _three_samples(space: dict, integer_params: tuple[str, ...],
                   omega_cap: Callable[[dict], float] | None,
                   seed_offset: int):
    """Deterministic low/mid/high samples, Latin-square rotated per parameter."""

    def sampler(seed: int) -> list[dict]:
        rng = np.random.RandomState(seed + seed_offset)
        offsets = {name: int(rng.randint(0, 3)) for name in space}
        out = []
        for i in range(3):
            params = {}
            for name, (lo, hi) in space.items():
                levels = ([lo, (lo + hi) // 2 if name in integer_params
                           else 0.5 * (lo + hi), hi])
                val = levels[(i + offsets[name]) % 3]
                params[name] = int(val) if name in integer_params else float(val)
            if omega_cap is not None:
                params["omega"] = float([0.3, 0.55, 0.8][i] * omega_cap(params))
            out.append(params)
        return out

    return sampler


def _c_item(item_id, description, domain, kernel, family, closed, builtin_name,
            space, omega_cap, linked, notes="") -> CatalogItem:
    """One C row; the derived values are listed in the module docstring."""
    f_params = tuple(p for p in space if p != "nu")

    def transform(params):
        f = builtin(builtin_name, **{p: params[p] for p in f_params})
        return f, (params["nu"] if "nu" in space else 0.0)

    def theorem(params, fp_mode="auto"):
        f, nu = transform(params)
        spec = hb.TransformSpec(kernel, params["omega"], nu, math.inf)
        return hb.evaluate_transform(spec, f, fp_mode=fp_mode).value

    def oracle(params):
        f, nu = transform(params)
        return pv_transform(kernel, f, nu, params["omega"], math.inf)

    return CatalogItem(
        item_id, description, domain, kernel, family,
        lambda params: closed(**params), theorem, oracle,
        _three_samples(space, (), omega_cap, int(item_id[2:])), linked,
        AIRY_TOL if family == "airy" else DEFAULT_TOL, notes)


_NU_RANGE = (0.2, 0.8)
C_ITEMS: dict[str, CatalogItem] = {item.item_id: item for item in [
    _c_item("C.1", "x/(omega^2-x^2) against 1/sqrt(x^2+a^2)", "a>0, 0<omega<a", "sym_x",
            "sqrt", _c1, "sqrt_inv_quad", {"a": (0.8, 2.0)}, lambda p: p["a"],
            ("D.5",)),
    _c_item("C.2", "omega/(x^nu(omega^2-x^2)) against 1/sqrt(x^2+a^2)",
            "a>0, 0<nu<1, 0<omega<a", "sym_omega", "sqrt", _c2, "sqrt_inv_quad",
            {"a": (0.8, 2.0), "nu": _NU_RANGE}, lambda p: p["a"], ("D.6",)),
    _c_item("C.3", "x^(1-nu)/(omega^2-x^2) against 1/sqrt(x^2+a^2)",
            "a>0, 0<nu<1, 0<omega<a", "sym_x", "sqrt", _c3, "sqrt_inv_quad",
            {"a": (0.8, 2.0), "nu": _NU_RANGE}, lambda p: p["a"], ("D.6",)),
    _c_item("C.4", "full-line x^-nu branch kernel against 1/sqrt(x^2+a^2)",
            "a>0, 0<nu<1, 0<omega<a", "full_line_branch", "sqrt", _c4, "sqrt_inv_quad",
            {"a": (0.8, 2.0), "nu": _NU_RANGE}, lambda p: p["a"], ("D.6",)),
    _c_item("C.5", "omega/(omega^2-x^2) against J0(ax)^2", "a>0, omega>0", "sym_omega",
            "bessel_j0", _c5, "j0_squared", {"a": (0.6, 1.6)}, lambda p: 1.0, ("D.3",)),
    _c_item("C.6", "x/(omega^2-x^2) against J0(ax)^2", "a>0, omega>0", "sym_x",
            "bessel_j0", _c6, "j0_squared", {"a": (0.6, 1.6)}, lambda p: 1.0, ("D.4",)),
    _c_item("C.7", "omega/(x^nu(omega^2-x^2)) against J0(ax)^2", "a>0, 0<nu<1, omega>0",
            "sym_omega", "bessel_j0", _c7, "j0_squared",
            {"a": (0.6, 1.6), "nu": _NU_RANGE}, lambda p: 1.0, ("D.3",)),
    _c_item("C.8", "x^(1-nu)/(omega^2-x^2) against J0(ax)^2", "a>0, 0<nu<1, omega>0",
            "sym_x", "bessel_j0", _c8, "j0_squared", {"a": (0.6, 1.6), "nu": _NU_RANGE},
            lambda p: 1.0, ("D.3",)),
    _c_item("C.9", "full-line x^-nu branch kernel against J0(ax)^2",
            "a>0, 0<nu<1, omega>0", "full_line_branch", "bessel_j0", _c9, "j0_squared",
            {"a": (0.6, 1.6), "nu": _NU_RANGE}, lambda p: 1.0, ("D.3",)),
    _c_item("C.10", "omega/(x^nu(omega^2-x^2)) against exp(-ax)",
            "a>0, 0<nu<1, omega>0", "sym_omega", "exp", _c10, "exp_decay",
            {"a": (0.6, 1.8), "nu": _NU_RANGE}, lambda p: 1.0, ("D.1",)),
    _c_item("C.11", "x^(1-nu)/(omega^2-x^2) against exp(-ax)", "a>0, 0<nu<1, omega>0",
            "sym_x", "exp", _c11, "exp_decay", {"a": (0.6, 1.8), "nu": _NU_RANGE},
            lambda p: 1.0, ("D.1",)),
    _c_item("C.12", "full-line |x|^-nu kernel against exp(iax)", "a>0, 0<nu<1, omega>0",
            "full_line_abs", "exp_osc", _c12, "exp_osc",
            {"a": (0.6, 1.8), "nu": _NU_RANGE}, lambda p: 1.0, ("D.2",)),
    _c_item("C.13", "full-line sgn(x)|x|^-nu kernel against exp(iax)",
            "a>0, 0<nu<1, omega>0", "full_line_abs_sgn", "exp_osc", _c13, "exp_osc",
            {"a": (0.6, 1.8), "nu": _NU_RANGE}, lambda p: 1.0, ("D.2",)),
    _c_item("C.14", "omega/(x^nu(omega^2-x^2)) against exp(-ax)/(x+c)",
            "a>0, c>0, 0<nu<1, 0<omega<c", "sym_omega", "exp_shift", _c14,
            "exp_decay_shift", {"a": (0.5, 1.5), "c": (0.8, 1.8), "nu": _NU_RANGE},
            lambda p: p["c"], ("D.8",)),
    _c_item("C.15", "x^(1-nu)/(omega^2-x^2) against exp(-ax)/(x+c)",
            "a>0, c>0, 0<nu<1, 0<omega<c", "sym_x", "exp_shift", _c15,
            "exp_decay_shift", {"a": (0.5, 1.5), "c": (0.8, 1.8), "nu": _NU_RANGE},
            lambda p: p["c"], ("D.8",)),
    _c_item("C.16", "omega/(omega^2-x^2) against exp(-ax)/(x+c)", "a>0, c>0, 0<omega<c",
            "sym_omega", "exp_shift", _c16, "exp_decay_shift",
            {"a": (0.5, 1.5), "c": (0.8, 1.8)}, lambda p: p["c"], ("D.9",)),
    _c_item("C.17", "x/(omega^2-x^2) against exp(-ax)/(x+c)", "a>0, c>0, 0<omega<c",
            "sym_x", "exp_shift", _c17, "exp_decay_shift",
            {"a": (0.5, 1.5), "c": (0.8, 1.8)}, lambda p: p["c"], ("D.9",)),
    _c_item("C.18", "1/(omega-x) against (s+x)^-mu", "s>0, mu>0, 0<omega<s",
            "one_sided", "power_shift", _c18, "inv_power_shift",
            {"s": (0.8, 1.8), "mu": (0.6, 2.2)}, lambda p: p["s"], ("D.10",)),
    _c_item("C.19", "1/(x^nu(omega-x)) against (s+x)^-mu",
            "s>0, mu>0, 0<nu<1, 0<omega<s", "one_sided", "power_shift", _c19,
            "inv_power_shift", {"s": (0.8, 1.8), "mu": (0.6, 2.2), "nu": _NU_RANGE},
            lambda p: p["s"], ("D.11",)),
    _c_item("C.20", "omega/(x^nu(omega^2-x^2)) against (s+x)^-mu",
            "s>0, mu>0, s!=omega, 0<nu<1", "sym_omega", "power_shift", _c20,
            "inv_power_shift", {"s": (0.8, 1.8), "mu": (0.6, 2.2), "nu": _NU_RANGE},
            lambda p: p["s"], ("D.11",)),
    _c_item("C.21", "x^(1-nu)/(omega^2-x^2) against (s+x)^-mu",
            "s>0, mu>0, s!=omega, 0<nu<1", "sym_x", "power_shift", _c21,
            "inv_power_shift", {"s": (0.8, 1.8), "mu": (0.6, 2.2), "nu": _NU_RANGE},
            lambda p: p["s"], ("D.11",)),
    _c_item("C.22", "1/(x^nu(omega-x)) against 1/(c^3+x^3)", "c>0, 0<nu<1, 0<omega<c",
            "one_sided", "cubic", _c22, "inv_cubic", {"c": (0.8, 1.8), "nu": _NU_RANGE},
            lambda p: p["c"], ("D.7",)),
    _c_item("C.23", "omega/(x^nu(omega^2-x^2)) against 1/(c^3+x^3)",
            "c>0, c!=omega, 0<nu<1", "sym_omega", "cubic", _c23, "inv_cubic",
            {"c": (0.8, 1.8), "nu": _NU_RANGE}, lambda p: p["c"], ("D.7",)),
    _c_item("C.24", "x^(1-nu)/(omega^2-x^2) against 1/(c^3+x^3)",
            "c>0, c!=omega, 0<nu<1", "sym_x", "cubic", _c24, "inv_cubic",
            {"c": (0.8, 1.8), "nu": _NU_RANGE}, lambda p: p["c"], ("D.7",)),
    _c_item("C.25", "full-line 1/(omega-x) against Ai(ax)", "a>0, omega>0", "full_line",
            "airy", _c25, "airy", {"a": (0.7, 1.4)}, lambda p: 1.0,
            ("D.16", "D.17", "D.18", "D.19", "D.20", "D.21")),
    _c_item("C.26", "1/(omega-x) against Ai(ax)", "a>0, 0<omega<=1", "one_sided",
            "airy", _c26, "airy", {"a": (0.7, 1.4)}, lambda p: 1.0,
            ("D.19", "D.20", "D.21"), notes="omega restricted to (0, 1]"),
    _c_item("C.27", "1/(x^nu(omega-x)) against Ai(ax)", "a>0, 0<nu<1, omega>0",
            "one_sided", "airy", _c27, "airy", {"a": (0.7, 1.4), "nu": _NU_RANGE},
            lambda p: 1.0, ("D.22",)),
    _c_item("C.28", "full-line x^-nu branch kernel against Ai(ax)",
            "a>0, 0<nu<1, omega>0", "full_line_branch", "airy", _c28, "airy",
            {"a": (0.7, 1.4), "nu": _NU_RANGE}, lambda p: 1.0, ("D.22", "D.23")),
    _c_item("C.29", "1/(omega-x) against Ai(ax)Ai'(ax)", "a>0, 0<omega<=1", "one_sided",
            "airy", _c29, "airy_prod", {"a": (0.7, 1.4)}, lambda p: 1.0, ("D.24",),
            notes="omega restricted to (0, 1]"),
    _c_item("C.30", "1/(x^nu(omega-x)) against Ai(ax)Ai'(ax)", "a>0, 0<nu<1, omega>0",
            "one_sided", "airy", _c30, "airy_prod", {"a": (0.7, 1.4), "nu": _NU_RANGE},
            lambda p: 1.0, ("D.25",)),
    _c_item("C.31", "1/(omega-x) against 1/(exp(ax)+1)", "a>0, 0<omega<pi/a",
            "one_sided", "fermi", _c31, "fermi", {"a": (0.7, 1.5)},
            lambda p: math.pi / p["a"], ("D.13", "D.14", "D.15")),
    _c_item("C.32", "1/(x^nu(omega-x)) against 1/(exp(ax)+1)",
            "a>0, 0<nu<1, 0<omega<pi/a", "one_sided", "fermi", _c32, "fermi",
            {"a": (0.7, 1.5), "nu": _NU_RANGE}, lambda p: math.pi / p["a"], ("D.12",)),
]}


def _d_item(position: int, row: dtable.DItem) -> CatalogItem:
    """One D row: f, its FpKernel and the samples come from the dtable row."""

    def integral(params):
        f = builtin(row.builtin, **{p: params[p] for p in row.builtin_params})
        return f, FpKernel(*row.kernel(params), math.inf)

    def oracle(params):
        f, kernel = integral(params)
        return fp_epsilon_oracle(f.evaluate, kernel, tail=f.tail).value

    # fp_infinite is the generic route itself: every fp_mode runs it
    return CatalogItem(
        row.item_id, row.description, row.domain, "finite_part", row.builtin,
        lambda params: row.evaluate(**params),
        lambda params, fp_mode="auto": fp_infinite(*integral(params)).value, oracle,
        _three_samples(row.sample_space, row.integer_params, None, 100 + position),
        tuple(c.item_id for c in C_ITEMS.values() if row.item_id in c.linked_fp_items))


D_CATALOG: dict[str, CatalogItem] = {
    row.item_id: _d_item(i, row) for i, row in enumerate(dtable.D_ITEMS.values())}

ALL_ITEMS: dict[str, CatalogItem] = {**C_ITEMS, **D_CATALOG}


def get_item(item_id: str) -> CatalogItem:
    try:
        return ALL_ITEMS[item_id]
    except KeyError:
        raise UnknownItem(f"unknown catalog item {item_id!r}") from None


def eval_closed_form(item_id: str, params: dict, omega: float | None = None) -> complex:
    item = get_item(item_id)
    kwargs = dict(params)
    if omega is not None:
        kwargs["omega"] = omega
    return item.closed_form(kwargs)


def list_items(kernel: str | None = None, function: str | None = None,
               kind: str | None = None) -> list[dict]:
    """The matching items in ALL_ITEMS order: C.1-C.32, then D.1-D.25."""
    return [{"id": item.item_id, "kind": item.kind, "kernel": item.kernel,
             "function": item.function_family, "description": item.description,
             "domain": item.domain, "linked_fp_items": list(item.linked_fp_items)}
            for item in ALL_ITEMS.values()
            if (not kernel or item.kernel == kernel)
            and (not function or function.lower() in item.function_family.lower())
            and (not kind or item.kind == kind)]


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

@dataclass
class SampleResult:
    params: dict
    closed: complex | None = None
    theorem: complex | None = None
    oracle: complex | None = None
    max_pairwise_rel: float = math.inf
    passed: bool = False
    error: str = ""


@dataclass
class VerificationReport:
    item_id: str
    tolerance: float
    seed: int
    samples: list[SampleResult] = field(default_factory=list)
    runtime: float = 0.0
    notes: str = ""
    route: str = "auto"

    @property
    def passed(self) -> bool:
        return bool(self.samples) and all(s.passed for s in self.samples)


def _pairwise_rel(vals: list[complex]) -> float:
    scale = max(max(abs(v) for v in vals), 1e-30)
    worst = 0.0
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            worst = max(worst, abs(vals[i] - vals[j]) / scale)
    return worst


def verify_item(item_id: str, tolerance: float | None = None,
                seed: int = SAMPLE_SEED,
                samples: list[dict] | None = None,
                route: str = "auto") -> VerificationReport:
    """Cross-check closed form vs theorem route vs oracle on >= 3 samples.

    route is the theorem route's fp_mode: "generic" bypasses the closed-form
    finite-part hooks of the C items, so that the paper's general Maclaurin
    + tail construction is checked; the D items' route is generic either way.
    Per-sample failures (domain violations, numerical errors) are recorded
    in the report rather than raised.
    """
    item = get_item(item_id)
    tol = tolerance if tolerance is not None else item.tolerance
    report = VerificationReport(item_id, tol, seed, notes=item.notes, route=route)
    t0 = time.time()
    for params in (samples if samples is not None else item.sampler(seed)):
        res = SampleResult(params=dict(params))
        try:
            res.closed = complex(item.closed_form(params))
            res.theorem = complex(item.theorem_route(params, fp_mode=route))
            res.oracle = complex(item.oracle(params))
            res.max_pairwise_rel = _pairwise_rel([res.closed, res.theorem, res.oracle])
            res.passed = res.max_pairwise_rel <= tol
        except (FpintError, ValueError, ArithmeticError) as exc:
            res.error = f"{type(exc).__name__}: {exc}"
        report.samples.append(res)
    report.runtime = time.time() - t0
    return report


def verify_many(item_ids: list[str], tolerance: float | None = None,
                seed: int = SAMPLE_SEED, route: str = "auto") -> list[VerificationReport]:
    return [verify_item(i, tolerance, seed, route=route) for i in item_ids]


def _cx(v: complex | None) -> dict | None:
    if v is None:
        return None
    v = complex(v)
    return {"re": v.real, "im": v.imag}


def reports_to_json(reports: list[VerificationReport], timestamp: str | None = None) -> str:
    # wall-clock fields ride along only when a timestamp is wanted at all
    payload = {
        "reports": [
            {
                "item": r.item_id,
                "tolerance": r.tolerance,
                "seed": r.seed,
                "passed": r.passed,
                "route": r.route,
                **({"runtime_s": round(r.runtime, 6)} if timestamp is not None else {}),
                "notes": r.notes,
                "samples": [
                    {
                        "params": s.params,
                        "closed_form": _cx(s.closed),
                        "theorem_route": _cx(s.theorem),
                        "oracle": _cx(s.oracle),
                        "max_pairwise_rel": s.max_pairwise_rel,
                        "passed": s.passed,
                        "error": s.error,
                    }
                    for s in r.samples
                ],
            }
            for r in reports
        ],
    }
    if timestamp is not None:
        payload["timestamp"] = timestamp
    return json.dumps(payload, indent=2, sort_keys=True)


def reports_to_csv(reports: list[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["item", "params", "closed_re", "closed_im", "theorem_re",
                     "theorem_im", "oracle_re", "oracle_im", "max_pairwise_rel",
                     "tolerance", "passed", "error"])
    for r in reports:
        for s in r.samples:
            writer.writerow([
                r.item_id, json.dumps(s.params, sort_keys=True),
                *(("", "") if s.closed is None else (repr(s.closed.real), repr(s.closed.imag))),
                *(("", "") if s.theorem is None else (repr(s.theorem.real), repr(s.theorem.imag))),
                *(("", "") if s.oracle is None else (repr(s.oracle.real), repr(s.oracle.imag))),
                repr(s.max_pairwise_rel), repr(r.tolerance), s.passed, s.error,
            ])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Plasma-permittivity worked example (the quartic-profile identity)
# ---------------------------------------------------------------------------

def plasma_pv_series(beta: float, omega_j: float, f_j: float, g_j: float,
                     omega: float) -> float:
    """Full-line PV of the oscillator's imaginary part via the quartic
    finite-part series: -2 int h - 2 sum omega^{2k+2} ffp h / xi^{2k+2}."""
    head = -2.0 * f_j * g_j * math.pi / (2.0 * omega_j ** 3
                                         * math.sqrt(2.0 * (1.0 - beta)))
    series = _sum_terms(
        lambda k: -2.0 * omega ** (2 * k + 2) * f_j * g_j
        * fp_quartic(beta, omega_j, k))
    return head + float(series.real)


def plasma_re_part(beta: float, omega_j: float, f_j: float, g_j: float,
                   omega: float) -> float:
    """Real part of the oscillator term; the PV above equals -pi times this."""
    return (f_j * (omega_j ** 2 - omega ** 2)
            / ((omega_j ** 2 - omega ** 2) ** 2 + g_j ** 2 * omega ** 2))


def plasma_rho0(beta: float, omega_j: float) -> float:
    return quartic_rho0(beta, omega_j)
