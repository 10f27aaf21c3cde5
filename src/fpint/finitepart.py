"""Finite parts ffp_0^a f(x) x^-(k+nu) dx.

resolve_fp is the one front door, for a finite or an infinite upper limit:
f's closed-form hook (dtable) where it answers and use_hook is set, else the
generic construction _fp_split: term-by-term Maclaurin extraction up to a
split point s (the diverging eps-powers and log eps dropped) plus the
ordinary integral of f x^-(k+nu) beyond s, over [s, a] or [s, inf).  Beside
it stand the quartic family's closed form (fp_quartic) and an independent
numeric eps-extraction oracle (fp_epsilon_oracle) that fits and removes the
known divergent powers from int_eps^a.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DomainError, FitIllConditioned, NoConvergence,
                     TailNotIntegrable)
from .funcmodel import AnalyticFunction, TailDecay
from .precision import PrecisionConfig, default_precision, normed_design, sum_series
from .pvoracle import QuadratureBudget, adaptive_quad, tail_integral

NU_SNAP = 1e-6
EPS_GRID_LEN = 18
EPS_LADDER_FLOOR = -6.5
CONDITION_CAP = 1e10          # cap on the divergent-model design matrix
EXTENDED_CONDITION_CAP = 1e15  # guard on the ladder-augmented matrix
_BUDGET = QuadratureBudget()   # quadrature tolerances of both finite-part routes


def snap_nu(nu: float) -> float:
    """Snap nu within 1e-6 of 0 to the log path; reject nu within 1e-6 of 1."""
    if not 0.0 <= nu < 1.0:
        raise DomainError(f"nu must lie in [0, 1), got {nu}")
    if nu < NU_SNAP:
        return 0.0
    if nu > 1.0 - NU_SNAP:
        raise DomainError(
            f"nu={nu} is within {NU_SNAP} of 1; re-index with k+1 and nu-1 instead")
    return nu


@dataclass(frozen=True)
class FpKernel:
    """Kernel x^-(k+nu) on (0, upper]; k integer, 0 <= nu < 1."""

    k: int
    nu: float = 0.0
    upper: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", snap_nu(self.nu))
        if int(self.k) != self.k:
            raise DomainError("k must be an integer")
        object.__setattr__(self, "k", int(self.k))
        if self.k + self.nu <= 0.0:
            raise DomainError("k + nu must be positive (else the plain integral applies)")
        if self.nu == 0.0 and self.k < 1:
            raise DomainError("nu = 0 requires k >= 1")
        if not self.upper > 0.0:
            raise DomainError("upper limit must be positive")

    @property
    def exponent(self) -> float:
        return self.k + self.nu


@dataclass
class FpValue:
    value: complex
    route: str
    terms_used: int = 0
    tail_estimate: float = 0.0
    cancellation: float = 1.0     # peak intermediate magnitude over |value|


def split_radius(f: AnalyticFunction, k: int) -> float:
    """Series/tail split point for the generic finite-part routes.

    rho0/2 suffices for mild kernels, but for steep ones the two halves grow
    like (rho0/a0)^k and cancel; pushing the split toward rho0 as 1 - 7/k
    keeps the cancellation below ~e^7 regardless of k.
    """
    if math.isfinite(f.rho0):
        return f.rho0 * max(0.5, min(0.95, 1.0 - 7.0 / max(k, 1)))
    return 1.0


def _series_term(c: complex, a: float, ln_a: float, expo: float) -> complex:
    """c * a**expo with log-space fallback outside the float range."""
    mag = expo * ln_a
    if abs(mag) < 600.0:
        return c * a ** expo
    if c == 0.0:
        return 0.0 + 0.0j
    ln_t = math.log(abs(c)) + mag
    if ln_t > 700.0:
        raise NoConvergence(
            f"series weight a^{expo:g} with a={a:g} exceeds the float range")
    return (c / abs(c)) * math.exp(ln_t)


def _series_on(f: AnalyticFunction, a: float, k: int, nu: float,
               precision: PrecisionConfig) -> tuple[complex, int, float, float]:
    """sum_n c_n a^{n-k-nu+1}/(n-k-nu+1), log weight at n = k-1 when nu = 0."""
    e = k + nu
    ln_a = math.log(a)

    def term(n: int) -> complex:
        c = f.maclaurin(n)
        if nu == 0.0 and n == k - 1:
            return c * ln_a
        return _series_term(c, a, ln_a, n - e + 1.0) / (n - e + 1.0)

    # a zero of order m contributes m leading zero terms; the small-term stop
    # must not fire before real mass has arrived
    return sum_series(term, precision.rel_tol, precision.max_terms,
                      first_stop=f.zero_order + k + 2)


def _fp_split(f: AnalyticFunction, kernel: FpKernel, precision: PrecisionConfig | None,
              scale_hint: float | None) -> FpValue:
    """Finite part over [0, a]: Maclaurin extraction on [0, s] plus the
    ordinary integral of the (there regular) integrand over [s, a].

    s is split_radius(f, k); for entire f at least 1.25 min(scale_hint, a),
    since the pieces cancel like (omega/s)^k and the series must reach past
    the caller's omega scale; and at most a, where the series alone is the
    value (route "series").  Beyond s (route "split_tail"): adaptive_quad up
    to a finite a, else tail_integral aimed at the tail's own scale.  A non-finite
    value, from a pole of f on the range, raises DomainError.
    """
    k, nu, a, e = kernel.k, kernel.nu, kernel.upper, kernel.exponent
    if a == math.inf and not f.tail.admits_inverse_power(e):
        raise TailNotIntegrable(
            f"{f.name}: declared tail ({f.tail.kind}) does not admit x^-{e:g} at infinity")
    s = split_radius(f, k)
    if not math.isfinite(f.rho0) and scale_hint is not None:
        s = max(s, 1.25 * min(scale_hint, a))
    s = min(s, a)
    value, terms, tail, peak_term = _series_on(f, s, k, nu,
                                               precision or default_precision())
    route, rest = "series", 0.0

    def integrand(x: np.ndarray):
        return f.evaluate(x) * x ** (-e)

    if s < a < math.inf:
        route, rest = "split_tail", adaptive_quad(integrand, s, a, _BUDGET)
    elif a == math.inf:
        # steep kernels make the tail tiny, and a caller weighting these
        # finite parts by omega^k cannot afford a fixed absolute error floor
        probe = abs(complex(np.asarray(f.evaluate(np.array([s])))[0]))
        t_scale = probe * s ** (1.0 - e) / max(e - 1.0, 1.0)
        budget = replace(_BUDGET, abs_tol=max(
            min(_BUDGET.abs_tol, _BUDGET.rel_tol * t_scale), 1e-250))
        route, rest = "split_tail", tail_integral(integrand, s, f.tail.over_power(e), budget)
    value += rest
    if not cmath.isfinite(value):
        raise DomainError(f"{f.name}: finite part of x^-{e:g} over [0, {a:g}] is "
                          f"{value}; f is singular on the range")
    cancel = (peak_term + abs(rest)) / max(abs(value), 1e-300)
    return FpValue(value, route, terms, tail, max(cancel, 1.0))


def _quartic_binomial_sum(k: int, two_beta: float) -> float:
    total = 0.0
    for n in range(k // 2 + 1):
        total += (-1.0) ** n * math.comb(k - n, n) * two_beta ** (k - 2 * n)
    return total


def fp_quartic(beta: float, omega_j: float, k: int, method: str = "auto") -> float:
    """ffp_0^inf xi^{-2k-2} / (xi^4 - 2 beta w^2 xi^2 + w^4) d xi, beta < 1.

    method: 'three_branch' (trig / real-root forms), 'unified' (binomial-sum
    form), or 'auto' (stable branch per beta; the unified form is reserved for
    the branch boundaries beta ~ 0 and beta ~ -1 where the trig forms degrade).
    """
    if beta >= 1.0:
        raise DomainError("fp_quartic needs beta < 1")
    if omega_j <= 0.0:
        raise DomainError("fp_quartic needs omega_j > 0")
    if k < 0 or int(k) != k:
        raise DomainError("k must be a non-negative integer")
    if method not in ("auto", "three_branch", "unified"):
        raise DomainError(f"unknown method {method!r}")
    wpow = omega_j ** (-(2 * k + 5))
    # at beta = -1 the real-root form divides by a zero root: the unified form
    if method == "unified" or beta == -1.0 or (
            method == "auto" and (abs(beta) < 1e-8 or abs(beta + 1.0) < 1e-8)):
        s_k = _quartic_binomial_sum(k, 2.0 * beta)
        s_k1 = _quartic_binomial_sum(k + 1, 2.0 * beta)
        return math.pi * wpow / (2.0 * math.sqrt(2.0 * (1.0 - beta))) * (s_k1 - s_k)
    if beta > -1.0:
        # both signs of beta collapse onto one expression via atan2
        phi = math.atan2(math.sqrt(1.0 - beta * beta), beta)
        return 0.5 * math.pi * wpow * math.cos(phi * (k + 1.5)) / math.sin(phi)
    root = math.sqrt(beta * beta - 1.0)
    a_big = -beta + root
    b_small = -beta - root
    return ((-1.0) ** k * math.pi * wpow / (4.0 * root)
            * (a_big ** (-(k + 1.5)) - b_small ** (-(k + 1.5))))


def fp_epsilon_oracle(f_eval, kernel: FpKernel,
                      tail: TailDecay | None = None) -> FpValue:
    """Numeric finite part from I(eps) = int_eps^a f x^-(k+nu) dx.

    I(eps) is fitted to c0 + sum_j b_j eps^-(k+nu-j) (+ b_log ln eps when
    nu = 0) over a geometric eps grid by weighted least squares; c0 is the
    finite part.  Uses only point values of f - independent of the Maclaurin
    routes it cross-checks.  An infinite upper limit is split at 1 (the
    divergence lives at 0) and needs a declared tail.  The grid is
    eps_j = a 2^-(j+1), with a the finite (or split) upper limit.

    The fitted exponent set is the kernel ladder k+nu-1-j continued below
    zero: the vanishing remainder powers are kernel-known too, and dropping
    them contaminates c0 at the coarse end of the grid.
    """
    k, nu = kernel.k, kernel.nu
    e = kernel.exponent
    a = kernel.upper
    tail_part = 0.0 + 0.0j
    if not math.isfinite(a):
        if tail is None:
            raise TailNotIntegrable("infinite upper limit requires a declared tail")
        a = 1.0

        def tail_integrand(x: np.ndarray):
            return np.asarray(f_eval(x)) * x ** (-e)

        tail_part = tail_integral(tail_integrand, a, tail.over_power(e), _BUDGET)

    powers = []
    p = e - 1.0
    while p > EPS_LADDER_FLOOR:
        if abs(p) > 1e-9:
            powers.append(p)
        p -= 1.0
    n_cols = 1 + len(powers) + (1 if nu == 0.0 else 0)
    n_eps = max(EPS_GRID_LEN, n_cols + 5)
    eps = np.array([a / 2.0 * 2.0 ** (-j) for j in range(n_eps)])

    inner = QuadratureBudget(abs_tol=1e-14, rel_tol=5e-15)

    def log_integrand(u: np.ndarray):
        x = np.exp(u)
        return np.asarray(f_eval(x)) * np.exp(u * (1.0 - e))

    vals = np.empty(n_eps, dtype=complex)
    acc = 0.0 + 0.0j
    prev = math.log(a)
    for j in range(n_eps):
        lo = math.log(eps[j])
        acc += adaptive_quad(log_integrand, lo, prev, inner)
        prev = lo
        vals[j] = acc

    weights = 1.0 / np.maximum(np.abs(vals), 1e-30)

    # the divergent-only model matrix carries the hard condition cap
    dn_spec, _ = normed_design(eps, [q for q in powers if q > 0], weights, nu == 0.0)
    cond_spec = np.linalg.cond(dn_spec)
    if cond_spec > CONDITION_CAP:
        raise FitIllConditioned(
            f"divergent-model design condition {cond_spec:.3g} exceeds {CONDITION_CAP:g}")
    dn, scale = normed_design(eps, powers, weights, nu == 0.0)
    cond = np.linalg.cond(dn)
    if cond > EXTENDED_CONDITION_CAP:
        raise FitIllConditioned(
            f"ladder-augmented design condition {cond:.3g} exceeds "
            f"{EXTENDED_CONDITION_CAP:g}")
    rhs = vals * weights
    coef, *_ = np.linalg.lstsq(dn, rhs, rcond=None)
    coef = coef / scale
    resid = float(np.max(np.abs(dn @ (coef * scale) - rhs)))
    c0 = complex(coef[0])
    return FpValue(c0 + tail_part, "epsilon_oracle", n_eps, resid)


def resolve_fp(f: AnalyticFunction, k: int, nu: float, upper: float,
               precision: PrecisionConfig | None = None,
               use_hook: bool = True,
               scale_hint: float | None = None) -> FpValue:
    """Finite part by the best available route: f's closed-form hook when
    use_hook is set and the hook answers, else the generic _fp_split."""
    nu = snap_nu(nu)
    if use_hook and f.fp_hook is not None:
        val = f.fp_hook(k, nu, upper)
        if val is not None:
            return FpValue(complex(val), "closed_form", 1, 0.0)
    return _fp_split(f, FpKernel(k, nu, upper), precision, scale_hint)
