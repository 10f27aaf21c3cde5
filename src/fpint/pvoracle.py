"""Principal-value and regular quadrature used to validate the theorem routes.

The base integrator is a vectorized adaptive Gauss-Legendre rule (21/43-point
pairs, bisection on the worst interval).  Endpoint x^-nu singularities are
removed by the substitution x = u^(1/(1-nu)); infinite tails are truncated by
the declared decay bound, summed over geometric panels for algebraic decay,
and for oscillatory integrands summed over half-period panels between phase
crossings, with Wynn-epsilon and a power-ladder fit accelerating the partial
sums (conditionally convergent e^{iax}- and Airy-type tails need this).  The
panels between two estimator checks are evaluated in one integrand call.
Principal values use singularity subtraction in the symmetric window around
the pole.  The transform oracle splits a full-line kernel at the origin into
two half-line integrals; the kernel enters only by its weight on x < 0
(neg_weight).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure, TailBoundUnmet, TailNotIntegrable
from .funcmodel import (TAIL_ALG, TAIL_EXP, TAIL_NONE, TAIL_OSC_ALG,
                        TAIL_SUPEREXP, AnalyticFunction, TailDecay)

_GL_LO = np.polynomial.legendre.leggauss(21)
_GL_HI = np.polynomial.legendre.leggauss(43)
_MAX_SUBDIVISIONS = 4000  # adaptive_quad bisections
_TAIL_SAFETY = 0.1        # tails truncated when bound < abs_tol * _TAIL_SAFETY
_MAX_SEGMENTS = 600       # oscillatory tail half-periods


@dataclass(frozen=True)
class QuadratureBudget:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-11

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


def _panel(f, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    lo = np.sum(_GL_LO[1] * f(mid + half * _GL_LO[0])) * half
    hi = np.sum(_GL_HI[1] * f(mid + half * _GL_HI[0])) * half
    if not cmath.isfinite(hi):
        return hi, math.inf          # inf - inf would be nan, with a warning
    return hi, abs(hi - lo)


def adaptive_quad(f, a: float, b: float, budget: QuadratureBudget) -> complex:
    """Adaptive integral of a vectorized integrand over a finite interval.

    A non-finite error estimate means f is not finite at a node, and no
    bisection makes it finite again: the integral ends at once, with its
    value if that is infinite and with nan otherwise.  Callers refuse both.
    """
    if a == b:
        return 0.0
    val, err = _panel(f, a, b)
    intervals = [(err, a, b, val)]
    total = val
    total_err = err
    for _ in range(_MAX_SUBDIVISIONS):
        if not math.isfinite(total_err):
            return total if cmath.isinf(total) else math.nan
        tol = max(budget.abs_tol, budget.rel_tol * abs(total))
        if total_err <= tol:
            return total
        intervals.sort(key=lambda t: t[0])
        err0, x0, x1, v0 = intervals.pop()
        mid = 0.5 * (x0 + x1)
        if mid == x0 or mid == x1:
            # interval at floating-point resolution; accept its estimate
            intervals.append((0.0, x0, x1, v0))
            total_err -= err0
            continue
        vl, el = _panel(f, x0, mid)
        vr, er = _panel(f, mid, x1)
        total += vl + vr - v0
        total_err += el + er - err0
        intervals.append((el, x0, mid, vl))
        intervals.append((er, mid, x1, vr))
    tol = max(budget.abs_tol, budget.rel_tol * abs(total))
    if total_err > 100.0 * tol:
        raise QuadratureFailure(
            f"adaptive quadrature stalled: err={total_err:g} > tol={tol:g} on [{a:g},{b:g}]")
    return total


def quad_power_endpoint(f, a: float, b: float, nu: float,
                        budget: QuadratureBudget) -> complex:
    """Integral over [a, b] where f ~ (x-a)^(-nu), 0 <= nu < 1, at the endpoint.

    Substitution x = a + u^(1/(1-nu)) regularizes the endpoint.
    """
    if nu <= 0.0:
        return adaptive_quad(f, a, b, budget)
    p = 1.0 / (1.0 - nu)

    def g(u: np.ndarray):
        x = a + u ** p
        return f(x) * p * u ** (p - 1.0)

    return adaptive_quad(g, 0.0, (b - a) ** (1.0 - nu), budget)


# ---------------------------------------------------------------------------
# Infinite tails
# ---------------------------------------------------------------------------

def _wynn_epsilon(sums: list[complex]) -> complex:
    """Shanks acceleration of a partial-sum sequence (Wynn epsilon table)."""
    n = len(sums)
    if n == 1:
        return sums[0]
    e_prev = [0.0 + 0.0j] * (n + 1)
    e_curr = [complex(v) for v in sums]
    best = e_curr[-1]
    for _ in range(n - 1):
        e_next = []
        for j in range(len(e_curr) - 1):
            diff = e_curr[j + 1] - e_curr[j]
            if abs(diff) < 1e-300:
                return e_curr[j + 1]
            e_next.append(e_prev[j + 1] + 1.0 / diff)
        e_prev = e_curr
        e_curr = e_next
        if len(e_curr) >= 1 and (len(sums) - len(e_curr)) % 2 == 0:
            best = e_curr[-1]
    return best


def _fixed_panels(f, edges: list[float]) -> list[complex]:
    """43-point Gauss-Legendre value of each panel [edges[k], edges[k+1]].

    f is called once, on the nodes of all panels; each panel is then reduced
    on its own, so a panel's value does not depend on the others.  Panel
    arithmetic stays on Python floats, which keeps one panel as cheap as a
    plain 43-point rule.
    """
    x, w = _GL_HI
    panels = [(0.5 * (a + b), 0.5 * (b - a)) for a, b in zip(edges, edges[1:])]
    values = f(np.concatenate([mid + half * x for mid, half in panels]))
    n = len(x)
    # np.add.reduce is np.sum without its wrapper: the same sum, cheaper
    return [complex(np.add.reduce(w * values[k * n:(k + 1) * n]) * half)
            for k, (_, half) in enumerate(panels)]


def _power_ladder_fit(xs: np.ndarray, sums: np.ndarray, gamma: float) -> complex:
    """Fit partial sums to S + sum_i c_i x^-(gamma + i) and return S."""
    cols = [np.ones_like(xs)] + [xs ** (-(gamma + 0.5 * i)) for i in range(6)]
    design = np.column_stack(cols)
    norms = np.linalg.norm(design, axis=0)
    # columns whose powers underflow to 0 on these abscissae carry no information
    norms[norms == 0.0] = 1.0
    coef, *_ = np.linalg.lstsq(design / norms, sums, rcond=None)
    return complex((coef / norms)[0])


def _oscillatory_tail(f, start: float, tail: TailDecay,
                      budget: QuadratureBudget, envelope_power: float) -> complex:
    """Tail with phase c x^q: half-period segments, two independent limits.

    Wynn epsilon handles the purely oscillatory (alternating) component;
    integrands with a non-oscillatory algebraic mean (J0^2-type) defeat it,
    so full-period pairing plus a known-exponent power-ladder fit of the
    partial sums provides the second estimator.  Agreement of the two, or
    self-consistency of the fit across windows, is the stopping test.

    The segment edges depend only on the phase, so f is called once per
    window: on the nodes of segments 0-16 before the first check, then of the
    8 segments before each further check.  Each segment is still reduced on
    its own and summed in order, so the partial sums are those of one call
    per segment.
    """
    c = tail.phase_coeff or 1.0
    q = tail.phase_power or 1.0
    phi0 = c * start ** q
    gamma = max(envelope_power - 1.0, 0.25)
    sums: list[complex] = []
    rights: list[float] = []
    partial = 0.0 + 0.0j
    left = start
    best = None
    best_err = math.inf
    wynn_prev = None
    fit_prev = None
    for i in range(16, _MAX_SEGMENTS, 8):
        window = [((phi0 + (k + 1) * math.pi) / c) ** (1.0 / q)
                  for k in range(len(rights), i + 1)]
        for piece in _fixed_panels(f, [left] + window):
            partial += piece
            sums.append(partial)
        rights += window
        left = window[-1]
        # full-period pairing removes the alternating component
        paired = 0.5 * (np.asarray(sums[:-1:2], dtype=complex)
                        + np.asarray(sums[1::2], dtype=complex))
        xs = np.asarray(rights[1::2], dtype=float)[:len(paired)]
        n = len(paired)
        fit = _power_ladder_fit(xs[n // 2:], paired[n // 2:], gamma)
        fit_b = _power_ladder_fit(xs[n // 4:], paired[n // 4:], gamma)
        wynn = _wynn_epsilon(sums[-17:])
        # each estimator is scored by its own self-consistency
        err_fit = abs(fit - fit_b) + (abs(fit - fit_prev) if fit_prev is not None
                                      else math.inf)
        err_wynn = (abs(wynn - wynn_prev) if wynn_prev is not None else math.inf)
        wynn_prev, fit_prev = wynn, fit
        est, err = (wynn, err_wynn) if err_wynn < err_fit else (fit, err_fit)
        if err < best_err:
            best, best_err = est, err
        if err < max(budget.abs_tol, budget.rel_tol * abs(est)):
            return est
    if best is None or best_err > 1e6 * max(budget.abs_tol, budget.rel_tol * abs(best)):
        raise TailBoundUnmet(
            f"oscillatory tail not converged after {len(sums)} segments "
            f"(best error {best_err:g})")
    return best


def tail_integral(f, start: float, tail: TailDecay, budget: QuadratureBudget,
                  extra_power: float = 0.0) -> complex:
    """int_start^inf f(x) dx with f's decay declared by `tail`.

    extra_power states an additional x^-extra_power factor already inside f
    (it sharpens the algebraic bound used for truncation decisions).
    """
    if tail.kind == TAIL_NONE:
        raise TailNotIntegrable("tail decay declared as none")
    target = budget.abs_tol * _TAIL_SAFETY
    if tail.kind == TAIL_EXP:
        rate = tail.rate or 1.0
        # |f| <= C exp(-rate x): calibrate C at start, truncate accordingly
        fs = abs(complex(np.asarray(f(np.array([start])))[0]))
        c_est = max(fs, 1e-300) * math.exp(rate * start)
        cut = max(start + 1.0, math.log(max(c_est, 1e-300) / (target * rate)) / rate)
        return adaptive_quad(f, start, cut, budget)
    if tail.kind == TAIL_SUPEREXP:
        cut = start + 1.0
        span = 1.0
        while cut < start + 700.0:
            val = abs(complex(np.asarray(f(np.array([cut])))[0]))
            if val * max(cut, 1.0) < target:
                break
            span *= 1.6
            cut += span
        return adaptive_quad(f, start, cut, budget)
    if tail.kind == TAIL_ALG:
        p = (tail.power or 0.0) + extra_power
        if p <= 1.0:
            raise TailNotIntegrable(f"algebraic tail power {p:g} <= 1")
        # geometric panels [start 2^j, start 2^{j+1}]: scale-similar integrand,
        # remaining tail bounded by the last panel times a geometric factor
        total = 0.0 + 0.0j
        left = start
        ratio = 2.0 ** (1.0 - p)
        geo = ratio / (1.0 - ratio)
        for j in range(2400):
            # the first panels can be strongly peaked for steep kernels
            if j < 4:
                piece = complex(adaptive_quad(f, left, 2.0 * left, budget))
            else:
                piece = _fixed_panels(f, [left, 2.0 * left])[0]
            total += piece
            left *= 2.0
            if abs(piece) * geo < target:
                return total
        raise TailBoundUnmet(
            f"algebraic tail (power {p:g}) did not reach the bound {target:g}")
    if tail.kind == TAIL_OSC_ALG:
        p = (tail.power or 0.0) + extra_power
        if p <= 0.5:
            raise TailNotIntegrable(
                f"oscillatory tail with envelope power {p:g} <= 0.5 is not summable here")
        return _oscillatory_tail(f, start, tail, budget, p)
    raise TailNotIntegrable(f"unknown tail kind {tail.kind!r}")


def regular_integral(f, lo: float, hi: float,
                     endpoint_nu: float = 0.0,
                     budget: QuadratureBudget | None = None,
                     tail: TailDecay | None = None,
                     tail_extra_power: float = 0.0) -> complex:
    """Adaptive integral with optional endpoint exponent at lo and declared tail."""
    budget = budget or QuadratureBudget()
    if hi == math.inf:
        if tail is None:
            raise TailNotIntegrable("infinite upper limit requires a tail declaration")
        split = max(2.0 * abs(lo), lo + 1.0, 1.0)
        head = quad_power_endpoint(f, lo, split, endpoint_nu, budget)
        return head + tail_integral(f, split, tail, budget, tail_extra_power)
    return quad_power_endpoint(f, lo, hi, endpoint_nu, budget)


# ---------------------------------------------------------------------------
# Principal values
# ---------------------------------------------------------------------------

def _pv_core(h, omega: float, d: float, budget: QuadratureBudget) -> complex:
    """PV int_{omega-d}^{omega+d} h(x)/(omega-x) dx by symmetric subtraction.

    Equals int_0^d [h(omega+t) - h(omega-t)] / (-t) dt; the integrand extends
    analytically through t = 0 (limit -2 h'(omega)).
    """
    def g(t: np.ndarray):
        tt = np.where(t == 0.0, 1e-30, t)
        return (h(omega + tt) - h(omega - tt)) / (-tt)

    return adaptive_quad(g, 0.0, d, budget)


def pv_linear(h, omega: float, lo: float, hi: float,
              budget: QuadratureBudget | None = None,
              tail: TailDecay | None = None,
              endpoint_nu: float = 0.0,
              tail_extra_power: float = 1.0) -> complex:
    """PV int_lo^hi h(x)/(omega-x) dx, pole at omega in (lo, hi).

    h must be analytic at omega.  `tail` declares h's decay when hi = inf;
    `endpoint_nu` declares an integrable x^-nu blow-up of h at lo (lo finite).
    The bare-kernel principal value over the symmetric window vanishes, so the
    subtraction needs no explicit log term; the outer pieces contribute
    h(omega) ln|(omega-lo)/(hi-omega)| implicitly through direct integration.
    """
    budget = budget or QuadratureBudget()
    if lo == -math.inf:
        raise DomainError("pv_linear expects finite lo; reflect the negative half-line")
    if not (lo < omega < hi):
        raise DomainError("pole must lie strictly inside (lo, hi)")
    if hi == math.inf and tail is None:
        raise TailNotIntegrable("hi = inf requires a tail declaration for h")
    d = 0.5 * min(omega - lo, (hi - omega) if hi != math.inf else 1.0, 1.0)
    out = _pv_core(h, omega, d, budget)

    def kern(x: np.ndarray):
        return h(x) / (omega - x)

    if omega - d > lo:
        out += quad_power_endpoint(kern, lo, omega - d, endpoint_nu, budget)
    if hi == math.inf:
        split = omega + max(1.0, omega)
        out += adaptive_quad(kern, omega + d, split, budget)
        out += tail_integral(kern, split, tail, budget, extra_power=tail_extra_power)
    else:
        out += adaptive_quad(kern, omega + d, hi, budget)
    return out


def pv_quadratic(h, omega: float, hi: float, weight: str, nu: float,
                 budget: QuadratureBudget | None = None,
                 tail: TailDecay | None = None) -> complex:
    """PV int_0^hi W(x) h(x) / (x^nu (omega^2 - x^2)) dx, W = omega or x.

    The x = omega pole is subtracted through phi(x) = W h x^-nu / (omega + x);
    the x = 0 endpoint carries the integrable x^-nu (or x^{1-nu}) weight.
    """
    if weight not in ("omega_over", "x_over"):
        raise DomainError("weight must be 'omega_over' or 'x_over'")
    if not 0.0 <= nu < 1.0:
        raise DomainError("nu must lie in [0, 1)")
    if not 0.0 < omega < hi:
        raise DomainError("omega must lie inside (0, hi)")

    def phi(x: np.ndarray):
        w = omega if weight == "omega_over" else x
        return w * h(x) * x ** (-nu) / (omega + x)

    # x_over: x^(1-nu) is bounded at the origin
    eff_nu = nu if weight == "omega_over" else 0.0
    extra = 2.0 + nu if weight == "omega_over" else 1.0 + nu
    return pv_linear(phi, omega, 0.0, hi, budget, tail,
                     endpoint_nu=eff_nu, tail_extra_power=extra)


# ---------------------------------------------------------------------------
# Transform-shaped oracle
# ---------------------------------------------------------------------------

def neg_weight(variant: str, nu: float) -> complex:
    """Weight w of a full-line kernel on x < 0: the kernel is x^-nu on x > 0
    and w |x|^-nu on x < 0, times 1/(omega - x)."""
    if variant == "full_line_branch":
        return cmath.exp(-1j * math.pi * nu)     # x^-nu on the principal branch
    if variant in ("full_line", "full_line_abs"):
        return 1.0
    if variant in ("full_line_sgn", "full_line_abs_sgn"):
        return -1.0
    raise DomainError(f"unknown variant {variant!r}")


def _odd_over_x(f: AnalyticFunction, a: float, budget: QuadratureBudget) -> complex:
    """int_0^a (f(x) - f(-x)) / x dx: one integrand up to min(1, a), then
    f(x)/x and f(-x)/x apart, so that each keeps its own declared tail."""
    fr = f.reflect()
    s = min(1.0, a)
    value = adaptive_quad(lambda x: (f.evaluate(x) - fr.evaluate(x)) / x, 0.0, s, budget)
    if a > s:
        for g, sign in ((f, 1.0), (fr, -1.0)):
            value += sign * regular_integral(lambda x, g=g: g.evaluate(x) / x, s, a,
                                             budget=budget, tail=g.tail,
                                             tail_extra_power=1.0)
    return value


def pv_transform(variant: str, f: AnalyticFunction, nu: float, omega: float,
                 a: float, budget: QuadratureBudget | None = None) -> complex:
    """Brute-force PV value of one transform variant (ground truth at desk scale).

    The symmetric kernels are pv_quadratic's; every other variant is made of
    two integrals at the pole |omega|:

        pv(g)  = PV int_0^a g(x) x^-nu / (|omega| - x) dx,
        reg(g) = int_0^a g(x) x^-nu / (|omega| + x) dx.

    stieltjes is reg(f) and one_sided is pv(f), both for omega > 0.  A
    full-line kernel with weight w on x < 0 (neg_weight) splits at the
    origin; with fr(x) = f(-x) it is

        w reg(fr) + pv(f)      for omega > 0,
        -reg(f) - w pv(fr)     for omega < 0.

    full_line alone is defined at omega = 0, where it is the pole-free
    -int_0^a (f(x) - fr(x)) / x dx.

    A non-finite value, which comes from a pole of f on the range (for the
    full-line kernels, on [-a, 0)), is refused.
    """
    budget = budget or QuadratureBudget()
    half_line = variant in ("stieltjes", "one_sided", "sym_omega", "sym_x")
    if half_line and not omega > 0.0:
        raise DomainError(f"{variant} needs omega > 0")
    if not half_line:
        w = neg_weight(variant, nu)
        if variant in ("full_line", "full_line_sgn") and nu != 0.0:
            raise DomainError(f"{variant} is the nu = 0 kernel")
        if variant not in ("full_line", "full_line_sgn") and not 0.0 < nu < 1.0:
            raise DomainError(f"{variant} needs 0 < nu < 1")
        if omega == 0.0 and variant != "full_line":
            raise DomainError(f"{variant} is singular at omega = 0")
    pole = abs(omega)

    def weighted(g: AnalyticFunction):
        return (lambda x: g.evaluate(x) * x ** (-nu)) if nu > 0 else g.evaluate

    def pv(g: AnalyticFunction) -> complex:
        return pv_linear(weighted(g), pole, 0.0, a, budget=budget, tail=g.tail,
                         endpoint_nu=nu, tail_extra_power=1.0 + nu)

    def reg(g: AnalyticFunction) -> complex:
        h = weighted(g)
        return regular_integral(lambda x: h(x) / (pole + x), 0.0, a, endpoint_nu=nu,
                                budget=budget, tail=g.tail, tail_extra_power=1.0 + nu)

    if variant in ("sym_omega", "sym_x"):
        weight = "omega_over" if variant == "sym_omega" else "x_over"
        value = pv_quadratic(f.evaluate, omega, a, weight, nu, budget=budget, tail=f.tail)
    elif variant == "stieltjes":
        value = reg(f)
    elif variant == "one_sided":
        value = pv(f)
    elif omega == 0.0:
        value = -_odd_over_x(f, a, budget)
    elif omega > 0.0:
        value = w * reg(f.reflect()) + pv(f)
    else:
        value = -reg(f) - w * pv(f.reflect())
    if not cmath.isfinite(value):
        raise DomainError(f"{variant} is not finite: f has a pole on the range")
    return value
