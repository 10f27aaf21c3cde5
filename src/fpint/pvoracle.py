"""Principal-value and regular quadrature used to validate the theorem routes.

The base integrator is a vectorized adaptive Gauss-Legendre rule (21/43-point
pairs, bisection on the worst interval).  Endpoint x^-nu singularities are
removed by the substitution x = u^(1/(1-nu)).  An infinite tail is handled
by the integrand's own declared decay: a fast tail is cut where probes of the
integrand fall below the target, an algebraic one is summed over geometric
panels, and an oscillatory one over half-period panels between phase
crossings, with Wynn-epsilon and a power-ladder fit (precision's wynn_limit
and normed_design) accelerating the partial sums (e^{iax}/Airy tails).  The
fit's exponents are the lattice the phase implies: integer steps for a
linear phase, half steps for the Airy phase x^{3/2}.  The panels between two
estimator checks are evaluated in one integrand call.
Principal values use singularity subtraction in the symmetric window around
the pole.  The transform oracle builds every variant from one PV and one
Stieltjes integral at |omega|: the symmetric kernels are a PV with the weight
W/(omega + x), and a full-line kernel splits at the origin into two half-line
integrals, entering only by its weight on x < 0 (neg_weight).  check_domain
is the one statement of each kernel's domain.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure, TailBoundUnmet, TailNotIntegrable
from .funcmodel import TAIL_ALG, TAIL_EXP, AnalyticFunction, TailDecay
from .precision import normed_design, wynn_limit

_GL_LO = np.polynomial.legendre.leggauss(21)
_GL_HI = np.polynomial.legendre.leggauss(43)
_MAX_SUBDIVISIONS = 4000  # adaptive_quad bisections
_TAIL_SAFETY = 0.1        # tails truncated when bound < abs_tol * _TAIL_SAFETY
_MAX_SEGMENTS = 600       # oscillatory tail half-periods
_MAX_PROBES = 50          # fast-tail cut probes, over spans growing by 1.6


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

    The interval bisected next is the one with the largest error, the newest
    of equal ones: a heap keyed on (-err, tick), tick falling at each push.
    """
    if a == b:
        return 0.0
    val, err = _panel(f, a, b)
    heap = [(-err, 0, a, b, val)]
    tick = 0
    total = val
    total_err = err
    for _ in range(_MAX_SUBDIVISIONS):
        if not math.isfinite(total_err):
            return total if cmath.isinf(total) else math.nan
        tol = max(budget.abs_tol, budget.rel_tol * abs(total))
        if total_err <= tol:
            return total
        neg_err0, _, x0, x1, v0 = heapq.heappop(heap)
        err0 = -neg_err0
        mid = 0.5 * (x0 + x1)
        if mid == x0 or mid == x1:
            # interval at floating-point resolution; accept its estimate
            tick -= 1
            heapq.heappush(heap, (-0.0, tick, x0, x1, v0))
            total_err -= err0
            continue
        vl, el = _panel(f, x0, mid)
        vr, er = _panel(f, mid, x1)
        total += vl + vr - v0
        total_err += el + er - err0
        heapq.heappush(heap, (-el, tick - 1, x0, mid, vl))
        heapq.heappush(heap, (-er, tick - 2, mid, x1, vr))
        tick -= 2
    tol = max(budget.abs_tol, budget.rel_tol * abs(total))
    if total_err > 100.0 * tol:
        raise QuadratureFailure(
            f"adaptive quadrature stalled: err={total_err:g} > tol={tol:g} on [{a:g},{b:g}]")
    return total


_ENDPOINT_FLOOR = 1e-200
_ENDPOINT_NU_MAX = 0.999


def quad_power_endpoint(f, a: float, b: float, nu: float,
                        budget: QuadratureBudget) -> complex:
    """Integral over [a, b] where f ~ (x-a)^(-nu), 0 <= nu <= 0.999, at the endpoint.

    Substitution x = a + u^p, p = 1/(1-nu), regularizes the endpoint.  The
    new integrand p f(x) (x-a)^nu is held at its value at x - a =
    _ENDPOINT_FLOOR below it: there it equals its value at x = a to the last
    bit for any f whose scale exceeds 1e-184, while x - a may underflow and
    f(x) p overflow.  For nu near 1 that is most of the u range.  Past
    _ENDPOINT_NU_MAX, f's own scale is squeezed into the last 1/p of the u
    range, where the panels' nodes step over it (at nu = 0.99995 the result
    was off by 74% with no error raised): refused with QuadratureFailure.
    """
    if nu <= 0.0:
        return adaptive_quad(f, a, b, budget)
    if nu > _ENDPOINT_NU_MAX:
        raise QuadratureFailure(f"endpoint singularity (x - a)^-{nu:g} is past "
                                f"(x - a)^-{_ENDPOINT_NU_MAX:g}: not resolved")
    p = 1.0 / (1.0 - nu)
    u_min = _ENDPOINT_FLOOR ** (1.0 - nu)

    def g(u: np.ndarray):
        u = np.maximum(u, u_min)
        x = a + u ** p
        return f(x) * p * u ** (p - 1.0)

    return adaptive_quad(g, 0.0, (b - a) ** (1.0 - nu), budget)


# ---------------------------------------------------------------------------
# Infinite tails
# ---------------------------------------------------------------------------

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


def _power_ladder_fit(xs: np.ndarray, sums: np.ndarray, gamma: float,
                      step: float) -> complex:
    """Fit partial sums to S + sum_{i<6} c_i x^-(gamma + step i) and return S.

    The exponents are the lattice of the remainder's asymptotic series.  At
    the full-period ends of a phase c x^q the remainder expands in x^-1 (the
    series of the envelope and of the kernel) and in x^-q (one per
    integration by parts).  For q = 1 that is the integer lattice, step 1;
    for the Airy phase q = 3/2 the steps 1 and 3/2 make the half-integer one,
    step 0.5 (_ladder_step).  Columns off the lattice spend the fit's six
    terms on powers that are not there: with half steps on a linear phase
    the J0^2 tails converge only algebraically."""
    design, norms = normed_design(xs, [gamma + step * i for i in range(6)])
    coef, *_ = np.linalg.lstsq(design, sums, rcond=None)
    return complex((coef / norms)[0])


def _ladder_step(phase_power: float) -> float:
    """Step of the power-ladder fit for the phase c x^q: 1 for an integer q
    (the linear phase of e^{iax}, J0^2 and sin), else 0.5 (the Airy phase
    x^{3/2}).  See _power_ladder_fit."""
    return 1.0 if float(phase_power).is_integer() else 0.5


def _tail_vote(sums: list[complex], rights: list[float], gamma: float, step: float,
               prev: tuple[complex, complex] | None):
    """One estimator check on the partial sums over the half-period segments
    ending at rights: Wynn epsilon on the last 17 sums against a power-ladder
    fit (exponents gamma + step i) of the paired sums over their last half
    and three quarters, each scored by its self-consistency since prev, the
    state the check before returned (None at the first).  Wynn is kept only
    inside twice the last segment of the last sum: a limit farther out than
    that is a breakdown of the epsilon table, however consistent.  Returns
    (estimate, error, state)."""
    # full-period pairing removes the alternating component
    paired = 0.5 * (np.asarray(sums[:-1:2], dtype=complex)
                    + np.asarray(sums[1::2], dtype=complex))
    xs = np.asarray(rights[1::2], dtype=float)[:len(paired)]
    n = len(paired)
    fit = _power_ladder_fit(xs[n // 2:], paired[n // 2:], gamma, step)
    fit_b = _power_ladder_fit(xs[n // 4:], paired[n // 4:], gamma, step)
    wynn = wynn_limit(sums[-17:])
    wynn_prev, fit_prev = prev or (None, None)
    err_fit = abs(fit - fit_b) + (abs(fit - fit_prev) if fit_prev is not None
                                  else math.inf)
    err_wynn = (abs(wynn - wynn_prev) if wynn_prev is not None else math.inf)
    bracketed = abs(wynn - sums[-1]) <= 2.0 * abs(sums[-1] - sums[-2])
    est, err = (wynn, err_wynn) if bracketed and err_wynn < err_fit else (fit, err_fit)
    return est, err, (wynn, fit)


def _oscillatory_tail(f, start: float, tail: TailDecay,
                      budget: QuadratureBudget, envelope_power: float) -> complex:
    """Tail with phase c x^q: half-period segments, two independent limits.

    Wynn epsilon handles the purely oscillatory (alternating) component;
    integrands with a non-oscillatory algebraic mean (J0^2-type) defeat it,
    so full-period pairing plus a known-exponent power-ladder fit of the
    partial sums provides the second estimator.  The fit's exponents step by
    1 for a linear phase and by 0.5 for the Airy phase (_ladder_step); on
    that lattice the J0^2 tails meet the tolerance within about ten checks.
    Agreement of the two, or self-consistency of the fit across windows, is
    the stopping test; the vote at each check is _tail_vote.

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
    step = _ladder_step(q)
    sums: list[complex] = []
    rights: list[float] = []
    partial = 0.0 + 0.0j
    left = start
    best = None
    best_err = math.inf
    vote = None
    for i in range(16, _MAX_SEGMENTS, 8):
        window = [((phi0 + (k + 1) * math.pi) / c) ** (1.0 / q)
                  for k in range(len(rights), i + 1)]
        for piece in _fixed_panels(f, [left] + window):
            partial += piece
            sums.append(partial)
        rights += window
        left = window[-1]
        est, err, vote = _tail_vote(sums, rights, gamma, step, vote)
        if err < best_err:
            best, best_err = est, err
        if err < max(budget.abs_tol, budget.rel_tol * abs(est)):
            return est
    if best is None or best_err > 1e6 * max(budget.abs_tol, budget.rel_tol * abs(best)):
        raise TailBoundUnmet(
            f"oscillatory tail not converged after {len(sums)} segments "
            f"(best error {best_err:g})")
    return best


def tail_integral(f, start: float, tail: TailDecay, budget: QuadratureBudget) -> complex:
    """int_start^inf f(x) dx, with `tail` the declaration of f itself: a
    kernel's x^-p enters as tail.over_power(p).

    A tail that admits no integral (TailDecay.admits_inverse_power) is
    refused with TailNotIntegrable.  A fast (TAIL_EXP) tail is cut where
    |f(x)| x first falls below the target, probed at start + 1 and then over
    spans growing by 1.6; an algebraic one is summed over geometric panels;
    an oscillatory one over half periods (_oscillatory_tail).  A tail still
    above the target after the last probe or panel raises TailBoundUnmet.
    """
    if not tail.admits_inverse_power(0.0):
        raise TailNotIntegrable(
            f"declared tail ({tail.kind}, power {tail.power}) is not integrable")
    target = budget.abs_tol * _TAIL_SAFETY
    if tail.kind == TAIL_EXP:
        cut, span = start + 1.0, 1.0
        for _ in range(_MAX_PROBES):
            if abs(complex(np.asarray(f(np.array([cut])))[0])) * max(cut, 1.0) < target:
                return adaptive_quad(f, start, cut, budget)
            span *= 1.6
            cut += span
        raise TailBoundUnmet(f"fast tail still above {target:g} after "
                             f"{_MAX_PROBES} probes up to x = {cut - span:g}")
    if tail.kind == TAIL_ALG:
        p = tail.power
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
    return _oscillatory_tail(f, start, tail, budget, tail.power or 0.0)


def regular_integral(f, lo: float, hi: float,
                     endpoint_nu: float = 0.0,
                     budget: QuadratureBudget | None = None,
                     tail: TailDecay | None = None) -> complex:
    """int_lo^hi f(x) dx, with an integrable (x - lo)^-endpoint_nu blow-up of
    f at lo.  hi = inf needs `tail`, the declaration of f itself (see
    tail_integral)."""
    budget = budget or QuadratureBudget()
    if hi == math.inf:
        if tail is None:
            raise TailNotIntegrable("infinite upper limit requires a tail declaration")
        split = max(2.0 * abs(lo), lo + 1.0, 1.0)
        head = quad_power_endpoint(f, lo, split, endpoint_nu, budget)
        return head + tail_integral(f, split, tail, budget)
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
              endpoint_nu: float = 0.0) -> complex:
    """PV int_lo^hi h(x)/(omega-x) dx, pole at omega in (lo, hi).

    h must be analytic at omega.  `tail` declares h itself when hi = inf (the
    kernel's x^-1 is added here); `endpoint_nu` declares an integrable x^-nu
    blow-up of h at lo (lo finite).
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
        out += tail_integral(kern, split, tail.over_power(1.0), budget)
    else:
        out += adaptive_quad(kern, omega + d, hi, budget)
    return out


# ---------------------------------------------------------------------------
# Transform-shaped oracle
# ---------------------------------------------------------------------------

VARIANTS = ("stieltjes", "one_sided", "full_line", "full_line_sgn",
            "full_line_branch", "full_line_abs", "full_line_abs_sgn",
            "sym_omega", "sym_x")


def check_domain(variant: str, nu: float, omega: float, a: float) -> None:
    """Raise DomainError unless (variant, nu, omega, a) lies in the kernel's
    domain: the one statement of it, which TransformSpec and pv_transform call."""
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; one of {VARIANTS}")
    if not (math.isfinite(omega) and 0.0 <= nu < 1.0 and a > 0.0):
        raise DomainError(f"need a finite omega, 0 <= nu < 1 and a > 0; got "
                          f"omega = {omega}, nu = {nu}, a = {a}")
    if variant in ("full_line", "full_line_sgn") and nu != 0.0:
        raise DomainError(f"{variant} is the nu = 0 kernel; use the branch/abs "
                          "variants for nu > 0")
    if variant in ("full_line_branch", "full_line_abs", "full_line_abs_sgn") and nu == 0.0:
        raise DomainError(f"{variant} requires 0 < nu < 1 (nu = 0 is the plain/sgn "
                          "full-line kernel)")
    if variant in ("stieltjes", "one_sided", "sym_omega", "sym_x") and not omega > 0.0:
        raise DomainError(f"{variant} requires omega > 0")
    if omega == 0.0 and variant != "full_line":
        raise DomainError(f"{variant} is singular at omega = 0")


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
                                             budget=budget, tail=g.tail.over_power(1.0))
    return value


def pv_transform(variant: str, f: AnalyticFunction, nu: float, omega: float,
                 a: float, budget: QuadratureBudget | None = None) -> complex:
    """Brute-force PV value of one transform variant (ground truth at desk scale).

    Every variant is made of one PV and one Stieltjes integral at |omega|,

        pv(h)  = PV int_0^a h(x) / (|omega| - x) dx,
        reg(h) = int_0^a h(x) / (|omega| + x) dx,

    with h = g(x) x^-nu.  stieltjes is reg(f) and one_sided pv(f).  The
    symmetric kernels W/(omega^2 - x^2), W = omega (sym_omega) or x (sym_x),
    are pv(f) with the weight W/(omega + x).  A full-line kernel with weight
    w on x < 0 (neg_weight) splits at the origin; with fr(x) = f(-x) it is

        w reg(fr) + pv(f)      for omega > 0,
        -reg(f) - w pv(fr)     for omega < 0.

    full_line alone is defined at omega = 0, where it is the pole-free
    -int_0^a (f(x) - fr(x)) / x dx.

    An input outside the kernel's domain (check_domain) is refused, and so
    is a non-finite value, which comes from a pole of f on the range (for
    the full-line kernels, on [-a, 0)).  At a = inf a declared tail of f
    (both, for the full-line kernels) that does not admit the kernel's decay
    is refused before any quadrature.
    """
    check_domain(variant, nu, omega, a)
    budget = budget or QuadratureBudget()
    pole = abs(omega)
    # the kernel falls like x^-(1+nu), one power faster under omega/(omega+x)
    decay = (2.0 if variant == "sym_omega" else 1.0) + nu
    tails = (f.tail, f.tail_neg) if variant.startswith("full_line") else (f.tail,)
    if a == math.inf and not all(t.admits_inverse_power(decay) for t in tails):
        raise TailNotIntegrable(f"{variant}: the declared tails of {f.name} do not "
                                f"admit x^-{decay:g} at infinity")

    def weighted(g: AnalyticFunction):
        return (lambda x: g.evaluate(x) * x ** (-nu)) if nu > 0 else g.evaluate

    def pv(g: AnalyticFunction) -> complex:
        return pv_linear(weighted(g), pole, 0.0, a, budget=budget,
                         tail=g.tail.over_power(nu), endpoint_nu=nu)

    def reg(g: AnalyticFunction) -> complex:
        h = weighted(g)
        return regular_integral(lambda x: h(x) / (pole + x), 0.0, a, endpoint_nu=nu,
                                budget=budget, tail=g.tail.over_power(decay))

    if variant in ("sym_omega", "sym_x"):
        over_omega = variant == "sym_omega"

        def sym(x: np.ndarray):
            return (omega if over_omega else x) * f.evaluate(x) * x ** (-nu) / (omega + x)

        # sym_x: x^(1-nu) is bounded at the origin
        value = pv_linear(sym, omega, 0.0, a, budget=budget,
                          tail=f.tail.over_power((1.0 if over_omega else 0.0) + nu),
                          endpoint_nu=nu if over_omega else 0.0)
    elif variant == "stieltjes":
        value = reg(f)
    elif variant == "one_sided":
        value = pv(f)
    elif omega == 0.0:
        value = -_odd_over_x(f, a, budget)
    elif omega > 0.0:
        value = neg_weight(variant, nu) * reg(f.reflect()) + pv(f)
    else:
        value = -reg(f) - neg_weight(variant, nu) * pv(f.reflect())
    if not cmath.isfinite(value):
        raise DomainError(f"{variant} is not finite: f has a pole on the range")
    return value
