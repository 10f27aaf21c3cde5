"""Hilbert-transform evaluation by finite-part series plus singular terms.

Every variant is computed as

    value = convergent_prefix + finite_part_sum + singular_contribution

for f = x^m g (a zero of order m at the origin), from one table entry per
variant: a list of series arms and one singular term.  An arm
(c, z, p, step, j) sums, over k = 0, 1, ...,

    c * z^(p + step k) * ffp_0^a h(x) x^-(j + step k + nu) dx

with h = g (h = f for the Stieltjes kernel, z = -omega there).  Its terms
with k < 0 and p + step k >= 0 have a kernel index j + step k <= 0: they are
ordinary integrals, and together they are the convergent prefix.  The
singular term is the closed form the kernel singularity contributes.  Every
variant's is one form with data (alpha, beta, log):

    (alpha g(omega) + beta g(-omega)) * omega^m * |omega|^-nu  [* ln|omega|]

The Stieltjes and one-sided kernels have one arm of step 1.  The symmetric
kernels, and the full-line kernels when g is even, share the two-arm parity
form (c_even, c_odd): step 2 over odd (j = 1) and even (j = 2) kernel
indices.  The full-line kernels for g of no parity have one arm of step 1
whose h combines g(x) and g(-x), the latter times the kernel's weight on
x < 0 (pvoracle.neg_weight, the one place that weight is written).

The small-omega leading term is the lowest power of omega (a log wins a tie)
among the singular term, which for g of zero order n starts at
omega^(m + n - nu) with (alpha + beta (-1)^n) g_n (or at n + 1 when that
vanishes), and each arm's first term: omega^(p mod step) times its first
prefix integral when p >= step, else its k = 0 finite part.

A grid (evaluate_grid) does once what does not depend on omega: factor_zero,
the arms at unit omega (z = +-1, a row uses z * omega), each finite part (split
hint: the grid's max |omega|), each prefix integral, and g(+-omega) as arrays.
Per omega stay the spec checks, the margin, the series sum and its stop rules,
the cancellation check and the notes.  evaluate_transform is the one-point grid.
The sum (precision.sum_series) stops after three small terms; where
min(a, rho0) is finite, its terms fall like (|omega| / min(a, rho0))^k, and it
also stops once its Wynn-epsilon estimate settles, or is refused when six
term ratios reach precision.RATIO_LIMIT.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceDomain, DomainError, FpintError, ProvisoViolated
from .finitepart import FpValue, resolve_fp, snap_nu
from .funcmodel import AnalyticFunction, factor_zero, scaled
from .precision import PrecisionConfig, default_precision, sum_series
from .pvoracle import VARIANTS, check_domain, neg_weight, regular_integral

FP_MODES = ("auto", "generic")

OMEGA_MARGIN = 0.99
PROVISO_FLOOR = 1e-13


@dataclass(frozen=True)
class TransformSpec:
    """Which kernel variant, with nu, omega and the upper limit a."""

    variant: str
    omega: float
    nu: float = 0.0
    a: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", snap_nu(self.nu))
        check_domain(self.variant, self.nu, self.omega, self.a)


@dataclass
class EvalReport:
    value: complex
    finite_part_sum: complex
    singular_contribution: complex
    convergent_prefix: complex
    terms_used: int
    tail_estimate: float
    route_notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class _Arm:
    """Series arm sum_k c z^(p + step k) ffp_0^a h_k(x) x^-(j + step k + nu) dx.

    h_k = g, or (-1)^k w g(-x) - g(x) when gneg (x -> g(-x)) is set, with w
    the kernel's weight on x < 0.
    """

    c: complex
    z: float
    p: int
    g: AnalyticFunction
    step: int = 1
    j: int = 1
    gneg: AnalyticFunction | None = None
    w: complex = 1.0


def _prefix_integral(arm: _Arm, k: int, nu: float, a: float) -> complex:
    """int_0^a h_k(x) x^-(j + step k + nu) dx for a term k < 0 of index <= 0."""
    g, power = arm.g, -(arm.j + arm.step * k) - nu

    def integrand(x: np.ndarray):
        if arm.gneg is None:
            return x ** power * g.evaluate(x)
        return x ** power * ((-1.0) ** k * arm.w * g.evaluate(-x) - g.evaluate(x))

    return regular_integral(integrand, 0.0, a, endpoint_nu=max(0.0, -power),
                            tail=g.tail.over_power(-power))


def _prefix_terms(arm: _Arm, omega: float, integral: Callable[[_Arm, int], complex]):
    """Yield the arm's terms of non-positive kernel index (ordinary integrals)."""
    for k in range(-(arm.p // arm.step), 0):
        yield arm.c * (arm.z * omega) ** (arm.p + arm.step * k) * integral(arm, k)


class _Engine:
    """Series machinery shared by the rows of one grid: each arm's finite parts
    and prefix integrals are resolved once, as none depends on omega."""

    def __init__(self, nu: float, a: float, precision: PrecisionConfig | None = None,
                 use_hook: bool = True, scale_hint: float | None = None,
                 bounded_domain: bool = True):
        self.nu, self.a, self.use_hook, self.scale_hint = nu, a, use_hook, scale_hint
        self.precision = precision or default_precision()
        # entire f on the whole half/full line has no convergence boundary:
        # the omega series is entire, and transient term growth is normal
        self.bounded_domain = bounded_domain
        self._fp_cache: dict[int, list[tuple[complex, float]]] = {}
        self._prefix_cache: dict[tuple[int, int], complex] = {}

    def arm_fp(self, arm: _Arm, k: int) -> tuple[complex, float]:
        """ffp_0^a h_k(x) x^-(j + step k + nu) dx and the largest cancellation
        factor of the finite parts it is made of."""
        cached = self._fp_cache.setdefault(id(arm), [])
        if k == len(cached):                   # terms come in order of k
            n = arm.j + arm.step * k
            if arm.gneg is None:
                pos = self._resolve(arm.g, n)
                cached.append((pos.value, max(1.0, pos.cancellation)))
            else:
                neg, pos = self._resolve(arm.gneg, n), self._resolve(arm.g, n)
                cached.append(((-1.0) ** k * arm.w * neg.value - pos.value,
                               max(1.0, neg.cancellation, pos.cancellation)))
        return cached[k]

    def _resolve(self, fn: AnalyticFunction, n: int) -> FpValue:
        return resolve_fp(fn, n, self.nu, self.a, self.precision,
                          use_hook=self.use_hook, scale_hint=self.scale_hint)

    def integral(self, arm: _Arm, k: int) -> complex:
        key = (id(arm), k)
        if key not in self._prefix_cache:
            self._prefix_cache[key] = _prefix_integral(arm, k, self.nu, self.a)
        return self._prefix_cache[key]

    def arm_series(self, arm: _Arm, omega: float,
                   notes: list[str]) -> tuple[complex, int, float]:
        """Sum the arm's series at omega; per-term noise feeds the cancellation check."""
        noise, cached, z = 0.0, self._fp_cache.setdefault(id(arm), []), arm.z * omega

        def term(k: int) -> complex:
            nonlocal noise
            h, cancel = cached[k] if k < len(cached) else self.arm_fp(arm, k)
            try:
                t = complex(arm.c * z ** (arm.p + arm.step * k) * h)
            except OverflowError:
                raise ConvergenceDomain(f"omega^{arm.p + arm.step * k} overflows binary64 at "
                                        f"omega = {omega:g} (series term k = {k})") from None
            noise += abs(t) * cancel * 1e-16
            return t

        total, used, tail, peak_term = sum_series(
            term, self.precision.rel_tol, self.precision.max_terms,
            wynn=self.bounded_domain)
        _check_cancellation(peak_term, noise, abs(total), notes)
        return total, used, tail


def _check_cancellation(peak_term: float, noise: float, total_mag: float,
                        notes: list[str]) -> None:
    """Refuse results whose binary64 noise floor swamps the sum.

    Two mechanisms: the omega-series transient can dwarf the converged sum
    (entire functions at large omega), and generic-route finite parts carry
    an internal cancellation factor that the omega powers amplify.
    """
    scale = max(total_mag, 1e-300)
    amp = peak_term / scale
    noise_rel = noise / scale
    if amp > 1e13 or noise_rel > 1e-3:
        raise ConvergenceDomain(
            f"series cancellation (transient/result ~{amp:.1e}, estimated "
            f"noise/result ~{noise_rel:.1e}): omega too large for reliable "
            "binary64 summation of this function")
    if amp > 1e8 or noise_rel > 1e-8:
        lost = max(amp, noise_rel / 1e-16)
        notes.append(f"series cancellation ~{lost:.0e}; about {int(math.log10(lost))} digits lost")


def _reflected_g(f: AnalyticFunction, m: int, g: AnalyticFunction) -> AnalyticFunction:
    """Function x -> g(-x), reusing closed-form providers where possible."""
    if g.parity == "even":
        return g
    if g.parity == "odd":
        return scaled(g, -1.0)
    fr = f.reflect()
    if m == 0:
        return fr
    _, gr = factor_zero(fr)
    return scaled(gr, (-1.0) ** m)


def _arms(v: str, f: AnalyticFunction, g: AnalyticFunction, m: int,
          nu: float, force_generic_parity: bool, notes: list[str]) -> list[_Arm]:
    """The series arms of variant v at unit omega (z = +-1; see the module
    docstring); a row at omega uses z * omega."""
    if v == "stieltjes":
        return [_Arm(1.0, -1.0, 0, f)]
    if v == "one_sided":
        return [_Arm(-1.0, 1.0, m, g)]
    if v in ("sym_omega", "sym_x"):
        # sym_omega keeps the odd powers of omega, sym_x the even ones; the
        # j = 1 arm carries omega^(m + 2k), the j = 2 arm omega^(m + 1 + 2k)
        c_even, c_odd = (-1.0, 0.0) if m % 2 == int(v == "sym_omega") else (0.0, -1.0)
    elif g.parity == "even" and not force_generic_parity:
        # g even makes the generic h_k ((-1)^k w - 1) g: c_even = w - 1, c_odd = -1 - w
        # (half-angle forms for the branch kernel, where w - 1 cancels as nu -> 0)
        notes.append("even-parity reduction")
        if v == "full_line_branch":
            half = cmath.exp(-0.5j * math.pi * nu)
            c_even = -2j * math.sin(0.5 * math.pi * nu) * half
            c_odd = -2.0 * math.cos(0.5 * math.pi * nu) * half
        else:
            w = neg_weight(v, nu)
            c_even, c_odd = w - 1.0, -1.0 - w
    else:
        # sum_k omega^(m+k) ffp [(-1)^k w g(-x) - g(x)] x^-(k+1+nu)
        return [_Arm(1.0, 1.0, m, g, gneg=_reflected_g(f, m, g), w=neg_weight(v, nu))]
    return [_Arm(c, 1.0, m + j - 1, g, 2, j)
            for c, j in ((c_even, 1), (c_odd, 2)) if c != 0.0]


def _singular(v: str, g: AnalyticFunction, m: int, omega: float, nu: float,
              notes: list[str]) -> tuple[complex, complex, bool]:
    """Singular term (alpha, beta, log) of variant v (see the module docstring)."""
    log = nu == 0.0
    if v == "stieltjes":                       # g = f, m = 0 here
        return 0.0, -1.0 if log else math.pi / math.sin(math.pi * nu), log
    if v == "one_sided":
        return 1.0 if log else -math.pi / math.tan(math.pi * nu), 0.0, log
    if v in ("sym_omega", "sym_x"):
        odd = v == "sym_omega"
        sgn = -(-1.0) ** m if odd else (-1.0) ** m
        if log:
            # the log term cancels when f = x^m g is even (sym_omega) or odd (sym_x)
            if {"even": m % 2 == 0, "odd": m % 2 == 1}.get(g.parity) == odd:
                return 0.0, 0.0, False
            return 0.5, 0.5 * sgn, True
        return (-0.5 * math.pi / math.tan(math.pi * nu),
                -0.5 * math.pi * sgn / math.sin(math.pi * nu), False)
    if v == "full_line":
        return 0.0, 0.0, False
    if v == "full_line_sgn":
        return 2.0, 0.0, True
    if v == "full_line_branch":
        if omega > 0:
            return -1j * math.pi, 0.0, False
        notes.append("omega < 0: power continued above the branch cut")
        return -1j * math.pi * neg_weight(v, nu), 0.0, False
    # abs kernels: pi (w - cos pi nu) / sin pi nu, in half-angle form to avoid cancellation
    if v == "full_line_abs":
        return math.pi * math.tan(0.5 * math.pi * nu) * math.copysign(1.0, omega), 0.0, False
    return -math.pi / math.tan(0.5 * math.pi * nu), 0.0, False


def evaluate_grid(variant: str, f: AnalyticFunction, omegas, nu: float = 0.0,
                  a: float = math.inf, precision: PrecisionConfig | None = None,
                  fp_mode: str = "auto",
                  force_generic_parity: bool = False) -> list[EvalReport]:
    """Evaluate one transform variant at each omega from its arms and singular term.

    Rows come back in input order.  The first omega that fails (invalid, past
    the margin or refused by its series) raises its error; nothing is returned.
    fp_mode="generic" bypasses the closed-form finite-part hooks;
    force_generic_parity skips the even-g reduction of the full-line kernels.
    """
    if fp_mode not in FP_MODES:
        raise DomainError(f"unknown fp_mode {fp_mode!r}; one of {FP_MODES}")
    specs, refusal, reports = [], None, []
    for omega in omegas:
        try:
            spec = TransformSpec(variant, omega, nu, a)
            lim = min(spec.a, f.rho0)
            if math.isfinite(lim) and abs(spec.omega) > OMEGA_MARGIN * lim:
                raise ConvergenceDomain(
                    f"|omega| = {abs(spec.omega):g} exceeds {OMEGA_MARGIN:g} * min(a, rho0) "
                    f"= {OMEGA_MARGIN * lim:g}; the series cannot converge reliably there")
        except FpintError as exc:
            refusal = exc                      # raised after the rows before it
            break
        specs.append(spec)
    if specs:
        v, nu, ws = variant, specs[0].nu, [spec.omega for spec in specs]
        m, g = (0, f) if v == "stieltjes" else factor_zero(f)
        notes = [[f"zero of order m={m} at the origin"] if m else [] for _ in ws]
        sing = [_singular(v, g, m, omega, nu, n) for omega, n in zip(ws, notes)]
        gpos = g.evaluate(np.array(ws)).tolist() if any(r[0] for r in sing) else None
        gneg = g.evaluate(-np.array(ws)).tolist() if any(r[1] for r in sing) else None
        arm_notes: list[str] = []
        arms = _arms(v, f, g, m, nu, force_generic_parity, arm_notes)
        eng = _Engine(nu, a, precision, fp_mode != "generic",
                      max(map(abs, ws)), math.isfinite(min(a, f.rho0)))
        for i, omega in enumerate(ws):
            (alpha, beta, log), singular = sing[i], 0.0 + 0.0j
            if alpha or beta:
                gsum = (alpha * gpos[i] if alpha else 0.0) + (beta * gneg[i] if beta else 0.0)
                singular = complex(gsum * omega ** m * abs(omega) ** -nu
                                   * (math.log(abs(omega)) if log else 1.0))
            notes[i] += arm_notes
            series, used, tail = 0.0 + 0.0j, 0, 0.0
            for arm in arms:
                s, u, t = eng.arm_series(arm, omega, notes[i])
                series, used, tail = series + s, used + u, tail + t
            prefix = sum((t for arm in arms for t in _prefix_terms(arm, omega, eng.integral)),
                         0.0 + 0.0j)
            reports.append(EvalReport(prefix + series + singular, series, singular, prefix,
                                      used, float(tail), notes[i]))
    if refusal is not None:
        raise refusal
    return reports


def evaluate_transform(spec: TransformSpec, f: AnalyticFunction,
                       precision: PrecisionConfig | None = None, fp_mode: str = "auto",
                       force_generic_parity: bool = False) -> EvalReport:
    """Evaluate one transform variant at one omega: the one-point grid."""
    return evaluate_grid(spec.variant, f, [spec.omega], spec.nu, spec.a, precision,
                         fp_mode, force_generic_parity)[0]


# -- named operations --------------------------------------------------------

def stieltjes(f, nu, omega, a=math.inf, **kw) -> EvalReport:
    return evaluate_transform(TransformSpec("stieltjes", omega, nu, a), f, **kw)


def one_sided(f, nu, omega, a=math.inf, **kw) -> EvalReport:
    return evaluate_transform(TransformSpec("one_sided", omega, nu, a), f, **kw)


def full_line(f, omega, a=math.inf, **kw) -> EvalReport:
    return evaluate_transform(TransformSpec("full_line", omega, 0.0, a), f, **kw)


def full_line_sgn(f, omega, a=math.inf, **kw) -> EvalReport:
    return evaluate_transform(TransformSpec("full_line_sgn", omega, 0.0, a), f, **kw)


def full_line_branch(f, nu, omega, a=math.inf, **kw) -> EvalReport:
    return evaluate_transform(TransformSpec("full_line_branch", omega, nu, a), f, **kw)


def full_line_abs(f, nu, omega, a=math.inf, **kw) -> EvalReport:
    return evaluate_transform(TransformSpec("full_line_abs", omega, nu, a), f, **kw)


def full_line_abs_sgn(f, nu, omega, a=math.inf, **kw) -> EvalReport:
    return evaluate_transform(TransformSpec("full_line_abs_sgn", omega, nu, a), f, **kw)


def sym_omega(f, nu, omega, a=math.inf, **kw) -> EvalReport:
    return evaluate_transform(TransformSpec("sym_omega", omega, nu, a), f, **kw)


def sym_x(f, nu, omega, a=math.inf, **kw) -> EvalReport:
    return evaluate_transform(TransformSpec("sym_x", omega, nu, a), f, **kw)


# -- small-omega leading behavior --------------------------------------------

LEAD_LOG = "log"
LEAD_POWER_LOG = "power_log"
LEAD_CONSTANT = "constant_integral"
LEAD_POWER = "power"


@dataclass(frozen=True)
class LeadingTerm:
    kind: str
    coefficient: complex
    exponent: float

    def evaluate(self, omega: float) -> complex:
        if self.kind == LEAD_LOG:
            return self.coefficient * math.log(abs(omega))
        if self.kind == LEAD_POWER_LOG:
            return self.coefficient * omega ** self.exponent * math.log(abs(omega))
        if self.kind == LEAD_CONSTANT:
            return self.coefficient
        return self.coefficient * abs(omega) ** self.exponent \
            if self.exponent != round(self.exponent) else \
            self.coefficient * omega ** self.exponent


def small_omega_asymptotic(spec: TransformSpec, f: AnalyticFunction) -> LeadingTerm:
    """Dominant omega -> 0 term of the transform, read off its arms and
    singular term (see the module docstring); omega enters only by its sign."""
    v, omega, nu, a = spec.variant, spec.omega, spec.nu, spec.a
    m, g = (0, f) if v == "stieltjes" else factor_zero(f)
    candidates = []                            # (exponent, log, coefficient)
    alpha, beta, log = _singular(v, g, m, omega, nu, [])
    if alpha or beta:
        n = g.zero_order
        if alpha + beta * (-1.0) ** n == 0.0:
            n += 1
        coef = (alpha + beta * (-1.0) ** n) * g.maclaurin(n)
        if nu:                                 # evaluate() takes |omega|^exponent
            coef *= math.copysign(1.0, omega) ** (m + n)
        candidates.append((m + n - nu, log, coef))
    # at unit omega z = +-1, so each term is its coefficient of omega^e
    eng = _Engine(nu, a)
    for arm in _arms(v, f, g, m, nu, False, []):
        first = (next(_prefix_terms(arm, 1.0, eng.integral)) if arm.p >= arm.step
                 else complex(arm.c * arm.z ** arm.p * eng.arm_fp(arm, 0)[0]))
        candidates.append((float(arm.p % arm.step), False, first))
    expo, log, coef = min(candidates, key=lambda c: (c[0], not c[1]))
    if abs(coef) < PROVISO_FLOOR:
        raise ProvisoViolated(
            f"leading coefficient {coef} below {PROVISO_FLOOR}; "
            "the leading-term law's non-vanishing proviso fails")
    if log:
        kind = LEAD_POWER_LOG if expo else LEAD_LOG
    else:       # the even-reduced full-line routes call their omega^0 term a power law
        kind = LEAD_POWER if expo or (g.parity == "even" and v in {
            "full_line", "full_line_sgn", "full_line_abs", "full_line_abs_sgn"}) else LEAD_CONSTANT
    return LeadingTerm(kind, complex(coef), expo)
