"""Uniform representation of the input function f.

An AnalyticFunction bundles everything the transform evaluators consume:
a point evaluator, the Maclaurin coefficient stream c_n, the distance rho0
to the nearest complex singularity, the order m of the zero at the origin,
a parity flag, a declared tail-decay descriptor for x -> +inf (and one for
the reflected direction), and an optional closed-form finite-part provider.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import dtable
from .errors import (AllZeroError, ConsistencyError, DomainError, NoConvergence,
                     UnknownBuiltin, require)

# Tail-decay kinds
TAIL_EXP = "exponential"        # falls faster than any power
TAIL_ALG = "algebraic"
TAIL_OSC_ALG = "oscillatory_algebraic"
TAIL_NONE = "none"

ZERO_COEFF_REL = 1e-14          # |c_n| below this times the running max counts as zero
MAX_ZERO_PROBE = 200


@dataclass(frozen=True)
class TailDecay:
    """Declared behavior of f(x) as x -> +inf.

    kind        -- one of the TAIL_* constants; TAIL_EXP is any f that falls
                   faster than every power (the quadrature probes f for its cut)
    power       -- |f| ~ x^{-power} for the algebraic / oscillatory kinds
    phase_coeff, phase_power -- oscillation phase phi(x) = phase_coeff * x^phase_power
    """

    kind: str = TAIL_NONE
    power: float | None = None
    phase_coeff: float | None = None
    phase_power: float = 1.0

    def over_power(self, p: float) -> "TailDecay":
        """The declaration of f(x) x^-p."""
        if self.kind in (TAIL_ALG, TAIL_OSC_ALG):
            return replace(self, power=(self.power or 0.0) + p)
        return self

    def admits_inverse_power(self, p: float) -> bool:
        """Is f(x) x^-p integrable on [T, inf)?  The one statement of the rule."""
        if self.kind == TAIL_EXP:
            return True
        if self.kind == TAIL_ALG:
            return (self.power or 0.0) + p > 1.0
        if self.kind == TAIL_OSC_ALG:
            # oscillation buys conditional convergence down to the boundary
            return (self.power or 0.0) + p > 0.5
        return False


class AnalyticFunction:
    """Function known through a point evaluator plus its Maclaurin stream."""

    def __init__(self, name: str,
                 eval_fn: Callable[[np.ndarray], np.ndarray],
                 coeff_fn: Callable[[int], complex],
                 rho0: float,
                 parity: str = "none",
                 tail: TailDecay | None = None,
                 tail_neg: TailDecay | None = None,
                 zero_order: int | None = None,
                 fp_hook: Callable[[int, float, float], complex | None] | None = None,
                 params: dict | None = None):
        if rho0 <= 0.0:
            raise DomainError("rho0 must be positive (or inf)")
        if parity not in ("even", "odd", "none"):
            raise DomainError(f"parity must be even/odd/none, got {parity!r}")
        self.name = name
        self._eval = eval_fn
        self._coeff_fn = coeff_fn
        self.rho0 = float(rho0)
        self.parity = parity
        self.tail = tail or TailDecay()
        self.tail_neg = tail_neg if tail_neg is not None else (
            self.tail if parity in ("even", "odd") else TailDecay())
        self._zero_order = zero_order
        self.fp_hook = fp_hook
        self.params = dict(params or {})
        self._cache: list[complex] = []
        self._lock = threading.Lock()

    # -- coefficients -------------------------------------------------------

    def maclaurin(self, n: int) -> complex:
        """The n-th Maclaurin coefficient; NoConvergence past the float range
        (the cache then holds the coefficients below it)."""
        cache = self._cache
        if n < len(cache):
            return cache[n]
        with self._lock:
            while len(self._cache) <= n:
                j = len(self._cache)
                try:
                    c = complex(self._coeff_fn(j))
                except (OverflowError, ZeroDivisionError) as exc:
                    raise NoConvergence(f"{self.name}: Maclaurin coefficient {j} is "
                                        "outside the float range") from exc
                self._cache.append(c)
        return self._cache[n]

    def coefficients(self, count: int) -> np.ndarray:
        self.maclaurin(count - 1)
        return np.asarray(self._cache[:count], dtype=complex)

    @property
    def zero_order(self) -> int:
        if self._zero_order is None:
            self._zero_order = self._detect_zero_order()
        return self._zero_order

    def _detect_zero_order(self) -> int:
        running_max = 0.0
        for n in range(MAX_ZERO_PROBE):
            c = abs(self.maclaurin(n))
            running_max = max(running_max, c)
            if c > 0.0 and c > ZERO_COEFF_REL * running_max:
                return n
        raise AllZeroError(
            f"{self.name}: first {MAX_ZERO_PROBE} coefficients are all negligible")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x):
        """Evaluate f at a real scalar or a float array."""
        if isinstance(x, np.ndarray):
            return self._eval(x)
        xc = complex(x)
        if xc.imag != 0.0:
            raise DomainError(f"{self.name}: evaluation needs a real point, got {x!r}")
        out = self._eval(np.array([xc.real], dtype=float))
        val = out[0]
        return complex(val) if np.iscomplexobj(out) else float(val)

    # -- derived functions ---------------------------------------------------

    def reflect(self) -> "AnalyticFunction":
        """The function x -> f(-x)."""
        if self.parity == "even":
            return self
        factory = _REFLECT_FACTORIES.get(getattr(self, "base_name", self.name))
        if factory is not None:
            return factory(self.params)
        parent = self

        def ev(x: np.ndarray) -> np.ndarray:
            return parent._eval(-x)

        return AnalyticFunction(
            f"reflect({self.name})", ev,
            lambda n: parent.maclaurin(n) * ((-1.0) ** n),
            parent.rho0, parity=parent.parity,
            tail=parent.tail_neg, tail_neg=parent.tail,
            zero_order=parent._zero_order,
        )


def from_coefficients(coeffs: Sequence[complex] | Callable[[int], complex],
                      evaluator: Callable,
                      rho0: float,
                      tail_decay: TailDecay | None = None,
                      parity: str = "none",
                      name: str = "user",
                      zero_order: int | None = None) -> AnalyticFunction:
    """Wrap a user coefficient stream + evaluator as an AnalyticFunction.

    The stream is probed against the evaluator on |x| <= rho0/2 (relative
    1e-8); disagreement raises ConsistencyError.  rho0 must be supplied by
    the caller -- there is no reliable way to infer it from samples.
    """
    if callable(coeffs):
        coeff_fn = coeffs
    else:
        seq = [complex(c) for c in coeffs]

        def coeff_fn(n: int) -> complex:
            return seq[n] if n < len(seq) else 0.0 + 0.0j

    def ev(x: np.ndarray) -> np.ndarray:
        out = np.asarray([evaluator(float(v)) for v in np.atleast_1d(x)])
        return out

    f = AnalyticFunction(name, ev, coeff_fn, rho0, parity=parity,
                         tail=tail_decay, zero_order=zero_order)
    _consistency_probe(f)
    return f


def _consistency_probe(f: AnalyticFunction, n_terms: int = 40,
                       rel_tol: float = 1e-8) -> None:
    r = min(f.rho0 / 2.0, 1.0)
    coeffs = f.coefficients(n_terms)
    scale = max(float(np.max(np.abs(coeffs))), 1e-300)
    for x in np.linspace(0.1 * r, r, 5):
        partial = complex(np.polyval(coeffs[::-1], x))
        got = f.evaluate(float(x))
        ref = max(abs(partial), abs(complex(got)), scale * 1e-8)
        if abs(complex(got) - partial) > rel_tol * ref:
            raise ConsistencyError(
                f"{f.name}: evaluator and coefficient stream disagree at x={x:g} "
                f"({got} vs series {partial})")


def factor_zero(f: AnalyticFunction):
    """Split f = x^m g with g(0) != 0; returns (m, g)."""
    m = f.zero_order          # raises AllZeroError when everything vanishes
    if m == 0:
        return 0, f
    parent = f
    real = not np.iscomplexobj(parent._eval(np.array([0.5])))

    def ev(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        small = np.abs(x) < 1e-4 * min(parent.rho0, 1.0)
        big = ~small
        if big.any():
            with np.errstate(over="ignore"):      # x^m = inf: f / x^m = 0
                out[big] = parent._eval(x[big]) / x[big] ** m
        if small.any():
            coeffs = parent.coefficients(m + 25)[m:]
            out[small] = np.polyval(coeffs[::-1], x[small])
        return out.real if real else out

    if f.parity == "even":
        g_parity = "even" if m % 2 == 0 else "odd"
    elif f.parity == "odd":
        g_parity = "odd" if m % 2 == 0 else "even"
    else:
        g_parity = "none"

    hook = None
    if parent.fp_hook is not None:
        # the shift carries kernels outside g's domain k + nu > 0 into f's
        def hook(k, nu, upper):
            return parent.fp_hook(k + m, nu, upper) if k + nu > 0.0 else None

    g = AnalyticFunction(
        f"{f.name}/x^{m}", ev,
        lambda n: parent.maclaurin(n + m),
        parent.rho0, parity=g_parity,
        tail=parent.tail.over_power(m), tail_neg=parent.tail_neg.over_power(m),
        zero_order=0, fp_hook=hook,
    )
    return m, g


def linear_combination(alpha: complex, f: AnalyticFunction,
                       beta: complex, h: AnalyticFunction) -> AnalyticFunction:
    """alpha*f + beta*h as an AnalyticFunction (property-test helper)."""
    def ev(x: np.ndarray) -> np.ndarray:
        return alpha * f._eval(x) + beta * h._eval(x)

    if f.parity == h.parity:
        parity = f.parity
    else:
        parity = "none"

    def combine(t1: TailDecay, t2: TailDecay) -> TailDecay:
        if t1.kind != t2.kind:
            return TailDecay()
        if t1.kind in (TAIL_ALG, TAIL_OSC_ALG):
            return replace(t1, power=min(t1.power or 0.0, t2.power or 0.0))
        return t1

    hook = None
    if f.fp_hook is not None and h.fp_hook is not None:
        def hook(k, nu, upper):
            a = f.fp_hook(k, nu, upper)
            b = h.fp_hook(k, nu, upper)
            if a is None or b is None:
                return None
            return alpha * a + beta * b

    return AnalyticFunction(
        f"({alpha}*{f.name}+{beta}*{h.name})", ev,
        lambda n: alpha * f.maclaurin(n) + beta * h.maclaurin(n),
        min(f.rho0, h.rho0), parity=parity,
        tail=combine(f.tail, h.tail), tail_neg=combine(f.tail_neg, h.tail_neg),
        fp_hook=hook,
    )


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

def _pow_over_factorial(b: float, n: int) -> float:
    """b^n / n! without intermediate overflow."""
    if n < 150:
        return b ** n / math.factorial(n)
    if b == 0.0:
        return 0.0
    mag = math.exp(n * math.log(abs(b)) - math.lgamma(n + 1.0))
    return -mag if (b < 0.0 and n % 2 == 1) else mag


def _airy_base_coeff(n: int, _cache: list = [0.3550280538878172392600631860041831764,
                                             -0.2588194037928067984051835601892039635,
                                             0.0]) -> float:
    # Ai''(z) = z Ai(z)  =>  c_{n+3} = c_n / ((n+3)(n+2))
    while len(_cache) <= n:
        j = len(_cache)
        _cache.append(_cache[j - 3] / (j * (j - 1.0)))
    return _cache[n]


def _quiet(eval_fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """eval_fn without numpy's warnings at a pole or past the float range."""
    def ev(x):
        with np.errstate(divide="ignore", over="ignore"):
            return eval_fn(x)
    return ev


def _make_const(c: float = 1.0):
    return dict(
        eval_fn=lambda x: np.full(np.shape(x), float(c)),
        coeff_fn=lambda n: c if n == 0 else 0.0,
        rho0=math.inf, parity="even",
        tail=TailDecay(TAIL_ALG, power=0.0),
    )


def _make_exp_decay(a: float):
    require(a > 0, "exp_decay needs a > 0")
    return dict(
        eval_fn=_quiet(lambda x: np.exp(-a * x)),
        coeff_fn=lambda n: ((-1.0) ** n) * _pow_over_factorial(a, n),
        rho0=math.inf, parity="none",
        tail=TailDecay(TAIL_EXP), tail_neg=TailDecay(),
    )


def _make_exp_osc(a: float):
    require(a != 0, "exp_osc needs a != 0")
    return dict(
        eval_fn=lambda x: np.exp(1j * a * x),
        coeff_fn=lambda n: (1j ** (n % 4)) * _pow_over_factorial(a, n),
        rho0=math.inf, parity="none",
        tail=TailDecay(TAIL_OSC_ALG, power=0.0, phase_coeff=abs(a), phase_power=1.0),
        tail_neg=TailDecay(TAIL_OSC_ALG, power=0.0, phase_coeff=abs(a), phase_power=1.0),
    )


def _make_gaussian(a: float):
    require(a > 0, "gaussian needs a > 0")
    return dict(
        eval_fn=_quiet(lambda x: np.exp(-a * x * x)),
        coeff_fn=lambda n: ((-1.0) ** (n // 2)) * _pow_over_factorial(a, n // 2)
        if n % 2 == 0 else 0.0,
        rho0=math.inf, parity="even", tail=TailDecay(TAIL_EXP),
    )


def _make_power_gaussian(m: int, a: float):
    require(a > 0 and m >= 0 and int(m) == m, "power_gaussian needs a > 0, integer m >= 0")
    m = int(m)

    def coeff(n: int):
        j = n - m
        if j < 0 or j % 2 != 0:
            return 0.0
        return ((-1.0) ** (j // 2)) * _pow_over_factorial(a, j // 2)

    def ev(x):
        e = np.exp(-a * x * x)
        return np.where(e > 0.0, x ** m, 0.0) * e     # not inf * 0 where x^m overflows

    return dict(
        eval_fn=_quiet(ev),
        coeff_fn=coeff, rho0=math.inf,
        parity="even" if m % 2 == 0 else "odd",
        tail=TailDecay(TAIL_EXP), zero_order=m,
    )


def _make_sin(a: float = 1.0):
    require(a != 0, "sin needs a != 0")
    return dict(
        eval_fn=lambda x: np.sin(a * x),
        coeff_fn=lambda n: ((-1.0) ** ((n - 1) // 2)) * _pow_over_factorial(a, n)
        if n % 2 == 1 else 0.0,
        rho0=math.inf, parity="odd",
        tail=TailDecay(TAIL_OSC_ALG, power=0.0, phase_coeff=abs(a), phase_power=1.0),
        zero_order=1,
    )


def _make_j0_squared(a: float):
    require(a > 0, "j0_squared needs a > 0")
    from .specfun import bessel_j0

    def coeff(n: int):
        if n % 2 != 0:
            return 0.0
        m = n // 2
        # (-1)^m C(2m, m) a^{2m} / (4^m (m!)^2)
        ln_mag = (math.lgamma(2 * m + 1) - 4.0 * math.lgamma(m + 1.0)
                  - m * math.log(4.0) + 2.0 * m * math.log(a)) if m else 0.0
        return ((-1.0) ** m) * math.exp(ln_mag)

    return dict(
        eval_fn=lambda x: bessel_j0(a * np.asarray(x, dtype=float)) ** 2,
        coeff_fn=coeff, rho0=math.inf, parity="even",
        tail=TailDecay(TAIL_OSC_ALG, power=1.0, phase_coeff=2.0 * a, phase_power=1.0),
    )


def _make_sqrt_inv_quad(a: float):
    require(a > 0, "sqrt_inv_quad needs a > 0")

    def coeff(n: int):
        if n % 2 != 0:
            return 0.0
        m = n // 2
        ln_mag = (math.lgamma(2 * m + 1) - 2.0 * math.lgamma(m + 1.0)
                  - m * math.log(4.0) - (2 * m + 1) * math.log(a))
        return ((-1.0) ** m) * math.exp(ln_mag)

    return dict(
        eval_fn=_quiet(lambda x: 1.0 / np.sqrt(x * x + a * a)),
        coeff_fn=coeff, rho0=a, parity="even",
        tail=TailDecay(TAIL_ALG, power=1.0),
    )


def _make_inv_cubic(c: float):
    require(c > 0, "inv_cubic needs c > 0")
    c3 = c ** 3                 # OverflowError here: builtin() refuses c
    return dict(
        eval_fn=_quiet(lambda x: 1.0 / (c3 + x ** 3)),
        coeff_fn=lambda n: ((-1.0) ** (n // 3)) * c ** (-3.0 - n) if n % 3 == 0 else 0.0,
        rho0=c, parity="none",
        tail=TailDecay(TAIL_ALG, power=3.0), tail_neg=TailDecay(),
    )


def _make_inv_power_shift(s: float, mu: float):
    require(s > 0 and mu > 0, "inv_power_shift needs s > 0, mu > 0")

    def coeff(n: int):
        ln_mag = (math.lgamma(mu + n) - math.lgamma(mu) - math.lgamma(n + 1.0)
                  - (mu + n) * math.log(s))
        return ((-1.0) ** n) * math.exp(ln_mag)

    return dict(
        eval_fn=lambda x: (s + x) ** (-mu),
        coeff_fn=coeff, rho0=s, parity="none",
        tail=TailDecay(TAIL_ALG, power=mu), tail_neg=TailDecay(),
    )


def _make_inv_linear(c: float):
    base = _make_inv_power_shift(c, 1.0)
    base["eval_fn"] = _quiet(lambda x: 1.0 / (c + x))
    return base


def _make_exp_decay_shift(a: float, c: float):
    require(a > 0 and c > 0, "exp_decay_shift needs a > 0, c > 0")
    partials: list[float] = [1.0]          # running sum of (ac)^j / j!

    def coeff(n: int):
        while len(partials) <= n:
            j = len(partials)
            partials.append(partials[-1] + _pow_over_factorial(a * c, j))
        return ((-1.0) ** n) * partials[n] / c ** (n + 1)

    return dict(
        eval_fn=_quiet(lambda x: np.exp(-a * x) / (x + c)),
        coeff_fn=coeff, rho0=c, parity="none",
        tail=TailDecay(TAIL_EXP), tail_neg=TailDecay(),
    )


def _make_fermi(a: float):
    require(a > 0, "fermi needs a > 0")
    from .specfun import zeta_real

    def coeff(n: int):
        if n == 0:
            return 0.5
        if n % 2 == 0:
            return 0.0
        m = (n + 1) // 2
        # c_{2m-1} = -(2^{2m}-1) B_{2m} a^{2m-1} / (2m)!, and
        # (2^{2m}-1) B_{2m} / (2m)! = (-1)^{m+1} 2 zeta(2m) (pi^-2m - (2pi)^-2m)
        pim = math.exp(-2.0 * m * math.log(math.pi))
        tpim = math.exp(-2.0 * m * math.log(2.0 * math.pi))
        return -((-1.0) ** (m + 1)) * 2.0 * zeta_real(2.0 * m) \
            * (pim - tpim) * a ** (2 * m - 1)

    def ev(x):
        x = np.asarray(x, dtype=float)
        # large positive ax underflows cleanly; avoid overflow on the negative side
        out = np.empty_like(x)
        pos = a * x > -30
        out[pos] = 1.0 / (np.exp(a * x[pos]) + 1.0)
        out[~pos] = 1.0
        return out

    return dict(
        eval_fn=ev, coeff_fn=coeff, rho0=math.pi / a, parity="none",
        tail=TailDecay(TAIL_EXP), tail_neg=TailDecay(),
    )


def _make_airy(a: float, negated: bool = False):
    require(a > 0, "airy needs a > 0")
    from .specfun import airy_ai
    sgn = -1.0 if negated else 1.0
    osc = TailDecay(TAIL_OSC_ALG, power=0.25,
                    phase_coeff=(2.0 / 3.0) * a ** 1.5, phase_power=1.5)
    return dict(
        eval_fn=lambda x: airy_ai(sgn * a * np.asarray(x, dtype=float)),
        coeff_fn=lambda n: _airy_base_coeff(n) * (sgn * a) ** n,
        rho0=math.inf, parity="none",
        tail=osc if negated else TailDecay(TAIL_EXP),
        tail_neg=TailDecay(TAIL_EXP) if negated else osc,
    )


def _make_airy_prod(a: float):
    require(a > 0, "airy_prod needs a > 0")
    from .specfun import airy_ai, airy_ai_prime

    def coeff(n: int):
        # Cauchy product of Ai and Ai' base streams, scaled by a^n
        acc = 0.0
        for j in range(n + 1):
            acc += _airy_base_coeff(j) * (n - j + 1) * _airy_base_coeff(n - j + 1)
        return acc * a ** n

    def ev(x):
        ax = a * np.asarray(x, dtype=float)
        return airy_ai(ax) * airy_ai_prime(ax)

    return dict(
        eval_fn=ev, coeff_fn=coeff, rho0=math.inf, parity="none",
        tail=TailDecay(TAIL_EXP),
        tail_neg=TailDecay(TAIL_OSC_ALG, power=0.0,
                           phase_coeff=(4.0 / 3.0) * a ** 1.5, phase_power=1.5),
    )


def quartic_rho0(beta: float, omega_j: float) -> float:
    """Distance from the origin to the nearest root of xi^4 - 2 b w^2 xi^2 + w^4."""
    if beta >= 1.0:
        raise DomainError("quartic profile needs beta < 1")
    if beta >= -1.0:
        return omega_j
    return omega_j * math.sqrt(-beta - math.sqrt(beta * beta - 1.0))


def _make_rational_quartic(beta: float, omega_j: float):
    require(beta < 1.0 and omega_j > 0, "rational_quartic needs beta < 1, omega_j > 0")
    w2 = omega_j * omega_j
    w4 = w2 * w2
    ps: list[float] = [1.0 / w4, 2.0 * beta / (w4 * w2)]

    def coeff(n: int):
        if n % 2 != 0:
            return 0.0
        m = n // 2
        while len(ps) <= m:
            ps.append((2.0 * beta * w2 * ps[-1] - ps[-2]) / w4)
        return ps[m]

    return dict(
        eval_fn=lambda x: 1.0 / (x ** 4 - 2.0 * beta * w2 * x ** 2 + w4),
        coeff_fn=coeff, rho0=quartic_rho0(beta, omega_j), parity="even",
        tail=TailDecay(TAIL_ALG, power=4.0),
    )


_BUILTINS: dict[str, tuple[Callable[..., dict], tuple[str, ...]]] = {
    "const": (_make_const, ("c",)),
    "exp_decay": (_make_exp_decay, ("a",)),
    "exp_osc": (_make_exp_osc, ("a",)),
    "gaussian": (_make_gaussian, ("a",)),
    "power_gaussian": (_make_power_gaussian, ("m", "a")),
    "sin": (_make_sin, ("a",)),
    "j0_squared": (_make_j0_squared, ("a",)),
    "sqrt_inv_quad": (_make_sqrt_inv_quad, ("a",)),
    "inv_cubic": (_make_inv_cubic, ("c",)),
    "inv_power_shift": (_make_inv_power_shift, ("s", "mu")),
    "inv_linear": (_make_inv_linear, ("c",)),
    "exp_decay_shift": (_make_exp_decay_shift, ("a", "c")),
    "fermi": (_make_fermi, ("a",)),
    "airy": (_make_airy, ("a",)),
    "airy_neg": (lambda a: _make_airy(a, negated=True), ("a",)),
    "airy_prod": (_make_airy_prod, ("a",)),
    "rational_quartic": (_make_rational_quartic, ("beta", "omega_j")),
}

_BUILTIN_DEFAULTS = {"const": {"c": 1.0}, "sin": {"a": 1.0}}

_REFLECT_FACTORIES: dict[str, Callable[[dict], AnalyticFunction]] = {
    "exp_osc": lambda p: builtin("exp_osc", a=-p["a"]),
    "airy": lambda p: builtin("airy_neg", a=p["a"]),
    "airy_neg": lambda p: builtin("airy", a=p["a"]),
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin(name: str, **params) -> AnalyticFunction:
    """Construct a registered builtin AnalyticFunction by name."""
    try:
        factory, arg_names = _BUILTINS[name]
    except KeyError:
        raise UnknownBuiltin(
            f"unknown builtin {name!r}; available: {', '.join(builtin_names())}") from None
    merged = dict(_BUILTIN_DEFAULTS.get(name, {}))
    merged.update(params)
    unknown = set(merged) - set(arg_names)
    if unknown:
        raise DomainError(f"{name}: unexpected parameters {sorted(unknown)}")
    missing = [a for a in arg_names if a not in merged]
    if missing:
        raise DomainError(f"{name}: missing parameters {missing}")
    nonfinite = [a for a in arg_names
                 if isinstance(merged[a], float) and not math.isfinite(merged[a])]
    if nonfinite:
        raise DomainError(f"{name}: parameters {nonfinite} must be finite")
    try:
        spec = factory(**{k: merged[k] for k in arg_names})
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"{name}: parameters {merged} leave the float range") from exc
    label = name if not merged else \
        name + ":" + ",".join(f"{k}={merged[k]:g}" for k in arg_names)
    out = AnalyticFunction(label, spec["eval_fn"], spec["coeff_fn"], spec["rho0"],
                           parity=spec.get("parity", "none"),
                           tail=spec.get("tail"), tail_neg=spec.get("tail_neg"),
                           zero_order=spec.get("zero_order"),
                           fp_hook=dtable.fp_hook(name, merged), params=merged)
    out.base_name = name
    return out
