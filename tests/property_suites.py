"""Seeded randomized property suites shared by the unit and acceptance tests.

Each suite returns (cases_run, failures); failures carry a short description.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from fpint import finitepart as fp
from fpint import funcmodel as fm
from fpint import hilbert as hb
from fpint.errors import FpintError
from fpint.pvoracle import regular_integral

REAL_VARIANTS = ("one_sided", "full_line", "full_line_sgn", "full_line_abs",
                 "full_line_abs_sgn", "sym_omega", "sym_x")


def _spec_for(variant: str, rng) -> tuple[float, float]:
    if variant in ("full_line", "full_line_sgn"):
        nu = 0.0
    elif variant.startswith("full_line_"):
        nu = float(rng.uniform(0.15, 0.85))
    else:
        nu = float(rng.choice([0.0, rng.uniform(0.15, 0.85)]))
    omega = float(rng.uniform(0.1, 0.9))
    return nu, omega


def _random_even(rng) -> fm.AnalyticFunction:
    pick = rng.randint(3)
    if pick == 0:
        return fm.builtin("gaussian", a=float(rng.uniform(0.5, 2.0)))
    if pick == 1:
        return fm.builtin("sqrt_inv_quad", a=float(rng.uniform(1.2, 2.5)))
    return fm.builtin("rational_quartic", beta=float(rng.uniform(-0.8, 0.8)),
                      omega_j=float(rng.uniform(1.2, 2.0)))


def suite_linearity(seed: int, n_cases: int = 40):
    rng = np.random.RandomState(seed)
    failures = []
    f = None
    for i in range(n_cases):
        f = fm.builtin("exp_decay", a=float(rng.uniform(0.5, 2.0)))
        h = fm.builtin("gaussian", a=float(rng.uniform(0.5, 2.0)))
        al = float(rng.uniform(-2.0, 2.0))
        be = float(rng.uniform(-2.0, 2.0))
        variant = ["one_sided", "sym_omega", "sym_x", "stieltjes"][i % 4]
        nu, omega = _spec_for(variant, rng)
        spec = hb.TransformSpec(variant, omega, nu, math.inf)
        combo = fm.linear_combination(al, f, be, h)
        lhs = hb.evaluate_transform(spec, combo).value
        rhs = (al * hb.evaluate_transform(spec, f).value
               + be * hb.evaluate_transform(spec, h).value)
        scale = max(abs(lhs), abs(rhs), 1e-10)
        if abs(lhs - rhs) > 1e-9 * scale:
            failures.append(f"linearity {variant} case {i}: {abs(lhs-rhs)/scale:.2e}")
    return n_cases, failures


def suite_parity_reduction(seed: int, n_cases: int = 40):
    rng = np.random.RandomState(seed)
    failures = []
    variants = ("full_line", "full_line_sgn", "full_line_branch",
                "full_line_abs", "full_line_abs_sgn")
    for i in range(n_cases):
        f = _random_even(rng)
        variant = variants[i % len(variants)]
        nu, _ = _spec_for(variant, rng)
        omega = float(rng.uniform(0.1, 0.6)) * min(f.rho0, 1.0)
        spec = hb.TransformSpec(variant, omega, nu, math.inf)
        fast = hb.evaluate_transform(spec, f).value
        slow = hb.evaluate_transform(spec, f, force_generic_parity=True).value
        scale = max(abs(fast), abs(slow), 1e-10)
        if abs(fast - slow) > 1e-9 * scale:
            failures.append(f"parity {variant} case {i}: {abs(fast-slow)/scale:.2e}")
    return n_cases, failures


def suite_convergent_degeneration(seed: int, n_cases: int = 40):
    rng = np.random.RandomState(seed)
    failures = []
    for i in range(n_cases):
        m = int(rng.randint(1, 5))
        a_param = float(rng.uniform(0.5, 1.5))
        upper = float(rng.uniform(0.8, 2.5))
        k = int(rng.randint(1, m + 1))      # integrand x^(m-k) g: convergent
        f = fm.builtin("power_gaussian", m=m, a=a_param)
        got = fp.fp_series_finite(f, fp.FpKernel(k, 0.0, upper)).value
        want = regular_integral(
            lambda x: x ** float(m - k) * np.exp(-a_param * x * x), 0.0, upper)
        scale = max(abs(want), 1e-12)
        if abs(got - want) > 1e-8 * scale:
            failures.append(f"degeneration m={m} k={k}: {abs(got-want)/scale:.2e}")
    return n_cases, failures


def suite_real_in_real_out(seed: int, n_cases: int = 48):
    rng = np.random.RandomState(seed)
    failures = []
    pool = [lambda: fm.builtin("gaussian", a=float(rng.uniform(0.5, 2.0))),
            lambda: fm.builtin("exp_decay", a=float(rng.uniform(0.5, 2.0))),
            lambda: fm.builtin("sqrt_inv_quad", a=float(rng.uniform(1.2, 2.5))),
            lambda: fm.builtin("power_gaussian", m=int(rng.randint(1, 4)),
                               a=float(rng.uniform(0.5, 1.5)))]
    for i in range(n_cases):
        variant = REAL_VARIANTS[i % len(REAL_VARIANTS)]
        f = pool[i % len(pool)]()
        if variant in ("full_line", "full_line_sgn", "full_line_abs",
                       "full_line_abs_sgn") and f.parity == "none":
            f = fm.builtin("gaussian", a=1.0)
        nu, _ = _spec_for(variant, rng)
        if variant in ("full_line_abs", "full_line_abs_sgn") and nu == 0.0:
            nu = 0.4
        omega = float(rng.uniform(0.1, 0.6)) * min(f.rho0, 1.0)
        spec = hb.TransformSpec(variant, omega, nu, math.inf)
        rep = hb.evaluate_transform(spec, f)
        if abs(rep.value.imag) > 1e-12 * max(abs(rep.value), 1e-12):
            failures.append(f"real-out {variant} case {i}: imag={rep.value.imag:.2e}")
    return n_cases, failures


def suite_report_identity(seed: int, n_cases: int = 40):
    rng = np.random.RandomState(seed)
    failures = []
    for i in range(n_cases):
        variant = REAL_VARIANTS[i % len(REAL_VARIANTS)]
        f = fm.builtin("power_gaussian", m=int(rng.randint(0, 3)),
                       a=float(rng.uniform(0.5, 1.5)))
        if f.parity == "odd" and variant.startswith("full_line_ab"):
            f = fm.builtin("gaussian", a=1.0)
        nu, _ = _spec_for(variant, rng)
        if variant in ("full_line_abs", "full_line_abs_sgn") and nu == 0.0:
            nu = 0.3
        omega = float(rng.uniform(0.1, 0.8))
        spec = hb.TransformSpec(variant, omega, nu, math.inf)
        rep = hb.evaluate_transform(spec, f)
        total = rep.convergent_prefix + rep.finite_part_sum + rep.singular_contribution
        if rep.value != total:
            failures.append(f"report identity {variant} case {i}")
    return n_cases, failures


# builtins and the parameters drawn at the edges of the float range
EXTREME_FAMILIES = {"exp_decay": ("a",), "gaussian": ("a",), "sin": ("a",),
                    "exp_osc": ("a",), "airy": ("a",), "airy_neg": ("a",),
                    "airy_prod": ("a",), "j0_squared": ("a",), "fermi": ("a",),
                    "sqrt_inv_quad": ("a",), "inv_cubic": ("c",),
                    "exp_decay_shift": ("a", "c"), "rational_quartic": ("omega_j",)}

# (builtin, parameters, k, nu): each once leaked OverflowError or
# ZeroDivisionError from a closed form, a coefficient or the builtin itself
EXTREME_PROBES = [("exp_decay", {"a": 1e300}, 3, 0.0), ("gaussian", {"a": 1e300}, 5, 0.0),
                  ("sin", {"a": 1e300}, 1, 0.0), ("airy", {"a": 1e300}, 1, 0.0),
                  ("airy", {"a": 1e-300}, 1, 0.0),
                  ("rational_quartic", {"beta": 0.5, "omega_j": 1e-300}, 2, 0.0)]


def suite_extreme_parameters(seed: int, n_cases: int = 40):
    """Builtins at extreme parameters: builtin(), resolve_fp and a one-sided
    or sym_x transform at omega = 0.5 each give a finite value or raise an
    FpintError."""
    rng = np.random.RandomState(seed)
    cases = list(EXTREME_PROBES)
    names = sorted(EXTREME_FAMILIES)
    while len(cases) < n_cases:
        name = names[rng.randint(len(names))]
        params = {p: float(10.0 ** (rng.choice([-1, 1]) * rng.uniform(100.0, 308.0)))
                  for p in EXTREME_FAMILIES[name]}
        if name == "rational_quartic":
            params["beta"] = float(rng.uniform(-0.9, 0.9))
        nu = float(rng.choice([0.0, rng.uniform(0.15, 0.85)]))
        cases.append((name, params, int(rng.randint(1, 8)), nu))
    failures = []
    for i, (name, params, k, nu) in enumerate(cases):
        spec = hb.TransformSpec(("one_sided", "sym_x")[i % 2], 0.5, nu, math.inf)
        try:
            f = fm.builtin(name, **params)
            values = [fp.resolve_fp(f, k, nu, math.inf).value,
                      hb.evaluate_transform(spec, f).value]
        except FpintError:
            continue
        except Exception as exc:
            failures.append(f"extreme {name} {params} k={k}: {type(exc).__name__}: {exc}")
            continue
        if not all(cmath.isfinite(v) for v in values):
            failures.append(f"extreme {name} {params} k={k}: {values}")
    return len(cases), failures


ALL_SUITES = (suite_linearity, suite_parity_reduction,
              suite_convergent_degeneration, suite_real_in_real_out,
              suite_report_identity, suite_extreme_parameters)


def run_all(seed: int = 1234):
    total = 0
    failures: list[str] = []
    for suite in ALL_SUITES:
        n, fails = suite(seed)
        total += n
        failures.extend(fails)
    return total, failures
