import math

import numpy as np
import pytest

from fpint import funcmodel as fm
from fpint.errors import (AllZeroError, ConsistencyError, DomainError, NoConvergence,
                          UnknownBuiltin)

ALL_BUILTINS = [
    ("const", {}),
    ("exp_decay", dict(a=1.0)),
    ("exp_osc", dict(a=2.0)),
    ("gaussian", dict(a=1.0)),
    ("power_gaussian", dict(m=2, a=1.0)),
    ("sin", dict(a=1.0)),
    ("j0_squared", dict(a=2.0)),
    ("sqrt_inv_quad", dict(a=1.5)),
    ("inv_cubic", dict(c=1.2)),
    ("inv_power_shift", dict(s=1.0, mu=1.5)),
    ("inv_linear", dict(c=1.0)),
    ("exp_decay_shift", dict(a=1.0, c=1.0)),
    ("fermi", dict(a=1.0)),
    ("airy", dict(a=1.0)),
    ("airy_neg", dict(a=1.0)),
    ("airy_prod", dict(a=1.0)),
    ("rational_quartic", dict(beta=0.5, omega_j=1.0)),
]


@pytest.mark.parametrize("name,kw", ALL_BUILTINS)
def test_evaluate_matches_maclaurin(name, kw):
    # 40-term partial sum reproduces evaluate on [0, min(rho0, 4)/2]
    f = fm.builtin(name, **kw)
    r = min(f.rho0, 4.0) / 2.0
    xs = np.linspace(0.05 * r, r, 9)
    coeffs = f.coefficients(60)
    for x in xs:
        partial = complex(np.polyval(coeffs[::-1], x))
        got = complex(f.evaluate(float(x)))
        assert abs(got - partial) <= 1e-8 * max(abs(got), abs(partial), 1e-12), \
            f"{name} mismatch at x={x}"


@pytest.mark.parametrize("name,kw", ALL_BUILTINS)
def test_parity_flag(name, kw):
    f = fm.builtin(name, **kw)
    if f.parity == "none":
        return
    sign = 1.0 if f.parity == "even" else -1.0
    r = min(f.rho0, 4.0) / 2.0
    for x in np.linspace(0.01 * r, r, 20):
        lhs = complex(f.evaluate(-float(x)))
        rhs = sign * complex(f.evaluate(float(x)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-12)


def test_builtin_zero_orders():
    assert fm.builtin("exp_decay", a=1.0).zero_order == 0
    assert fm.builtin("sin", a=1.0).zero_order == 1
    assert fm.builtin("power_gaussian", m=3, a=1.0).zero_order == 3


def test_quartic_rho0_branches():
    # rho0 = omega_j for -1 <= beta < 1; omega_j sqrt(-beta - sqrt(beta^2-1)) below
    assert fm.quartic_rho0(0.5, 1.0) == 1.0
    assert fm.quartic_rho0(-1.0, 2.0) == 2.0
    want = math.sqrt(1.5 - math.sqrt(1.25))
    assert abs(fm.quartic_rho0(-1.5, 1.0) - want) < 1e-15


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin):
        fm.builtin("nope")


@pytest.mark.parametrize("name,params", [
    ("sin", dict(a=math.nan)), ("exp_osc", dict(a=math.nan)),
    ("exp_osc", dict(a=math.inf)), ("exp_decay", dict(a=math.inf)),
    ("const", dict(c=math.nan)), ("rational_quartic", dict(beta=-math.inf, omega_j=1.0)),
])
def test_nonfinite_params(name, params):
    with pytest.raises(DomainError):
        fm.builtin(name, **params)


def test_bad_params():
    with pytest.raises(DomainError):
        fm.builtin("exp_decay", a=-1.0)
    with pytest.raises(DomainError):
        fm.builtin("rational_quartic", beta=1.5, omega_j=1.0)
    with pytest.raises(DomainError):
        fm.builtin("exp_decay", a=1.0, bogus=2.0)


@pytest.mark.parametrize("name,params", [
    ("airy", dict(a=1e300)), ("rational_quartic", dict(beta=0.5, omega_j=1e-300))])
def test_params_past_float_range_refused(name, params):
    with pytest.raises(DomainError, match="float range"):
        fm.builtin(name, **params)


def test_maclaurin_past_float_range_keeps_its_cache():
    f = fm.builtin("sin", a=1e300)
    with pytest.raises(NoConvergence, match="coefficient 3"):
        f.maclaurin(6)
    assert f.coefficients(3).tolist() == [0.0, 1e300, 0.0]
    with pytest.raises(NoConvergence, match="coefficient 3"):
        f.maclaurin(3)


@pytest.mark.parametrize("name,k", [("exp_decay", 3), ("gaussian", 5), ("airy", 1)])
def test_hook_past_float_range_refuses(name, k):
    # exp_decay and gaussian overflow; Airy's a^3 underflows into a log
    f = fm.builtin(name, a=1e-300 if name == "airy" else 1e300)
    with pytest.raises(NoConvergence, match="float range"):
        f.fp_hook(k, 0.0, math.inf)


class TestFactorZero:
    def test_real_and_complex_output_kept(self):
        _, g = fm.factor_zero(fm.builtin("sin", a=1.0))
        _, h = fm.factor_zero(fm.linear_combination(1j, fm.builtin("sin", a=1.0),
                                                    0.0, fm.builtin("sin", a=2.0)))
        x = np.array([0.0, 1e-6, 0.7])
        assert g.evaluate(x).dtype == float and h.evaluate(x).dtype == complex
        assert np.array_equal(h.evaluate(x), 1j * g.evaluate(x))

    def test_quadratic_exp(self):
        f = fm.builtin("power_gaussian", m=2, a=1.0)
        m, g = fm.factor_zero(f)
        assert m == 2
        assert abs(complex(g.evaluate(0.7)) - math.exp(-0.49)) < 1e-12
        assert abs(complex(g.evaluate(0.0)) - 1.0) < 1e-12

    def test_no_zero(self):
        f = fm.builtin("exp_decay", a=1.0)
        m, g = fm.factor_zero(f)
        assert m == 0 and g is f

    def test_sin(self):
        f = fm.builtin("sin", a=1.0)
        m, g = fm.factor_zero(f)
        assert m == 1
        assert abs(complex(g.evaluate(0.0)) - 1.0) < 1e-12

    def test_stream_shift_exact(self):
        f = fm.builtin("power_gaussian", m=2, a=1.0)
        m, g = fm.factor_zero(f)
        for n in range(20):
            assert g.maclaurin(n) == f.maclaurin(n + m)

    def test_all_zero(self):
        zero = fm.AnalyticFunction("zero", lambda x: np.zeros_like(x),
                                   lambda n: 0.0, math.inf)
        with pytest.raises(AllZeroError):
            fm.factor_zero(zero)


class TestFromCoefficients:
    def test_constant(self):
        f = fm.from_coefficients([1.0], lambda x: 1.0, rho0=math.inf,
                                 tail_decay=fm.TailDecay())
        assert complex(f.evaluate(0.3)) == 1.0
        assert f.maclaurin(0) == 1.0 and f.maclaurin(5) == 0.0

    def test_matches_builtin_exp_osc(self):
        a = 1.3
        f = fm.from_coefficients(
            lambda n: (1j * a) ** n / math.factorial(n),
            lambda x: np.exp(1j * a * x), rho0=math.inf)
        ref = fm.builtin("exp_osc", a=a)
        for x in [0.2, 0.9]:
            assert abs(complex(f.evaluate(x)) - complex(ref.evaluate(x))) < 1e-12

    def test_geometric_stream(self):
        # truncated stream of 1/(1+x), rho0 = 1
        f = fm.from_coefficients(lambda n: (-1.0) ** n, lambda x: 1.0 / (1.0 + x),
                                 rho0=1.0)
        assert abs(complex(f.evaluate(0.25)) - 0.8) < 1e-12

    def test_consistency_error(self):
        with pytest.raises(ConsistencyError):
            fm.from_coefficients([1.0, 1.0], lambda x: 1.0 / (1.0 + x), rho0=1.0)


def test_reflect_exp_osc_uses_negated_parameter():
    f = fm.builtin("exp_osc", a=2.0)
    fr = f.reflect()
    assert fr.params["a"] == -2.0
    assert abs(complex(fr.evaluate(0.5)) - complex(f.evaluate(-0.5))) < 1e-14


def test_non_real_point_refused():
    with pytest.raises(DomainError):
        fm.builtin("exp_decay", a=1.0).evaluate(0.5 + 0.1j)


def test_reflect_even_is_identity():
    f = fm.builtin("gaussian", a=1.0)
    assert f.reflect() is f


def test_linear_combination():
    f = fm.builtin("exp_decay", a=1.0)
    h = fm.builtin("gaussian", a=1.0)
    combo = fm.linear_combination(2.0, f, -0.5, h)
    x = 0.8
    want = 2.0 * math.exp(-x) - 0.5 * math.exp(-x * x)
    assert abs(complex(combo.evaluate(x)) - want) < 1e-13
    assert combo.maclaurin(0) == 2.0 - 0.5


def test_tail_over_power():
    alg = fm.TailDecay(fm.TAIL_ALG, power=1.0)
    assert alg.over_power(2.5) == fm.TailDecay(fm.TAIL_ALG, power=3.5)
    osc = fm.builtin("j0_squared", a=2.0).tail
    assert osc.over_power(1.0) == fm.TailDecay(fm.TAIL_OSC_ALG, power=2.0,
                                               phase_coeff=4.0, phase_power=1.0)
    for t in (fm.TailDecay(fm.TAIL_EXP), fm.TailDecay()):
        assert t.over_power(3.0) is t
    # x^m g = f: g's tail is f's over x^m
    f = fm.builtin("sin", a=1.0)
    assert fm.factor_zero(f)[1].tail == f.tail.over_power(1.0)
    with pytest.raises(TypeError):
        fm.TailDecay(fm.TAIL_EXP, rate=1.0)


def test_tail_admissibility():
    assert fm.builtin("exp_decay", a=1.0).tail.admits_inverse_power(1.0)
    assert not fm.builtin("const").tail.admits_inverse_power(1.0)
    assert fm.builtin("const").tail.admits_inverse_power(1.5)
    assert not fm.builtin("inv_linear", c=1.0).tail.admits_inverse_power(0.0)
