import math
import warnings

import numpy as np
import pytest

from fpint import funcmodel as fm
from fpint import pvoracle as pv


def rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


B = pv.QuadratureBudget()


class TestRegular:
    def test_endpoint_half_power(self):
        got = pv.regular_integral(lambda x: x ** -0.5, 0.0, 1.0, endpoint_nu=0.5)
        assert rel(got, 2.0) < 1e-11

    @pytest.mark.parametrize("nu", [0.99, 0.999])
    def test_endpoint_power_near_one(self, nu):
        # most of the mass lies where x = u^(1/(1-nu)) underflows (below
        # u ~ 8e-4 at nu = 0.99): the integrand there was inf * 0 = nan
        got = pv.regular_integral(lambda x: x ** -nu, 0.0, 1.0, endpoint_nu=nu)
        assert rel(got, 1.0 / (1.0 - nu)) < 1e-11

    def test_endpoint_power_past_limit_refused(self):
        # past nu = 0.999 the panels' nodes step over f's own scale
        with pytest.raises(pv.QuadratureFailure):
            pv.regular_integral(lambda x: x ** -0.9999 * np.exp(-x), 0.0, 1.0,
                                endpoint_nu=0.9999)

    def test_exponential(self):
        f = fm.builtin("exp_decay", a=1.0)
        got = pv.regular_integral(lambda x: np.exp(-x), 0.0, math.inf, tail=f.tail)
        assert rel(got, 1.0) < 1e-10

    def test_slow_exponential_is_probed(self):
        # a fast tail is cut where probes of f fall below the target, however
        # far out that is: here x ~ 1.2e4, not a fixed distance from the split
        f = fm.builtin("exp_decay", a=0.003)
        got = pv.regular_integral(f.evaluate, 0.0, math.inf, tail=f.tail)
        assert rel(got, 1.0 / 0.003) < 1e-12

    def test_fast_tail_that_does_not_fall_refused(self):
        with pytest.raises(pv.TailBoundUnmet):
            pv.regular_integral(lambda x: np.ones_like(x), 0.0, math.inf,
                                tail=fm.TailDecay(fm.TAIL_EXP))

    def test_quartic_profile(self):
        # int_0^inf dxi/(xi^4 - 2 b xi^2 + 1) = pi/(2 sqrt(2(1-b)))
        f = fm.builtin("rational_quartic", beta=0.5, omega_j=1.0)
        got = pv.regular_integral(f.evaluate, 0.0, math.inf, tail=f.tail)
        assert rel(got, math.pi / (2.0 * math.sqrt(2.0 * 0.5))) < 1e-9


class TestPvLinear:
    def test_symmetric_constant(self):
        got = pv.pv_linear(lambda x: np.ones_like(x), 1.0, 0.0, 2.0)
        assert abs(got) < 1e-11

    def test_even_about_pole(self):
        # h(x) = 3 + (x-w)^2: antisymmetric kernel integrates to zero
        w, d = 1.3, 0.6
        got = pv.pv_linear(lambda x: 3.0 + (x - w) ** 2, w, w - d, w + d)
        assert abs(got) < 1e-11

    def test_exp_decay_reference(self):
        # frozen 20-digit reference
        f = fm.builtin("exp_decay", a=1.0)
        got = pv.pv_linear(lambda x: np.exp(-x), 0.5, 0.0, math.inf, tail=f.tail)
        assert rel(got, 0.27549829855127026213) < 1e-9

    @pytest.mark.parametrize("a_param", [-2.0, -1.0, 1.0, 2.0])
    @pytest.mark.parametrize("omega", [0.5, 1.0, 3.0, -0.5, -3.0])
    def test_oscillatory_full_line(self, a_param, omega):
        # PV over the whole line of e^{iax}/(w-x) = -i pi sgn(a) e^{iaw}
        f = fm.builtin("exp_osc", a=a_param)
        got = pv.pv_transform("full_line", f, 0.0, omega, math.inf)
        want = -1j * math.pi * math.copysign(1.0, a_param) * np.exp(1j * a_param * omega)
        assert rel(got, want) < 1e-9

    def test_pole_must_be_interior(self):
        with pytest.raises(pv.DomainError):
            pv.pv_linear(lambda x: np.ones_like(x), 3.0, 0.0, 2.0)


class TestTransformOracle:
    @pytest.mark.parametrize("name,kw", [("gaussian", dict(a=1.0)),
                                         ("sqrt_inv_quad", dict(a=1.5)),
                                         ("j0_squared", dict(a=1.0))])
    @pytest.mark.parametrize("variant,nu,sign", [
        ("full_line", 0.0, -1.0), ("full_line_sgn", 0.0, 1.0),
        ("full_line_abs", 0.3, -1.0), ("full_line_abs_sgn", 0.3, 1.0)])
    def test_even_f_mirrors_omega(self, name, kw, variant, nu, sign):
        # for even f the kernel's parity in x carries over to omega, exactly
        f = fm.builtin(name, **kw)
        got = pv.pv_transform(variant, f, nu, -0.4, math.inf)
        assert got == sign * pv.pv_transform(variant, f, nu, 0.4, math.inf)

    @pytest.mark.parametrize("omega", [-0.4, 0.0])
    def test_half_line_kernel_refuses_omega_not_positive(self, omega):
        f = fm.builtin("exp_decay", a=1.0)
        with pytest.raises(pv.DomainError):
            pv.pv_transform("stieltjes", f, 0.3, omega, math.inf)

    @pytest.mark.parametrize("variant", ["full_line", "full_line_sgn"])
    def test_nu_zero_kernel_refuses_nu(self, variant):
        f = fm.builtin("gaussian", a=1.0)
        with pytest.raises(pv.DomainError):
            pv.pv_transform(variant, f, 0.3, 0.4, math.inf)

    @pytest.mark.parametrize("omega", [0.4, -0.4])
    def test_pole_on_negative_range_refused(self, omega):
        # inv_cubic c=1 has its pole at x = -1, inside [-2, 0)
        f = fm.builtin("inv_cubic", c=1.0)
        with pytest.raises(pv.DomainError):
            pv.pv_transform("full_line", f, 0.0, omega, 2.0)


    @pytest.mark.parametrize("omega", [0.4, -0.4])
    @pytest.mark.parametrize("variant,nu", [("full_line", 0.0), ("full_line_branch", 0.3)])
    @pytest.mark.parametrize("name,kw", [("inv_linear", dict(c=1.0)), ("inv_cubic", dict(c=1.0)),
                                         ("inv_power_shift", dict(s=1.0, mu=2.0)),
                                         ("exp_decay_shift", dict(a=1.0, c=1.0))])
    def test_missing_negative_tail_refused_before_quadrature(self, name, kw, variant, nu,
                                                             omega):
        # no tail declared on x < 0, where f has its pole: refused from the
        # declarations, not after integrating through the pole
        f = fm.builtin(name, **kw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pv.TailNotIntegrable):
                pv.pv_transform(variant, f, nu, omega, math.inf)


class TestFullLineAtOmegaZero:
    # full_line at omega = 0 is -int_0^a (f(x) - f(-x)) / x dx, pole-free
    @pytest.mark.parametrize("name,kw,want", [
        ("sin", dict(a=1.0), -math.pi),
        ("exp_osc", dict(a=1.0), -1j * math.pi),
        ("exp_osc", dict(a=-2.0), 1j * math.pi),
        ("gaussian", dict(a=1.0), 0.0),
    ])
    def test_whole_line_against_exact(self, name, kw, want):
        from fpint import hilbert as hb
        f = fm.builtin(name, **kw)
        got = pv.pv_transform("full_line", f, 0.0, 0.0, math.inf)
        assert abs(got - want) < 1e-11
        assert abs(got - hb.full_line(f, 0.0).value) < 1e-11

    def test_asymmetric_f_on_finite_range(self):
        # exp(-x): -int_0^2 (e^-x - e^x)/x dx = 2 Shi(2)
        import mpmath as mp
        from fpint import hilbert as hb
        f = fm.builtin("exp_decay", a=1.0)
        got = pv.pv_transform("full_line", f, 0.0, 0.0, 2.0)
        assert rel(got, 2.0 * float(mp.shi(2))) < 1e-12
        assert rel(got, hb.full_line(f, 0.0, a=2.0).value) < 1e-12

    @pytest.mark.parametrize("variant,nu", [("full_line_sgn", 0.0), ("full_line_abs", 0.3),
                                            ("full_line_branch", 0.3)])
    def test_other_full_line_kernels_refuse(self, variant, nu):
        f = fm.builtin("gaussian", a=1.0)
        with pytest.raises(pv.DomainError):
            pv.pv_transform(variant, f, nu, 0.0, math.inf)


class TestSymKernels:
    # the symmetric kernels W/(w^2 - x^2), W = w or x, through pv_transform
    def test_truncated_constant(self):
        # PV int_0^{2w} w/(w^2-x^2) dx = (1/2) ln 3
        got = pv.pv_transform("sym_omega", fm.builtin("const"), 0.0, 0.7, 1.4)
        assert rel(got, 0.5 * math.log(3.0)) < 1e-11

    def test_exp_decay_against_closed_form(self):
        # sym kernel on exp(-x) at nu=1/2: 1F2-plus-singular closed form
        from fpint.catalog import eval_closed_form
        f = fm.builtin("exp_decay", a=1.0)
        got = pv.pv_transform("sym_omega", f, 0.5, 0.3, math.inf)
        want = eval_closed_form("C.10", {"a": 1.0, "nu": 0.5}, omega=0.3)
        assert rel(got, want) < 1e-8

    def test_mesh_independence(self):
        f = fm.builtin("j0_squared", a=1.0)
        b1 = pv.QuadratureBudget(abs_tol=1e-10, rel_tol=1e-9)
        b2 = pv.QuadratureBudget(abs_tol=1e-12, rel_tol=1e-11)
        v1 = pv.pv_transform("sym_x", f, 0.0, 0.4, math.inf, budget=b1)
        v2 = pv.pv_transform("sym_x", f, 0.0, 0.4, math.inf, budget=b2)
        assert abs(v1 - v2) < 10.0 * b1.rel_tol * max(abs(v2), 1.0)


class TestDomainCheck:
    # one domain check serves the oracle and TransformSpec: every input
    # outside a kernel's domain is a DomainError, never a bare exception,
    # a RuntimeWarning or a value
    BAD = [dict(nu=-0.2), dict(nu=1.0), dict(nu=1.2), dict(nu=math.nan),
           dict(omega=math.inf), dict(omega=-math.inf), dict(omega=math.nan),
           dict(a=0.0), dict(a=-1.0), dict(a=math.nan)]

    @pytest.mark.parametrize("bad", BAD, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
    @pytest.mark.parametrize("variant", pv.VARIANTS)
    def test_refused_by_oracle_and_spec(self, variant, bad):
        from fpint.hilbert import TransformSpec
        nu = 0.0 if variant in ("full_line", "full_line_sgn") else 0.3
        args = dict(dict(nu=nu, omega=0.4, a=math.inf), **bad)
        f = fm.builtin("exp_decay", a=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pv.DomainError):
                pv.pv_transform(variant, f, args["nu"], args["omega"], args["a"])
            with pytest.raises(pv.DomainError):
                TransformSpec(variant, args["omega"], args["nu"], args["a"])


class TestTails:
    def test_algebraic_tail(self):
        got = pv.tail_integral(lambda x: x ** -3.0, 2.0,
                               fm.TailDecay(fm.TAIL_ALG, power=3.0), B)
        assert rel(got, 0.5 * 2.0 ** -2) < 1e-10

    def test_oscillatory_exp_tail(self):
        # int_T^inf e^{ix}/x dx = E_1(-iT) rotated; frozen reference
        import mpmath as mp
        t0 = 3.0
        tail = fm.TailDecay(fm.TAIL_OSC_ALG, power=0.0, phase_coeff=1.0,
                            phase_power=1.0)
        got = pv.tail_integral(lambda x: np.exp(1j * x) / x, t0, tail.over_power(1.0), B)
        want = complex(mp.e1(-1j * t0))   # rotate t = -iu in E_1
        assert rel(got, want) < 1e-8

    def test_tail_undeclared(self):
        with pytest.raises(pv.TailNotIntegrable):
            pv.tail_integral(lambda x: 1.0 / x, 1.0, fm.TailDecay(), B)

    @pytest.mark.parametrize("tail", [fm.TailDecay(fm.TAIL_ALG, power=0.5).over_power(0.5),
                                      fm.TailDecay(fm.TAIL_OSC_ALG, power=0.0,
                                                   phase_coeff=1.0).over_power(0.5)])
    def test_tail_not_integrable(self, tail):
        with pytest.raises(pv.TailNotIntegrable):
            pv.tail_integral(lambda x: 1.0 / x, 1.0, tail, B)


class TestAdaptiveNonFinite:
    def test_nan_error_estimate_ends_at_once(self):
        # nan on part of [0, 1]: the first panel's error estimate is nan and
        # no bisection can make it finite
        calls = []

        def f(x):
            calls.append(len(x))
            return np.where(x > 0.5, np.nan, 1.0)

        got = pv.adaptive_quad(f, 0.0, 1.0, B)
        assert math.isnan(got)
        assert len(calls) <= 3


def _per_panel_tail(f, start, tail, budget, envelope_power):
    """Reference for _oscillatory_tail: one f call per half-period panel.

    Each check runs the tail's own estimator vote (pv._tail_vote), so the
    comparison pins the windowing, not the vote.  Returns the tail and the
    number of estimator checks made.
    """
    c = tail.phase_coeff or 1.0
    q = tail.phase_power or 1.0
    phi0 = c * start ** q
    gamma = max(envelope_power - 1.0, 0.25)
    sums, rights = [], []
    partial = 0.0 + 0.0j
    left = start
    best, best_err = None, math.inf
    vote = None
    checks = 0
    for i in range(pv._MAX_SEGMENTS):
        right = ((phi0 + (i + 1) * math.pi) / c) ** (1.0 / q)
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        partial += complex(np.sum(pv._GL_HI[1] * f(mid + half * pv._GL_HI[0])) * half)
        left = right
        sums.append(partial)
        rights.append(right)
        if i >= 16 and i % 8 == 0:
            checks += 1
            est, err, vote = pv._tail_vote(sums, rights, gamma, pv._ladder_step(q), vote)
            if err < best_err:
                best, best_err = est, err
            if err < max(budget.abs_tol, budget.rel_tol * abs(est)):
                return est, checks
    return best, checks


def _j0_squared_tail():
    # non-oscillatory mean ~ 1/(pi a x): the power-ladder fit's case
    f = fm.builtin("j0_squared", a=1.0426)
    return (lambda x: 0.5 * f.evaluate(x) / ((0.5 + x) * (0.5 - x))), 3.0, f.tail, 3.0


def _j0_squared_slow_tail():
    # envelope x^-2 with that mean: the fit meets the tolerance only on the
    # integer exponent lattice of its linear phase
    f = fm.builtin("j0_squared", a=1.0426)
    return (lambda x: f.evaluate(x) / (0.5 - x)), 3.0, f.tail, 2.0


def _exp_osc_tail():
    f = fm.builtin("exp_osc", a=1.3)
    return (lambda x: f.evaluate(x) / (0.7 - x)), 2.0, f.tail, 1.0


def _airy_reflected_tail():
    # the negative-axis piece of a full-line Airy transform: Ai(-ax) x^-nu/(w+x)
    fr = fm.builtin("airy", a=1.1).reflect()
    nu = 0.3
    return (lambda x: fr.evaluate(x) * x ** -nu / (0.6 + x)), 2.0, fr.tail, 1.25 + nu


class TestWindowedTail:
    @pytest.mark.parametrize("case", [_j0_squared_tail, _j0_squared_slow_tail, _exp_osc_tail,
                                      _airy_reflected_tail])
    def test_equals_per_panel_loop(self, case):
        g, start, tail, power = case()
        calls = []

        def counted(x):
            calls.append(len(x))
            return g(x)

        got = pv._oscillatory_tail(counted, start, tail, B, power)
        want, checks = _per_panel_tail(g, start, tail, B, power)
        assert got == want
        # one call per estimator check: segments 0-16, then 8 at a time
        assert len(calls) == checks
        assert sum(calls) == 43 * (17 + 8 * (checks - 1))


class TestPowerLadder:
    def test_slow_j0_squared_tail_ends_early(self):
        g, start, tail, power = _j0_squared_slow_tail()
        calls = []

        def counted(x):
            calls.append(len(x))
            return g(x)

        pv._oscillatory_tail(counted, start, tail, B, power)
        # one call per check; with half steps the fit runs all 73
        assert len(calls) <= 12

    def test_slow_j0_squared_tail_matches_full_fit(self):
        # the integer-ladder fit of the paired sums over the last three
        # quarters of all 600 segments
        g, start, tail, power = _j0_squared_slow_tail()
        c = tail.phase_coeff
        edges = [start] + [(c * start + (k + 1) * math.pi) / c
                           for k in range(pv._MAX_SEGMENTS)]
        sums = np.cumsum(pv._fixed_panels(g, edges))
        paired = 0.5 * (sums[:-1:2] + sums[1::2])
        xs = np.asarray(edges[2::2])
        n = len(paired)
        want = pv._power_ladder_fit(xs[n // 4:], paired[n // 4:], power - 1.0, 1.0)
        got = pv._oscillatory_tail(g, start, tail, B, power)
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("step", [1.0, 0.5])
    def test_fit_recovers_limit_on_its_lattice(self, step):
        xs = np.linspace(20.0, 60.0, 30)
        coeffs = [0.7, -1.3, 2.1, 0.4, -0.9, 1.6]
        sums = -0.25 + sum(c * xs ** -(1.0 + step * i) for i, c in enumerate(coeffs))
        got = pv._power_ladder_fit(xs, sums.astype(complex), 1.0, step)
        assert abs(got + 0.25) < 1e-12
