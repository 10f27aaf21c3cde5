import math

import numpy as np
import pytest

from fpint import finitepart as fp
from fpint import funcmodel as fm
from fpint.errors import DomainError
from fpint.pvoracle import QuadratureBudget, regular_integral

GAMMA_E = 0.5772156649015328606


def rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class TestKernel:
    def test_nu_snap_down(self):
        k = fp.FpKernel(2, 1e-8)
        assert k.nu == 0.0

    def test_nu_near_one_rejected(self):
        with pytest.raises(DomainError):
            fp.FpKernel(1, 1.0 - 1e-8)

    def test_nu_zero_needs_k(self):
        with pytest.raises(DomainError):
            fp.FpKernel(0, 0.0)

    def test_upper_positive(self):
        with pytest.raises(DomainError):
            fp.FpKernel(1, 0.5, -1.0)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_nonfinite_nu_rejected(self, nu):
        with pytest.raises(DomainError):
            fp.snap_nu(nu)
        with pytest.raises(DomainError):
            fp.resolve_fp(fm.builtin("exp_decay", a=1.0), 1, nu, math.inf)


class TestSeriesFinite:
    def test_exp_osc_matches_canonical_construction(self):
        # ffp_0^s e^{iax}/x^{k+1}: explicit partial expansion, frozen via
        # an independent 30-digit evaluation of the tail series
        f = fm.builtin("exp_osc", a=1.0)
        got = fp.fp_series_finite(f, fp.FpKernel(3, 0.0, 0.8)).value
        want = -0.6564860353907384 - 1.3819240320982290j
        assert rel(got, want) < 1e-12

    def test_nonsingular_equals_quadrature(self):
        # f = x^2 g with kernel k=1: plain convergent integral
        f = fm.builtin("power_gaussian", m=2, a=1.0)
        got = fp.fp_series_finite(f, fp.FpKernel(1, 0.0, 1.5)).value
        want = regular_integral(lambda x: x * np.exp(-x * x), 0.0, 1.5)
        assert rel(got, want) < 1e-10

    def test_partial_fraction_reference(self):
        # ffp_0^{1/2} 1/(x(1+x)) = -ln 3 exactly
        f = fm.builtin("inv_linear", c=1.0)
        got = fp.fp_series_finite(f, fp.FpKernel(1, 0.0, 0.5)).value
        assert rel(got, -math.log(3.0)) < 1e-12

    def test_split_route_beyond_radius(self):
        # a > rho0 splits at rho0/2; additivity against the direct value
        f = fm.builtin("inv_linear", c=1.0)
        v1 = fp.fp_series_finite(f, fp.FpKernel(1, 0.0, 3.0))
        assert v1.route == "split_tail"
        direct = math.log(3.0 / 4.0)   # ffp_0^3 1/(x(1+x)) = ln(a/(1+a))
        assert rel(v1.value, direct) < 1e-10


class TestInfinite:
    def test_exp_decay_d1(self):
        f = fm.builtin("exp_decay", a=1.0)
        got = fp.fp_infinite(f, fp.FpKernel(1, 0.5, math.inf)).value
        assert rel(got, -2.0 * math.sqrt(math.pi)) < 1e-11

    def test_fermi_d13(self):
        f = fm.builtin("fermi", a=1.0)
        got = fp.fp_infinite(f, fp.FpKernel(1, 0.0, math.inf)).value
        want = math.log(math.sqrt(math.pi / 2.0)) - GAMMA_E / 2.0
        assert rel(got, want) < 1e-11

    def test_large_finite_upper_approaches_compact_case(self):
        # exponentially small tail: finite a ~ infinite result
        f = fm.builtin("exp_decay", a=1.0)
        v_inf = fp.fp_infinite(f, fp.FpKernel(2, 0.3, math.inf)).value
        v_fin = fp.fp_series_finite(f, fp.FpKernel(2, 0.3, 40.0)).value
        assert rel(v_fin, v_inf) < 1e-12

    @pytest.mark.parametrize("a,k", [(1.0426, 9), (0.7057, 7)])
    def test_j0_squared_steep_kernel_generic(self, a, k):
        # the oscillatory tail's Wynn estimate broke down here (3.0e15 at k = 9
        # against 1.0e-3): a relative guard and a bracket on it
        f = fm.builtin("j0_squared", a=a)
        got = fp.resolve_fp(f, k, 0.0, math.inf, use_hook=False)
        assert got.route == "split_tail"
        assert rel(got.value, f.fp_hook(k, 0.0, math.inf)) < 1e-9

    @pytest.mark.parametrize("a,nu", [(0.708, 0.76), (1.0, 0.0)])
    def test_fermi_generic_matches_hook_at_every_k(self, a, nu):
        # finite rho0 keeps split_radius at every k; a split capped at 1 for
        # k <= 14 left 1.1e-6 at k = 14, a = 0.708
        f = fm.builtin("fermi", a=a)
        for k in range(1, 30):
            got = fp.resolve_fp(f, k, nu, math.inf, use_hook=False).value
            assert rel(got, f.fp_hook(k, nu, math.inf)) < 1e-10, k

    def test_tail_not_integrable(self):
        f = fm.builtin("const")
        with pytest.raises(fp.TailNotIntegrable):
            fp.fp_infinite(f, fp.FpKernel(1, 0.0, math.inf))


class TestExpOsc:
    def test_k0(self):
        got = fp.fp_exp_osc(1.0, 0)
        assert rel(got, complex(-GAMMA_E, math.pi / 2.0)) < 1e-13

    def test_conjugation(self):
        got = fp.fp_exp_osc(-1.0, 0)
        assert rel(got, fp.fp_exp_osc(1.0, 0).conjugate()) < 1e-14

    def test_against_finite_s_limit(self):
        # closed form equals the finite-s construction pushed to large s
        # (tail series evaluated by the asymptotic route)
        from fpint import specfun as sf
        a, k = 2.0, 3
        s = 1e4
        fin = sum(-(1j * a) ** n / (math.factorial(n) * (k - n) * s ** (k - n))
                  for n in range(k))
        fin += (1j * a) ** k * math.log(s) / math.factorial(k)
        fin += sf.hyper_2f2_asymptotic_11(k, a, s)
        assert rel(fp.fp_exp_osc(a, k), fin) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            fp.fp_exp_osc(0.0, 1)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_nonfinite_a_rejected(self, a):
        with pytest.raises(DomainError):
            fp.fp_exp_osc(a, 1)

    @pytest.mark.parametrize("a", [1.0, -0.7, 3.0])
    def test_matches_hook(self, a):
        # the public closed form and the exp_osc finite-part hook agree
        f = fm.builtin("exp_osc", a=a)
        for k in range(8):
            assert rel(fp.fp_exp_osc(a, k), f.fp_hook(k + 1, 0.0, math.inf)) < 1e-14


class TestQuartic:
    @pytest.mark.parametrize("beta", [0.75, 0.25, -0.25, -0.75, -1.1, -3.0])
    def test_three_branch_vs_unified(self, beta):
        for k in range(11):
            tri = fp.fp_quartic(beta, 1.0, k, method="three_branch")
            uni = fp.fp_quartic(beta, 1.0, k, method="unified")
            assert abs(tri - uni) <= 1e-12 * max(abs(tri), 1e-12), (beta, k)

    def test_scaling_in_omega_j(self):
        got = fp.fp_quartic(0.5, 2.0, 0)
        want = fp.fp_quartic(0.5, 1.0, 0) * 2.0 ** (-5)
        assert abs(got - want) <= 1e-15 + 1e-12 * abs(want)

    def test_epsilon_oracle_agrees(self):
        f = fm.builtin("rational_quartic", beta=-1.5, omega_j=1.0)
        got = fp.fp_epsilon_oracle(f.evaluate, fp.FpKernel(4, 0.0, math.inf),
                                   tail=f.tail).value
        assert rel(got, fp.fp_quartic(-1.5, 1.0, 1)) < 1e-5

    def test_epsilon_oracle_vanishing_value(self):
        # the beta = 1/2, k = 0 finite part is exactly zero
        f = fm.builtin("rational_quartic", beta=0.5, omega_j=1.0)
        got = fp.fp_epsilon_oracle(f.evaluate, fp.FpKernel(2, 0.0, math.inf),
                                   tail=f.tail).value
        assert abs(fp.fp_quartic(0.5, 1.0, 0)) < 1e-14
        assert abs(got) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            fp.fp_quartic(1.2, 1.0, 0)
        with pytest.raises(DomainError):      # also where every method is one form
            fp.fp_quartic(-1.0, 1.0, 0, method="bogus")


class TestCatalogClosedForms:
    def test_d5_log2(self):
        # psi(1) - psi(1/2) = 2 ln 2 makes the k=0, a=1 entry ln 2
        assert rel(fp.fp_catalog("D.5", a=1.0, k=0), math.log(2.0)) < 1e-13

    def test_d12_reference_structure(self):
        from fpint import specfun as sf
        want = (math.pi * (2.0 ** 1.5 - 1.0) * sf.zeta_real(-0.5)
                / (math.sin(math.pi / 2.0) * math.gamma(1.5)))
        assert rel(fp.fp_catalog("D.12", a=1.0, m=1, nu=0.5), want) < 1e-13

    def test_d19_rational(self):
        assert rel(fp.fp_catalog("D.19", a=1.0, n=1), 1.0 / 6.0) < 1e-14

    def test_unknown_item(self):
        from fpint.errors import UnknownItem
        with pytest.raises(UnknownItem):
            fp.fp_catalog("D.99")


class TestEpsilonOracle:
    def test_constant_kernel(self):
        # I(eps) = -ln eps + ln a, finite part ln a = 0 at a=1
        f = fm.builtin("const")
        got = fp.fp_epsilon_oracle(f.evaluate, fp.FpKernel(1, 0.0, 1.0)).value
        assert abs(got) < 1e-10

    def test_d1_split_route(self):
        f = fm.builtin("exp_decay", a=1.0)
        got = fp.fp_epsilon_oracle(f.evaluate, fp.FpKernel(1, 0.5, math.inf),
                                   tail=f.tail).value
        assert rel(got, -2.0 * math.sqrt(math.pi)) < 1e-6

    def test_independent_of_hooks(self):
        # oracle consumes only point values; sanity on a hookless wrapper
        f = fm.builtin("exp_decay", a=2.0)
        got = fp.fp_epsilon_oracle(lambda x: np.exp(-2.0 * x),
                                   fp.FpKernel(2, 0.25, math.inf),
                                   tail=f.tail).value
        want = fp.fp_catalog("D.1", a=2.0, m=2, nu=0.25)
        assert rel(got, want) < 1e-6


class TestProperties:
    def test_linearity(self):
        rng = np.random.RandomState(7)
        f = fm.builtin("exp_decay", a=1.0)
        h = fm.builtin("gaussian", a=1.0)
        for _ in range(5):
            al, be = rng.uniform(-2, 2, size=2)
            combo = fm.linear_combination(al, f, be, h)
            kern = fp.FpKernel(2, 0.25, math.inf)
            lhs = fp.fp_infinite(combo, kern).value
            rhs = al * fp.fp_infinite(f, kern).value + be * fp.fp_infinite(h, kern).value
            assert rel(lhs, rhs) < 1e-10

    def test_upper_limit_additivity(self):
        # ffp over [0,a] + plain integral over [a,b] = ffp over [0,b]
        f = fm.builtin("exp_decay", a=1.0)
        a_up, b_up = 0.4, 1.7
        kern_a = fp.FpKernel(2, 0.0, a_up)
        kern_b = fp.FpKernel(2, 0.0, b_up)
        mid = regular_integral(lambda x: np.exp(-x) / x ** 2, a_up, b_up)
        lhs = fp.fp_series_finite(f, kern_a).value + mid
        rhs = fp.fp_series_finite(f, kern_b).value
        assert rel(lhs, rhs) < 1e-9

    def test_route_agreement_spot(self):
        # series vs closed form vs eps oracle on one table entry
        f = fm.builtin("sqrt_inv_quad", a=1.0)
        kern = fp.FpKernel(1, 0.0, math.inf)
        series = fp.fp_infinite(f, kern).value
        closed = fp.fp_catalog("D.5", a=1.0, k=0)
        oracle = fp.fp_epsilon_oracle(f.evaluate, kern, tail=f.tail).value
        assert rel(series, closed) < 1e-5
        assert rel(oracle, closed) < 1e-5
        assert rel(series, oracle) < 1e-5

    def test_resolve_fp_prefers_hook(self):
        f = fm.builtin("exp_decay", a=1.0)
        v = fp.resolve_fp(f, 1, 0.5, math.inf)
        assert v.route == "closed_form"
        v2 = fp.resolve_fp(f, 1, 0.5, math.inf, use_hook=False)
        assert v2.route == "split_tail"
        assert rel(v.value, v2.value) < 1e-11
