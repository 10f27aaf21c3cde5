import math

import numpy as np
import pytest

from fpint import funcmodel as fm
from fpint import hilbert as hb
from fpint import pvoracle as pv
from fpint.errors import ConvergenceDomain, DomainError, ProvisoViolated, TailNotIntegrable


def rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class TestStieltjes:
    def test_truncated_constant(self):
        # int_0^a dx/(w+x) = ln((w+a)/w)
        f = fm.builtin("const")
        w, a = 0.35, 1.4
        got = hb.stieltjes(f, 0.0, w, a).value
        assert rel(got, math.log((w + a) / w)) < 1e-10

    def test_exp_nu_half_reference(self):
        # frozen 20-digit quadrature reference
        f = fm.builtin("exp_decay", a=1.0)
        got = hb.stieltjes(f, 0.5, 0.3).value
        assert rel(got, 3.3956620305139279975) < 1e-11

    def test_geometric_truncated(self):
        # int_0^{1/2} dx/((1+x)(0.4+x)) = ln(1.5)/0.6
        f = fm.builtin("inv_linear", c=1.0)
        got = hb.stieltjes(f, 0.0, 0.4, 0.5).value
        assert rel(got, math.log(1.5) / 0.6) < 1e-10


class TestOneSided:
    def test_linear_times_const_truncated(self):
        # PV int_0^a x/(w-x) dx = -a - w ln((a-w)/w)
        f = fm.builtin("sin", a=1.0)   # m = 1, g(0) = 1; use small a so sin ~ x
        w, a = 0.3, 1.0
        got = hb.one_sided(f, 0.0, w, a).value
        want = pv.pv_transform("one_sided", f, 0.0, w, a)
        assert rel(got, want) < 1e-10

    def test_exp_nu_half_pv_reference(self):
        f = fm.builtin("exp_decay", a=1.0)
        got = hb.one_sided(f, 0.5, 0.3).value
        assert rel(got, 2.9141723823688594338) < 1e-11

    def test_report_splits(self):
        f = fm.builtin("power_gaussian", m=2, a=1.0)
        rep = hb.one_sided(f, 0.0, 0.4)
        assert rep.value == rep.convergent_prefix + rep.finite_part_sum \
            + rep.singular_contribution
        assert rep.convergent_prefix != 0.0

    def test_margin_rejection(self):
        f = fm.builtin("inv_linear", c=1.0)     # rho0 = 1
        with pytest.raises(ConvergenceDomain):
            hb.one_sided(f, 0.0, 0.999, math.inf)

    def test_edge_point_answers(self):
        # at 0.97 rho0 (rho0 = pi) the plain sum would need ~1000 terms, and
        # omega^k leaves binary64 near k = 640; the epsilon exit stops at ~32
        f, w = fm.builtin("fermi", a=1.0), 0.97 * math.pi
        rep = hb.one_sided(f, 0.0, w)
        assert rep.terms_used < 60
        assert abs(rep.value - pv.pv_transform("one_sided", f, 0.0, w, math.inf)) < 1e-11

    def test_overstated_rho0_refused(self):
        # fermi declared at three times its radius: at 1.5 pi the series
        # diverges and the term-ratio rule refuses it
        f = fm.builtin("fermi", a=1.0)
        wide = fm.AnalyticFunction("fermi", f.evaluate, f.maclaurin, 3.0 * math.pi,
                                   tail=f.tail, tail_neg=f.tail_neg, fp_hook=f.fp_hook)
        with pytest.raises(ConvergenceDomain, match="ratio"):
            hb.one_sided(wide, 0.0, 1.5 * math.pi)


@pytest.mark.parametrize("variant,name,kw,nu,share", [
    ("one_sided", "fermi", {"a": 1.0}, nu, share)
    for nu in (0.0, 0.5) for share in (0.95, 0.99)] + [
    ("sym_x", "sqrt_inv_quad", {"a": 1.4}, 0.0, share) for share in (0.98, 0.99)])
def test_near_radius_against_pv(variant, name, kw, nu, share):
    # up to the 0.99 rho0 margin, where the terms fall like share^k
    f = fm.builtin(name, **kw)
    w = share * f.rho0
    got = hb.evaluate_transform(hb.TransformSpec(variant, w, nu), f).value
    assert rel(got, pv.pv_transform(variant, f, nu, w, math.inf)) <= 1e-12


class TestFullLine:
    @pytest.mark.parametrize("a_param", [-2.0, -1.0, 0.5, 1.0, 2.0])
    def test_exp_osc_identity(self, a_param):
        f = fm.builtin("exp_osc", a=a_param)
        for w in [0.1, 1.0, 5.0]:
            got = hb.full_line(f, w).value
            want = -1j * math.pi * math.copysign(1.0, a_param) * np.exp(1j * a_param * w)
            assert rel(got, want) < 1e-9

    def test_even_at_zero_omega(self):
        f = fm.builtin("gaussian", a=1.0)
        assert hb.full_line(f, 0.0).value == 0.0

    def test_odd_gaussian_pv_reference(self):
        # frozen 20-digit PV of x e^{-x^2}/(0.7 - x) over the line
        f = fm.builtin("power_gaussian", m=1, a=1.0)
        got = hb.full_line(f, 0.7).value
        assert rel(got, -0.5056710150922638218) < 1e-10

    def test_split_identity(self):
        # full line = Stieltjes of the reflection + one-sided part
        for name, kw in [("gaussian", dict(a=1.0)), ("exp_osc", dict(a=1.0))]:
            f = fm.builtin(name, **kw)
            for w in [0.2, 0.8]:
                lhs = hb.full_line(f, w).value
                rhs = hb.stieltjes(f.reflect(), 0.0, w).value \
                    + hb.one_sided(f, 0.0, w).value
                assert rel(lhs, rhs) < 1e-10


class TestFullLineSgn:
    def test_truncated_constant_closed_form(self):
        # PV int_{-a}^a sgn(x)/(w-x) dx = 2 ln w - ln|a^2 - w^2|
        f = fm.builtin("const")
        w, a = 0.45, 1.3
        got = hb.full_line_sgn(f, w, a).value
        want = 2.0 * math.log(w) - math.log(abs(a * a - w * w))
        assert rel(got, want) < 1e-10

    def test_gaussian_reference(self):
        f = fm.builtin("gaussian", a=1.0)
        got = hb.full_line_sgn(f, 0.5).value
        assert rel(got, -0.42253311936881487317) < 1e-10


class TestFullLineNu:
    def test_branch_truncated_constant(self):
        # frozen quadrature reference with the upper-branch weight
        f = fm.builtin("const")
        got = hb.full_line_branch(f, 0.5, 0.25, 1.0).value
        want = 2.1972245773362193828 - 4.4285948711763620121j
        assert rel(got, want) < 1e-10

    @pytest.mark.parametrize("omega,nu", [
        (math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0), (0.5, math.nan)])
    def test_nonfinite_inputs_rejected(self, omega, nu):
        f = fm.builtin("gaussian", a=1.0)
        with pytest.raises(DomainError):
            hb.full_line(f, omega) if nu == 0.0 else hb.one_sided(f, nu, omega)

    def test_branch_requires_nu(self):
        f = fm.builtin("gaussian", a=1.0)
        with pytest.raises(DomainError):
            hb.full_line_branch(f, 0.0, 0.3)

    def test_negative_omega_notes(self):
        f = fm.builtin("gaussian", a=1.0)
        rep = hb.full_line_branch(f, 0.5, -0.5)
        assert any("branch" in note for note in rep.route_notes)
        want = pv.pv_transform("full_line_branch", f, 0.5, -0.5, math.inf)
        assert rel(rep.value, want) < 1e-9

    @pytest.mark.parametrize("force_generic_parity", [False, True])
    @pytest.mark.parametrize("nu", [0.3, 0.7])
    def test_branch_exp_osc_generic_route(self, nu, force_generic_parity):
        # the oscillatory tail's power-ladder fit meets columns that underflow to 0
        f = fm.builtin("exp_osc", a=1.0)
        want = hb.full_line_branch(f, nu, 0.9).value
        got = hb.full_line_branch(f, nu, 0.9, fp_mode="generic",
                                  force_generic_parity=force_generic_parity).value
        assert rel(got, want) < 1e-10

    @pytest.mark.parametrize("variant", ["full_line_abs", "full_line_abs_sgn"])
    def test_abs_exp_osc_vs_oracle(self, variant):
        f = fm.builtin("exp_osc", a=1.0)
        spec = hb.TransformSpec(variant, 0.5, 0.3, math.inf)
        got = hb.evaluate_transform(spec, f).value
        want = pv.pv_transform(variant, f, 0.3, 0.5, math.inf)
        assert rel(got, want) < 1e-8

    def test_abs_even_reduction_identity(self):
        # for even f: full-line |x|^-nu kernel equals twice the omega-kernel
        # half-line form (the parity collapse of the sgn-split integrals)
        f = fm.builtin("gaussian", a=1.0)
        nu, w = 0.4, 0.5
        lhs = hb.full_line_abs(f, nu, w).value
        rhs = 2.0 * hb.sym_omega(f, nu, w).value
        assert rel(lhs, rhs) < 1e-9

    def test_abs_sgn_even_reduction_identity(self):
        f = fm.builtin("gaussian", a=1.0)
        nu, w = 0.4, 0.5
        lhs = hb.full_line_abs_sgn(f, nu, w).value
        rhs = 2.0 * hb.sym_x(f, nu, w).value
        assert rel(lhs, rhs) < 1e-9


class TestSymKernels:
    def test_edge_point_answers(self):
        # omega = 0.99 a (rho0 = a): the plain sum overflowed omega^k at
        # k = 1088; the epsilon exit stops at ~45 terms
        f, w = fm.builtin("sqrt_inv_quad", a=1.4), 0.99 * 1.4
        rep = hb.sym_x(f, 0.0, w)
        assert rep.terms_used < 90
        assert abs(rep.value - pv.pv_transform("sym_x", f, 0.0, w, math.inf)) < 1e-11

    def test_even_singular_vanishes_exactly(self):
        f = fm.builtin("gaussian", a=1.0)
        rep = hb.sym_omega(f, 0.0, 0.4)
        assert rep.singular_contribution == 0.0

    def test_decomposition_identity(self):
        # omega-kernel at nu=0 is half the Stieltjes plus one-sided sum
        for name, kw in [("exp_decay", dict(a=1.0)), ("fermi", dict(a=1.0)),
                         ("exp_decay_shift", dict(a=1.0, c=1.5))]:
            f = fm.builtin(name, **kw)
            for w in [0.15, 0.45]:
                lhs = hb.sym_omega(f, 0.0, w).value
                rhs = 0.5 * (hb.stieltjes(f, 0.0, w).value
                             + hb.one_sided(f, 0.0, w).value)
                assert rel(lhs, rhs) < 1e-10

    def test_sym_x_j0_closed_form(self):
        from fpint.catalog import eval_closed_form
        f = fm.builtin("j0_squared", a=1.0)
        got = hb.sym_x(f, 0.0, 0.4).value
        want = eval_closed_form("C.6", {"a": 1.0}, omega=0.4)
        assert rel(got, want) < 1e-8

    def test_sym_omega_exp_closed_form(self):
        from fpint.catalog import eval_closed_form
        f = fm.builtin("exp_decay", a=1.0)
        got = hb.sym_omega(f, 0.25, 0.3).value
        want = eval_closed_form("C.10", {"a": 1.0, "nu": 0.25}, omega=0.3)
        assert rel(got, want) < 1e-10

    def test_sym_x_exp_closed_form(self):
        from fpint.catalog import eval_closed_form
        f = fm.builtin("exp_decay", a=1.0)
        got = hb.sym_x(f, 0.25, 0.3).value
        want = eval_closed_form("C.11", {"a": 1.0, "nu": 0.25}, omega=0.3)
        assert rel(got, want) < 1e-10

    def test_positive_omega_required(self):
        f = fm.builtin("gaussian", a=1.0)
        with pytest.raises(DomainError):
            hb.sym_omega(f, 0.0, -0.3)


class TestParityReduction:
    @pytest.mark.parametrize("variant,nu", [
        ("full_line", 0.0), ("full_line_sgn", 0.0), ("full_line_branch", 0.4),
        ("full_line_abs", 0.4), ("full_line_abs_sgn", 0.4),
    ])
    def test_even_route_matches_generic(self, variant, nu):
        f = fm.builtin("gaussian", a=1.0)
        spec = hb.TransformSpec(variant, 0.5, nu, math.inf)
        fast = hb.evaluate_transform(spec, f).value
        generic = hb.evaluate_transform(spec, f, force_generic_parity=True).value
        assert rel(fast, generic) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_order_pv_match(self, m):
        # x^m g routing against the brute-force oracle
        f = fm.builtin("power_gaussian", m=m, a=1.0)
        for variant, nu in [("one_sided", 0.0), ("one_sided", 0.5),
                            ("sym_omega", 0.0), ("sym_omega", 0.5),
                            ("sym_x", 0.3), ("sym_x", 0.0),
                            ("full_line", 0.0), ("full_line_sgn", 0.0),
                            ("full_line_abs", 0.3), ("full_line_abs_sgn", 0.3),
                            ("full_line_branch", 0.3)]:
            spec = hb.TransformSpec(variant, 0.6, nu, math.inf)
            got = hb.evaluate_transform(spec, f).value
            want = pv.pv_transform(variant, f, nu, 0.6, math.inf)
            assert rel(got, want) < 1e-8, (variant, nu, m)


class TestOracleGrid:
    """Every variant against the quadrature oracle on a standard grid."""

    BUILTINS = [("exp_decay", dict(a=1.0)), ("gaussian", dict(a=1.0)),
                ("sqrt_inv_quad", dict(a=1.5)), ("fermi", dict(a=1.0)),
                ("power_gaussian", dict(m=1, a=1.0))]

    @pytest.mark.parametrize("variant,nu", [
        ("stieltjes", 0.0), ("stieltjes", 0.4), ("one_sided", 0.0),
        ("one_sided", 0.4), ("full_line", 0.0), ("full_line_sgn", 0.0),
        ("full_line_branch", 0.4), ("full_line_abs", 0.4),
        ("full_line_abs_sgn", 0.4), ("sym_omega", 0.0), ("sym_omega", 0.4),
        ("sym_x", 0.0), ("sym_x", 0.4),
    ])
    def test_grid(self, variant, nu):
        for name, kw in self.BUILTINS:
            f = fm.builtin(name, **kw)
            if variant.startswith("full_line") and f.tail_neg.kind == "none":
                continue          # one-sided-only integrands
            scale = min(f.rho0, 1.0)
            # the full-line kernels are defined for omega < 0 too
            for frac in (0.1, 0.3, 0.5) + ((-0.3,) if variant.startswith("full_line") else ()):
                w = frac * scale
                got = hb.evaluate_transform(
                    hb.TransformSpec(variant, w, nu, math.inf), f).value
                want = pv.pv_transform(variant, f, nu, w, math.inf)
                assert rel(got, want) < 1e-6, (variant, nu, name, w)


class TestLargeOmegaEntire:
    def test_exp_decay_far_from_origin(self):
        # entire f admits every omega; series must stay accurate at omega = 10
        f = fm.builtin("exp_decay", a=1.0)
        got = hb.one_sided(f, 0.0, 10.0).value
        want = pv.pv_transform("one_sided", f, 0.0, 10.0, math.inf)
        assert rel(got, want) < 1e-9

    def test_exp_osc_strong_oscillation(self):
        f = fm.builtin("exp_osc", a=0.8)
        got = hb.full_line(f, 8.0).value
        want = -1j * math.pi * np.exp(1j * 0.8 * 8.0)
        assert rel(got, want) < 1e-9

    def test_gaussian_refuses_when_binary64_cannot(self):
        # the omega-series transient dwarfs the sum by ~5e13 at omega = 6:
        # an honest refusal, not a silent garbage value
        f = fm.builtin("gaussian", a=1.0)
        with pytest.raises(ConvergenceDomain):
            hb.one_sided(f, 0.0, 6.0)

    def test_gaussian_moderate_omega_accuracy(self):
        f = fm.builtin("gaussian", a=1.0)
        rep = hb.one_sided(f, 0.0, 4.0)
        want = pv.pv_transform("one_sided", f, 0.0, 4.0, math.inf)
        assert rel(rep.value, want) < 1e-6

    def test_gaussian_notes_heavy_cancellation(self):
        # ~12 digits of transient cancellation at omega = 5: still usable,
        # flagged in the route notes, and honest against the oracle
        f = fm.builtin("gaussian", a=1.0)
        rep = hb.one_sided(f, 0.0, 5.0)
        assert any("cancellation" in n for n in rep.route_notes)
        want = pv.pv_transform("one_sided", f, 0.0, 5.0, math.inf)
        assert rel(rep.value, want) < 1e-3


class TestRealInRealOut:
    @pytest.mark.parametrize("variant,nu", [
        ("one_sided", 0.0), ("one_sided", 0.4), ("full_line", 0.0),
        ("full_line_sgn", 0.0), ("full_line_abs", 0.4),
        ("full_line_abs_sgn", 0.4), ("sym_omega", 0.4), ("sym_x", 0.4),
    ])
    def test_real_output(self, variant, nu):
        f = fm.builtin("gaussian", a=1.0)
        spec = hb.TransformSpec(variant, 0.5, nu, math.inf)
        val = hb.evaluate_transform(spec, f).value
        assert abs(val.imag) <= 1e-12 * max(abs(val), 1e-12)


class TestSmallOmega:
    def test_one_sided_log(self):
        f = fm.builtin("exp_decay", a=1.0)
        lead = hb.small_omega_asymptotic(hb.TransformSpec("one_sided", 1e-3), f)
        assert lead.kind == hb.LEAD_LOG
        assert rel(lead.coefficient, 1.0) < 1e-12

    def test_sym_x_even_log(self):
        f = fm.builtin("gaussian", a=1.0)
        lead = hb.small_omega_asymptotic(hb.TransformSpec("sym_x", 1e-3), f)
        assert lead.kind == hb.LEAD_LOG
        assert rel(lead.coefficient, 1.0) < 1e-12

    def test_full_line_even_power(self):
        from fpint.finitepart import resolve_fp
        f = fm.builtin("gaussian", a=1.0)
        lead = hb.small_omega_asymptotic(hb.TransformSpec("full_line", 1e-3), f)
        assert lead.kind == hb.LEAD_POWER and lead.exponent == 1.0
        want = -2.0 * resolve_fp(f, 2, 0.0, math.inf).value
        assert rel(lead.coefficient, want) < 1e-10

    def test_proviso_violated(self):
        # tuned even combination with vanishing ffp f/x^2: (1 + 2x^2) e^{-x^2}
        f = fm.linear_combination(1.0, fm.builtin("gaussian", a=1.0),
                                  2.0, fm.builtin("power_gaussian", m=2, a=1.0))
        with pytest.raises(ProvisoViolated):
            hb.small_omega_asymptotic(hb.TransformSpec("full_line", 1e-3), f)

    def test_ratio_convergence_one_sided(self):
        f = fm.builtin("gaussian", a=1.0)
        spec = hb.TransformSpec("one_sided", 1e-3)
        lead = hb.small_omega_asymptotic(spec, f)
        errs = []
        for w in [1e-2, 1e-3, 1e-4]:
            val = hb.one_sided(f, 0.0, w).value
            errs.append(abs(val / lead.evaluate(w) - 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.05

    @pytest.mark.parametrize("variant,nu,m,kind", [
        ("stieltjes", 0.4, 1, hb.LEAD_CONSTANT),
        ("one_sided", 0.0, 2, hb.LEAD_CONSTANT),
        ("one_sided", 0.5, 1, hb.LEAD_CONSTANT),
        ("full_line", 0.0, 1, hb.LEAD_POWER),
        ("full_line", 0.0, 2, hb.LEAD_POWER),
        ("full_line_sgn", 0.0, 1, hb.LEAD_POWER_LOG),
        ("full_line_sgn", 0.0, 2, hb.LEAD_POWER),
        ("full_line_branch", 0.4, 1, hb.LEAD_CONSTANT),
        ("full_line_branch", 0.4, 2, hb.LEAD_CONSTANT),
        ("full_line_abs", 0.4, 1, hb.LEAD_POWER),
        ("full_line_abs_sgn", 0.4, 1, hb.LEAD_POWER),
        ("full_line_abs_sgn", 0.4, 2, hb.LEAD_POWER),
        ("sym_omega", 0.0, 1, hb.LEAD_POWER_LOG),
        ("sym_omega", 0.0, 2, hb.LEAD_POWER),
        ("sym_omega", 0.4, 1, hb.LEAD_POWER),
        ("sym_x", 0.0, 1, hb.LEAD_CONSTANT),
        ("sym_x", 0.4, 1, hb.LEAD_CONSTANT),
    ])
    def test_zero_order_branches_ratio(self, variant, nu, m, kind):
        # every m-dependent case of the dominant-term table must actually
        # dominate: |transform/leading - 1| decreasing, final within 0.05
        f = fm.builtin("power_gaussian", m=m, a=1.0)
        lead = hb.small_omega_asymptotic(hb.TransformSpec(variant, 1e-3, nu), f)
        assert lead.kind == kind
        errs = []
        for w in (1e-2, 1e-3, 1e-4):
            val = hb.evaluate_transform(hb.TransformSpec(variant, w, nu), f).value
            errs.append(abs(val / lead.evaluate(w) - 1.0))
        assert errs[2] <= 0.05, errs
        assert errs[0] > errs[2], errs

    @pytest.mark.parametrize("variant,nu,kind,exponent", [
        ("stieltjes", 0.0, hb.LEAD_CONSTANT, 0.0),
        ("stieltjes", 0.4, hb.LEAD_CONSTANT, 0.0),
        ("one_sided", 0.0, hb.LEAD_CONSTANT, 0.0),
        ("one_sided", 0.4, hb.LEAD_CONSTANT, 0.0),
        ("full_line", 0.0, hb.LEAD_CONSTANT, 0.0),
        ("full_line_sgn", 0.0, hb.LEAD_CONSTANT, 0.0),
        ("full_line_branch", 0.4, hb.LEAD_CONSTANT, 0.0),
        ("full_line_abs", 0.4, hb.LEAD_CONSTANT, 0.0),
        ("full_line_abs_sgn", 0.4, hb.LEAD_CONSTANT, 0.0),
        ("sym_omega", 0.0, hb.LEAD_POWER_LOG, 1.0),
        ("sym_omega", 0.4, hb.LEAD_POWER, 0.6),
        ("sym_x", 0.0, hb.LEAD_CONSTANT, 0.0),
        ("sym_x", 0.4, hb.LEAD_CONSTANT, 0.0),
    ])
    def test_no_parity_zero_order_rows(self, variant, nu, kind, exponent):
        # f = x (1 + x) e^{-x^2}: a simple zero and a g of no parity, so the
        # full-line leading terms combine g(-x) and g(x)
        f = fm.linear_combination(1.0, fm.builtin("power_gaussian", m=1, a=1.0),
                                  1.0, fm.builtin("power_gaussian", m=2, a=1.0))
        lead = hb.small_omega_asymptotic(hb.TransformSpec(variant, 1e-3, nu), f)
        assert lead.kind == kind
        assert lead.exponent == pytest.approx(exponent, abs=1e-15)
        errs = []
        for w in (1e-2, 1e-3, 1e-4):
            val = hb.evaluate_transform(hb.TransformSpec(variant, w, nu), f).value
            errs.append(abs(val / lead.evaluate(w) - 1.0))
        assert errs[0] > errs[1] > errs[2], errs

    @pytest.mark.parametrize("name,params", [
        ("exp_decay", {"a": 1.0}), ("inv_linear", {"c": 1.0}), ("fermi", {"a": 1.0})])
    @pytest.mark.parametrize("variant,nu", [
        ("full_line_sgn", 0.0), ("full_line_branch", 0.4), ("full_line_abs", 0.4),
        ("full_line_abs_sgn", 0.4)])
    def test_no_leading_term_without_negative_tail(self, name, params, variant, nu):
        # f has no declared tail on the negative axis, so the full-line
        # transform over (-inf, inf) does not exist: refuse its leading term too
        f = fm.builtin(name, **params)
        spec = hb.TransformSpec(variant, 1e-3, nu)
        with pytest.raises(TailNotIntegrable):
            hb.evaluate_transform(spec, f)
        with pytest.raises(TailNotIntegrable):
            hb.small_omega_asymptotic(spec, f)

    @pytest.mark.parametrize("variant,nu,f", [
        ("full_line_branch", 0.3, fm.builtin("gaussian", a=1.0)),
        ("full_line_branch", 0.7, fm.builtin("exp_osc", a=1.0)),
        ("full_line_abs", 0.5, fm.builtin("gaussian", a=1.0)),
        ("full_line_abs_sgn", 0.3, fm.builtin("power_gaussian", m=1, a=1.0)),
    ])
    def test_negative_probe_omega(self, variant, nu, f):
        # the singular term's sign and branch at omega < 0 carry into the
        # leading term, which then matches the transform on the negative side
        lead = hb.small_omega_asymptotic(hb.TransformSpec(variant, -1e-3, nu), f)
        errs = []
        for w in (-1e-2, -1e-3, -1e-4):
            val = hb.evaluate_transform(hb.TransformSpec(variant, w, nu), f).value
            errs.append(abs(val / lead.evaluate(w) - 1.0))
        assert errs[0] > errs[1] > errs[2], errs
        assert errs[2] <= 0.1, errs


def _catalog_specs(monkeypatch, item_id):
    """(spec, f) that the theorem route of C item item_id evaluates at its
    first two catalog samples."""
    from fpint import catalog as cat
    seen = []

    def record(spec, f, **kw):
        seen.append((spec, f))
        return hb.EvalReport(0j, 0j, 0j, 0j, 0, 0.0)

    monkeypatch.setattr(hb, "evaluate_transform", record)
    item = cat.C_ITEMS[item_id]
    for params in item.sampler(cat.SAMPLE_SEED)[:2]:
        item.theorem_route(params)
    monkeypatch.undo()
    return seen


class TestGrid:
    @pytest.mark.parametrize("fp_mode", ["auto", "generic"])
    @pytest.mark.parametrize("item_id", [f"C.{i}" for i in range(1, 33)])
    def test_rows_equal_points_on_catalog(self, monkeypatch, item_id, fp_mode):
        # a grid shares its finite parts and prefix integrals across omega;
        # each row equals its one-point evaluation bit for bit while
        # 1.25 max|omega| stays within the split radius (1 for entire f)
        scales = (-1.0, -0.5, 0.25, 0.5, 0.75, 1.0) if fp_mode == "auto" else (0.5, 1.0)
        for spec, f in _catalog_specs(monkeypatch, item_id):
            omegas = [t * spec.omega for t in scales
                      if t > 0 or spec.variant.startswith("full_line")]
            assert math.isfinite(f.rho0) or 1.25 * max(map(abs, omegas)) <= 1.0
            grid = hb.evaluate_grid(spec.variant, f, omegas, spec.nu, fp_mode=fp_mode)
            points = [hb.evaluate_transform(hb.TransformSpec(spec.variant, w, spec.nu), f,
                                            fp_mode=fp_mode) for w in omegas]
            assert [repr(r) for r in grid] == [repr(r) for r in points]

    def test_full_line_sin_past_the_split(self):
        # entire f: the grid splits every finite part at 1.25 max|omega| = pi/a,
        # past the split its smaller omegas would use alone; rows move by
        # rounding only (relative to the grid's largest value, since
        # -pi cos(a omega) crosses zero)
        a = 0.8
        f = fm.builtin("sin", a=a)
        omegas = [float(w) for w in np.linspace(0.05 * math.pi / a, 0.8 * math.pi / a, 14)]
        grid = [r.value for r in hb.evaluate_grid("full_line", f, omegas)]
        points = [hb.full_line(f, w).value for w in omegas]
        exact = [-math.pi * math.cos(a * w) for w in omegas]
        scale = max(map(abs, exact))
        assert max(abs(g - p) for g, p in zip(grid, points)) <= 1e-12 * scale
        assert max(abs(g - e) for g, e in zip(grid, exact)) <= 1e-12 * scale

    def test_first_failing_omega_raises(self):
        f = fm.builtin("inv_linear", c=1.0)     # rho0 = 1
        assert hb.evaluate_grid("one_sided", f, []) == []
        with pytest.raises(ConvergenceDomain):
            hb.evaluate_grid("one_sided", f, [0.3, 0.5, 0.995, -0.2])
        with pytest.raises(DomainError):
            hb.evaluate_grid("one_sided", f, [0.3, -0.2, 0.995])
        with pytest.raises(DomainError):
            hb.evaluate_grid("one_sided", f, [0.3, math.inf])
        # a row refused by its own series fails before a later invalid omega
        with pytest.raises(ConvergenceDomain):
            hb.evaluate_grid("one_sided", fm.builtin("gaussian", a=1.0), [1.0, 6.0, -1.0])

    def test_unknown_fp_mode_refused(self):
        f = fm.builtin("exp_decay", a=1.0)
        with pytest.raises(DomainError, match="'auto', 'generic'"):
            hb.evaluate_grid("one_sided", f, [0.3], fp_mode="genric")
        with pytest.raises(DomainError, match="'auto', 'generic'"):
            hb.evaluate_transform(hb.TransformSpec("one_sided", 0.3), f, fp_mode="genric")

    def test_one_point_grid_is_evaluate_transform(self):
        f = fm.builtin("exp_decay", a=1.0)
        spec = hb.TransformSpec("sym_omega", 0.3, 0.25)
        [row] = hb.evaluate_grid("sym_omega", f, [0.3], 0.25)
        assert repr(row) == repr(hb.evaluate_transform(spec, f))


class TestGenericRoute:
    # points where the generic route returned ~1e12 without refusing: the
    # j0^2 tails of its steep finite parts took a broken-down Wynn estimate
    @pytest.mark.parametrize("a,omega", [(1.0426, 0.4662), (0.7057, 0.7595)])
    def test_c6_sym_x_j0_squared(self, a, omega):
        from fpint.catalog import eval_closed_form
        got = hb.sym_x(fm.builtin("j0_squared", a=a), 0.0, omega, fp_mode="generic").value
        assert rel(got, eval_closed_form("C.6", {"a": a}, omega=omega)) < 1e-9

    # such points among perfbench's PointWorkload(seed, generic=True)
    # requests (C.5 at seed 2, C.8 at seed 20240801): -2.1e12 to -1.7e14
    @pytest.mark.parametrize("a,omega", [(0.9986588832840171, 0.5381776629264028),
                                         (0.7159733930606762, 0.6421737863454946)])
    def test_c5_sym_omega_j0_squared(self, a, omega):
        from fpint.catalog import eval_closed_form
        got = hb.sym_omega(fm.builtin("j0_squared", a=a), 0.0, omega, fp_mode="generic").value
        assert rel(got, eval_closed_form("C.5", {"a": a}, omega=omega)) < 1e-9

    def test_c8_sym_x_j0_squared_nu(self):
        from fpint.catalog import eval_closed_form
        a, nu, omega = 0.9846565588867223, 0.38073874747617553, 0.6356811218814757
        got = hb.sym_x(fm.builtin("j0_squared", a=a), nu, omega, fp_mode="generic").value
        assert rel(got, eval_closed_form("C.8", {"a": a, "nu": nu}, omega=omega)) < 1e-9

    def test_c28_full_line_branch_airy(self):
        from fpint.catalog import eval_closed_form
        a, nu, omega = 1.2652, 0.682, 0.3993
        got = hb.full_line_branch(fm.builtin("airy", a=a), nu, omega, fp_mode="generic").value
        assert rel(got, eval_closed_form("C.28", {"a": a, "nu": nu}, omega=omega)) < 1e-9


class TestPoleOnRange:
    # inv_linear reflected has its pole at x = c inside [0, a = 2]: every
    # finite part of the omega series is inf or nan, a refusal and not a hang
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("c", [0.7, 1.0, 1.1, 1.37])
    def test_full_line_refused(self, c, sign):
        with pytest.raises(DomainError, match=r"inv_linear.*x\^-1 over \[0, 2\]"):
            hb.full_line(fm.builtin("inv_linear", c=c), sign * 0.4 * c, a=2.0)

    def test_small_omega_refused(self):
        spec = hb.TransformSpec("full_line", 1e-3, 0.0, a=2.0)
        with pytest.raises(DomainError):
            hb.small_omega_asymptotic(spec, fm.builtin("inv_linear", c=1.0))
