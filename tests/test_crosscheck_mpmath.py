"""Differential checks against mpmath (fully independent implementation).

The in-package quadrature oracle shares the special-function layer with the
theorem routes; these spot checks rebuild a handful of transforms from
mpmath primitives only.
"""

import math

import mpmath as mp
import pytest

from fpint import funcmodel as fm
from fpint import hilbert as hb

mp.mp.dps = 30


def mp_pv_halfline(h, w, hi=mp.inf, extra=()):
    """PV int_0^hi h(x)/(w-x) dx via symmetric subtraction in mpmath."""
    d = min(w, (hi - w) if hi != mp.inf else w, 1) / 2
    core = mp.quad(lambda t: (h(w + t) - h(w - t)) / (-t), [0, d])
    left = mp.quad(lambda x: h(x) / (w - x), [0, w - d]) if w - d > 0 else 0
    pts = [w + d] + list(extra) + ([hi] if hi != mp.inf else [5, 20, 80, mp.inf])
    right = mp.quad(lambda x: h(x) / (w - x), pts)
    return left + core + right


def rel(got, want):
    return abs(complex(got) - complex(want)) / max(abs(complex(want)), 1e-300)


def test_one_sided_airy():
    f = fm.builtin("airy", a=1.3)
    got = hb.one_sided(f, 0.0, 0.7).value
    want = mp_pv_halfline(lambda x: mp.airyai(mp.mpf('1.3') * x), mp.mpf('0.7'))
    assert rel(got, want) < 1e-10


def test_one_sided_airy_prod_nu():
    f = fm.builtin("airy_prod", a=1.0)
    got = hb.one_sided(f, 0.4, 0.6).value
    want = mp_pv_halfline(
        lambda x: mp.airyai(x) * mp.airyai(x, 1) * x ** mp.mpf('-0.4'),
        mp.mpf('0.6'))
    assert rel(got, want) < 1e-9


def test_sym_x_j0_squared_finite_upper():
    # finite upper limit: the finite-part coefficients take the generic
    # Maclaurin route (the tabulated closed forms only cover a = inf)
    f = fm.builtin("j0_squared", a=1.0)
    got = hb.sym_x(f, 0.0, 0.5, a=12.0).value
    w = mp.mpf('0.5')
    want = mp_pv_halfline(lambda x: x * mp.besselj(0, x) ** 2 / (w + x),
                          w, hi=mp.mpf(12),
                          extra=tuple(1 + 0.5 * j for j in range(22)))
    assert rel(got, want) < 1e-6


def test_sym_omega_fermi():
    f = fm.builtin("fermi", a=1.2)
    got = hb.sym_omega(f, 0.3, 0.8).value
    w = mp.mpf('0.8')

    def phi(x):
        return x ** mp.mpf('-0.3') / (mp.e ** (mp.mpf('1.2') * x) + 1) / (w + x)

    want = mp_pv_halfline(phi, w) * w
    assert rel(got, want) < 1e-9


def test_full_line_branch_gaussian():
    f = fm.builtin("gaussian", a=1.0)
    nu = mp.mpf('0.45')
    w = mp.mpf('0.55')
    got = hb.full_line_branch(f, 0.45, 0.55).value
    reflected = mp.e ** (-1j * mp.pi * nu) * mp.quad(
        lambda x: x ** (-nu) * mp.e ** (-x * x) / (w + x), [0, 1, 8])
    pole = mp_pv_halfline(lambda x: x ** (-nu) * mp.e ** (-x * x), w, hi=8)
    assert rel(got, reflected + pole) < 1e-9


def test_stieltjes_inv_cubic():
    f = fm.builtin("inv_cubic", c=1.4)
    got = hb.stieltjes(f, 0.25, 0.5).value
    want = mp.quad(lambda x: x ** mp.mpf('-0.25')
                   / ((mp.mpf('1.4') ** 3 + x ** 3) * (mp.mpf('0.5') + x)),
                   [0, 1, 10, mp.inf])
    assert rel(got, want) < 1e-10


def test_full_line_exp_osc_negative_omega():
    f = fm.builtin("exp_osc", a=1.7)
    got = hb.full_line(f, -0.9).value
    want = -1j * mp.pi * mp.e ** (1j * mp.mpf('1.7') * mp.mpf('-0.9'))
    assert rel(got, want) < 1e-10


@pytest.mark.parametrize("k,nu", [(1, 0.0), (2, 0.35), (3, 0.0)])
def test_finite_part_exp_decay_shift(k, nu):
    # generic series+tail route vs an mpmath eps-limit evaluation; the
    # subtraction coefficients must be extended precision too, since they
    # cancel eps^-(k+nu-1)-sized divergent parts
    from fpint.finitepart import resolve_fp
    f = fm.builtin("exp_decay_shift", a=0.9, c=1.1)
    got = resolve_fp(f, k, nu, math.inf, use_hook=False).value

    with mp.workdps(50):
        a_p, c_p = mp.mpf('0.9'), mp.mpf('1.1')
        e = mp.mpf(k) + mp.mpf(nu)
        eps = mp.mpf('1e-10')
        val = mp.quad(lambda u: mp.e ** (-a_p * mp.e ** u) / (mp.e ** u + c_p)
                      * mp.e ** (u * (1 - e)),
                      [mp.log(eps), mp.log(mp.mpf('1e-4')), 0, mp.log(40)])

        def coeff(n):
            # Maclaurin of exp(-a x)/(x + c): (-1)^n e_n(a c) / c^{n+1}
            partial = mp.nsum(lambda j: (a_p * c_p) ** j / mp.factorial(j),
                              [0, n]) if n else mp.mpf(1)
            return (-1) ** n * partial / c_p ** (n + 1)

        for n in range(k + 2):
            p = n - e + 1
            if p < mp.mpf('-1e-9'):
                val -= coeff(n) * (-(eps ** p) / p)
            elif abs(p) <= mp.mpf('1e-9'):
                val -= coeff(n) * (-mp.log(eps))
        assert rel(got, val) < 1e-6
