import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fpint import specfun as sf
from fpint.errors import DomainError, NoConvergence, PoleError

GAMMA_E = 0.5772156649015328606


def rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class TestGamma:
    def test_factorial_identity(self):
        assert rel(sf.gamma_real(5.0), 24.0) < 1e-14

    def test_half(self):
        assert rel(sf.gamma_real(0.5), math.sqrt(math.pi)) < 1e-14

    def test_pole(self):
        with pytest.raises(PoleError):
            sf.gamma_real(-3.0)

    def test_reflection_grid(self):
        # gamma(z) gamma(1-z) sin(pi z)/pi = 1 away from poles
        for z in [0.1, 0.37, 1.77, 3.25]:
            val = sf.gamma_real(z) * sf.gamma_real(1.0 - z) * np.sin(np.pi * z) / np.pi
            assert abs(val - 1.0) < 1e-10


class TestDigamma:
    def test_euler(self):
        assert rel(sf.digamma(1.0), -GAMMA_E) < 1e-13

    def test_shifted(self):
        assert rel(sf.digamma(3.0), 1.5 - GAMMA_E) < 1e-13

    def test_half(self):
        assert rel(sf.digamma(0.5), -GAMMA_E - 2.0 * math.log(2.0)) < 1e-13

    def test_recurrence(self):
        for z in np.linspace(0.1, 50.0, 37):
            assert abs(sf.digamma(z + 1.0) - sf.digamma(z) - 1.0 / z) < 1e-12

    def test_complex_reference(self):
        want = -1.2800917888512821807 + 2.0301057780961795872j
        assert rel(sf.digamma(0.3 + 0.4j), want) < 1e-13


class TestIncompleteGamma:
    def test_upper_at_zero(self):
        assert rel(sf.incomplete_gamma_upper(2.0, 0.0), 1.0) < 1e-14

    def test_lower_closed_form(self):
        # the lower function gamma(s, x) is Gamma(s) P(s, x)
        assert rel(math.gamma(1.0) * sf.incomplete_gamma_p(1.0, 1.0),
                   1.0 - math.exp(-1.0)) < 1e-12

    def test_upper_reference(self):
        # frozen mpmath value for Gamma(2.5, 3.7)
        assert rel(sf.incomplete_gamma_upper(2.5, 3.7), 0.25596506745382489864) < 1e-11

    def test_complex_argument(self):
        # frozen mpmath value for Gamma(0.5, 2.5i)
        want = -0.5969141790423885506 - 0.0092149573174295364795j
        assert rel(sf.incomplete_gamma_upper(0.5, 2.5j), want) < 1e-11

    @pytest.mark.parametrize("s", [0.5, 1.5, 4.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_splitting(self, s, x):
        total = sf.incomplete_gamma_upper(s, x) + math.gamma(s) * sf.incomplete_gamma_p(s, x)
        assert rel(total, math.gamma(s)) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.incomplete_gamma_p(-1.0, 2.0)
        with pytest.raises(DomainError):
            sf.incomplete_gamma_upper(-0.5, 0.0)
        with pytest.raises(DomainError):
            sf.incomplete_gamma_upper(-0.5, 1.5)


class TestPfq:
    def test_at_zero_exact(self):
        for num, den in [([1], [4 / 3, 5 / 3]), ([1, 1], [2, 2]),
                         ([0.5], [1 / 3, 2 / 3]), ([2, 3, 4], [5, 6, 7])]:
            assert sf.hyper_pfq(num, den, 0.0).value == 1.0

    def test_2f2_reference(self):
        # frozen mpmath: 2F2(1,1;2,3;2)
        got = sf.hyper_pfq([1, 1], [2, 3], 2.0).value
        assert rel(got, 1.4893434610750868797) < 1e-13

    def test_parameter_cancellation(self):
        # 2F2(1,2;2,2;z) = 1F1(1;2;z) = (e^z - 1)/z
        z = 0.5
        got = sf.hyper_pfq([1, 2], [2, 2], z).value
        assert rel(got, (math.exp(z) - 1.0) / z) < 1e-13

    def test_log_reduction(self):
        # 2F1(1,1;2;1/2) = -ln(1/2)/(1/2) = 2 ln 2
        got = sf.hyper_pfq([1, 1], [2], 0.5).value
        assert rel(got, 2.0 * math.log(2.0)) < 1e-12

    def test_denominator_pole(self):
        with pytest.raises(PoleError):
            sf.hyper_pfq([1], [-2], 0.3)

    def test_gauss_needs_unit_disk(self):
        with pytest.raises(DomainError):
            sf.hyper_pfq([1, 1], [2], 1.5)

    def test_terms_reported(self):
        res = sf.hyper_pfq([1], [2], 1.0)
        assert res.terms_used > 3


class Test2F2Asymptotic:
    # frozen extended-precision direct sums of (ia)^{k+1} s/(k+1)! 2F2(1,1;2,2+k;ias)
    FROZEN = {
        (0, 1.0, 1e4): -9.7875865887944400819 + 1.5708915453859619157j,
        (1, 2.0, 5e3): -3.1413926596982720285 - 17.575112054711102513j,
        (3, 1.0, 200.0): 0.25929942891419262688 + 0.67371244939260719764j,
        (5, -1.0, 200.0): -0.012881656889346330846 + 0.029937080661392497249j,
        (2, 0.5, 400.0): 0.54694472642058152696 - 0.19509955566025931413j,
    }

    @pytest.mark.parametrize("key", sorted(FROZEN, key=str))
    def test_against_direct_summation(self, key):
        k, a, s = key
        got = sf.hyper_2f2_asymptotic_11(k, a, s)
        assert rel(got, self.FROZEN[key]) < 1e-9

    def test_sign_flip_conjugate(self):
        # sgn(a) flips the i pi/2 part: a -> -a conjugates the value
        got = sf.hyper_2f2_asymptotic_11(2, -1.0, 1e4)
        ref = sf.hyper_2f2_asymptotic_11(2, 1.0, 1e4)
        assert rel(got, ref.conjugate()) < 1e-12

    def test_crossover_guard(self):
        with pytest.raises(DomainError):
            sf.hyper_2f2_asymptotic_11(0, 1.0, 10.0)

    def test_matches_extended_precision_at_crossover(self):
        # binary64 direct summation is hopeless past |as| ~ 30 (the whole
        # reason for the crossover); the check needs an extended-precision sum
        import mpmath as mp
        k, a, s = 1, 1.0, 80.0
        with mp.workdps(60):
            z = mp.mpc(0, a) * s
            ref = complex(mp.mpc(0, a) ** (k + 1) * s / mp.factorial(k + 1)
                          * mp.hyper([1, 1], [2, 2 + k], z))
        got = sf.hyper_2f2_asymptotic_11(k, a, s)
        assert rel(got, ref) < 1e-9

    def test_direct_route_small_argument(self):
        import mpmath as mp
        k, a, s = 2, 1.0, 12.0
        with mp.workdps(40):
            z = mp.mpc(0, a) * s
            ref = complex(mp.mpc(0, a) ** (k + 1) * s / mp.factorial(k + 1)
                          * mp.hyper([1, 1], [2, 2 + k], z))
        # the direct summation of the same quantity, the small-|a s| route
        val = sf.hyper_pfq([1.0, 1.0], [2.0, 2.0 + k], 1j * a * s).value
        got = (1j * a) ** (k + 1) * s / math.factorial(k + 1) * val
        assert rel(got, ref) < 1e-10


class TestBesselAiry:
    def test_j0_zero(self):
        assert sf.bessel_j0(0.0) == 1.0

    @pytest.mark.parametrize("x,want", [
        (7.3, 0.28821694763501439904),
        (25.0, 0.096266783275958116174),
        (120.7, 0.062549034919434445225),
    ])
    def test_j0_reference(self, x, want):
        assert rel(sf.bessel_j0(x), want) < 1e-12

    def test_airy_origin(self):
        assert rel(sf.airy_ai(0.0), 3.0 ** (-2 / 3) / math.gamma(2 / 3)) < 1e-14
        assert rel(sf.airy_ai_prime(0.0), -(3.0 ** (-1 / 3)) / math.gamma(1 / 3)) < 1e-14

    @pytest.mark.parametrize("x,want", [
        (1.3, 0.093474665771502704523),
        (-5.2, 0.25258033810474462103),
        (-30.0, -0.087968188456842162833),
        (9.5, 5.3302637046174916266e-10),
    ])
    def test_airy_reference(self, x, want):
        assert rel(sf.airy_ai(x), want) < 1e-12

    def test_airy_prime_reference(self):
        assert rel(sf.airy_ai_prime(1.3), -0.12033386559018357707) < 1e-12

    def test_bessel_i_third(self):
        assert rel(sf.bessel_i_third(1, 2.2), 2.5123869529233846721) < 1e-13
        assert rel(sf.bessel_i_third(-1, 2.2), 2.5626584487507311665) < 1e-13


class TestArrayIndependence:
    # a value must not depend on the other points that share its array
    X = np.concatenate([np.random.default_rng(20240801).uniform(-40.0, 40.0, 1000),
                        [6.001, 8.0, -6.001, -8.0, 9.0, 9.001, 21.3]])

    @pytest.mark.parametrize("fn", [sf.airy_ai, sf.airy_ai_prime])
    def test_airy_bitwise(self, fn):
        one = np.array([fn(float(x)) for x in self.X])
        assert np.array_equal(fn(self.X), one)

    def test_j0_within_an_ulp_of_its_envelope(self):
        # bessel_j0's loops stop when every point's term is small, so in an
        # array a point may add more terms below 1e-18: the shift stays under
        # an ulp of the envelope sqrt(2/(pi x)), not of J0, which has zeros
        one = np.array([sf.bessel_j0(float(x)) for x in self.X])
        env = np.minimum(1.0, np.sqrt(2.0 / (math.pi * np.abs(self.X))))
        assert np.all(np.abs(sf.bessel_j0(self.X) - one) <= np.spacing(env))


class TestNonFinite:
    # nan in gives nan out, and J0, Ai and Ai' all vanish at +-inf, with no
    # RuntimeWarning; finite points keep their one-point values
    FNS = [sf.bessel_j0, sf.airy_ai, sf.airy_ai_prime]

    @pytest.mark.parametrize("fn", FNS)
    def test_nan(self, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(fn(math.nan))
            got = fn(np.array([math.nan, 7.0, 1.0, -7.0, math.nan]))
        assert np.isnan(got[[0, 4]]).all()
        assert np.array_equal(got[1:4], [fn(7.0), fn(1.0), fn(-7.0)])

    @pytest.mark.parametrize("fn", FNS)
    @pytest.mark.parametrize("x", [math.inf, -math.inf])
    def test_infinity(self, fn, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fn(x) == 0.0
            got = fn(np.array([x, 7.0, -7.0, 1.0, 13.0]))
        assert got[0] == 0.0
        assert np.array_equal(got[1:], [fn(7.0), fn(-7.0), fn(1.0), fn(13.0)])


class TestZeta:
    def test_at_zero(self):
        assert sf.zeta_real(0.0) == -0.5

    def test_at_minus_one(self):
        assert rel(sf.zeta_real(-1.0), -1.0 / 12.0) < 1e-15

    def test_trivial_zero(self):
        assert sf.zeta_real(-2.0) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 10, 50, 150])
    def test_trivial_zeros_are_exact(self, n):
        # sin(pi s / 2) does not round to 0 at s = -2n, and the functional
        # equation scales its rounding by Gamma(1 - s): 2e-18 at s = -2 and
        # 4e62 at s = -100 before the trivial zeros were read off s
        assert sf.zeta_real(-2.0 * n) == 0.0

    def test_zeta_prime_minus_two(self):
        want = -sf.zeta_real(3.0) / (4.0 * math.pi ** 2)
        assert rel(sf.zeta_prime_at_negative_even(1), want) < 1e-13
        assert rel(sf.zeta_prime_at_negative_even(1), -0.030448457058393270780) < 1e-12

    @pytest.mark.parametrize("s,want", [
        (-1.75, -0.0099013776236705474039),
        (3.0, 1.2020569031595942854),
        (-40.5, -5530487585144642.2594),
    ])
    def test_real_values(self, s, want):
        assert rel(sf.zeta_real(s), want) < 1e-12

    @pytest.mark.parametrize("s,want", [
        (-1.0, -0.16542114370045092921),
        (-3.0, 0.0053785763577743011444),
        (-40.5, 19060914565784851.336),
    ])
    def test_prime_values(self, s, want):
        assert rel(sf.zeta_prime_real(s), want) < 1e-11

    def test_bernoulli(self):
        assert rel(float(sf._BERNOULLI[2]), 1.0 / 6.0) < 1e-15
        assert rel(float(sf._BERNOULLI[8]), -1.0 / 30.0) < 1e-15


class TestJ0Accuracy:
    # J0 against mpmath on the envelope min(1, sqrt(2/(pi x))) scale: J0 has
    # zeros, so a relative error says nothing near them
    X = np.concatenate([np.linspace(0.0, 40.0, 801),
                        [9.01, 10.0, 12.4, 12.5, 12.6, 15.0, 18.55, 19.5, 21.3]])

    def test_against_mpmath(self):
        import mpmath as mp
        with mp.workdps(30):
            want = np.array([float(mp.besselj(0, x)) for x in self.X])
        env = np.minimum(1.0, np.sqrt(2.0 / (math.pi * np.maximum(self.X, 1e-300))))
        err = np.abs(sf.bessel_j0(self.X) - want) / env
        assert err.max() < 1e-11, (err.max(), self.X[err.argmax()])

    def test_scalar_matches_array(self):
        got = sf.bessel_j0(self.X)
        assert all(sf.bessel_j0(float(x)) == g for x, g in zip(self.X, got))

    def test_huge_argument(self):
        # 1/x^2 would overflow; the filterwarnings of the suite makes a
        # RuntimeWarning from specfun an error
        x = 1e300
        assert abs(sf.bessel_j0(x)) <= math.sqrt(2.0 / (math.pi * x))

    def test_bitwise_array_independent(self):
        x = TestArrayIndependence.X
        one = np.array([sf.bessel_j0(float(v)) for v in x])
        assert np.array_equal(sf.bessel_j0(x), one)


class TestAiryNearCrossover:
    # Errors of the term-recurrence loops that preceded the Horner kernels,
    # with the same crossovers: relative for x > 0, on the envelope
    # |x|^(-/+1/4)/sqrt(pi) for x < 0 (Ai, Ai').  The bound is that error with half again for rounding, as
    # the Horner kernels sum the same terms in another order; near x = -6
    # both sit at the series' cancellation floor, about 1e-16 of its
    # largest term.
    EARLIER = {
        5.99: (8.6e-8, 1.1e-7), -5.99: (1.8e-13, 9.9e-14),
        6.001: (1.4e-10, 1.4e-10), -6.001: (9.6e-11, 3.7e-10),
        8.0: (4.3e-15, 4.2e-15), -8.0: (4.2e-15, 5.5e-15),
        9.5: (3.0e-15, 2.9e-15),
    }

    @pytest.mark.parametrize("x", sorted(EARLIER))
    def test_no_worse_than_earlier(self, x):
        import mpmath as mp
        with mp.workdps(30):
            ai, aip = float(mp.airyai(x)), float(mp.airyai(x, derivative=1))
        if x < 0:
            scale = (abs(x) ** -0.25 / math.sqrt(math.pi), abs(x) ** 0.25 / math.sqrt(math.pi))
        else:
            scale = (abs(ai), abs(aip))
        errs = (abs(sf.airy_ai(x) - ai) / scale[0], abs(sf.airy_ai_prime(x) - aip) / scale[1])
        for err, earlier in zip(errs, self.EARLIER[x]):
            assert err <= 1.5 * earlier


class TestKernelTables:
    # each point's degree is read off a sorted table of |x| breakpoints
    @pytest.mark.parametrize("table", ["_AIRY_EDGES", "_AIRY_GROWS", "_J0_SERIES_EDGES",
                                       "_J0_FALLING", "_J0_SMALL"])
    def test_sorted(self, table):
        assert np.all(np.diff(getattr(sf, table)) > 0)

    def test_series_tables_reach_their_crossovers(self):
        assert sf._AIRY_EDGES[-1] > sf._AIRY_SPLIT
        assert sf._J0_SERIES_EDGES[-1] > sf._J0_SPLIT

    def test_airy_degree_at_crossover(self):
        # at |x| = 6 the first omitted Maclaurin term of each row, with its
        # factor x (g) or x^2 (f'), is below the 1e-18 of the degree table
        k = int(np.searchsorted(sf._AIRY_EDGES, 6.0, side="right")) + 1
        coef = sf._airy_maclaurin_coeffs(k)[:, k]
        assert np.all(coef * 6.0 ** (3 * k + sf._AIRY_XPOW) < 1e-18)


def _zeta_em_reference(s, want_derivative=False):
    # _zeta_em with the Pochhammer product rebuilt for every correction term:
    # the kernel carries the product along and must keep every bit
    n_base = 24
    total = 0.0
    dtotal = 0.0
    for kk in range(1, n_base):
        p = kk ** (-s)
        total += p
        dtotal -= math.log(kk) * p
    nn = float(n_base)
    ln_n = math.log(nn)
    a = nn ** (1.0 - s) / (s - 1.0)
    total += a
    dtotal += -ln_n * a - nn ** (1.0 - s) / (s - 1.0) ** 2
    b = 0.5 * nn ** (-s)
    total += b
    dtotal -= ln_n * b
    npow = nn ** (-s - 1.0)
    for j in range(1, 16):
        coeff = float(sf._BERNOULLI[2 * j]) / math.factorial(2 * j)
        poch = 1.0
        dpoch = 0.0
        for i in range(2 * j - 1):
            dpoch = dpoch * (s + i) + poch
            poch *= s + i
        total += coeff * poch * npow
        dtotal += coeff * (dpoch - poch * ln_n) * npow
        npow /= nn * nn
    return dtotal if want_derivative else total


class TestZetaKernel:
    S = [-9.7, -7.3, -4.5, -3.1, -2.5, -1.75, -1.0, -0.49, -0.3, 0.0, 0.25, 0.5,
         0.9, 0.999, 1.001, 1.1, 1.5, 2.0, 2.5, 3.0, 4.5, 7.0, 10.0, 15.5, 22.0, 30.0]

    @pytest.mark.parametrize("s", S)
    def test_against_mpmath(self, s):
        import mpmath as mp
        with mp.workdps(30):
            z, zp = float(mp.zeta(s)), float(mp.zeta(s, derivative=1))
        assert rel(sf.zeta_real(s), z) < 1e-12
        assert rel(sf.zeta_prime_real(s), zp) < 1e-12

    def test_bitwise_equal_to_reference_loop(self):
        for s in list(np.linspace(-0.49, 30.0, 500)) + [0.0, -0.0, 2.0, 3.0]:
            for deriv in (False, True):
                assert sf._zeta_em(float(s), deriv) == _zeta_em_reference(float(s), deriv)


def test_bernoulli_table_equals_defining_recurrence():
    # sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1, B_0 = 1 (the B^- convention)
    want = [Fraction(1)]
    for m in range(1, 31):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * want[j]
        want.append(-acc / (m + 1))
    assert sf._BERNOULLI == want
