import math

import pytest

from fpint.errors import ConvergenceDomain, NoConvergence
from fpint.precision import sum_series


def test_geometric_series():
    total, used, tail, peak_term = sum_series(lambda k: 0.5 ** k, 1e-12, 1000)
    assert abs(total - 2.0) < 1e-11
    assert peak_term == 1.0
    assert tail <= 1e-11
    assert used < 60


def test_stops_after_three_small_terms():
    total, used, tail, _ = sum_series(lambda k: 1.0 if k == 0 else 0.0,
                                      1e-12, 100, first_stop=0)
    assert (total, used) == (1.0, 4)
    # the tail runs from the last term above the floor
    assert tail == 1.0


def test_isolated_small_terms_do_not_stop():
    terms = [1.0, 0.0, 0.0, 1.0] + [0.0] * 10
    total, used, _, _ = sum_series(lambda k: terms[k], 1e-12, 100, first_stop=0)
    assert (total, used) == (2.0, 7)


@pytest.mark.parametrize("first_stop", [4, 10])
def test_never_stops_before_first_stop(first_stop):
    _, used, _, _ = sum_series(lambda k: 0.0, 1e-12, 100, first_stop=first_stop)
    assert used == first_stop + 1


def test_no_convergence_at_max_terms():
    with pytest.raises(NoConvergence):
        sum_series(lambda k: 1.0, 1e-12, 50)


def test_ratio_limit_refuses_boundary_series():
    with pytest.raises(ConvergenceDomain):
        sum_series(lambda k: 0.9995 ** k, 1e-12, 1000, ratio_limit=0.999)
    # the same series without the ratio test runs into the term cap
    with pytest.raises(NoConvergence):
        sum_series(lambda k: 0.9995 ** k, 1e-12, 1000)


def test_infinite_term_raises():
    # inf <= rel_tol * inf would count the term as small and return inf
    with pytest.raises(NoConvergence, match="k = 5"):
        sum_series(lambda k: math.inf if k == 5 else 0.5 ** k, 1e-12, 1000)


def test_nan_term_raises_at_once():
    # a nan term is never small: without the check the sum runs to max_terms
    calls = []

    def term(k):
        calls.append(k)
        return math.nan if k == 3 else 0.5 ** k

    with pytest.raises(NoConvergence, match="k = 3"):
        sum_series(term, 1e-12, 1000)
    assert len(calls) <= 4


# -- the Wynn epsilon exit ----------------------------------------------------

@pytest.mark.parametrize("r,tol", [(0.99, 1e-13), (-0.99, 1e-13), (-0.999, 1e-13),
                                   # extrapolating partial sums near 1 to 1000
                                   # costs about three digits to rounding
                                   (0.999, 1e-12)])
def test_wynn_geometric_near_radius(r, tol):
    # the plain rule needs thousands of terms here; epsilon is exact on a
    # geometric series from its second column on
    total, used, tail, _ = sum_series(lambda k: r ** k, 1e-12, 10_000, wynn=True)
    assert abs(total - 1.0 / (1.0 - r)) <= tol / (1.0 - r)
    assert used <= 40
    assert tail <= 1e-12 * abs(total)


def test_wynn_two_geometric_series():
    want = 1.0 / (1.0 - 0.97) + 2.0 / (1.0 + 0.8)
    total, used, _, _ = sum_series(lambda k: 0.97 ** k + 2.0 * (-0.8) ** k,
                                   1e-13, 10_000, wynn=True)
    assert abs(total - want) <= 1e-12 * want
    assert used <= 40


@pytest.mark.parametrize("term,want", [
    (lambda k: 4.0 ** k / math.factorial(2 * k), math.cosh(2.0)),
    (lambda k: 10.0 ** -(k * k), 1.1001000010000001)])
def test_wynn_leaves_a_plain_stop_bit_identical(term, want):
    # terms that fall this fast meet the small-term rule no later than the
    # epsilon estimates agree, and that rule is tested first
    plain = sum_series(term, 1e-12, 1000)
    assert sum_series(term, 1e-12, 1000, wynn=True) == plain
    assert abs(plain[0] - want) <= 1e-12 * want


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_wynn_non_finite_term_raises(bad):
    with pytest.raises(NoConvergence, match="k = 5"):
        sum_series(lambda k: bad if k == 5 else 0.99 ** k / (k + 1), 1e-12, 1000,
                   wynn=True)
