import warnings

import pytest

import property_suites as ps


@pytest.mark.parametrize("suite", ps.ALL_SUITES, ids=lambda s: s.__name__)
def test_property_suite(suite):
    n, failures = suite(seed=1234)
    assert n >= 40
    assert not failures, failures[:5]


def test_total_case_count():
    total, failures = ps.run_all(seed=1234)
    assert total >= 200
    assert not failures


@pytest.mark.parametrize("seed", [2, 4, 16, 22, 23, 24, 25, 26, 28])
def test_extreme_parameters_without_warnings(seed):
    # each seed draws a case that once warned on its way to a value or a
    # refusal (exp_decay, exp_decay_shift and sqrt_inv_quad overflowing in
    # funcmodel) or leaked an OverflowError (inv_cubic at c ~ 1e103)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n, failures = ps.suite_extreme_parameters(seed)
    assert n >= 40
    assert not failures, failures
