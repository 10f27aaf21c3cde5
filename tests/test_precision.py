import math
import random

import numpy as np
import pytest

from fpint.errors import ConvergenceDomain, NoConvergence
from fpint.precision import (PrecisionConfig, default_precision, normed_design, sum_series,
                             wynn_limit, wynn_push)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-12, 1.0, 2.0, math.inf, math.nan])
def test_rel_tol_outside_unit_interval_refused(rel_tol, monkeypatch):
    # a tolerance of 1 or more stops every series after its first terms
    with pytest.raises(ValueError, match="rel_tol"):
        PrecisionConfig(rel_tol=rel_tol)
    monkeypatch.setenv("FPINT_PRECISION", repr(rel_tol))
    with pytest.raises(ValueError, match="rel_tol"):
        default_precision()


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
    # the term ratios of (k + 1)^-1/2 pass RATIO_LIMIT near k = 500, and the
    # epsilon estimate of its divergent sum never settles (a geometric series
    # at ratio 0.9995 would not do: its estimate is exact after six terms)
    with pytest.raises(ConvergenceDomain):
        sum_series(lambda k: (k + 1) ** -0.5, 1e-12, 1000, wynn=True)
    # the same series without the ratio test runs into the term cap
    with pytest.raises(NoConvergence):
        sum_series(lambda k: (k + 1) ** -0.5, 1e-12, 1000)


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


# -- the extrapolation layer: references are the two epsilon routines and the
# column-normed design it replaced, copied verbatim ---------------------------

def _reference_push(diag, s):
    new = [s]
    for j in range(min(len(diag), 6)):
        diff = new[j] - diag[j]
        if abs(diff) <= 1e-14 * abs(new[j]):
            break
        new.append((diag[j - 1] if j else 0.0) + 1.0 / diff)
    return new


def _reference_epsilon(sums):
    n = len(sums)
    if n == 1:
        return sums[0]
    e_prev = [0.0 + 0.0j] * (n + 1)
    e_curr = [complex(v) for v in sums]
    best = e_curr[-1]
    for _ in range(n - 1):
        e_next = []
        for j in range(len(e_curr) - 1):
            diff = e_curr[j + 1] - e_curr[j]
            if abs(diff) <= 1e-14 * abs(e_curr[j + 1]):
                return e_curr[j + 1]
            e_next.append(e_prev[j + 1] + 1.0 / diff)
        e_prev = e_curr
        e_curr = e_next
        if len(e_curr) >= 1 and (len(sums) - len(e_curr)) % 2 == 0:
            best = e_curr[-1]
    return best


def _bits(z):
    z = complex(z)
    return (z.real.hex(), z.imag.hex())


def _random_sums(rng, n):
    # partial sums of one to three geometric series, with or without noise;
    # one noiseless series stalls column 2, a repeated sum stalls column 0
    rs = [rng.uniform(-0.98, 0.98) for _ in range(rng.randint(1, 3))]
    cs = [complex(rng.gauss(0, 1), rng.gauss(0, 1) * rng.randint(0, 1)) for _ in rs]
    noise = rng.choice([0.0, 1e-9])
    sums, total = [], 0j
    for k in range(n):
        total += sum(c * r ** k for c, r in zip(cs, rs)) + rng.gauss(0, noise)
        sums.append(total)
    if n > 1 and rng.random() < 0.2:
        i = rng.randrange(1, n)
        sums[i] = sums[i - 1]
    return sums


def test_wynn_push_matches_reference_bit_for_bit():
    rng = random.Random(7)
    for _ in range(300):
        diag_new, diag_ref = [], []
        for s in _random_sums(rng, 30):
            diag_new, diag_ref = wynn_push(diag_new, s), _reference_push(diag_ref, s)
            assert [_bits(v) for v in diag_new] == [_bits(v) for v in diag_ref]


def _geometric_sums(n, r=0.5):
    return [complex(sum(r ** k for k in range(m + 1))) for m in range(n)]


@pytest.mark.parametrize("sums", [
    # no stall: an alternating series that falls like 1/k
    [complex(sum((-1) ** k / (k + 1) for k in range(m + 1))) for m in range(17)],
    # a geometric series is exact in column 2, which then stalls
    _geometric_sums(17),
    # a repeated sum stalls column 0, late; column 2 stalls first
    _geometric_sums(16) + _geometric_sums(16)[-1:],
    [1.0 + 0j],
], ids=["no-stall", "column-2", "column-0", "one-sum"])
def test_wynn_limit_matches_reference_bit_for_bit(sums):
    assert _bits(wynn_limit(sums)) == _bits(_reference_epsilon(sums))


def test_wynn_limit_matches_reference_on_random_sequences():
    rng = random.Random(11)
    for _ in range(300):
        sums = _random_sums(rng, rng.randint(1, 24))
        assert _bits(wynn_limit(sums)) == _bits(_reference_epsilon(sums))


def test_wynn_limit_reads_the_lowest_stalled_column():
    # column 2 stalls at the fourth sum, column 0 only at the last: the
    # table is read at column 0, as the whole table is
    sums = _geometric_sums(16) + _geometric_sums(16)[-1:]
    assert wynn_limit(sums) == sums[-1]
    assert wynn_limit(sums[:-1]) != sums[-1]


def test_normed_design_keeps_an_underflowing_column_at_norm_one():
    x = np.array([1e200, 2e200, 4e200])
    design, norms = normed_design(x, [1.0, 2.0])
    assert norms[2] == 1.0 and not design[:, 2].any()
    assert norms[0] == math.sqrt(3.0)
    assert np.all(np.isfinite(design))


def test_normed_design_weights_and_log_column():
    x = np.array([0.5, 0.25, 0.125])
    w = np.array([1.0, 2.0, 4.0])
    design, norms = normed_design(x, [1.0], w, log=True)
    raw = np.column_stack([np.ones(3), 1.0 / x, np.log(x)]) * w[:, None]
    assert np.array_equal(design * norms, raw)
