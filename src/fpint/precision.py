"""Precision configuration, the one series loop (sum_series) and the one
extrapolation layer (Wynn's epsilon: wynn_push, wynn_limit; known exponents:
normed_design), shared by the omega-series, tails and epsilon oracle."""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceDomain, NoConvergence

DEFAULT_REL_TOL = 1e-12
DEFAULT_MAX_TERMS = 10_000

# Number of consecutive sub-tolerance terms required before a series is
# declared converged (oscillating series can produce a single accidental
# small term).
CONSECUTIVE_SMALL_TERMS = 3

# Columns of the Wynn epsilon table kept by sum_series(wynn=True): column 6
# is Shanks' e_3, exact for a sum of three geometric series.  Each term costs
# O(WYNN_DEPTH); an unbounded table would cost O(k) at term k.
WYNN_DEPTH = 6

RATIO_LIMIT = 0.999     # term ratio of a series on its boundary (sum_series(wynn=True))


@dataclass(frozen=True)
class PrecisionConfig:
    """Tolerances for series summation.

    rel_tol     -- relative tolerance for truncation decisions, in (0, 1)
    max_terms   -- hard cap on summed terms (>= 32)

    Everything is computed in binary64.
    """

    rel_tol: float = DEFAULT_REL_TOL
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:     # also refuses nan and inf
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_terms < 32:
            raise ValueError("max_terms must be at least 32")

    def with_overrides(self, rel_tol: float | None = None,
                       max_terms: int | None = None) -> "PrecisionConfig":
        return PrecisionConfig(
            rel_tol=self.rel_tol if rel_tol is None else rel_tol,
            max_terms=self.max_terms if max_terms is None else max_terms,
        )


def default_precision() -> PrecisionConfig:
    """Default config; FPINT_PRECISION overrides rel_tol when set."""
    env = os.environ.get("FPINT_PRECISION")
    if env:
        try:
            rel = float(env)
        except ValueError as exc:
            raise ValueError(f"FPINT_PRECISION is not a float: {env!r}") from exc
        return PrecisionConfig(rel_tol=rel)
    return PrecisionConfig()


def wynn_push(diag: list[complex], s: complex, depth: int = WYNN_DEPTH) -> list[complex]:
    """The next ascending diagonal of Wynn's epsilon table, given the last one
    and the new partial sum s: eps_0 = s, then the cross rule

        eps_(j+1) = diag[j - 1] + 1 / (eps_j - diag[j])   (diag[-1] = 0)

    up to column depth.  A column that has stopped moving,
    |eps_j - diag[j]| <= 1e-14 |eps_j|, ends the diagonal there: a guard
    relative to the column's value, since an absolute one lets 1/diff blow up.
    """
    new, left = [s], 0.0
    for d in diag[:depth]:
        diff = new[-1] - d
        if abs(diff) <= 1e-14 * abs(new[-1]):
            break
        new.append(left + 1.0 / diff)
        left = d
    return new


def wynn_limit(sums: list[complex]) -> complex:
    """Shanks' estimate of the limit of sums: the top even column of the last
    diagonal of their whole epsilon table (wynn_push at depth len(sums)).  A
    table that stops moving is read at its first stalled entry in the lowest
    column that stalls."""
    diag, stall = [], None
    for s in sums:
        new = wynn_push(diag, complex(s), len(sums))
        if len(new) <= len(diag) and (stall is None or len(new) < len(stall)):
            stall = new
        diag = new
    return stall[-1] if stall is not None else diag[(len(diag) - 1) & ~1]


def normed_design(x: np.ndarray, powers: list[float], weights=None, log=False):
    """Least-squares design of a limit with known exponents: columns 1, x^-p
    for p in powers and ln x if log, rows times weights, each column over its
    norm.  Returns (design, norms).  A column that underflows to 0 on x
    carries no information and keeps norm 1."""
    cols = [np.ones_like(x)] + [x ** (-p) for p in powers]
    cols += [np.log(x)] if log else []
    design = np.column_stack(cols)
    if weights is not None:
        design = design * weights[:, None]
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0.0] = 1.0
    return design / norms, norms


def sum_series(term: Callable[[int], complex], rel_tol: float, max_terms: int,
               first_stop: int = 4, wynn: bool = False) -> tuple[complex, int, float, float]:
    """Sum term(0) + term(1) + ... to convergence.

    A term is small when |term| <= rel_tol * max(|total|, 1e-3 * peak, 1e-300),
    peak being the largest |partial sum| so far.  The sum stops after
    CONSECUTIVE_SMALL_TERMS small terms in a row, at index first_stop or
    later (leading zero terms must not stop it early).

    wynn is for a series whose terms fall like (omega / rho0)^k toward a
    finite radius, and adds two rules.  Six consecutive term ratios >=
    RATIO_LIMIT past term 24 raise ConvergenceDomain: the series sits on its
    convergence boundary.  And each partial sum enters Wynn's epsilon table
    (at most WYNN_DEPTH columns; wynn_push), whose top even column is the
    estimate of the sum; once CONSECUTIVE_SMALL_TERMS successive differences
    of the estimate are small in the sense above, at index first_stop or
    later, the estimate is returned, far sooner than the terms get small.
    The small-term stop is tested first, so a series that stops by it
    returns exactly what it returns without wynn.

    A term that is not finite (inf or nan) raises NoConvergence.

    Returns (total, terms used, tail, peak_term): tail is the largest |term|
    from the last term above the floor on, or |est_n - est_(n-1)| when the
    epsilon estimate is returned; peak_term is the largest |term|.
    """
    total = 0.0 + 0.0j
    peak = peak_term = tail = prev_mag = 0.0
    small = agree = 0
    ratios: deque[float] = deque(maxlen=6)
    diag: list[complex] = []
    est = None
    for k in range(max_terms):
        t = complex(term(k))
        total += t
        mag = abs(t)
        if not mag < math.inf:
            raise NoConvergence(f"series term k = {k} is not finite ({t})")
        peak = max(peak, abs(total))
        peak_term = max(peak_term, mag)
        floor = rel_tol * max(abs(total), 1e-3 * peak, 1e-300)
        if mag <= floor:
            small += 1
            tail = max(tail, mag)
            if small >= CONSECUTIVE_SMALL_TERMS and k >= first_stop:
                return total, k + 1, tail, peak_term
        else:
            small = 0
            tail = mag
        if wynn and mag > 0.0:
            if prev_mag > 0.0:
                ratios.append(mag / prev_mag)
                if (k > 24 and len(ratios) == 6 and mag > floor
                        and min(ratios) >= RATIO_LIMIT):
                    raise ConvergenceDomain(
                        f"series term ratio ~{min(ratios):.4f} >= {RATIO_LIMIT}; "
                        "omega too close to min(a, rho0)")
            prev_mag = mag
        if wynn:
            diag = wynn_push(diag, total)
            prev_est, est = est, diag[(len(diag) - 1) & ~1]
            if prev_est is not None:
                step = abs(est - prev_est)
                agree = agree + 1 if step <= rel_tol * max(abs(est), 1e-3 * peak,
                                                            1e-300) else 0
                if agree >= CONSECUTIVE_SMALL_TERMS and k >= first_stop:
                    return est, k + 1, step, peak_term
    raise NoConvergence(f"series did not converge within {max_terms} terms")
