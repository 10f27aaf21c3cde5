"""Hilbert transforms by finite-part integration.

Evaluates one-sided, full-line, and parity-reduced Hilbert transforms as a
finite-part series plus a closed-form singular contribution, and verifies
every result against principal-value quadrature and an eps-extraction oracle
over a 57-entry closed-form catalog.
"""

from .catalog import (eval_closed_form, list_items, plasma_pv_series,
                      plasma_re_part, plasma_rho0, verify_item, verify_many)
from .errors import (AllZeroError, ConsistencyError, ConvergenceDomain,
                     DomainError, FitIllConditioned, FpintError, NoConvergence,
                     PoleError, ProvisoViolated, QuadratureFailure,
                     TailBoundUnmet, TailNotIntegrable, UnknownBuiltin,
                     UnknownItem)
from .finitepart import (FpKernel, FpValue, fp_epsilon_oracle, fp_quartic,
                         resolve_fp)
from .funcmodel import (AnalyticFunction, TailDecay, builtin, builtin_names,
                        factor_zero, from_coefficients, linear_combination,
                        quartic_rho0, scaled)
from .hilbert import (EvalReport, TransformSpec, evaluate_grid, evaluate_transform,
                      full_line, full_line_abs, full_line_abs_sgn,
                      full_line_branch, full_line_sgn, one_sided,
                      small_omega_asymptotic, stieltjes, sym_omega, sym_x)
from .precision import PrecisionConfig, default_precision
from .pvoracle import QuadratureBudget, pv_linear, pv_transform, regular_integral

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
