"""The D table rows against the builtin finite-part providers derived from them."""

import math

import pytest

from fpint import catalog, dtable
from fpint.errors import DomainError
from fpint.finitepart import resolve_fp
from fpint.funcmodel import builtin, factor_zero
from test_funcmodel import ALL_BUILTINS

WITH_HOOK = [(name, kw) for name, kw in ALL_BUILTINS if builtin(name, **kw).fp_hook]


def rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


@pytest.mark.parametrize("item_id", list(dtable.D_ITEMS))
def test_fp_hook_reproduces_row(item_id):
    row = dtable.D_ITEMS[item_id]
    for seed in (catalog.SAMPLE_SEED, 1, 2):
        for params in catalog.D_CATALOG[item_id].sampler(seed):
            f = builtin(row.builtin, **{p: params[p] for p in row.builtin_params})
            k, nu = row.kernel(params)
            assert rel(f.fp_hook(k, nu, math.inf), row.evaluate(**params)) <= 1e-14, params


@pytest.mark.parametrize("name,kw", WITH_HOOK)
def test_fp_hook_declines_finite_upper(name, kw):
    hook = builtin(name, **kw).fp_hook
    assert all(hook(k, nu, 2.0) is None for k in range(1, 7) for nu in (0.0, 0.5))


@pytest.mark.parametrize("k,nu", [(0, 0.0), (-1, 0.0), (-1, 0.5), (-2, 0.25)])
@pytest.mark.parametrize("name,kw", WITH_HOOK + [("power_gaussian", dict(m=3, a=0.6))])
def test_kernel_outside_domain_refused(name, kw, k, nu):
    f = builtin(name, **kw)
    assert f.fp_hook(k, nu, math.inf) is None
    for fn in (f, factor_zero(f)[1]):
        with pytest.raises(DomainError):
            resolve_fp(fn, k, nu, math.inf)
