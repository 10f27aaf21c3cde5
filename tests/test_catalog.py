import json
import math

import pytest

from fpint import catalog as cat
from fpint import cli
from fpint.errors import UnknownItem


def test_item_counts():
    assert len(cat.C_ITEMS) == 32
    assert len(cat.D_CATALOG) == 25
    assert len(cat.ALL_ITEMS) == 57
    assert len(cat.list_items()) == 57


def test_linked_items_cross_consistency():
    # every C -> D link agrees with the D side's used-in annotations
    for cid, item in cat.C_ITEMS.items():
        for did in item.linked_fp_items:
            assert cid in cat.D_CATALOG[did].linked_fp_items, (cid, did)
    for did, item in cat.D_CATALOG.items():
        for cid in item.linked_fp_items:
            assert did in cat.C_ITEMS[cid].linked_fp_items, (did, cid)


def test_known_link_pairs():
    assert cat.D_CATALOG["D.1"].linked_fp_items == ("C.10", "C.11")
    assert cat.D_CATALOG["D.3"].linked_fp_items == ("C.5", "C.7", "C.8", "C.9")
    assert set(cat.C_ITEMS["C.31"].linked_fp_items) == {"D.13", "D.14", "D.15"}


def test_list_filters():
    airy_c = cat.list_items(function="airy", kind="hilbert")
    assert [r["id"] for r in airy_c] == ["C.25", "C.26", "C.27", "C.28", "C.29", "C.30"]
    sym = {r["id"] for r in cat.list_items(kernel="sym_omega")}
    assert {"C.10", "C.20"} <= sym


def test_unknown_item():
    with pytest.raises(UnknownItem):
        cat.get_item("C.99")


def test_eval_closed_form_d1():
    got = cat.eval_closed_form("D.1", {"a": 1.0, "m": 1, "nu": 0.5})
    assert abs(got + 2.0 * math.sqrt(math.pi)) < 1e-12


def test_eval_closed_form_c19_contraction():
    # at s=1, mu=1, nu=1/2 the Gauss factor collapses to 1/(1+omega):
    # the whole value reduces to 0.8 pi at omega = 1/4 (frozen PV agrees)
    got = cat.eval_closed_form("C.19", {"s": 1.0, "mu": 1.0, "nu": 0.5}, omega=0.25)
    assert abs(got - 0.8 * math.pi) < 1e-10


def test_eval_closed_form_c5_prefactor_zero():
    got = cat.eval_closed_form("C.5", {"a": 1.0}, omega=0.0)
    assert got == 0.0


def test_verify_item_d5_samples():
    samples = [{"a": 1.0, "k": 0}, {"a": 2.0, "k": 1}, {"a": 0.5, "k": 1}]
    rep = cat.verify_item("D.5", samples=samples)
    assert rep.passed, [(s.params, s.max_pairwise_rel, s.error) for s in rep.samples]


def test_verify_item_c10_samples():
    samples = [{"a": 1.0, "nu": 0.25, "omega": 0.3},
               {"a": 2.0, "nu": 0.5, "omega": 0.1},
               {"a": 1.0, "nu": 0.75, "omega": 0.6}]
    rep = cat.verify_item("C.10", samples=samples)
    assert rep.passed


def test_verify_item_domain_violation_recorded():
    # omega outside (0, pi/a) must be recorded, not raised
    bad = {"a": 2.0, "omega": math.pi / 2.0 + 0.5}
    rep = cat.verify_item("C.31", samples=[bad])
    assert not rep.passed
    assert rep.samples[0].error


def test_report_serialization_roundtrip(tmp_path):
    rep = cat.verify_item("D.13")
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--items", "D.13", "--out", str(out)]) == 0
    parsed = json.loads(out.read_text())
    assert parsed["reports"][0]["item"] == "D.13"
    assert parsed["reports"][0]["passed"] is True
    sample = parsed["reports"][0]["samples"][0]
    # bit-identical float round-trip through JSON
    assert sample["closed_form"]["re"] == rep.samples[0].closed.real

    out = tmp_path / "verify.csv"
    assert cli.main(["verify", "--items", "D.13", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + len(rep.samples)
    assert lines[0].startswith("item,params,")


def test_sampling_is_deterministic():
    item = cat.get_item("C.10")
    assert item.sampler(7) == item.sampler(7)
    assert item.sampler(7) != item.sampler(8)


def test_plasma_identity_spot():
    beta, wj, fj = 0.5, 1.0, 1.0
    gj = math.sqrt(2.0 * (1.0 - beta))
    w = 0.3 * cat.plasma_rho0(beta, wj)
    lhs = cat.plasma_pv_series(beta, wj, fj, gj, w)
    rhs = -math.pi * cat.plasma_re_part(beta, wj, fj, gj, w)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_sampler_values_pinned():
    # the seed offset is the item number (C) or 100 + row index (D); nu, the
    # D.3 `lam` index and the index-free D.13 row all draw from the same rng
    want = {
        "C.1": [{"a": 2.0, "omega": 0.6}, {"a": 0.8, "omega": 0.44000000000000006},
                {"a": 1.4, "omega": 1.1199999999999999}],
        "C.16": [{"a": 1.0, "c": 1.8, "omega": 0.54},
                 {"a": 1.5, "c": 0.8, "omega": 0.44000000000000006},
                 {"a": 0.5, "c": 1.3, "omega": 1.04}],
        "C.19": [{"s": 0.8, "mu": 2.2, "nu": 0.5, "omega": 0.24},
                 {"s": 1.3, "mu": 0.6, "nu": 0.8, "omega": 0.7150000000000001},
                 {"s": 1.8, "mu": 1.4000000000000001, "nu": 0.2,
                  "omega": 1.4400000000000002}],
        "C.31": [{"a": 1.5, "omega": 0.6283185307179585},
                 {"a": 0.7, "omega": 2.4683942278205517},
                 {"a": 1.1, "omega": 2.284794657156213}],
        "D.3": [{"a": 1.25, "lam": 1.9500000000000002}, {"a": 2.0, "lam": 2.6},
                {"a": 0.5, "lam": 1.3}],
        "D.13": [{"a": 1.5}, {"a": 2.5}, {"a": 0.5}],
    }
    for item_id, samples in want.items():
        assert cat.get_item(item_id).sampler(cat.SAMPLE_SEED) == samples, item_id


def test_derived_kind_and_tolerance():
    # the airy-family tolerance belongs to the C rows only; D.19-D.22 also
    # integrate Ai but keep the default
    airy = {i for i, item in cat.ALL_ITEMS.items() if item.tolerance == cat.AIRY_TOL}
    assert airy == {"C.25", "C.26", "C.27", "C.28", "C.29", "C.30"}
    assert cat.D_CATALOG["D.19"].function_family == "airy"
    for item_id, item in cat.ALL_ITEMS.items():
        assert item.kind == ("finite_part" if item_id.startswith("D") else "hilbert")


@pytest.mark.parametrize("omega", [2.6, 3.0])
def test_c31_past_gamma_overflow(omega):
    # the series needs terms past n = 86, where (2n)! leaves the float range;
    # against the PV oracle (0.39637319933584 and 0.35735356151156)
    from fpint import funcmodel as fm
    from fpint import pvoracle as pv
    got = cat.eval_closed_form("C.31", {"a": 1.0}, omega=omega)
    want = pv.pv_transform("one_sided", fm.builtin("fermi", a=1.0), 0.0, omega, math.inf)
    assert abs(got - want) < 1e-6 * abs(want)


@pytest.mark.parametrize("omega", [2.9, 3.0, 3.1])
def test_c32_past_gamma_overflow(omega):
    # omega < pi/a is inside the domain, but the series needs terms past
    # k = 170, where math.gamma(k + nu + 1) and zeta(-k - nu) overflowed
    from fpint import funcmodel as fm
    from fpint import pvoracle as pv
    got = cat.eval_closed_form("C.32", {"a": 1.0, "nu": 0.5}, omega=omega)
    want = pv.pv_transform("one_sided", fm.builtin("fermi", a=1.0), 0.5, omega, math.inf)
    assert abs(got - want) < 1e-12 * abs(want)


def test_c18_past_gamma_overflow():
    # at omega/s = 0.8 the series runs past n + mu = 171, where math.gamma
    # overflows; the closed form then weights its terms in log space
    rep = cat.verify_item("C.18", samples=[{"s": 1.3, "mu": 2.2, "omega": 1.04}])
    assert rep.passed, [(s.max_pairwise_rel, s.error) for s in rep.samples]
