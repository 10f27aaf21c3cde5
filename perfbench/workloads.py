"""Workload inputs, request execution and the correctness check.

Inputs depend only on the workload name and the seed.  Point parameters are
drawn by the benchmark over the catalog's documented parameter ranges (not
by the catalog's own sampler), so a change to the program cannot change the
inputs it is measured on.  Draws are stratified (a Latin hypercube per item
or family), so every seed covers each range evenly and seeds differ only in
the jitter inside each stratum.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field

import fpint
import fpint.cli
import numpy as np

DEFAULT_TOL = 1e-6
AIRY_TOL = 1e-5
NU_RANGE = (0.2, 0.8)
# omega band of point requests, as a share of the item's omega cap
OMEGA_BAND = (0.25, 0.8)
SAMPLES_PER_ITEM = 16
GRIDS_PER_FAMILY = 3

_ONE = lambda p: 1.0                                    # noqa: E731
_A = lambda p: p["a"]                                   # noqa: E731
_C = lambda p: p["c"]                                   # noqa: E731
_S = lambda p: p["s"]                                   # noqa: E731
_PI_A = lambda p: math.pi / p["a"]                      # noqa: E731

_SQRT = {"a": (0.8, 2.0)}
_J0 = {"a": (0.6, 1.6)}
_EXP = {"a": (0.6, 1.8)}
_SHIFT = {"a": (0.5, 1.5), "c": (0.8, 1.8)}
_POWER = {"s": (0.8, 1.8), "mu": (0.6, 2.2)}
_CUBIC = {"c": (0.8, 1.8)}
_AIRY = {"a": (0.7, 1.4)}
_FERMI = {"a": (0.7, 1.5)}

# (item, variant, builtin, parameter ranges, has nu, omega cap) for C.1-C.32,
# as documented in the catalog
C_ITEMS = [
    ("C.1", "sym_x", "sqrt_inv_quad", _SQRT, False, _A),
    ("C.2", "sym_omega", "sqrt_inv_quad", _SQRT, True, _A),
    ("C.3", "sym_x", "sqrt_inv_quad", _SQRT, True, _A),
    ("C.4", "full_line_branch", "sqrt_inv_quad", _SQRT, True, _A),
    ("C.5", "sym_omega", "j0_squared", _J0, False, _ONE),
    ("C.6", "sym_x", "j0_squared", _J0, False, _ONE),
    ("C.7", "sym_omega", "j0_squared", _J0, True, _ONE),
    ("C.8", "sym_x", "j0_squared", _J0, True, _ONE),
    ("C.9", "full_line_branch", "j0_squared", _J0, True, _ONE),
    ("C.10", "sym_omega", "exp_decay", _EXP, True, _ONE),
    ("C.11", "sym_x", "exp_decay", _EXP, True, _ONE),
    ("C.12", "full_line_abs", "exp_osc", _EXP, True, _ONE),
    ("C.13", "full_line_abs_sgn", "exp_osc", _EXP, True, _ONE),
    ("C.14", "sym_omega", "exp_decay_shift", _SHIFT, True, _C),
    ("C.15", "sym_x", "exp_decay_shift", _SHIFT, True, _C),
    ("C.16", "sym_omega", "exp_decay_shift", _SHIFT, False, _C),
    ("C.17", "sym_x", "exp_decay_shift", _SHIFT, False, _C),
    ("C.18", "one_sided", "inv_power_shift", _POWER, False, _S),
    ("C.19", "one_sided", "inv_power_shift", _POWER, True, _S),
    ("C.20", "sym_omega", "inv_power_shift", _POWER, True, _S),
    ("C.21", "sym_x", "inv_power_shift", _POWER, True, _S),
    ("C.22", "one_sided", "inv_cubic", _CUBIC, True, _C),
    ("C.23", "sym_omega", "inv_cubic", _CUBIC, True, _C),
    ("C.24", "sym_x", "inv_cubic", _CUBIC, True, _C),
    ("C.25", "full_line", "airy", _AIRY, False, _ONE),
    ("C.26", "one_sided", "airy", _AIRY, False, _ONE),
    ("C.27", "one_sided", "airy", _AIRY, True, _ONE),
    ("C.28", "full_line_branch", "airy", _AIRY, True, _ONE),
    ("C.29", "one_sided", "airy_prod", _AIRY, False, _ONE),
    ("C.30", "one_sided", "airy_prod", _AIRY, True, _ONE),
    ("C.31", "one_sided", "fermi", _FERMI, False, _PI_A),
    ("C.32", "one_sided", "fermi", _FERMI, True, _PI_A),
]
C_BY_ID = {row[0]: row for row in C_ITEMS}
AIRY_ITEMS = {"C.25", "C.26", "C.27", "C.28", "C.29", "C.30"}
CATALOG_IDS = [f"C.{i}" for i in range(1, 33)] + [f"D.{i}" for i in range(1, 26)]


def item_tol(item_id: str) -> float:
    return AIRY_TOL if item_id in AIRY_ITEMS else DEFAULT_TOL


def _strata(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def _midstrata(rng: random.Random, n: int) -> list[float]:
    """The midpoints of n equal strata of [0, 1), in random order: the same
    set for every seed."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + 0.5) / n for k in order]


def _lerp(lo_hi, u: float) -> float:
    lo, hi = lo_hi
    return lo + (hi - lo) * u


@dataclass
class Outcome:
    ok: bool
    values: list = field(default_factory=list)   # returned values, read after the call
    error: str = ""


class CheckFailure(Exception):
    """A returned value is outside tolerance, or a report is missing or malformed."""


class _References:
    """Reference values, computed outside the timed region and cached."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def _closed_or_pv(item_id, params, variant, bname, fargs, nu, omega):
    """Catalog closed form; the PV oracle where the closed form raises; None
    when neither gives a value."""
    try:
        return complex(fpint.eval_closed_form(item_id, dict(params), omega))
    except Exception:                                   # closed-form defect: fall back
        pass
    try:
        f = fpint.builtin(bname, **fargs)
        return complex(fpint.pv_transform(variant, f, nu, omega, math.inf))
    except Exception:                                   # no reference: value unchecked
        return None


def _check_values(groups: dict) -> tuple[int, float, int]:
    """groups: scale group -> list of (value, reference, tol).  Accept when
    |v - ref| <= tol * max(|ref|, largest |ref| of the group).  Returns the
    values checked, the worst deviation over tol, and the values without a
    reference."""
    checked = 0
    worst = 0.0
    unchecked = 0
    for key, rows in groups.items():
        unchecked += sum(1 for _, ref, _ in rows if ref is None)
        rows = [row for row in rows if row[1] is not None]
        if not rows:
            continue
        scale = max(abs(ref) for _, ref, _ in rows)
        for value, ref, tol in rows:
            denom = max(abs(ref), scale, 1e-300)
            dev = abs(value - ref) / denom
            checked += 1
            worst = max(worst, dev / tol)
            if not dev <= tol:
                raise CheckFailure(f"{key}: value {value} vs reference {ref} "
                                   f"(deviation {dev:.3g} > tol {tol:g})")
    return checked, worst, unchecked


# ---------------------------------------------------------------------------
# point_hook / point_generic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointRequest:
    item: str
    variant: str
    builtin: str
    fargs: tuple
    nu: float
    omega: float


class PointWorkload:
    """One evaluate_transform per request over all 32 (builtin, variant) pairs."""

    def __init__(self, seed: int, generic: bool) -> None:
        self.generic = generic
        rng = random.Random(f"point:{seed}")
        self.requests: list[PointRequest] = []
        for item, variant, bname, space, has_nu, cap in C_ITEMS:
            dims = list(space) + (["nu"] if has_nu else []) + ["omega"]
            u = {d: _strata(rng, SAMPLES_PER_ITEM) for d in dims}
            for i in range(SAMPLES_PER_ITEM):
                fargs = {k: _lerp(space[k], u[k][i]) for k in space}
                nu = _lerp(NU_RANGE, u["nu"][i]) if has_nu else 0.0
                omega = cap(fargs) * _lerp(OMEGA_BAND, u["omega"][i])
                self.requests.append(PointRequest(item, variant, bname,
                                                  tuple(fargs.items()), nu, omega))
        rng.shuffle(self.requests)
        self._refs = _References()

    def warmup(self) -> list[PointRequest]:
        seen: dict = {}
        for r in self.requests:
            seen.setdefault(r.item, r)
        return list(seen.values())

    def points(self, req: PointRequest, out: Outcome) -> int:
        return 1

    def tally(self, req: PointRequest, out: Outcome) -> tuple[int, int]:
        return 1, 0 if out.ok else 1

    def collect(self, req: PointRequest, out: Outcome) -> None:
        pass

    def values_returned(self, out: Outcome) -> int:
        return len(out.values)

    def run(self, req: PointRequest) -> Outcome:
        f = fpint.builtin(req.builtin, **dict(req.fargs))
        spec = fpint.TransformSpec(req.variant, req.omega, req.nu)
        if self.generic:
            rep = fpint.evaluate_transform(spec, f, fp_mode="generic")
        else:
            rep = fpint.evaluate_transform(spec, f)
        return Outcome(True, [(req, req.omega, complex(rep.value))])

    def check(self, outcomes) -> tuple[int, float, int]:
        groups: dict = {}
        for out in outcomes:
            for req, omega, value in out.values:
                params = dict(req.fargs)
                if C_BY_ID[req.item][4]:
                    params["nu"] = req.nu
                ref = self._refs.get(req, lambda: _closed_or_pv(
                    req.item, params, req.variant, req.builtin, dict(req.fargs),
                    req.nu, req.omega))
                groups.setdefault(req.item, []).append((value, ref, item_tol(req.item)))
        return _check_values(groups)


# ---------------------------------------------------------------------------
# grid_cli
# ---------------------------------------------------------------------------

def _ref_sin(p, omega):
    return complex(-math.pi * math.cos(p["a"] * omega))


def _ref_exp_osc(p, omega):
    return -1j * math.pi * math.copysign(1.0, p["a"]) * cmath.exp(1j * p["a"] * omega)


# (family, CLI variant, builtin, parameter ranges, nu range, omega cap,
#  catalog item of the closed form or an exact reference, points per grid,
#  two-sided omega range)
GRID_FAMILIES = [
    ("sin", "full-line", "sin", {"a": (0.6, 1.8)}, None, _PI_A, _ref_sin, (12, 24), False),
    ("exp_osc", "full-line", "exp_osc", _EXP, None, _ONE, _ref_exp_osc, (60, 120), True),
    ("fermi", "one-sided", "fermi", _FERMI, None, _PI_A, "C.31", (16, 32), False),
    ("j0_squared", "sym-omega", "j0_squared", _J0, None, _ONE, "C.5", (60, 120), False),
    ("airy", "one-sided", "airy", _AIRY, NU_RANGE, _ONE, "C.27", (60, 120), False),
    ("sqrt_inv_quad", "sym-x", "sqrt_inv_quad", _SQRT, None, _A, "C.1", (60, 120), False),
]
GRID_START = (0.02, 0.1)     # share of the cap
GRID_STOP = (0.6, 0.8)
# Grids that run to the library's own margin, 0.99 * rho0, at the parameter
# where a defect was found while sizing.  They fail at this commit on every
# seed; they stay in so that the failure is measured, not hidden.
EDGE_GRIDS = [
    ("fermi", {"a": 1.0}, 24),
    ("sqrt_inv_quad", {"a": 1.4}, 60),
]
EDGE_START = (0.45, 0.55)
EDGE_STOP = 0.99


@dataclass(frozen=True)
class GridRequest:
    family: str
    fargs: tuple
    nu: float
    start: float
    stop: float
    count: int

    def omegas(self) -> list[float]:
        return [float(v) for v in np.linspace(self.start, self.stop, self.count)]


_FAMILY = {row[0]: row for row in GRID_FAMILIES}


class GridWorkload:
    """One in-process `fpint eval-hilbert --omega start:stop:count` per request."""

    def __init__(self, seed: int, out_dir: str) -> None:
        self.out_path = os.path.join(out_dir, "grid.json")
        rng = random.Random(f"grid:{seed}")
        self.requests: list[GridRequest] = []
        for fam, _, _, space, nu_range, cap, _, counts, two_sided in GRID_FAMILIES:
            dims = list(space) + ["nu", "start", "stop"]
            u = {d: _strata(rng, GRIDS_PER_FAMILY) for d in dims}
            # grid sizes do not depend on the seed, so neither does the
            # number of points in a pass
            u["count"] = _midstrata(rng, GRIDS_PER_FAMILY)
            for i in range(GRIDS_PER_FAMILY):
                fargs = {k: _lerp(space[k], u[k][i]) for k in space}
                nu = _lerp(nu_range, u["nu"][i]) if nu_range else 0.0
                c = cap(fargs)
                stop = c * _lerp(GRID_STOP, u["stop"][i])
                start = -stop if two_sided else c * _lerp(GRID_START, u["start"][i])
                count = int(round(_lerp(counts, u["count"][i])))
                self.requests.append(GridRequest(fam, tuple(fargs.items()), nu,
                                                 start, stop, count))
        for fam, fargs, count in EDGE_GRIDS:
            c = _FAMILY[fam][5](fargs)
            self.requests.append(GridRequest(fam, tuple(fargs.items()), 0.0,
                                             c * _lerp(EDGE_START, rng.random()),
                                             c * EDGE_STOP, count))
        rng.shuffle(self.requests)
        self._refs = _References()

    def warmup(self) -> list[GridRequest]:
        seen: dict = {}
        for r in self.requests:
            seen.setdefault(r.family, r)
        return list(seen.values())

    def points(self, req: GridRequest, out: Outcome) -> int:
        return req.count

    def argv(self, req: GridRequest) -> list[str]:
        _, variant, bname, *_ = _FAMILY[req.family]
        fspec = bname + ":" + ",".join(f"{k}={v!r}" for k, v in req.fargs)
        argv = ["eval-hilbert", "--variant", variant, "--function", fspec,
                f"--omega={req.start!r}:{req.stop!r}:{req.count}"]
        if req.nu:
            argv += ["--nu", repr(req.nu)]
        return argv + ["--hash-mode", "--out", self.out_path]

    def run(self, req: GridRequest) -> Outcome:
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        rc = fpint.cli.main(self.argv(req))
        if rc != 0:
            return Outcome(False, error=f"exit code {rc}")
        return Outcome(True)

    def tally(self, req: GridRequest, out: Outcome) -> tuple[int, int]:
        return 1, 0 if out.ok else 1

    def values_returned(self, out: Outcome) -> int:
        return len(out.values)

    def collect(self, req: GridRequest, out: Outcome) -> None:
        """Read the grid's report (after the timed call) into out.values."""
        if not out.ok:
            return
        try:
            with open(self.out_path, encoding="utf-8") as handle:
                rows = json.load(handle)["results"]
        except (OSError, ValueError, KeyError) as exc:
            raise CheckFailure(f"grid report missing or malformed: {exc}") from exc
        expect = req.omegas()
        if len(rows) != len(expect):
            raise CheckFailure(f"grid report has {len(rows)} rows, expected {len(expect)}")
        values = []
        for omega, row in zip(expect, rows):
            if not math.isclose(float(row["omega"]), omega, rel_tol=1e-12, abs_tol=1e-15):
                raise CheckFailure(f"grid row omega {row['omega']} != {omega}")
            if "value" in row:
                v = row["value"]
                values.append((req, omega, complex(float(v["re"]), float(v["im"]))))
        out.values = values

    def _reference(self, req: GridRequest, omega: float) -> complex:
        fam, variant, bname, space, nu_range, cap, ref, *_ = _FAMILY[req.family]
        fargs = dict(req.fargs)
        if callable(ref):
            return ref(fargs, omega)
        params = dict(fargs)
        if nu_range:
            params["nu"] = req.nu
        return _closed_or_pv(ref, params, variant.replace("-", "_"), bname, fargs,
                             req.nu, omega)

    def check(self, outcomes) -> tuple[int, float, int]:
        groups: dict = {}
        for out in outcomes:
            for req, omega, value in out.values:
                ref = self._refs.get((req, omega), lambda: self._reference(req, omega))
                item = _FAMILY[req.family][6]
                tol = item_tol(item) if isinstance(item, str) else DEFAULT_TOL
                groups.setdefault(req, []).append((value, ref, tol))
        return _check_values(groups)


# ---------------------------------------------------------------------------
# catalog_sweep
# ---------------------------------------------------------------------------

class SweepWorkload:
    """One in-process `fpint verify` over all 57 items per request."""

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_path = os.path.join(out_dir, "verify.json")
        self.requests = ["verify"]
        self._refs = _References()

    def warmup(self) -> list:
        return ["warmup"]

    def argv(self, req) -> list[str]:
        argv = ["verify", "--seed", str(self.seed), "--hash-mode", "--out", self.out_path]
        if req == "warmup":
            argv[1:1] = ["--items", "[CD].1"]
        return argv

    def run(self, req) -> Outcome:
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        rc = fpint.cli.main(self.argv(req))
        if rc not in (0, 3):
            return Outcome(False, error=f"exit code {rc}")
        return Outcome(True)

    def collect(self, req, out: Outcome) -> None:
        """Read the verify report: one value triple and pass flag per sample."""
        if not out.ok:
            return
        try:
            with open(self.out_path, encoding="utf-8") as handle:
                reports = json.load(handle)["reports"]
            by_item = {r["item"]: r for r in reports}
            if sorted(by_item) != sorted(CATALOG_IDS):
                raise CheckFailure(f"verify report covers {len(by_item)} items, expected 57")
            values = []
            for item in CATALOG_IDS:
                samples = by_item[item]["samples"]
                if not samples:
                    raise CheckFailure(f"{item}: no samples in the verify report")
                for s in samples:
                    got = [complex(s[f]["re"], s[f]["im"])
                           for f in ("closed_form", "theorem_route", "oracle") if s[f]]
                    values.append((item, dict(s["params"]), got, bool(s["passed"])))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckFailure(f"verify report missing or malformed: {exc}") from exc
        out.values = values

    def tally(self, req, out: Outcome) -> tuple[int, int]:
        """(samples attempted, samples failed); a failed call is one failure."""
        if not out.ok:
            return 1, 1
        return len(out.values), sum(1 for *_, passed in out.values if not passed)

    def points(self, req, out: Outcome) -> int:
        return len(out.values)          # one omega per verify sample

    def values_returned(self, out: Outcome) -> int:
        return sum(len(got) for _, _, got, _ in out.values)

    def _reference(self, item: str, params: dict) -> complex | None:
        if item in C_BY_ID:
            _, variant, bname, space, has_nu, _ = C_BY_ID[item]
            fargs = {k: params[k] for k in space}
            return _closed_or_pv(item, params, variant, bname, fargs,
                                 params.get("nu", 0.0), params["omega"])
        try:
            return complex(fpint.eval_closed_form(item, dict(params)))
        except Exception:                               # no independent fallback for D items
            return None

    def check(self, outcomes) -> tuple[int, float, int]:
        groups: dict = {}
        for out in outcomes:
            for item, params, got, _ in out.values:
                key = (item, json.dumps(params, sort_keys=True))
                ref = self._refs.get(key, lambda: self._reference(item, params))
                for v in got:
                    groups.setdefault(item, []).append((v, ref, item_tol(item)))
        return _check_values(groups)


def make(name: str, seed: int, out_dir: str):
    if name == "point_hook":
        return PointWorkload(seed, generic=False)
    if name == "point_generic":
        return PointWorkload(seed, generic=True)
    if name == "grid_cli":
        return GridWorkload(seed, out_dir)
    if name == "catalog_sweep":
        return SweepWorkload(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("point_hook", "point_generic", "grid_cli", "catalog_sweep")
