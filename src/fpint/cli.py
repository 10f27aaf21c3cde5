"""Batch front end: evaluate transforms/finite parts, verify the catalog.

Subcommands: eval-fp | eval-hilbert | asym | verify | list.  Job files are
JSON with the same field names as the flags; explicit flags override job-file
fields.  Complex values serialize as {"re": ..., "im": ...} in JSON and as two
columns in CSV.  Exit codes: 0 ok, 2 usage/schema error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone
from typing import Callable, Iterable

import numpy as np

from . import catalog
from . import hilbert as hb
from .errors import FpintError
from .finitepart import resolve_fp
from .funcmodel import builtin, builtin_names
from .precision import PrecisionConfig, default_precision

_VARIANT_ALIASES = {v.replace("_", "-"): v for v in hb.VARIANTS}


class SchemaError(ValueError):
    pass


def parse_function(text: str):
    """'exp_osc:a=1' or 'rational_quartic:beta=-1.5,omega_j=1' -> builtin."""
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for chunk in rest.split(","):
            key, eq, val = chunk.partition("=")
            if not eq:
                raise SchemaError(f"malformed parameter {chunk!r} in {text!r}")
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise SchemaError(f"parameter {key!r} is not a number: {val!r}") from exc
    from .errors import DomainError, UnknownBuiltin
    try:
        return builtin(name.strip(), **params)
    except (UnknownBuiltin, DomainError) as exc:
        raise SchemaError(str(exc)) from exc


# Largest omega grid count: a grid holds its rows in memory, and a count
# beyond this is refused (SchemaError) before anything is allocated.
MAX_GRID_POINTS = 10 ** 6


def parse_omega(text: str) -> list[float]:
    """Scalar '0.5' or grid 'start:stop:count', 1 <= count <= MAX_GRID_POINTS."""
    text = str(text)
    try:
        if ":" not in text:
            return [float(text)]
        parts = text.split(":")
        if len(parts) != 3:
            raise SchemaError(f"omega grid must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SchemaError(f"malformed omega {text!r}") from exc
    if not 1 <= count <= MAX_GRID_POINTS:
        raise SchemaError(f"omega grid count must be in [1, {MAX_GRID_POINTS}], got {count}")
    return [float(v) for v in np.linspace(start, stop, count)]


def parse_upper(text: str) -> float:
    if str(text).lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError as exc:
        raise SchemaError(f"malformed upper limit {text!r}") from exc
    if value <= 0:
        raise SchemaError("upper limit must be positive or inf")
    return value


def _write(args, text: str) -> None:
    """Write text, ended by a newline, to --out or else to stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cx(v: complex | None) -> dict | None:
    """A complex value as {"re": ..., "im": ...}; None stays None."""
    if v is None:
        return None
    v = complex(v)
    return {"re": v.real, "im": v.imag}


def _cx_cols(v: complex | None) -> list[str]:
    """A complex value as its two CSV columns, both empty for None."""
    if v is None:
        return ["", ""]
    v = complex(v)
    return [repr(v.real), repr(v.imag)]


def _emit(args, payload_json: dict, csv_header: list[str],
          csv_rows: Callable[[], Iterable[list]]) -> None:
    """Write payload_json, or for --format csv the header and csv_rows(),
    which builds the rows only then."""
    if args.format == "json":
        if not args.hash_mode:
            payload_json["timestamp"] = datetime.now(timezone.utc).isoformat()
        text = json.dumps(payload_json, indent=2, sort_keys=True)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows())
        text = buf.getvalue()
    _write(args, text)


def _precision(args) -> PrecisionConfig:
    try:
        base = default_precision()
        return base.with_overrides(rel_tol=args.rel_tol, max_terms=args.max_terms)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _cmd_eval_fp(args) -> int:
    f = parse_function(args.function)
    fp = resolve_fp(f, args.k, args.nu, parse_upper(args.upper),
                    precision=_precision(args))
    row = {
        "function": args.function, "k": args.k, "nu": args.nu,
        "upper": None if parse_upper(args.upper) == math.inf else parse_upper(args.upper),
        "value": _cx(fp.value), "route": fp.route,
        "terms_used": fp.terms_used, "tail_estimate": fp.tail_estimate,
    }
    payload = {"command": "eval-fp", "results": [row]}
    _emit(args, payload,
          ["function", "k", "nu", "upper", "value_re", "value_im", "route",
           "terms", "tail_estimate"],
          lambda: [[args.function, args.k, args.nu, args.upper, *_cx_cols(fp.value),
                    fp.route, fp.terms_used, repr(fp.tail_estimate)]])
    return 0


def _cmd_eval_hilbert(args) -> int:
    f = parse_function(args.function)
    variant = _VARIANT_ALIASES.get(args.variant, args.variant)
    if variant not in hb.VARIANTS:
        raise SchemaError(f"unknown variant {args.variant!r}")
    precision = _precision(args)
    upper = parse_upper(args.upper)
    omegas = parse_omega(args.omega)
    reports = hb.evaluate_grid(variant, f, omegas, args.nu, upper, precision=precision)
    rows = list(zip(omegas, reports))
    results = [{
        "omega": omega, "value": _cx(rep.value),
        "finite_part_sum": _cx(rep.finite_part_sum),
        "singular_contribution": _cx(rep.singular_contribution),
        "convergent_prefix": _cx(rep.convergent_prefix),
        "terms_used": rep.terms_used, "tail_estimate": rep.tail_estimate,
        "route_notes": rep.route_notes,
    } for omega, rep in rows]
    payload = {"command": "eval-hilbert", "variant": variant,
               "function": args.function, "nu": args.nu, "results": results}
    _emit(args, payload,
          ["omega", "value_re", "value_im", "fp_sum_re", "fp_sum_im",
           "singular_re", "singular_im", "prefix_re", "prefix_im", "terms",
           "tail_estimate"],
          lambda: ([repr(omega), *_cx_cols(rep.value), *_cx_cols(rep.finite_part_sum),
                    *_cx_cols(rep.singular_contribution), *_cx_cols(rep.convergent_prefix),
                    rep.terms_used, repr(rep.tail_estimate)] for omega, rep in rows))
    return 0


def _cmd_asym(args) -> int:
    f = parse_function(args.function)
    variant = _VARIANT_ALIASES.get(args.variant, args.variant)
    if variant not in hb.VARIANTS:
        raise SchemaError(f"unknown variant {args.variant!r}")
    spec = hb.TransformSpec(variant, args.probe_omega, args.nu, parse_upper(args.upper))
    lead = hb.small_omega_asymptotic(spec, f)
    payload = {"command": "asym", "variant": variant, "function": args.function,
               "nu": args.nu,
               "results": [{"leading_kind": lead.kind,
                            "coefficient": _cx(lead.coefficient),
                            "exponent": lead.exponent}]}
    _emit(args, payload,
          ["leading_kind", "coefficient_re", "coefficient_im", "exponent"],
          lambda: [[lead.kind, *_cx_cols(lead.coefficient), repr(lead.exponent)]])
    return 0


def _cmd_verify(args) -> int:
    ids = sorted(catalog.ALL_ITEMS)
    wanted = [i for i in ids if fnmatch.fnmatch(i, args.items)]
    if not wanted:
        raise SchemaError(f"no catalog items match {args.items!r}")
    reports = catalog.verify_many(wanted, tolerance=args.tol, seed=args.seed,
                                  route=args.route)
    # wall-clock fields ride along only when a timestamp is written at all
    payload = {"reports": [{
        "item": r.item_id, "tolerance": r.tolerance, "seed": r.seed,
        "passed": r.passed, "route": r.route,
        **({} if args.hash_mode else {"runtime_s": round(r.runtime, 6)}),
        "notes": r.notes,
        "samples": [{
            "params": s.params, "closed_form": _cx(s.closed),
            "theorem_route": _cx(s.theorem), "oracle": _cx(s.oracle),
            "max_pairwise_rel": s.max_pairwise_rel, "passed": s.passed,
            "error": s.error,
        } for s in r.samples],
    } for r in reports]}
    _emit(args, payload,
          ["item", "params", "closed_re", "closed_im", "theorem_re", "theorem_im",
           "oracle_re", "oracle_im", "max_pairwise_rel", "tolerance", "passed", "error"],
          lambda: ([r.item_id, json.dumps(s.params, sort_keys=True), *_cx_cols(s.closed),
                    *_cx_cols(s.theorem), *_cx_cols(s.oracle), repr(s.max_pairwise_rel),
                    repr(r.tolerance), s.passed, s.error]
                   for r in reports for s in r.samples))
    n_pass = sum(1 for r in reports if r.passed)
    print(f"verified {len(reports)} items: {n_pass} passed, "
          f"{len(reports) - n_pass} failed", file=sys.stderr)
    return 0 if n_pass == len(reports) else 3


def _cmd_list(args) -> int:
    rows = catalog.list_items(kernel=args.kernel, function=args.function_filter)
    payload = {"command": "list", "results": rows}
    _emit(args, payload,
          ["id", "kind", "kernel", "function", "domain", "linked_fp_items",
           "description"],
          lambda: ([r["id"], r["kind"], r["kernel"], r["function"], r["domain"],
                    ";".join(r["linked_fp_items"]), r["description"]] for r in rows))
    return 0


def _add_common(p: argparse.ArgumentParser, series: bool = False) -> None:
    if series:                  # read only by the evaluators
        p.add_argument("--rel-tol", type=float, default=None,
                       help="series relative tolerance override")
        p.add_argument("--max-terms", type=int, default=None, help="series term cap")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--hash-mode", action="store_true",
                   help="omit timestamps for byte-identical reruns")
    p.add_argument("--job", default=None, help="JSON job file; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpint",
        description="Hilbert transforms by finite-part integration, with a "
                    "verified closed-form catalog")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-fp", help="finite part of f(x)/x^(k+nu) on (0, upper]")
    p.add_argument("--function", required=False, default=None,
                   help="builtin spec, e.g. exp_decay:a=1 "
                        f"(available: {', '.join(builtin_names())})")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--upper", default="inf")
    _add_common(p, series=True)
    p.set_defaults(func=_cmd_eval_fp, required_fields=("function", "k"))

    p = sub.add_parser("eval-hilbert", help="evaluate a transform variant")
    p.add_argument("--variant", default=None,
                   help=f"one of: {', '.join(sorted(_VARIANT_ALIASES))}")
    p.add_argument("--function", default=None)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--omega", default=None, help="scalar or start:stop:count")
    p.add_argument("--upper", default="inf")
    _add_common(p, series=True)
    p.set_defaults(func=_cmd_eval_hilbert,
                   required_fields=("variant", "function", "omega"))

    p = sub.add_parser("asym", help="leading small-omega behavior of a variant")
    p.add_argument("--variant", default=None)
    p.add_argument("--function", default=None)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--upper", default="inf")
    p.add_argument("--probe-omega", type=float, default=1e-3,
                   help="omega used only to construct the transform description")
    _add_common(p)
    p.set_defaults(func=_cmd_asym, required_fields=("variant", "function"))

    p = sub.add_parser("verify", help="cross-check catalog items")
    p.add_argument("--items", default="*", help="glob over item ids, e.g. 'C.*'")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=catalog.SAMPLE_SEED)
    p.add_argument("--route", choices=hb.FP_MODES, default="auto",
                   help="theorem route of the C items: auto (closed-form finite "
                        "parts where known) or generic (Maclaurin + tail only)")
    _add_common(p)
    p.set_defaults(func=_cmd_verify, required_fields=())

    p = sub.add_parser("list", help="list catalog items")
    p.add_argument("--kernel", default=None,
                   help="filter by kernel variant, e.g. sym_omega")
    p.add_argument("--function", dest="function_filter", default=None,
                   help="filter by integrand family, e.g. airy")
    _add_common(p)
    p.set_defaults(func=_cmd_list, required_fields=())

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs about a millisecond, and
    parsing leaves it unchanged, so consecutive main() calls share it."""
    return build_parser()


def _apply_job_file(args: argparse.Namespace) -> None:
    if not args.job:
        return
    try:
        with open(args.job, "r", encoding="utf-8") as handle:
            job = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read job file {args.job}: {exc}") from exc
    if not isinstance(job, dict):
        raise SchemaError("job file must hold a JSON object")
    for key, value in job.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise SchemaError(f"job file field {key!r} is not a known option")
        if getattr(args, attr) in (None, False):
            setattr(args, attr, value)


def _attach_negative_omega(argv: list[str]) -> list[str]:
    """Rewrite '--omega -3:3:5' as '--omega=-3:3:5'.

    argparse takes a separate value that starts with '-' and is not a plain
    number (a negative grid) for an option, and reports a missing argument.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--omega" and tok[:1] == "-" and tok[1:2] in set("0123456789."):
            out[-1] = f"--omega={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_attach_negative_omega(sys.argv[1:] if argv is None else argv))
    try:
        _apply_job_file(args)
        for field in getattr(args, "required_fields", ()):
            if getattr(args, field) is None:
                raise SchemaError(f"missing required option --{field.replace('_', '-')}")
        return args.func(args)
    except SchemaError as exc:
        print(f"fpint: schema error: {exc}", file=sys.stderr)
        return 2
    except FpintError as exc:
        print(f"fpint: numerical failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
