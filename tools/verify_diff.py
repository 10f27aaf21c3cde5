#!/usr/bin/env python3
"""Compare `fpint verify --format json` outputs of two trees, sample by sample.

    python tools/verify_diff.py OLD.json NEW.json [OLD2.json NEW2.json ...]

For each OLD/NEW pair (one verify run on each tree) it prints:
  - the values that moved (closed form, theorem route, oracle), with the
    worst relative move and its item;
  - every change of a `passed` flag, per sample and per item;
  - for each moved route value, whether it is now closer to the closed form
    or farther from it.
Samples are matched by item and position; a sample whose parameters or error
differ is listed as such.
"""

from __future__ import annotations

import json
import sys

ROUTES = ("theorem_route", "oracle")
FIELDS = ("closed_form",) + ROUTES


def _value(v: dict | None) -> complex | None:
    return None if v is None else complex(v["re"], v["im"])


def _load(path: str) -> dict:
    with open(path) as fh:
        return {r["item"]: r for r in json.load(fh)["reports"]}


def _rel(old: complex, new: complex) -> float:
    return abs(new - old) / max(abs(old), abs(new), 1e-300)


def compare(old_path: str, new_path: str) -> list[str]:
    """The report lines for one OLD/NEW pair."""
    old, new = _load(old_path), _load(new_path)
    lines, moves, flags = [], [], []
    n_values = 0
    for item in sorted(set(old) | set(new)):
        if item not in old or item not in new:
            lines.append(f"  {item}: only in {'NEW' if item in new else 'OLD'}")
            continue
        ro, rn = old[item], new[item]
        if ro["passed"] != rn["passed"]:
            flags.append(f"  {item}: item passed {ro['passed']} -> {rn['passed']}")
        for i, (so, sn) in enumerate(zip(ro["samples"], rn["samples"])):
            tag = f"{item}[{i}]"
            if so["params"] != sn["params"]:
                lines.append(f"  {tag}: params {so['params']} -> {sn['params']}")
                continue
            if so["error"] != sn["error"]:
                lines.append(f"  {tag}: error {so['error']!r} -> {sn['error']!r}")
            if so["passed"] != sn["passed"]:
                flags.append(f"  {tag}: sample passed {so['passed']} -> {sn['passed']}")
            closed_o, closed_n = _value(so["closed_form"]), _value(sn["closed_form"])
            for name in FIELDS:
                vo, vn = _value(so[name]), _value(sn[name])
                n_values += vo is not None
                if vo is None or vn is None or vo == vn:
                    continue
                note = ""
                if name in ROUTES and closed_o is not None and closed_n is not None:
                    eo = abs(vo - closed_o) / max(abs(closed_o), 1e-300)
                    en = abs(vn - closed_n) / max(abs(closed_n), 1e-300)
                    word = "closer" if en < eo else "farther" if en > eo else "as close"
                    note = f"  {word} (error to the closed form {eo:.3g} -> {en:.3g})"
                moves.append((_rel(vo, vn), f"{tag} {name}", note))
        if len(ro["samples"]) != len(rn["samples"]):
            lines.append(f"  {item}: {len(ro['samples'])} -> {len(rn['samples'])} samples")
    head = [f"{old_path} -> {new_path}"]
    if moves:
        worst = max(moves)
        head.append(f"values: {len(moves)} of {n_values} moved; worst "
                    f"{worst[0]:.3g} relative ({worst[1]})")
        head += [f"  {where} moved {rel:.3g}{note}" for rel, where, note in moves]
    else:
        head.append(f"values: none of {n_values} moved")
    head.append("passed flags: " + ("none changed" if not flags else f"{len(flags)} changed"))
    return head + flags + lines


def main(argv: list[str]) -> int:
    if not argv or len(argv) % 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for old_path, new_path in zip(argv[::2], argv[1::2]):
        print("\n".join(compare(old_path, new_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
