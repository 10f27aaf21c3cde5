import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "verify_diff.py"
_SPEC = importlib.util.spec_from_file_location("verify_diff", _PATH)
verify_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verify_diff)


def _sample(params, closed, theorem, oracle, passed=True, error=""):
    cx = (lambda v: None if v is None else {"re": v, "im": 0.0})
    return {"params": params, "closed_form": cx(closed), "theorem_route": cx(theorem),
            "oracle": cx(oracle), "max_pairwise_rel": 0.0, "passed": passed,
            "error": error}


def _write(path, samples_by_item):
    reports = [{"item": item, "tolerance": 1e-6, "seed": 1, "route": "auto",
                "notes": "", "passed": all(s["passed"] for s in samples),
                "samples": samples} for item, samples in samples_by_item.items()]
    path.write_text(json.dumps({"reports": reports}))
    return str(path)


@pytest.fixture
def pair(tmp_path):
    old = _write(tmp_path / "old.json", {
        "C.1": [_sample({"a": 1.0}, 2.0, 2.0 + 1e-12, 2.0 - 4e-9),
                _sample({"a": 2.0}, 1.0, 1.0, 1.0)],
        "D.5": [_sample({"k": 0}, 1e-16, 3e-13, 2e-8, passed=False)],
    })
    new = _write(tmp_path / "new.json", {
        "C.1": [_sample({"a": 1.0}, 2.0, 2.0 + 3e-12, 2.0 - 1e-9),
                _sample({"a": 2.0}, 1.0, 1.0, 1.0)],
        "D.5": [_sample({"k": 0}, 1e-16, 3e-13, 2e-8, passed=True)],
    })
    return old, new


def test_lists_moves_with_worst_and_direction(pair):
    lines = verify_diff.compare(*pair)
    assert lines[1] == "values: 2 of 9 moved; worst 1.5e-09 relative (C.1[0] oracle)"
    theorem = next(s for s in lines if s.startswith("  C.1[0] theorem_route"))
    oracle = next(s for s in lines if s.startswith("  C.1[0] oracle"))
    assert "farther (error to the closed form 5e-13 -> 1.5e-12)" in theorem
    assert "closer (error to the closed form 2e-09 -> 5e-10)" in oracle


def test_lists_passed_flag_changes(pair):
    lines = verify_diff.compare(*pair)
    assert "passed flags: 2 changed" in lines
    assert "  D.5: item passed False -> True" in lines
    assert "  D.5[0]: sample passed False -> True" in lines


def test_identical_runs_report_nothing(pair):
    old, _ = pair
    assert verify_diff.compare(old, old)[1:] == ["values: none of 9 moved",
                                                 "passed flags: none changed"]


def test_main_takes_pairs(pair, capsys):
    assert verify_diff.main([*pair, *pair]) == 0
    assert capsys.readouterr().out.count("passed flags: 2 changed") == 2
    assert verify_diff.main([pair[0]]) == 2
