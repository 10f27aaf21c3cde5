import json
import math

import numpy as np
import pytest

from fpint import builtin, cli, pv_transform


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEvalHilbert:
    def test_full_line_exp_osc_row(self, capsys):
        code, out, _ = run(capsys, [
            "eval-hilbert", "--variant", "full-line", "--function", "exp_osc:a=1",
            "--omega", "0.5", "--hash-mode"])
        assert code == 0
        payload = json.loads(out)
        row = payload["results"][0]
        want = -1j * math.pi * np.exp(1j * 0.5)
        got = complex(row["value"]["re"], row["value"]["im"])
        assert abs(got - want) < 1e-9 * abs(want)

    def test_omega_grid(self, capsys):
        code, out, _ = run(capsys, [
            "eval-hilbert", "--variant", "one-sided", "--function", "exp_decay:a=1",
            "--omega", "0.1:0.5:5", "--hash-mode"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 5
        assert payload["results"][0]["omega"] == 0.1

    def test_negative_omega_grid(self, capsys):
        code, out, _ = run(capsys, [
            "eval-hilbert", "--variant", "full-line", "--function", "gaussian:a=1",
            "--omega", "-0.5:0.5:3", "--hash-mode"])
        assert code == 0
        assert [r["omega"] for r in json.loads(out)["results"]] == [-0.5, 0.0, 0.5]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_grid_matches_point_rows(self, capsys, fmt):
        # one grid call writes the bytes that per-point evaluation gives
        from fpint import funcmodel as fm
        from fpint import hilbert as hb
        code, out, _ = run(capsys, [
            "eval-hilbert", "--variant", "one-sided", "--function", "exp_decay:a=1",
            "--nu", "0.25", "--omega", "0.1:0.5:5", "--hash-mode", "--format", fmt])
        assert code == 0
        f = fm.builtin("exp_decay", a=1.0)
        omegas = [float(w) for w in np.linspace(0.1, 0.5, 5)]
        reps = [hb.one_sided(f, 0.25, w) for w in omegas]
        if fmt == "json":
            rows = [{"omega": w, "value": {"re": r.value.real, "im": r.value.imag},
                     "finite_part_sum": {"re": r.finite_part_sum.real,
                                         "im": r.finite_part_sum.imag},
                     "singular_contribution": {"re": r.singular_contribution.real,
                                               "im": r.singular_contribution.imag},
                     "convergent_prefix": {"re": r.convergent_prefix.real,
                                           "im": r.convergent_prefix.imag},
                     "terms_used": r.terms_used, "tail_estimate": r.tail_estimate,
                     "route_notes": r.route_notes} for w, r in zip(omegas, reps)]
            payload = {"command": "eval-hilbert", "variant": "one_sided",
                       "function": "exp_decay:a=1", "nu": 0.25, "results": rows}
            assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            lines = out.splitlines()[1:]
            want = [",".join(repr(x) for x in (
                w, r.value.real, r.value.imag, r.finite_part_sum.real,
                r.finite_part_sum.imag, r.singular_contribution.real,
                r.singular_contribution.imag, r.convergent_prefix.real,
                r.convergent_prefix.imag, r.terms_used, r.tail_estimate))
                for w, r in zip(omegas, reps)]
            assert lines == want

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_hash_mode_bytes_as_writer_that_built_every_row(self, capsys, fmt):
        # the writer below built the JSON and the CSV rows for either format;
        # the CLI now builds only the rows of its format, with the same bytes
        import csv
        import io
        from fpint import funcmodel as fm
        from fpint import hilbert as hb
        code, out, _ = run(capsys, [
            "eval-hilbert", "--variant", "sym-x", "--function", "sqrt_inv_quad:a=1.4",
            "--nu", "0.3", "--omega", "0.1:1.37:7", "--hash-mode", "--format", fmt])
        assert code == 0
        omegas = [float(w) for w in np.linspace(0.1, 1.37, 7)]
        reports = hb.evaluate_grid("sym_x", fm.builtin("sqrt_inv_quad", a=1.4), omegas,
                                   0.3, math.inf)

        def _cx(v):
            v = complex(v)
            return {"re": v.real, "im": v.imag}

        rows_json = []
        rows_csv = []
        for omega, rep in zip(omegas, reports):
            rows_json.append({
                "omega": omega, "value": _cx(rep.value),
                "finite_part_sum": _cx(rep.finite_part_sum),
                "singular_contribution": _cx(rep.singular_contribution),
                "convergent_prefix": _cx(rep.convergent_prefix),
                "terms_used": rep.terms_used, "tail_estimate": rep.tail_estimate,
                "route_notes": rep.route_notes,
            })
            rows_csv.append([repr(omega),
                             repr(rep.value.real), repr(rep.value.imag),
                             repr(rep.finite_part_sum.real), repr(rep.finite_part_sum.imag),
                             repr(rep.singular_contribution.real),
                             repr(rep.singular_contribution.imag),
                             repr(rep.convergent_prefix.real), repr(rep.convergent_prefix.imag),
                             rep.terms_used, repr(rep.tail_estimate)])
        payload = {"command": "eval-hilbert", "variant": "sym_x",
                   "function": "sqrt_inv_quad:a=1.4", "nu": 0.3, "results": rows_json}
        if fmt == "json":
            text = json.dumps(payload, indent=2, sort_keys=True)
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["omega", "value_re", "value_im", "fp_sum_re", "fp_sum_im",
                             "singular_re", "singular_im", "prefix_re", "prefix_im", "terms",
                             "tail_estimate"])
            writer.writerows(rows_csv)
            text = buf.getvalue()
        assert out == (text if text.endswith("\n") else text + "\n")

    def test_json_roundtrip_bit_identical(self, capsys):
        from fpint import funcmodel as fm
        from fpint import hilbert as hb
        code, out, _ = run(capsys, [
            "eval-hilbert", "--variant", "sym-omega", "--function", "exp_decay:a=1",
            "--nu", "0.25", "--omega", "0.3", "--hash-mode"])
        assert code == 0
        row = json.loads(out)["results"][0]
        rep = hb.sym_omega(fm.builtin("exp_decay", a=1.0), 0.25, 0.3)
        assert row["value"]["re"] == rep.value.real
        assert row["value"]["im"] == rep.value.imag


class TestEvalFp:
    def test_d1_value(self, capsys):
        code, out, _ = run(capsys, [
            "eval-fp", "--function", "exp_decay:a=1", "--k", "1", "--nu", "0.5",
            "--upper", "inf", "--hash-mode"])
        assert code == 0
        row = json.loads(out)["results"][0]
        assert abs(row["value"]["re"] + 2.0 * math.sqrt(math.pi)) < 1e-10

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, [
            "eval-fp", "--function", "exp_decay:a=1", "--k", "1", "--nu", "0.5",
            "--upper", "inf", "--format", "csv", "--hash-mode"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["function", "k", "nu"]
        assert float(lines[1].split(",")[4]) == pytest.approx(-2.0 * math.sqrt(math.pi))


class TestAsym:
    def test_one_sided_log(self, capsys):
        code, out, _ = run(capsys, [
            "asym", "--variant", "one-sided", "--function", "exp_decay:a=1",
            "--hash-mode"])
        assert code == 0
        row = json.loads(out)["results"][0]
        assert row["leading_kind"] == "log"
        assert row["coefficient"]["re"] == pytest.approx(1.0)


class TestVerify:
    def test_single_item(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        code, _, err = run(capsys, [
            "verify", "--items", "D.13", "--hash-mode", "--out", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["reports"][0]["passed"] is True
        assert "timestamp" not in payload

    def test_all_c_items(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, _, err = run(capsys, [
            "verify", "--items", "C.*", "--hash-mode", "--out", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert len(payload["reports"]) == 32
        assert all(r["passed"] for r in payload["reports"])

    def test_generic_route(self, capsys, tmp_path):
        # the C items' theorem routes without the closed-form finite parts
        reports = {}
        for route in ("auto", "generic"):
            path = tmp_path / f"{route}.json"
            code, _, _ = run(capsys, [
                "verify", "--items", "C.*", "--route", route, "--seed", "1",
                "--hash-mode", "--out", str(path)])
            assert code == 0
            reports[route] = json.loads(path.read_text())["reports"]
        assert len(reports["generic"]) == 32
        assert all(r["passed"] and r["route"] == "generic" for r in reports["generic"])
        # another route, so other theorem values; the closed forms stay
        auto, generic = reports["auto"][0]["samples"], reports["generic"][0]["samples"]
        assert [s["closed_form"] for s in auto] == [s["closed_form"] for s in generic]
        assert [s["theorem_route"] for s in auto] != [s["theorem_route"] for s in generic]

    def test_deterministic_bytes(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code, _, _ = run(capsys, [
                "verify", "--items", "D.1", "--hash-mode", "--out", str(p)])
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestList:
    def test_all_57(self, capsys):
        code, out, _ = run(capsys, ["list", "--hash-mode"])
        assert code == 0
        assert len(json.loads(out)["results"]) == 57

    def test_kernel_filter(self, capsys):
        code, out, _ = run(capsys, ["list", "--kernel", "sym_omega", "--hash-mode"])
        assert code == 0
        ids = {r["id"] for r in json.loads(out)["results"]}
        assert {"C.10", "C.20"} <= ids


class TestExitCodes:
    def test_schema_error_bad_omega(self, capsys):
        code, _, err = run(capsys, [
            "eval-hilbert", "--variant", "one-sided", "--function",
            "exp_decay:a=1", "--omega", "abc"])
        assert code == 2
        assert "schema" in err

    def test_schema_error_unknown_builtin(self, capsys):
        code, _, _ = run(capsys, [
            "eval-hilbert", "--variant", "one-sided", "--function", "nope:a=1",
            "--omega", "0.5"])
        assert code == 2

    def test_schema_error_missing_field(self, capsys):
        code, _, _ = run(capsys, ["eval-hilbert", "--variant", "one-sided"])
        assert code == 2

    @pytest.mark.parametrize("flag,value,code", [
        ("--nu", "nan", 3), ("--omega", "inf", 3), ("--omega", "nan", 3),
        ("--function", "sin:a=nan", 2)])
    def test_nonfinite_input_refused(self, capsys, flag, value, code):
        argv = ["eval-hilbert", "--variant", "one-sided", "--function", "exp_decay:a=1",
                "--omega", "0.5", "--nu", "0.25", flag, value]
        got, out, err = run(capsys, argv)
        assert (got, out) == (code, "")
        assert "Traceback" not in err

    @pytest.mark.parametrize("function,code", [
        ("exp_decay:a=1e300", 3), ("sin:a=1e300", 3), ("airy:a=1e300", 2),
        ("rational_quartic:beta=0.5,omega_j=1e-300", 2)])
    def test_float_range_refused(self, capsys, function, code):
        # a closed form or coefficient past binary64 is a numerical failure;
        # a builtin that cannot be built is a schema error
        got, out, err = run(capsys, ["eval-hilbert", "--variant", "one-sided",
                                     "--function", function, "--omega", "0.5"])
        assert (got, out) == (code, "")
        assert "Traceback" not in err and "float range" in err

    @pytest.mark.parametrize("rel_tol", ["inf", "2", "nan", "0"])
    def test_rel_tol_outside_unit_interval_refused(self, capsys, rel_tol):
        got, out, err = run(capsys, ["eval-hilbert", "--variant", "one-sided",
                                     "--function", "exp_decay:a=1", "--omega", "0.5",
                                     "--rel-tol", rel_tol])
        assert (got, out) == (2, "")
        assert "rel_tol must be in (0, 1)" in err

    def test_edge_point_answers(self, capsys):
        # fermi a=1 at omega = 3.05 < 0.99 pi, where omega^k overflowed the
        # plain sum: the epsilon exit answers
        code, out, _ = run(capsys, [
            "eval-hilbert", "--variant", "one-sided", "--function", "fermi:a=1",
            "--omega", "3.05", "--hash-mode"])
        assert code == 0
        row = json.loads(out)["results"][0]
        want = pv_transform("one_sided", builtin("fermi", a=1.0), 0.0, 3.05, math.inf)
        assert abs(complex(row["value"]["re"], row["value"]["im"]) - want) < 1e-11

    def test_huge_grid_count_refused(self, capsys):
        # refused before numpy is asked for a 1e12-point grid
        code, out, err = run(capsys, [
            "eval-hilbert", "--variant", "one-sided", "--function", "exp_decay:a=1",
            "--omega=1:2:1000000000000"])
        assert (code, out) == (2, "")
        assert str(cli.MAX_GRID_POINTS) in err and "Traceback" not in err

    def test_kernel_outside_domain(self, capsys):
        code, out, err = run(capsys, [
            "eval-fp", "--function", "exp_decay:a=1", "--k", "0", "--upper", "inf"])
        assert (code, out) == (3, "")
        assert "DomainError" in err and "Traceback" not in err

    def test_pole_on_range_refused(self, capsys):
        # inv_linear's pole at x = -1 lies inside the full line's [-2, 2]
        code, out, err = run(capsys, [
            "eval-hilbert", "--variant", "full-line", "--function", "inv_linear:c=1",
            "--omega", "0.4", "--upper", "2"])
        assert (code, out) == (3, "")
        assert "DomainError" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["asym", "--variant", "one-sided", "--function", "exp_decay:a=1", "--rel-tol", "1e-3"],
        ["verify", "--items", "D.19", "--rel-tol", "1e-3"],
        ["list", "--max-terms", "50"]])
    def test_series_options_only_on_evaluators(self, capsys, argv):
        # only eval-fp and eval-hilbert read --rel-tol / --max-terms
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_numerical_failure(self, capsys):
        # omega at the convergence boundary: named numerical failure, exit 3
        code, _, err = run(capsys, [
            "eval-hilbert", "--variant", "one-sided", "--function",
            "inv_linear:c=1", "--omega", "0.999"])
        assert code == 3
        assert "ConvergenceDomain" in err


def test_console_entry_point_subprocess(tmp_path):
    import os, subprocess, sys
    import fpint
    # the child sees the same fpint as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(fpint.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "fpint.cli", "verify", "--items", "D.19",
             "--hash-mode", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    # cross-process byte determinism
    assert out1.read_bytes() == out2.read_bytes()


def test_env_precision_override(monkeypatch):
    from fpint.precision import default_precision
    monkeypatch.setenv("FPINT_PRECISION", "1e-9")
    assert default_precision().rel_tol == 1e-9
    monkeypatch.setenv("FPINT_PRECISION", "garbage")
    with pytest.raises(ValueError):
        default_precision()


class TestJobFile:
    def test_job_file_merge_and_flag_override(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "variant": "one-sided", "function": "exp_decay:a=1",
            "omega": "0.2", "hash-mode": True}))
        code, out, _ = run(capsys, ["eval-hilbert", "--job", str(job)])
        assert code == 0
        assert json.loads(out)["results"][0]["omega"] == 0.2
        # flag overrides the job file
        code, out, _ = run(capsys, [
            "eval-hilbert", "--job", str(job), "--omega", "0.4"])
        assert json.loads(out)["results"][0]["omega"] == 0.4

    def test_series_field_refused_on_verify(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"items": "D.19", "rel_tol": 1e-3}))
        code, out, _ = run(capsys, ["verify", "--job", str(job)])
        assert (code, out) == (2, "")

    def test_unknown_job_field(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"variant": "one-sided", "bogus": 1}))
        code, _, _ = run(capsys, ["eval-hilbert", "--job", str(job)])
        assert code == 2


def test_consecutive_calls_share_one_parser(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"variant": "one-sided", "function": "exp_decay:a=1",
                               "omega": "0.2", "hash-mode": True}))
    argvs = [
        ["list", "--kernel", "sym_omega", "--hash-mode"],
        ["eval-hilbert", "--job", str(job)],
        # the job file's function must not carry over: still a schema error
        ["eval-hilbert", "--variant", "one-sided", "--omega", "0.5"],
        ["eval-fp", "--function", "exp_decay:a=1", "--k", "1", "--nu", "0.5",
         "--upper", "inf", "--format", "csv", "--hash-mode"],
        ["verify", "--items", "D.19", "--hash-mode"],
        ["eval-hilbert", "--job", str(job)],
    ]
    cli._parser.cache_clear()
    shared = [run(capsys, argv) for argv in argvs]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0]
    assert shared[1] == shared[-1]
