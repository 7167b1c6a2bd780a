import json
import logging
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ftdiff
from ftdiff.cli import main

SQRT8 = math.sqrt(8.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_imports_only_stdlib_numpy_and_ftdiff():
    # the runtime dependency is numpy only; the interpreter may preload
    # other packages at start-up, so only what the import adds counts
    code = (
        "import json, sys\n"
        "before = {m.partition('.')[0] for m in sys.modules}\n"
        "import ftdiff, ftdiff.cli\n"
        "after = {m.partition('.')[0] for m in sys.modules}\n"
        "formatter = 'ftdiff._gfmt' in sys.modules\n"
        "import ftdiff._gfmt as g\n"
        "from ftdiff import convtime as c\n"
        "built = [f.cache_info().currsize for f in (g._tables, g._layouts, c._profile,\n"
        "                                           c._graded_edges)]\n"
        "print(json.dumps([sorted(after - before), formatter, built]))\n"
    )
    src = str(Path(ftdiff.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                         timeout=60, check=True, capture_output=True, text=True).stdout
    added, formatter, built = json.loads(out)
    added = set(added)
    assert "ftdiff" in added and "numpy" in added
    assert added - set(sys.stdlib_module_names) <= {"ftdiff", "numpy"}, added
    # cli and convtime import logging only where a record is made or -v is given
    assert "logging" not in added
    # result_to_csv imports its formatter, which builds its tables on first use;
    # each function's Psi'_1 profile and t0_exact's graded panel ends are cached on first use
    assert not formatter and built == [0, 0, 0, 0]
    assert not added & {"fractions", "decimal"}


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.strip() == "ftdiff 0.1.0"

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "table1", "--wat")
        assert code == 2

    def test_help_exits_clean(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "subcommand" in out or "check" in out

    @pytest.mark.parametrize("argv", [
        ("convtime", "--k1", "2", "--k2", "1", "--k3", "1", "--global", "--grid-points", "16"),
        ("check", "--format", "json"),
        ("table1",),
    ])
    def test_verbose_changes_stderr_only(self, capsys, argv):
        # JSON, JSON and CSV on stdout; only the worst-case search logs
        code, quiet, quiet_err = run_cli(capsys, *argv)
        assert code == 0 and quiet_err == ""
        for flag in ("-v", "--verbose"):
            code, loud, err = run_cli(capsys, flag, *argv)
            assert code == 0
            assert loud == quiet
            if argv[0] == "convtime":
                assert err.startswith("ftdiff: global_convtime_numeric ured at (2, 1, 1): ")
                assert "blocks refined" in err
                assert "tails closed by brackets: " in err and " right, half-widths " in err
            else:
                assert err == ""
        log = logging.getLogger("ftdiff")
        assert not log.handlers and log.level == logging.NOTSET

    def test_verbose_pointwise_convtime_logs_the_t0_record(self, capsys):
        argv = ("convtime", "--dgf", "exp", "--k1", "6", "--k2", "4.5", "--k3", "4.303",
                "--x1", "2.5", "--x2", "-1")
        code, quiet, quiet_err = run_cli(capsys, *argv)
        assert code == 0 and quiet_err == ""
        code, loud, err = run_cli(capsys, "-v", *argv)
        assert code == 0 and loud == quiet
        [line] = err.splitlines()
        assert line.startswith("ftdiff: t0_exact exp at (6, 4.5, 4.303) from (2.5, -1): ")
        assert " panels, " in line and "0 rounds of bisection" in line
        assert "against tol 1.00e-08, tail bound " in line

    def test_verbose_writes_files_unchanged(self, capsys, tmp_path):
        argv = ("convtime", "--k1", "5", "--k2", "1", "--k3", "1", "--global",
                "--grid-points", "16", "--out")
        assert run_cli(capsys, *argv, str(tmp_path / "quiet"))[0] == 0
        code, _, err = run_cli(capsys, "-v", *argv, str(tmp_path / "loud"))
        assert code == 0 and "global_convtime_numeric" in err
        assert ((tmp_path / "loud" / "convtime.json").read_bytes()
                == (tmp_path / "quiet" / "convtime.json").read_bytes())


class TestCheck:
    def test_default_is_admissible(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        assert "generating function: ured" in out
        assert "admissible: yes" in out
        assert "FAIL" not in out
        assert repr(math.pi) in out

    def test_exp_constants(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--dgf", "exp")
        assert code == 0
        assert "admissible: yes" in out
        assert "C = 1.0" in out

    def test_sqrt_rejected_but_reported(self, capsys):
        # reporting a non-admissible function is a successful check run
        code, out, _ = run_cli(capsys, "check", "--dgf", "sqrt")
        assert code == 0
        assert "not admissible" in out
        assert "admissible: yes" not in out

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "check", "--dgf", "nope")
        assert code == 2
        assert "error:" in err

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "ured"
        assert doc["admissible"] is True
        assert doc["constants"]["B"] == pytest.approx(math.pi, rel=1e-12)
        assert len(doc["checks"]) == 5
        assert all(c["passed"] for c in doc["checks"])
        assert doc["manifest"]["command"] == "check"
        assert doc["manifest"]["rng"] == "PCG64"
        assert "created" not in doc["manifest"]


class TestCustomExpressions:
    def test_verbose_check_logs_the_admissibility_record(self, capsys):
        argv = ("check", "--phi", "sign(x)*(sqrt(abs(x)) + abs(x)**1.5)",
                "--phi-prime", "0.5/sqrt(abs(x)) + 1.5*sqrt(abs(x))",
                "--phi-second", "sign(x)*(-0.25*abs(x)**-1.5 + 0.75*abs(x)**-0.5)")
        for form in ((), ("--format", "json")):
            code, quiet, quiet_err = run_cli(capsys, *argv, *form)
            assert code == 0 and quiet_err == ""
            # each run compiles new callables, so the constants are computed again
            code, loud, err = run_cli(capsys, "-v", *argv, *form)
            assert code == 0 and loud == quiet
            [line] = err.splitlines()
            assert line.startswith("ftdiff: compute_admissibility custom: B 3.14159265")
            assert "grid edge: D at the lower end" in line

    def test_check_evaluates_each_callable_on_the_check_points_once(self, capsys, monkeypatch):
        from ftdiff import cli, dgf
        from ftdiff.expr import compile_expression

        calls = []

        def counting(text):
            fn = compile_expression(text)

            def f(x):
                calls.append((text, np.array(x, dtype=float)))
                return fn(x)
            return f

        monkeypatch.setattr(cli, "compile_expression", counting)
        texts = ("sign(x)*(sqrt(abs(x)) + abs(x)**1.5)", "0.5/sqrt(abs(x)) + 1.5*sqrt(abs(x))",
                 "sign(x)*(-0.25*abs(x)**-1.5 + 0.75*abs(x)**-0.5)")
        code, out, _ = run_cli(capsys, "check", "--phi", texts[0], "--phi-prime", texts[1],
                               "--phi-second", texts[2])
        assert code == 0 and "admissible: yes" in out
        for text, (points, _) in zip(texts, (dgf._CHECK_PHI_AT, dgf._CHECK_PRIME_AT,
                                             dgf._CHECK_SECOND_AT)):
            assert sum(t == text and np.array_equal(x, points) for t, x in calls) == 1

    def test_partial_flags_rejected(self, capsys):
        code, _, err = run_cli(capsys, "check", "--phi", "x")
        assert code == 2
        assert "error:" in err

    def test_identity_map_fails_checks(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--phi", "x",
                               "--phi-prime", "1", "--phi-second", "0")
        assert code == 0
        assert "FAIL" in out or "not admissible" in out

    def test_bad_identifier(self, capsys):
        code, _, err = run_cli(capsys, "check", "--phi", "x + qux(x)",
                               "--phi-prime", "1", "--phi-second", "0")
        assert code == 2
        assert "error:" in err

    def test_syntax_error_location(self, capsys):
        code, _, err = run_cli(capsys, "check", "--phi", "x +",
                               "--phi-prime", "1", "--phi-second", "0")
        assert code == 2
        assert "line 1" in err


class TestTune:
    def test_reference_gains(self, capsys):
        code, out, _ = run_cli(capsys, "tune", "--T", "1", "--L", "1",
                               "--gamma", "4.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"]["k1"] == pytest.approx(6.0, rel=1e-12)
        assert doc["kappa"]["k2"] == pytest.approx(4.5, rel=1e-12)
        assert doc["kappa"]["k3"] == pytest.approx(4.1820315344461525,
                                                   rel=1e-12)
        assert doc["t_tilde"] == 6.9
        assert doc["guaranteed_bound"] == 1.0
        assert doc["lbar_scaled"] == 4.5

    def test_exp_gains(self, capsys):
        code, out, _ = run_cli(capsys, "tune", "--dgf", "exp", "--T", "1",
                               "--L", "1", "--gamma", "4.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"]["k3"] == pytest.approx(4.303249839792417,
                                                   rel=1e-12)
        assert doc["t_tilde"] == 7.1

    def test_tabulated_k1_gets_rounded_ttilde(self, capsys):
        code, out, _ = run_cli(capsys, "tune", "--T", "1", "--L", "1",
                               "--gamma", "4.5", "--k1-tilde", "5")
        assert code == 0
        assert json.loads(out)["t_tilde"] == 9.3

    def test_defaults_fill_in(self, capsys):
        code, out, _ = run_cli(capsys, "tune", "--T", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["guaranteed_bound"] == 2.0
        assert doc["gamma"] > doc["manifest"]["config"]["L"]

    def test_gamma_not_above_L_infeasible(self, capsys):
        code, _, err = run_cli(capsys, "tune", "--T", "1", "--L", "4.5",
                               "--gamma", "4.5")
        assert code == 4
        assert "error:" in err

    def test_sqrt_not_admissible(self, capsys):
        code, _, err = run_cli(capsys, "tune", "--dgf", "sqrt", "--T", "1")
        assert code == 3
        assert "error:" in err

    def test_unnormalized_k1_tilde(self, capsys):
        code, _, err = run_cli(capsys, "tune", "--T", "1", "--k1-tilde", "1")
        assert code == 2
        assert "error:" in err


class TestTable1:
    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "dgf,k1_tilde,t_tilde_raw,t_tilde_rounded"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == "ured"
        assert float(first[1]) == pytest.approx(SQRT8, rel=1e-9)
        assert float(first[2]) == pytest.approx(6.868448552, rel=1e-9)
        assert first[3] == "6.9"

    def test_json_rounded_column(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["dgf"] for r in rows] == ["ured"] * 5 + ["exp"] * 5
        assert [r["t_tilde_rounded"] for r in rows] == [
            6.9, 9.3, 16.5, 24.1, 31.9, 7.1, 9.4, 16.6, 24.2, 31.9]


class TestConvtime:
    def test_pointwise_matches_library(self, capsys):
        from ftdiff.convtime import t0_exact
        from ftdiff.dgf import ParamTriple, builtin_dgf
        code, out, _ = run_cli(capsys, "convtime", "--k1", "6", "--k2", "4.5",
                               "--k3", "4.182", "--x1", "0.3", "--x2", "-0.7")
        assert code == 0
        doc = json.loads(out)
        want = t0_exact(builtin_dgf("ured"), ParamTriple(6.0, 4.5, 4.182),
                        (0.3, -0.7))
        assert doc["t0"] == pytest.approx(want, rel=1e-12)
        assert doc["x0"] == [0.3, -0.7]

    def test_pointwise_needs_initial_point(self, capsys):
        code, _, err = run_cli(capsys, "convtime", "--k1", "6", "--k2", "4.5",
                               "--k3", "4.182")
        assert code == 2
        assert "--x1 and --x2" in err

    def test_global_bound_ordering(self, capsys):
        # distinct eigenvalues: the numeric supremum attains the lower bound
        code, out, _ = run_cli(capsys, "convtime", "--k1", "5",
                               "--k2", "1", "--k3", "1", "--global",
                               "--grid-points", "48")
        assert code == 0
        doc = json.loads(out)
        lo, mid, hi = (doc["lower_bound"], doc["numeric_supremum"],
                       doc["upper_bound"])
        assert lo == pytest.approx(7.165270402841039, rel=1e-9)
        assert hi == pytest.approx(9.274604026373542, rel=1e-9)
        assert lo - 1e-4 <= mid <= hi + 1e-4
        assert mid == pytest.approx(lo, rel=1e-3)
        assert doc["note"] is None

    def test_global_complex_eigenvalues_note(self, capsys):
        code, out, _ = run_cli(capsys, "convtime", "--k1", "1", "--k2", "1",
                               "--k3", "1", "--global", "--grid-points", "48")
        assert code == 0
        doc = json.loads(out)
        assert doc["lower_bound"] is None
        assert doc["upper_bound"] is None
        assert doc["note"] == "analytic bounds not applicable (k1^2 < 8 k2)"
        assert doc["numeric_supremum"] > 0.0

    def test_perturbed_bound(self, capsys):
        code, out, _ = run_cli(capsys, "convtime", "--k1", str(SQRT8),
                               "--k2", "1", "--k3", "1", "--x1", "0.5",
                               "--x2", "0.1", "--L", "0.25")
        assert code == 0
        doc = json.loads(out)
        assert doc["lbar"] == 1.0
        assert doc["perturbed_bound"] > doc["t0"]

    def test_perturbation_beyond_lbar(self, capsys):
        code, _, err = run_cli(capsys, "convtime", "--k1", str(SQRT8),
                               "--k2", "1", "--k3", "1", "--x1", "0.5",
                               "--x2", "0.1", "--L", "1.5")
        assert code == 4
        assert "not guaranteed: L exceeds Lbar" in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dgf": "exp", "T": 2.0}))
        code, out, _ = run_cli(capsys, "tune", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["dgf"] == "exp"
        assert doc["guaranteed_bound"] == 2.0

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dgf": "exp"}))
        code, out, _ = run_cli(capsys, "tune", "--T", "1",
                               "--dgf", "ured", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["dgf"] == "ured"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, "table1", "--config", str(cfg))
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--config", "/no/such.json")
        assert code == 2
        assert "not found" in err

    def test_non_object_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "table1", "--config", str(cfg))
        assert code == 2
        assert "JSON object" in err


class TestJsonOutput:
    def test_out_dir_writes_file(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "tune", "--T", "1", "--L", "1",
                               "--gamma", "4.5", "--out", str(tmp_path))
        assert code == 0
        assert "wrote" in out
        doc = json.loads((tmp_path / "tune.json").read_text())
        assert doc["kappa"]["k1"] == pytest.approx(6.0, rel=1e-12)
        # embedded manifests carry no timestamp so reruns are byte-stable
        assert "created" not in doc["manifest"]
        assert doc["manifest"]["version"] == "0.1.0"

    def test_seed_recorded(self, capsys):
        code, out, _ = run_cli(capsys, "tune", "--T", "1", "--seed", "7")
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] == 7


class TestSimFig1:
    def test_preset_writes_artifacts(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sim", "--preset", "fig1",
                                 "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig1.csv").is_file()
        assert (tmp_path / "fig1.manifest.json").is_file()
        assert (tmp_path / "fig1_plot.py").is_file()
        assert "tau = 0.3176" in err

        lines = (tmp_path / "fig1.csv").read_text().strip().split("\n")
        assert lines[0] == "t,f,f_dot,y1,y2,x1,x2"
        assert len(lines) == 40002

        manifest = json.loads((tmp_path / "fig1.manifest.json").read_text())
        assert manifest["command"] == "sim"
        assert "created" in manifest
        assert manifest["config"]["tau"] == pytest.approx(0.3176, abs=1e-4)
        assert manifest["config"]["steady_error"] == pytest.approx(
            1.0447867040805914e-3, rel=1e-6)

    def test_bitwise_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "sim", "--preset", "fig1", "--out", str(a))[0] == 0
        assert run_cli(capsys, "sim", "--preset", "fig1", "--out", str(b))[0] == 0
        assert (a / "fig1.csv").read_bytes() == (b / "fig1.csv").read_bytes()

    def test_stdout_mode(self, capsys):
        code, out, err = run_cli(capsys, "sim", "--preset", "fig1",
                                 "--horizon", "0.01")
        assert code == 0
        assert out.startswith("t,f,f_dot,y1,y2,x1,x2")
        assert "tau = none" in err  # horizon too short to converge

    def test_tight_tolerance_never_met(self, capsys):
        # below the discrete chatter floor convergence cannot be certified
        code, _, err = run_cli(capsys, "sim", "--preset", "fig1",
                               "--tol-x2", "0.0005")
        assert code == 0
        assert "tau = none" in err


class TestSimCustom:
    def test_slope_signal_run(self, capsys):
        code, out, err = run_cli(capsys, "sim", "--signal", "slope",
                                 "--c", "2", "--horizon", "2")
        assert code == 0
        assert "tau = " in err and "tau = none" not in err

    def test_signal_required_without_preset(self, capsys):
        code, _, err = run_cli(capsys, "sim")
        assert code == 2
        assert "--signal" in err

    def test_partial_gain_triple(self, capsys):
        code, _, err = run_cli(capsys, "sim", "--signal", "fig1",
                               "--k1", "6", "--k2", "4.5")
        assert code == 2
        assert "together" in err

    def test_divergence_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "sim", "--signal", "fig1",
                               "--Ts", "0.5", "--horizon", "25",
                               "--k1", "60", "--k2", "450", "--k3", "42")
        assert code == 3
        assert "simulation diverged" in err


class TestSimFig3:
    def test_slope_sweep(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sim", "--preset", "fig3",
                             "--slopes=-5,0,5", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig3_plot.py").is_file()
        lines = (tmp_path / "fig3.csv").read_text().strip().split("\n")
        assert lines[0] == "c,tau,diverged"
        rows = {float(l.split(",")[0]): l.split(",") for l in lines[1:]}
        assert float(rows[-5.0][1]) == pytest.approx(0.278, abs=1e-3)
        assert float(rows[0.0][1]) == 0.0
        assert float(rows[5.0][1]) == pytest.approx(0.2239, abs=1e-3)
        assert all(r[2] == "0" for r in rows.values())


class TestSimFig2:
    def test_noise_sweep(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sim", "--preset", "fig2",
                             "--amplitudes", "0,1e-4", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "fig2.csv").read_text().strip().split("\n")
        assert lines[0] == ("amplitude,steady_err_fixed,steady_err_sta,"
                            "diverged_fixed,diverged_sta")
        zero = lines[1].split(",")
        small = lines[2].split(",")
        assert float(zero[1]) == pytest.approx(1.044786704e-3, rel=1e-6)
        assert float(zero[2]) == pytest.approx(1.044544464e-3, rel=1e-6)
        assert float(small[1]) == pytest.approx(1.930278018e-2, rel=1e-6)
        assert float(small[2]) == pytest.approx(1.972773653e-2, rel=1e-6)
        assert zero[3] == "0" and small[4] == "0"
