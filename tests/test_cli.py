import contextlib
import io
import json
import math
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gumbelsys import cli
from gumbelsys.cli import main

EULER_GAMMA = 0.5772156649015328

IDENTICAL = """\
[system_a]
topology = parallel
mus = 0.5, -0.5
sigma = 1.0

[system_b]
topology = parallel
mus = 0.5, -0.5
sigma = 1.0

[check]
relations = lr, hr, rh, st
direction = first_greater
grid_points = 257
"""

RH_INSTANCE = """\
[system_a]
topology = parallel
mus = 2.0, 0.0
sigma = 1.0

[system_b]
topology = parallel
mus = 1.0, 1.0
sigma = 1.0

[check]
relations = rh
direction = first_greater
"""

SERIES_HR = """\
[system_a]
topology = series
mus = 2.0, 0.0
sigma = 1.0

[system_b]
topology = series
mus = 1.0, 1.0
sigma = 1.0

[check]
relations = hr
direction = first_smaller
grid_points = 513
"""

SIGMA_MISMATCH = """\
[system_a]
topology = parallel
mus = 0.0
sigma = 1.0

[system_b]
topology = parallel
mus = 0.0
sigma = 2.0

[check]
relations = rh
"""


LU_INCONCLUSIVE = """\
[system_a]
topology = series
mus = 1.0, 0.0
sigma = 1.0

[system_b]
topology = series
mus = 0.5, 0.5
sigma = 1.0

[check]
relations = lu
t_points = 4
quad_rel_tol = 1e-20
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestCheck:
    def test_identical_systems_exit_zero(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, "c.ini", IDENTICAL)])
        out = capsys.readouterr().out
        assert code == 0
        assert "holds" in out and "lr" in out

    def test_rh_instance_holds(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, "c.ini", RH_INSTANCE)])
        assert code == 0
        assert "holds" in capsys.readouterr().out

    def test_series_hr_fails_exit_one(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, "c.ini", SERIES_HR)])
        assert code == 1
        assert "fails" in capsys.readouterr().out

    def test_inconclusive_exit_two(self, tmp_path, capsys):
        # the two forms never agree to a relative 1e-20, below the resolution
        # of the doubles
        assert main(["check", write(tmp_path, "c.ini", LU_INCONCLUSIVE)]) == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_sigma_mismatch_usage_error(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, "c.ini", SIGMA_MISMATCH)])
        assert code == 64
        assert "scale" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, "c.ini", "not an ini at all [")])
        assert code == 64
        assert "error" in capsys.readouterr().err

    def test_unknown_relation(self, tmp_path, capsys):
        bad = IDENTICAL.replace("lr, hr, rh, st", "xx")
        assert main(["check", write(tmp_path, "c.ini", bad)]) == 64

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/path.ini"]) == 64

    def test_json_report_fields_and_determinism(self, tmp_path):
        spec = write(tmp_path, "c.ini", RH_INSTANCE)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["check", spec, "--out", str(out1)]) == 0
        assert main(["check", spec, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        row = doc["verdicts"][0]
        for field in ("relation", "direction", "outcome", "witness_x", "margin"):
            assert field in row
        assert doc["config"]["system_a"]["mus"] == [2.0, 0.0]
        assert doc["exit_code"] == 0

    def test_seed_key_is_unknown(self, tmp_path, capsys):
        # check draws nothing at random: seed was accepted and ignored, and is
        # now an unknown field like any key the command never reads
        spec = write(tmp_path, "s.ini", RH_INSTANCE + "seed = 7\n")
        assert main(["check", spec]) == 64
        assert capsys.readouterr() == ("", "error: unknown field [check] seed\n")

    @pytest.mark.parametrize("relations,builds", [("lu", 0), ("disp", 0), ("disp, lu", 0),
                                                  ("hr", 1), ("st, lu", 1)])
    def test_x_grid_built_only_where_read(self, tmp_path, monkeypatch, relations, builds):
        # check used to build the x grid whatever relations it was asked for
        import gumbelsys.cli

        calls = []
        real = gumbelsys.cli.make_grid
        monkeypatch.setattr(gumbelsys.cli, "make_grid", lambda *a: calls.append(a) or real(*a))
        spec = IDENTICAL.replace("lr, hr, rh, st", relations) + "t_points = 4\n"
        assert main(["check", write(tmp_path, "c.ini", spec)]) == 0
        assert len(calls) == builds

    def test_default_section_keys_are_shared(self, tmp_path):
        spec = "[DEFAULT]\nsigma = 1.0\n\n" + IDENTICAL.replace("sigma = 1.0\n", "")
        assert main(["check", write(tmp_path, "c.ini", spec)]) == 0

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(RH_INSTANCE))
        assert main(["check", "-"]) == 0


class TestScan:
    def test_parallel_rh_sweep_passes(self, capsys):
        code = main(["scan", "--mode", "parallel-rh", "--trials", "10", "--n", "3",
                     "--seed", "5", "--grid-points", "257"])
        assert code == 0
        assert "passes=10" in capsys.readouterr().out

    def test_parallel_lr_sweep_passes(self, capsys):
        code = main(["scan", "--mode", "parallel-lr", "--trials", "10", "--n", "3",
                     "--seed", "5", "--grid-points", "257"])
        assert code == 0

    def test_series_hr_sweep_reports_failures(self, capsys):
        # hazard curves cross for majorization pairs, so the sweep must fail
        code = main(["scan", "--mode", "series-hr", "--trials", "5", "--n", "3",
                     "--seed", "5", "--grid-points", "257"])
        assert code == 1
        assert "failures=5" in capsys.readouterr().out

    def test_inconclusive_only_trial_exits_two(self, capsys):
        # exited 1, which reads as a FAILS verdict
        code = main(["scan", "--mode", "parallel-lr", "--trials", "1", "--n", "2",
                     "--gap", "1e308", "--mu-low", "1e308", "--mu-high", "1.5e308", "--out", "-"])
        doc = json.loads(capsys.readouterr().out)
        assert code == doc["exit_code"] == 2
        assert [v["outcome"] for f in doc["failures"] for v in f["verdicts"]] == ["inconclusive"]

    def test_overflowing_spread_names_it(self, capsys):
        # leaked "RuntimeWarning: overflow encountered in scalar multiply"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["scan", "--mode", "series-hr", "--trials", "1", "--n", "2",
                         "--spread", "1e308"])
        out, err = capsys.readouterr()
        assert code == 64 and out == "" and "RuntimeWarning" not in err
        assert err.startswith("error: trial 0, drawn from ") and "--spread 1e+308" in err, err

    @pytest.mark.parametrize("mode,flags,code", [
        ("parallel-rh", ["--mu-high=1e308"], 2),
        ("parallel-rh", ["--spread", "1e308"], 2),
        ("free", ["--mu-high=1e308"], 0),
    ], ids=["rh-mu-high", "rh-spread", "free-mu-high"])
    def test_non_finite_curves_are_inconclusive(self, capsys, mode, flags, code):
        # the reversed hazards overflow to inf on part of the grid, which
        # exited 64 with "rh check produced non-finite values"; an
        # inconclusive rh trial is no disagreement with the closed form
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main(["scan", "--mode", mode, "--trials", "1", "--n", "2", *flags,
                        "--out", "-"])
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert got == doc["exit_code"] == code and err == ""
        assert all(math.isfinite(m) for m in doc["min_margins"].values())
        if mode == "parallel-rh":
            (trial,) = doc["failures"]
            assert [v["outcome"] for v in trial["verdicts"]] == ["inconclusive"]
            assert "closed_form_agrees" not in trial

    def test_free_scan_consistent(self, capsys):
        code = main(["scan", "--mode", "free", "--trials", "10", "--n", "3",
                     "--seed", "5", "--grid-points", "257"])
        assert code == 0

    def test_free_scan_audit_violation_exits_one(self, capsys):
        # trial 78's lr holds on the default window, which ends at -0.137,
        # and fails on a wider one, while hr fails at -0.154, where the
        # hazard reads the tail past the window: the audit reports the
        # broken implication and the scan exits 1
        code = main(["scan", "--mode", "free", "--n", "16", "--sigmas", "0.5",
                     "--trials", "79", "--seed", "0", "--out", "-"])
        doc = json.loads(capsys.readouterr().out)
        assert code == doc["exit_code"] == 1 and doc["passes"] == 78
        (trial,) = doc["failures"]
        assert trial["trial"] == 78
        assert trial["audit_violations"] == [
            "lr holds but hr fails (first_greater); witness x=-0.1537329121819262"]

    def test_scan_report_deterministic(self, tmp_path):
        args = ["scan", "--mode", "parallel-rh", "--trials", "6", "--n", "2",
                "--seed", "9", "--grid-points", "257"]
        o1, o2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_scan_grid_defaults(self, tmp_path):
        base = ["scan", "--mode", "parallel-rh", "--trials", "2", "--n", "2", "--seed", "3"]
        implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
        assert main(base + ["--out", str(implicit)]) == 0
        assert main(base + ["--grid-points", "2049", "--tail-cutoff", "1e-8",
                            "--out", str(explicit)]) == 0
        config = json.loads(implicit.read_text())["config"]
        assert config["grid_points"] == 2049 and config["tail_cutoff"] == 1e-8
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_free_entropy_orders_use_the_point_counts(self, tmp_path):
        # free mode used to run disp and lu on the default grids whatever
        # --p-points and --t-points said
        base = ["scan", "--mode", "free", "--entropy-orders", "--trials", "2", "--n", "3",
                "--seed", "1", "--grid-points", "257"]
        margins = []
        for counts in ([], ["--t-points", "2", "--p-points", "33"]):
            out = tmp_path / f"{len(counts)}.json"
            main(base + counts + ["--out", str(out)])
            margins.append(json.loads(out.read_text())["min_margins"])
        assert margins[0] != margins[1]

    @pytest.mark.parametrize("mode", ["parallel-lr", "parallel-rh", "series-hr",
                                      "series-disp-lu"])
    def test_entropy_orders_only_in_free_mode(self, capsys, mode):
        # --entropy-orders used to be accepted and ignored outside free mode
        argv = ["scan", "--mode", mode, "--entropy-orders", "--trials", "1", "--n", "2"]
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "--entropy-orders" in err, err

    def test_bad_mode(self, capsys):
        assert main(["scan", "--mode", "bogus", "--trials", "1", "--n", "2"]) == 64

    def test_bad_trials(self):
        assert main(["scan", "--mode", "free", "--trials", "0", "--n", "2"]) == 64

    @pytest.mark.parametrize("flag,value", [("--trials", "x"), ("--trials", "0"),
                                            ("--mu-low", "q"), ("--sigmas", ""),
                                            ("--sigmas", "1,x"), ("--mode", "bogus")])
    def test_bad_flag_names_it(self, capsys, flag, value):
        argv = ["scan", "--mode", "free", "--trials", "1", "--n", "2", flag, value]
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and flag in err, err

    @pytest.mark.parametrize("mode", ["parallel-lr", "parallel-rh", "series-hr",
                                      "series-disp-lu", "free"])
    def test_mu_low_above_mu_high_names_them(self, capsys, mode):
        # crashed in Generator.uniform with a traceback and exit 1
        argv = ["scan", "--mode", mode, "--trials", "2", "--n", "2",
                "--mu-low", "3", "--mu-high", "-3"]
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "--mu-low" in err, err
        assert "--mu-high" in err and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("mode,flag,message", [
        ("parallel-lr", "--gap", "--gap must be >= 0, got -1.0"),
        ("free", "--seed", "--seed must be >= 0, got -1")])
    def test_negative_flag_names_it(self, capsys, mode, flag, message):
        # crashed with a traceback and exit 1, which reads as FAILS
        argv = ["scan", "--mode", mode, "--trials", "2", "--n", "2", flag, "-1"]
        assert main(argv) == 64
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("mode,args,message", [
        ("free", ["--mu-high", "inf"], "--mu-high must be finite, got inf"),
        ("parallel-lr", ["--gap", "nan"], "--gap must be finite, got nan"),
        ("free", ["--mu-low=-1.7e308", "--mu-high", "1.7e308"],
         "--mu-high - --mu-low must be finite, got -1.7e+308 and 1.7e+308"),
        ("free", ["--spread", "nan"], "--spread must be finite, got nan"),
        ("series-hr", ["--spread", "0"], "--spread must lie in (0, inf), got 0.0")],
        ids=["mu-high-inf", "gap-nan", "mu-width-inf", "spread-nan", "spread-0"])
    def test_out_of_range_number_names_its_flag(self, capsys, mode, args, message):
        # the first three crashed with an OverflowError traceback and exit 1,
        # which reads as FAILS; a NaN spread was echoed in a passing report
        argv = ["scan", "--mode", mode, "--trials", "2", "--n", "2", *args]
        assert main(argv) == 64
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_n_too_small(self, capsys):
        assert main(["scan", "--mode", "series-hr", "--trials", "1", "--n", "1"]) == 64
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("mode,low", [("free", 2), ("parallel-lr", 1)])
    def test_n_above_max_components_names_it(self, capsys, mode, low):
        # was rejected only inside trial 0, after drawing every location,
        # with a message that blamed --mu-low, --mu-high and --sigmas
        assert main(["scan", "--mode", mode, "--trials", "1", "--n", "65"]) == 64
        assert capsys.readouterr() == (
            "", f"error: --n must lie in [{low}, 64] for --mode {mode}, got 65\n")

    def test_grids_built_only_where_read(self, monkeypatch, capsys):
        # series-disp-lu used to build an x grid on every trial and never read it
        import gumbelsys.cli
        from gumbelsys import orders

        calls = {"make_grid": 0, "make_t_grid": 0}
        for module, name in ((gumbelsys.cli, "make_grid"), (orders, "make_t_grid")):
            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
        golden = Path(__file__).parent / "golden" / "scan_series-disp-lu.json"
        assert main(["scan", "--mode", "series-disp-lu", "--trials", "4", "--n", "3",
                     "--seed", "1", "--out", "-"]) == 1
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
        assert calls == {"make_grid": 0, "make_t_grid": 4}
        assert main(["scan", "--mode", "free", "--trials", "2", "--n", "3",
                     "--grid-points", "257"]) == 0
        assert calls == {"make_grid": 2, "make_t_grid": 4}


ENTROPY_SPEC = """\
[system]
topology = parallel
mus = 0.0
sigma = 1.0

[entropy]
t_values = -1.0, 0.0, 1.0
"""


class TestEntropy:
    def test_single_component_matches_closed_form(self, tmp_path):
        out = tmp_path / "e.json"
        code = main(["entropy", write(tmp_path, "e.ini", ENTROPY_SPEC),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["shannon"]["converged"]
        assert abs(doc["shannon"]["value"] - (1 + EULER_GAMMA)) < 1e-8
        assert len(doc["residual"]) == 3
        assert all(row["converged"] for row in doc["residual"])

    def test_nonconvergence_exit_two(self, tmp_path):
        # a tolerance at the rounding floor with no bisection
        spec = ENTROPY_SPEC + "max_subdivisions = 1\nrel_tol = 1e-15\nabs_tol = 1e-300\n"
        code = main(["entropy", write(tmp_path, "e.ini", spec)])
        assert code == 2

    def test_missing_system_section(self, tmp_path):
        assert main(["entropy", write(tmp_path, "e.ini", "[entropy]\n")]) == 64

    def test_rows_past_the_cutoff_are_null_and_inf(self, tmp_path, capsys):
        spec = "[system]\ntopology = series\nmus = 0\nsigma = 1\n\n[entropy]\nt_values = 0, 40\n"
        assert main(["entropy", write(tmp_path, "e.ini", spec), "--out", "-"]) == 2
        out = capsys.readouterr().out
        assert ('"t": 40.0,\n      "value": null,\n      "error_estimate": "inf",\n'
                '      "converged": false') in out
        assert json.loads(out)["residual"][0]["converged"]

    def test_window_too_narrow_for_its_times_is_one_error_line(self, tmp_path, capsys):
        # Q(0.001) and Q(0.999) round to 1e17: the report had four rows at
        # t = 1e17 and exited 2
        spec = ENTROPY_SPEC.replace("mus = 0.0", "mus = 1e17").replace(
            "t_values = -1.0, 0.0, 1.0", "t_points = 4")
        assert main(["entropy", write(tmp_path, "e.ini", spec)]) == 64
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: the window [1e+17, 1e+17] from Q(0.001) to Q(0.999) "
                                  "holds too few doubles for 4 points\n")

    @pytest.mark.parametrize("key", ["t_lo_prob", "t_hi_prob"])
    def test_t_probability_keys_are_unknown(self, tmp_path, capsys, key):
        # the default times are make_t_grid's, from Q(0.001) to Q(0.999); the
        # two keys that moved that window's ends are gone
        spec = ENTROPY_SPEC.replace("t_values = -1.0, 0.0, 1.0", f"{key} = 0.5")
        assert main(["entropy", write(tmp_path, "e.ini", spec)]) == 64
        assert capsys.readouterr() == ("", f"error: unknown field [entropy] {key}\n")


SIMULATE_SPEC = """\
[system_a]
topology = parallel
mus = 2.0, 0.0
sigma = 1.0

[system_b]
topology = parallel
mus = 1.0, 1.0
sigma = 1.0

[simulate]
n_samples = 20000
seed = 11
grid_points = 65
bootstrap = 100
"""


class TestSimulate:
    def test_agreement_and_determinism(self, tmp_path, capsys):
        spec = write(tmp_path, "s.ini", SIMULATE_SPEC)
        o1, o2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(["simulate", spec, "--out", str(o1)]) == 0
        assert main(["simulate", spec, "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()
        doc = json.loads(o1.read_text())
        assert doc["cdf_dominance"]["contradictions"] == []
        spread = doc["quantile_spread"]
        assert spread["std_error"] >= 0.0
        # both parallel systems are Gumbel with scale 1, so their spreads agree
        assert abs(spread["analytic"]) < 1e-12 and spread["contradicts"] is False

    def test_spread_contradiction_is_reported_not_exited_on(self, tmp_path, capsys):
        # one sample has spread 0 and a zero standard error, against a nonzero
        # analytic difference
        spec = (SIMULATE_SPEC.replace("topology = parallel", "topology = series")
                .replace("mus = 1.0, 1.0", "mus = 1.0, 1.0, 1.0, 1.0")
                .replace("n_samples = 20000", "n_samples = 1"))
        code = main(["simulate", write(tmp_path, "s.ini", spec), "--out", "-"])
        doc = json.loads(capsys.readouterr().out)
        spread = doc["quantile_spread"]
        assert spread["std_error"] == 0.0 and spread["analytic"] != 0.0
        assert spread["contradicts"] is True
        assert code == (1 if doc["cdf_dominance"]["contradictions"] else 0)

    @pytest.mark.parametrize("alpha, beta", [(0.9, 0.1), (0.5, 0.5)])
    def test_alpha_not_below_beta_rejected_before_any_draw(self, tmp_path, capsys,
                                                           monkeypatch, alpha, beta):
        draws = mock.Mock(wraps=cli.sample_pair)
        monkeypatch.setattr(cli, "sample_pair", draws)
        spec = SIMULATE_SPEC + f"alpha = {alpha}\nbeta = {beta}\n"
        assert main(["simulate", write(tmp_path, "s.ini", spec)]) == 64
        assert capsys.readouterr() == (
            "", f"error: [simulate] alpha must be below beta, got {alpha} and {beta}\n")
        assert not draws.called

    def test_17_digit_serialization(self, tmp_path):
        spec = write(tmp_path, "s.ini", SIMULATE_SPEC)
        out = tmp_path / "m.json"
        main(["simulate", spec, "--out", str(out)])
        text = out.read_text()
        doc = json.loads(text)
        # reload must reproduce the in-memory float exactly
        val = doc["quantile_spread"]["value"]
        assert f"{val:.17g}" in text


class TestUsage:
    def test_no_command(self):
        assert main([]) == 64

    def test_unknown_flag(self):
        assert main(["check", "x.ini", "--bogus"]) == 64

    @pytest.mark.parametrize("command,flag", [("entropy", "--grid-points"),
                                              ("entropy", "--tail-cutoff"),
                                              ("simulate", "--tol")])
    def test_override_the_command_does_not_read(self, tmp_path, command, flag):
        spec = ENTROPY_SPEC if command == "entropy" else SIMULATE_SPEC
        assert main([command, write(tmp_path, "s.ini", spec), flag, "0.3"]) == 64

    @pytest.mark.parametrize("command,flag", [("check", "--grid-points"), ("check", "--tol"),
                                              ("check", "--tail-cutoff"), ("entropy", "--tol"),
                                              ("simulate", "--grid-points"),
                                              ("simulate", "--tail-cutoff"),
                                              ("scan", "--grid-points"), ("scan", "--tol")])
    def test_zero_override_is_not_the_spec_value(self, tmp_path, command, flag):
        # a zero override used to fall back to the spec (or default) value
        spec = {"check": IDENTICAL, "entropy": ENTROPY_SPEC, "simulate": SIMULATE_SPEC}
        if command == "scan":
            argv = ["scan", "--mode", "parallel-lr", "--trials", "1", "--n", "2"]
        else:
            argv = [command, write(tmp_path, "s.ini", spec[command])]
        assert main(argv + [flag, "0"]) == 64

    @pytest.mark.parametrize("command,spec,names", [
        ("check", IDENTICAL.replace("topology = parallel", "topology = bridge", 1),
         ["[system_a]", "topology"]),
        ("check", IDENTICAL.replace("lr, hr, rh, st", "lr, xx"), ["[check]", "relations"]),
        ("check", IDENTICAL.replace("first_greater", "upward"), ["[check]", "direction"]),
        ("check", IDENTICAL.replace("= 257", "= abc"), ["[check]", "grid_points"]),
        ("check", IDENTICAL.replace("= 257", "= 7"), ["[check]", "grid_points"]),
        ("simulate", SIMULATE_SPEC + "alpha = x\n", ["[simulate]", "alpha"]),
        ("entropy", ENTROPY_SPEC + "max_subdivisions = 1.5\n", ["[entropy]", "max_subdivisions"]),
        ("check", IDENTICAL[:IDENTICAL.index("[check]")], ["[check]"]),
        ("check", IDENTICAL.replace("mus = 0.5, -0.5\n", "", 1), ["[system_a]", "mus"]),
        ("check", IDENTICAL.replace("mus = 0.5, -0.5", "mus = 1.0, x", 1), ["[system_a]", "mus"]),
        ("check", IDENTICAL.replace("sigma = 1.0", "sigma = 0.0", 1), ["[system_a]"]),
        ("check", IDENTICAL.replace("lr, hr, rh, st", ","), ["[check]", "relations"]),
        *[("simulate", SIMULATE_SPEC.replace("bootstrap = 100", f"bootstrap = {n}"),
           ["[simulate]", "bootstrap"]) for n in (-3, 0, 1)],
        *[("simulate", SIMULATE_SPEC.replace("n_samples = 20000", f"n_samples = {n}"),
           ["[simulate]", "n_samples"]) for n in (-1, 0)],
        # a negative seed crashed in the random stream with a traceback
        ("simulate", SIMULATE_SPEC.replace("seed = 11", "seed = -1"),
         ["[simulate]", "seed", ">= 0"]),
        # a key the command never reads used to be ignored
        ("check", IDENTICAL + "gridpoints = 40\n", ["[check]", "gridpoints"]),
        ("check", IDENTICAL.replace("sigma = 1.0", "sigma = 1.0\nscale = 2.0", 1),
         ["[system_a]", "scale"]),
        ("entropy", ENTROPY_SPEC + "tpoints = 3\n", ["[entropy]", "tpoints"]),
        ("simulate", SIMULATE_SPEC + "samples = 10\n", ["[simulate]", "samples"]),
        # a retired key is unknown, whatever its value
        ("entropy", ENTROPY_SPEC + "t_lo_prob = 0\n", ["unknown field [entropy] t_lo_prob"]),
        # a NaN tolerance ran every panel into a failed error test
        ("entropy", ENTROPY_SPEC + "abs_tol = nan\n", ["[entropy]", "abs_tol", "finite"]),
        ("check", IDENTICAL.replace("sigma = 1.0", "sigma = inf", 1),
         ["[system_a] sigma", "finite"]),
    ], ids=["topology", "relation", "direction", "grid-not-int", "grid-below-33", "alpha",
            "max-subdivisions", "no-check-section", "no-mus", "mus-not-numbers", "zero-sigma",
            "no-relations", "bootstrap-negative", "bootstrap-0", "bootstrap-1",
            "n-samples-negative", "n-samples-0", "simulate-seed-negative",
            "check-unknown-key", "system-unknown-key", "entropy-unknown-key",
            "simulate-unknown-key", "t-lo-prob-unknown", "abs-tol-nan", "sigma-inf"])
    def test_spec_error_names_its_field(self, tmp_path, capsys, command, spec, names):
        assert main([command, write(tmp_path, "s.ini", spec)]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        line = err.splitlines()[0]
        assert line.startswith("error: ") and all(name in line for name in names), line

    @pytest.mark.parametrize("count", [-1, 0])
    @pytest.mark.parametrize("command", ["check", "scan", "entropy"])
    def test_t_points_below_one_rejected(self, tmp_path, capsys, command, count):
        # a negative count used to crash in np.linspace; 0 gave an empty curve
        if command == "scan":
            argv = ["scan", "--mode", "series-disp-lu", "--trials", "1", "--n", "2",
                    "--t-points", str(count)]
        else:
            spec = (IDENTICAL.replace("lr, hr, rh, st", "lu") if command == "check"
                    else ENTROPY_SPEC.replace("t_values = -1.0, 0.0, 1.0", ""))
            argv = [command, write(tmp_path, "s.ini", spec + f"t_points = {count}\n")]
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), err

    @pytest.mark.parametrize("flag,count", [("--t-points", -1), ("--t-points", 0),
                                            ("--p-points", 32), ("--grid-points", 32),
                                            ("--tail-cutoff", 5)])
    @pytest.mark.parametrize("mode", ["parallel-lr", "parallel-rh", "series-hr",
                                      "series-disp-lu", "free"])
    def test_scan_point_counts_checked_in_every_mode(self, capsys, mode, flag, count):
        # the counts (and the tail cutoff) used to be read only where a mode
        # built its grids, and an error there did not name the flag
        argv = ["scan", "--mode", mode, "--trials", "1", "--n", "2", flag, str(count)]
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and flag in err, err

    @pytest.mark.parametrize("command,relations", [("check", "lu"), ("check", "hr"),
                                                   ("simulate", None)])
    def test_override_below_bound_names_the_flag(self, tmp_path, capsys, command, relations):
        # an override used to skip the bound: check with lu accepted
        # --grid-points 7 and echoed it, and make_grid's error named no flag
        spec = (IDENTICAL.replace("lr, hr, rh, st", relations) if command == "check"
                else SIMULATE_SPEC)
        assert main([command, write(tmp_path, "s.ini", spec), "--grid-points", "7"]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "--grid-points" in err, err

    @pytest.mark.parametrize("command,cutoff", [("check", "5"), ("check", "0"),
                                                ("simulate", "0.5")])
    def test_tail_cutoff_outside_its_range_names_its_source(self, tmp_path, capsys, command,
                                                            cutoff):
        # check with lu builds no x grid, and used to accept --tail-cutoff 5
        # and echo it
        spec = (IDENTICAL.replace("lr, hr, rh, st", "lu") if command == "check"
                else SIMULATE_SPEC)
        path = write(tmp_path, "s.ini", spec)
        assert main([command, path, "--tail-cutoff", cutoff]) == 64
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: --tail-cutoff must lie in (0, 0.5), got {float(cutoff)}\n")
        path = write(tmp_path, "s.ini", spec.replace(f"[{command}]",
                                                     f"[{command}]\ntail_cutoff = {cutoff}"))
        assert main([command, path]) == 64
        assert f"[{command}] tail_cutoff must lie in (0, 0.5)" in capsys.readouterr().err

    def test_grid_overflow_is_one_error_line(self, tmp_path, capsys):
        spec = (IDENTICAL.replace("mus = 0.5, -0.5", "mus = 1e308")
                .replace("sigma = 1.0", "sigma = 1e307"))
        assert main(["check", write(tmp_path, "s.ini", spec)]) == 64
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: the window [7.086526013072208e+307, inf] from Q(1e-08) "
                                  "to Q(0.99999999) has an end beyond the doubles\n")

    def test_unwritable_report_file_is_one_error_line(self, tmp_path, capsys):
        # the table was printed, then the write died with FileNotFoundError and exit 1
        target = str(tmp_path / "missing" / "x.json")
        assert main(["check", write(tmp_path, "s.ini", IDENTICAL), "--out", target]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith(f"error: cannot write report file {target!r}: "), err

    def test_undecodable_spec_file_is_one_error_line(self, tmp_path, capsys):
        # a byte that is not UTF-8 died with UnicodeDecodeError and exit 1
        path = tmp_path / "bad.ini"
        path.write_bytes(ENTROPY_SPEC.replace("sigma = 1.0", "sigma = 1\xff", 1).encode("latin-1"))
        assert main(["entropy", str(path)]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith(f"error: cannot read spec file {str(path)!r}: 'utf-8' codec"), err

    def test_simulate_rejects_spec_grid_below_33(self, tmp_path, capsys):
        # a spec value below 33 used to be raised to 33; it is rejected like an override
        spec = SIMULATE_SPEC.replace("grid_points = 65", "grid_points = 7")
        assert main(["simulate", write(tmp_path, "s.ini", spec)]) == 64
        out, err = capsys.readouterr()
        assert out == "" and "[simulate] grid_points" in err


def test_spec_tables_agree_with_parser_and_reports(capsys):
    """Each spec default meets its bound, each override flag is an option of
    its command, and check, scan and simulate echo their rows in table order."""
    parser = cli._build_parser()
    for command, (sections, fields) in cli._SPECS.items():
        argv = ([command, "s.ini"] if sections
                else [command, "--mode", "free", "--trials", "1", "--n", "2"])
        for key, f in {**cli._SYSTEM, **fields}.items():
            if f.low is not None and f.default is not None:
                assert f.default >= f.low, (command, key)
            if f.parse and isinstance(f.default, (int, float)):  # the parser's own checks
                assert f.parse(repr(f.default), key) == f.default, (command, key)
            if f.flag:
                assert getattr(parser.parse_args(argv + [f.flag, "1"]), key) == "1"
    golden = Path(__file__).parent / "golden"
    for command, ini in (("check", "check_series.ini"), ("simulate", "simulate.ini")):
        main([command, str(golden / ini), "--out", "-"])
        config = json.loads(capsys.readouterr().out)["config"]
        rows = cli._SPECS[command][1]
        assert [k for k in config if k in rows] == [k for k, f in rows.items() if f.parse]
    config = json.loads((golden / "scan_free.json").read_text())["config"]
    assert list(config) == list(cli._SPECS["scan"][1])


@pytest.mark.parametrize("command", ["check", "scan", "entropy", "simulate"])
def test_help_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    flags = [f.flag for f in cli._SPECS[command][1].values() if f.flag]
    assert all(flag in out for flag in flags + ["--out"]), out
    if command == "scan":
        for text in ("--entropy-orders", "components per system", "componentwise location lift",
                     "majorization transfer size scale", "quadrature relative tolerance"):
            assert text in out, text


#: the spec of each spec-reading command that the fuzz cases edit, sized so
#: that a run with every value at its spec or default stays small
FUZZ_SPECS = {
    "check": SERIES_HR.replace("relations = hr", "relations = lr, hr, rh, st, disp, lu")
                      .replace("grid_points = 513", "grid_points = 65\np_points = 33\nt_points = 4"),
    "entropy": "[system]\ntopology = series\nmus = 0.5, -0.5, 1.0\nsigma = 0.7\n\n"
               "[entropy]\nt_points = 4\n",
    "simulate": RH_INSTANCE.replace("[check]\nrelations = rh\ndirection = first_greater\n",
                                    "[simulate]\nn_samples = 2000\nbootstrap = 2\n"
                                    "grid_points = 33\n"),
}
FUZZ_SCAN = ["--trials", "1", "--n", "2", "--grid-points", "65", "--p-points", "33",
             "--t-points", "4"]


def _fuzz_case(command, key, value, by_flag, mode):
    """argv and stdin of ``command`` with the row ``key`` set to ``value``,
    through its flag or its spec key, and the text an error must name."""
    f = cli._SPECS[command][1][key]
    if command == "scan":
        argv = ["scan", "--mode", mode, *FUZZ_SCAN]
        if f.flag in argv:
            del argv[argv.index(f.flag):argv.index(f.flag) + 2]
        return argv + [f"{f.flag}={value}"], "", f.flag
    if by_flag and f.flag:
        return [command, "-", f"{f.flag}={value}"], FUZZ_SPECS[command], f.flag
    lines = [ln for ln in FUZZ_SPECS[command].splitlines() if not ln.startswith(f"{key} =")]
    return [command, "-"], "\n".join(lines + [f"{key} = {value}", ""]), f"[{command}] {key}"


@pytest.mark.parametrize("command", list(cli._SPECS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_values_exit_cleanly(command, data):
    """Every row of every command, set to an edge value, exits 0, 1, 2 or 64
    with no traceback or RuntimeWarning; a usage error names its source."""
    rows = cli._SPECS[command][1]
    key = data.draw(st.sampled_from(sorted(rows)))
    low = rows[key].low
    edges = ([] if low is None else [str(low - 1)]) + ["0", "-1", "nan", "inf", "-inf",
                                                       "1e308", "", "x"]
    value = data.draw(st.sampled_from(edges))
    argv, spec, source = _fuzz_case(command, key, value, data.draw(st.booleans()),
                                    data.draw(st.sampled_from(cli.SCAN_MODES)))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(sys, "stdin", io.StringIO(spec)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2, 64), (argv, spec, text)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, spec)
    assert "Traceback" not in text and "RuntimeWarning" not in text, (argv, spec, text)
    if code == 64:
        assert source in text, (argv, spec, text)
