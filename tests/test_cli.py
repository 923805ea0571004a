import argparse
import csv
import io
import json
import math
from dataclasses import fields
from typing import get_args

import pytest

from evitrust.cli import (
    _COMMANDS,
    _RUN_FLAGS,
    _build_parser,
    _parse_grid,
    _UsageError,
    cli_main,
    parse_profile,
)
from evitrust.core import Evidence, expected_quality
from evitrust.errors import ConvergenceError
from evitrust.simulation import _PROFILES, BehaviorProfile, ReferrerProfile
from evitrust.updates import (
    accuracy_average,
    accuracy_linear,
    accuracy_max_certainty,
    accuracy_sensitivity,
)


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertaintyCommand:
    def test_anchor_zero_one(self, capsys):
        code, out, _ = run(capsys, "certainty", "0", "1")
        assert code == 0
        assert float(out) == pytest.approx(0.25, abs=1e-9)

    def test_no_evidence(self, capsys):
        code, out, _ = run(capsys, "certainty", "0", "0")
        assert code == 0
        assert float(out) == 0.0

    def test_negative_evidence_is_data_error(self, capsys):
        code, _, err = run(capsys, "certainty", "-1", "2")
        assert code == 2
        assert "non-negative" in err

    # Counts whose sum overflows, peaks that would cancel to rounding (1e16,
    # 3e17), and the first totals past the bound.
    @pytest.mark.parametrize("r,s", [("1e308", "1e308"), ("1e308", "1"), ("1e16", "1e16"),
                                     ("3e17", "3e17"), ("1e9", "1"), ("1000000001", "0")])
    def test_evidence_past_the_bound_is_one_line_data_error(self, capsys, r, s):
        code, out, err = run(capsys, "certainty", r, s)
        assert code == 2
        assert out == ""
        assert err == f"error: evidence total r + s must be at most 1e+09, got r={float(r)}, " \
                      f"s={float(s)}\n"

    @pytest.mark.parametrize("r,s", [("5e8", "5e8"), ("1e9", "0"), ("999999999", "1")])
    def test_evidence_at_the_bound_scores(self, capsys, r, s):
        code, out, _ = run(capsys, "certainty", r, s)
        assert code == 0
        assert 0.99 < float(out) < 1.0


class TestAccuracyCommand:
    def test_average_golden(self, capsys):
        code, out, _ = run(capsys, "accuracy", "--method", "average",
                           "--observed", "1,1", "--report", "1.1,0.9")
        assert code == 0
        assert float(out) == pytest.approx(0.78, abs=0.01)

    def test_method_names_case_insensitive(self, capsys):
        for name in ("max-certainty", "MaxCertainty", "MAXCERTAINTY"):
            code, out, _ = run(capsys, "accuracy", "--method", name,
                               "--observed", "1,1", "--report", "1.1,0.9")
            assert code == 0
            assert float(out) == pytest.approx(0.99, abs=0.01)

    @pytest.mark.parametrize("name,want", [
        ("linear", accuracy_linear(expected_quality(Evidence(3, 1)),
                                   expected_quality(Evidence(2, 2)))),
        ("maxcertainty", accuracy_max_certainty(Evidence(3, 1), Evidence(2, 2))),
        ("max-certainty", accuracy_max_certainty(Evidence(3, 1), Evidence(2, 2))),
        ("sensitivity", accuracy_sensitivity(Evidence(3, 1), Evidence(2, 2))),
        ("average", accuracy_average(expected_quality(Evidence(3, 1)), Evidence(2, 2))),
    ])
    def test_each_name_runs_its_measure(self, capsys, name, want):
        code, out, _ = run(capsys, "accuracy", "--method", name,
                           "--observed", "3,1", "--report", "2,2")
        assert code == 0
        assert out == f"{want:.10g}\n"

    def test_unknown_method_is_usage_error(self, capsys):
        code, _, err = run(capsys, "accuracy", "--method", "wizardry",
                           "--observed", "1,1", "--report", "1,1")
        assert code == 1
        assert "wizardry" in err

    def test_malformed_pair_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "accuracy", "--method", "average",
                         "--observed", "1;1", "--report", "1,1")
        assert code == 1

    def test_domain_violation_is_data_error(self, capsys):
        code, _, _ = run(capsys, "accuracy", "--method", "average",
                         "--observed", "1,1", "--report=-1,2")
        assert code == 2

    @pytest.mark.parametrize("method,observed,report,want", [
        # Far from a peak that rounds to 1: q is about e^−693147.
        ("max-certainty", "1e6,1e-11", "1,1", "0"),
        ("sensitivity", "1,1", "1e6,1e-11", "0"),
        # At that peak, where the point rounds to 1 too.
        ("max-certainty", "1e6,1e-11", "1e6,1e-11", "1"),
        ("sensitivity", "1e6,1e-11", "1e6,1e-11", "1"),
        # A peak that rounds to 0 (only below the normal floats).
        ("max-certainty", "1e-320,1e6", "1,1", "0"),
        # At that peak, where the point rounds to 0 too.
        ("max-certainty", "1e-320,1e6", "1e-320,1e6", "1"),
        ("sensitivity", "1e-320,1e6", "1e-320,1e6", "1"),
    ])
    def test_near_one_sided_peak(self, capsys, method, observed, report, want):
        code, out, _ = run(capsys, "accuracy", "--method", method,
                           "--observed", observed, "--report", report)
        assert (code, out) == (0, want + "\n")

    @pytest.mark.parametrize("method", ["linear", "max-certainty", "sensitivity", "average"])
    @pytest.mark.parametrize("observed,report", [("1.7e308,1.7e308", "1,1"),
                                                 ("1,1", "1e9,1e-6")])
    def test_total_past_the_bound_is_data_error(self, capsys, method, observed, report):
        code, out, err = run(capsys, "accuracy", "--method", method,
                             "--observed", observed, "--report", report)
        assert (code, out) == (2, "")
        assert "must be at most 1e+09" in err


class TestUpdateCommand:
    def test_emits_json_evidence(self, capsys):
        code, out, _ = run(capsys, "update", "--method", "MaxCertainty", "--beta", "1",
                           "--observed", "2,1", "--report", "5,5", "--prior", "0,0")
        assert code == 0
        obj = json.loads(out)
        assert obj["r"] == pytest.approx(0.3756, abs=1e-3)
        assert obj["s"] == pytest.approx(0.0696, abs=1e-3)

    @pytest.mark.parametrize("method", ["MaxCertainty", "Sensitivity"])
    def test_report_at_a_peak_that_rounds_to_one(self, capsys, method):
        """q is 1, so the trust moves by c′ ≈ 1 on the good side."""
        code, out, _ = run(capsys, "update", "--method", method,
                           "--observed", "1e6,1e-11", "--report", "1e6,1e-11")
        assert code == 0
        obj = json.loads(out)
        assert obj["r"] == pytest.approx(1.8, abs=1e-4)
        assert obj["s"] == pytest.approx(0.8, abs=1e-15)

    def test_history_method_rejected(self, capsys):
        code, _, err = run(capsys, "update", "--method", "AverageAlpha",
                           "--observed", "2,1", "--report", "5,5")
        assert code == 1
        assert "history" in err

    @pytest.mark.parametrize("flag", ["--observed", "--report", "--prior"])
    def test_negative_count_is_data_error(self, capsys, flag):
        pairs = {"--observed": "2,1", "--report": "5,5", "--prior": "1,1", flag: "-1,1"}
        code, out, err = run(capsys, "update", "--method", "Josang",
                             *(f"{k}={v}" for k, v in pairs.items()))
        assert code == 2
        assert "non-negative" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["update", "--observed", "2,1", "--report", "5,5"],
        ["simulate", "--experiment", "referrer", "--timesteps", "4"],
        ["simulate", "--experiment", "combine", "--timesteps", "4", "--switch", "2"],
        ["sweep", "--experiment", "referrer", "--profiles", "truthful",
         "--beta-grid", "0:1:0.5", "--seeds", "1", "--timesteps", "4"],
    ])
    def test_history_method_rejected_by_every_referrer_command(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--method", "AverageAlpha")
        assert code == 1
        assert "history" in err and "--mode TrustInHistory" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--experiment", "history", "--timesteps", "4"],
        ["sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5", "--timesteps", "4"],
    ])
    def test_history_method_on_a_history_run_points_to_the_mode(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--method", "averagealpha")
        assert code == 1
        assert "AverageAlpha is a history method" in err and "--mode TrustInHistory" in err
        assert out == ""


class TestSimulateCommand:
    def test_deterministic_output_files(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--experiment", "history", "--profile", "probability:0.9",
                "--mode", "TrustInHistory", "--seed", "7", "--timesteps", "12"]
        assert cli_main(argv + ["--out", str(out1)]) == 0
        assert cli_main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_combine_and_referrer_run(self, capsys):
        for extra in (["--experiment", "combine", "--switch", "4", "--beta", "0.3"],
                      ["--experiment", "referrer", "--profile", "truthful"]):
            code, out, _ = run(capsys, "simulate", *extra, "--timesteps", "6")
            assert code == 0
            lines = out.strip().split("\n")
            assert len(lines) == 7  # header + one row per step

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "simulate", "--experiment", "history",
                           "--profile", "periodic", "--mode", "Amazon",
                           "--timesteps", "5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5 and rows[0]["t"] == 1

    def test_referrer_profile_rejected_for_history(self, capsys):
        code, _, err = run(capsys, "simulate", "--experiment", "history",
                           "--profile", "truthful", "--timesteps", "5")
        assert code == 1
        assert "behavior profile" in err

    def test_unknown_profile_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--experiment", "history",
                         "--profile", "zigzag", "--timesteps", "5")
        assert code == 1

    @pytest.mark.parametrize("spec", [
        "periodic:5", "random:x", "probability:0.9,0.3", "momentum:0.1,0.5,0.9",
    ])
    def test_extra_profile_arguments_are_usage_error(self, capsys, spec):
        code, out, err = run(capsys, "simulate", "--experiment", "history",
                             "--profile", spec, "--timesteps", "5")
        assert code == 1
        assert "--profile" in err
        assert out == ""

    @pytest.mark.parametrize("spec", ["rumor:5,nan", "rumor:5,inf"])
    def test_non_finite_rumor_exaggeration_is_usage_error(self, capsys, spec):
        code, out, err = run(capsys, "simulate", "--experiment", "referrer",
                             "--profile", spec, "--timesteps", "8")
        assert code == 1
        assert f"bad profile arguments in {spec!r}" in err
        assert out == ""

    @pytest.mark.parametrize("mode", ["AverageAlpha", "averagealpha", "AVERAGEALPHA"])
    def test_average_alpha_mode_is_trust_in_history(self, capsys, mode):
        argv = ["simulate", "--experiment", "history", "--timesteps", "12", "--seed", "3"]
        alias = run(capsys, *argv, "--mode", mode)
        assert alias[0] == 0
        assert alias == run(capsys, *argv, "--mode", "TrustInHistory")


class TestSweepCommand:
    def test_row_count_is_grid_times_profiles(self, capsys):
        code, out, _ = run(capsys, "sweep", "--profiles", "probability:0.9,periodic",
                           "--beta-grid", "0:1:0.25", "--seeds", "2", "--timesteps", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "profile,method,beta,error"
        assert len(lines) - 1 == 5 * 2

    def test_momentum_profile_with_embedded_comma(self, capsys):
        code, out, _ = run(capsys, "sweep", "--profiles", "momentum:0.1,0.5,periodic",
                           "--beta-grid", "0:0.5:0.5", "--seeds", "1", "--timesteps", "8")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) - 1 == 2 * 2
        assert {line.split(",")[0] for line in lines[1:]} == {"Momentum", "Periodic"}

    def test_deterministic(self, tmp_path, capsys):
        argv = ["sweep", "--profiles", "random", "--beta-grid", "0:1:0.5",
                "--seeds", "2", "--timesteps", "8", "--experiment", "history"]
        f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli_main(argv + ["--out", str(f1)]) == 0
        assert cli_main(argv + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_unknown_profile_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--profiles", "bogus", "--beta-grid", "0:1:0.5")
        assert code == 1
        assert "--profiles" in err and "bogus" in err
        assert out == ""

    @pytest.mark.parametrize("specs", ["probability:0.9,0.3", "periodic,momentum:0.1,0.5,0.9"])
    def test_extra_profile_arguments_are_usage_error(self, capsys, specs):
        code, out, err = run(capsys, "sweep", "--profiles", specs, "--beta-grid", "0:1:0.5")
        assert code == 1
        assert "--profiles" in err
        assert out == ""

    def test_referrer_profile_rejected_for_history(self, capsys):
        code, out, err = run(capsys, "sweep", "--experiment", "history",
                             "--profiles", "periodic,truthful", "--beta-grid", "0:1:0.5")
        assert code == 1
        assert "behavior profile" in err
        assert out == ""

    def test_referrer_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--experiment", "referrer",
                           "--profiles", "truthful", "--method", "AverageBeta",
                           "--beta-grid", "0.2:0.4:0.2", "--seeds", "1", "--timesteps", "8")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) - 1 == 2
        assert lines[1].startswith("Truthful,AverageBeta,")


class TestAmazonCommand:
    def test_bundled_sample_runs(self, capsys):
        code, out, _ = run(capsys, "amazon", "--lambda-grid", "0:1:0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "seller_id,mode,lambda,error,error_1to5"
        # 5 bundled sellers x (unweighted + 3 lambdas + trust-in-history)
        assert len(lines) - 1 == 5 * 5

    def test_custom_input(self, tmp_path, capsys):
        p = tmp_path / "fb.csv"
        p.write_text("seller_id,t,rating\na,1,4\na,2,4\na,3,4\n", encoding="utf-8")
        code, out, _ = run(capsys, "amazon", "--input", str(p), "--lambda-grid", "0.5:0.5:1")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[3]) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_rating_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "fb.csv"
        p.write_text("seller_id,t,rating\na,1,9\n", encoding="utf-8")
        code, _, err = run(capsys, "amazon", "--input", str(p))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_is_data_error(self, capsys):
        code, _, _ = run(capsys, "amazon", "--input", "/nonexistent/f.csv")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "amazon", "--lambda-grid", "0.9:0.9:1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows and set(rows[0]) == {"seller_id", "mode", "lambda", "error", "error_1to5"}

    def test_json_seller_ids_stay_strings(self, tmp_path, capsys):
        ids = ["007", "7", "1e3", "nan"]
        p = tmp_path / "fb.csv"
        p.write_text("seller_id,t,rating\n" + "".join(f"{i},{t},4\n" for i in ids for t in (1, 2)),
                     encoding="utf-8")
        code, out, _ = run(capsys, "amazon", "--input", str(p), "--lambda-grid", "0.5:0.5:1",
                           "--format", "json")
        assert code == 0

        def reject(name):
            raise ValueError(f"{name} is not valid JSON")

        rows = json.loads(out, parse_constant=reject)
        # unweighted, one lambda and trust-in-history per seller
        assert [row["seller_id"] for row in rows] == [i for i in ids for _ in range(3)]

    def test_csv_quotes_seller_ids_with_commas(self, tmp_path, capsys):
        p = tmp_path / "fb.csv"
        p.write_text('seller_id,t,rating\n"acme, inc",1,4\n"acme, inc",2,5\nplain,1,3\nplain,2,3\n',
                     encoding="utf-8")
        code, out, _ = run(capsys, "amazon", "--input", str(p), "--lambda-grid", "0.5:0.5:1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["seller_id", "mode", "lambda", "error", "error_1to5"]
        assert all(len(row) == 5 for row in rows)
        assert [row[0] for row in rows[1:]] == ["acme, inc"] * 3 + ["plain"] * 3


def _typed(name, cell):
    """A CSV cell as the value it encodes: None, the int step t, a float or a string."""
    if cell == "":
        return None
    if name == "t":
        return int(cell)
    try:
        return float(cell)
    except ValueError:
        return cell


@pytest.mark.parametrize("argv", [
    ["simulate", "--experiment", "referrer", "--timesteps", "6"],
    ["simulate", "--experiment", "combine", "--timesteps", "6", "--switch", "3"],
    ["simulate", "--experiment", "history", "--timesteps", "6"],
    ["sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5", "--seeds", "1",
     "--timesteps", "6"],
    ["amazon", "--lambda-grid", "0:1:0.5"],
])
def test_json_rows_equal_typed_csv_rows(capsys, argv):
    code_csv, csv_out, _ = run(capsys, *argv)
    code_json, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code_csv == code_json == 0
    want = [{k: _typed(k, v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(csv_out))]
    rows = json.loads(json_out)
    assert rows == want
    assert [[type(v) for v in row.values()] for row in rows] == \
        [[type(v) for v in row.values()] for row in want]
    assert all(type(row["t"]) is int for row in rows if "t" in row)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, "certainty", "1", "2", "--frob")[0] == 1

    def test_no_command_prints_help(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "COMMAND" in err

    def test_tol_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "certainty", "1", "2", "--tol", "1e-6")
        assert code == 1
        assert "--tol" in err

    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5", "--beta", "0.5:0.5:1"],
         "--beta"),
        (["simulate", "--experiment", "history", "--time", "4"], "--time"),
        (["simulate", "--experiment", "combine", "--swi", "3"], "--swi"),
        (["amazon", "--lambda", "0:1:0.5"], "--lambda"),
    ])
    def test_flag_prefix_is_not_read_as_the_longer_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert f"unrecognized arguments: {flag} " in err
        assert out == ""

    def test_prefix_of_a_required_flag_leaves_it_missing(self, capsys):
        code, out, err = run(capsys, "sweep", "--profiles", "periodic", "--beta", "0.5:0.5:1")
        assert code == 1
        assert "required: --beta-grid" in err
        assert out == ""

    def test_zero_seeds_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--profiles", "periodic",
                           "--beta-grid", "0:1:0.5", "--seeds", "0")
        assert code == 1
        assert "--seeds" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("flag", ["--timesteps", "--tx"])
    def test_zero_count_is_usage_error_naming_the_flag(self, capsys, command, flag):
        if command == "simulate":
            argv = ["simulate", "--experiment", "history"]
        else:
            argv = ["sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5"]
        code, out, err = run(capsys, *argv, flag, "0")
        assert code == 1
        assert flag in err
        assert out == ""

    @pytest.mark.parametrize("count", [str(2**63), "99999999999999999999"])
    @pytest.mark.parametrize("argv,flag", [
        (["simulate", "--experiment", "history"], "--timesteps"),
        (["simulate", "--experiment", "history"], "--tx"),
        (["sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5"], "--timesteps"),
        (["sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5"], "--tx"),
        (["sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5"], "--seeds"),
    ])
    def test_count_past_63_bits_is_usage_error_naming_the_flag(self, capsys, argv, flag, count):
        code, out, err = run(capsys, *argv, flag, count)
        assert code == 1
        assert flag in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--experiment", "history"],
        ["simulate", "--experiment", "referrer"],
        ["simulate", "--experiment", "combine", "--switch", "1"],
        ["sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5"],
        ["sweep", "--experiment", "referrer", "--profiles", "truthful", "--beta-grid", "0:1:0.5"],
    ])
    def test_run_evidence_past_the_bound_is_usage_error_before_any_draw(
            self, capsys, monkeypatch, argv):
        """--tx × --timesteps is the evidence a run can carry (all of it in
        Amazon mode), so past 1e9 the run does not start."""
        import evitrust.simulation as simulation_mod

        def no_draw(*args):
            raise AssertionError("drew before checking the run's evidence")

        monkeypatch.setattr(simulation_mod, "_streams", no_draw)
        code, out, err = run(capsys, *argv, "--tx", "1000000", "--timesteps", "1001")
        assert code == 1
        assert err == ("error: --tx and --timesteps: tx_per_step × timesteps must be at most "
                       "1e+09, got 1000000 × 1001\n")
        assert out == ""

    def test_tx_past_the_bound_is_usage_error_naming_the_flag(self, capsys):
        code, out, err = run(capsys, "simulate", "--experiment", "history", "--timesteps", "1",
                             "--tx", "1000000001")
        assert code == 1
        assert err == "error: argument --tx: must be in [1, 1000000000], got 1000000001\n"
        assert out == ""

    def test_run_evidence_at_the_bound_runs(self, capsys):
        code, out, _ = run(capsys, "simulate", "--experiment", "history", "--mode", "Amazon",
                           "--timesteps", "2", "--tx", "500000000")
        assert code == 0
        # In Amazon mode the trust state is the carried evidence: all of the run's.
        last = list(csv.DictReader(io.StringIO(out)))[-1]
        assert float(last["trust_r"]) + float(last["trust_s"]) == 1e9

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "x"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--experiment", "history"],
        ["sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5"],
    ])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, argv, seed):
        code, out, err = run(capsys, *argv, f"--seed={seed}")
        assert code == 1
        assert "--seed" in err
        assert out == ""

    def test_sweep_seed_run_past_64_bits_is_usage_error(self, capsys):
        # --seeds 5 (the default) from the largest seed derives 2**64 + 3.
        code, out, err = run(capsys, "sweep", "--profiles", "periodic", "--beta-grid",
                             "0:1:0.5", "--seed", "18446744073709551615")
        assert code == 1
        assert "--seed " in err and "--seeds" in err
        assert out == ""

    def test_sweep_seed_run_ending_at_largest_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5",
                           "--timesteps", "3", "--seeds", "5", "--seed", "18446744073709551611")
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    @pytest.mark.parametrize("argv,flag", [
        (["simulate", "--experiment", "combine", "--profile", "rumor:5,10"], "--profile"),
        (["simulate", "--experiment", "history", "--method", "Josang"], "--method"),
        (["sweep", "--experiment", "history", "--profiles", "periodic",
          "--beta-grid", "0:1:0.5", "--method", "Josang"], "--method"),
        (["simulate", "--experiment", "referrer", "--mode", "Amazon"], "--mode"),
        (["simulate", "--experiment", "referrer", "--switch", "2"], "--switch"),
        (["simulate", "--experiment", "combine", "--switch", "2", "--mode", "Amazon"], "--mode"),
        (["simulate", "--experiment", "history", "--switch", "2"], "--switch"),
        (["simulate", "--experiment", "history", "--beta", "0.7"], "--beta"),
        (["simulate", "--experiment", "history", "--mode", "TrustInHistory", "--beta", "0.7"],
         "--beta"),
        (["simulate", "--experiment", "history", "--mode", "Amazon", "--beta", "0.7"], "--beta"),
        (["sweep", "--experiment", "referrer", "--profiles", "truthful",
          "--beta-grid", "0:1:0.5", "--mode", "Amazon"], "--mode"),
    ])
    def test_flag_the_experiment_ignores_is_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, "--timesteps", "3")
        assert code == 1
        assert flag in err
        assert " ".join(argv[:3]) in err  # names the run
        assert out == ""

    @pytest.mark.parametrize("argv,flag", [
        (["certainty", "3", "1"], "--format"),
        (["certainty", "3", "1"], "--seed"),
        (["accuracy", "--method", "average", "--observed", "3,1", "--report", "2,2"], "--format"),
        (["accuracy", "--method", "average", "--observed", "3,1", "--report", "2,2"], "--seed"),
        (["update", "--method", "Josang", "--observed", "2,1", "--report", "5,5"], "--format"),
        (["update", "--method", "Josang", "--observed", "2,1", "--report", "5,5"], "--seed"),
        (["amazon"], "--seed"),
    ])
    def test_shared_flag_the_command_does_not_read_is_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, flag, "json" if flag == "--format" else "4")
        assert code == 1
        assert flag in err
        assert out == ""

    def test_default_switch_outside_run_says_it_is_the_default(self, capsys):
        code, out, err = run(capsys, "simulate", "--experiment", "combine", "--timesteps", "20")
        assert code == 1
        assert "--switch" in err and "default is 50" in err and "got" not in err
        assert out == ""

    def test_largest_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "simulate", "--experiment", "history",
                           "--timesteps", "3", "--seed", "18446744073709551615")
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    @pytest.mark.parametrize("switch", ["-3", "5", "99"])
    def test_switch_outside_run_is_usage_error(self, capsys, switch):
        code, out, err = run(capsys, "simulate", "--experiment", "combine",
                             "--timesteps", "5", "--switch", switch)
        assert code == 1
        assert "--switch" in err
        assert out == ""

    @pytest.mark.parametrize("switch", ["0", "4"])
    def test_switch_inside_run_accepted(self, capsys, switch):
        code, out, _ = run(capsys, "simulate", "--experiment", "combine",
                           "--timesteps", "5", "--switch", switch)
        assert code == 0
        assert len(out.strip().split("\n")) == 6

    @pytest.mark.parametrize("grid", ["0:2:0.5", "-0.5:0.5:0.5"])
    @pytest.mark.parametrize("argv,flag", [
        (["amazon"], "--lambda-grid"),
        (["sweep", "--profiles", "periodic"], "--beta-grid"),
    ])
    def test_grid_outside_unit_interval_is_usage_error(self, capsys, argv, flag, grid):
        code, out, err = run(capsys, *argv, f"{flag}={grid}")
        assert code == 1
        assert flag in err
        assert out == ""

    @pytest.mark.parametrize("beta", ["1.5", "-0.1", "nan"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--experiment", "history"],
        ["update", "--method", "Josang", "--observed", "2,1", "--report", "5,5"],
    ])
    def test_beta_outside_unit_interval_is_usage_error(self, capsys, argv, beta):
        code, out, err = run(capsys, *argv, f"--beta={beta}")
        assert code == 1
        assert "--beta" in err
        assert out == ""

    @pytest.mark.parametrize("step", ["nan", "inf", "0", "x"])
    def test_bad_grid_step_is_usage_error(self, capsys, step):
        code, out, err = run(capsys, "amazon", f"--lambda-grid=0:1:{step}")
        assert code == 1
        assert "--lambda-grid" in err
        assert out == ""

    @pytest.mark.parametrize("step", ["1e-300", "5e-324", "0.99e-4"])
    @pytest.mark.parametrize("argv,flag", [
        (["amazon"], "--lambda-grid"),
        (["sweep", "--profiles", "periodic"], "--beta-grid"),
    ])
    def test_grid_of_more_than_10001_points_is_usage_error(self, capsys, argv, flag, step):
        code, out, err = run(capsys, *argv, f"{flag}=0:1:{step}")
        assert code == 1
        assert flag in err and "10001 points" in err
        assert out == ""

    @pytest.mark.parametrize("grid", ["0.5:0.5:1e-13", "0:1e-9:3e-11"])
    @pytest.mark.parametrize("argv,flag", [
        (["amazon"], "--lambda-grid"),
        (["sweep", "--profiles", "periodic"], "--beta-grid"),
    ])
    def test_grid_whose_rounded_points_repeat_is_usage_error(self, capsys, argv, flag, grid):
        code, out, err = run(capsys, *argv, f"{flag}={grid}")
        assert code == 1
        assert flag in err and "repeat" in err
        assert out == ""

    def test_grid_at_the_rounding_step_accepted(self):
        grid = _parse_grid("0:1e-9:1e-10")
        assert len(set(grid)) == len(grid) == 11

    def test_grid_of_10001_points_accepted(self):
        grid = _parse_grid("0:1:1e-4")
        assert len(grid) == 10001
        assert (grid[0], grid[-1]) == (0.0, 1.0)

    def test_unwritable_out_is_data_error(self, capsys):
        code, _, err = run(capsys, "certainty", "1", "2", "--out", "/nonexistent/dir/x.csv")
        assert code == 2
        assert "/nonexistent/dir/x.csv" in err

    def test_convergence_maps_to_three(self, capsys, monkeypatch):
        import evitrust.cli as cli_mod

        def boom(*a, **k):
            raise ConvergenceError("stalled", best_estimate=0.5)

        monkeypatch.setattr(cli_mod, "certainty", boom)
        code, _, err = run(capsys, "certainty", "1", "1")
        assert code == 3
        assert "stalled" in err


# Arguments for every profile field, by field name.
_FIELD_VALUES = {"p": 0.25, "horizon": 7, "gamma": 0.25, "psi": 0.75,
                 "switch_step": 7, "exaggeration": 2.5}


@pytest.mark.parametrize("name", sorted(_PROFILES))
def test_every_profile_name_parses_bare_and_at_full_arity(name):
    cls = _PROFILES[name]
    assert parse_profile(name) == cls()
    params = fields(cls)
    want = [_FIELD_VALUES[f.name] for f in params]
    parsed = parse_profile(f"{name}:{','.join(map(str, want))}" if params else name)
    assert type(parsed) is cls
    got = [getattr(parsed, f.name) for f in params]
    assert got == want
    assert list(map(type, got)) == list(map(type, want))


def test_every_profile_class_has_a_cli_name():
    classes = get_args(BehaviorProfile) + get_args(ReferrerProfile)
    assert set(classes) == set(_PROFILES.values())


# A value for each run-dependent flag that differs from its default in every run.
_READ_VALUES = {"method": "Josang", "mode": "Amazon", "beta": "0.7", "switch": "2"}
_PROFILE_VALUES = {"referrer": "rumor:2,3", "history": "periodic"}


@pytest.mark.parametrize("command,experiment,flag", [
    (command, experiment, flag) for (command, experiment), flags in _RUN_FLAGS.items()
    for flag in flags
])
def test_every_flag_the_table_lists_is_read(capsys, command, experiment, flag):
    # The combine run's default --switch 50 needs a longer run.
    argv = [command, "--experiment", experiment,
            "--timesteps", "60" if experiment == "combine" else "6"]
    if command == "sweep":
        argv += ["--profiles", "truthful" if experiment == "referrer" else "periodic",
                 "--beta-grid", "0:1:0.5", "--seeds", "1"]
    if experiment == "history" and flag == "beta":
        argv += ["--mode", "FixedBeta"]
    value = _PROFILE_VALUES[experiment] if flag == "profile" else _READ_VALUES[flag]
    code, out, err = run(capsys, *argv, f"--{flag}", value)
    assert code == 0, err
    default_code, default_out, _ = run(capsys, *argv)
    assert default_code == 0
    assert out != default_out


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _option_flags(command):
    """The subcommand's options, each by its long flag, with its default."""
    return {a.option_strings[-1]: a.default for a in _subparsers(_build_parser())[command]._actions
            if a.option_strings and a.dest != "help"}


def _parse_outcome(parser, argv):
    """The parsed flags, or the usage error's text."""
    try:
        return vars(parser.parse_args(argv))
    except _UsageError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_parser_built_for_one_command_matches_the_full_parser(command):
    one, full = _build_parser(command), _build_parser()
    assert list(_subparsers(one)) == [command]
    assert _subparsers(one)[command].format_help() == _subparsers(full)[command].format_help()
    for argv in ([command], [command, "--frob"], [command, "--out"], [command, "--format", "x"],
                 [command, "--seed", "-1"], [command, "1", "2", "3"]):
        assert _parse_outcome(one, argv) == _parse_outcome(full, argv), argv


def test_top_level_help_and_unknown_command_list_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == _build_parser().format_help()
    assert all(f"    {command} " in out for command in _COMMANDS)
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert all(repr(command) in err for command in _COMMANDS)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_command_help_is_the_full_parsers(capsys, command):
    with pytest.raises(SystemExit):
        cli_main([command, "--help"])
    assert capsys.readouterr().out == _subparsers(_build_parser())[command].format_help()


# The options that every run of a command reads.
_EVERY_RUN_READS = {
    "simulate": {"--out", "--format", "--seed", "--experiment", "--timesteps", "--tx"},
    "sweep": {"--out", "--format", "--seed", "--experiment", "--timesteps", "--tx",
              "--profiles", "--beta-grid", "--seeds"},
}


@pytest.mark.parametrize("command", sorted(_EVERY_RUN_READS))
def test_run_flag_table_matches_the_parser(command):
    options = _option_flags(command)
    in_table = {f"--{flag}" for (c, _), flags in _RUN_FLAGS.items() if c == command
                for flag in flags}
    assert set(options) - _EVERY_RUN_READS[command] == in_table
    # None tells a flag that was set from one that was not.
    assert all(options[flag] is None for flag in in_table)


# Every numeric flag and argument, with {} where an edge value goes.
_EDGE_COMMANDS = [
    "certainty {} 1",
    "certainty 1 {}",
    "accuracy --method average --observed={},1 --report 1,1",
    "accuracy --method max-certainty --observed 1,{} --report 1,1",
    "accuracy --method sensitivity --observed 1,1 --report={},1",
    "accuracy --method linear --observed 1,1 --report 1,{}",
    "update --method AverageBeta --beta={} --observed 2,1 --report 5,5",
    "update --method Josang --observed={},1 --report 5,5",
    "update --method MaxCertainty --observed 2,1 --report 5,{}",
    "update --method Sensitivity --observed 2,1 --report 5,5 --prior={},1",
    "update --method LinearWS --observed 2,1 --report 5,5 --prior 1,{}",
    "simulate --experiment history --timesteps={}",
    "simulate --experiment history --timesteps 3 --tx={}",
    "simulate --experiment history --timesteps 3 --seed={}",
    "simulate --experiment history --timesteps 3 --mode FixedBeta --beta={}",
    "simulate --experiment history --timesteps 3 --profile probability:{}",
    "simulate --experiment history --timesteps 3 --profile damping:{}",
    "simulate --experiment history --timesteps 3 --profile walk:{}",
    "simulate --experiment history --timesteps 3 --profile momentum:{},0.5",
    "simulate --experiment history --timesteps 3 --profile momentum:0.1,{}",
    "simulate --experiment referrer --timesteps 3 --beta={}",
    "simulate --experiment referrer --timesteps 3 --profile rumor:{},10",
    "simulate --experiment referrer --timesteps 3 --profile rumor:1,{}",
    "simulate --experiment referrer --timesteps 3 --profile corrupted:{}",
    "simulate --experiment combine --timesteps 3 --switch={}",
    "sweep --profiles periodic --beta-grid 0:1:0.5 --timesteps={}",
    "sweep --profiles periodic --beta-grid 0:1:0.5 --timesteps 3 --tx={}",
    "sweep --profiles periodic --beta-grid 0:1:0.5 --timesteps 3 --seeds={}",
    "sweep --profiles periodic --beta-grid 0:1:0.5 --timesteps 3 --seed={}",
    "sweep --profiles periodic --beta-grid={}:1:0.5 --timesteps 3",
    "sweep --profiles periodic --beta-grid 0:{}:0.5 --timesteps 3",
    "sweep --profiles periodic --beta-grid 0:1:{} --timesteps 3",
    "sweep --experiment referrer --profiles rumor:1,{} --beta-grid 0:1:0.5 --timesteps 3",
    "amazon --lambda-grid={}:1:0.5",
    "amazon --lambda-grid 0:{}:0.5",
    "amazon --lambda-grid 0:1:{}",
]
_EDGE_VALUES = ["nan", "inf", "-1", "0", "1000000001", str(2**63), str(2**64), "1e308"]


class _SecondSeed(Exception):
    pass


@pytest.mark.parametrize("value", _EDGE_VALUES)
@pytest.mark.parametrize("command", _EDGE_COMMANDS)
def test_edge_values_keep_the_exit_code_contract(capsys, monkeypatch, command, value):
    """No input escapes as an exception: each exits 0, 1, 2 or 3, and a run
    that fails writes nothing to stdout.  A sweep that takes its --seeds is
    stopped once its first seed has run, since 10⁹ seeds would run for days."""
    import evitrust.cli as cli_mod

    history_errors, calls = cli_mod.history_errors, []

    def first_seed_only(*args):
        if calls:
            raise _SecondSeed
        calls.append(args)
        return history_errors(*args)

    if "--seeds" in command:
        monkeypatch.setattr(cli_mod, "history_errors", first_seed_only)
    try:
        code, out, err = run(capsys, *command.format(value).split())
    except _SecondSeed:
        return
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""


@pytest.mark.parametrize("argv,flag", [
    (["update", "--method", "Josang", "--observed", "a,b", "--report", "1,1"], "--observed"),
    (["update", "--method", "Josang", "--beta", "x", "--observed", "1,1", "--report", "1,1"],
     "--beta"),
    (["amazon", "--lambda-grid", "0:1"], "--lambda-grid"),
    (["simulate", "--experiment", "referrer", "--method", "Bogus"], "--method"),
    (["simulate", "--experiment", "history", "--mode", "Bogus"], "--mode"),
])
def test_input_checks_are_usage_errors(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert flag in err
    assert out == ""


class TestBoundedRuns:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--experiment", "history"],
        ["sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5"],
    ])
    def test_timesteps_past_a_million_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--timesteps", str(10**6 + 1))
        assert code == 1
        assert "--timesteps" in err and "1000000" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--experiment", "history"],
        ["sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5"],
    ])
    def test_a_million_timesteps_parses(self, argv):
        args = _build_parser(argv[0]).parse_args([*argv, "--timesteps", str(10**6)])
        assert args.timesteps == 10**6

    @pytest.mark.parametrize("experiment,profile,runner", [
        ("history", "periodic", "history_errors"),
        ("referrer", "truthful", "run_referrer_experiment"),
    ])
    def test_sweep_streams_its_seeds(self, monkeypatch, experiment, profile, runner):
        """A trillion seeds start running at once: the seed list is never built."""
        import evitrust.cli as cli_mod

        class Stop(Exception):
            pass

        calls = []

        def stub(*args):
            calls.append(args)
            if len(calls) == 3:
                raise Stop
            return [0.5]

        monkeypatch.setattr(cli_mod, runner, stub)
        monkeypatch.setattr(cli_mod, "prediction_error", lambda errors: errors[0])
        with pytest.raises(Stop):
            cli_main(["sweep", "--experiment", experiment, "--profiles", profile,
                      "--beta-grid", "0.5:0.5:1", "--seeds", str(10**12)])
        assert len(calls) == 3

    @pytest.mark.parametrize("profile,folds", [("periodic", 21), ("probability:0.9", 105)])
    def test_sweep_folds_each_distinct_stream_once(self, capsys, monkeypatch, profile, folds):
        """Periodic draws one stream at all 5 seeds, so its 21-point grid is
        folded once; Probability(0.9) draws 5 streams."""
        from evitrust import simulation

        fold, calls = simulation._fold, []

        def counted(*args):
            calls.append(args)
            return fold(*args)

        monkeypatch.setattr(simulation, "_fold", counted)
        simulation._grid_errors.cache_clear()
        code, _, _ = run(capsys, "sweep", "--profiles", profile, "--beta-grid", "0:1:0.05",
                         "--seeds", "5")
        assert code == 0
        assert len(calls) == folds

    def test_sweep_mean_sums_the_seeds_left_to_right(self, capsys, monkeypatch):
        import evitrust.cli as cli_mod

        monkeypatch.setattr(cli_mod, "history_errors", lambda cfg, profile, mode, betas:
                            [0.1] * len(betas))
        code, out, _ = run(capsys, "sweep", "--profiles", "periodic", "--beta-grid", "0:1:0.5",
                           "--seeds", "10")
        assert code == 0
        total = 0.0
        for _ in range(10):
            total += 0.1
        # A compensated sum (Python 3.12's ``sum``) gives another mean.
        assert total / 10 != math.fsum([0.1] * 10) / 10
        assert [float(row.split(",")[3]) for row in out.split("\n")[1:-1]] == [total / 10] * 3
