"""End-to-end CLI behaviour: commands, file formats, exit codes."""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plsfair
from conftest import random_ratings, random_simplex
from plsfair import (
    Allocation,
    AllocationPlan,
    ContractSpec,
    RiskProfile,
    Variant,
    WakalahTerms,
    verify_allocation,
)
from plsfair.cli import contract_to_dict, main, profile_from_model

FIGURE_SWEEP_CONTRACT = {
    "schema": 1,
    "variant": "musharakah_self_managed",
    "ratings": [3, 5, 4, 2],
    "capital": [0.125, 0.625, 0.25, 0.0],
}


def write_contract(tmp_path, doc, name="contract.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRiskCommand:
    def test_gbm_closed_form(self, capsys):
        code, out, _ = run(
            capsys,
            ["risk", "--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1", "--L", "100"],
        )
        assert code == 0
        assert "10.52" in out  # delta to display precision
        assert "viable:   yes" in out

    def test_gbm_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["risk", "--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1",
             "--L", "100", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == pytest.approx(10.517091807564762, rel=1e-13)
        assert payload["viable"] is True

    def test_two_point(self, capsys):
        code, out, _ = run(
            capsys,
            ["risk", "--model", "two-point", "--beta", "0.6", "--r-plus", "120",
             "--r-minus", "90", "--L", "100", "--json"],
        )
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(1 / 3, abs=1e-15)

    def test_negative_drift_is_not_viable(self, capsys):
        code, out, _ = run(
            capsys,
            ["risk", "--model", "gbm", "--mu", "-0.1", "--sigma", "0.2", "--T", "1", "--L", "100"],
        )
        assert code == 2
        assert "not viable" in out

    def test_simulated_profile_reports_standard_errors(self, capsys):
        code, out, _ = run(
            capsys,
            ["risk", "--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1",
             "--L", "100", "--simulate", "--paths", "50000", "--seed", "9", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["se_rho"] > 0.0
        assert payload["rho"] == pytest.approx(0.2829, abs=0.02)

    def test_simulation_is_reproducible(self, capsys):
        argv = ["risk", "--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1",
                "--L", "100", "--simulate", "--paths", "20000", "--json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_missing_model_flag_is_an_input_error(self, capsys):
        code, _, err = run(capsys, ["risk", "--model", "gbm", "--mu", "0.1", "--L", "100"])
        assert code == 1
        assert "sigma" in err

    def test_unknown_flag_is_an_input_error(self, capsys):
        code, _, _ = run(capsys, ["risk", "--model", "gbm", "--bogus", "1"])
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "abc", "seed must be an unsigned 64-bit integer, got 'abc'"),
            ("--seed", "1.5", "seed must be an unsigned 64-bit integer, got '1.5'"),
            ("--seed", "-1", "seed must be an unsigned 64-bit integer, got '-1'"),
            ("--seed", str(2**64), f"seed must be an unsigned 64-bit integer, got '{2**64}'"),
            ("--paths", "abc", "must be a positive integer, got 'abc'"),
            ("--paths", "0", "must be a positive integer, got '0'"),
        ],
    )
    def test_integer_flag_errors_name_the_rule(self, capsys, flag, value, message):
        code, out, err = run(capsys, ["risk", "--model", "gbm", "--L", "100", flag, value])
        assert code == 1 and out == ""
        assert err.endswith(f"error: argument {flag}: {message}\n")
        assert "_u64" not in err and "_positive_int" not in err

    def test_growth_factor_overflow_exits_1(self, capsys):
        code, out, err = run(
            capsys,
            ["risk", "--model", "gbm", "--mu", "800", "--sigma", "0.2", "--T", "1", "--L", "100"],
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "extra",
        [
            ["--mu", "800", "--sigma", "0.2", "--L", "100", "--simulate", "--paths", "1000"],
            ["--mu", "709", "--sigma", "0.2", "--L", "100"],
            ["--mu", "709", "--sigma", "1", "--L", "1", "--simulate", "--paths", "1000"],
        ],
    )
    def test_overflowing_income_exits_1_without_warnings(self, capsys, extra):
        code, out, err = run(capsys, ["risk", "--model", "gbm", "--T", "1", *extra])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows" in err or "not a finite number" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--model", "gbm", "--mu", "-700", "--sigma", "0.1", "--T", "1"],
            ["--model", "gbm", "--mu", "0.1", "--sigma", "1e200", "--T", "1"],
            ["--model", "empirical", "--data", "missing-draws.txt"],
            ["--model", "empirical", "--data", "."],
        ],
    )
    def test_unrepresentable_or_unreadable_inputs_exit_1(self, capsys, tmp_path, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, ["risk", *extra, "--L", "100"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tolerance_is_not_a_risk_flag(self, capsys):
        code, _, _ = run(
            capsys,
            ["risk", "--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1",
             "--L", "100", "--tol", "1e-3"],
        )
        assert code == 1

    def test_empirical_json_carries_all_standard_errors(self, capsys, tmp_path):
        data = tmp_path / "draws.txt"
        data.write_text("R_T\n120\n90\n104\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            ["risk", "--model", "empirical", "--data", str(data), "--L", "100", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert {"se_profit", "se_loss", "se_rho", "se_delta"} <= payload.keys()
        assert payload["se_rho"] > 0.0 and payload["se_delta"] > 0.0

    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("empirical", ["--model", "empirical", "--data", "draws.txt", "--L", "100"]),
            ("fixed_rho", ["--model", "fixed-rho", "--rho", "0.3"]),
        ],
    )
    def test_simulate_needs_a_priced_model(self, capsys, tmp_path, monkeypatch, kind, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "draws.txt").write_text("R_T\n120\n90\n", encoding="utf-8")
        code, out, err = run(capsys, ["risk", *flags, "--simulate", "--paths", "5", "--seed", "3"])
        assert code == 1 and out == ""
        assert err == f"error: --simulate applies only to model kinds gbm and two_point, not {kind!r}\n"

    def test_empirical_model(self, capsys, tmp_path):
        data = tmp_path / "draws.txt"
        data.write_text("R_T\n120\n90\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            ["risk", "--model", "empirical", "--data", str(data), "--L", "100", "--json"],
        )
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(0.5)

    def test_empirical_model_from_a_deleted_working_directory(self, capsys, tmp_path, monkeypatch):
        data = tmp_path / "draws.txt"
        data.write_text("R_T\n120\n90\n", encoding="utf-8")
        gone = tmp_path / "gone"
        gone.mkdir()
        monkeypatch.chdir(gone)
        gone.rmdir()
        flags = ["risk", "--model", "empirical", "--L", "100", "--data"]
        code, out, err = run(capsys, [*flags, str(data)])
        assert code == 0 and "rho:      0.5\n" in out and err == ""
        # A relative path is opened from the working directory, which no longer exists.
        code, out, err = run(capsys, [*flags, "draws.txt"])
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read draws file") and err.count("\n") == 1
        assert "Traceback" not in err


class TestAllocateCommand:
    def test_rated_mudharabah_file(self, capsys, tmp_path):
        path = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "cfair_mudharabah",
                "ratings": [2, 3],
                "model": {"kind": "fixed_rho", "rho": 0.25},
            },
        )
        code, out, _ = run(capsys, ["allocate", path, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["gammas"] == pytest.approx([0.70, 0.30], abs=1e-12)
        assert payload["verification"]["passed"] is True

    def test_musharakah_file(self, capsys, tmp_path):
        path = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "musharakah_self_managed",
                "ratings": [1, 1, 1, 1],
                "capital": [0.125, 0.375, 0.125, 0.375],
                "model": {"kind": "fixed_rho", "rho": 2 / 3},
            },
        )
        code, out, _ = run(capsys, ["allocate", path, "--json"])
        assert code == 0
        gammas = json.loads(out)["gammas"]
        assert gammas == pytest.approx([1 / 6, 1 / 3, 1 / 6, 1 / 3], abs=1e-14)

    def test_wakalah_file(self, capsys, tmp_path):
        path = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "musharakah_wakalah",
                "ratings": [1, 1, 1],
                "capital": [1, 0],
                "wakalah": {"r": 0, "T": 1, "k": 4},
                "model": {"kind": "fixed_rho", "rho": 0.5, "delta": 12.0},
            },
        )
        code, out, _ = run(capsys, ["allocate", path, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["gammas"] == pytest.approx([0.75, 0.25], abs=1e-15)
        # p = (1/k) * w_manager * delta = (1/4)(1/3)(12)
        assert payload["periodic_payment"] == pytest.approx(1.0, rel=1e-12)
        assert payload["payoff_valuation"] == "present_value"

    def test_wakalah_with_overflowing_maturity(self, capsys, tmp_path):
        path = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "musharakah_wakalah",
                "ratings": [2, 3, 1.25, 4],
                "capital": [0.5, 0.3, 0.2],
                "wakalah": {"r": 0.05, "T": 1e6, "k": 4},
                "model": {"kind": "fixed_rho", "rho": 0.3, "delta": 5.0},
            },
        )
        # (1.05)^-1e6 underflows to 0, so every payoff vanishes and a
        # verification residual of 0 would carry no information.
        code, out, err = run(capsys, ["allocate", path, "--json"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: discount (1+r)^-T underflows to 0") and err.count("\n") == 1

    def test_json_output_round_trips_through_verify(self, capsys, tmp_path):
        path = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "musharakah_wakalah",
                "ratings": [1, 2, 3, 4],
                "capital": [0.2, 0.3, 0.5],
                "wakalah": {"r": 0.05, "T": 2, "k": 4},
                "model": {"kind": "fixed_rho", "rho": 0.37, "delta": 100.0},
            },
        )
        code, out, _ = run(capsys, ["allocate", path, "--json"])
        assert code == 0
        payload = json.loads(out)
        rebuilt = Allocation(
            gammas=tuple(payload["gammas"]),
            payoffs=tuple(payload["payoffs"]),
            periodic_payment=payload["periodic_payment"],
            valuation=payload["payoff_valuation"],
        )
        profile = RiskProfile.from_rho(payload["rho"], e_profit=payload["e_profit"])
        spec = ContractSpec(
            Variant.MUSHARAKAH_WAKALAH, (1, 2, 3, 4), (0.2, 0.3, 0.5), WakalahTerms(0.05, 2.0, 4)
        )
        report = verify_allocation(rebuilt, spec, profile, tol=1e-9)
        assert report.passed
        assert report.max_fairness_residual == payload["residual"]

    def test_human_report_mentions_payment_schedule(self, capsys, tmp_path):
        path = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "musharakah_wakalah",
                "ratings": [1, 1, 1],
                "capital": [1, 0],
                "wakalah": {"r": 0, "T": 1, "k": 4},
                "model": {"kind": "fixed_rho", "rho": 0.5, "delta": 12.0},
            },
        )
        code, out, _ = run(capsys, ["allocate", path])
        assert code == 0
        assert "paid 4 times" in out
        assert "OK" in out

    def test_gbm_model_in_file(self, capsys, tmp_path):
        path = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "fair_mudharabah",
                "ratings": [1, 1],
                "model": {"kind": "gbm", "mu": 0.1, "sigma": 0.2, "T": 1},
                "capital_amount": 100.0,
            },
        )
        code, out, _ = run(capsys, ["allocate", path, "--json"])
        assert code == 0
        payload = json.loads(out)
        rho = 0.2828568099840214
        assert payload["gammas"][0] == pytest.approx(0.5 * (1 + rho), rel=1e-10)

    def test_empirical_path_is_relative_to_contract(self, capsys, tmp_path):
        (tmp_path / "draws.txt").write_text("120\n90\n", encoding="utf-8")
        path = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "fair_mudharabah",
                "ratings": [1, 1],
                "model": {"kind": "empirical", "path": "draws.txt"},
                "capital_amount": 100.0,
            },
        )
        code, out, _ = run(capsys, ["allocate", path, "--json"])
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(0.5)

    def test_empirical_path_follows_a_symlinked_contract(self, capsys, tmp_path):
        real, other = tmp_path / "real", tmp_path / "other"
        real.mkdir()
        other.mkdir()
        (real / "draws.txt").write_text("120\n90\n", encoding="utf-8")
        # Read from the link's own directory, these draws would give rho = 0.
        (other / "draws.txt").write_text("120\n110\n", encoding="utf-8")
        target = write_contract(
            real,
            {
                "schema": 1,
                "variant": "fair_mudharabah",
                "ratings": [1, 1],
                "model": {"kind": "empirical", "path": "draws.txt"},
                "capital_amount": 100.0,
            },
        )
        (other / "link.json").symlink_to(target)
        code, out, _ = run(capsys, ["allocate", str(other / "link.json"), "--json"])
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(0.5)

    def test_contract_path_is_keyword_only(self, tmp_path):
        # A directory passed where a base directory once went must not be
        # taken for the contract file.
        with pytest.raises(TypeError):
            profile_from_model({"kind": "empirical", "path": "d.txt"}, 100.0, tmp_path)

    @pytest.mark.parametrize(
        "model",
        [{"kind": "empirical", "path": "draws.txt"}, {"kind": "fixed_rho", "rho": 0.3}],
    )
    def test_simulate_needs_a_priced_model(self, capsys, tmp_path, model):
        (tmp_path / "draws.txt").write_text("120\n90\n", encoding="utf-8")
        path = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "fair_mudharabah",
                "ratings": [1, 1],
                "model": model,
                "capital_amount": 100.0,
            },
        )
        code, out, err = run(capsys, ["allocate", path, "--json", "--simulate", "--paths", "5"])
        assert code == 1 and out == ""
        assert err == (
            f"error: --simulate applies only to model kinds gbm and two_point, not {model['kind']!r}\n"
        )

    @pytest.mark.parametrize("simulate", [[], ["--simulate", "--paths", "5"]])
    @pytest.mark.parametrize("kind", [["gbm"], {"gbm": 1}, None, 3, "lognormal"])
    def test_unknown_model_kind_is_one_error_line(self, capsys, tmp_path, kind, simulate):
        path = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "fair_mudharabah",
                "ratings": [1, 1],
                "model": {"kind": kind, "mu": 0.1, "sigma": 0.2, "T": 1},
                "capital_amount": 100.0,
            },
        )
        code, out, err = run(capsys, ["allocate", path, *simulate])
        assert code == 1 and out == ""
        assert err == (
            f"error: unknown model kind {kind!r}; expected gbm, two_point, empirical, or fixed_rho\n"
        )

    def test_non_viable_model_exits_2(self, capsys, tmp_path):
        path = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "cfair_mudharabah",
                "ratings": [2, 3],
                "model": {"kind": "fixed_rho", "rho": 1.5},
            },
        )
        code, _, err = run(capsys, ["allocate", path])
        assert code == 2
        assert "not viable" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"schema": 2, "variant": "cfair_mudharabah", "ratings": [2, 3]},
            {"variant": "cfair_mudharabah", "ratings": [2, 3]},
            {"schema": 1, "variant": "bogus", "ratings": [2, 3]},
            {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, -3],
             "model": {"kind": "fixed_rho", "rho": 0.25}},
            {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3]},
            {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
             "model": {"kind": "gbm", "mu": 0.1, "sigma": 0.2, "T": 1}},
        ],
    )
    def test_input_errors_exit_1(self, capsys, tmp_path, doc):
        path = write_contract(tmp_path, doc)
        code, _, err = run(capsys, ["allocate", path])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"ratings": ["2", 1, 3]}, "rating 1 must be a number, got '2'"),
            ({"ratings": [2, True, 3]}, "rating 2 must be a number, got True"),
            ({"ratings": [2, 1, " 3 "]}, "rating 3 must be a number, got ' 3 '"),
            ({"capital": [True, False]}, "capital share 1 must be a number, got True"),
            ({"capital": [1, "0"]}, "capital share 2 must be a number, got '0'"),
            ({"wakalah": {"r": False, "T": 1, "k": 4}}, "wakalah 'r' must be a number, got False"),
            ({"wakalah": {"r": 0, "T": "1e0", "k": 4}}, "wakalah 'T' must be a number, got '1e0'"),
        ],
    )
    def test_contract_numbers_are_json_numbers(self, capsys, tmp_path, change, message):
        doc = {"schema": 1, "variant": "musharakah_wakalah", "ratings": [2, 1, 3], "capital": [1, 0],
               "wakalah": {"r": 0, "T": 1, "k": 4}, "model": {"kind": "fixed_rho", "rho": 0.25}}
        assert run(capsys, ["allocate", write_contract(tmp_path, doc, "base.json")])[0] == 0
        code, out, err = run(capsys, ["allocate", write_contract(tmp_path, {**doc, **change})])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, ["allocate", str(tmp_path / "nope.json")])
        assert code == 1

    def test_invalid_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, _ = run(capsys, ["allocate", str(path)])
        assert code == 1


class TestSweepCommand:
    def test_figure_style_sweep(self, capsys, tmp_path):
        contract = write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            ["sweep", contract, "--rho-from", "0", "--rho-to", "1", "--steps", "5",
             "-o", str(out_csv)],
        )
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rho,gamma_1,gamma_2,gamma_3,gamma_4"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        weights = (20 / 77, 12 / 77, 15 / 77, 30 / 77)
        assert first[0] == 0.0 and first[1:] == pytest.approx(weights, abs=1e-9)
        assert last[0] == 1.0 and last[1:] == pytest.approx([0.125, 0.625, 0.25, 0.0], abs=1e-9)
        for line in lines[1:]:
            row = [float(v) for v in line.split(",")]
            assert math.fsum(row[1:]) == pytest.approx(1.0, abs=1e-9)

    def test_stdout_and_determinism(self, capsys, tmp_path):
        contract = write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        argv = ["sweep", contract, "--rho-from", "0", "--rho-to", "1", "--steps", "11"]
        code, first, _ = run(capsys, argv)
        assert code == 0
        _, second, _ = run(capsys, argv)
        assert first == second
        assert first.endswith("\n") and "\r" not in first

    def test_rows_are_affine_in_rho(self, capsys, tmp_path):
        contract = write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        code, out, _ = run(
            capsys, ["sweep", contract, "--rho-from", "0", "--rho-to", "1", "--steps", "3"]
        )
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        for j in range(1, 5):
            midpoint = 0.5 * (rows[0][j] + rows[2][j])
            assert rows[1][j] == pytest.approx(midpoint, abs=1e-12)

    @pytest.mark.parametrize(
        "bounds",
        [["--rho-from", "0.5", "--rho-to", "0.5"], ["--rho-from", "-0.1", "--rho-to", "1"],
         ["--rho-from", "0", "--rho-to", "1.1"], ["--rho-from", "0", "--rho-to", "1", "--steps", "1"]],
    )
    def test_invalid_ranges_exit_1(self, capsys, tmp_path, bounds):
        contract = write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        code, _, _ = run(capsys, ["sweep", contract, *bounds])
        assert code == 1

    @pytest.mark.parametrize(
        "flag", [["--simulate"], ["--json"], ["--seed", "1"], ["--paths", "10"], ["--tol", "1e-3"]]
    )
    def test_profile_flags_are_rejected(self, capsys, tmp_path, flag):
        contract = write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        code, out, _ = run(capsys, ["sweep", contract, *flag])
        assert code == 1 and out == ""

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        contract = write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        missing = tmp_path / "missing" / "out.csv"
        code, _, err = run(capsys, ["sweep", contract, "-o", str(missing)])
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not missing.exists()

    def test_wakalah_sweep_has_funding_columns_only(self, capsys, tmp_path):
        contract = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "musharakah_wakalah",
                "ratings": [1, 1, 1],
                "capital": [1, 0],
                "wakalah": {"r": 0, "T": 1, "k": 4},
            },
        )
        code, out, _ = run(capsys, ["sweep", contract, "--steps", "3"])
        assert code == 0
        assert out.splitlines()[0] == "rho,gamma_1,gamma_2"

    def test_csv_matches_reference_formatting(self, capsys, tmp_path):
        rng = np.random.default_rng(31)
        for variant in Variant:
            for d in (2, 3, 9, 64):
                if variant in (Variant.FAIR_MUDHARABAH, Variant.CFAIR_MUDHARABAH) and d != 2:
                    continue
                ratings = random_ratings(rng, d)
                capital, terms = random_simplex(rng, d), None
                if variant is Variant.FAIR_MUDHARABAH:
                    ratings, capital = (ratings[0], ratings[0]), None
                elif variant is Variant.CFAIR_MUDHARABAH:
                    capital = None
                elif variant is not Variant.MUSHARAKAH_SELF_MANAGED:
                    capital = random_simplex(rng, d - 1) if d > 2 else (1.0,)
                    if variant is Variant.MUSHARAKAH_WAKALAH:
                        terms = WakalahTerms(r=0.04, T=5.0, k=12)
                spec = ContractSpec(variant, ratings, capital, terms)
                lo = float(rng.uniform(0.0, 0.5))
                hi = float(rng.uniform(0.5, 1.0))
                steps = int(rng.integers(2, 400))
                contract = write_contract(tmp_path, contract_to_dict(spec))
                code, out, _ = run(
                    capsys,
                    ["sweep", contract, "--rho-from", repr(lo), "--rho-to", repr(hi),
                     "--steps", str(steps)],
                )
                assert code == 0
                plan = AllocationPlan.for_contract(spec)
                header = "rho," + ",".join(f"gamma_{j + 1}" for j in range(len(plan.w_eff)))
                rows = [
                    ",".join(f"{x:.12g}" for x in (rho, *plan.gammas(rho)))
                    for rho in (lo + (hi - lo) * i / (steps - 1) for i in range(steps))
                ]
                assert out == "\n".join([header, *rows]) + "\n", (variant, d)

    def test_rows_off_the_simplex_exit_1(self, capsys, tmp_path, monkeypatch):
        contract = write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        off_simplex = AllocationPlan(
            weights=(0.6, 0.4), w_eff=(0.6, 0.4), kappa_eff=(0.6, 0.6)
        )
        monkeypatch.setattr(AllocationPlan, "for_contract", lambda spec: off_simplex)
        code, out, err = run(capsys, ["sweep", contract, "--steps", "5"])
        assert code == 1 and out == ""
        assert "violates the ratio simplex" in err


#: Runs closed-form commands in a fresh interpreter, reports whether numpy got
#: loaded, then runs a Monte Carlo estimate, which must load it.
NO_NUMPY_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
import plsfair
from plsfair.cli import main

def run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()

codes = []
for contract in sys.argv[2:]:
    codes.append(run("allocate", contract)[0])
    code, out = run("allocate", contract, "--json")
    gammas = ",".join(repr(g) for g in json.loads(out)["gammas"])
    codes += [code, run("verify", contract, "--gammas", gammas)[0], run("sweep", contract, "-o", "-")[0]]
closed_form = "numpy" in sys.modules
codes.append(run("risk", "--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1",
                 "--L", "100", "--simulate", "--paths", "1000")[0])
print(json.dumps({"codes": codes, "closed_form": closed_form, "simulate": "numpy" in sys.modules}))
"""


class TestClosedFormImports:
    def test_closed_form_commands_never_import_numpy(self, tmp_path):
        contracts = [
            write_contract(tmp_path, {**FIGURE_SWEEP_CONTRACT, "capital_amount": 100.0,
                                      "model": {"kind": "gbm", "mu": 0.1, "sigma": 0.2, "T": 1}},
                           "gbm.json"),
            write_contract(tmp_path, {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
                                      "capital_amount": 100.0,
                                      "model": {"kind": "two_point", "beta": 0.6, "r_plus": 120,
                                                "r_minus": 90}},
                           "two_point.json"),
            write_contract(tmp_path, {"schema": 1, "variant": "musharakah_external_mudharib",
                                      "ratings": [1.5, 4, 2], "capital": [0.3, 0.7],
                                      "model": {"kind": "fixed_rho", "rho": 0.25, "delta": 8.0}},
                           "fixed_rho.json"),
        ]
        src = str(Path(plsfair.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-I", "-c", NO_NUMPY_SCRIPT, src, *contracts],
            capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert result == {"codes": [0] * 13, "closed_form": False, "simulate": True}


class TestVerifyCommand:
    EQUAL_KAPPA = {
        "schema": 1,
        "variant": "musharakah_self_managed",
        "ratings": [1, 2, 1, 4],
        "capital": [0.25, 0.25, 0.25, 0.25],
        "model": {"kind": "fixed_rho", "rho": 0.125},
    }

    def test_closed_form_gammas_pass(self, capsys, tmp_path):
        contract = write_contract(tmp_path, self.EQUAL_KAPPA)
        gammas = ",".join(repr(123 / 352 if i in (0, 2) else (67 / 352 if i == 1 else 39 / 352)) for i in range(4))
        code, out, _ = run(capsys, ["verify", contract, "--gammas", gammas])
        assert code == 0
        assert "PASS" in out

    def test_published_tuple_fails_even_loosely(self, capsys, tmp_path):
        contract = write_contract(tmp_path, self.EQUAL_KAPPA)
        code, out, _ = run(
            capsys,
            ["verify", contract, "--gammas", "0.35,0.11,0.35,0.19", "--tol", "1e-2"],
        )
        assert code == 3
        assert "FAIL" in out

    def test_swapped_tuple_passes_at_rounding_tolerance(self, capsys, tmp_path):
        contract = write_contract(tmp_path, self.EQUAL_KAPPA)
        code, out, _ = run(
            capsys,
            ["verify", contract, "--gammas", "0.35,0.19,0.35,0.11", "--tol", "1e-2"],
        )
        assert code == 0
        assert "PASS" in out

    def test_length_mismatch_exits_1(self, capsys, tmp_path):
        contract = write_contract(tmp_path, self.EQUAL_KAPPA)
        code, _, err = run(capsys, ["verify", contract, "--gammas", "0.5,0.5"])
        assert code == 1
        assert "expected 4 ratios" in err

    def test_wakalah_requires_payment(self, capsys, tmp_path):
        contract = write_contract(
            tmp_path,
            {
                "schema": 1,
                "variant": "musharakah_wakalah",
                "ratings": [1, 1, 1],
                "capital": [1, 0],
                "wakalah": {"r": 0, "T": 1, "k": 4},
                "model": {"kind": "fixed_rho", "rho": 0.5, "delta": 12.0},
            },
        )
        code, _, err = run(capsys, ["verify", contract, "--gammas", "0.75,0.25"])
        assert code == 1
        assert "--p" in err
        code, out, _ = run(
            capsys, ["verify", contract, "--gammas", "0.75,0.25", "--p", "1.0"]
        )
        assert code == 0

    def test_payment_is_only_for_wakalah(self, capsys, tmp_path):
        contract = write_contract(
            tmp_path,
            {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
             "model": {"kind": "fixed_rho", "rho": 0.25, "delta": 8.0}},
        )
        code, out, err = run(capsys, ["verify", contract, "--gammas", "0.7,0.3", "--p", "123"])
        assert code == 1 and out == ""
        assert err == "error: --p applies only to the wakalah variant, not cfair_mudharabah\n"

    GAMMAS_RULE = "--gammas must be a comma-separated list of finite numbers"
    P_RULE = "argument --p: must be a finite number"
    TOL_RULE = "argument --tol: must be a finite number >= 0"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["verify", "--gammas", "inf,-inf"], 1, f"{GAMMAS_RULE}, got 'inf,-inf'"),
            (["verify", "--gammas", "nan,0.5"], 1, f"{GAMMAS_RULE}, got 'nan,0.5'"),
            (["verify", "--gammas", "1e308,1e308"], 3, None),
            (["verify", "--gammas", "1e308,1e308", "--json"], 3, None),
            (["verify", "--gammas", "0.5,0.5", "--p", "nan"], 1, f"{P_RULE}, got 'nan'"),
            (["verify", "--gammas", "0.5,0.5", "--p", "1e999"], 1, f"{P_RULE}, got '1e999'"),
            (["allocate", "--tol", "nan"], 1, f"{TOL_RULE}, got 'nan'"),
            (["allocate", "--tol", "-1"], 1, f"{TOL_RULE}, got '-1'"),
            (["allocate", "--tol", "inf"], 1, f"{TOL_RULE}, got 'inf'"),
            (["verify", "--gammas", "0.7,0.3", "--tol=-1e-9"], 1, f"{TOL_RULE}, got '-1e-9'"),
        ],
    )
    def test_numeric_flags_end_in_a_documented_exit(self, capsys, tmp_path, argv, code, message):
        contract = write_contract(
            tmp_path,
            {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
             "model": {"kind": "fixed_rho", "rho": 0.25, "delta": 8.0}},
        )
        got, out, err = run(capsys, [argv[0], contract, *argv[1:]])
        assert got == code and "nan" not in out.lower()
        if message is None:  # a sum past the float range fails with an infinite residual
            assert err == "" and "inf" in out.lower()
        else:
            assert out == "" and err.endswith(f"error: {message}\n")

    def test_json_report(self, capsys, tmp_path):
        contract = write_contract(tmp_path, self.EQUAL_KAPPA)
        code, out, _ = run(
            capsys,
            ["verify", contract, "--gammas", "0.35,0.19,0.35,0.11", "--tol", "1e-2", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["max_fairness_residual"] > 0.0


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1
        assert "usage" in err.lower()

    def test_help_exits_0(self, capsys):
        code, _, _ = run(capsys, ["--help"])
        assert code == 0


#: Runs one command as the first ``main`` call of a fresh interpreter.
FIRST_CALL_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from plsfair.cli import main
raise SystemExit(main(sys.argv[2:]))
"""


class TestOneParserPerProcess:
    GBM = ["--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1", "--L", "100"]

    def test_calls_share_no_parsed_state(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
        contract = write_contract(
            tmp_path, {**FIGURE_SWEEP_CONTRACT, "capital_amount": 100.0,
                       "model": {"kind": "gbm", "mu": 0.1, "sigma": 0.2, "T": 1}},
        )
        calls = [
            ["risk", *self.GBM, "--json", "--seed", "7", "--simulate", "--paths", "2000"],
            ["sweep", contract, "--steps", "5"],
            ["allocate", contract, "--json", "--tol", "1e-3"],
            ["verify", contract, "--gammas", "0.4,0.3,0.2,0.1"],
            ["--help"],
            ["risk", "--model", "gbm", "--seed", "abc"],
            [],
            ["risk", *self.GBM],
            ["allocate", contract],
        ]
        in_process = [run(capsys, argv) for argv in calls]
        src = str(Path(plsfair.__file__).resolve().parent.parent)
        first_calls = []
        for argv in calls:
            done = subprocess.run(
                [sys.executable, "-I", "-c", FIRST_CALL_SCRIPT, src, *argv],
                capture_output=True, text=True, timeout=120,
            )
            first_calls.append((done.returncode, done.stdout, done.stderr))
        assert [code for code, _, _ in first_calls] == [0, 0, 0, 3, 0, 1, 1, 0, 0]
        assert in_process == first_calls

    def test_repeated_calls_build_no_parser(self, capsys, tmp_path, monkeypatch):
        contract = write_contract(
            tmp_path, {**FIGURE_SWEEP_CONTRACT, "model": {"kind": "fixed_rho", "rho": 0.3}},
        )
        assert main(["sweep", contract, "--steps", "3"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [main(argv) for argv in (["allocate", contract], ["sweep", contract],
                                         ["risk", *self.GBM], ["risk", "--bogus"], ["--help"])]
        capsys.readouterr()
        assert codes == [0, 0, 0, 1, 0]
        assert built == []


class TestExtremeRatings:
    # Every leave-one-out product of these ratings underflows a double.
    DOC = {
        "schema": 1,
        "variant": "musharakah_self_managed",
        "ratings": [1e-170] * 3 + [1e170] * 3,
        "capital": [1 / 6] * 6,
        "model": {"kind": "fixed_rho", "rho": 0.3},
    }

    @pytest.mark.parametrize("argv", [["allocate"], ["sweep"]])
    def test_vanishing_weights_exit_1(self, capsys, tmp_path, argv):
        contract = write_contract(tmp_path, self.DOC)
        code, out, err = run(capsys, [*argv, contract])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
