"""End-to-end CLI behaviour: commands, file formats, exit codes."""

from __future__ import annotations

import json
import math

import pytest

from plsfair import Allocation, RiskProfile, WakalahTerms, verify_allocation
from plsfair.cli import main

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

    def test_empirical_model(self, capsys, tmp_path):
        data = tmp_path / "draws.txt"
        data.write_text("R_T\n120\n90\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            ["risk", "--model", "empirical", "--data", str(data), "--L", "100", "--json"],
        )
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(0.5)


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
        code, out, _ = run(capsys, ["allocate", path, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert math.isfinite(payload["periodic_payment"])
        assert payload["verification"]["passed"] is True

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
            residual=payload["residual"],
            periodic_payment=payload["periodic_payment"],
            valuation=payload["payoff_valuation"],
        )
        profile = RiskProfile.from_rho(payload["rho"], e_profit=payload["e_profit"])
        report = verify_allocation(
            rebuilt, (1, 2, 3, 4), (0.2, 0.3, 0.5), profile,
            WakalahTerms(0.05, 2.0, 4), tol=1e-9,
        )
        assert report.passed

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
