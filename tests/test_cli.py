"""End-to-end CLI behaviour: commands, file formats, exit codes."""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import plsfair
from conftest import contract_to_dict, random_ratings, random_simplex
from plsfair import (
    Allocation,
    AllocationPlan,
    ContractSpec,
    RiskProfile,
    Variant,
    WakalahTerms,
    verify_allocation,
)
from plsfair import cli
from plsfair.cli import build_parser, contract_from_dict, main, profile_from_model
from plsfair.contracts import ContractError, NonViableError

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


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def strict_json(text):
    """Parse ``--json`` output as strict JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


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
        payload = strict_json(out)
        assert payload["delta"] == pytest.approx(10.517091807564762, rel=1e-13)
        assert payload["viable"] is True

    def test_two_point(self, capsys):
        code, out, _ = run(
            capsys,
            ["risk", "--model", "two-point", "--beta", "0.6", "--r-plus", "120",
             "--r-minus", "90", "--L", "100", "--json"],
        )
        assert code == 0
        assert strict_json(out)["rho"] == pytest.approx(1 / 3, abs=1e-15)

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
        payload = strict_json(out)
        assert payload["se_rho"] > 0.0
        assert payload["rho"] == pytest.approx(0.2829, abs=0.02)

    def test_simulation_is_reproducible(self, capsys):
        argv = ["risk", "--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1",
                "--L", "100", "--simulate", "--paths", "20000", "--json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("value", ["-5e-2", "-0.5E-1", "-5_0e-3"])
    def test_negative_exponent_form_is_a_flag_value(self, capsys, value):
        flags = ["--sigma", "0.2", "--T", "1", "--L", "100"]
        attached = run(capsys, ["risk", "--model", "gbm", "--mu=-5e-2", *flags])
        spaced = run(capsys, ["risk", "--model", "gbm", "--mu", value, *flags])
        assert spaced == attached and attached[0] == 2

    @pytest.mark.parametrize(
        "value, shown", [("-inf", "-inf"), ("-Infinity", "-inf"), ("-INF", "-inf"), ("-nan", "nan")]
    )
    def test_negative_infinity_and_nan_are_flag_values(self, capsys, value, shown):
        flags = ["--sigma", "0.2", "--T", "1", "--L", "100"]
        attached = run(capsys, ["risk", "--model", "gbm", f"--mu={value}", *flags])
        spaced = run(capsys, ["risk", "--model", "gbm", "--mu", value, *flags])
        assert spaced == attached == (1, "", f"error: drift must be finite, got {shown}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["risk", "--model", "fixed-rho", "--rho", "0.3", "--delta", "1e400"],
             "argument --delta: out of the float range, got '1e400'"),
            (["risk", "--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1", "--L", "-1e400"],
             "argument --L: out of the float range, got '-1e400'"),
            (["risk", "--model", "fixed-rho", "--rho", "0.999999999999", "--delta", "1e300"],
             "delta / (1 - rho) is out of the float range at rho = 0.999999999999, delta = 1e+300"),
            (["sweep", "contract.json", "--rho-to", "1e400"], "argument --rho-to: out of the float range, got '1e400'"),
        ],
    )
    def test_an_overflow_is_named(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_an_infinite_expected_profit_is_named(self, capsys, delta):
        argv = ["risk", "--model", "fixed-rho", "--rho", "0.3", "--delta", delta]
        assert run(capsys, argv) == (1, "", f"error: expected profit must be finite, got {delta}\n")

    def test_flag_text_that_is_no_number_keeps_its_message(self, capsys):
        code, _, err = run(capsys, ["risk", "--model", "gbm", "--mu", "abc"])
        assert code == 1 and err.endswith("error: argument --mu: invalid float value: 'abc'\n")

    @pytest.mark.parametrize(
        "flags, shown",
        [
            (["--model", "two-point", "--beta", "0.5", "--r-plus", "10", "--r-minus", "-10", "--L=-5"], "-5.0"),
            (["--model", "empirical", "--data", "d.txt", "--L", "0"], "0.0"),
        ],
    )
    def test_capital_must_be_positive_for_every_model(self, capsys, tmp_path, monkeypatch, flags, shown):
        (tmp_path / "d.txt").write_text("120\n90\n")
        monkeypatch.chdir(tmp_path)
        got = run(capsys, ["risk", *flags])
        assert got == (1, "", f"error: capital must be positive, got {shown}\n")

    def test_missing_model_flag_is_an_input_error(self, capsys):
        code, _, err = run(capsys, ["risk", "--model", "gbm", "--mu", "0.1", "--L", "100"])
        assert code == 1
        assert "sigma" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1"], "--model gbm needs --L (the capital)"),
            (["--model", "empirical", "--L", "100"], "--model empirical needs --data FILE"),
        ],
    )
    def test_missing_input_flags_are_named(self, capsys, flags, message):
        assert run(capsys, ["risk", *flags]) == (1, "", f"error: {message}\n")

    def test_fixed_rho_with_delta_sets_the_scale(self, capsys):
        code, out, err = run(capsys, ["risk", "--model", "fixed-rho", "--rho", "0.3", "--delta", "7", "--json"])
        assert code == 0 and err == ""
        payload = strict_json(out)
        assert (payload["e_profit"], payload["e_loss"], payload["delta"]) == pytest.approx((10.0, 3.0, 7.0))

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
            ("--paths", "1e6", "must be a positive integer, got '1e6'"),
            ("--paths", "1.0", "must be a positive integer, got '1.0'"),
        ],
    )
    def test_integer_flag_errors_name_the_rule(self, capsys, flag, value, message):
        code, out, err = run(capsys, ["risk", "--model", "gbm", "--L", "100", flag, value])
        assert code == 1 and out == ""
        assert err.endswith(f"error: argument {flag}: {message}\n")
        assert "invalid" not in err  # argparse's own "invalid <callable> value" wording

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
        payload = strict_json(out)
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
        assert strict_json(out)["rho"] == pytest.approx(0.5)

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
        payload = strict_json(out)
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
        gammas = strict_json(out)["gammas"]
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
        payload = strict_json(out)
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
        payload = strict_json(out)
        rebuilt = Allocation(
            gammas=tuple(payload["gammas"]),
            payoffs=tuple(payload["payoffs"]),
            periodic_payment=payload["periodic_payment"],
        )
        assert rebuilt.valuation == payload["payoff_valuation"]
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
        payload = strict_json(out)
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
        assert strict_json(out)["rho"] == pytest.approx(0.5)

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
        assert strict_json(out)["rho"] == pytest.approx(0.5)

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
            {"schema": 1, "ratings": [2, 3], "model": {"kind": "fixed_rho", "rho": 0.25}},
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
            ({"schema": True}, "unsupported schema True; this tool reads schema 1"),
            ({"capital_amount": 10**400}, "field 'capital_amount' is out of the float range"),
            ({"model": {"kind": "gbm", "mu": 10**400, "sigma": 0.2, "T": 1}, "capital_amount": 100},
             "field 'mu' is out of the float range"),
            ({"ratings": [10**400, True]}, "rating 1 is out of the float range"),
            ({"schema": 10**400}, "field 'schema' is out of the float range"),
            ({"capital": 0.5}, "'capital' must be an array of fractions"),
            ({"wakalah": [0, 1, 4]}, "'wakalah' must be an object with keys r, T, k"),
            ({"model": "gbm"}, "'model' must be an object with a 'kind' key"),
            ({"model": {"kind": "gbm", "mu": 0.1, "T": 1}, "capital_amount": 100}, "missing numeric field 'sigma'"),
            ({"model": {"kind": "empirical"}, "capital_amount": 100}, "empirical model needs a 'path' to the draws file"),
        ],
    )
    def test_contract_numbers_are_json_numbers(self, capsys, tmp_path, change, message):
        doc = {"schema": 1, "variant": "musharakah_wakalah", "ratings": [2, 1, 3], "capital": [1, 0],
               "wakalah": {"r": 0, "T": 1, "k": 4}, "model": {"kind": "fixed_rho", "rho": 0.25}}
        assert run(capsys, ["allocate", write_contract(tmp_path, doc, "base.json")])[0] == 0
        code, out, err = run(capsys, ["allocate", write_contract(tmp_path, {**doc, **change})])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "change, token",
        [
            ({"capital_amount": math.nan}, "NaN"),
            ({"capital_amount": math.inf}, "Infinity"),
            ({"capital_amount": -math.inf}, "-Infinity"),
            ({"ratings": [2, math.nan]}, "NaN"),
        ],
    )
    def test_contract_files_are_strict_json(self, capsys, tmp_path, change, token):
        doc = {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
               "model": {"kind": "fixed_rho", "rho": 0.25}}
        assert run(capsys, ["allocate", write_contract(tmp_path, doc, "base.json")])[0] == 0
        # json.dumps writes these floats as the bare tokens NaN, Infinity and -Infinity.
        path = write_contract(tmp_path, {**doc, **change})
        code, out, err = run(capsys, ["allocate", path])
        assert code == 1 and out == ""
        assert err == f"error: {path}: not valid JSON: {token} is not a JSON number\n"

    @pytest.mark.parametrize(
        "rest, message",
        [
            ('"model": {"kind": "gbm", "mu": 0.1, "sigma": 0.2, "T": 1}, "capital_amount": 1e400',
             "{path}: not valid JSON: 1e400 is out of the float range"),
            ('"model": {"kind": "gbm", "mu": -1E+999, "sigma": 0.2, "T": 1}, "capital_amount": 100',
             "{path}: not valid JSON: -1E+999 is out of the float range"),
            ('"model": {"kind": "fixed_rho", "rho": 0.999999999999, "delta": 1e300}',
             "delta / (1 - rho) is out of the float range at rho = 0.999999999999, delta = 1e+300"),
        ],
    )
    def test_an_overflowing_number_is_named(self, capsys, tmp_path, rest, message):
        # json.dumps cannot write these literals, so the document is written as text.
        path = tmp_path / "contract.json"
        path.write_text(
            '{"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3], ' + rest + "}", encoding="utf-8"
        )
        assert run(capsys, ["allocate", str(path)]) == (1, "", f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"variant": "cfair_mudharabah", "ratings": [2, 10**400]},
             "rating 2 is out of the float range"),
            ({"variant": "musharakah_self_managed", "ratings": [2, 3], "capital": [10**400, 0.5]},
             "capital share 1 is out of the float range"),
        ],
        ids=["rating", "capital"],
    )
    def test_an_integer_beyond_the_float_range_is_named_by_position(self, capsys, tmp_path, doc, message):
        path = write_contract(tmp_path, {"schema": 1, **doc, "model": {"kind": "fixed_rho", "rho": 0.3}})
        assert run(capsys, ["allocate", path]) == (1, "", f"error: {message}\n")

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, ["allocate", str(tmp_path / "nope.json")])
        assert code == 1

    def test_invalid_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, _ = run(capsys, ["allocate", str(path)])
        assert code == 1

    def test_a_byte_order_mark_keeps_the_json_loads_message(self, capsys, tmp_path):
        path = tmp_path / "bom.json"
        path.write_text('\ufeff{"schema": 1}', encoding="utf-8")
        assert run(capsys, ["allocate", str(path)]) == (
            1, "", f"error: {path}: not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)\n",
        )


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

    @pytest.mark.parametrize("steps", ["1e3", "1", "0", "2.0", "x"])
    def test_step_count_meets_the_integer_rule(self, capsys, tmp_path, steps):
        contract = write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        code, out, err = run(capsys, ["sweep", contract, "--steps", steps])
        assert code == 1 and out == ""
        assert err.endswith(f"error: argument --steps: must be an integer >= 2, got '{steps}'\n")

    @pytest.mark.parametrize("steps, rows", [("+3", 3), ("1_0", 10), (" 2 ", 2)])
    def test_step_count_takes_int_text(self, capsys, tmp_path, steps, rows):
        contract = write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        code, out, _ = run(capsys, ["sweep", contract, "--steps", steps])
        assert code == 0 and len(out.splitlines()) == rows + 1

    def test_negative_exponent_form_reaches_the_range_rule(self, capsys, tmp_path):
        contract = write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        code, out, err = run(capsys, ["sweep", contract, "--rho-from", "-1e-1"])
        assert code == 1 and out == ""
        assert err == "error: need 0 <= --rho-from < --rho-to <= 1, got [-0.1, 1.0]\n"

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
        cases = [(variant, d, None) for variant in Variant for d in (2, 3, 9, 64)]
        # Three blocks, the last of one row.
        cases.append((Variant.MUSHARAKAH_EXTERNAL_MUDHARIB, 64, 2 * cli._SWEEP_BLOCK_ROWS + 1))
        for variant, d, steps in cases:
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
            steps = int(rng.integers(2, 400)) if steps is None else steps
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

    def test_memory_stays_flat_in_the_step_count(self, capsys, tmp_path):
        # Rows are formatted and written in blocks; with every row built before the
        # write, 50,000 rows of this contract peaked near 12 MB.
        contract = write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        out_csv = tmp_path / "sweep.csv"
        assert run(capsys, ["sweep", contract, "--steps", "3", "-o", str(out_csv)])[0] == 0  # parser built
        tracemalloc.start()
        try:
            code = main(["sweep", contract, "--steps", "50000", "-o", str(out_csv)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 3_000_000, peak
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 50001
        plan = AllocationPlan.for_contract(contract_from_dict(FIGURE_SWEEP_CONTRACT))
        block = cli._SWEEP_BLOCK_ROWS
        assert 2 * block + 1 < 50000
        for i in (0, block - 1, block, block + 1, 2 * block, 49999):  # rows on both sides of block boundaries
            rho = i / 49999
            assert lines[i + 1] == ",".join(f"{x:.12g}" for x in (rho, *plan.gammas(rho)))

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

    def test_a_process_loads_no_dataclasses_inspect_or_pathlib(self, tmp_path):
        contract = write_contract(tmp_path, {**FIGURE_SWEEP_CONTRACT, "capital_amount": 100.0,
                                             "model": {"kind": "gbm", "mu": 0.1, "sigma": 0.2, "T": 1}})
        src = str(Path(plsfair.__file__).resolve().parent.parent)
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); from plsfair.cli import main; "
            "code = main(['allocate', sys.argv[2]]); "
            "print(code, sorted({'dataclasses', 'inspect', 'pathlib', 'typing'} & sys.modules.keys()))"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", script, src, contract],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.splitlines()[-1] == "0 []"

    def test_a_closed_form_process_loads_no_threading(self):
        # Under -I -S nothing else loads it: only a simulation that starts threads does.
        src = str(Path(plsfair.__file__).resolve().parent.parent)
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); from plsfair.cli import main; "
            "code = main(['risk', '--model', 'gbm', '--mu', '0.1', '--sigma', '0.2', '--T', '1', '--L', '100']); "
            "print(code, 'threading' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", script, src],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.splitlines()[-1] == "0 False"


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

    GAMMAS_RULE = "argument --gammas: must be a finite number"
    P_RULE = "argument --p: must be a finite number"
    TOL_RULE = "argument --tol: must be a finite number >= 0"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["verify", "--gammas", "inf,-inf"], 1, f"{GAMMAS_RULE}, got 'inf'"),
            (["verify", "--gammas", "nan,0.5"], 1, f"{GAMMAS_RULE}, got 'nan'"),
            (["verify", "--gammas", "0.5,1e400"], 1, f"{GAMMAS_RULE}, got '1e400'"),
            (["verify", "--gammas", "0.5,x"], 1, f"{GAMMAS_RULE}, got 'x'"),
            (["verify", "--gammas", "0.5,"], 1, f"{GAMMAS_RULE}, got ''"),
            (["verify", "--gammas", "1e308,1e308"], 3, None),
            (["verify", "--gammas", "1e308,1e308", "--json"], 3, None),
            (["verify", "--gammas", "0.5,0.5", "--p", "nan"], 1, f"{P_RULE}, got 'nan'"),
            (["verify", "--gammas", "0.5,0.5", "--p", "1e999"], 1, f"{P_RULE}, got '1e999'"),
            (["allocate", "--tol", "nan"], 1, f"{TOL_RULE}, got 'nan'"),
            (["allocate", "--tol", "-1"], 1, f"{TOL_RULE}, got '-1'"),
            (["allocate", "--tol", "inf"], 1, f"{TOL_RULE}, got 'inf'"),
            (["verify", "--gammas", "0.7,0.3", "--tol=-1e-9"], 1, f"{TOL_RULE}, got '-1e-9'"),
            (["verify", "--gammas", "0.7,0.3", "--tol", "-1e-9"], 1, f"{TOL_RULE}, got '-1e-9'"),
            (["verify", "--gammas", "0.7,0.3", "--tol=-inf"], 1, f"{TOL_RULE}, got '-inf'"),
            (["verify", "--gammas", "0.7,0.3", "--tol", "-inf"], 1, f"{TOL_RULE}, got '-inf'"),
            (["verify", "--gammas", "0.7,0.3", "--tol=-NaN"], 1, f"{TOL_RULE}, got '-NaN'"),
            (["verify", "--gammas", "0.7,0.3", "--tol", "-NaN"], 1, f"{TOL_RULE}, got '-NaN'"),
            (["verify", "--gammas", "0.5,0.5", "--p=-Infinity"], 1, f"{P_RULE}, got '-Infinity'"),
            (["verify", "--gammas", "0.5,0.5", "--p", "-Infinity"], 1, f"{P_RULE}, got '-Infinity'"),
            (["verify", "--gammas=-inf,0.3"], 1, f"{GAMMAS_RULE}, got '-inf'"),
            (["verify", "--gammas", "-inf,0.3"], 1, f"{GAMMAS_RULE}, got '-inf'"),
            (["verify", "--gammas", "-Infinity,0.3"], 1, f"{GAMMAS_RULE}, got '-Infinity'"),
            (["verify", "--gammas", "-infinity,0.3"], 1, f"{GAMMAS_RULE}, got '-infinity'"),
            (["verify", "--gammas", "-INF,0.3"], 1, f"{GAMMAS_RULE}, got '-INF'"),
            (["verify", "--gammas", "-nan,0.3"], 1, f"{GAMMAS_RULE}, got '-nan'"),
            (["verify", "--gammas", "-NaN,0.3"], 1, f"{GAMMAS_RULE}, got '-NaN'"),
            (["verify", "--gammas", "-information"], 1, "argument --gammas: expected one argument"),
            (["verify", "--gammas", "-h,0.3"], 1, "argument --gammas: expected one argument"),
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
        if message is None and "--json" in argv:  # --json writes an infinite residual as null
            payload = strict_json(out)
            assert err == "" and payload["max_fairness_residual"] is None
        elif message is None:  # a sum past the float range fails with an infinite residual
            assert err == "" and "inf" in out.lower()
        else:
            assert out == "" and err.endswith(f"error: {message}\n")

    def test_json_report_of_an_infinite_residual_is_strict_json(self, capsys, tmp_path):
        contract = write_contract(
            tmp_path,
            {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
             "model": {"kind": "fixed_rho", "rho": 0.25, "delta": 8.0}},
        )
        code, out, err = run(capsys, ["verify", contract, "--gammas", "1e308,1e308", "--json"])
        assert code == 3 and err == ""
        payload = strict_json(out)
        assert payload["max_fairness_residual"] is None and payload["simplex_residual"] is None
        assert payload["passed"] is False

    def test_allocate_json_writes_an_infinite_residual_as_null(self, capsys, tmp_path):
        # Every rated payoff overflows: the residual is infinite in both places it is printed.
        contract = write_contract(
            tmp_path,
            {"schema": 1, "variant": "cfair_mudharabah", "ratings": [1e300, 1e300],
             "model": {"kind": "fixed_rho", "rho": 0.25, "delta": 1e308}},
        )
        _, out, _ = run(capsys, ["allocate", contract, "--json"])
        payload = strict_json(out)
        assert payload["residual"] is None and payload["verification"]["max_fairness_residual"] is None

    @pytest.mark.parametrize("delta, unfair, allocate_code", [(1e308, "0.1,0.9", 3), (1.5e8, "0.3,0.7", 0)])
    def test_verdict_holds_where_the_tolerance_scale_overflows(
        self, capsys, tmp_path, delta, unfair, allocate_code
    ):
        # max(ratings) * e_profit overflows on both contracts; on the first every rated payoff does too.
        contract = write_contract(
            tmp_path,
            {"schema": 1, "variant": "cfair_mudharabah", "ratings": [1e300, 1e300],
             "model": {"kind": "fixed_rho", "rho": 0.25, "delta": delta}},
        )
        code, out, err = run(capsys, ["verify", contract, "--gammas", unfair])
        assert code == 3 and err == "" and out.endswith("-> FAIL\n")
        code, out, err = run(capsys, ["allocate", contract])
        assert code == allocate_code and err == ""

    @pytest.mark.parametrize("argv", [["verify", "--gammas", "0.5,0.5"], ["allocate"]])
    def test_non_viable_model_exits_2_with_one_message(self, capsys, tmp_path, argv):
        contract = write_contract(
            tmp_path,
            {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
             "model": {"kind": "fixed_rho", "rho": 1.5}},
        )
        got = run(capsys, [argv[0], contract, *argv[1:]])
        assert got == (2, "", "error: not viable: investment risk 1.5 exceeds 1: expected loss beats expected profit\n")

    def test_json_report(self, capsys, tmp_path):
        contract = write_contract(tmp_path, self.EQUAL_KAPPA)
        code, out, _ = run(
            capsys,
            ["verify", contract, "--gammas", "0.35,0.19,0.35,0.11", "--tol", "1e-2", "--json"],
        )
        assert code == 0
        payload = strict_json(out)
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


def reference_main(argv):
    """``main`` through one top-level ``parse_args``, which hands a command's
    arguments on to that command's parser: the route ``main`` shortcuts."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except NonViableError as exc:
        print(f"error: not viable: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


#: Command lines on each side of main's dispatch: a command's name first, or anything else.
DISPATCH_CORPUS = [
    ["risk", "-h"],
    ["allocate", "-h"],
    ["sweep", "-h"],
    ["verify", "-h"],
    ["allocate"],
    ["allocate", "contract.json", "--bogus"],
    ["allocate", "contract.json", "--js"],
    ["allocate", "--", "contract.json"],
    ["allocate", "contract.json", "contract.json"],
    ["allocate", "contract.json"],
    ["allocate", "contract.json", "--json", "--tol=1e-3"],
    [],
    ["--help"],
    ["nope"],
    ["-h", "allocate"],
    ["--", "allocate", "x"],
    ["sweep", "contract.json", "--steps", "1e3"],
    ["sweep", "contract.json", "--steps", "3"],
    ["verify", "contract.json", "--gammas", "0.9,0.1"],
    ["risk", "--model", "fixed-rho", "--rho", "0.3", "extra"],
    ["risk", "--model", "fixed-rho", "--rho", "0.3", "--b"],
    ["sweep", "contract.json", "--steps", "1"],
    ["risk", "--model", "fixed-rho", "--rho", "1.5"],
]


class TestDispatch:
    @pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
    def test_same_bytes_and_exit_as_the_top_level_parse(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
        write_contract(
            tmp_path, {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
                       "model": {"kind": "fixed_rho", "rho": 0.25}},
        )
        code = reference_main(argv)
        captured = capsys.readouterr()
        assert run(capsys, argv) == (code, captured.out, captured.err)

    @pytest.mark.parametrize(
        "argv, words",
        [(["allocate", "contract.json", "--js"], "--js"),
         (["risk", "--model", "fixed-rho", "--rho", "0.3", "--b"], "--b"),
         (["allocate", "contract.json", "--to=1e-3"], "--to=1e-3"),
         (["sweep", "contract.json", "--st", "3"], "--st 3")],
    )
    def test_a_flag_prefix_is_no_flag(self, capsys, tmp_path, monkeypatch, argv, words):
        monkeypatch.chdir(tmp_path)
        write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        assert run(capsys, argv) == (
            1, "", f"usage: plsfair [-h] command ...\nplsfair: error: unrecognized arguments: {words}\n"
        )

    def test_a_word_left_over_is_refused_with_the_top_level_usage(self, capsys):
        assert run(capsys, ["risk", "--model", "fixed-rho", "--rho", "0.3", "a", "--bogus"]) == (
            1, "", "usage: plsfair [-h] command ...\nplsfair: error: unrecognized arguments: a --bogus\n"
        )


#: sha256 of each command's ``-h`` stdout at COLUMNS=80, recorded on Python 3.11 before the
#: flag types and allow_abbrev changed: neither may move a byte of help.
HELP_DIGESTS = {
    "risk": "7eff0291a2ae55054a6b757b51ad2e72e468594e3c53185074f017cc07756809",
    "allocate": "b1e0a90dbcf7075a20bad6ad4c833652fc1fc79a121b6c7d9f94df14fa4b760e",
    "sweep": "0b53dcd9d59be8f03454dbc123886cafbc32b78f2eb323917b648b92a97686b7",
    "verify": "4afb2480fa943308dd81feba14b102669f46451212555cea060beac73f0e8c8c",
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse's help differs by version: 3.10 prints 'optional arguments:', "
    "and 3.13 formats '-o, --output'",
)
@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_bytes_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, [command, "-h"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_DIGESTS[command], out


class TestUnreadableInputs:
    """A path or document that cannot be read ends in exit 1 and one error line."""

    DEEP = "[" * 1000 + "]" * 1000  # nested past the parser's recursion limit

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["allocate", "a\0b"], "cannot read contract file: embedded null byte"),
            (["allocate", "nul-draws.json"], "cannot read draws file: embedded null byte"),
            (["risk", "--model", "empirical", "--data", "a\0b", "--L", "1"], "cannot read draws file: embedded null byte"),
            (["sweep", "contract.json", "-o", "a\0b"], "cannot write sweep output: embedded null byte"),
            (["allocate", "deep.json"], "deep.json: not valid JSON: maximum recursion depth exceeded"),
            (["sweep", "deep-ratings.json"], "deep-ratings.json: not valid JSON: maximum recursion depth exceeded"),
        ],
    )
    def test_one_error_line(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        write_contract(tmp_path, FIGURE_SWEEP_CONTRACT)
        write_contract(
            tmp_path, {**FIGURE_SWEEP_CONTRACT, "capital_amount": 100.0,
                       "model": {"kind": "empirical", "path": "a\0b"}}, "nul-draws.json",
        )
        (tmp_path / "deep.json").write_text(self.DEEP, encoding="utf-8")
        (tmp_path / "deep-ratings.json").write_text(
            '{"schema": 1, "variant": "cfair_mudharabah", "ratings": %s}' % self.DEEP, encoding="utf-8"
        )
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "" and not (tmp_path / "a").exists()
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestConsoleEntryPoint:
    def test_module_run_ends_in_each_exit_code(self, tmp_path):
        contract = {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3]}
        viable = write_contract(tmp_path, {**contract, "model": {"kind": "fixed_rho", "rho": 0.25}})
        non_viable = write_contract(tmp_path, {**contract, "model": {"kind": "fixed_rho", "rho": 1.5}}, "nv.json")
        deep = tmp_path / "deep.json"
        deep.write_text(TestUnreadableInputs.DEEP, encoding="utf-8")
        commands = [
            (["risk", "--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1", "--L", "100"], 0),
            (["allocate", str(deep)], 1),
            (["verify", non_viable, "--gammas", "0.5,0.5"], 2),
            (["verify", viable, "--gammas", "0.9,0.1"], 3),
        ]
        src = str(Path(plsfair.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        for argv, code in commands:
            done = subprocess.run(
                [sys.executable, "-m", "plsfair.cli", *argv],
                capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
            )
            assert done.returncode == code, (argv, done.stderr)
            assert "Traceback" not in done.stderr
            if code in (1, 2):
                assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    #: Reports held in the buffer until main's flush, sweeps that fail inside their writes, and help,
    #: on a buffered and an unbuffered stdout: argparse's own print_help, on 3.11.7 and later, drops
    #: a write of help that fails at once.
    REFUSED = [
        (argv, buffering)
        for argv in (["allocate", "--json"], ["allocate"], ["sweep", "--steps", "5"], ["sweep", "--steps", "30000"],
                     ["verify", "-h"])
        for buffering in ("buffered", "unbuffered")
    ]

    def _refused(self, tmp_path, argv, stdout, buffering):
        contract = write_contract(
            tmp_path, {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
                       "model": {"kind": "fixed_rho", "rho": 0.25}},
        )
        src = str(Path(plsfair.__file__).resolve().parent.parent)
        # A buffered stdout keeps the bytes a flush could not write, and Python flushes it once more at exit.
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "plsfair.cli", argv[0], contract, *argv[1:]], stdout=stdout,
            stderr=subprocess.PIPE, text=True, timeout=120, env={**env, "PYTHONPATH": src},
        )

    @pytest.mark.parametrize("argv, buffering", REFUSED, ids=[f"{' '.join(a)} {b}" for a, b in REFUSED])
    def test_a_closed_pipe_ends_in_one_error_line(self, tmp_path, argv, buffering):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe fails with EPIPE
        try:
            done = self._refused(tmp_path, argv, write_end, buffering)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "error: cannot write output: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("argv, buffering", REFUSED, ids=[f"{' '.join(a)} {b}" for a, b in REFUSED])
    def test_a_full_device_ends_in_one_error_line(self, tmp_path, argv, buffering):
        with open("/dev/full", "w") as full:
            done = self._refused(tmp_path, argv, full, buffering)
        expected = f"error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert (done.returncode, done.stderr) == (1, expected)

    #: Reports and help of a process started with no file descriptor 1, where sys.stdout is None:
    #: argparse's own print_help writes help to stderr then.
    CLOSED = [
        ["-h"], ["verify", "-h"],
        ["risk", "--model", "gbm", "--mu", "0.1", "--sigma", "0.2", "--T", "1", "--L", "100"],
        ["allocate", "{contract}"], ["allocate", "{contract}", "--json"],
        ["verify", "{contract}", "--gammas", "0.7,0.3"], ["verify", "{contract}", "--gammas", "0.7,0.3", "--json"],
        ["sweep", "{contract}", "--steps", "5"], ["sweep", "{contract}", "--steps", "30000", "-o", "-"],
    ]

    def _closed(self, tmp_path, argv):
        contract = write_contract(
            tmp_path, {"schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
                       "model": {"kind": "fixed_rho", "rho": 0.25}},
        )
        src = str(Path(plsfair.__file__).resolve().parent.parent)
        command = [sys.executable, "-m", "plsfair.cli", *(word.format(contract=contract) for word in argv)]
        return subprocess.run(
            ["sh", "-c", '"$@" >&-', "sh", *command], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120, env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
        ), contract

    @pytest.mark.skipif(shutil.which("sh") is None, reason="no POSIX shell to close stdout")
    @pytest.mark.parametrize("argv", CLOSED, ids=[" ".join(w for w in a if w != "{contract}") for a in CLOSED])
    def test_a_closed_stdout_ends_in_one_error_line(self, tmp_path, argv):
        done, _ = self._closed(tmp_path, argv)
        expected = f"error: cannot write output: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"
        assert (done.returncode, done.stderr) == (1, expected)

    @pytest.mark.skipif(shutil.which("sh") is None, reason="no POSIX shell to close stdout")
    def test_a_sweep_to_a_file_needs_no_stdout(self, capsys, tmp_path):
        out_csv = tmp_path / "out.csv"
        done, contract = self._closed(tmp_path, ["sweep", "{contract}", "--steps", "3000", "-o", str(out_csv)])
        assert (done.returncode, done.stderr) == (0, "")
        assert out_csv.read_text(encoding="utf-8") == run(capsys, ["sweep", contract, "--steps", "3000"])[1]


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
