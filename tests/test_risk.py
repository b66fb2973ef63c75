"""Risk-profile producers: closed forms, samples, Monte Carlo, normal CDF.

High-precision reference values were computed with mpmath at 40 digits and
frozen below; Monte Carlo checks use the closed forms as oracles.
"""

from __future__ import annotations

import math
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_floats
from plsfair import (
    ContractError,
    EmpiricalSample,
    GbmParams,
    McConfig,
    TwoPointScenario,
    empirical_profile,
    gbm_closed_form,
    load_empirical_draws,
    monte_carlo_profile,
    std_normal_cdf,
    two_point_profile,
)
from plsfair.risk import _chunk_rng, _terminal_draws

# mpmath.ncdf('1.96') to 20 digits: 0.97500210485177956586
PHI_196 = 0.9750021048517796

# GBM mu=0.1, sigma=0.2, T=1, L=100, from the closed form at 40 digits:
GBM_E_PROFIT = 14.665260653636594782
GBM_E_LOSS = 4.1481688460718323007
GBM_RHO = 0.2828568099840214365
GBM_DELTA = 10.517091807564762  # 100 * expm1(0.1)

GBM_EXAMPLE = GbmParams(mu=0.1, sigma=0.2, T=1.0, L=100.0)


def gbm_reference(mu: float, sigma: float, T: float, L: float) -> tuple:
    """(e_profit, e_loss) of the log-normal income at 80 digits: the call and the put."""
    with mpmath.workdps(80):
        mu, sigma, T, L = (mpmath.mpf(v) for v in (mu, sigma, T, L))
        vol = sigma * mpmath.sqrt(T)
        theta = (mu * T - sigma * sigma * T / 2) / vol
        growth = mpmath.exp(mu * T)
        return (
            L * (growth * mpmath.ncdf(theta + vol) - mpmath.ncdf(theta)),
            L * (mpmath.ncdf(-theta) - growth * mpmath.ncdf(-theta - vol)),
        )


class TestStdNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_frozen_reference_point(self):
        assert std_normal_cdf(1.96) == pytest.approx(PHI_196, abs=1e-13)

    def test_against_mpmath_grid(self):
        mpmath.mp.dps = 30
        worst = max(
            abs(std_normal_cdf(i / 8.0) - float(mpmath.ncdf(i / 8.0)))
            for i in range(-64, 65)
        )
        assert worst <= 1e-12

    @given(finite_floats(-8.0, 8.0))
    def test_symmetry(self, x):
        assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-14)

    @given(st.lists(finite_floats(-10.0, 10.0), min_size=2, max_size=20))
    def test_monotone_and_bounded(self, xs):
        xs = sorted(xs)
        values = [std_normal_cdf(x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_deep_tails_clamp(self):
        assert std_normal_cdf(-40.0) == 0.0
        assert std_normal_cdf(40.0) == 1.0
        assert std_normal_cdf(-math.inf) == 0.0
        assert std_normal_cdf(math.inf) == 1.0


class TestGbmClosedForm:
    def test_zero_drift_boundary(self):
        profile = gbm_closed_form(GbmParams(mu=0.0, sigma=0.2, T=1.0, L=100.0))
        assert profile.rho == 1.0
        assert profile.delta == 0.0
        assert profile.e_profit > 0.0
        assert profile.viable()

    @pytest.mark.parametrize(
        "mu, sigma, T",
        [(1e-12, 0.2, 1.0), (5.1e-8, 0.0166, 0.0016), (-2.0e-8, 1.6e-5, 0.00185)],
        ids=["mu=1e-12", "mu=5.1e-8", "mu=-2e-8"],
    )
    def test_near_zero_drift_against_mpmath(self, mu, sigma, T):
        # |mu T| is below 1e-10, yet the risk differs from 1 by 1.3e-11 to 1.3e-4.
        profile = gbm_closed_form(GbmParams(mu, sigma, T, 100.0))
        e_profit, e_loss = gbm_reference(mu, sigma, T, 100.0)
        assert profile.rho == pytest.approx(float(e_loss / e_profit), rel=1e-13, abs=0.0)
        assert profile.delta == 100.0 * math.expm1(mu * T)
        assert profile.viable() == (mu >= 0.0)

    def test_vanishing_volatility_kills_the_loss(self):
        profile = gbm_closed_form(GbmParams(mu=0.1, sigma=1e-6, T=1.0, L=100.0))
        assert profile.rho <= 1e-12
        assert profile.e_loss <= 1e-10
        assert profile.delta == pytest.approx(GBM_DELTA, rel=1e-12)

    def test_frozen_example(self):
        profile = gbm_closed_form(GBM_EXAMPLE)
        assert profile.delta == pytest.approx(GBM_DELTA, rel=1e-13)
        assert profile.e_profit == pytest.approx(GBM_E_PROFIT, rel=1e-12)
        assert profile.e_loss == pytest.approx(GBM_E_LOSS, rel=1e-11)
        assert profile.rho == pytest.approx(GBM_RHO, rel=1e-11)

    def test_viability_tracks_drift_sign(self):
        assert gbm_closed_form(GbmParams(0.05, 0.3, 2.0, 50.0)).viable()
        down = gbm_closed_form(GbmParams(-0.05, 0.3, 2.0, 50.0))
        assert not down.viable()
        assert down.rho > 1.0

    @given(
        finite_floats(-0.3, 0.3),
        finite_floats(0.05, 0.5),
        finite_floats(0.25, 4.0),
        finite_floats(1.0, 1e6),
    )
    @settings(max_examples=200)
    def test_internal_identities(self, mu, sigma, T, L):
        p = gbm_closed_form(GbmParams(mu, sigma, T, L))
        scale = max(1.0, p.e_profit, p.e_loss)
        assert abs(p.rho * p.e_profit - p.e_loss) <= 1e-12 * scale
        assert abs(p.delta - (p.e_profit - p.e_loss)) <= 1e-12 * scale
        # A risk that rounds to exactly 1 is viable whatever the sign of mu.
        assert p.viable() == (mu >= 0.0) or p.rho == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0.1, sigma=0.0, T=1.0, L=100.0),
            dict(mu=0.1, sigma=-0.2, T=1.0, L=100.0),
            dict(mu=0.1, sigma=0.2, T=0.0, L=100.0),
            dict(mu=0.1, sigma=0.2, T=1.0, L=0.0),
            dict(mu=float("nan"), sigma=0.2, T=1.0, L=100.0),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ContractError):
            GbmParams(**kwargs)

    @pytest.mark.parametrize("mu, L", [(709.0, 100.0), (800.0, 1.0), (1e300, 1e-300), (700.0, 1e300)])
    def test_rejects_overflowing_expected_income(self, mu, L):
        with pytest.raises(ContractError, match="overflows"):
            GbmParams(mu=mu, sigma=0.2, T=1.0, L=L)

    def test_largest_finite_expected_income_is_accepted(self):
        profile = gbm_closed_form(GbmParams(mu=709.0, sigma=0.2, T=1.0, L=1.0))
        assert math.isfinite(profile.e_profit) and profile.viable()

    def test_loss_side_against_mpmath_grid(self):
        for mu in (-5.0, -1.0, -0.3, -0.05, 1e-3, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0):
            for sigma in (0.01, 0.1, 0.2, 1.0, 3.0):
                for T in (0.1, 1.0, 10.0, 100.0):
                    e_profit, e_loss = gbm_reference(mu, sigma, T, 100.0)
                    if e_profit < 1e-290:  # no normal double holds the expected profit
                        continue
                    p = gbm_closed_form(GbmParams(mu, sigma, T, 100.0))
                    if e_loss < 1e-290:
                        assert p.e_loss < 1e-280
                        continue
                    assert abs(p.e_loss / e_loss - 1) <= 1e-8, (mu, sigma, T)
                    assert abs(p.rho / (e_loss / e_profit) - 1) <= 1e-8, (mu, sigma, T)

    @pytest.mark.parametrize(
        "mu, sigma, T, L",
        [(0.0374, 1.41e-4, 1.15e-3, 1.82e5), (-1.02e-6, 1.03e-4, 1.74, 6.26e5), (3.62e-6, 2.03e-4, 9.04e-3, 7.4e8)],
    )
    def test_tiny_volatility_against_a_large_capital_is_consistent(self, mu, sigma, T, L):
        # Both direct call and put forms would cancel here; the interval mass does not.
        p = gbm_closed_form(GbmParams(mu, sigma, T, L))
        e_profit, e_loss = gbm_reference(mu, sigma, T, L)
        assert p.delta == L * math.expm1(mu * T)
        assert p.e_profit == pytest.approx(float(e_profit), rel=1e-8)
        assert p.e_loss == pytest.approx(float(e_loss), rel=1e-8)

    def test_random_scan_against_mpmath(self):
        # |mu| log-uniform over 1e-9..1 with both signs, sigma over 1e-6..2, T over 1e-3..100.
        rng = np.random.default_rng(20261018)
        logs = rng.uniform(np.log([1e-9, 1e-6, 1e-3]), np.log([1.0, 2.0, 100.0]), size=(1200, 3))
        signs = rng.choice([-1.0, 1.0], size=1200)
        errors = []
        for (mu, sigma, T), sign in zip(np.exp(logs).tolist(), signs.tolist()):
            e_profit, e_loss = gbm_reference(sign * mu, sigma, T, 100.0)
            want = [float(v) for v in (e_profit, e_loss, e_loss / e_profit)]
            if not all(v >= sys.float_info.min for v in want):  # no normal float holds a side
                continue
            p = gbm_closed_form(GbmParams(sign * mu, sigma, T, 100.0))
            err = max(abs(got / ref - 1.0) for got, ref in zip((p.e_profit, p.e_loss, p.rho), want))
            assert err <= 1e-9, (sign * mu, sigma, T, err)
            errors.append(err)
        assert len(errors) >= 1000
        # What is left above 1e-12 is the far-out-of-the-money side (|theta| >= 8, small s).
        assert sum(err > 1e-12 for err in errors) <= 0.1 * len(errors)

    def test_far_out_of_the_money_call_against_mpmath(self):
        # theta is about -33 and s about 1.5e-6: the call is far out of the money.
        p = gbm_closed_form(GbmParams(-0.051, 4.9e-5, 0.001, 100.0))
        e_profit, e_loss = gbm_reference(-0.051, 4.9e-5, 0.001, 100.0)
        assert p.e_profit == pytest.approx(float(e_profit), rel=1e-10, abs=0.0)
        assert p.e_loss == pytest.approx(float(e_loss), rel=1e-10, abs=0.0)
        assert p.rho == pytest.approx(float(e_loss / e_profit), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "mu, sigma, T, match",
        [
            (-700.0, 0.1, 1.0, "expected profit .* underflows"),
            (-1e300, 0.1, 1e10, "expected profit .* underflows"),
            (0.1, 1e200, 1.0, "variance"),
            (0.1, 1e-300, 1e-300, "variance"),
        ],
    )
    def test_unrepresentable_profiles_are_errors(self, mu, sigma, T, match):
        with pytest.raises(ContractError, match=match):
            gbm_closed_form(GbmParams(mu, sigma, T, 100.0))

    def test_monte_carlo_cross_check_at_ten_million_paths(self):
        closed = gbm_closed_form(GBM_EXAMPLE)
        mc = monte_carlo_profile(GBM_EXAMPLE, McConfig(n_paths=10_000_000, seed=0))
        assert abs(mc.rho - closed.rho) <= 3.0 * mc.se_rho
        assert abs(mc.delta - closed.delta) <= 3.0 * mc.se_delta


class TestTwoPointProfile:
    def test_worked_example(self):
        profile = two_point_profile(TwoPointScenario(0.6, 120.0, 90.0, 100.0))
        assert profile.e_profit == pytest.approx(12.0)
        assert profile.e_loss == pytest.approx(4.0)
        assert profile.rho == pytest.approx(1 / 3, abs=1e-15)
        assert profile.delta == pytest.approx(8.0)

    def test_certain_success_has_no_loss(self):
        profile = two_point_profile(TwoPointScenario(1.0, 120.0, 90.0, 100.0))
        assert profile.e_loss == 0.0 and profile.rho == 0.0

    @given(
        finite_floats(0.05, 1.0),
        finite_floats(101.0, 500.0),
        finite_floats(0.0, 100.0),
    )
    def test_delta_is_expected_income_minus_capital(self, beta, r_plus, r_minus):
        s = TwoPointScenario(beta, r_plus, r_minus, 100.0)
        profile = two_point_profile(s)
        expected_income = beta * r_plus + (1.0 - beta) * r_minus
        assert profile.delta == pytest.approx(expected_income - s.L, abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=0.0, r_plus=120.0, r_minus=90.0, L=100.0),
            dict(beta=1.5, r_plus=120.0, r_minus=90.0, L=100.0),
            dict(beta=0.5, r_plus=99.0, r_minus=90.0, L=100.0),
            dict(beta=0.5, r_plus=120.0, r_minus=100.5, L=100.0),
        ],
    )
    def test_rejects_bad_scenarios(self, kwargs):
        with pytest.raises(ContractError):
            TwoPointScenario(**kwargs)


class TestEmpiricalProfile:
    def test_two_draw_example(self):
        profile = empirical_profile(EmpiricalSample((120.0, 90.0), 100.0))
        assert profile.e_profit == pytest.approx(10.0)
        assert profile.e_loss == pytest.approx(5.0)
        assert profile.rho == pytest.approx(0.5)

    def test_singleton(self):
        profile = empirical_profile(EmpiricalSample((105.0,), 100.0))
        assert profile.e_profit == 5.0 and profile.e_loss == 0.0 and profile.rho == 0.0
        assert profile.se_profit == 0.0

    def test_all_draws_below_capital(self):
        with pytest.raises(ContractError):
            empirical_profile(EmpiricalSample((99.0, 99.0, 99.0), 100.0))

    def test_standard_errors(self):
        draws = np.array([120.0, 90.0, 100.0, 130.0, 97.5, 111.0, 64.0])
        profile = empirical_profile(EmpiricalSample(tuple(draws), 100.0))
        n = draws.size
        profits = np.maximum(draws - 100.0, 0.0)
        losses = np.maximum(100.0 - draws, 0.0)
        assert profile.se_profit == float(profits.std(ddof=1)) / math.sqrt(n)
        assert profile.se_loss == float(losses.std(ddof=1)) / math.sqrt(n)
        # delta method for rho = E[Y]/E[X] and delta = E[X] - E[Y]
        mx, my = profits.mean(), losses.mean()
        vx, vy = profits.var(ddof=1), losses.var(ddof=1)
        cov = np.cov(profits, losses)[0, 1]
        rho = my / mx
        se_rho = math.sqrt((vy + rho**2 * vx - 2 * rho * cov) / n) / mx
        se_delta = math.sqrt((vx + vy - 2 * cov) / n)
        assert profile.se_rho == pytest.approx(se_rho, rel=1e-13)
        assert profile.se_delta == pytest.approx(se_delta, rel=1e-13)

    def test_first_bad_draw_is_named(self):
        with pytest.raises(ContractError, match="draw 2 must be a finite non-negative income, got nan"):
            EmpiricalSample((120.0, float("nan"), -1.0), 100.0)
        with pytest.raises(ContractError, match="draw 3 .* got inf"):
            EmpiricalSample((120.0, 0.0, float("inf")), 100.0)

    def test_overflowing_payoffs_are_an_error(self):
        with pytest.raises(ContractError, match="not a finite number"):
            empirical_profile(EmpiricalSample((1e308, 0.0), -1e308))

    def test_rejects_bad_samples(self):
        with pytest.raises(ContractError):
            EmpiricalSample((), 100.0)
        with pytest.raises(ContractError):
            EmpiricalSample((-1.0, 120.0), 100.0)
        for draws in ([[120.0], [90.0]], [[120.0], [90.0, 80.0]], 120.0, ("x",), [object()]):
            with pytest.raises(ContractError, match="draws must be"):
                EmpiricalSample(draws, 100.0)

    def test_draws_are_a_read_only_float64_vector(self):
        sample = EmpiricalSample([120, 90.5], 100.0)
        assert sample.draws.dtype == np.float64 and sample.draws.shape == (2,)
        with pytest.raises(ValueError):
            sample.draws[0] = 1.0

    def test_draws_are_copied_at_most_once(self):
        mine = np.array([120.0, 90.0])
        sample = EmpiricalSample(mine, 100.0)
        mine[0] = 0.0  # a writeable array is copied, so this does not reach the sample
        assert sample.draws.tolist() == [120.0, 90.0]
        frozen = sample.draws
        assert EmpiricalSample(frozen, 50.0).draws is frozen

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        mine = np.array([120.0, 90.0])
        view = mine[:]
        view.flags.writeable = False
        sample = EmpiricalSample(view, 100.0)
        mine[0] = -1.0  # written through the base after the check: must not reach the sample
        assert sample.draws is not view and sample.draws.tolist() == [120.0, 90.0]

    def test_equality_is_identity(self):
        a, b = EmpiricalSample((120.0, 90.0), 100.0), EmpiricalSample((120.0, 90.0), 100.0)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_converges_to_two_point_law(self):
        # draws from the scenario's law at n = 1e5 land within 3 SE
        scenario = TwoPointScenario(0.6, 120.0, 90.0, 100.0)
        analytic = two_point_profile(scenario)
        rng = np.random.default_rng(7)
        draws = np.where(rng.random(100_000) < scenario.beta, 120.0, 90.0)
        profile = empirical_profile(EmpiricalSample(tuple(float(v) for v in draws), 100.0))
        assert abs(profile.e_profit - analytic.e_profit) <= 3.0 * profile.se_profit
        assert abs(profile.e_loss - analytic.e_loss) <= 3.0 * profile.se_loss


class TestMonteCarlo:
    def test_pinned_estimates(self):
        # a fixed config pins every bit of the means; SEs may move with the
        # reduction order, the means may not
        runs = [
            (GBM_EXAMPLE, McConfig(n_paths=100_000, seed=42, chunk_size=1 << 14),
             ("0x1.d5d7338c80976p+3", "0x1.0914b48246b12p+2",
              "0x1.20ddedb209d89p-2", "0x1.514cd94b5d3edp+3")),
            (TwoPointScenario(0.6, 120.0, 90.0, 100.0),
             McConfig(n_paths=100_000, seed=7, chunk_size=1 << 14),
             ("0x1.7ee7d566cf41fp+3", "0x1.01182a9930be1p+2",
              "0x1.57c5b46d3f75cp-2", "0x1.fcb780346dc5dp+2")),
        ]
        for model, cfg, pinned in runs:
            p = monte_carlo_profile(model, cfg)
            assert (p.e_profit.hex(), p.e_loss.hex(), p.rho.hex(), p.delta.hex()) == pinned

    def test_standard_errors_match_two_pass_over_all_chunks(self):
        # a tiny volatility around a large mean: one-pass sums of squares
        # lose about 1e-8 relative here, pooled two-pass moments do not
        model = GbmParams(mu=2.0, sigma=1e-4, T=1.0, L=100.0)
        cfg = McConfig(n_paths=200_000, seed=0, chunk_size=1 << 14)
        starts = range(0, cfg.n_paths, cfg.chunk_size)
        r = np.concatenate([
            _terminal_draws(model, _chunk_rng(cfg.seed, i), min(cfg.chunk_size, cfg.n_paths - s))
            for i, s in enumerate(starts)
        ])
        profile = monte_carlo_profile(model, cfg)
        for se, side in ((profile.se_profit, r - model.L), (profile.se_loss, model.L - r)):
            v = np.maximum(side, 0.0)
            want = float(v.std(ddof=1)) / math.sqrt(v.size)
            assert se == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_gbm_draws_match_the_out_of_place_formula(self):
        model = GbmParams(mu=0.3, sigma=0.7, T=2.0, L=150.0)
        z = _chunk_rng(9, 4).standard_normal(1 << 14)
        want = model.L * np.exp((model.mu - 0.5 * model.sigma * model.sigma) * model.T + model.sigma * math.sqrt(model.T) * z)
        assert _terminal_draws(model, _chunk_rng(9, 4), 1 << 14).tobytes() == want.tobytes()

    def test_overflowing_draws_are_an_error(self):
        # L e^(mu T) is finite, but the sampled incomes overflow
        model = GbmParams(mu=709.0, sigma=1.0, T=1.0, L=1.0)
        with pytest.raises(ContractError, match="not a finite number"):
            monte_carlo_profile(model, McConfig(n_paths=1000, seed=0))

    def test_bit_identical_reruns(self):
        cfg = McConfig(n_paths=100_000, seed=42, chunk_size=1 << 14)
        first = monte_carlo_profile(GBM_EXAMPLE, cfg)
        second = monte_carlo_profile(GBM_EXAMPLE, cfg)
        assert first == second

    def test_seed_changes_the_estimate(self):
        a = monte_carlo_profile(GBM_EXAMPLE, McConfig(n_paths=10_000, seed=0))
        b = monte_carlo_profile(GBM_EXAMPLE, McConfig(n_paths=10_000, seed=1))
        assert a.rho != b.rho

    def test_constant_payoff_is_exact_with_zero_standard_error(self):
        # beta = 1 never draws the failure branch: R_T is constantly 1.2 L
        model = TwoPointScenario(1.0, 120.0, 90.0, 100.0)
        profile = monte_carlo_profile(model, McConfig(n_paths=10_000, seed=5))
        assert profile.e_profit == 20.0
        assert profile.e_loss == 0.0
        assert profile.se_profit == 0.0 and profile.se_rho == 0.0

    def test_gbm_estimate_matches_closed_form(self):
        closed = gbm_closed_form(GBM_EXAMPLE)
        mc = monte_carlo_profile(GBM_EXAMPLE, McConfig(n_paths=1_000_000, seed=11))
        assert abs(mc.rho - closed.rho) <= 3.0 * mc.se_rho
        assert abs(mc.delta - closed.delta) <= 3.0 * mc.se_delta
        assert abs(mc.e_profit - closed.e_profit) <= 3.0 * mc.se_profit

    def test_two_point_estimate_matches_closed_form(self):
        scenario = TwoPointScenario(0.6, 120.0, 90.0, 100.0)
        analytic = two_point_profile(scenario)
        mc = monte_carlo_profile(scenario, McConfig(n_paths=1_000_000, seed=2))
        assert abs(mc.rho - analytic.rho) <= 3.0 * mc.se_rho

    def test_integer_two_point_revenues(self):
        cfg = McConfig(n_paths=50_000, seed=3, chunk_size=1 << 14)
        ints = monte_carlo_profile(TwoPointScenario(0.6, 120, 90, 100.0), cfg)
        assert ints == monte_carlo_profile(TwoPointScenario(0.6, 120.0, 90.0, 100.0), cfg)

    def test_three_sigma_coverage_over_seeds(self):
        # at n = 1e6 the estimate lands within 3 SE for >= 99 of 100 seeds
        closed = gbm_closed_form(GBM_EXAMPLE)
        hits = 0
        for seed in range(100):
            p = monte_carlo_profile(GBM_EXAMPLE, McConfig(n_paths=1_000_000, seed=seed))
            if abs(p.rho - closed.rho) <= 3.0 * p.se_rho:
                hits += 1
        assert hits >= 99

    def test_zero_profit_estimate_is_an_error(self):
        # seed 3 makes the single draw land on the failure branch
        model = TwoPointScenario(0.5, 120.0, 90.0, 100.0)
        with pytest.raises(ContractError):
            monte_carlo_profile(model, McConfig(n_paths=1, seed=3))

    def test_config_validation(self):
        with pytest.raises(ContractError):
            McConfig(n_paths=0)
        with pytest.raises(ContractError):
            McConfig(n_paths=10, seed=-1)
        with pytest.raises(ContractError):
            McConfig(n_paths=10, chunk_size=0)

    def test_unsupported_model(self):
        with pytest.raises(ContractError):
            monte_carlo_profile("not a model", McConfig(n_paths=10))


class TestDrawsFile:
    def test_plain_lf(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("120.0\n90.0\n", encoding="utf-8")
        assert load_empirical_draws(path).tolist() == [120.0, 90.0]

    def test_crlf_and_header(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_bytes(b"R_T\r\n120.5\r\n90.25\r\n")
        assert load_empirical_draws(path).tolist() == [120.5, 90.25]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("R_T\n120.0\n\n90.0\n\n", encoding="utf-8")
        assert load_empirical_draws(path).tolist() == [120.0, 90.0]

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("120.0\nbogus\n", encoding="utf-8")
        with pytest.raises(ContractError):
            load_empirical_draws(path)

    def test_unreadable_paths_rejected(self, tmp_path):
        for path in (tmp_path / "missing.txt", tmp_path):
            with pytest.raises(ContractError, match="cannot read draws file"):
                load_empirical_draws(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "draws.txt"
        for text in ("R_T\n", "", "\n\n", "R_T\n \n"):
            path.write_text(text, encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContractError, match="no draws found"):
                    load_empirical_draws(path)

    def test_result_is_a_read_only_float64_vector(self, tmp_path):
        path = tmp_path / "draws.txt"
        for text in ("120\n90\n", "1_000\n"):
            path.write_text(text, encoding="utf-8")
            draws = load_empirical_draws(path)
            assert draws.dtype == np.float64 and draws.ndim == 1
            with pytest.raises(ValueError):
                draws[0] = 1.0


def scan_draws_file(path) -> tuple[float, ...]:
    """The line-by-line draws parse as it stood when the loader returned a
    tuple, frozen as the reference for what the syntax accepts and how it fails."""
    text = Path(path).read_text(encoding="utf-8")
    draws: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line == "R_T":
            continue
        try:
            draws.append(float(line))
        except ValueError as exc:
            raise ContractError(f"{path}: line {lineno} is not a decimal float: {line!r}") from exc
    if not draws:
        raise ContractError(f"{path}: no draws found")
    return tuple(draws)


def _outcome(load, path) -> tuple[str, object]:
    """The draws' bytes (so nan signs and -0.0 count) or the error message."""
    try:
        return "draws", np.array(load(path), dtype=np.float64).tobytes()
    except ContractError as exc:
        return "error", str(exc)


#: Pieces of draws files at the edges of what ``float()`` and line splitting accept.
DRAWS_SYNTAX = [
    "1_000", "nan", "-nan", "inf", "1e400", "+1.5", "-0", "  7.25\t", "1 2", "1,2", "#5", "'5'",
    "1\x0c2", "\r", "\u2028", "\x85", "\x0b", "\x00", "\u0661\u0662", " R_T ", "\nR_T\n5", "R_T\n",
    "\x0cR_T\n5", "R_T\u20285\n6", "R_T\x0c\n5", "5\n  \n6", "", "\n\n", "120.5\r\n90.25\r\n",
]
_pieces = DRAWS_SYNTAX + list("0123456789.eE+-_, \t\n\r\x0c#'") + ["R_T", "\u2028", "\u0661", "12.5\n"]


class TestDrawsSyntax:
    """The loader against the frozen line scan: the same draws, bit for bit,
    or the same error message."""

    @pytest.mark.parametrize("text", DRAWS_SYNTAX)
    def test_matches_the_line_scan(self, tmp_path, text):
        path = tmp_path / "draws.txt"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load_empirical_draws, path) == _outcome(scan_draws_file, path)

    @given(st.lists(st.sampled_from(_pieces), max_size=12).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_line_scan_on_random_text(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("draws") / "draws.txt"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load_empirical_draws, path) == _outcome(scan_draws_file, path)
