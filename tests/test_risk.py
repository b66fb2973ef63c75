"""Risk-profile producers: closed forms, samples, Monte Carlo, normal CDF.

High-precision reference values were computed with mpmath at 40 digits and
frozen below; Monte Carlo checks use the closed forms as oracles.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import tracemalloc
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
    RiskProfile,
    TwoPointScenario,
    empirical_profile,
    gbm_closed_form,
    load_empirical_draws,
    monte_carlo_profile,
    std_normal_cdf,
    two_point_profile,
)
from plsfair import risk
from plsfair.risk import _chunk_rng

# mpmath.ncdf('1.96') to 20 digits: 0.97500210485177956586
PHI_196 = 0.9750021048517796

# GBM mu=0.1, sigma=0.2, T=1, L=100, from the closed form at 40 digits:
GBM_E_PROFIT = 14.665260653636594782
GBM_E_LOSS = 4.1481688460718323007
GBM_RHO = 0.2828568099840214365
GBM_DELTA = 10.517091807564762  # 100 * expm1(0.1)

GBM_EXAMPLE = GbmParams(mu=0.1, sigma=0.2, T=1.0, L=100.0)


def traced_peak(call) -> int:
    """Bytes at the tracemalloc peak of ``call()``. One untraced call comes first:
    the first simulation's lazy import of numpy.random alone traces about 7 MB."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


@pytest.mark.parametrize("L", [0.0, -5.0, math.inf, math.nan])
@pytest.mark.parametrize(
    "model",
    [
        lambda L: GbmParams(0.1, 0.2, 1.0, L),
        lambda L: TwoPointScenario(0.5, 10.0, -10.0, L),
        lambda L: EmpiricalSample((120.0, 90.0), L),
    ],
    ids=["gbm", "two_point", "empirical"],
)
def test_every_model_holds_the_capital_to_one_rule(model, L):
    with pytest.raises(ContractError, match=f"^capital must be positive, got {L}$"):
        model(L)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda big: GbmParams(big, 0.2, 1.0, 100.0), "mu"),
        (lambda big: GbmParams(0.1, big, 1.0, 100.0), "sigma"),
        (lambda big: GbmParams(0.1, 0.2, big, 100.0), "T"),
        (lambda big: GbmParams(0.1, 0.2, 1.0, big), "L"),
        (lambda big: TwoPointScenario(big, 120.0, 90.0, 100.0), "beta"),
        (lambda big: TwoPointScenario(0.5, big, 90.0, 100.0), "r_plus"),
        (lambda big: TwoPointScenario(0.5, 120.0, -big, 100.0), "r_minus"),
        (lambda big: TwoPointScenario(0.5, 120.0, 90.0, big), "L"),
        (lambda big: EmpiricalSample((120.0, 90.0), big), "L"),
    ],
)
def test_an_integer_beyond_the_float_range_is_named(build, field):
    with pytest.raises(ContractError, match=f"^{field} is out of the float range$"):
        build(10**400)


def test_integer_fields_are_stored_as_floats():
    # sigma^2 T overflows in float arithmetic, as at sigma = 1e200, and is never an integer 10^400
    for params in ((0.1, 10**200, 1, 100), (0, 10**160, 10**10, 100)):
        model = GbmParams(*params)
        assert all(type(v) is float for v in model)
        with pytest.raises(ContractError, match=r"^log-income variance sigma\^2 T = inf at sigma = 1e\+\d+, "):
            gbm_closed_form(model)
    assert all(type(v) is float for v in TwoPointScenario(1, 120, 90, 100))


@pytest.mark.parametrize(
    "build",
    [
        lambda: gbm_closed_form(GBM_EXAMPLE),
        lambda: gbm_closed_form(GbmParams(-0.051, 4.9e-5, 0.001, 100.0)),
        lambda: two_point_profile(TwoPointScenario(0.6, 120.0, 90.0, 100.0)),
        lambda: empirical_profile(EmpiricalSample((120.0, 90.0, 97.5, 131.0), 100.0)),
        lambda: monte_carlo_profile(GBM_EXAMPLE, McConfig(n_paths=5000, seed=3)),
        lambda: RiskProfile.from_rho(0.1, delta=8.0),
    ],
    ids=["gbm", "gbm_far_call", "two_point", "empirical", "monte_carlo", "from_rho"],
)
def test_rho_is_the_ratio_of_the_stored_expectations(build):
    p = build()
    assert p.rho == p.e_loss / p.e_profit
    assert "rho" not in p._fields


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
            empirical_profile(EmpiricalSample((1.7e308, 1.7e308), 1.0))

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
        mine[0] = 0.0  # each sample copies its input once, so this does not reach it
        assert sample.draws.tolist() == [120.0, 90.0]
        frozen = sample.draws  # not even a read-only array is shared
        assert EmpiricalSample(frozen, 50.0).draws is not frozen

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

    def test_profile_leaves_the_draws_unchanged(self):
        sample = EmpiricalSample([120.0, 90.0, 100.0, 130.5], 100.0)
        before = sample.draws.tobytes()
        empirical_profile(sample)
        assert sample.draws.tobytes() == before and not sample.draws.flags.writeable

    def test_memory_does_not_grow_with_the_sample(self):
        # each leaf's differences go to a 512 KB buffer and are reduced through a second
        # one, so the 8 MB of draws are never copied
        sample = EmpiricalSample(100.0 * np.exp(0.3 * np.random.default_rng(0).standard_normal(1 << 20)), 100.0)
        peak = traced_peak(lambda: empirical_profile(sample))
        assert peak <= 1.1 * 2**20, peak


class TestMonteCarlo:
    def test_pinned_estimates(self):
        # a fixed config pins every bit of the means; SEs may move with the
        # reduction order, the means may not
        runs = [
            (GBM_EXAMPLE, McConfig(n_paths=100_000, seed=42, chunk_size=1 << 14),
             ("0x1.d162a92dbac7ep+3", "0x1.0e4aae4ea5465p+2",
              "0x1.295d7571250f7p-2", "0x1.4a3d52066824cp+3")),
            (TwoPointScenario(0.6, 120.0, 90.0, 100.0),
             McConfig(n_paths=100_000, seed=7, chunk_size=1 << 14),
             ("0x1.7f81d7dbf4880p+3", "0x1.007e28240b780p+2",
              "0x1.566e0ac1dc911p-2", "0x1.fe858793dd980p+2")),
        ]
        for model, cfg, pinned in runs:
            p = monte_carlo_profile(model, cfg)
            assert (p.e_profit.hex(), p.e_loss.hex(), p.rho.hex(), p.delta.hex()) == pinned

    def test_pinned_estimates_over_several_leaves(self):
        # blocks longer than a leaf, whose leaves are pooled in order: the CLI's default
        # 2^18-path chunk (two full chunks and a two-leaf one), and 3 leaves and a part of
        # draws built by exact arithmetic; every bit of the means and SEs is pinned
        n = 3 * risk._LEAF + 12_345
        runs = [
            (monte_carlo_profile(GBM_EXAMPLE, McConfig(n_paths=600_000, seed=42)),
             ("0x1.d56292fcd30b7p+3", "0x1.09b95571fffd9p+2", "0x1.21d9471e5a0c3p-2", "0x1.5085e843d30cap+3",
              "0x1.788d5c476397fp-6", "0x1.4780516072dcfp-7", "0x1.f911c5d0916d4p-11", "0x1.d855a35fc560cp-6")),
            (empirical_profile(EmpiricalSample(50.0 + (np.arange(n) * 7919 % 100_003) / 1000.0, 100.0)),
             ("0x1.90055cc7804f4p+3", "0x1.9001d7e2923d3p+3", "0x1.fffb7eea6d8e2p-1", "0x1.c272770908000p-12",
              "0x1.2137c04fa0fefp-5", "0x1.21347e4687147p-5", "0x1.4b15f5dab495ap-8", "0x1.02adc31435e02p-4")),
        ]
        keys = ("e_profit", "e_loss", "rho", "delta", "se_profit", "se_loss", "se_rho", "se_delta")
        for p, pinned in runs:
            assert tuple(getattr(p, key).hex() for key in keys) == pinned

    def test_standard_errors_match_two_pass_over_all_chunks(self):
        # a tiny volatility around a large mean: one-pass sums of squares
        # lose about 1e-8 relative here, pooled two-pass moments do not
        model = GbmParams(mu=2.0, sigma=1e-4, T=1.0, L=100.0)
        cfg = McConfig(n_paths=200_000, seed=0, chunk_size=1 << 14)
        starts = range(0, cfg.n_paths, cfg.chunk_size)
        r = np.concatenate([
            model.draw(_chunk_rng(cfg.seed, i), np.empty(min(cfg.chunk_size, cfg.n_paths - s)))
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
        assert model.draw(_chunk_rng(9, 4), np.empty(1 << 14)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("model", [GBM_EXAMPLE, TwoPointScenario(0.6, 120.0, 90.0, 100.0)],
                             ids=["gbm", "two_point"])
    def test_leaf_by_leaf_draws_are_the_chunks_draws(self, model):
        # Every seeded estimate rests on this: a chunk is drawn leaf by leaf from its one
        # generator, which must give the bytes of one whole-chunk call, short last leaf included.
        count = 3 * risk._LEAF + 12_345
        whole = model.draw(_chunk_rng(5, 2), np.empty(count))
        rng, leaf = _chunk_rng(5, 2), np.empty(risk._LEAF)
        leaves = [model.draw(rng, leaf[:min(risk._LEAF, count - start)]).copy()
                  for start in range(0, count, risk._LEAF)]
        assert [v.size for v in leaves] == [risk._LEAF] * 3 + [12_345]
        assert np.concatenate(leaves).tobytes() == whole.tobytes(), (
            "numpy's SFC64 Generator no longer fills out= in order without state kept between "
            "calls, so a chunk drawn leaf by leaf is not the chunk drawn at once")

    @pytest.mark.parametrize("chunk", [1 << 18, 1 << 22])
    @pytest.mark.parametrize("model", [GBM_EXAMPLE, TwoPointScenario(0.6, 120.0, 90.0, 100.0)],
                             ids=["gbm", "two_point"])
    def test_memory_does_not_grow_with_the_chunk_size(self, model, chunk, monkeypatch):
        # one worker holds two 512 KB leaf buffers, however long its chunks
        monkeypatch.setattr(risk, "_available_cpus", lambda: 1)
        cfg = McConfig(n_paths=chunk, seed=1, chunk_size=chunk)
        peak = traced_peak(lambda: monte_carlo_profile(model, cfg))
        assert peak <= 1.1 * 2**20, peak

    def test_overflowing_draws_are_an_error(self):
        # L e^(mu T) is finite, but the sampled incomes overflow
        model = GbmParams(mu=709.0, sigma=1.0, T=1.0, L=1.0)
        with pytest.raises(ContractError, match="not a finite number"):
            monte_carlo_profile(model, McConfig(n_paths=1000, seed=0))

    @pytest.mark.parametrize("model", [GBM_EXAMPLE, TwoPointScenario(0.6, 120.0, 90.0, 100.0)],
                             ids=["gbm", "two_point"])
    def test_every_thread_count_gives_the_serial_result(self, model, monkeypatch):
        # More threads than this host may have CPUs, with a short switch interval to
        # interleave them; chunks longer than a leaf, and a short last chunk.
        size = 70_000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for chunks in (1, 2, 3, 5):
                cfg = McConfig(n_paths=size * (chunks - 1) + 12_345, seed=17, chunk_size=size)
                profiles = []
                for cpus in (1, 2, 4):
                    monkeypatch.setattr(risk, "_available_cpus", lambda cpus=cpus: cpus)
                    before = threading.active_count()
                    profiles.append(monte_carlo_profile(model, cfg))
                    assert threading.active_count() == before
                assert profiles[0] == profiles[1] == profiles[2], chunks
        finally:
            sys.setswitchinterval(interval)

    def test_overflow_in_a_chunk_on_another_thread_is_an_error(self, monkeypatch):
        # chunk 0 stays finite and chunk 1 overflows; with two CPUs chunk 1 runs on the extra thread.
        # About one seed in 30 does that here; the first such seed is found by search.
        model = GbmParams(mu=706.3, sigma=1.0, T=1.0, L=1.0)

        def finite(seed, index):
            with np.errstate(over="ignore"):  # the sampler leaves overflow to its caller
                return bool(np.isfinite(model.draw(_chunk_rng(seed, index), np.empty(1000))).all())

        seed = next(s for s in range(1000) if finite(s, 0) and not finite(s, 1))
        with np.errstate(over="ignore"):
            assert np.isfinite(model.draw(_chunk_rng(seed, 0), np.empty(1000))).all()
            assert not np.isfinite(model.draw(_chunk_rng(seed, 1), np.empty(1000))).all()
        monkeypatch.setattr(risk, "_available_cpus", lambda: 2)
        before = threading.active_count()
        with pytest.raises(ContractError, match="not a finite number"):
            monte_carlo_profile(model, McConfig(n_paths=2000, seed=seed, chunk_size=1000))
        assert threading.active_count() == before

    def test_an_exception_on_a_worker_thread_reaches_the_caller(self, monkeypatch):
        moments = risk._block_moments

        def fail_off_the_calling_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("chunk on a worker thread")
            return moments(*args)

        monkeypatch.setattr(risk, "_block_moments", fail_off_the_calling_thread)
        monkeypatch.setattr(risk, "_available_cpus", lambda: 2)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="chunk on a worker thread"):
            monte_carlo_profile(GBM_EXAMPLE, McConfig(n_paths=4000, seed=0, chunk_size=1000))
        assert threading.active_count() == before

    def test_a_thread_that_cannot_start_stops_and_joins_the_others(self, monkeypatch):
        start, started = threading.Thread.start, []

        def start_one(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_one)
        monkeypatch.setattr(risk, "_available_cpus", lambda: 3)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            monte_carlo_profile(GBM_EXAMPLE, McConfig(n_paths=6000, seed=0, chunk_size=1000))
        assert threading.active_count() == before and not started[0].is_alive()

    def test_cpu_count_where_the_os_has_no_affinity_set(self, monkeypatch):
        # as on macOS and Windows
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert risk._available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert risk._available_cpus() == 1

    def test_the_calling_thread_pools_chunks_as_they_finish(self, monkeypatch):
        # memory stays flat in the chunk count: on one thread no block waits to be pooled
        pool, pending = risk._pool_finished, []

        def spy(moments, pooled, done):
            pending.append(len(done))
            return pool(moments, pooled, done)

        monkeypatch.setattr(risk, "_pool_finished", spy)
        monkeypatch.setattr(risk, "_available_cpus", lambda: 1)
        monte_carlo_profile(GBM_EXAMPLE, McConfig(n_paths=100_000, seed=0, chunk_size=1000))
        assert pending == [1] * 100 + [0]

    @pytest.mark.parametrize("n", [1, 7, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5])
    def test_moments_of_differences_are_numpys_bit_for_bit(self, n):
        # X = max(d, 0) and Y = -min(d, 0) of d = r - L against numpy's (r - L)^+ and
        # (L - r)^+; some draws sit exactly on L. Up to one leaf, M2 is the numerator of
        # numpy's var, and M2 / n its var, bit for bit; a longer block is the in-order
        # _merge of its leaves' numpy moments. Every block is within 4 eps of an fsum reference.
        L = 100.0
        rng = np.random.default_rng(n)
        r = L * np.exp(0.3 * rng.standard_normal(n))
        r[::5] = L
        for draws in (r, np.maximum(r, L), np.minimum(r, L)):  # both sides, and one side all zero
            count, sum_x, m2_x, sum_y, m2_y = risk._block_moments(risk._leaves(draws), L, risk._leaf_buffers(n))
            assert count == n
            pooled = None
            for i in range(0, n, risk._LEAF):
                leaf = draws[i:i + risk._LEAF]
                x, y = np.maximum(leaf - L, 0.0), np.maximum(L - leaf, 0.0)
                block = (x.size, float(x.sum()), float(np.square(x - x.mean()).sum()),
                         float(y.sum()), float(np.square(y - y.mean()).sum()))
                pooled = block if pooled is None else risk._merge(pooled, block)
            assert (count, sum_x, m2_x, sum_y, m2_y) == pooled
            for total, m2, side in ((sum_x, m2_x, draws - L), (sum_y, m2_y, L - draws)):
                v = np.maximum(side, 0.0)
                if n <= risk._LEAF:
                    assert total.hex() == float(v.sum()).hex()
                    assert m2.hex() == float(np.square(v - v.mean()).sum()).hex()
                    assert (m2 / n).hex() == float(v.var()).hex()
                exact_total = math.fsum(v.tolist())
                exact_m2 = math.fsum(((v - exact_total / n) ** 2).tolist())
                assert abs(total - exact_total) <= 4 * sys.float_info.epsilon * exact_total
                assert abs(m2 - exact_m2) <= 4 * sys.float_info.epsilon * exact_m2

    def test_chunk_streams_are_keyed_by_seed_and_chunk(self):
        # every (seed, chunk index) its own stream, uncorrelated with the others, the
        # largest seed included, and the same bytes each time a key's generator is rebuilt
        n, s = 1 << 16, 20_260
        keys = [(s, 0), (s, 1), (s + 1, 0), (0, 1), (1, 0), (2**64 - 1, 0)]
        draws = np.array([_chunk_rng(seed, index).standard_normal(n) for seed, index in keys])
        assert len({row.tobytes() for row in draws}) == len(keys)
        off_diagonal = np.corrcoef(draws)[~np.eye(len(keys), dtype=bool)]
        assert np.abs(off_diagonal).max() < 5.0 / math.sqrt(n)
        for (seed, index), row in zip(keys, draws):
            assert _chunk_rng(seed, index).standard_normal(n).tobytes() == row.tobytes()
        monte_carlo_profile(GBM_EXAMPLE, McConfig(n_paths=3000, seed=2**64 - 1, chunk_size=1000))

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
        # the first seed whose single draw lands on the failure branch (each does with probability 1/2)
        model = TwoPointScenario(0.5, 120.0, 90.0, 100.0)
        for seed in range(64):
            draw = model.draw(_chunk_rng(seed, 0), np.empty(1))[0]
            if draw < model.L:
                break
        assert draw < model.L
        with pytest.raises(ContractError):
            monte_carlo_profile(model, McConfig(n_paths=1, seed=seed))

    def test_config_validation(self):
        with pytest.raises(ContractError):
            McConfig(n_paths=0)
        with pytest.raises(ContractError):
            McConfig(n_paths=10, seed=-1)
        with pytest.raises(ContractError):
            McConfig(n_paths=10, chunk_size=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_paths=True, seed=True), "n_paths must be a positive integer, got True"),
            (dict(n_paths=10, seed=True), "seed must be an unsigned 64-bit integer, got True"),
            (dict(n_paths=10, seed=False), "seed must be an unsigned 64-bit integer, got False"),
            (dict(n_paths=10, chunk_size=True), "chunk_size must be a positive integer, got True"),
        ],
    )
    def test_a_bool_is_not_an_integer(self, kwargs, message):
        with pytest.raises(ContractError) as caught:
            McConfig(**kwargs)
        assert str(caught.value) == message

    @pytest.mark.parametrize("model", ["not a model", EmpiricalSample([120.0, 90.0], 100.0), RiskProfile(2.0, 1.0)],
                             ids=["string", "empirical", "profile"])
    def test_unsupported_model(self, model):
        # a record with no draw(rng, out) sampler cannot be simulated
        with pytest.raises(ContractError, match="unsupported Monte Carlo model"):
            monte_carlo_profile(model, McConfig(n_paths=10))


class TestDrawsFile:
    def test_plain_lf(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("120.0\n90.0\n", encoding="utf-8")
        assert load_empirical_draws(path) == [120.0, 90.0]

    def test_crlf_and_header(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_bytes(b"R_T\r\n120.5\r\n90.25\r\n")
        assert load_empirical_draws(path) == [120.5, 90.25]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("R_T\n120.0\n\n90.0\n\n", encoding="utf-8")
        assert load_empirical_draws(path) == [120.0, 90.0]

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

    def test_result_is_a_list_of_floats_the_sample_freezes(self, tmp_path):
        path = tmp_path / "draws.txt"
        for text in ("120\n90\n", "1_000\n"):
            path.write_text(text, encoding="utf-8")
            loaded = load_empirical_draws(path)
            assert type(loaded) is list and all(type(v) is float for v in loaded)
            draws = EmpiricalSample(loaded, 100.0).draws
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
