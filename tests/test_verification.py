"""The linear-solve oracle against the closed forms, and residual checks."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import plsfair
from conftest import random_ratings, random_simplex
from plsfair import (
    Allocation,
    ContractError,
    ContractSpec,
    RiskProfile,
    Variant,
    WakalahTerms,
    cfair_mudharabah,
    cfair_musharakah,
    cfair_musharakah_external_mudharib,
    cfair_musharakah_wakalah,
    gauss_solve,
    musharakah_system,
    sharing_weights,
    solve_fairness_system,
    solve_wakalah_system,
    verify_allocation,
    wakalah_system,
)


class TestGaussSolve:
    def test_small_known_system(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([5.0, 10.0])
        x = gauss_solve(a, b)
        assert x == pytest.approx([1.0, 3.0])

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([2.0, 3.0])
        assert gauss_solve(a, b) == pytest.approx([3.0, 2.0])

    def test_singular_matrix_asserts(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ContractError, match="singular"):
            gauss_solve(a, np.array([1.0, 2.0]))

    def test_singular_matrix_raises_under_optimize_flag(self):
        # With python -O an assert would vanish and the solve return [-inf, inf].
        code = (
            "import numpy as np\n"
            "from plsfair import ContractError, gauss_solve\n"
            "try:\n"
            "    print(gauss_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0])))\n"
            "except ContractError:\n"
            "    print('raised')\n"
        )
        src = str(Path(plsfair.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.strip() == "raised"

    @pytest.mark.parametrize("rhs", [[0.0, 10.0, -10.0], [0.0, 1.0, 1.0]], ids=["inf-inf", "overflow"])
    def test_back_substitution_that_leaves_the_float_range(self, rhs):
        # The first row's tail sums 1e308 x_1 + 1e308 x_2: fsum meets inf - inf, or a
        # partial sum beyond the float range, and raises where a plain sum would not.
        with pytest.raises(ContractError, match="no finite solution"):
            gauss_solve([[1.0, 1e308, 1e308], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], rhs)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            gauss_solve(np.zeros((2, 3)), np.zeros(2))

    @pytest.mark.parametrize("matrix", [np.zeros(2), [[1.0], [2.0, 3.0]]])
    def test_matrix_that_is_not_square_rows(self, matrix):
        with pytest.raises(ContractError):
            gauss_solve(matrix, np.zeros(2))

    def test_residual_bound_on_random_systems(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            x = gauss_solve(a, b)
            residual = np.max(np.abs(a @ x - b))
            bound = 1e-12 * (
                np.linalg.norm(a, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
            )
            assert residual <= bound


class TestFairnessSystem:
    def test_mudharabah_endpoint(self):
        # equal expectations (rho = 1) push the whole ratio to the funder
        gammas = solve_fairness_system((1, 1), (1.0, 0.0), 5.0, 5.0)
        assert gammas == pytest.approx((1.0, 0.0), abs=1e-14)

    def test_rated_mudharabah_example(self):
        gammas = solve_fairness_system((2, 3), (1.0, 0.0), 1.0, 0.25)
        assert gammas == pytest.approx((0.70, 0.30), abs=1e-14)
        assert gammas == pytest.approx(cfair_mudharabah((2, 3), 0.25).gammas, abs=1e-14)

    def test_shape(self):
        rows, rhs = musharakah_system((1, 2, 3), (0.2, 0.3, 0.5), 1.0, 0.5)
        assert len(rows) == 3 and all(len(row) == 3 for row in rows) and len(rhs) == 3

    def test_zero_profit_rejected(self):
        with pytest.raises(ContractError):
            musharakah_system((1, 1), (0.5, 0.5), 0.0, 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            musharakah_system((1, 1, 1), (0.5, 0.5), 1.0, 0.5)

    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(300):
            d = int(rng.integers(2, 9))
            ratings = random_ratings(rng, d)
            kappa = random_simplex(rng, d)
            rho = float(rng.random())
            e_profit = float(np.exp(rng.uniform(np.log(0.1), np.log(1000.0))))
            closed = cfair_musharakah(ratings, kappa, RiskProfile.from_rho(rho, e_profit=e_profit))
            solved = solve_fairness_system(ratings, kappa, e_profit, rho * e_profit)
            worst = max(worst, max(abs(a - b) for a, b in zip(closed.gammas, solved)))
        assert worst <= 1e-10

    @staticmethod
    def _mpmath_gammas(ratings, kappa, e_profit, e_loss):
        """gamma_l = w_l (1 - rho) + kappa_l rho at 50 digits, w_l = (1/c_l) / sum_j (1/c_j)."""
        with mpmath.workdps(50):
            rho = mpmath.mpf(e_loss) / mpmath.mpf(e_profit)
            inverse = [1 / mpmath.mpf(c) for c in ratings]
            total = mpmath.fsum(inverse)
            return [u / total * (1 - rho) + mpmath.mpf(k) * rho for u, k in zip(inverse, kappa)]

    def test_accurate_on_wide_rating_spreads(self):
        rng = np.random.default_rng(37)
        for decades in (3.0, 10.0, 20.0):
            for _ in range(100):
                d = int(rng.integers(2, 17))
                ratings = tuple(float(v) for v in 10.0 ** rng.uniform(-decades, decades, d))
                kappa = random_simplex(rng, d)
                e_profit = float(10.0 ** rng.uniform(-2.0, 3.0))
                e_loss = float(rng.random()) * e_profit
                solved = solve_fairness_system(ratings, kappa, e_profit, e_loss)
                exact = self._mpmath_gammas(ratings, kappa, e_profit, e_loss)
                worst = max(abs(float(mpmath.mpf(g) - x)) for g, x in zip(solved, exact))
                assert worst <= 2e-15, (ratings, kappa, e_profit, e_loss)

    def test_forty_decade_spread_example(self):
        # Unscaled pairwise rows returned (0, 0.08, 0, 0) here, off the simplex.
        solved = solve_fairness_system((1, 1e20, 1e-20, 2), (0.1, 0.2, 0.3, 0.4), 1.0, 0.4)
        assert solved == pytest.approx((0.04, 0.08, 0.72, 0.16), abs=2e-15)


class TestWakalahSystem:
    def test_three_partner_example(self):
        terms = WakalahTerms(0.0, 1.0, 4)
        gammas, p = solve_wakalah_system((1, 1, 1), (1.0, 0.0), 1.0, 0.5, terms)
        assert gammas == pytest.approx((0.75, 0.25), abs=1e-14)
        # four undiscounted payments add up to the manager's third of delta
        assert 4 * p == pytest.approx(0.5 / 3, rel=1e-12)

    def test_single_undiscounted_payment_is_the_full_share(self):
        terms = WakalahTerms(0.0, 1.0, 1)
        ratings = (1.0, 2.0, 3.0, 4.0)
        gammas, p = solve_wakalah_system(ratings, (0.2, 0.3, 0.5), 2.0, 1.0, terms)
        w = sharing_weights(ratings)
        delta = 2.0 - 1.0
        assert p == pytest.approx(w[3] * delta, rel=1e-12)

    def test_gammas_invariant_in_discounting(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            ratings = random_ratings(rng, d)
            kappa = random_simplex(rng, d - 1)
            rho = float(rng.random())
            solutions = [
                solve_wakalah_system(ratings, kappa, 1.0, rho, WakalahTerms(r, 2.0, 4))[0]
                for r in (0.0, 0.01, 0.2)
            ]
            for other in solutions[1:]:
                assert max(abs(a - b) for a, b in zip(solutions[0], other)) <= 1e-10

    def test_matches_closed_form_and_payment_convention(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            ratings = random_ratings(rng, d)
            kappa = random_simplex(rng, d - 1)
            rho = float(rng.random())
            terms = WakalahTerms(float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.5, 5.0)), int(rng.integers(1, 13)))
            e_profit = float(np.exp(rng.uniform(np.log(0.1), np.log(1000.0))))
            profile = RiskProfile.from_rho(rho, e_profit=e_profit)
            closed = cfair_musharakah_wakalah(ratings, kappa, profile, terms)
            gammas, p = solve_wakalah_system(ratings, kappa, e_profit, rho * e_profit, terms)
            assert max(abs(a - b) for a, b in zip(closed.gammas, gammas)) <= 1e-10
            if profile.delta > 0:
                assert p == pytest.approx(closed.periodic_payment, rel=1e-10)

    @pytest.mark.parametrize("e_loss", [1e9, 1.0])
    def test_huge_rated_profits_stay_finite(self, e_loss):
        # c_j (1+r)^-T e_profit overflows for the two funders rated 1e300; each row is
        # divided by it, so the oracle agrees with the closed form instead of giving NaN
        ratings, capital, terms = (1.0, 1e300, 1e300), (0.5, 0.5), WakalahTerms(0.05, 2.0, 4)
        closed = cfair_musharakah_wakalah(ratings, capital, RiskProfile(1e10, e_loss), terms)
        gammas, p = solve_wakalah_system(ratings, capital, 1e10, e_loss, terms)
        assert gammas == pytest.approx(closed.gammas, rel=1e-12, abs=0.0)
        assert p == pytest.approx(closed.periodic_payment, rel=1e-12, abs=0.0)

    def test_matches_closed_form_over_wide_spreads_and_scales(self):
        # rating spreads up to 1e150 either way, e_profit from 1e-300 to 1e300
        rng = np.random.default_rng(37)
        for _ in range(300):
            d = int(rng.integers(2, 9))
            ratings = tuple(float(v) for v in 10.0 ** rng.uniform(-75.0, 75.0, d))
            kappa = random_simplex(rng, d - 1)
            e_profit, rho = float(10.0 ** rng.uniform(-300.0, 300.0)), float(rng.random())
            terms = WakalahTerms(float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.5, 5.0)), int(rng.integers(1, 13)))
            closed = cfair_musharakah_wakalah(ratings, kappa, RiskProfile(e_profit, rho * e_profit), terms)
            gammas, p = solve_wakalah_system(ratings, kappa, e_profit, rho * e_profit, terms)
            assert max(abs(a - b) for a, b in zip(closed.gammas, gammas)) <= 1e-12
            assert p == pytest.approx(closed.periodic_payment, rel=1e-12, abs=1e-300)

    def test_a_rating_ratio_beyond_the_float_range_is_an_error(self):
        # the manager's rating over a funder's overflows; the closed form's weights underflow
        with pytest.raises(ContractError, match=r"^rating 3 / rating 1 = 1e\+200 / 1e-200 is out of the float range$"):
            solve_wakalah_system((1e-200, 1e200, 1e200), (0.5, 0.5), 1.0, 0.5, WakalahTerms(0.05, 2.0, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            wakalah_system((1, 1, 1), (0.5, 0.3, 0.2), 1.0, 0.5, WakalahTerms(0.0, 1.0, 1))

    def test_discount_underflow_is_named(self):
        terms = WakalahTerms(0.05, 1e6, 4)
        with pytest.raises(ContractError, match="discount .* underflows"):
            wakalah_system((1, 1, 1), (0.5, 0.5), 1.0, 0.5, terms)
        with pytest.raises(ContractError, match="discount .* underflows"):
            solve_wakalah_system((1, 1, 1), (0.5, 0.5), 1.0, 0.5, terms)


@pytest.mark.parametrize(
    "solve, field",
    [
        (lambda: solve_fairness_system((1, 2), (1.0, 0.0), 10**400, 1.0), "e_profit"),
        (lambda: solve_fairness_system((1, 2), (1.0, 0.0), 1.0, 10**400), "e_loss"),
        (lambda: solve_wakalah_system((1, 2, 3), (0.5, 0.5), 10**400, 1.0, WakalahTerms(0.05, 2, 4)), "e_profit"),
    ],
    ids=["fairness_profit", "fairness_loss", "wakalah_profit"],
)
def test_an_integer_beyond_the_float_range_is_named(solve, field):
    with pytest.raises(ContractError, match=f"^{field} is out of the float range$"):
        solve()


class TestVerifyAllocation:
    def test_closed_form_passes(self):
        profile = RiskProfile(10.0, 2.5)
        spec = ContractSpec(Variant.MUSHARAKAH_SELF_MANAGED, (1, 2, 1, 4), (0.25,) * 4)
        alloc = cfair_musharakah((1, 2, 1, 4), (0.25,) * 4, profile)
        report = verify_allocation(alloc, spec, profile, tol=1e-9)
        assert report.passed
        assert report.max_fairness_residual <= 1e-12 * 4 * 10.0

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_tolerance_is_a_finite_number_at_least_0(self, tol):
        # Held to the CLI's --tol rule: nan and -1 failed a fair allocation, inf passed an unfair one.
        ratings, capital, profile = (1, 2, 3), (0.2, 0.3, 0.5), RiskProfile(10.0, 3.0)
        spec = ContractSpec(Variant.MUSHARAKAH_SELF_MANAGED, ratings, capital)
        fair = cfair_musharakah(ratings, capital, profile)
        unfair = Allocation(gammas=(0.9, 0.05, 0.05), payoffs=fair.payoffs)
        assert verify_allocation(fair, spec, profile).passed
        assert not verify_allocation(unfair, spec, profile).passed
        for alloc in (fair, unfair):
            with pytest.raises(ContractError, match=r"^tol must be a finite number >= 0, got "):
                verify_allocation(alloc, spec, profile, tol=tol)

    def test_external_mudharib_capital_is_extended(self):
        profile = RiskProfile(10.0, 5.0)
        spec = ContractSpec(Variant.MUSHARAKAH_EXTERNAL_MUDHARIB, (3, 3, 3, 2), (1 / 3,) * 3)
        alloc = cfair_musharakah_external_mudharib((3, 3, 3, 2), (1 / 3,) * 3, profile)
        report = verify_allocation(alloc, spec, profile)
        assert report.passed

    def test_wakalah_allocation_passes(self):
        profile = RiskProfile(10.0, 5.0)
        terms = WakalahTerms(0.05, 2.0, 4)
        spec = ContractSpec(Variant.MUSHARAKAH_WAKALAH, (1, 1, 1), (1.0, 0.0), terms)
        alloc = cfair_musharakah_wakalah((1, 1, 1), (1.0, 0.0), profile, terms)
        report = verify_allocation(alloc, spec, profile)
        assert report.passed

    def test_perturbed_ratio_fails_with_linear_sensitivity(self):
        profile = RiskProfile(10.0, 2.5)
        spec = ContractSpec(Variant.MUSHARAKAH_SELF_MANAGED, (1, 2, 1, 4), (0.25,) * 4)
        alloc = cfair_musharakah(spec.ratings, spec.capital, profile)
        bumped = Allocation(
            gammas=(alloc.gammas[0] + 0.01,) + alloc.gammas[1:],
            payoffs=alloc.payoffs,
        )
        report = verify_allocation(bumped, spec, profile, tol=1e-9)
        assert not report.passed
        # bumping gamma_1 by 0.01 moves the rated payoff by c_1 * 0.01 * e_profit
        assert report.max_fairness_residual == pytest.approx(0.01 * profile.e_profit, rel=1e-9)
        assert report.simplex_residual == pytest.approx(0.01, abs=1e-12)

    def test_published_equal_kappa_tuple_fails_but_swap_passes(self):
        # the printed tuple (35%, 11%, 35%, 19%) violates the fairness
        # equations; swapping partners 2 and 4 gives the correct rounding
        profile = RiskProfile.from_rho(1 / 8)
        spec = ContractSpec(Variant.MUSHARAKAH_SELF_MANAGED, (1, 2, 1, 4), (0.25,) * 4)
        printed = Allocation(gammas=(0.35, 0.11, 0.35, 0.19), payoffs=())
        swapped = Allocation(gammas=(0.35, 0.19, 0.35, 0.11), payoffs=())
        loose = 1e-2
        assert not verify_allocation(printed, spec, profile, tol=loose).passed
        assert verify_allocation(swapped, spec, profile, tol=loose).passed
        # at the default tight tolerance even the rounded swap fails
        assert not verify_allocation(swapped, spec, profile, tol=1e-9).passed

    def test_wakalah_needs_payment(self):
        profile = RiskProfile(10.0, 5.0)
        spec = ContractSpec(Variant.MUSHARAKAH_WAKALAH, (1, 1, 1), (1.0, 0.0), WakalahTerms(0.0, 1.0, 4))
        candidate = Allocation(gammas=(0.75, 0.25), payoffs=())
        with pytest.raises(ContractError, match="needs the periodic payment"):
            verify_allocation(candidate, spec, profile)

    def test_dimension_mismatch(self):
        profile = RiskProfile(10.0, 5.0)
        spec = ContractSpec(Variant.MUSHARAKAH_SELF_MANAGED, (1, 1, 1), (0.25, 0.25, 0.5))
        candidate = Allocation(gammas=(0.5, 0.5), payoffs=())
        with pytest.raises(ContractError, match="expected 3 ratios for this contract, got 2"):
            verify_allocation(candidate, spec, profile)

    def test_discount_underflow_is_named(self):
        # (1.05)^-1e6 is 0: every payoff vanishes and a zero residual would pass vacuously
        profile = RiskProfile(10.0, 5.0)
        spec = ContractSpec(Variant.MUSHARAKAH_WAKALAH, (1, 1, 1), (1.0, 0.0), WakalahTerms(0.05, 1e6, 4))
        candidate = Allocation(gammas=(0.75, 0.25), payoffs=(), periodic_payment=0.0)
        with pytest.raises(ContractError, match="discount .* underflows"):
            verify_allocation(candidate, spec, profile)

    @pytest.mark.parametrize(
        "gammas, p",
        [
            ((math.inf, -math.inf), None),
            ((1e308, 1e308), None),
            ((math.nan, 0.5), None),
            ((0.5, math.nan), None),
            ((0.75, 0.25), math.inf),
            ((0.75, 0.25), math.nan),
        ],
    )
    def test_non_finite_candidates_fail_with_an_infinite_residual(self, gammas, p):
        profile = RiskProfile(10.0, 5.0)
        if p is None:
            spec = ContractSpec(Variant.CFAIR_MUDHARABAH, (2, 3))
        else:
            spec = ContractSpec(Variant.MUSHARAKAH_WAKALAH, (1, 1, 1), (1.0, 0.0), WakalahTerms(0.0, 1.0, 4))
        report = verify_allocation(Allocation(gammas=gammas, payoffs=(), periodic_payment=p), spec, profile)
        assert not report.passed
        assert math.inf in (report.max_fairness_residual, report.simplex_residual)
        assert not any(map(math.isnan, (report.max_fairness_residual, report.simplex_residual)))

    def test_infinite_residual_fails_at_any_tolerance(self):
        # Every rated payoff overflows, and so does the old bound tol * max(ratings) * e_profit.
        spec = ContractSpec(Variant.CFAIR_MUDHARABAH, (1e300, 1e300))
        profile = RiskProfile.from_rho(0.25, delta=1e308)
        candidate = Allocation(gammas=(0.1, 0.9), payoffs=())
        for tol in (1e-9, sys.float_info.max):  # the largest tolerance allowed
            report = verify_allocation(candidate, spec, profile, tol=tol)
            assert report.max_fairness_residual == math.inf and not report.passed

    def test_allocation_is_built_by_keyword_only(self):
        # a positional third argument would otherwise be taken as the periodic payment
        with pytest.raises(TypeError):
            Allocation((0.5, 0.5), (), 0.0)


_TERMS = WakalahTerms(0.05, 2.0, 4)


@pytest.mark.parametrize(
    "check, variant, capital, terms",
    [
        (
            lambda capital: musharakah_system((1, 2, 3), capital, 10.0, 5.0),
            Variant.MUSHARAKAH_SELF_MANAGED, (0.5, 0.5), None,
        ),
        (
            lambda capital: wakalah_system((1, 2, 3), capital, 10.0, 5.0, _TERMS),
            Variant.MUSHARAKAH_WAKALAH, (0.2, 0.3, 0.5), _TERMS,
        ),
    ],
    ids=["musharakah_system", "wakalah_system"],
)
def test_capital_length_is_reported_by_the_spec(check, variant, capital, terms):
    with pytest.raises(ContractError) as from_spec:
        ContractSpec(variant, (1, 2, 3), capital, terms)
    assert "capital" in str(from_spec.value)
    with pytest.raises(ContractError) as from_check:
        check(capital)
    assert str(from_check.value) == str(from_spec.value)
