"""Closed-form allocation examples and algebraic properties.

Expected values marked as derived were computed with independent oracles:
exact rational arithmetic (fractions.Fraction) for weights and ratios, and
direct summation for annuity factors. The worked-example figures match the
published two- and four-partner cases.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_floats, ratings_strategy, rho_strategy, simplex_strategy
from plsfair import (
    Allocation,
    AllocationPlan,
    ContractError,
    ContractSpec,
    NonViableError,
    RiskProfile,
    Variant,
    WakalahTerms,
    allocate,
    annuity_pv,
    cfair_mudharabah,
    cfair_musharakah,
    cfair_musharakah_external_mudharib,
    cfair_musharakah_wakalah,
    fair_mudharabah,
    payment_factor,
    sharing_weights,
    solve_fairness_system,
    two_point_fair_ratio,
    verify_allocation,
)
from plsfair.ratios import discount_factor


def weights_oracle(ratings):
    """Exact-rational leave-one-out products, normalized."""
    prods = []
    for leave_out in range(len(ratings)):
        p = Fraction(1)
        for i, c in enumerate(ratings):
            if i != leave_out:
                p *= Fraction(c)
        prods.append(p)
    total = sum(prods)
    return [p / total for p in prods]


class TestSharingWeights:
    @pytest.mark.parametrize(
        "ratings, expected",
        [
            ((1, 1, 1, 1), (0.25, 0.25, 0.25, 0.25)),
            ((1, 2, 1, 4), (4 / 11, 2 / 11, 4 / 11, 1 / 11)),
            ((2, 3), (3 / 5, 2 / 5)),
            ((3, 3, 3, 2), (2 / 9, 2 / 9, 2 / 9, 3 / 9)),
            ((3, 5, 4, 2), (20 / 77, 12 / 77, 15 / 77, 30 / 77)),
        ],
    )
    def test_worked_examples(self, ratings, expected):
        w = sharing_weights(ratings)
        assert w == pytest.approx(expected, abs=1e-15)

    @given(ratings_strategy, finite_floats(0.001, 1000.0))
    def test_scale_invariance(self, ratings, t):
        base = sharing_weights(ratings)
        scaled = sharing_weights(tuple(t * c for c in ratings))
        assert scaled == pytest.approx(base, abs=1e-12)

    @given(ratings_strategy)
    def test_simplex_and_order_reversal(self, ratings):
        w = sharing_weights(ratings)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
        for (ci, wi) in zip(ratings, w):
            for (cj, wj) in zip(ratings, w):
                if ci < cj:
                    assert wi >= wj

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=17, max_size=30))
    def test_17_to_30_small_integer_ratings_match_exact_rationals(self, ratings):
        w = sharing_weights(ratings)
        exact = [float(x) for x in weights_oracle(ratings)]
        assert w == pytest.approx(exact, abs=1e-13)

    def test_ratings_170_decades_apart_match_the_oracle(self):
        # every direct leave-one-out product underflows to 0 here
        ratings = (1e-170,) * 3 + (1.0,) * 3
        kappa = (0.1, 0.2, 0.05, 0.3, 0.15, 0.2)
        gammas = cfair_musharakah(ratings, kappa, 0.3).gammas
        assert gammas == pytest.approx(solve_fairness_system(ratings, kappa, 1.0, 0.3), rel=1e-12)

    def test_ratings_292_decades_apart_match_exact_rationals(self):
        ratings = (1e300, 1e8, 1e8)
        exact = [float(x) for x in weights_oracle(ratings)]
        assert sharing_weights(ratings) == pytest.approx(exact, rel=1e-12)

    def test_16_and_17_partners_match_exact_rationals(self):
        ratings16 = tuple(range(1, 17))
        ratings17 = ratings16 + (5,)
        for r in (ratings16, ratings17):
            exact = [float(x) for x in weights_oracle(r)]
            assert sharing_weights(r) == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 17, 32, 64])
    def test_relative_accuracy_against_the_product_definition(self, d):
        # 25 seeded vectors, ratings log-uniform over 1e-3..1e3; the error of
        # each float weight is measured exactly against the rational
        # leave-one-out products, so no rounding enters the reference.
        rng = random.Random(20251018 + d)
        worst = 0.0
        for _ in range(25):
            ratings = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(d)]
            for w, exact in zip(sharing_weights(ratings), weights_oracle(ratings)):
                worst = max(worst, float(abs(Fraction(w) - exact) / exact))
        assert worst <= 4.5e-16

    def test_spread_beyond_the_float_range_is_a_zero_weight(self):
        with pytest.raises(ContractError, match="weight 2 must be positive"):
            sharing_weights((1e-200, 1e200))


class TestFairMudharabah:
    @pytest.mark.parametrize(
        "rho, expected",
        [
            (0.25, (0.625, 0.375)),
            (0.5, (0.75, 0.25)),
            (0.0, (0.5, 0.5)),
            (1.0, (1.0, 0.0)),
        ],
    )
    def test_examples(self, rho, expected):
        assert fair_mudharabah(rho) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("rho", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_range_risk(self, rho):
        with pytest.raises((NonViableError, ContractError)):
            fair_mudharabah(rho)


class TestCfairMudharabah:
    @pytest.mark.parametrize(
        "ratings, rho, expected",
        [
            ((2, 3), 0.25, (0.70, 0.30)),
            ((2, 3), 0.5, (0.80, 0.20)),
            ((3, 2), 0.25, (0.55, 0.45)),
            ((3, 2), 0.5, (0.70, 0.30)),
        ],
    )
    def test_worked_examples(self, ratings, rho, expected):
        alloc = cfair_mudharabah(ratings, rho)
        assert alloc.gammas == pytest.approx(expected, abs=1e-12)

    @given(rho_strategy)
    def test_equal_ratings_reduce_to_fair(self, rho):
        alloc = cfair_mudharabah((1, 1), rho)
        assert alloc.gammas == pytest.approx(fair_mudharabah(rho), abs=1e-15)

    def test_payoffs_split_delta_by_weights(self):
        profile = RiskProfile(12.0, 3.0)  # rho 1/4, delta 9
        alloc = cfair_mudharabah((2, 3), profile)
        assert alloc.payoffs == pytest.approx((3 / 5 * 9.0, 2 / 5 * 9.0), rel=1e-12)

    def test_requires_two_partners(self):
        with pytest.raises(ContractError):
            cfair_mudharabah((1, 2, 3), 0.5)

    def test_rejects_non_viable_profile(self):
        with pytest.raises(NonViableError):
            cfair_mudharabah((2, 3), RiskProfile(1.0, 1.5))


# Exact fractions for the four-partner cases, from the rational oracle.
EQUAL_KAPPA_1214_RHO18 = (123 / 352, 67 / 352, 123 / 352, 39 / 352)
KAPPA_1313_1111_RHO18 = (15 / 64, 17 / 64, 15 / 64, 17 / 64)
KAPPA_1313_1111_RHO23 = (1 / 6, 1 / 3, 1 / 6, 1 / 3)
KAPPA_1313_1214_RHO18 = (235 / 704, 145 / 704, 235 / 704, 89 / 704)
KAPPA_1313 = (1 / 8, 3 / 8, 1 / 8, 3 / 8)


class TestCfairMusharakah:
    @pytest.mark.parametrize(
        "ratings, kappa, rho, expected",
        [
            ((1, 1, 1, 1), KAPPA_1313, 1 / 8, KAPPA_1313_1111_RHO18),
            ((1, 1, 1, 1), KAPPA_1313, 2 / 3, KAPPA_1313_1111_RHO23),
            ((1, 2, 1, 4), KAPPA_1313, 1 / 8, KAPPA_1313_1214_RHO18),
            ((1, 2, 1, 4), (0.25,) * 4, 1 / 8, EQUAL_KAPPA_1214_RHO18),
        ],
    )
    def test_four_partner_cases(self, ratings, kappa, rho, expected):
        alloc = cfair_musharakah(ratings, kappa, rho)
        assert alloc.gammas == pytest.approx(expected, abs=1e-14)

    def test_published_percentages(self):
        # The printed whole-percent tuples round the exact values above.
        g18 = cfair_musharakah((1, 1, 1, 1), KAPPA_1313, 1 / 8).gammas
        assert [round(100 * g) for g in g18] == [23, 27, 23, 27]
        g23 = cfair_musharakah((1, 1, 1, 1), KAPPA_1313, 2 / 3).gammas
        assert [round(100 * g) for g in g23] == [17, 33, 17, 33]
        g1214 = cfair_musharakah((1, 2, 1, 4), KAPPA_1313, 1 / 8).gammas
        assert [round(100 * g) for g in g1214] == [33, 21, 33, 13]

    def test_equal_kappa_printed_tuple_swaps_partners_2_and_4(self):
        # The published tuple for this case reads (35%, 11%, 35%, 19%), but
        # the smaller rating must carry the larger weight: partner 4 (rated
        # 4) gets ~11% and partner 2 (rated 2) gets ~19%. The exact solution
        # is (123, 67, 123, 39)/352; the printed tuple has partners 2 and 4
        # swapped.
        gammas = cfair_musharakah((1, 2, 1, 4), (0.25,) * 4, 1 / 8).gammas
        assert [round(100 * g) for g in gammas] == [35, 19, 35, 11]
        assert gammas[3] < gammas[1] < gammas[0]

    @given(st.integers(min_value=2, max_value=8), rho_strategy)
    def test_equal_everything_gives_equal_ratios(self, d, rho):
        gammas = cfair_musharakah((1.0,) * d, (1.0 / d,) * d, rho).gammas
        assert gammas == pytest.approx((1.0 / d,) * d, abs=1e-12)

    @given(st.lists(finite_floats(0.1, 10.0), min_size=2, max_size=2), rho_strategy)
    def test_reduces_to_mudharabah_with_degenerate_capital(self, ratings, rho):
        full = cfair_musharakah(ratings, (1.0, 0.0), rho)
        two = cfair_mudharabah(ratings, rho)
        assert full.gammas == pytest.approx(two.gammas, abs=1e-14)
        assert full.payoffs == pytest.approx(two.payoffs, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            cfair_musharakah((1, 1, 1), (0.5, 0.5), 0.5)

    def test_rejects_non_viable(self):
        with pytest.raises(NonViableError):
            cfair_musharakah((1, 1), (0.5, 0.5), 1.2)


class TestExternalMudharib:
    def test_published_cases(self):
        third = (1 / 3, 1 / 3, 1 / 3)
        equal = cfair_musharakah_external_mudharib((1, 1, 1, 1), third, 0.5)
        assert equal.gammas == pytest.approx((7 / 24, 7 / 24, 7 / 24, 1 / 8), abs=1e-14)
        rated = cfair_musharakah_external_mudharib((3, 3, 3, 2), third, 0.5)
        assert rated.gammas == pytest.approx((5 / 18, 5 / 18, 5 / 18, 1 / 6), abs=1e-14)

    @given(ratings_strategy, rho_strategy, st.data())
    def test_equals_musharakah_with_zero_manager_capital(self, ratings, rho, data):
        d = len(ratings)
        kappa = data.draw(simplex_strategy(size=d - 1)) if d > 2 else (1.0,)
        ext = cfair_musharakah_external_mudharib(ratings, kappa, rho)
        full = cfair_musharakah(ratings, tuple(kappa) + (0.0,), rho)
        assert ext.gammas == pytest.approx(full.gammas, abs=1e-15)

    @given(st.lists(finite_floats(0.1, 10.0), min_size=2, max_size=2), rho_strategy)
    def test_two_partner_case_is_a_mudharabah(self, ratings, rho):
        ext = cfair_musharakah_external_mudharib(ratings, (1.0,), rho)
        two = cfair_mudharabah(ratings, rho)
        assert ext.gammas == pytest.approx(two.gammas, abs=1e-14)


class TestAnnuityFactors:
    def test_no_discounting_counts_payments(self):
        assert annuity_pv(WakalahTerms(0.0, 3.0, 7)) == 7.0

    def test_single_payment_discounts_to_maturity(self):
        terms = WakalahTerms(0.07, 2.5, 1)
        assert annuity_pv(terms) == pytest.approx(1.07 ** -2.5, rel=1e-14)

    def test_direct_summation_oracle(self):
        terms = WakalahTerms(0.05, 2.0, 4)
        oracle = math.fsum(1.05 ** (-(2.0 / 4) * i) for i in range(1, 5))
        assert annuity_pv(terms) == pytest.approx(oracle, rel=1e-13)
        assert oracle == pytest.approx(3.7647391446909, rel=1e-12)

    @given(finite_floats(1e-9, 0.5), finite_floats(0.25, 10.0), st.integers(min_value=1, max_value=24))
    def test_annuity_matches_direct_sum(self, r, T, k):
        terms = WakalahTerms(r, T, k)
        oracle = math.fsum((1.0 + r) ** (-(T / k) * i) for i in range(1, k + 1))
        assert annuity_pv(terms) == pytest.approx(oracle, rel=1e-11)

    def test_payment_factor_limit_and_single_payment(self):
        assert payment_factor(WakalahTerms(0.0, 1.0, 4)) == 0.25
        assert payment_factor(WakalahTerms(0.3, 2.0, 1)) == 1.0
        # continuity of the r -> 0 limit
        tiny = payment_factor(WakalahTerms(1e-12, 1.0, 4))
        assert tiny == pytest.approx(0.25, rel=1e-9)

    @given(finite_floats(1e-6, 0.5), finite_floats(0.25, 10.0), st.integers(min_value=1, max_value=24))
    def test_reciprocal_identity(self, r, T, k):
        terms = WakalahTerms(r, T, k)
        assert payment_factor(terms) * annuity_pv(terms) * (1.0 + r) ** T == pytest.approx(
            1.0, rel=1e-11
        )

    @pytest.mark.parametrize("T, k", [(14600.0, 2), (14600.0, 20), (20000.0, 3), (1e5, 150)])
    def test_long_maturities_in_log_space(self, T, k):
        # (1+r)^T overflows a double here; the factors are still accurate.
        terms = WakalahTerms(0.05, T, k)
        with mpmath.workdps(60):
            g = mpmath.mpf("1.05")
            pf = (g ** (T / k) - 1) / (g**T - 1)
            pv = (1 - g ** (-T)) / (g ** (T / k) - 1)
        assert payment_factor(terms) == pytest.approx(float(pf), rel=1e-12)
        assert annuity_pv(terms) == pytest.approx(float(pv), rel=1e-12)

    def test_overflowing_maturity_underflows_to_zero(self):
        terms = WakalahTerms(0.05, 1e6, 4)
        assert payment_factor(terms) == 0.0
        assert annuity_pv(terms) == 0.0

    @pytest.mark.parametrize("terms, limit", [(WakalahTerms(1e9, 1.7e308, 12), 0.0),
                                              (WakalahTerms(10, 1e308, 1), 1.0)])
    def test_overflowing_period_takes_the_limit(self, terms, limit):
        # T/k log1p(r) is inf, so e^(P - M) would be inf - inf
        assert payment_factor(terms) == limit
        alloc = cfair_musharakah_wakalah((2.0, 3.0, 4.0), (0.5, 0.5), 0.5, terms)
        assert math.isfinite(alloc.periodic_payment)
        assert (alloc.periodic_payment > 0.0) == (limit == 1.0)

    @pytest.mark.parametrize(
        "r, T, k",
        [(1.7e-245, 1.0, 10**300), (1e-320, 1e-5, 3), (0.05, 1.0, 10**307), (0.3, 2.0, 10**308)],
        ids=["tiny-r-huge-k", "subnormal-r", "k-1e307", "k-1e308"],
    )
    def test_per_payment_growth_below_the_normal_floats(self, r, T, k):
        # (1+r)^(T/k) - 1 is subnormal or 0 here; both factors stay accurate.
        terms = WakalahTerms(r, T, k)
        with mpmath.workdps(60):
            m = T * mpmath.log1p(mpmath.mpf(r))
            pf = mpmath.expm1(m / k) / mpmath.expm1(m)
            pv = -mpmath.expm1(-m) / mpmath.expm1(m / k)
        assert payment_factor(terms) == pytest.approx(float(pf), rel=1e-12)
        assert annuity_pv(terms) == pytest.approx(float(pv), rel=1e-12)

    def test_random_terms_against_mpmath(self):
        # All three factors and the identity annuity_pv * payment_factor = (1+r)^-T, within
        # 4 max(1, T log1p(r)) ulp of 60-digit mpmath wherever the results are normal floats.
        rng = random.Random(20261020)
        eps, counted = sys.float_info.epsilon, 0
        for _ in range(3000):
            r, T = 10.0 ** rng.uniform(-14.0, 0.0), 10.0 ** rng.uniform(-2.0, 6.0)
            terms = WakalahTerms(r, T, rng.choice((1, 4, 12, 365)))
            with mpmath.workdps(60):
                maturity = T * mpmath.log1p(r)
                period = maturity / terms.k
                exact = {
                    "discount": mpmath.exp(-maturity),
                    "annuity": mpmath.exp(-period) * mpmath.expm1(-maturity) / mpmath.expm1(-period),
                    "payment": mpmath.exp(period - maturity) * mpmath.expm1(-period) / mpmath.expm1(-maturity),
                }
                if min(exact.values()) < sys.float_info.min:
                    continue
                counted += 1
                got = {"discount": discount_factor(terms), "annuity": annuity_pv(terms),
                       "payment": payment_factor(terms)}
                got["identity"] = got["annuity"] * got["payment"]
                exact["identity"] = exact["discount"]
                bound = 4 * max(1.0, float(maturity)) * eps
                for name, value in got.items():
                    error = float(abs(value / exact[name] - 1))
                    assert error <= bound, (name, terms, error, bound)
        assert counted > 2800


class TestAllocationPlan:
    def test_effective_vectors(self):
        mudharabah, external, wakalah = (
            AllocationPlan.for_contract(spec)
            for spec in (
                ContractSpec(Variant.CFAIR_MUDHARABAH, (2.0, 5.0)),
                ContractSpec(Variant.MUSHARAKAH_EXTERNAL_MUDHARIB, (1, 2, 3), (0.4, 0.6)),
                ContractSpec(
                    Variant.MUSHARAKAH_WAKALAH, (1, 2, 3, 4), (0.2, 0.3, 0.5),
                    WakalahTerms(0.04, 2.0, 8),
                ),
            )
        )
        assert mudharabah.kappa_eff == (1.0, 0.0)
        assert external.kappa_eff == (0.4, 0.6, 0.0)
        assert external.w_eff == external.weights
        w = wakalah.weights
        assert wakalah.w_eff == tuple(w[3] / 3 + wi for wi in w[:3])
        assert wakalah.gammas(0.25) == cfair_musharakah_wakalah(
            (1, 2, 3, 4), (0.2, 0.3, 0.5), 0.25, WakalahTerms(0.0, 1.0, 1)
        ).gammas

    def test_mudharabah_plan_pins_the_capital_exactly(self):
        spec = ContractSpec(Variant.CFAIR_MUDHARABAH, (2.0, 5.0), (1.0, 1e-13))
        assert AllocationPlan.for_contract(spec).kappa_eff == (1.0, 0.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: cfair_mudharabah((1, 2, 3), 0.5), "cfair_mudharabah needs exactly 2 partners"),
            (lambda: cfair_musharakah((1, 1, 1), (0.5, 0.5), 0.5), "one capital share per partner"),
            (
                lambda: cfair_musharakah_external_mudharib((1, 1, 1), (0.5, 0.3, 0.2), 0.5),
                "capital for the 2 funding partners",
            ),
            (
                lambda: cfair_musharakah_wakalah((1, 1, 1), (0.5, 0.5), 0.5, None),
                r"wakalah terms \(r, T, k\) are required",
            ),
            (
                lambda: cfair_musharakah_wakalah((1, 1, 1), (0.5, 0.5), 0.5, {"r": 0, "T": 1, "k": 2}),
                "must be WakalahTerms",
            ),
        ],
    )
    def test_cfair_functions_report_the_spec_error(self, call, message):
        with pytest.raises(ContractError, match=message):
            call()


class TestWakalah:
    def test_three_partner_worked_example(self):
        terms = WakalahTerms(0.0, 1.0, 4)
        profile = RiskProfile.from_rho(0.5)  # unit e_profit, delta = 1/2
        alloc = cfair_musharakah_wakalah((1, 1, 1), (1.0, 0.0), profile, terms)
        assert alloc.gammas == (0.75, 0.25)
        # the three partners share the expected profit equally
        assert alloc.payoffs == pytest.approx((profile.delta / 3,) * 3, rel=1e-14)
        # at r = 0 the k payments add up to the manager's share
        assert terms.k * alloc.periodic_payment == pytest.approx(profile.delta / 3, rel=1e-13)

    def test_symmetric_funders_split_evenly_at_zero_risk(self):
        alloc = cfair_musharakah_wakalah(
            (1, 1, 1), (0.5, 0.5), 0.0, WakalahTerms(0.0, 1.0, 1)
        )
        assert alloc.gammas == pytest.approx((0.5, 0.5), abs=1e-15)

    @given(
        ratings_strategy,
        rho_strategy,
        st.sampled_from([0.0, 0.01, 0.2]),
        st.integers(min_value=1, max_value=12),
        st.data(),
    )
    def test_ratios_do_not_depend_on_discounting(self, ratings, rho, r, k, data):
        d = len(ratings)
        kappa = data.draw(simplex_strategy(size=d - 1)) if d > 2 else (1.0,)
        base = cfair_musharakah_wakalah(ratings, kappa, rho, WakalahTerms(0.0, 1.0, 1))
        other = cfair_musharakah_wakalah(ratings, kappa, rho, WakalahTerms(r, 2.0, k))
        assert other.gammas == pytest.approx(base.gammas, abs=1e-12)

    def test_funding_ratios_sum_to_one(self):
        alloc = cfair_musharakah_wakalah(
            (1, 2, 3, 4), (0.2, 0.3, 0.5), 0.37, WakalahTerms(0.04, 2.0, 8)
        )
        assert math.fsum(alloc.gammas) == pytest.approx(1.0, abs=1e-12)
        assert len(alloc.gammas) == 3 and len(alloc.payoffs) == 4

    def test_present_value_payoffs(self):
        terms = WakalahTerms(0.05, 2.0, 4)
        profile = RiskProfile(10.0, 5.0)
        alloc = cfair_musharakah_wakalah((1, 2, 3), (0.4, 0.6), profile, terms)
        w = sharing_weights((1, 2, 3))
        discount = 1.05 ** -2.0
        assert alloc.valuation == "present_value"
        assert alloc.payoffs == pytest.approx(
            tuple(wi * discount * profile.delta for wi in w), rel=1e-13
        )
        # manager's annuity-valued remuneration equals the discounted share
        assert annuity_pv(terms) * alloc.periodic_payment == pytest.approx(
            w[2] * discount * profile.delta, rel=1e-12
        )

    def test_capital_must_cover_funders(self):
        with pytest.raises(ContractError):
            cfair_musharakah_wakalah((1, 1, 1), (0.5, 0.3, 0.2), 0.5, WakalahTerms(0.0, 1.0, 1))


class TestTwoPointFairRatio:
    def test_no_loss_probability_splits_evenly(self):
        assert two_point_fair_ratio(1.0, 120.0, 90.0, 100.0) == 0.5

    def test_symmetric_coin_flip_gives_everything_to_funder(self):
        assert two_point_fair_ratio(0.5, 120.0, 80.0, 100.0) == pytest.approx(1.0, abs=1e-15)

    def test_worked_example(self):
        assert two_point_fair_ratio(0.6, 120.0, 90.0, 100.0) == pytest.approx(2 / 3, abs=1e-15)
        assert fair_mudharabah(1 / 3)[0] == pytest.approx(2 / 3, abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=0.0, r_plus=120.0, r_minus=90.0, L=100.0),
            dict(beta=1.2, r_plus=120.0, r_minus=90.0, L=100.0),
            dict(beta=0.5, r_plus=100.0, r_minus=90.0, L=100.0),
            dict(beta=0.5, r_plus=120.0, r_minus=101.0, L=100.0),
        ],
    )
    def test_rejects_bad_scenarios(self, kwargs):
        with pytest.raises(ContractError):
            two_point_fair_ratio(**kwargs)

    def test_an_integer_beyond_the_float_range_is_named(self):
        with pytest.raises(ContractError, match="^beta is out of the float range$"):
            two_point_fair_ratio(10**400, 120.0, 90.0, 100.0)

    def test_risk_above_one_is_not_viable(self):
        # rho = 0.9 * 100 / (0.1 * 10) = 90: no fair ratio exists
        with pytest.raises(NonViableError):
            two_point_fair_ratio(0.1, 110.0, 0.0, 100.0)

    @pytest.mark.parametrize("r_plus, r_minus", [(math.inf, 90.0), (120.0, -math.inf)])
    def test_infinite_revenues_are_rejected(self, r_plus, r_minus):
        with pytest.raises(ContractError, match="must be finite"):
            two_point_fair_ratio(0.5, r_plus, r_minus, 100.0)


def _plan(ratings, capital, variant=Variant.MUSHARAKAH_SELF_MANAGED, terms=None):
    return AllocationPlan.for_contract(ContractSpec(variant, ratings, capital, terms))


@st.composite
def crossing_cases(draw):
    """A plan of any musharakah variant and two positions among its ratio holders."""
    variant = draw(st.sampled_from([Variant.MUSHARAKAH_SELF_MANAGED, Variant.MUSHARAKAH_EXTERNAL_MUDHARIB,
                                    Variant.MUSHARAKAH_WAKALAH]))
    ratings = draw(ratings_strategy)
    d = len(ratings) if variant is Variant.MUSHARAKAH_SELF_MANAGED else len(ratings) - 1
    capital = draw(simplex_strategy(size=d)) if d > 1 else (1.0,)
    terms = WakalahTerms(0.05, 2.0, 4) if variant is Variant.MUSHARAKAH_WAKALAH else None
    plan = _plan(ratings, capital, variant, terms)
    holders = st.integers(0, len(plan.w_eff) - 1)
    return plan, draw(holders), draw(holders)


class TestDominance:
    def test_equal_weights_funding_decides(self):
        plan = _plan((1, 1, 1, 1), (0.375, 0.125, 0.25, 0.25))
        assert plan.w_eff[0] == plan.w_eff[1]
        assert plan.crossing(0, 1) is None and plan.crossing(1, 0) is None
        assert plan.gammas(0.5)[0] > plan.gammas(0.5)[1]

    def test_crossing_threshold(self):
        # w_eff = (0.6, 0.4): partner 0 leads on labour, partner 1 on capital.
        plan = _plan((2, 3), (0.2, 0.8))
        assert plan.w_eff == pytest.approx((0.6, 0.4))
        assert plan.crossing(0, 1) == pytest.approx(0.25)
        assert plan.crossing(1, 0) == plan.crossing(0, 1)
        gammas = plan.gammas(plan.crossing(0, 1))
        assert gammas[0] == pytest.approx(gammas[1])

    def test_identical_partners(self):
        plan = _plan((2, 2, 1), (0.25, 0.25, 0.5))
        assert plan.crossing(0, 1) is None
        assert plan.crossing(2, 2) is None

    def test_both_gaps_negative(self):
        plan = _plan((3, 1), (0.2, 0.8))
        assert plan.crossing(0, 1) is None
        assert all(g0 <= g1 for g0, g1 in (plan.gammas(i / 10) for i in range(11)))

    def test_wakalah_reads_the_funders_effective_weights(self):
        # Funders rated (1, 2) hold w = (4/7, 2/7) of the ratings (1, 2, 4); the manager's
        # 1/7 goes to them equally, so w_eff = (9/14, 5/14), and rho* = (2/7) / (2/7 + 0.6).
        plan = _plan((1, 2, 4), (0.2, 0.8), Variant.MUSHARAKAH_WAKALAH, WakalahTerms(0.05, 2.0, 4))
        assert plan.w_eff == pytest.approx((9 / 14, 5 / 14))
        assert plan.crossing(0, 1) == pytest.approx((2 / 7) / (2 / 7 + 0.6))

    def test_subnormal_gaps_cross_strictly_inside(self):
        # gap_w is about 2e-316 and gap_k is -1e-310: their product underflows to 0,
        # but their signs are opposite and the quotient is about 1.7e-6.
        plan = _plan((1, 1e300, 1e300 * (1 + 2**-52)), (1.0, 0.0, 1e-310))
        gap_w = plan.w_eff[1] - plan.w_eff[2]
        assert 0.0 < gap_w < sys.float_info.min and gap_w * -1e-310 == 0.0
        assert 0.0 < plan.crossing(1, 2) < 1.0
        assert plan.crossing(1, 2) == pytest.approx(gap_w / (gap_w + 1e-310))

    def test_a_crossing_that_rounds_to_one_is_pinned_inside(self):
        plan = _plan((2, 3, 1), (1e-30, 2e-30, 1.0))
        assert plan.crossing(0, 1) == math.nextafter(1.0, 0.0)

    @pytest.mark.parametrize("position", [2, -1, 10**400, 1.0, math.nan, None, False, True])
    def test_rejects_a_position_outside_the_plan(self, position):
        plan = _plan((2, 3), (0.2, 0.8))
        for a, b in ((position, 0), (0, position)):
            with pytest.raises(ContractError, match=r"integer positions in range\(2\)$"):
                plan.crossing(a, b)

    @given(crossing_cases())
    def test_crossing_agrees_with_grid_sign_check(self, case):
        plan, a, b = case
        crossing = plan.crossing(a, b)
        # The grid holds both ends, where each gamma is exactly w_eff or kappa_eff, and rounding
        # is monotone, so the signs of the kernel's own differences are exact, not tolerance-based.
        diffs = [g[a] - g[b] for g in (plan.gammas(i / 100) for i in range(101))]
        if crossing is None:
            assert all(dv >= 0.0 for dv in diffs) or all(dv <= 0.0 for dv in diffs)
        else:
            assert 0.0 < crossing < 1.0
            assert any(dv > 0.0 for dv in diffs) and any(dv < 0.0 for dv in diffs)
            assert (diffs[0] > 0.0) == (plan.w_eff[a] > plan.w_eff[b])


# ---------------------------------------------------------------------------
# Cross-cutting algebraic properties


@st.composite
def musharakah_cases(draw):
    ratings = draw(ratings_strategy)
    kappa = draw(simplex_strategy(size=len(ratings)))
    rho = draw(rho_strategy)
    return ratings, kappa, rho


@given(musharakah_cases())
@settings(max_examples=200)
def test_ratio_simplex(case):
    ratings, kappa, rho = case
    gammas = cfair_musharakah(ratings, kappa, rho).gammas
    assert math.fsum(gammas) == pytest.approx(1.0, abs=1e-12)
    assert all(-1e-12 <= g <= 1.0 + 1e-12 for g in gammas)


@given(musharakah_cases(), finite_floats(0.01, 100.0))
@settings(max_examples=200)
def test_rating_scale_invariance(case, t):
    ratings, kappa, rho = case
    base = cfair_musharakah(ratings, kappa, rho)
    scaled = cfair_musharakah(tuple(t * c for c in ratings), kappa, rho)
    assert scaled.gammas == pytest.approx(base.gammas, abs=1e-12)
    assert scaled.payoffs == pytest.approx(base.payoffs, abs=1e-12)


@given(musharakah_cases(), finite_floats(0.1, 1000.0))
@settings(max_examples=200)
def test_payoff_proportionality_and_conservation(case, e_profit):
    ratings, kappa, rho = case
    profile = RiskProfile(e_profit, rho * e_profit)
    alloc = cfair_musharakah(ratings, kappa, profile)
    w = sharing_weights(ratings)
    # recomputing each payoff from its definition returns the weighted profit
    recomputed = [
        g * profile.e_profit - k * profile.e_loss for g, k in zip(alloc.gammas, kappa)
    ]
    assert recomputed == pytest.approx(
        [wi * profile.delta for wi in w], rel=1e-9, abs=1e-9 * e_profit
    )
    # the rated payoffs coincide across partners
    rated = [c * p for c, p in zip(ratings, recomputed)]
    assert max(rated) - min(rated) <= 1e-9 * e_profit * max(ratings)
    # and the payoffs add up to the whole expected investment profit
    assert math.fsum(recomputed) == pytest.approx(profile.delta, abs=1e-9 * e_profit)


@given(musharakah_cases())
@settings(max_examples=200)
def test_labor_funding_decomposition(case):
    ratings, kappa, rho = case
    gammas = cfair_musharakah(ratings, kappa, rho).gammas
    w = sharing_weights(ratings)
    for g, ki, wi in zip(gammas, kappa, w):
        assert g - ki * rho == pytest.approx(wi * (1.0 - rho), abs=1e-12)


@given(st.lists(finite_floats(0.1, 10.0), min_size=2, max_size=2), rho_strategy)
def test_reduction_chain(ratings, rho):
    # musharakah with capital (1, 0) == mudharabah; equal ratings == fair split
    chain1 = cfair_musharakah(ratings, (1.0, 0.0), rho).gammas
    chain2 = cfair_mudharabah(ratings, rho).gammas
    assert chain1 == pytest.approx(chain2, abs=1e-14)
    fair_like = cfair_mudharabah((1.0, 1.0), rho).gammas
    assert fair_like == pytest.approx(fair_mudharabah(rho), abs=1e-15)


@given(musharakah_cases())
@settings(max_examples=100)
def test_residual_is_tiny_for_closed_forms(case):
    ratings, kappa, rho = case
    spec = ContractSpec(Variant.MUSHARAKAH_SELF_MANAGED, ratings, kappa)
    profile = RiskProfile.from_rho(rho)
    alloc = cfair_musharakah(ratings, kappa, profile)
    assert verify_allocation(alloc, spec, profile).max_fairness_residual <= 1e-12 * max(ratings)


def test_allocate_dispatches_by_variant():
    spec = ContractSpec(variant=Variant.CFAIR_MUDHARABAH, ratings=(2, 3))
    assert allocate(spec, 0.25).gammas == pytest.approx((0.7, 0.3), abs=1e-12)
    spec = ContractSpec(
        variant=Variant.MUSHARAKAH_WAKALAH,
        ratings=(1, 1, 1),
        capital=(1.0, 0.0),
        wakalah=WakalahTerms(0.0, 1.0, 4),
    )
    alloc = allocate(spec, 0.5)
    assert alloc.gammas == (0.75, 0.25)
    assert isinstance(alloc, Allocation)
