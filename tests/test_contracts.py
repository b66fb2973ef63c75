"""Domain-type validation and serialization round-trips."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import finite_floats, ratings_strategy, simplex_strategy
from plsfair import (
    CapitalShares,
    ContractError,
    ContractSpec,
    RatingVector,
    RiskProfile,
    Variant,
    WakalahTerms,
    validate_spec,
)
from plsfair.cli import contract_from_dict, contract_to_dict
from plsfair.contracts import as_capital, as_ratings


class TestRatingVector:
    def test_accepts_positive_ratings(self):
        rv = RatingVector((1, 2, 1, 4))
        assert rv.values == (1.0, 2.0, 1.0, 4.0)
        assert len(rv) == 4
        assert rv[1] == 2.0

    @pytest.mark.parametrize(
        "values",
        [(1.0,), (), (1.0, -1.0), (1.0, 0.0), (1.0, float("nan")), (1.0, float("inf")), (1.0,) * 65],
    )
    def test_rejects_bad_ratings(self, values):
        with pytest.raises(ContractError):
            RatingVector(values)

    @given(ratings_strategy)
    def test_accepts_any_positive_vector(self, values):
        assert RatingVector(tuple(values)).values == tuple(float(v) for v in values)

    @given(ratings_strategy, st.integers(min_value=0, max_value=7), finite_floats(-10.0, 0.0))
    def test_rejects_any_nonpositive_entry(self, values, pos, bad):
        values = list(values)
        values[pos % len(values)] = bad
        with pytest.raises(ContractError):
            RatingVector(tuple(values))


class TestCapitalShares:
    def test_accepts_simplex(self):
        ks = CapitalShares((0.125, 0.375, 0.125, 0.375))
        assert math.isclose(sum(ks.values), 1.0)

    def test_accepts_degenerate_mudharabah_split(self):
        assert CapitalShares((1.0, 0.0)).values == (1.0, 0.0)

    @pytest.mark.parametrize(
        "values",
        [(), (0.5, 0.6), (0.5, 0.4), (-0.1, 1.1), (0.5, 0.5, 0.1), (1.2, -0.2)],
    )
    def test_rejects_off_simplex(self, values):
        with pytest.raises(ContractError):
            CapitalShares(values)

    @given(simplex_strategy())
    def test_accepts_normalized_vectors(self, values):
        assert len(CapitalShares(values)) == len(values)

    @given(simplex_strategy(), finite_floats(1.01, 5.0))
    def test_rejects_scaled_off_simplex_vectors(self, values, t):
        with pytest.raises(ContractError):
            CapitalShares(tuple(t * v for v in values))


class TestRiskProfile:
    def test_from_expectations_derives_identities(self):
        p = RiskProfile.from_expectations(12.0, 4.0)
        assert p.rho == pytest.approx(1 / 3, abs=1e-15)
        assert p.delta == 8.0
        assert p.viable()

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ContractError):
            RiskProfile(e_profit=10.0, e_loss=5.0, rho=0.4, delta=5.0)
        with pytest.raises(ContractError):
            RiskProfile(e_profit=10.0, e_loss=5.0, rho=0.5, delta=4.0)

    def test_zero_profit_rejected(self):
        with pytest.raises(ContractError):
            RiskProfile.from_expectations(0.0, 1.0)

    def test_negative_loss_rejected(self):
        with pytest.raises(ContractError):
            RiskProfile.from_expectations(1.0, -0.5)

    def test_viability_boundary(self):
        assert RiskProfile.from_expectations(1.0, 1.0).viable()
        assert not RiskProfile.from_expectations(1.0, 1.5).viable()

    def test_from_rho_scalings(self):
        unit = RiskProfile.from_rho(0.25)
        assert unit.e_profit == 1.0 and unit.delta == 0.75
        scaled = RiskProfile.from_rho(0.25, delta=8.0)
        assert scaled.delta == pytest.approx(8.0)
        assert scaled.rho == pytest.approx(0.25)
        via_profit = RiskProfile.from_rho(0.25, e_profit=12.0)
        assert via_profit.e_loss == pytest.approx(3.0)

    def test_from_rho_overdetermined(self):
        with pytest.raises(ContractError):
            RiskProfile.from_rho(0.25, delta=8.0, e_profit=12.0)

    def test_from_rho_boundary_delta(self):
        assert RiskProfile.from_rho(1.0, delta=0.0).rho == 1.0
        with pytest.raises(ContractError):
            RiskProfile.from_rho(1.0, delta=3.0)

    def test_from_rho_negative_rejected(self):
        with pytest.raises(ContractError):
            RiskProfile.from_rho(-0.1)


class TestWakalahTerms:
    def test_valid_terms(self):
        t = WakalahTerms(r=0.05, T=2.0, k=4)
        assert (t.r, t.T, t.k) == (0.05, 2.0, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r=-0.01, T=1.0, k=1),
            dict(r=0.0, T=0.0, k=1),
            dict(r=0.0, T=-1.0, k=1),
            dict(r=0.0, T=1.0, k=0),
            dict(r=0.0, T=1.0, k=-2),
            dict(r=0.0, T=1.0, k=1.5),
            dict(r=0.0, T=1.0, k=True),
            dict(r=float("nan"), T=1.0, k=1),
            dict(r="x", T=1.0, k=1),
            dict(r=0.0, T=[1.0], k=1),
            dict(r=10**400, T=1.0, k=1),
            dict(r=0.0, T=1.0, k=10**400),
        ],
    )
    def test_rejects_bad_terms(self, kwargs):
        with pytest.raises(ContractError):
            WakalahTerms(**kwargs)


class TestContractSpec:
    def test_canonical_mudharabah_embedding(self):
        spec = ContractSpec(
            variant=Variant.CFAIR_MUDHARABAH, ratings=(1, 1), capital=(1, 0)
        )
        assert validate_spec(spec) is spec
        assert spec.capital.values == (1.0, 0.0)

    def test_mudharabah_capital_defaults(self):
        spec = ContractSpec(variant=Variant.CFAIR_MUDHARABAH, ratings=(2, 3))
        assert spec.capital.values == (1.0, 0.0)

    def test_self_managed_example(self):
        spec = ContractSpec(
            variant=Variant.MUSHARAKAH_SELF_MANAGED,
            ratings=(1, 2, 1, 4),
            capital=(0.25, 0.25, 0.25, 0.25),
        )
        assert spec.partner_count == 4

    def test_negative_rating_rejected(self):
        with pytest.raises(ContractError):
            ContractSpec(variant=Variant.CFAIR_MUDHARABAH, ratings=(1, -1))

    def test_mudharabah_needs_all_capital_from_partner_one(self):
        with pytest.raises(ContractError):
            ContractSpec(
                variant=Variant.CFAIR_MUDHARABAH, ratings=(1, 1), capital=(0.5, 0.5)
            )

    def test_fair_mudharabah_requires_equal_ratings(self):
        ContractSpec(variant=Variant.FAIR_MUDHARABAH, ratings=(2, 2))
        with pytest.raises(ContractError):
            ContractSpec(variant=Variant.FAIR_MUDHARABAH, ratings=(2, 3))

    def test_self_managed_dimension_mismatch(self):
        with pytest.raises(ContractError):
            ContractSpec(
                variant=Variant.MUSHARAKAH_SELF_MANAGED,
                ratings=(1, 1, 1),
                capital=(0.5, 0.5),
            )

    def test_external_mudharib_capital_covers_funders_only(self):
        spec = ContractSpec(
            variant=Variant.MUSHARAKAH_EXTERNAL_MUDHARIB,
            ratings=(1, 1, 1, 1),
            capital=(1 / 3, 1 / 3, 1 / 3),
        )
        assert len(spec.capital) == 3
        with pytest.raises(ContractError):
            ContractSpec(
                variant=Variant.MUSHARAKAH_EXTERNAL_MUDHARIB,
                ratings=(1, 1, 1, 1),
                capital=(0.25, 0.25, 0.25, 0.25),
            )

    def test_wakalah_requires_terms(self):
        with pytest.raises(ContractError):
            ContractSpec(
                variant=Variant.MUSHARAKAH_WAKALAH,
                ratings=(1, 1, 1),
                capital=(1.0, 0.0),
            )

    def test_terms_forbidden_elsewhere(self):
        with pytest.raises(ContractError):
            ContractSpec(
                variant=Variant.MUSHARAKAH_SELF_MANAGED,
                ratings=(1, 1),
                capital=(0.5, 0.5),
                wakalah=WakalahTerms(0.0, 1.0, 1),
            )

    def test_missing_capital_for_musharakah(self):
        with pytest.raises(ContractError):
            ContractSpec(variant=Variant.MUSHARAKAH_SELF_MANAGED, ratings=(1, 1))

    def test_wakalah_terms_must_be_wakalah_terms(self):
        with pytest.raises(ContractError, match="WakalahTerms"):
            ContractSpec(
                Variant.MUSHARAKAH_WAKALAH, (1, 1, 1), (0.5, 0.5), {"r": 0, "T": 1, "k": 2}
            )

    @pytest.mark.parametrize(
        "variant, ratings, capital, terms, kappa_eff",
        [
            (Variant.FAIR_MUDHARABAH, (2, 2), (1 - 1e-13, 1e-13), None, (1.0, 0.0)),
            (Variant.CFAIR_MUDHARABAH, (2, 5), (1.0, 1e-13), None, (1.0, 0.0)),
            (Variant.CFAIR_MUDHARABAH, (2, 5), None, None, (1.0, 0.0)),
            (Variant.MUSHARAKAH_SELF_MANAGED, (1, 2, 3), (0.2, 0.3, 0.5), None, (0.2, 0.3, 0.5)),
            (Variant.MUSHARAKAH_EXTERNAL_MUDHARIB, (1, 2, 3), (0.4, 0.6), None, (0.4, 0.6, 0.0)),
            (
                Variant.MUSHARAKAH_WAKALAH, (1, 2, 3, 4), (0.2, 0.3, 0.5),
                WakalahTerms(0.04, 2.0, 8), (0.2, 0.3, 0.5),
            ),
        ],
    )
    def test_kappa_eff_has_one_entry_per_ratio(self, variant, ratings, capital, terms, kappa_eff):
        spec = ContractSpec(variant, ratings, capital, terms)
        assert spec.kappa_eff == kappa_eff
        ratio_count = len(ratings) - 1 if variant is Variant.MUSHARAKAH_WAKALAH else len(ratings)
        assert len(spec.kappa_eff) == ratio_count

    @pytest.mark.parametrize("capital", [(1.0,), (1.0, 0.0, 0.0)])
    def test_mudharabah_capital_of_the_wrong_length(self, capital):
        with pytest.raises(ContractError, match="requires capital"):
            ContractSpec(Variant.FAIR_MUDHARABAH, (1, 1), capital)

    @pytest.mark.parametrize("ratings", [5, (10**400, 1), ("x", 1)])
    def test_unconvertible_ratings_are_contract_errors(self, ratings):
        with pytest.raises(ContractError, match="sequence of numbers"):
            ContractSpec(Variant.CFAIR_MUDHARABAH, ratings)

    def test_coercion_keeps_validated_vectors(self):
        ratings, capital = RatingVector((1.0, 2.0)), CapitalShares((0.5, 0.5))
        assert as_ratings(ratings) is ratings and as_capital(capital) is capital
        assert as_ratings([1, 2]) == ratings and as_capital([0.5, 0.5]) == capital


# ---------------------------------------------------------------------------
# Serialization round-trips (formats owned by the cli module)


@st.composite
def contract_specs(draw):
    variant = draw(st.sampled_from(list(Variant)))
    if variant in (Variant.FAIR_MUDHARABAH, Variant.CFAIR_MUDHARABAH):
        if variant is Variant.FAIR_MUDHARABAH:
            c = draw(finite_floats(0.1, 10.0))
            ratings = (c, c)
        else:
            ratings = tuple(draw(st.lists(finite_floats(0.1, 10.0), min_size=2, max_size=2)))
        return ContractSpec(variant=variant, ratings=ratings)
    d = draw(st.integers(min_value=2, max_value=6))
    ratings = tuple(draw(st.lists(finite_floats(0.1, 10.0), min_size=d, max_size=d)))
    if variant is Variant.MUSHARAKAH_SELF_MANAGED:
        capital = draw(simplex_strategy(size=d))
        return ContractSpec(variant=variant, ratings=ratings, capital=capital)
    capital = draw(simplex_strategy(size=d - 1)) if d > 2 else (1.0,)
    terms = None
    if variant is Variant.MUSHARAKAH_WAKALAH:
        terms = WakalahTerms(
            r=draw(finite_floats(0.0, 0.5)),
            T=draw(finite_floats(0.25, 10.0)),
            k=draw(st.integers(min_value=1, max_value=12)),
        )
    return ContractSpec(variant=variant, ratings=ratings, capital=capital, wakalah=terms)


@given(contract_specs())
def test_contract_round_trip(spec):
    doc = contract_to_dict(spec)
    again = contract_from_dict(json.loads(json.dumps(doc)))
    assert again == spec
