"""Domain-type validation and serialization round-trips."""

from __future__ import annotations

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import contract_to_dict, finite_floats, ratings_strategy, simplex_strategy
from plsfair import (
    Allocation,
    AllocationPlan,
    CapitalShares,
    ContractError,
    ContractSpec,
    EmpiricalSample,
    GbmParams,
    McConfig,
    RatingVector,
    RiskProfile,
    TwoPointScenario,
    Variant,
    VerificationReport,
    WakalahTerms,
    verify_allocation,
)
from plsfair.cli import contract_from_dict


class TestRatingVector:
    def test_accepts_positive_ratings(self):
        rv = RatingVector((1, 2, 1, 4))
        assert rv == (1.0, 2.0, 1.0, 4.0)
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
        assert RatingVector(tuple(values)) == tuple(float(v) for v in values)

    @given(ratings_strategy, st.integers(min_value=0, max_value=7), finite_floats(-10.0, 0.0))
    def test_rejects_any_nonpositive_entry(self, values, pos, bad):
        values = list(values)
        values[pos % len(values)] = bad
        with pytest.raises(ContractError):
            RatingVector(tuple(values))

    def test_is_a_tuple_of_exact_floats(self):
        rv = RatingVector([1, 2.5, np.float64(3.0)])
        assert isinstance(rv, tuple)
        assert [type(v) for v in rv] == [float, float, float]

    def test_compares_and_hashes_as_a_plain_tuple(self):
        rv = RatingVector((1, 2))
        assert rv == (1.0, 2.0) and hash(rv) == hash((1.0, 2.0))
        assert {rv: "x"}[(1.0, 2.0)] == "x"
        assert repr(rv) == "(1.0, 2.0)"

    def test_a_rating_vector_is_returned_unchanged(self):
        rv = RatingVector((1.0, 2.0))
        assert RatingVector(rv) is rv

    def test_attributes_cannot_be_set(self):
        rv = RatingVector((1.0, 2.0))
        with pytest.raises(AttributeError):
            rv.values = (3.0, 4.0)

    @pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy])
    def test_pickle_and_deepcopy_keep_the_type(self, clone):
        rv = RatingVector((1.0, 2.0))
        again = clone(rv)
        assert type(again) is RatingVector and again == rv


class TestCapitalShares:
    def test_accepts_simplex(self):
        ks = CapitalShares((0.125, 0.375, 0.125, 0.375))
        assert math.isclose(sum(ks), 1.0)

    def test_accepts_degenerate_mudharabah_split(self):
        assert CapitalShares((1.0, 0.0)) == (1.0, 0.0)

    @pytest.mark.parametrize(
        "values",
        [(), (0.5, 0.6), (0.5, 0.4), (-0.1, 1.1), (0.5, 0.5, 0.1), (1.2, -0.2), (1 / 65,) * 65],
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

    def test_is_a_tuple_of_exact_floats(self):
        ks = CapitalShares([1, np.float64(0.0)])
        assert isinstance(ks, tuple)
        assert [type(v) for v in ks] == [float, float]

    def test_compares_and_hashes_as_a_plain_tuple(self):
        ks = CapitalShares((0.25, 0.75))
        assert ks == (0.25, 0.75) and hash(ks) == hash((0.25, 0.75))
        # Only the values count: ratings and capital with equal entries compare equal.
        assert CapitalShares((0.5, 0.5)) == RatingVector((0.5, 0.5))

    def test_capital_shares_are_returned_unchanged(self):
        ks = CapitalShares((0.25, 0.75))
        assert CapitalShares(ks) is ks

    def test_attributes_cannot_be_set(self):
        ks = CapitalShares((0.25, 0.75))
        with pytest.raises(AttributeError):
            ks.values = (0.5, 0.5)

    @pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy])
    def test_pickle_and_deepcopy_keep_the_type(self, clone):
        ks = CapitalShares((0.25, 0.75))
        again = clone(ks)
        assert type(again) is CapitalShares and again == ks


class TestRiskProfile:
    def test_expectations_derive_identities(self):
        p = RiskProfile(12.0, 4.0)
        assert p.rho == pytest.approx(1 / 3, abs=1e-15)
        assert p.delta == 8.0
        assert p.viable()

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ContractError):
            RiskProfile(10.0, 5.0, delta=4.0)

    def test_rho_is_derived_and_delta_is_keyword_only(self):
        # a stored rho could disagree with e_loss / e_profit; a positional
        # third argument would be read as delta
        with pytest.raises(TypeError):
            RiskProfile(10.0, 5.0, rho=0.5)
        with pytest.raises(TypeError):
            RiskProfile(10.0, 5.0, 5.0)
        with pytest.raises(AttributeError):
            RiskProfile(10.0, 5.0).rho = 0.25

    def test_nan_delta_is_inconsistent(self):
        with pytest.raises(ContractError, match="delta is inconsistent"):
            RiskProfile(10.0, 5.0, delta=math.nan)

    def test_overflowing_ratio_rejected(self):
        with pytest.raises(ContractError, match="overflows"):
            RiskProfile(1e-310, 1e10)

    def test_zero_profit_rejected(self):
        with pytest.raises(ContractError):
            RiskProfile(0.0, 1.0)

    def test_infinite_profit_is_named_as_not_finite(self):
        with pytest.raises(ContractError, match="^expected profit must be finite, got inf$"):
            RiskProfile(math.inf, 1.0)

    def test_negative_loss_rejected(self):
        with pytest.raises(ContractError):
            RiskProfile(1.0, -0.5)

    def test_viability_boundary(self):
        assert RiskProfile(1.0, 1.0).viable()
        assert not RiskProfile(1.0, 1.5).viable()

    def test_from_rho_scalings(self):
        unit = RiskProfile.from_rho(0.25)
        assert unit.e_profit == 1.0 and unit.delta == 0.75
        scaled = RiskProfile.from_rho(0.25, delta=8.0)
        assert scaled.delta == pytest.approx(8.0)
        assert scaled.rho == pytest.approx(0.25)
        via_profit = RiskProfile.from_rho(0.25, e_profit=12.0)
        assert via_profit.e_loss == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "rho, scale, message",
        [
            (0.999999999999, {"delta": 1e300},
             "delta / (1 - rho) is out of the float range at rho = 0.999999999999, delta = 1e+300"),
            (2.0, {"delta": -1.7e308}, "rho * e_profit is out of the float range at rho = 2.0, delta = -1.7e+308"),
            (2.0, {"e_profit": 1e308}, "rho * e_profit is out of the float range at rho = 2.0, e_profit = 1e+308"),
            (10**400, {}, "rho is out of the float range"),
            (0.5, {"delta": 10**400}, "delta is out of the float range"),
            (0.5, {"e_profit": -(10**400)}, "e_profit is out of the float range"),
        ],
    )
    def test_from_rho_names_an_overflow(self, rho, scale, message):
        with pytest.raises(ContractError) as info:
            RiskProfile.from_rho(rho, **scale)
        assert str(info.value) == message

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
        assert spec.capital == (1.0, 0.0)

    def test_mudharabah_capital_defaults(self):
        spec = ContractSpec(variant=Variant.CFAIR_MUDHARABAH, ratings=(2, 3))
        assert spec.capital == (1.0, 0.0)

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

    @pytest.mark.parametrize("variant", [Variant.FAIR_MUDHARABAH, Variant.CFAIR_MUDHARABAH])
    @pytest.mark.parametrize("capital", [(1 - 1e-13, 1e-13), (1.0, 1e-13), (1.0, 0.0), None])
    def test_mudharabah_capital_is_stored_as_exactly_one_and_zero(self, variant, capital):
        spec = ContractSpec(variant, (2, 2), capital)
        assert spec.capital == spec.kappa_eff == (1.0, 0.0)

    @pytest.mark.parametrize("capital", [(1.0,), (1.0, 0.0, 0.0)])
    def test_mudharabah_capital_of_the_wrong_length(self, capital):
        with pytest.raises(ContractError, match="requires capital"):
            ContractSpec(Variant.FAIR_MUDHARABAH, (1, 1), capital)

    @pytest.mark.parametrize(
        "ratings, message",
        [
            (5, "expected a sequence of numbers, got int"),
            ((10**400, 1), "rating 1 is out of the float range"),
            (("x", 1), "rating 1 must be a number, got 'x'"),
        ],
    )
    def test_unconvertible_ratings_are_contract_errors(self, ratings, message):
        with pytest.raises(ContractError) as caught:
            ContractSpec(Variant.CFAIR_MUDHARABAH, ratings)
        assert str(caught.value) == message

    def test_coercion_keeps_validated_vectors(self):
        ratings, capital = RatingVector((1.0, 2.0)), CapitalShares((0.5, 0.5))
        assert RatingVector(ratings) is ratings and CapitalShares(capital) is capital
        assert RatingVector([1, 2]) == ratings and CapitalShares([0.5, 0.5]) == capital


_TERMS = WakalahTerms(0.05, 2.0, 4)
_SPEC = ContractSpec(Variant.MUSHARAKAH_WAKALAH, (1, 2, 3), (0.25, 0.75), _TERMS)
RECORDS = [
    RiskProfile(12.0, 4.0, se_rho=0.1),
    _TERMS,
    _SPEC,
    Allocation(gammas=(0.6, 0.4), payoffs=(3.0, 2.0), periodic_payment=1.5),
    GbmParams(0.1, 0.2, 1.0, 100.0),
    TwoPointScenario(0.6, 120.0, 90.0, 100.0),
    EmpiricalSample((120.0, 90.0), 100.0),
    McConfig(1000, seed=3),
    AllocationPlan.for_contract(_SPEC),
    VerificationReport(1e-12, 0.0, True),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_survive_pickle_and_copy_and_are_frozen(record):
    for clone in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        again = clone(record)
        assert type(again) is type(record)
        if isinstance(record, EmpiricalSample):  # compared by identity: check the draws instead
            assert again.draws.tolist() == record.draws.tolist() and again.L == record.L
        else:
            assert again == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


# ---------------------------------------------------------------------------
# One number rule for every numeric field and entry


_PROFILE = RiskProfile(2.0, 1.0)
#: Each numeric field or vector entry of the records: (its name in an error, a build that
#: puts a value there, whether None there means the field is not given).
NUMERIC_FIELDS = [
    ("mu", lambda v: GbmParams(v, 0.2, 1.0, 100.0), False),
    ("sigma", lambda v: GbmParams(0.1, v, 1.0, 100.0), False),
    ("T", lambda v: GbmParams(0.1, 0.2, v, 100.0), False),
    ("L", lambda v: GbmParams(0.1, 0.2, 1.0, v), False),
    ("beta", lambda v: TwoPointScenario(v, 120.0, 90.0, 100.0), False),
    ("r_plus", lambda v: TwoPointScenario(0.5, v, 90.0, 100.0), False),
    ("r_minus", lambda v: TwoPointScenario(0.5, 120.0, v, 100.0), False),
    ("L", lambda v: TwoPointScenario(0.5, 120.0, 90.0, v), False),
    ("L", lambda v: EmpiricalSample((120.0, 90.0), v), False),
    ("e_profit", lambda v: RiskProfile(v, 1.0), False),
    ("e_loss", lambda v: RiskProfile(2.0, v), False),
    ("delta", lambda v: RiskProfile(2.0, 1.0, delta=v), True),
    ("rho", lambda v: RiskProfile.from_rho(v), False),
    ("delta", lambda v: RiskProfile.from_rho(0.3, delta=v), True),
    ("e_profit", lambda v: RiskProfile.from_rho(0.3, e_profit=v), True),
    ("r", lambda v: WakalahTerms(v, 2.0, 4), False),
    ("T", lambda v: WakalahTerms(0.05, v, 4), False),
    ("tol", lambda v: verify_allocation(Allocation(gammas=(0.5, 0.5), payoffs=()), _SPEC, _PROFILE, v), False),
    ("rating 2", lambda v: RatingVector((2.0, v)), False),
    ("capital share 2", lambda v: CapitalShares((0.5, v)), False),
    ("gamma 2", lambda v: Allocation(gammas=(0.5, v), payoffs=()), False),
    ("payoff 2", lambda v: Allocation(gammas=(), payoffs=(1.0, v)), False),
    ("periodic_payment", lambda v: Allocation(gammas=(), payoffs=(), periodic_payment=v), True),
]


_NOT_NUMBERS = {"str": "0.5", "bool": True, "numpy-bool": np.True_, "None": None, "list": [1.0],
                "huge-int": 10**400}


@pytest.mark.parametrize("name, build, value", [
    pytest.param(name, build, value, id=f"{i}-{name}-{kind}")
    for i, (name, build, optional) in enumerate(NUMERIC_FIELDS)
    for kind, value in _NOT_NUMBERS.items()
    if not (optional and value is None)  # None leaves an optional field out
])
def test_every_numeric_field_holds_one_number_rule(name, build, value):
    with pytest.raises(ContractError) as caught:
        build(value)
    rule = "is out of the float range" if type(value) is int else f"must be a number, got {value!r}"
    assert str(caught.value) == f"{name} {rule}"


@pytest.mark.parametrize("cls, what", [(RatingVector, "rating"), (CapitalShares, "capital share")])
def test_a_numpy_bool_array_is_no_vector_of_numbers(cls, what):
    with pytest.raises(ContractError, match=f"^{what} 1 must be a number, got "):
        cls(np.array([True, False]))


@pytest.mark.parametrize("cls", [RatingVector, CapitalShares])
@pytest.mark.parametrize("values", [10**400, 0.5, object()], ids=["huge-int", "float", "object"])
def test_a_non_sequence_is_named_by_its_type(cls, values):
    with pytest.raises(ContractError) as caught:
        cls(values)
    assert str(caught.value) == f"expected a sequence of numbers, got {type(values).__name__}"
    assert len(str(caught.value)) < 100


def test_integer_fields_are_stored_as_floats_and_never_as_bools():
    profile = RiskProfile(2, 1, delta=1)
    assert all(type(v) is float for v in profile[:3])
    terms = WakalahTerms(0, 2, 4)
    assert type(terms.r) is float and type(terms.T) is float
    assert type(Allocation(gammas=(1, 0), payoffs=(), periodic_payment=3).periodic_payment) is float
    with pytest.raises(ContractError, match="^e_profit must be a number, got True$"):
        RiskProfile(True, False)


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
