"""c-fair ratio allocation for profit-and-loss sharing contracts.

A contract between d partners is c-fair when the rated expected payoffs
c_l * Pay_l agree across all partners. For every supported structure the
resulting profit-sharing ratio decomposes the same way:

    gamma_l = weight_l * (1 - rho) + kappa_l * rho

a labour reward proportional to the investment opportunity (1 - rho) plus a
funding reward proportional to the investment risk rho. The weights are the
normalized products of all ratings except the partner's own, so a smaller
rating buys a larger share of the expected investment profit.

The variants differ only in their effective vectors (w_eff, kappa_eff),
which an :class:`AllocationPlan` builds once per contract; one affine
kernel then evaluates the plan at any rho.

All operations are pure functions; anything accepting a risk argument takes
either a :class:`~plsfair.contracts.RiskProfile` or a bare ``rho`` (which
fixes the ratios but leaves payoffs in units of the expected profit).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

from .contracts import (
    LOG_FLOAT_MAX,
    MUDHARABAH_CAPITAL,
    MUDHARABAH_VARIANTS,
    SIMPLEX_TOL,
    Allocation,
    CapitalShares,
    ContractError,
    ContractSpec,
    FloatVector,
    NonViableError,
    RatingVector,
    RiskProfile,
    Variant,
    WakalahTerms,
)

RiskLike = Union[RiskProfile, float]
Ratings = Union[RatingVector, Sequence[float]]
Capital = Union[CapitalShares, Sequence[float]]

# Beyond this many partners the rating products are computed in log space;
# below it, direct products keep the textbook examples bit-exact.
_DIRECT_PRODUCT_MAX = 16

# Direct products outside this range are subnormal, zero or too large to
# sum, and the log-space path is taken instead.
_DIRECT_PRODUCT_RANGE = (sys.float_info.min, sys.float_info.max / (2 * _DIRECT_PRODUCT_MAX))

_MUDHARABAH_SHARES = CapitalShares(MUDHARABAH_CAPITAL)


@dataclass(frozen=True)
class WeightVector(FloatVector):
    """Normalized profit-sharing weights; positive and summing to 1."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for i, v in enumerate(self.values):
            if not math.isfinite(v) or v <= 0.0:
                raise ContractError(f"weight {i + 1} must be positive, got {v}")
        total = math.fsum(self.values)
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ContractError(f"weights must sum to 1, got {total!r}")


class DominanceRegime(str, Enum):
    ALWAYS_GE = "always_ge"
    ALWAYS_LE = "always_le"
    CROSSES_AT = "crosses_at"


@dataclass(frozen=True)
class DominanceReport:
    """How the ratio gap between two partners behaves as the risk varies."""

    pair: tuple[int, int]
    regime: DominanceRegime
    crossing_rho: float | None = None
    note: str | None = None


def _as_ratings(ratings: Ratings) -> RatingVector:
    if isinstance(ratings, RatingVector):
        return ratings
    return RatingVector(tuple(ratings))


def _as_capital(capital: Capital) -> CapitalShares:
    if isinstance(capital, CapitalShares):
        return capital
    return CapitalShares(tuple(capital))


def _as_profile(risk: RiskLike) -> RiskProfile:
    profile = risk if isinstance(risk, RiskProfile) else RiskProfile.from_rho(risk)
    if not profile.viable():
        raise NonViableError(
            f"investment risk {profile.rho} exceeds 1: expected loss beats expected profit"
        )
    return profile


def sharing_weights(ratings: Ratings) -> WeightVector:
    """Weights with which the partners split the expected investment profit.

    Weight l is the product of every rating except partner l's, normalized
    across partners. The map is homogeneous of degree 0 in the ratings and
    order-reversing: the smaller a partner's rating, the larger their
    weight.
    """
    c = _as_ratings(ratings).values
    d = len(c)
    prods = []
    if d <= _DIRECT_PRODUCT_MAX:
        for leave_out in range(d):
            p = 1.0
            for i, ci in enumerate(c):
                if i != leave_out:
                    p *= ci
            prods.append(p)
    lo, hi = _DIRECT_PRODUCT_RANGE
    if not prods or not all(lo <= p <= hi for p in prods):
        logs = [math.log(ci) for ci in c]
        total = math.fsum(logs)
        shifted = [total - li for li in logs]
        peak = max(shifted)
        prods = [math.exp(s - peak) for s in shifted]
    norm = math.fsum(prods)
    return WeightVector(tuple(p / norm for p in prods))


def annuity_pv(terms: WakalahTerms) -> float:
    """Present value of k unit payments at times T/k, 2T/k, ..., T.

    Equals k when there is no discounting and (1+r)^-T for a single payment
    at maturity. The manager's total expected payoff is this factor times
    the periodic payment. Where (1+r)^(T/k) would overflow, the value is
    (1+r)^(-T/k) to double precision, and may underflow to 0.
    """
    if terms.r == 0.0:
        return float(terms.k)
    log_growth = math.log1p(terms.r)
    period = terms.T / terms.k * log_growth
    if period > LOG_FLOAT_MAX:
        return math.exp(-period)
    return -math.expm1(-terms.T * log_growth) / math.expm1(period)


def payment_factor(terms: WakalahTerms) -> float:
    """Factor turning the manager's profit share into the periodic payment.

    periodic_payment = payment_factor(terms) * weight_manager * delta. For
    r > 0 it is ((1+r)^(T/k) - 1) / ((1+r)^T - 1); at r = 0 the expression
    is 0/0 and the limit 1/k is returned, so the k undiscounted payments
    add up to exactly the manager's share of the expected profit. The
    identity annuity_pv = (1+r)^-T / payment_factor holds for r > 0. Where
    (1+r)^T would overflow, the quotient is taken in log space and may
    underflow to 0.
    """
    if terms.r == 0.0:
        return 1.0 / terms.k
    log_growth = math.log1p(terms.r)
    period, maturity = terms.T / terms.k * log_growth, terms.T * log_growth
    if maturity <= LOG_FLOAT_MAX:
        return math.expm1(period) / math.expm1(maturity)
    # log(e^x - 1) = x once e^-x is below double resolution.
    log_period = math.log(math.expm1(period)) if period <= LOG_FLOAT_MAX else period
    return math.exp(log_period - maturity)


def rated_payoff_spread(
    ratings: Sequence[float],
    kappa: Sequence[float],
    gammas: Sequence[float],
    profile: RiskProfile,
    terms: WakalahTerms | None = None,
    periodic_payment: float | None = None,
) -> float:
    """Max spread of the rated payoffs c_l * Pay_l on re-substitution.

    Without ``terms`` every partner is paid by ratio, Pay_l = gamma_l E1 -
    kappa_l E2. With them (the wakalah combination) each funder's payoff is
    discounted by (1+r)^-T and bears 1/(d-1) of the manager's remuneration
    annuity_pv * p, which is the payoff of the manager, rated last.
    """
    e_profit, e_loss = profile.e_profit, profile.e_loss
    pays = [g * e_profit - k * e_loss for g, k in zip(gammas, kappa)]
    if terms is not None:
        discount = (1.0 + terms.r) ** (-terms.T)
        manager_pay = annuity_pv(terms) * periodic_payment
        share = manager_pay / (len(ratings) - 1)
        pays = [discount * pay - share for pay in pays] + [manager_pay]
    rated = [c * pay for c, pay in zip(ratings, pays)]
    return max(rated) - min(rated)


@dataclass(frozen=True)
class AllocationPlan:
    """A contract reduced to the effective vectors of the affine kernel.

    gamma_l = w_eff_l (1 - rho) + kappa_eff_l rho, where mudharabah pins
    kappa_eff to (1, 0), an external mudharib's kappa gets a trailing 0, and
    under wakalah (``terms`` set) the d-1 funders absorb the manager's
    weight equally, w_eff_l = w_d/(d-1) + w_l, while the manager is paid a
    periodic fee. Building a plan validates the inputs and computes the
    sharing weights once; evaluating it needs only the risk.
    """

    ratings: tuple[float, ...]
    weights: tuple[float, ...]
    w_eff: tuple[float, ...]
    kappa_eff: tuple[float, ...]
    terms: WakalahTerms | None = None

    @classmethod
    def build(
        cls, ratings: Ratings, capital: Capital, terms: WakalahTerms | None = None
    ) -> AllocationPlan:
        """Plan from the capital of every partner, or with wakalah terms of the d-1 funders."""
        c = _as_ratings(ratings)
        kappa = _as_capital(capital).values
        d = len(c)
        if terms is None and len(kappa) != d:
            raise ContractError(
                f"need one capital share per partner: got {len(kappa)} shares for {d} ratings"
            )
        if terms is not None:
            _require_funders(kappa, d)
            if not isinstance(terms, WakalahTerms):
                raise ContractError(f"expected WakalahTerms, got {terms!r}")
        w = sharing_weights(c).values
        if terms is None:
            return cls(c.values, w, w, kappa)
        return cls(c.values, w, tuple(w[d - 1] / (d - 1) + wi for wi in w[: d - 1]), kappa, terms)

    @classmethod
    def for_contract(cls, spec: ContractSpec) -> AllocationPlan:
        """Plan a validated contract spec of any variant."""
        if spec.variant in MUDHARABAH_VARIANTS:
            return cls.build(spec.ratings, _MUDHARABAH_SHARES)
        if spec.variant is Variant.MUSHARAKAH_EXTERNAL_MUDHARIB:
            return cls.build(spec.ratings, spec.capital.values + (0.0,))  # the manager funds nothing
        return cls.build(spec.ratings, spec.capital, spec.wakalah)

    def gammas(self, rho: float) -> tuple[float, ...]:
        """Profit ratios at investment risk ``rho``; rho is not validated."""
        labour = 1.0 - rho
        return tuple(w * labour + k * rho for w, k in zip(self.w_eff, self.kappa_eff))

    def allocation(self, risk: RiskLike) -> Allocation:
        """Ratios, payoffs and re-substitution residual at a viable risk."""
        profile = _as_profile(risk)
        gammas = self.gammas(profile.rho)
        terms, p, discount, delta = self.terms, None, 1.0, profile.delta
        if terms is not None:
            p = payment_factor(terms) * self.weights[-1] * delta
            discount = (1.0 + terms.r) ** (-terms.T)
        return Allocation(
            gammas=gammas,
            payoffs=tuple(w * discount * delta for w in self.weights),
            residual=rated_payoff_spread(self.ratings, self.kappa_eff, gammas, profile, terms, p),
            periodic_payment=p,
            valuation="maturity" if terms is None else "present_value",
        )


def _require_funders(kappa: Sequence[float], d: int) -> None:
    if len(kappa) != d - 1:
        raise ContractError(
            f"capital covers the {d - 1} funding partners, got {len(kappa)} shares"
        )


def fair_mudharabah(risk: RiskLike) -> tuple[float, float]:
    """Ratios equalizing the funder's and the worker's expected payoffs.

    Returns (gamma_funder, gamma_worker) = ((1 + rho)/2, (1 - rho)/2). At
    rho = 1 the whole profit share goes to the funder and the worker works
    for an expected payoff of zero.
    """
    rho = _as_profile(risk).rho
    return 0.5 * (1.0 + rho), 0.5 * (1.0 - rho)


def cfair_mudharabah(ratings: Ratings, risk: RiskLike) -> Allocation:
    """Two-party allocation where the funder brings all capital.

    The funder (partner 1) absorbs losses, so their ratio carries the full
    funding reward: gamma_1 = w_1 (1 - rho) + rho, gamma_2 = w_2 (1 - rho)
    with weights (w_1, w_2) = (c_2, c_1) / (c_1 + c_2). The partners split
    the expected investment profit as (w_1, w_2).
    """
    c = _as_ratings(ratings)
    if len(c) != 2:
        raise ContractError(f"mudharabah has exactly 2 partners, got {len(c)} ratings")
    return AllocationPlan.build(c, _MUDHARABAH_SHARES).allocation(risk)


def cfair_musharakah(ratings: Ratings, capital: Capital, risk: RiskLike) -> Allocation:
    """Self-managed d-partner allocation: everyone funds, everyone manages."""
    return AllocationPlan.build(ratings, capital).allocation(risk)


def cfair_musharakah_external_mudharib(
    ratings: Ratings, capital: Capital, risk: RiskLike
) -> Allocation:
    """Allocation when the d-1 funders hire a manager paid by profit share.

    Equivalent to the self-managed contract with the manager's capital share
    pinned at zero: the manager (rated last) earns gamma_d = w_d (1 - rho)
    and shares the expected profit like everyone else.
    """
    c = _as_ratings(ratings)
    kappa = _as_capital(capital).values
    _require_funders(kappa, len(c))
    return AllocationPlan.build(c, kappa + (0.0,)).allocation(risk)


def cfair_musharakah_wakalah(
    ratings: Ratings, capital: Capital, risk: RiskLike, terms: WakalahTerms
) -> Allocation:
    """Allocation when the d-1 funders hire an agency manager for a fixed fee.

    The manager (rated last) receives a payment p, k times up to maturity,
    instead of a profit ratio; the funding partners' ratios absorb the
    manager's labour weight equally:

        gamma_l = (w_d / (d-1) + w_l) (1 - rho) + kappa_l * rho

    independent of r and k. Payoffs, the manager's included, are present
    values at time 0: weight_l * (1+r)^-T * delta, which reduces to the
    undiscounted profit split at r = 0.
    """
    if terms is None:
        raise ContractError(f"expected WakalahTerms, got {terms!r}")
    return AllocationPlan.build(ratings, capital, terms).allocation(risk)


def two_point_fair_ratio(beta: float, r_plus: float, r_minus: float, L: float) -> float:
    """Funder's fair ratio under a two-outcome revenue model.

    The project returns ``r_plus`` with probability ``beta`` and ``r_minus``
    otherwise; the funder's equal-payoff ratio is

        gamma_1 = (1 + (1 - beta)/beta * (L - r_minus)/(r_plus - L)) / 2

    which coincides with ``fair_mudharabah`` evaluated at the two-point
    scenario's investment risk.
    """
    beta = float(beta)
    if not 0.0 < beta <= 1.0:
        raise ContractError(f"success probability must lie in (0, 1], got {beta}")
    if not r_plus > L:
        raise ContractError(f"success revenue {r_plus} must exceed the capital {L}")
    if not r_minus <= L:
        raise ContractError(f"failure revenue {r_minus} cannot exceed the capital {L}")
    return 0.5 * (1.0 + (1.0 - beta) / beta * (L - r_minus) / (r_plus - L))


def dominance_threshold(
    weight_a: float,
    weight_b: float,
    kappa_a: float,
    kappa_b: float,
    pair: tuple[int, int] = (0, 1),
) -> DominanceReport:
    """Classify how gamma_a - gamma_b behaves over the whole risk range.

    The gap is affine in rho: (weight_a - weight_b)(1 - rho) +
    (kappa_a - kappa_b) rho. When the weight and capital gaps share a sign
    the ordering never flips; with opposite signs the ratios cross at

        rho* = gap_w / (gap_w - gap_k)  in (0, 1)

    and partner a leads for rho below rho* iff a out-weights b.
    """
    for name, v in (("weight_a", weight_a), ("weight_b", weight_b),
                    ("kappa_a", kappa_a), ("kappa_b", kappa_b)):
        if not math.isfinite(v) or v < 0.0 or v > 1.0:
            raise ContractError(f"{name} must lie in [0, 1], got {v}")
    gap_w = weight_a - weight_b
    gap_k = kappa_a - kappa_b
    if gap_w == 0.0 and gap_k == 0.0:
        return DominanceReport(pair, DominanceRegime.ALWAYS_GE, note="ratios identical")
    if gap_w >= 0.0 and gap_k >= 0.0:
        return DominanceReport(pair, DominanceRegime.ALWAYS_GE)
    if gap_w <= 0.0 and gap_k <= 0.0:
        return DominanceReport(pair, DominanceRegime.ALWAYS_LE)
    crossing = gap_w / (gap_w - gap_k)
    # Subnormal gaps can round the quotient onto a boundary; the crossing is
    # strictly interior in exact arithmetic, so pin it inside the unit
    # interval at float resolution.
    crossing = min(max(crossing, math.nextafter(0.0, 1.0)), math.nextafter(1.0, 0.0))
    return DominanceReport(pair, DominanceRegime.CROSSES_AT, crossing_rho=crossing)


def allocate(spec: ContractSpec, risk: RiskLike) -> Allocation:
    """Evaluate the contract's plan at the given risk."""
    return AllocationPlan.for_contract(spec).allocation(risk)
