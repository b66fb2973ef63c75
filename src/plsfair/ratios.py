"""c-fair ratio allocation for profit-and-loss sharing contracts.

A contract between d partners is c-fair when the rated expected payoffs
c_l * Pay_l agree across all partners. For every supported structure the
resulting profit-sharing ratio decomposes the same way:

    gamma_l = weight_l * (1 - rho) + kappa_l * rho

a labour reward proportional to the investment opportunity (1 - rho) plus a
funding reward proportional to the investment risk rho. The weights are the
normalized products of all ratings except the partner's own, or equally the
normalized reciprocal ratings, weight_l = (1/c_l) / sum_j (1/c_j), so a
smaller rating buys a larger share of the expected investment profit.
:func:`sharing_weights` returns them as a plain tuple; its one error is a
weight that underflows to zero.

The variants differ only in their effective vectors (w_eff, kappa_eff).
A :class:`~plsfair.contracts.ContractSpec` validates a contract's shape;
:meth:`AllocationPlan.for_contract` turns it into those vectors once, and
one affine kernel then evaluates the plan at any rho. ``allocate`` and every
``cfair_*`` function reduce to that plan.

All operations are pure functions; anything accepting a risk argument takes
either a :class:`~plsfair.contracts.RiskProfile` or a bare ``rho`` (which
fixes the ratios but leaves payoffs in units of the expected profit).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum
from typing import Union

from .contracts import (
    LOG_FLOAT_MAX,
    Allocation,
    Capital,
    ContractError,
    ContractSpec,
    NonViableError,
    RatingVector,
    Ratings,
    RiskProfile,
    Variant,
    WakalahTerms,
)
from .risk import TwoPointScenario, two_point_profile

RiskLike = Union[RiskProfile, float]


class DominanceRegime(str, Enum):
    ALWAYS_GE = "always_ge"
    ALWAYS_LE = "always_le"
    CROSSES_AT = "crosses_at"


class DominanceReport(namedtuple("DominanceReport", "pair regime crossing_rho note", defaults=(None, None))):
    """How the ratio gap between two partners behaves as the risk varies."""

    __slots__ = ()


def _as_profile(risk: RiskLike) -> RiskProfile:
    profile = risk if isinstance(risk, RiskProfile) else RiskProfile.from_rho(risk)
    if not profile.viable():
        raise NonViableError(
            f"investment risk {profile.rho} exceeds 1: expected loss beats expected profit"
        )
    return profile


def sharing_weights(ratings: Ratings) -> tuple[float, ...]:
    """Weights with which the partners split the expected investment profit.

    Weight l is the product of every rating except partner l's, normalized:
    prod_{i != l} c_i / sum_j prod_{i != j} c_i = (1/c_l) / sum_j (1/c_j).
    It is formed as u_l = min(c) / c_l in (0, 1] over fsum(u), three
    roundings (about 4.4e-16 relative) that cannot overflow, so the plain
    tuple returned sums to 1 within d ulp. The one error: a rating spread
    beyond the float range underflows to a zero weight, which is rejected.
    The smaller a partner's rating, the larger their weight.
    """
    c = RatingVector(ratings)
    smallest = min(c)
    u = [smallest / ci for ci in c]
    norm = math.fsum(u)
    w = tuple(ul / norm for ul in u)
    if 0.0 in w:
        raise ContractError(f"weight {w.index(0.0) + 1} must be positive, got 0.0")
    return w


def annuity_pv(terms: WakalahTerms) -> float:
    """Present value of k unit payments at times T/k, 2T/k, ..., T.

    Equals k when there is no discounting and (1+r)^-T for a single payment
    at maturity. The manager's total expected payoff is this factor times
    the periodic payment. Where (1+r)^(T/k) would overflow, the value is
    (1+r)^(-T/k) to double precision, and may underflow to 0.
    """
    log_growth = math.log1p(terms.r)
    period, maturity = terms.T / terms.k * log_growth, terms.T * log_growth
    if period < sys.float_info.min:
        # e^period - 1 is period = maturity / k itself, and may be subnormal or 0.
        return terms.k * (-math.expm1(-maturity) / maturity) if maturity else float(terms.k)
    if period > LOG_FLOAT_MAX:
        return math.exp(-period)
    return -math.expm1(-maturity) / math.expm1(period)


def discount_factor(terms: WakalahTerms) -> float:
    """(1+r)^-T, the factor discounting a maturity payoff to time 0; may underflow to 0."""
    return (1.0 + terms.r) ** (-terms.T)


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
    log_growth = math.log1p(terms.r)
    period, maturity = terms.T / terms.k * log_growth, terms.T * log_growth
    if period < sys.float_info.min:
        # e^period - 1 is period = maturity / k itself, and may be subnormal or 0.
        return (maturity / math.expm1(maturity) if maturity else 1.0) / terms.k
    if maturity <= LOG_FLOAT_MAX:
        return math.expm1(period) / math.expm1(maturity)
    # log(e^x - 1) = x once e^-x is below double resolution.
    log_period = math.log(math.expm1(period)) if period <= LOG_FLOAT_MAX else period
    return math.exp(log_period - maturity)


class AllocationPlan(namedtuple("AllocationPlan", "weights w_eff kappa_eff terms", defaults=(None,))):
    """A contract reduced to the effective vectors of the affine kernel.

    gamma_l = w_eff_l (1 - rho) + kappa_eff_l rho, where kappa_eff is the
    spec's :attr:`~plsfair.contracts.ContractSpec.kappa_eff` and under
    wakalah (``terms`` set) the d-1 funders absorb the manager's weight
    equally, w_eff_l = w_d/(d-1) + w_l, while the manager is paid a periodic
    fee. The spec has already validated the contract's shape; the plan
    computes the sharing weights once, and evaluating it needs only the risk.
    """

    __slots__ = ()

    @classmethod
    def for_contract(cls, spec: ContractSpec) -> AllocationPlan:
        """Plan a contract spec of any variant."""
        kappa, terms = spec.kappa_eff, spec.wakalah
        w = sharing_weights(spec.ratings)
        if terms is not None:  # the manager's weight goes to the funders, who hold every ratio
            return cls(w, tuple(w[-1] / len(kappa) + wi for wi in w[:-1]), kappa, terms)
        return cls(w, w, kappa)

    def gammas(self, rho: float) -> tuple[float, ...]:
        """Profit ratios at investment risk ``rho``; rho is not validated."""
        labour = 1.0 - rho
        return tuple(w * labour + k * rho for w, k in zip(self.w_eff, self.kappa_eff))

    def allocation(self, risk: RiskLike) -> Allocation:
        """Ratios, payoffs and, under wakalah, the periodic payment at a viable risk."""
        profile = _as_profile(risk)
        gammas = self.gammas(profile.rho)
        terms, p, discount, delta = self.terms, None, 1.0, profile.delta
        if terms is not None:
            p = payment_factor(terms) * self.weights[-1] * delta
            discount = discount_factor(terms)
        return Allocation(
            gammas=gammas,
            payoffs=tuple(w * discount * delta for w in self.weights),
            periodic_payment=p,
        )


def fair_mudharabah(risk: RiskLike) -> tuple[float, float]:
    """Ratios equalizing the funder's and the worker's expected payoffs.

    Returns (gamma_funder, gamma_worker) = ((1 + rho)/2, (1 - rho)/2), the
    c-fair mudharabah at equal ratings. At rho = 1 the whole profit share
    goes to the funder and the worker works for an expected payoff of zero.
    """
    return allocate(ContractSpec(Variant.FAIR_MUDHARABAH, (1.0, 1.0)), risk).gammas


def cfair_mudharabah(ratings: Ratings, risk: RiskLike) -> Allocation:
    """Two-party allocation where the funder brings all capital.

    The funder (partner 1) absorbs losses, so their ratio carries the full
    funding reward: gamma_1 = w_1 (1 - rho) + rho, gamma_2 = w_2 (1 - rho)
    with weights (w_1, w_2) = (c_2, c_1) / (c_1 + c_2). The partners split
    the expected investment profit as (w_1, w_2).
    """
    return allocate(ContractSpec(Variant.CFAIR_MUDHARABAH, ratings), risk)


def cfair_musharakah(ratings: Ratings, capital: Capital, risk: RiskLike) -> Allocation:
    """Self-managed d-partner allocation: everyone funds, everyone manages."""
    return allocate(ContractSpec(Variant.MUSHARAKAH_SELF_MANAGED, ratings, capital), risk)


def cfair_musharakah_external_mudharib(
    ratings: Ratings, capital: Capital, risk: RiskLike
) -> Allocation:
    """Allocation when the d-1 funders hire a manager paid by profit share.

    Equivalent to the self-managed contract with the manager's capital share
    pinned at zero: the manager (rated last) earns gamma_d = w_d (1 - rho)
    and shares the expected profit like everyone else.
    """
    return allocate(ContractSpec(Variant.MUSHARAKAH_EXTERNAL_MUDHARIB, ratings, capital), risk)


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
    return allocate(ContractSpec(Variant.MUSHARAKAH_WAKALAH, ratings, capital, terms), risk)


def two_point_fair_ratio(beta: float, r_plus: float, r_minus: float, L: float) -> float:
    """Funder's fair ratio under a two-outcome revenue model.

    The project returns ``r_plus`` with probability ``beta`` and ``r_minus``
    otherwise; the funder's equal-payoff ratio is

        gamma_1 = (1 + (1 - beta)/beta * (L - r_minus)/(r_plus - L)) / 2

    which is ``fair_mudharabah`` evaluated at the two-point scenario's
    investment risk, and is computed that way. A scenario whose risk
    exceeds 1 raises :class:`NonViableError`.
    """
    return fair_mudharabah(two_point_profile(TwoPointScenario(float(beta), r_plus, r_minus, L)))[0]


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
