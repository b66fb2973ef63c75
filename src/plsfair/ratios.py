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
``cfair_*`` function reduce to that plan, and ``plan.crossing(a, b)`` gives
the risk at which two partners' ratios swap order, labour against capital.

All operations are pure functions; anything accepting a risk argument takes
either a :class:`~plsfair.contracts.RiskProfile` or a bare ``rho`` (which
fixes the ratios but leaves payoffs in units of the expected profit).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence

from .contracts import (
    Allocation,
    ContractError,
    ContractSpec,
    NonViableError,
    RatingVector,
    RiskProfile,
    Variant,
    WakalahTerms,
)
from .risk import TwoPointScenario, two_point_profile


def _as_profile(risk: RiskProfile | float) -> RiskProfile:
    profile = risk if isinstance(risk, RiskProfile) else RiskProfile.from_rho(risk)
    if not profile.viable():
        raise NonViableError(
            f"investment risk {profile.rho} exceeds 1: expected loss beats expected profit"
        )
    return profile


def sharing_weights(ratings: Sequence[float]) -> tuple[float, ...]:
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


def _log_growth(terms: WakalahTerms) -> tuple[float, float]:
    """(period, maturity) = (T/k, T) * log1p(r): the exponents of (1+r)^(T/k) and (1+r)^T."""
    log_growth = math.log1p(terms.r)
    return terms.T / terms.k * log_growth, terms.T * log_growth


def annuity_pv(terms: WakalahTerms) -> float:
    """Present value of k unit payments at times T/k, 2T/k, ..., T.

    Equals k when there is no discounting and (1+r)^-T for a single payment
    at maturity. The manager's total expected payoff is this factor times
    the periodic payment. It is e^-P (1 - e^-M) / (1 - e^-P) with
    (P, M) = (T/k, T) log1p(r): negative exponents only, so it may
    underflow to 0 but never overflows.
    """
    period, maturity = _log_growth(terms)
    if period < sys.float_info.min:
        # 1 - e^-period is period = maturity / k itself, and may be subnormal or 0.
        return terms.k * (-math.expm1(-maturity) / maturity) if maturity else float(terms.k)
    return math.exp(-period) * math.expm1(-maturity) / math.expm1(-period)


def discount_factor(terms: WakalahTerms) -> float:
    """(1+r)^-T as e^(-T log1p(r)), the factor discounting a maturity payoff to time 0;
    with a negative exponent it may underflow to 0 but never overflows."""
    return math.exp(-_log_growth(terms)[1])


def payment_factor(terms: WakalahTerms) -> float:
    """Factor turning the manager's profit share into the periodic payment.

    periodic_payment = payment_factor(terms) * weight_manager * delta. For
    r > 0 it is ((1+r)^(T/k) - 1) / ((1+r)^T - 1), evaluated as
    e^(P - M) (1 - e^-P) / (1 - e^-M) with (P, M) = (T/k, T) log1p(r):
    negative exponents only, so it may underflow to 0 but never overflows.
    At r = 0 the expression is 0/0 and the limit 1/k is returned, so the k
    undiscounted payments add up to exactly the manager's share of the
    expected profit. Where P itself overflows, e^(P - M) is inf - inf and
    the limit is returned: 1 for a single payment, and 0 for k > 1. The
    identity annuity_pv = (1+r)^-T / payment_factor holds for r > 0.
    """
    period, maturity = _log_growth(terms)
    if period < sys.float_info.min:
        # 1 - e^-period is period = maturity / k itself, and may be subnormal or 0.
        return (maturity / math.expm1(maturity) if maturity else 1.0) / terms.k
    if math.isinf(period):
        return 1.0 if terms.k == 1 else 0.0
    return math.exp(period - maturity) * math.expm1(-period) / math.expm1(-maturity)


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

    def crossing(self, a: int, b: int) -> float | None:
        """The investment risk rho* in (0, 1) where ratio holders a and b swap order.

        ``a`` and ``b`` are 0-based positions in ``w_eff`` (under wakalah, the
        d-1 funders). gamma_a - gamma_b = gap_w (1 - rho) + gap_k rho is affine
        in rho, so it changes sign at most once: at rho* = gap_w / (gap_w - gap_k)
        when the weight and capital gaps have opposite signs, with a ahead
        below rho* iff gap_w > 0. Any other pair of gaps, a == b among them,
        gives None.
        """
        d = len(self.w_eff)  # a bool is not a position here, as for WakalahTerms.k
        if not all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < d for i in (a, b)):
            raise ContractError(f"partners a and b must be integer positions in range({d})")
        gap_w = self.w_eff[a] - self.w_eff[b]
        gap_k = self.kappa_eff[a] - self.kappa_eff[b]
        if not (gap_w > 0.0 > gap_k or gap_w < 0.0 < gap_k):  # signs: a product of subnormals is 0
            return None
        # rho* is strictly inside (0, 1), but where one gap is far smaller than
        # the other the quotient can round onto 0 or 1, so it is pinned inside.
        return min(max(gap_w / (gap_w - gap_k), math.nextafter(0.0, 1.0)), math.nextafter(1.0, 0.0))

    def allocation(self, risk: RiskProfile | float) -> Allocation:
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


def fair_mudharabah(risk: RiskProfile | float) -> tuple[float, float]:
    """Ratios equalizing the funder's and the worker's expected payoffs.

    Returns (gamma_funder, gamma_worker) = ((1 + rho)/2, (1 - rho)/2), the
    c-fair mudharabah at equal ratings. At rho = 1 the whole profit share
    goes to the funder and the worker works for an expected payoff of zero.
    """
    return allocate(ContractSpec(Variant.FAIR_MUDHARABAH, (1.0, 1.0)), risk).gammas


def cfair_mudharabah(ratings: Sequence[float], risk: RiskProfile | float) -> Allocation:
    """Two-party allocation where the funder brings all capital.

    The funder (partner 1) absorbs losses, so their ratio carries the full
    funding reward: gamma_1 = w_1 (1 - rho) + rho, gamma_2 = w_2 (1 - rho)
    with weights (w_1, w_2) = (c_2, c_1) / (c_1 + c_2). The partners split
    the expected investment profit as (w_1, w_2).
    """
    return allocate(ContractSpec(Variant.CFAIR_MUDHARABAH, ratings), risk)


def cfair_musharakah(
    ratings: Sequence[float], capital: Sequence[float], risk: RiskProfile | float
) -> Allocation:
    """Self-managed d-partner allocation: everyone funds, everyone manages."""
    return allocate(ContractSpec(Variant.MUSHARAKAH_SELF_MANAGED, ratings, capital), risk)


def cfair_musharakah_external_mudharib(
    ratings: Sequence[float], capital: Sequence[float], risk: RiskProfile | float
) -> Allocation:
    """Allocation when the d-1 funders hire a manager paid by profit share.

    Equivalent to the self-managed contract with the manager's capital share
    pinned at zero: the manager (rated last) earns gamma_d = w_d (1 - rho)
    and shares the expected profit like everyone else.
    """
    return allocate(ContractSpec(Variant.MUSHARAKAH_EXTERNAL_MUDHARIB, ratings, capital), risk)


def cfair_musharakah_wakalah(
    ratings: Sequence[float], capital: Sequence[float], risk: RiskProfile | float, terms: WakalahTerms
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
    return fair_mudharabah(two_point_profile(TwoPointScenario(beta, r_plus, r_minus, L)))[0]


def allocate(spec: ContractSpec, risk: RiskProfile | float) -> Allocation:
    """Evaluate the contract's plan at the given risk."""
    return AllocationPlan.for_contract(spec).allocation(risk)
