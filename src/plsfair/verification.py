"""Independent verification of allocations.

Instead of trusting the closed forms, this module assembles the raw
rated-payoff equality systems as dense linear systems and solves them with
Gaussian elimination, and checks any candidate allocation by substituting it
back into the defining equations. The elimination is pure Python over lists
of floats with partial pivoting, so verification never loads numpy. Each
pairwise musharakah row is written against the lowest-rated partner and
divided through by its own rated expected profit, so every coefficient lies
in [-1, 1] beside the unit row sum(gamma) = 1 and partial pivoting never
weighs rows of very different size, however far the ratings spread. The
wakalah system is built from the payoff definitions (discounted partner
payoffs, annuity-valued manager remuneration), so it adjudicates the
periodic-payment convention rather than assuming it; each funder's row is
divided through by its own discounted rated expected profit in the same way.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .contracts import (
    Allocation,
    ContractError,
    ContractSpec,
    RiskProfile,
    Variant,
    WakalahTerms,
    _as_float,
)
from .ratios import annuity_pv, discount_factor

#: Default relative tolerance of :func:`verify_allocation`.
DEFAULT_TOL = 1e-9


class VerificationReport(namedtuple("VerificationReport", "max_fairness_residual simplex_residual passed")):
    """Residuals of a candidate allocation against the fairness equations.

    ``max_fairness_residual`` is the spread of the rated payoffs in currency
    units; ``simplex_residual`` is |sum(gamma) - 1|. The check passes when
    the fairness residual is at most tol * max(ratings) * e_profit (a
    relative criterion, so currency scale does not matter) and the simplex
    residual is at most tol.
    """

    __slots__ = ()


def gauss_solve(matrix: Sequence[Sequence[float]], rhs: Sequence[float]) -> list[float]:
    """Solve a small dense system by Gaussian elimination with partial pivoting.

    ``matrix`` is any sequence of rows (nested lists, or a 2-D numpy array)
    and is copied into lists of floats; rows whose entry in the pivot column
    is already zero are skipped, which keeps the sparse fairness systems cheap.
    A solution that is not finite is a :class:`ContractError`.
    """
    try:
        b = [float(v) for v in rhs]
        a = [[float(v) for v in row] for row in matrix]
    except (TypeError, ValueError, OverflowError):  # OverflowError: an integer beyond the float range
        raise ContractError("matrix must be rows of numbers and rhs numbers, within the float range") from None
    n = len(b)
    if len(a) != n or any(len(row) != n for row in a):
        width = len(a[0]) if a else 0
        raise ContractError(f"matrix shape {(len(a), width)} does not match rhs length {n}")
    for col in range(n):
        pivot = max(range(col, n), key=lambda row: abs(a[row][col]))
        if a[pivot][col] == 0.0:
            raise ContractError("singular fairness system (impossible for positive ratings)")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        head = a[col][col:]
        for row in range(col + 1, n):
            factor = a[row][col]
            if factor != 0.0:
                lam = factor / head[0]
                a[row][col:] = [x - lam * y for x, y in zip(a[row][col:], head)]
                b[row] -= lam * b[col]
    x = [0.0] * n
    try:
        for row in range(n - 1, -1, -1):
            tail = math.fsum(a[row][k] * x[k] for k in range(row + 1, n))
            x[row] = (b[row] - tail) / a[row][row]
    except (ValueError, OverflowError):  # fsum meets inf - inf, or a partial sum beyond the float range
        x = [math.nan]
    if not all(map(math.isfinite, x)):
        raise ContractError("the system has no finite solution: an entry is not finite, or the elimination overflows")
    return x


def _nonzero_discount(terms: WakalahTerms) -> float:
    """(1+r)^-T, rejected where it underflows to 0 and every funder's payoff vanishes."""
    discount = discount_factor(terms)
    if discount == 0.0:
        raise ContractError(
            f"discount (1+r)^-T underflows to 0 at r = {terms.r}, T = {terms.T}: "
            "every funder's payoff vanishes and the wakalah system has no unique solution"
        )
    return discount


def musharakah_system(
    ratings: Sequence[float], capital: Sequence[float], e_profit: float, e_loss: float
) -> tuple[list[list[float]], list[float]]:
    """Stack the d-1 pairwise rated-payoff equalities plus sum(gamma) = 1,
    as ``(rows, rhs)`` in the unknowns gamma_1..gamma_d.

    Each partner j other than the lowest-rated partner m gets the row
    c_j (gamma_j E1 - kappa_j E2) = c_m (gamma_m E1 - kappa_m E2), divided
    by c_j E1: gamma_j - (c_m/c_j) gamma_m = (kappa_j - (c_m/c_j) kappa_m) E2/E1.
    """
    spec = ContractSpec(Variant.MUSHARAKAH_SELF_MANAGED, ratings, capital)
    rho = RiskProfile(e_profit, e_loss).rho
    c, kappa = spec.ratings, spec.capital
    d = len(c)
    m = c.index(min(c))
    rows, rhs = [], []
    for j in range(d):
        if j != m:
            ratio = c[m] / c[j]
            row = [0.0] * d
            row[j], row[m] = 1.0, -ratio
            rows.append(row)
            rhs.append((kappa[j] - ratio * kappa[m]) * rho)
    rows.append([1.0] * d)
    rhs.append(1.0)
    return rows, rhs


def solve_fairness_system(
    ratings: Sequence[float], capital: Sequence[float], e_profit: float, e_loss: float
) -> tuple[float, ...]:
    """Profit ratios equalizing the rated payoffs, by direct linear solve."""
    return tuple(gauss_solve(*musharakah_system(ratings, capital, e_profit, e_loss)))


def wakalah_system(
    ratings: Sequence[float],
    capital: Sequence[float],
    e_profit: float,
    e_loss: float,
    terms: WakalahTerms,
) -> tuple[list[list[float]], list[float]]:
    """Stack the wakalah fairness equations as ``(rows, rhs)`` in the
    unknowns (gamma_1..gamma_{d-1}, q), where q = annuity_pv p / ((1+r)^-T E1)
    is the manager's payoff in units of the discounted expected profit.

    Funding partner l's discounted payoff is
    (1+r)^-T (gamma_l E1 - kappa_l E2) - annuity_pv * p / (d-1); the
    manager's is annuity_pv * p. Each rated partner payoff is equated to the
    manager's rated payoff and divided by the partner's own c_l (1+r)^-T E1:
    gamma_l - (1/(d-1) + c_d/c_l) q = kappa_l E2/E1. The gammas sum to 1.
    No coefficient depends on the currency scale or the discount, so none
    overflows however large c_l (1+r)^-T E1 is; a ratio c_d/c_l beyond the
    float range, where the closed form's weights underflow too, is an error.
    """
    spec = ContractSpec(Variant.MUSHARAKAH_WAKALAH, ratings, capital, terms)
    rho = RiskProfile(e_profit, e_loss).rho
    c, kappa = spec.ratings, spec.capital
    d = len(c)
    _nonzero_discount(terms)  # a zero discount leaves every funder's row without a scale
    rows, rhs = [], []
    for j in range(d - 1):
        ratio = c[d - 1] / c[j]
        if ratio == math.inf:
            raise ContractError(f"rating {d} / rating {j + 1} = {c[d - 1]} / {c[j]} is out of the float range")
        row = [0.0] * d
        row[j], row[d - 1] = 1.0, -(1.0 / (d - 1) + ratio)
        rows.append(row)
        rhs.append(kappa[j] * rho)
    rows.append([1.0] * (d - 1) + [0.0])
    rhs.append(1.0)
    return rows, rhs


def solve_wakalah_system(
    ratings: Sequence[float],
    capital: Sequence[float],
    e_profit: float,
    e_loss: float,
    terms: WakalahTerms,
) -> tuple[tuple[float, ...], float]:
    """Ratios and periodic payment from the raw wakalah system: the payment
    is p = q E1 (1+r)^-T / annuity_pv, where (1+r)^-T / annuity_pv <= 1."""
    solution = gauss_solve(*wakalah_system(ratings, capital, e_profit, e_loss, terms))
    return tuple(solution[:-1]), solution[-1] * e_profit * (discount_factor(terms) / annuity_pv(terms))


def _simplex_defect(gammas: tuple[float, ...]) -> float:
    """|sum(gamma) - 1|, or inf where a ratio is not finite or the sum leaves the float range."""
    if all(map(math.isfinite, gammas)):
        try:
            return abs(math.fsum(gammas) - 1.0)
        except OverflowError:
            pass
    return math.inf


def verify_allocation(
    alloc: Allocation,
    spec: ContractSpec,
    profile: RiskProfile,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Substitute an allocation back into the fairness equations of ``spec``.

    Recomputes every rated payoff c_l * Pay_l from the candidate ratios.
    A partner holding a ratio is paid Pay_l = gamma_l E1 - kappa_l E2, with
    kappa_l from :attr:`~plsfair.contracts.ContractSpec.kappa_eff`. Under
    wakalah each funder's payoff is discounted by (1+r)^-T and bears 1/(d-1)
    of the manager's remuneration annuity_pv * p, which is the payoff of the
    manager, rated last. Reports the spread of the rated payoffs and the
    simplex defect, and passes iff both are within ``tol`` (the spread
    relative to max(ratings) * e_profit). A ratio or payment that is not
    finite, or a spread or sum beyond the float range, is reported as an
    infinite residual and never passes, whatever ``tol``, which must be a
    finite number >= 0.
    """
    tol = _as_float(tol, "tol")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ContractError(f"tol must be a finite number >= 0, got {tol!r}")
    c, kappa, terms = spec.ratings, spec.kappa_eff, spec.wakalah
    gammas = alloc.gammas
    if len(gammas) != len(kappa):
        raise ContractError(f"expected {len(kappa)} ratios for this contract, got {len(gammas)}")
    pays = [g * profile.e_profit - k * profile.e_loss for g, k in zip(gammas, kappa)]
    if terms is not None:
        if alloc.periodic_payment is None:
            raise ContractError("wakalah check needs the periodic payment p")
        discount = _nonzero_discount(terms)
        manager_pay = annuity_pv(terms) * alloc.periodic_payment
        share = manager_pay / (len(c) - 1)
        pays = [discount * pay - share for pay in pays] + [manager_pay]
    rated = [ci * pay for ci, pay in zip(c, pays)]
    max_residual = max(rated) - min(rated) if all(map(math.isfinite, rated)) else math.inf
    simplex_residual = _simplex_defect(gammas)
    # max(c) * e_profit can overflow, so the spread is divided by max(c) instead.
    fair = math.isfinite(max_residual) and max_residual / max(c) <= tol * profile.e_profit
    passed = fair and simplex_residual <= tol
    return VerificationReport(
        max_fairness_residual=max_residual,
        simplex_residual=simplex_residual,
        passed=passed,
    )
