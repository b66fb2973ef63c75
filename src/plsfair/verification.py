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
periodic-payment convention rather than assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .contracts import (
    Allocation,
    Capital,
    ContractError,
    ContractSpec,
    Ratings,
    RiskProfile,
    Variant,
    WakalahTerms,
)
from .ratios import annuity_pv, discount_factor

#: Default relative tolerance of :func:`verify_allocation`.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FairnessSystem:
    """A dense linear system in the unknowns named by ``labels``."""

    rows: tuple[tuple[float, ...], ...]
    rhs: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.rows) != n or any(len(row) != n for row in self.rows) or len(self.rhs) != n:
            raise ContractError(
                f"system of {len(self.rows)} rows and {len(self.rhs)} right-hand sides "
                f"does not match {n} unknowns"
            )


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of a candidate allocation against the fairness equations.

    ``max_fairness_residual`` is the spread of the rated payoffs in currency
    units; ``simplex_residual`` is |sum(gamma) - 1|. The check passes when
    the fairness residual is at most tol * max(ratings) * e_profit (a
    relative criterion, so currency scale does not matter) and the simplex
    residual is at most tol.
    """

    max_fairness_residual: float
    simplex_residual: float
    passed: bool


def gauss_solve(matrix: Sequence[Sequence[float]], rhs: Sequence[float]) -> list[float]:
    """Solve a small dense system by Gaussian elimination with partial pivoting.

    ``matrix`` is any sequence of rows (nested lists, or a 2-D numpy array)
    and is copied into lists of floats; rows whose entry in the pivot column
    is already zero are skipped, which keeps the sparse fairness systems cheap.
    """
    b = [float(v) for v in rhs]
    n = len(b)
    try:
        a = [[float(v) for v in row] for row in matrix]
    except (TypeError, ValueError):
        raise ContractError(f"matrix must be {n} rows of {n} numbers") from None
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
    for row in range(n - 1, -1, -1):
        tail = math.fsum(a[row][k] * x[k] for k in range(row + 1, n))
        x[row] = (b[row] - tail) / a[row][row]
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
    ratings: Ratings, capital: Capital, e_profit: float, e_loss: float
) -> FairnessSystem:
    """Stack the d-1 pairwise rated-payoff equalities plus sum(gamma) = 1.

    Each partner j other than the lowest-rated partner m gets the row
    c_j (gamma_j E1 - kappa_j E2) = c_m (gamma_m E1 - kappa_m E2), divided
    by c_j E1: gamma_j - (c_m/c_j) gamma_m = (kappa_j - (c_m/c_j) kappa_m) E2/E1.
    """
    spec = ContractSpec(Variant.MUSHARAKAH_SELF_MANAGED, ratings, capital)
    rho = RiskProfile.from_expectations(e_profit, e_loss).rho
    c, kappa = spec.ratings.values, spec.capital.values
    d = len(c)
    m = c.index(min(c))
    rows, rhs = [], []
    for j in range(d):
        if j != m:
            ratio = c[m] / c[j]
            row = [0.0] * d
            row[j], row[m] = 1.0, -ratio
            rows.append(tuple(row))
            rhs.append((kappa[j] - ratio * kappa[m]) * rho)
    rows.append((1.0,) * d)
    rhs.append(1.0)
    labels = tuple(f"gamma_{i + 1}" for i in range(d))
    return FairnessSystem(rows=tuple(rows), rhs=tuple(rhs), labels=labels)


def solve_fairness_system(
    ratings: Ratings, capital: Capital, e_profit: float, e_loss: float
) -> tuple[float, ...]:
    """Profit ratios equalizing the rated payoffs, by direct linear solve."""
    system = musharakah_system(ratings, capital, e_profit, e_loss)
    return tuple(gauss_solve(system.rows, system.rhs))


def wakalah_system(
    ratings: Ratings,
    capital: Capital,
    e_profit: float,
    e_loss: float,
    terms: WakalahTerms,
) -> FairnessSystem:
    """Stack the wakalah fairness equations in (gamma_1..gamma_{d-1}, p).

    Funding partner l's discounted payoff is
    (1+r)^-T (gamma_l E1 - kappa_l E2) - annuity_pv * p / (d-1); the
    manager's is annuity_pv * p. Each rated partner payoff is equated to the
    manager's rated payoff, and the gammas sum to 1.
    """
    spec = ContractSpec(Variant.MUSHARAKAH_WAKALAH, ratings, capital, terms)
    profile = RiskProfile.from_expectations(e_profit, e_loss)
    c, kappa = spec.ratings.values, spec.capital.values
    d = len(c)
    pv = annuity_pv(terms)
    discount = _nonzero_discount(terms)
    rows, rhs = [], []
    for j in range(d - 1):
        row = [0.0] * d
        row[j] = c[j] * discount * profile.e_profit
        row[d - 1] = -(c[j] / (d - 1) + c[d - 1]) * pv
        rows.append(tuple(row))
        rhs.append(c[j] * kappa[j] * discount * profile.e_loss)
    rows.append((1.0,) * (d - 1) + (0.0,))
    rhs.append(1.0)
    labels = tuple(f"gamma_{i + 1}" for i in range(d - 1)) + ("p",)
    return FairnessSystem(rows=tuple(rows), rhs=tuple(rhs), labels=labels)


def solve_wakalah_system(
    ratings: Ratings,
    capital: Capital,
    e_profit: float,
    e_loss: float,
    terms: WakalahTerms,
) -> tuple[tuple[float, ...], float]:
    """Ratios and periodic payment from the raw wakalah system."""
    system = wakalah_system(ratings, capital, e_profit, e_loss, terms)
    solution = gauss_solve(system.rows, system.rhs)
    return tuple(solution[:-1]), solution[-1]


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
    infinite residual and fails.
    """
    c, kappa, terms = spec.ratings.values, spec.kappa_eff, spec.wakalah
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
    scale = max(c) * profile.e_profit
    passed = max_residual <= tol * scale and simplex_residual <= tol
    return VerificationReport(
        max_fairness_residual=max_residual,
        simplex_residual=simplex_residual,
        passed=passed,
    )
