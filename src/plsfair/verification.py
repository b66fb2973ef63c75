"""Independent verification of allocations.

Instead of trusting the closed forms, this module assembles the raw
rated-payoff equality systems as dense linear systems and solves them with
Gaussian elimination, and checks any candidate allocation by substituting it
back into the defining equations. The wakalah system is built from the
payoff definitions (discounted partner payoffs, annuity-valued manager
remuneration), so it adjudicates the periodic-payment convention rather than
assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contracts import (
    Allocation,
    Capital,
    ContractError,
    Ratings,
    RiskProfile,
    WakalahTerms,
    as_capital,
    as_ratings,
)
from .ratios import annuity_pv, discount_factor, rated_payoff_spread


@dataclass(frozen=True, eq=False)
class FairnessSystem:
    """A dense linear system in the unknowns named by ``labels``."""

    matrix: np.ndarray
    rhs: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if self.matrix.shape != (n, n) or self.rhs.shape != (n,):
            raise ContractError(
                f"system shape {self.matrix.shape}/{self.rhs.shape} does not match {n} unknowns"
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


def gauss_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a small dense system by Gaussian elimination with partial pivoting."""
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = b.size
    if a.shape != (n, n):
        raise ContractError(f"matrix shape {a.shape} does not match rhs length {n}")
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise ContractError("singular fairness system (impossible for positive ratings)")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col]
            if factor != 0.0:
                lam = factor / a[col, col]
                a[row, col:] -= lam * a[col, col:]
                b[row] -= lam * b[col]
    x = np.empty(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def musharakah_system(
    ratings: Ratings, capital: Capital, e_profit: float, e_loss: float
) -> FairnessSystem:
    """Stack the d-1 pairwise rated-payoff equalities plus sum(gamma) = 1."""
    c = as_ratings(ratings).values
    kappa = as_capital(capital).values
    d = len(c)
    if len(kappa) != d:
        raise ContractError(f"got {len(kappa)} capital shares for {d} partners")
    if e_profit <= 0.0:
        raise ContractError(f"expected profit must be positive, got {e_profit}")
    a = np.zeros((d, d))
    b = np.zeros(d)
    for j in range(1, d):
        # c_j (gamma_j E1 - kappa_j E2) = c_0 (gamma_0 E1 - kappa_0 E2)
        a[j - 1, j] = c[j] * e_profit
        a[j - 1, 0] = -c[0] * e_profit
        b[j - 1] = c[j] * kappa[j] * e_loss - c[0] * kappa[0] * e_loss
    a[d - 1, :] = 1.0
    b[d - 1] = 1.0
    labels = tuple(f"gamma_{i + 1}" for i in range(d))
    return FairnessSystem(matrix=a, rhs=b, labels=labels)


def solve_fairness_system(
    ratings: Ratings, capital: Capital, e_profit: float, e_loss: float
) -> tuple[float, ...]:
    """Profit ratios equalizing the rated payoffs, by direct linear solve."""
    system = musharakah_system(ratings, capital, e_profit, e_loss)
    return tuple(float(v) for v in gauss_solve(system.matrix, system.rhs))


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
    c = as_ratings(ratings).values
    kappa = as_capital(capital).values
    d = len(c)
    if len(kappa) != d - 1:
        raise ContractError(f"got {len(kappa)} capital shares for {d - 1} funding partners")
    if e_profit <= 0.0:
        raise ContractError(f"expected profit must be positive, got {e_profit}")
    pv = annuity_pv(terms)
    discount = discount_factor(terms)
    if discount == 0.0:
        raise ContractError(
            f"discount (1+r)^-T underflows to 0 at r = {terms.r}, T = {terms.T}: "
            "every funder's payoff vanishes and the wakalah system has no unique solution"
        )
    a = np.zeros((d, d))
    b = np.zeros(d)
    for j in range(d - 1):
        a[j, j] = c[j] * discount * e_profit
        a[j, d - 1] = -(c[j] / (d - 1) + c[d - 1]) * pv
        b[j] = c[j] * kappa[j] * discount * e_loss
    a[d - 1, : d - 1] = 1.0
    b[d - 1] = 1.0
    labels = tuple(f"gamma_{i + 1}" for i in range(d - 1)) + ("p",)
    return FairnessSystem(matrix=a, rhs=b, labels=labels)


def solve_wakalah_system(
    ratings: Ratings,
    capital: Capital,
    e_profit: float,
    e_loss: float,
    terms: WakalahTerms,
) -> tuple[tuple[float, ...], float]:
    """Ratios and periodic payment from the raw wakalah system."""
    system = wakalah_system(ratings, capital, e_profit, e_loss, terms)
    solution = gauss_solve(system.matrix, system.rhs)
    return tuple(float(v) for v in solution[:-1]), float(solution[-1])


def verify_allocation(
    alloc: Allocation,
    ratings: Ratings,
    capital: Capital,
    profile: RiskProfile,
    terms: WakalahTerms | None = None,
    tol: float = 1e-9,
) -> VerificationReport:
    """Substitute an allocation back into the fairness equations.

    Recomputes every rated payoff from the candidate ratios (and periodic
    payment, for the wakalah combination), reports the maximum pairwise
    deviation and the simplex defect, and passes iff both are within ``tol``
    (the fairness residual relative to max(ratings) * e_profit).
    """
    c = as_ratings(ratings).values
    kappa = as_capital(capital).values
    gammas = alloc.gammas
    d = len(c)
    if terms is None:
        if len(gammas) != d:
            raise ContractError(f"got {len(gammas)} ratios for {d} partners")
        if len(kappa) == d - 1:
            kappa += (0.0,)  # external manager funds nothing
        elif len(kappa) != d:
            raise ContractError(f"got {len(kappa)} capital shares for {d} partners")
    elif len(gammas) != d - 1 or len(kappa) != d - 1:
        raise ContractError(
            f"wakalah check needs {d - 1} ratios and capital shares, got {len(gammas)} and {len(kappa)}"
        )
    elif alloc.periodic_payment is None:
        raise ContractError("wakalah check needs the periodic payment p")
    max_residual = rated_payoff_spread(c, kappa, gammas, profile, terms, alloc.periodic_payment)
    simplex_residual = abs(math.fsum(alloc.gammas) - 1.0)
    scale = max(c) * profile.e_profit
    passed = max_residual <= tol * scale and simplex_residual <= tol
    return VerificationReport(
        max_fairness_residual=max_residual,
        simplex_residual=simplex_residual,
        passed=passed,
    )
