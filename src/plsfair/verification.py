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
from typing import TYPE_CHECKING, Sequence

from .contracts import (
    Allocation,
    Capital,
    ContractError,
    ContractSpec,
    Ratings,
    RiskProfile,
    Variant,
    WakalahTerms,
    as_capital,
    as_ratings,
)
from .ratios import annuity_pv, discount_factor, rated_payoff_spread

if TYPE_CHECKING:
    import numpy as np

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

    @property
    def matrix(self) -> np.ndarray:
        """The coefficient rows as a numpy array, which loads numpy."""
        import numpy as np

        return np.array(self.rows)


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


def verify_allocation(
    alloc: Allocation,
    ratings: Ratings,
    capital: Capital,
    profile: RiskProfile,
    terms: WakalahTerms | None = None,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Substitute an allocation back into the fairness equations.

    The contract is wakalah when ``terms`` are given, an external mudharib
    when ``capital`` covers only the d-1 funders, and self-managed otherwise.
    Recomputes every rated payoff from the candidate ratios (and periodic
    payment, for the wakalah combination), reports the maximum pairwise
    deviation and the simplex defect, and passes iff both are within ``tol``
    (the fairness residual relative to max(ratings) * e_profit).
    """
    c, kappa = as_ratings(ratings), as_capital(capital)
    if terms is not None:
        variant = Variant.MUSHARAKAH_WAKALAH
    elif len(kappa) == len(c) - 1:
        variant = Variant.MUSHARAKAH_EXTERNAL_MUDHARIB
    else:
        variant = Variant.MUSHARAKAH_SELF_MANAGED
    kappa_eff = ContractSpec(variant, c, kappa, terms).kappa_eff
    gammas = alloc.gammas
    if len(gammas) != len(kappa_eff):
        raise ContractError(f"expected {len(kappa_eff)} ratios for this contract, got {len(gammas)}")
    if terms is not None:
        if alloc.periodic_payment is None:
            raise ContractError("wakalah check needs the periodic payment p")
        _nonzero_discount(terms)
    max_residual = rated_payoff_spread(
        c.values, kappa_eff, gammas, profile, terms, alloc.periodic_payment
    )
    simplex_residual = abs(math.fsum(gammas) - 1.0)
    scale = max(c.values) * profile.e_profit
    passed = max_residual <= tol * scale and simplex_residual <= tol
    return VerificationReport(
        max_fairness_residual=max_residual,
        simplex_residual=simplex_residual,
        passed=passed,
    )
