"""Core value types for profit-and-loss sharing contracts.

Every type here is an immutable frozen dataclass validated at construction,
so instances are always internally consistent and safe to share between
threads. Monetary quantities are plain floats in an abstract currency unit;
maturities are abstract period counts (no calendars or day-count
conventions).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence, Union

#: Absolute tolerance on simplex constraints (capital shares, profit ratios).
#: All arithmetic is double precision on at most a few dozen partners, so
#: anything looser would hide real bugs.
SIMPLEX_TOL = 1e-12

#: Hard upper bound on the number of partners in a single contract.
MAX_PARTNERS = 64

#: Largest x for which math.exp(x) and math.expm1(x) are finite.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


class ContractError(ValueError):
    """Inputs violate a contract-domain invariant."""


class NonViableError(ContractError):
    """The investment's expected loss exceeds its expected profit (rho > 1)."""


class Variant(str, Enum):
    """The supported contract structures."""

    FAIR_MUDHARABAH = "fair_mudharabah"
    CFAIR_MUDHARABAH = "cfair_mudharabah"
    MUSHARAKAH_SELF_MANAGED = "musharakah_self_managed"
    MUSHARAKAH_EXTERNAL_MUDHARIB = "musharakah_external_mudharib"
    MUSHARAKAH_WAKALAH = "musharakah_wakalah"


#: Variants modelling a two-party contract where one partner funds everything
#: and the other contributes only labour (capital is pinned to (1, 0)).
MUDHARABAH_VARIANTS = frozenset(
    {Variant.FAIR_MUDHARABAH, Variant.CFAIR_MUDHARABAH}
)

#: Variants where the last-rated partner manages without funding, so the
#: capital vector covers only the d-1 funding partners.
MANAGED_VARIANTS = frozenset(
    {Variant.MUSHARAKAH_EXTERNAL_MUDHARIB, Variant.MUSHARAKAH_WAKALAH}
)


def _as_float_tuple(values: Sequence[float]) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"expected a sequence of numbers, got {values!r}") from exc


@dataclass(frozen=True)
class FloatVector:
    """A frozen sequence of floats; subclasses validate ``values``."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_float_tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]


@dataclass(frozen=True)
class RatingVector(FloatVector):
    """Per-partner rating coefficients.

    Each coefficient is a strictly positive dimensionless number grading how
    much that partner contributed to the success of the project. Ratings are
    only meaningful relative to each other: scaling the whole vector leaves
    every downstream allocation unchanged.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        d = len(self.values)
        if d < 2:
            raise ContractError(f"need at least 2 partners, got {d}")
        if d > MAX_PARTNERS:
            raise ContractError(f"at most {MAX_PARTNERS} partners supported, got {d}")
        for i, v in enumerate(self.values):
            if not math.isfinite(v) or v <= 0.0:
                raise ContractError(f"rating {i + 1} must be a finite positive number, got {v}")


@dataclass(frozen=True)
class CapitalShares(FloatVector):
    """Per-partner fractions of the pooled capital; must lie on the simplex."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.values:
            raise ContractError("capital shares cannot be empty")
        if len(self.values) > MAX_PARTNERS:
            raise ContractError(f"at most {MAX_PARTNERS} partners supported, got {len(self.values)}")
        for i, v in enumerate(self.values):
            if not math.isfinite(v) or v < 0.0 or v > 1.0:
                raise ContractError(f"capital share {i + 1} must lie in [0, 1], got {v}")
        total = math.fsum(self.values)
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ContractError(f"capital shares must sum to 1, got {total!r}")


#: Capital split of a plain mudharabah: the funding partner brings everything.
MUDHARABAH_CAPITAL = (1.0, 0.0)

Ratings = Union[RatingVector, Sequence[float]]
Capital = Union[CapitalShares, Sequence[float]]


def as_ratings(ratings: Ratings) -> RatingVector:
    """The ratings as a validated :class:`RatingVector`."""
    return ratings if isinstance(ratings, RatingVector) else RatingVector(ratings)


def as_capital(capital: Capital) -> CapitalShares:
    """The capital split as validated :class:`CapitalShares`."""
    return capital if isinstance(capital, CapitalShares) else CapitalShares(capital)


@dataclass(frozen=True)
class RiskProfile:
    """Expected profit/loss of an investment and the derived risk figures.

    ``e_profit`` is the expected upside E[(R_T - L)^+] and ``e_loss`` the
    expected downside E[(L - R_T)^+], both in currency units. ``rho`` is
    their ratio (the investment risk) and ``delta = e_profit - e_loss`` the
    expected investment profit, which also equals E[R_T] - L. Optional
    standard errors are attached by stochastic estimators; analytic profiles
    leave them as None.
    """

    e_profit: float
    e_loss: float
    rho: float
    delta: float
    se_profit: float | None = None
    se_loss: float | None = None
    se_rho: float | None = None
    se_delta: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.e_profit) or self.e_profit <= 0.0:
            raise ContractError(
                f"expected profit must be positive (payoff not identically the capital), got {self.e_profit}"
            )
        if not math.isfinite(self.e_loss) or self.e_loss < 0.0:
            raise ContractError(f"expected loss must be non-negative, got {self.e_loss}")
        # Identity tolerances scale with the currency magnitude.
        scale = max(1.0, self.e_profit, self.e_loss)
        if abs(self.rho * self.e_profit - self.e_loss) > SIMPLEX_TOL * scale:
            raise ContractError("rho is inconsistent with e_loss / e_profit")
        if abs(self.delta - (self.e_profit - self.e_loss)) > SIMPLEX_TOL * scale:
            raise ContractError("delta is inconsistent with e_profit - e_loss")

    @classmethod
    def from_expectations(
        cls,
        e_profit: float,
        e_loss: float,
        *,
        se_profit: float | None = None,
        se_loss: float | None = None,
        se_rho: float | None = None,
        se_delta: float | None = None,
    ) -> "RiskProfile":
        """Build a profile from the two expectations, deriving rho and delta."""
        if not math.isfinite(e_profit) or e_profit <= 0.0:
            raise ContractError(f"expected profit must be positive, got {e_profit}")
        return cls(
            e_profit=e_profit,
            e_loss=e_loss,
            rho=e_loss / e_profit,
            delta=e_profit - e_loss,
            se_profit=se_profit,
            se_loss=se_loss,
            se_rho=se_rho,
            se_delta=se_delta,
        )

    @classmethod
    def from_rho(
        cls,
        rho: float,
        *,
        delta: float | None = None,
        e_profit: float | None = None,
    ) -> "RiskProfile":
        """Build a profile from a known investment risk.

        Ratio allocations depend on the expectations only through ``rho``,
        so a bare rho (unit expected profit) is enough to compute them;
        supply ``delta`` or ``e_profit`` to fix the currency scale of
        payoffs. Passing both is rejected as over-determined.
        """
        rho = float(rho)
        if not math.isfinite(rho) or rho < 0.0:
            raise ContractError(f"investment risk must be a finite non-negative number, got {rho}")
        if delta is not None and e_profit is not None:
            raise ContractError("supply delta or e_profit, not both")
        if e_profit is not None:
            return cls.from_expectations(float(e_profit), rho * float(e_profit))
        if delta is not None:
            delta = float(delta)
            if rho == 1.0:
                if delta != 0.0:
                    raise ContractError("rho = 1 forces delta = 0")
                return cls.from_expectations(1.0, 1.0)
            ep = delta / (1.0 - rho)
            return cls.from_expectations(ep, rho * ep)
        return cls.from_expectations(1.0, rho)

    def viable(self) -> bool:
        """Whether the expected profit covers the expected loss (rho <= 1)."""
        return self.rho <= 1.0


@dataclass(frozen=True)
class WakalahTerms:
    """Terms of the agency leg: discount rate, maturity, and payment count.

    ``r`` is the per-period discount rate, ``T`` the maturity in periods and
    ``k`` the number of equal remuneration payments made at times
    T/k, 2T/k, ..., T.
    """

    r: float
    T: float
    k: int

    def __post_init__(self) -> None:
        try:
            r, T = float(self.r), float(self.T)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ContractError(
                f"discount rate and maturity must be numbers, got {self.r!r} and {self.T!r}"
            ) from exc
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "T", T)
        if not math.isfinite(r) or r < 0.0:
            raise ContractError(f"discount rate must be finite and >= 0, got {r}")
        if not math.isfinite(T) or T <= 0.0:
            raise ContractError(f"maturity must be finite and > 0, got {T}")
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
            raise ContractError(f"payment count must be a positive integer, got {self.k!r}")
        if self.k > sys.float_info.max:
            raise ContractError(
                f"payment count must be at most {sys.float_info.max:g}, got a {self.k.bit_length()}-bit integer"
            )


@dataclass(frozen=True)
class ContractSpec:
    """A fully described contract: variant, ratings, capital split, agency terms.

    For the two mudharabah variants the capital is pinned to (1, 0) and may
    be omitted. For the external-manager variants (mudharib or wakalah
    agency) ``ratings`` has d entries (the manager is rated last) while
    ``capital`` covers only the d-1 funding partners.
    """

    variant: Variant
    ratings: RatingVector
    capital: CapitalShares | None = None
    wakalah: WakalahTerms | None = None

    def __post_init__(self) -> None:
        variant = Variant(self.variant)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "ratings", as_ratings(self.ratings))
        capital = self.capital
        if capital is None and variant in MUDHARABAH_VARIANTS:
            capital = MUDHARABAH_CAPITAL
        object.__setattr__(self, "capital", None if capital is None else as_capital(capital))
        validate_spec(self)

    @property
    def partner_count(self) -> int:
        return len(self.ratings)

    @property
    def kappa_eff(self) -> tuple[float, ...]:
        """The capital share behind each profit ratio: exactly (1, 0) for mudharabah,
        and a trailing 0 for an external mudharib, who funds nothing."""
        if self.variant in MUDHARABAH_VARIANTS:
            return MUDHARABAH_CAPITAL
        if self.variant is Variant.MUSHARAKAH_EXTERNAL_MUDHARIB:
            return self.capital.values + (0.0,)
        return self.capital.values


def validate_spec(spec: ContractSpec) -> ContractSpec:
    """Check all cross-field invariants of a contract; return it unchanged.

    Construction already runs these checks, so this is mostly useful to
    re-validate instances rebuilt by deserialization code.
    """
    d = len(spec.ratings)
    if spec.capital is None:
        raise ContractError("capital shares are required for this variant")
    if spec.variant in MUDHARABAH_VARIANTS:
        if d != 2:
            raise ContractError(f"{spec.variant.value} needs exactly 2 partners, got {d}")
        kappa = spec.capital.values
        if len(kappa) != 2 or abs(kappa[0] - 1.0) > SIMPLEX_TOL or abs(kappa[1]) > SIMPLEX_TOL:
            raise ContractError(
                f"{spec.variant.value} requires capital (1, 0): the funder brings all capital"
            )
        if spec.variant is Variant.FAIR_MUDHARABAH and spec.ratings[0] != spec.ratings[1]:
            raise ContractError(
                "fair mudharabah rates both partners equally; use cfair_mudharabah for unequal ratings"
            )
    elif spec.variant is Variant.MUSHARAKAH_SELF_MANAGED:
        if len(spec.capital) != d:
            raise ContractError(
                f"self-managed musharakah needs one capital share per partner: got {len(spec.capital)} for {d} partners"
            )
    elif spec.variant in MANAGED_VARIANTS:
        if len(spec.capital) != d - 1:
            raise ContractError(
                f"{spec.variant.value} needs capital for the {d - 1} funding partners, got {len(spec.capital)}"
            )
    if spec.variant is Variant.MUSHARAKAH_WAKALAH:
        if spec.wakalah is None:
            raise ContractError("wakalah terms (r, T, k) are required for the wakalah variant")
        if not isinstance(spec.wakalah, WakalahTerms):
            raise ContractError(f"wakalah terms must be WakalahTerms, got {spec.wakalah!r}")
    elif spec.wakalah is not None:
        raise ContractError(f"wakalah terms are only meaningful for the wakalah variant, not {spec.variant.value}")
    return spec


@dataclass(frozen=True)
class Allocation:
    """Result of a ratio computation.

    ``gammas`` are the profit-sharing fractions (for the wakalah variant,
    only the funding partners carry a ratio; the manager is paid through
    ``periodic_payment``). ``payoffs`` are the per-partner expected payoffs
    in currency units, valued per ``valuation``: "maturity" for the plain
    contracts, "present_value" for the wakalah combination whose payoffs are
    discounted to time 0. ``residual`` is the largest violation of the rated
    payoff equalities when the result is substituted back, in currency
    units.

    Engine-produced allocations for viable risk profiles satisfy: each
    gamma in [0, 1] and the gammas sum to 1 within ``SIMPLEX_TOL``. The
    fields are not re-validated here so that external candidate allocations
    can be represented and then checked by the verification module.
    """

    gammas: tuple[float, ...]
    payoffs: tuple[float, ...]
    residual: float
    periodic_payment: float | None = None
    valuation: str = "maturity"

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", _as_float_tuple(self.gammas))
        object.__setattr__(self, "payoffs", _as_float_tuple(self.payoffs))
