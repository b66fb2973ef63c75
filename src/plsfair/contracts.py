"""Core value types for profit-and-loss sharing contracts.

Every value type here is a validated tuple: immutable and checked in
``__new__``, so instances are always internally consistent and safe to share
between threads. Ratings and capital shares are tuples of floats; the
records are ``namedtuple`` subclasses. Each compares and hashes equal to a
plain tuple of the same values. namedtuple's ``_make`` and ``_replace`` build
a record without running ``__new__``, so they skip its checks; nothing here
calls them. Every numeric field and vector entry, here and in the risk
records and ``verify_allocation``, is converted by :func:`_as_float`, the
one number rule, before its own checks run. Monetary quantities are plain
floats in an abstract currency unit; maturities are abstract period counts
(no calendars or day-count conventions).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum
from os import PathLike

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


def _as_float(value: float, what: str) -> float:
    """``value`` as a float, the one number rule of every record and entry point.

    A ``str``, ``bytes`` or ``bool`` (Python's or numpy's), or anything
    ``float()`` refuses, is not a number; an integer beyond the float range
    is named as ``what``, never echoed. NaN and the infinities are numbers
    here: each caller checks the range its own field needs.
    """
    numpy = sys.modules.get("numpy")  # numpy's bool_ is no bool subclass, and none exists before numpy loads
    if not isinstance(value, (str, bytes, bytearray, bool)) and not (
        numpy is not None and isinstance(value, numpy.bool_)
    ):
        try:
            return float(value)
        except OverflowError:
            raise ContractError(f"{what} is out of the float range") from None
        except (TypeError, ValueError):
            pass
    raise ContractError(f"{what} must be a number, got {value!r}")


_FLOAT_TYPES = frozenset({int, float})


def _as_float_tuple(values: Sequence[float], what: str, cls: type = tuple) -> tuple[float, ...]:
    """``values`` as a ``cls`` (a tuple type) of floats, entry N held to
    :func:`_as_float`'s rule as ``{what} N``."""
    try:
        values = tuple(values)
    except TypeError:
        raise ContractError(f"expected a sequence of numbers, got {type(values).__name__}") from None
    if _FLOAT_TYPES.issuperset(map(type, values)):  # no call per entry in the usual case
        try:
            return tuple.__new__(cls, map(float, values))
        except OverflowError:  # an integer beyond the float range: the rule below names its position
            pass
    return tuple.__new__(cls, [_as_float(v, f"{what} {i}") for i, v in enumerate(values, start=1)])


class RatingVector(tuple):
    """Per-partner rating coefficients, as a validated tuple of floats.

    Each coefficient is a strictly positive dimensionless number grading how
    much that partner contributed to the success of the project. Ratings are
    only meaningful relative to each other: scaling the whole vector leaves
    every downstream allocation unchanged. A ``RatingVector`` passed in is
    returned as it is, since it was checked when it was made.
    """

    __slots__ = ()

    def __new__(cls, values: Sequence[float]) -> RatingVector:
        if isinstance(values, cls):
            return values
        self = _as_float_tuple(values, "rating", cls)
        d = len(self)
        if d < 2:
            raise ContractError(f"need at least 2 partners, got {d}")
        if d > MAX_PARTNERS:
            raise ContractError(f"at most {MAX_PARTNERS} partners supported, got {d}")
        for i, v in enumerate(self):
            if not math.isfinite(v) or v <= 0.0:
                raise ContractError(f"rating {i + 1} must be a finite positive number, got {v}")
        return self


class CapitalShares(tuple):
    """Per-partner fractions of the pooled capital, as a validated tuple of
    floats on the simplex; a ``CapitalShares`` passed in is returned as it is."""

    __slots__ = ()

    def __new__(cls, values: Sequence[float]) -> CapitalShares:
        if isinstance(values, cls):
            return values
        self = _as_float_tuple(values, "capital share", cls)
        if not self:
            raise ContractError("capital shares cannot be empty")
        if len(self) > MAX_PARTNERS:
            raise ContractError(f"at most {MAX_PARTNERS} partners supported, got {len(self)}")
        for i, v in enumerate(self):
            if not math.isfinite(v) or v < 0.0 or v > 1.0:
                raise ContractError(f"capital share {i + 1} must lie in [0, 1], got {v}")
        total = math.fsum(self)
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ContractError(f"capital shares must sum to 1, got {total!r}")
        return self


#: Capital split of a plain mudharabah: the funding partner brings everything.
MUDHARABAH_CAPITAL = CapitalShares((1.0, 0.0))


def _read_text(path: str | PathLike, what: str) -> str:
    """A UTF-8 text file's contents; any failure to read it is a :class:`ContractError`."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except (OSError, ValueError) as exc:  # a UnicodeDecodeError or a NUL byte in the path is a ValueError
        raise ContractError(f"cannot read {what} file: {exc}") from exc


class RiskProfile(namedtuple("RiskProfile", "e_profit e_loss delta se_profit se_loss se_rho se_delta")):
    """The expected profit and loss of an investment, as a model measured them.

    ``e_profit`` is the expected upside E[(R_T - L)^+] and ``e_loss`` the
    expected downside E[(L - R_T)^+], both in currency units. The investment
    risk :attr:`rho` is derived from them and never stored. ``delta``, the
    expected investment profit E[R_T] - L, defaults to ``e_profit - e_loss``;
    a model that knows it more accurately passes it, and it must agree with
    that difference. ``delta`` and the optional standard errors, attached by
    stochastic estimators, are keyword-only.
    """

    __slots__ = ()

    def __new__(cls, e_profit: float, e_loss: float, *, delta: float | None = None,
                se_profit: float | None = None, se_loss: float | None = None,
                se_rho: float | None = None, se_delta: float | None = None) -> RiskProfile:
        e_profit, e_loss = _as_float(e_profit, "e_profit"), _as_float(e_loss, "e_loss")
        if delta is not None:
            delta = _as_float(delta, "delta")
        if not math.isfinite(e_profit):
            raise ContractError(f"expected profit must be finite, got {e_profit}")
        if e_profit <= 0.0:
            raise ContractError(
                f"expected profit must be positive (payoff not identically the capital), got {e_profit}"
            )
        if not math.isfinite(e_loss) or e_loss < 0.0:
            raise ContractError(f"expected loss must be non-negative, got {e_loss}")
        if e_loss / e_profit == math.inf:
            raise ContractError(f"the risk ratio e_loss / e_profit overflows at {e_loss} / {e_profit}")
        difference = e_profit - e_loss
        if delta is None:
            delta = difference
        elif not abs(delta - difference) <= SIMPLEX_TOL * max(1.0, e_profit, e_loss):
            # The tolerance scales with the currency magnitude; a NaN delta fails it too.
            raise ContractError("delta is inconsistent with e_profit - e_loss")
        return tuple.__new__(cls, (e_profit, e_loss, delta, se_profit, se_loss, se_rho, se_delta))

    def __getnewargs_ex__(self):  # pickle and copy rebuild through the keyword-only __new__
        return (), self._asdict()

    @property
    def rho(self) -> float:
        """The investment risk e_loss / e_profit."""
        return self.e_loss / self.e_profit

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
        rho = _as_float(rho, "rho")
        if not math.isfinite(rho) or rho < 0.0:
            raise ContractError(f"investment risk must be a finite non-negative number, got {rho}")
        if delta is not None and e_profit is not None:
            raise ContractError("supply delta or e_profit, not both")
        if delta is None:
            given = e_profit = 1.0 if e_profit is None else _as_float(e_profit, "e_profit")
        else:
            given = delta = _as_float(delta, "delta")
            if rho == 1.0:
                if delta != 0.0:
                    raise ContractError("rho = 1 forces delta = 0")
                return cls(1.0, 1.0)
            e_profit = delta / (1.0 - rho)
        e_loss = rho * e_profit
        if math.isinf(e_loss) and math.isfinite(given):
            formula = "delta / (1 - rho)" if math.isinf(e_profit) else "rho * e_profit"
            name = "e_profit" if delta is None else "delta"
            raise ContractError(f"{formula} is out of the float range at rho = {rho}, {name} = {given}")
        return cls(e_profit, e_loss)

    def viable(self) -> bool:
        """Whether the expected profit covers the expected loss (rho <= 1)."""
        return self.rho <= 1.0


class WakalahTerms(namedtuple("WakalahTerms", "r T k")):
    """Terms of the agency leg: discount rate, maturity, and payment count.

    ``r`` is the per-period discount rate, ``T`` the maturity in periods and
    ``k`` the number of equal remuneration payments made at times
    T/k, 2T/k, ..., T.
    """

    __slots__ = ()

    def __new__(cls, r: float, T: float, k: int) -> WakalahTerms:
        r, T = _as_float(r, "r"), _as_float(T, "T")
        if not math.isfinite(r) or r < 0.0:
            raise ContractError(f"discount rate must be finite and >= 0, got {r}")
        if not math.isfinite(T) or T <= 0.0:
            raise ContractError(f"maturity must be finite and > 0, got {T}")
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ContractError(f"payment count must be a positive integer, got {k!r}")
        if k > sys.float_info.max:
            raise ContractError(
                f"payment count must be at most {sys.float_info.max:g}, got a {k.bit_length()}-bit integer"
            )
        return tuple.__new__(cls, (r, T, k))


class ContractSpec(namedtuple("ContractSpec", "variant ratings capital wakalah")):
    """A fully described contract: variant, ratings, capital split, agency terms.

    For the two mudharabah variants the capital is pinned to (1, 0) and may
    be omitted. For the external-manager variants (mudharib or wakalah
    agency) ``ratings`` has d entries (the manager is rated last) while
    ``capital`` covers only the d-1 funding partners.
    """

    __slots__ = ()

    def __new__(cls, variant: Variant, ratings: Sequence[float],
                capital: Sequence[float] | None = None, wakalah: WakalahTerms | None = None) -> ContractSpec:
        # Build a changed spec with ContractSpec(...): _replace would skip these checks.
        variant = Variant(variant)
        ratings = RatingVector(ratings)
        if capital is None and variant in MUDHARABAH_VARIANTS:
            capital = MUDHARABAH_CAPITAL
        if capital is None:
            raise ContractError("capital shares are required for this variant")
        capital = CapitalShares(capital)
        d = len(ratings)
        if variant in MUDHARABAH_VARIANTS:
            if d != 2:
                raise ContractError(f"{variant.value} needs exactly 2 partners, got {d}")
            if len(capital) != 2 or abs(capital[0] - 1.0) > SIMPLEX_TOL or abs(capital[1]) > SIMPLEX_TOL:
                raise ContractError(
                    f"{variant.value} requires capital (1, 0): the funder brings all capital"
                )
            capital = MUDHARABAH_CAPITAL  # exactly (1, 0) from here on
            if variant is Variant.FAIR_MUDHARABAH and ratings[0] != ratings[1]:
                raise ContractError(
                    "fair mudharabah rates both partners equally; use cfair_mudharabah for unequal ratings"
                )
        elif variant is Variant.MUSHARAKAH_SELF_MANAGED:
            if len(capital) != d:
                raise ContractError(
                    f"self-managed musharakah needs one capital share per partner: got {len(capital)} for {d} partners"
                )
        elif variant in MANAGED_VARIANTS:
            if len(capital) != d - 1:
                raise ContractError(
                    f"{variant.value} needs capital for the {d - 1} funding partners, got {len(capital)}"
                )
        if variant is Variant.MUSHARAKAH_WAKALAH:
            if wakalah is None:
                raise ContractError("wakalah terms (r, T, k) are required for the wakalah variant")
            if not isinstance(wakalah, WakalahTerms):
                raise ContractError(f"wakalah terms must be WakalahTerms, got {wakalah!r}")
        elif wakalah is not None:
            raise ContractError(f"wakalah terms are only meaningful for the wakalah variant, not {variant.value}")
        return tuple.__new__(cls, (variant, ratings, capital, wakalah))

    @property
    def partner_count(self) -> int:
        return len(self.ratings)

    @property
    def kappa_eff(self) -> tuple[float, ...]:
        """The capital share behind each profit ratio: the capital (exactly (1, 0) for
        mudharabah), with a trailing 0 for an external mudharib, who funds nothing."""
        if self.variant is Variant.MUSHARAKAH_EXTERNAL_MUDHARIB:
            return self.capital + (0.0,)
        return self.capital


class Allocation(namedtuple("Allocation", "gammas payoffs periodic_payment")):
    """Result of a ratio computation, built by keyword only.

    ``gammas`` are the profit-sharing fractions (for the wakalah variant,
    only the funding partners carry a ratio; the manager is paid through
    ``periodic_payment``). ``payoffs`` are the per-partner expected payoffs
    in currency units, valued per :attr:`valuation`. How far the result is
    from fair is not stored here: :func:`~plsfair.verification.verify_allocation`
    substitutes it back into the rated-payoff equalities of its contract.

    Engine-produced allocations for viable risk profiles satisfy: each
    gamma in [0, 1] and the gammas sum to 1 within ``SIMPLEX_TOL``. The
    fields are not re-validated here so that external candidate allocations
    can be represented and then checked by the verification module.
    """

    __slots__ = ()

    def __new__(cls, *, gammas: Sequence[float], payoffs: Sequence[float],
                periodic_payment: float | None = None) -> Allocation:
        gammas, payoffs = _as_float_tuple(gammas, "gamma"), _as_float_tuple(payoffs, "payoff")
        if periodic_payment is not None:
            periodic_payment = _as_float(periodic_payment, "periodic_payment")
        return tuple.__new__(cls, (gammas, payoffs, periodic_payment))

    def __getnewargs_ex__(self):  # pickle and copy rebuild through the keyword-only __new__
        return (), self._asdict()

    @property
    def valuation(self) -> str:
        """How ``payoffs`` are valued: "present_value" when a periodic payment
        is set (wakalah payoffs are discounted to time 0), else "maturity"."""
        return "maturity" if self.periodic_payment is None else "present_value"
