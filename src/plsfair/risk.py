"""Risk profiles from asset models: closed forms, samples, and Monte Carlo.

The ratio formulas only ever consume the expected upside E[(R_T - L)^+] and
downside E[(L - R_T)^+] of the terminal income R_T against the capital L.
This module produces those expectations from:

- a geometric-Brownian-motion model, evaluated in closed form;
- a two-outcome success/failure scenario;
- an empirical sample of terminal draws;
- seeded Monte Carlo over the stochastic models, with standard errors.

Monte Carlo draws the terminal distribution exactly (no time stepping) and
streams fixed-size chunks through a counter-based generator keyed by
(seed, chunk index), so results are a pure function of
(model, seed, n_paths, chunk_size) no matter how chunks would be scheduled.

Only the functions that make or read draws import numpy, inside their
bodies: numpy loads with the first draw, and a process that uses only the
closed forms never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from os import PathLike
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .contracts import LOG_FLOAT_MAX, SIMPLEX_TOL, ContractError, RiskProfile

if TYPE_CHECKING:
    import numpy as np

_SQRT2 = math.sqrt(2.0)

# Below this |drift-times-horizon| the analytic limit (rho = 1, delta = 0)
# is returned, so the mu = 0 boundary reads as exactly viable.
_MU_T_EPS = 1e-10


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well under 1e-12 on [-8, 8].

    Delegates to the C library's erfc, which keeps the relative accuracy
    needed deep in the tails where naive series lose everything.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion for the income process, started at L.

    ``mu`` is the instantaneous return per period, ``sigma`` the volatility
    per square-root period, ``T`` the horizon and ``L`` the initial capital.
    The terminal income is log-normal:
    R_T = L exp((mu - sigma^2/2) T + sigma sqrt(T) Z).
    """

    mu: float
    sigma: float
    T: float
    L: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ContractError(f"drift must be finite, got {self.mu}")
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ContractError(f"volatility must be positive, got {self.sigma}")
        if not math.isfinite(self.T) or self.T <= 0.0:
            raise ContractError(f"horizon must be positive, got {self.T}")
        if not math.isfinite(self.L) or self.L <= 0.0:
            raise ContractError(f"capital must be positive, got {self.L}")
        mu_t = self.mu * self.T
        if mu_t > LOG_FLOAT_MAX or not math.isfinite(self.L * math.exp(mu_t)):
            raise ContractError(f"expected income L e^(mu T) overflows at mu T = {mu_t}, L = {self.L}")


@dataclass(frozen=True)
class TwoPointScenario:
    """Success/failure revenue model: r_plus with probability beta, else r_minus."""

    beta: float
    r_plus: float
    r_minus: float
    L: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta) or not 0.0 < self.beta <= 1.0:
            raise ContractError(f"success probability must lie in (0, 1], got {self.beta}")
        for name, v in (("r_plus", self.r_plus), ("r_minus", self.r_minus), ("L", self.L)):
            if not math.isfinite(v):
                raise ContractError(f"{name} must be finite, got {v}")
        if not self.r_plus > self.L:
            raise ContractError(f"success revenue {self.r_plus} must exceed the capital {self.L}")
        if not self.r_minus <= self.L:
            raise ContractError(f"failure revenue {self.r_minus} cannot exceed the capital {self.L}")


@dataclass(frozen=True)
class EmpiricalSample:
    """Observed terminal incomes against a capital L."""

    draws: tuple[float, ...]
    L: float

    def __post_init__(self) -> None:
        import numpy as np

        draws = tuple(map(float, self.draws))
        object.__setattr__(self, "draws", draws)
        if not draws:
            raise ContractError("need at least one draw")
        values = np.asarray(draws)
        valid = (values >= 0.0) & (values < math.inf)
        if not valid.all():
            i = int(valid.argmin())
            raise ContractError(f"draw {i + 1} must be a finite non-negative income, got {draws[i]}")
        if not math.isfinite(self.L):
            raise ContractError(f"capital must be finite, got {self.L}")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo controls; (seed, n_paths, chunk_size) pin the result."""

    n_paths: int
    seed: int = 0
    chunk_size: int = 1 << 18

    def __post_init__(self) -> None:
        if not isinstance(self.n_paths, int) or self.n_paths < 1:
            raise ContractError(f"n_paths must be a positive integer, got {self.n_paths!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ContractError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not isinstance(self.chunk_size, int) or self.chunk_size < 1:
            raise ContractError(f"chunk_size must be a positive integer, got {self.chunk_size!r}")


McModel = Union[GbmParams, TwoPointScenario]


def gbm_closed_form(params: GbmParams) -> RiskProfile:
    """Exact risk profile of the log-normal terminal income.

    With theta = (2 mu - sigma^2) T / (2 sigma sqrt(T)) and Phi the standard
    normal CDF, the call and put sides are

        e_profit = L (e^(mu T) Phi(theta + sigma sqrt(T)) - Phi(theta))
        e_loss   = L (Phi(-theta) - e^(mu T) Phi(-theta - sigma sqrt(T)))
        delta    = L (e^(mu T) - 1)

    each formed directly, so a small e_loss keeps its relative accuracy
    instead of cancelling out of e_profit - delta. The investment is viable
    iff mu >= 0 (the mu = 0 boundary carries rho = 1, delta = 0).
    """
    mu_t = params.mu * params.T
    sig_rt = params.sigma * math.sqrt(params.T)
    variance = params.sigma * params.sigma * params.T
    if not 0.0 < variance < math.inf:
        raise ContractError(
            f"log-income variance sigma^2 T = {variance} at sigma = {params.sigma}, T = {params.T} "
            "is not a positive float"
        )
    theta = (mu_t - 0.5 * variance) / sig_rt
    growth = math.exp(mu_t)
    e_profit = params.L * (growth * std_normal_cdf(theta + sig_rt) - std_normal_cdf(theta))
    if abs(mu_t) < _MU_T_EPS:
        # Analytic limit; the quotient below would round either side of 1.
        return RiskProfile(e_profit=e_profit, e_loss=e_profit, rho=1.0, delta=0.0)
    e_loss = max(params.L * (std_normal_cdf(-theta) - growth * std_normal_cdf(-theta - sig_rt)), 0.0)
    delta = params.L * math.expm1(mu_t)
    if abs(e_profit - e_loss - delta) > SIMPLEX_TOL * max(1.0, e_profit, e_loss):
        # Both sides cancelled (sigma sqrt(T) tiny against a large L): keep the
        # smaller side and rebuild the larger one by parity, e_profit - e_loss = delta.
        if delta >= 0.0:
            e_profit = e_loss + delta
        else:
            e_loss = e_profit - delta
    rho = e_loss / e_profit if e_profit > 0.0 else math.inf
    if rho == math.inf:
        raise ContractError(
            f"expected profit {e_profit} underflows at mu = {params.mu}, sigma = {params.sigma}, "
            f"T = {params.T}: the risk ratio e_loss / e_profit is not representable"
        )
    return RiskProfile(e_profit=e_profit, e_loss=e_loss, rho=rho, delta=delta)


def two_point_profile(scenario: TwoPointScenario) -> RiskProfile:
    """Risk profile of the success/failure model.

    e_profit = beta (r_plus - L), e_loss = (1 - beta)(L - r_minus); delta
    reduces to the expected income minus the capital.
    """
    e_profit = scenario.beta * (scenario.r_plus - scenario.L)
    e_loss = (1.0 - scenario.beta) * (scenario.L - scenario.r_minus)
    return RiskProfile.from_expectations(e_profit, e_loss)


def empirical_profile(sample: EmpiricalSample) -> RiskProfile:
    """Plug-in estimates from observed draws, with standard errors attached."""
    import numpy as np

    return _profile_from_moments(_block_moments(np.asarray(sample.draws, dtype=float), sample.L))


def _block_moments(r: np.ndarray, L: float) -> tuple:
    """Moments (n, sum X, M2 of X, sum Y, M2 of Y) of the upside X = (r - L)^+
    and downside Y = (L - r)^+ over one block of draws. M2, the sum of squared
    deviations from the block's mean, is formed as numpy's ``var`` forms it,
    so one block reproduces numpy's sample deviation bit for bit. Overflow is
    left to the finiteness check of ``_profile_from_moments``."""
    import numpy as np

    moments = [r.size]
    with np.errstate(over="ignore", invalid="ignore"):
        for side in (np.subtract(r, L), np.subtract(L, r)):  # X, then Y, in place
            np.maximum(side, 0.0, out=side)
            total = float(side.sum())
            side -= total / r.size
            side *= side
            moments += [total, float(side.sum())]
    return tuple(moments)


def _merge(a: tuple, b: tuple) -> tuple:
    """Pool two blocks (Chan, Golub & LeVeque, "Algorithms for computing the
    sample variance", 1983): sums add, and the M2s gain the spread of the
    two blocks' means."""
    (na, xa, qxa, ya, qya), (nb, xb, qxb, yb, qyb) = a, b
    weight = na * nb / (na + nb)
    dx, dy = xb / nb - xa / na, yb / nb - ya / na
    return na + nb, xa + xb, qxa + qxb + dx * dx * weight, ya + yb, qya + qyb + dy * dy * weight


def _profile_from_moments(m: tuple) -> RiskProfile:
    """Sample means of X and Y, plain SEs for them and first-order delta-method
    SEs for their ratio rho and difference delta. X Y is 0 on every draw, so
    the covariance is -n mean_x mean_y / (n - 1); that strong negative
    correlation matters to both derived SEs."""
    if not all(math.isfinite(v) for v in m):
        raise ContractError("a draw, or a sum over the draws, is not a finite number")
    n, sum_x, m2_x, sum_y, m2_y = m
    mean_x, mean_y = sum_x / n, sum_y / n
    if mean_x <= 0.0:
        raise ContractError("no draw beats the capital: expected profit is zero and the risk ratio is undefined")
    dof = max(n - 1, 1)  # one draw: both M2s and mean_x * mean_y are 0
    var_x, var_y, cov_xy = m2_x / dof, m2_y / dof, -n * mean_x * mean_y / dof
    rho = mean_y / mean_x
    return RiskProfile.from_expectations(
        mean_x, mean_y,
        se_profit=math.sqrt(var_x) / math.sqrt(n),
        se_loss=math.sqrt(var_y) / math.sqrt(n),
        se_rho=math.sqrt((var_y + rho * rho * var_x - 2.0 * rho * cov_xy) / n) / mean_x,
        se_delta=math.sqrt((var_x + var_y - 2.0 * cov_xy) / n),
    )


def _terminal_draws(model: McModel, rng: np.random.Generator, count: int) -> np.ndarray:
    import numpy as np

    if isinstance(model, GbmParams):
        z = rng.standard_normal(count)
        drift = (model.mu - 0.5 * model.sigma * model.sigma) * model.T
        vol = model.sigma * math.sqrt(model.T)
        with np.errstate(over="ignore"):  # a far-tail overflow fails the moment check
            return model.L * np.exp(drift + vol * z)
    if isinstance(model, TwoPointScenario):
        u = rng.random(count)
        return np.where(u < model.beta, model.r_plus, model.r_minus)
    raise ContractError(f"unsupported Monte Carlo model {model!r}")


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    import numpy as np

    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def monte_carlo_profile(model: McModel, cfg: McConfig) -> RiskProfile:
    """Estimate the risk profile by exact terminal sampling.

    Each chunk's moments of the per-path upside X and downside Y are pooled
    in chunk order, giving bit-identical results for a fixed config; the
    estimator and its standard errors are those of an empirical sample.
    """
    n, size = cfg.n_paths, cfg.chunk_size
    moments = None
    for index, start in enumerate(range(0, n, size)):
        # r stays bound while the next chunk is drawn: freeing each chunk first lets
        # glibc trim the heap and fault it back in (~20% slower on x86-64 Linux).
        r = _terminal_draws(model, _chunk_rng(cfg.seed, index), min(size, n - start))
        block = _block_moments(r, model.L)
        moments = block if moments is None else _merge(moments, block)
    return _profile_from_moments(moments)


def load_empirical_draws(path: Union[str, PathLike]) -> tuple[float, ...]:
    """Read terminal draws from a plain-text file, one decimal float per line.

    An optional first-line header ``R_T`` is skipped; blank lines are
    ignored; both LF and CRLF endings are accepted.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractError(f"cannot read draws file: {exc}") from exc
    draws: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line == "R_T":
            continue
        try:
            draws.append(float(line))
        except ValueError as exc:
            raise ContractError(f"{path}: line {lineno} is not a decimal float: {line!r}") from exc
    if not draws:
        raise ContractError(f"{path}: no draws found")
    return tuple(draws)
