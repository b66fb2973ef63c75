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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from os import PathLike
from pathlib import Path
from typing import Union

import numpy as np

from .contracts import ContractError, RiskProfile

_SQRT2 = math.sqrt(2.0)

# Below this drift-times-horizon the closed-form rho quotient is a 0/0 in
# the making; the analytic limit (rho = 1, delta = 0) is returned instead.
_MU_T_EPS = 1e-10


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well under 1e-12 on [-8, 8].

    Delegates to the C library's erfc, which keeps the relative accuracy
    needed deep in the tails where naive series lose everything.
    """
    phi = 0.5 * math.erfc(-x / _SQRT2)
    if phi < 0.0:
        return 0.0
    if phi > 1.0:
        return 1.0
    return phi


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
        draws = tuple(float(v) for v in self.draws)
        object.__setattr__(self, "draws", draws)
        if not draws:
            raise ContractError("need at least one draw")
        for i, v in enumerate(draws):
            if not math.isfinite(v) or v < 0.0:
                raise ContractError(f"draw {i + 1} must be a finite non-negative income, got {v}")
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
    normal CDF:

        e_profit = L (e^(mu T) Phi(theta + sigma sqrt(T)) - Phi(theta))
        delta    = L (e^(mu T) - 1)

    and e_loss = e_profit - delta. The investment is viable iff mu >= 0
    (the mu = 0 boundary carries rho = 1, delta = 0).
    """
    mu_t = params.mu * params.T
    sig_rt = params.sigma * math.sqrt(params.T)
    theta = (mu_t - 0.5 * params.sigma * params.sigma * params.T) / sig_rt
    try:
        growth = math.exp(mu_t)
    except OverflowError:
        raise ContractError(f"growth factor e^(mu T) overflows at mu T = {mu_t}") from None
    e_profit = params.L * (growth * std_normal_cdf(theta + sig_rt) - std_normal_cdf(theta))
    if abs(mu_t) < _MU_T_EPS:
        # Analytic limit; the quotient below would cancel catastrophically.
        return RiskProfile(e_profit=e_profit, e_loss=e_profit, rho=1.0, delta=0.0)
    delta = params.L * math.expm1(mu_t)
    e_loss = max(e_profit - delta, 0.0)
    return RiskProfile(e_profit=e_profit, e_loss=e_loss, rho=e_loss / e_profit, delta=e_profit - e_loss)


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
    draws = np.asarray(sample.draws, dtype=float)
    n = draws.size
    profits = np.maximum(draws - sample.L, 0.0)
    losses = np.maximum(sample.L - draws, 0.0)
    e_profit = float(profits.mean())
    e_loss = float(losses.mean())
    if e_profit <= 0.0:
        raise ContractError(
            "every draw sits at or below the capital: expected profit is zero and the risk ratio is undefined"
        )
    if n > 1:
        se_profit = float(profits.std(ddof=1)) / math.sqrt(n)
        se_loss = float(losses.std(ddof=1)) / math.sqrt(n)
    else:
        se_profit = se_loss = 0.0
    return RiskProfile.from_expectations(e_profit, e_loss, se_profit=se_profit, se_loss=se_loss)


def _terminal_draws(model: McModel, rng: np.random.Generator, count: int) -> np.ndarray:
    if isinstance(model, GbmParams):
        z = rng.standard_normal(count)
        drift = (model.mu - 0.5 * model.sigma * model.sigma) * model.T
        vol = model.sigma * math.sqrt(model.T)
        return model.L * np.exp(drift + vol * z)
    if isinstance(model, TwoPointScenario):
        u = rng.random(count)
        return np.where(u < model.beta, model.r_plus, model.r_minus)
    raise ContractError(f"unsupported Monte Carlo model {model!r}")


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def monte_carlo_profile(model: McModel, cfg: McConfig) -> RiskProfile:
    """Estimate the risk profile by exact terminal sampling.

    Per-path upside X and downside Y are accumulated as chunk partial sums
    (sums of X, Y, X^2, Y^2, XY) merged in chunk order, giving bit-identical
    results for a fixed config. Standard errors: plain sample SEs for the
    two means, a first-order delta-method SE for their ratio rho (X and Y
    are strongly negatively correlated, so the covariance term matters) and
    for the difference delta.
    """
    n = cfg.n_paths
    sum_x = sum_y = sum_xx = sum_yy = sum_xy = 0.0
    start = 0
    chunk_index = 0
    while start < n:
        count = min(cfg.chunk_size, n - start)
        rng = _chunk_rng(cfg.seed, chunk_index)
        r = _terminal_draws(model, rng, count)
        x = np.maximum(r - model.L, 0.0)
        y = np.maximum(model.L - r, 0.0)
        sum_x += float(x.sum())
        sum_y += float(y.sum())
        sum_xx += float((x * x).sum())
        sum_yy += float((y * y).sum())
        sum_xy += float((x * y).sum())
        start += count
        chunk_index += 1

    mean_x = sum_x / n
    mean_y = sum_y / n
    if mean_x <= 0.0:
        raise ContractError(
            "estimated expected profit is zero: no sampled path beat the capital"
        )
    if n > 1:
        var_x = max((sum_xx - n * mean_x * mean_x) / (n - 1), 0.0)
        var_y = max((sum_yy - n * mean_y * mean_y) / (n - 1), 0.0)
        cov_xy = (sum_xy - n * mean_x * mean_y) / (n - 1)
    else:
        var_x = var_y = cov_xy = 0.0
    rho = mean_y / mean_x
    se_profit = math.sqrt(var_x / n)
    se_loss = math.sqrt(var_y / n)
    se_rho = math.sqrt(max(var_y + rho * rho * var_x - 2.0 * rho * cov_xy, 0.0) / n) / mean_x
    se_delta = math.sqrt(max(var_x + var_y - 2.0 * cov_xy, 0.0) / n)
    return RiskProfile(
        e_profit=mean_x,
        e_loss=mean_y,
        rho=rho,
        delta=mean_x - mean_y,
        se_profit=se_profit,
        se_loss=se_loss,
        se_rho=se_rho,
        se_delta=se_delta,
    )


def load_empirical_draws(path: Union[str, PathLike]) -> tuple[float, ...]:
    """Read terminal draws from a plain-text file, one decimal float per line.

    An optional first-line header ``R_T`` is skipped; blank lines are
    ignored; both LF and CRLF endings are accepted.
    """
    text = Path(path).read_text(encoding="utf-8")
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
