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
from itertools import islice
from os import PathLike
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .contracts import LOG_FLOAT_MAX, ContractError, RiskProfile

if TYPE_CHECKING:
    import numpy as np

_SQRT2 = math.sqrt(2.0)
# The 6-point Gauss-Legendre rule on [-1, 1], as (positive node, weight) pairs.
_GL6 = ((0.2386191860831969, 0.46791393457269104), (0.6612093864662645, 0.3607615730481386),
        (0.932469514203152, 0.17132449237917036))


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


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """Observed terminal incomes against a capital L.

    ``draws`` may be any flat sequence of numbers. It is held as a read-only
    1-D float64 array: copied once, or not at all when it already is one
    that views only read-only arrays, as ``load_empirical_draws`` returns.
    Samples compare by identity, so ``==`` and ``hash`` never walk the draws.
    """

    draws: np.ndarray
    L: float

    def __post_init__(self) -> None:
        import numpy as np

        values = self.draws
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64 and _frozen(values)):
            try:
                values = np.array(values, dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ContractError(f"draws must be a sequence of numbers: {exc}") from exc
            values.flags.writeable = False
        object.__setattr__(self, "draws", values)
        if values.ndim != 1:
            raise ContractError(f"draws must be a flat sequence of numbers, got shape {values.shape}")
        if not values.size:
            raise ContractError("need at least one draw")
        valid = (values >= 0.0) & (values < math.inf)
        if not valid.all():
            i = int(valid.argmin())
            raise ContractError(f"draw {i + 1} must be a finite non-negative income, got {float(values[i])}")
        if not math.isfinite(self.L):
            raise ContractError(f"capital must be finite, got {self.L}")


def _frozen(values: np.ndarray) -> bool:
    """True when ``values`` and every array it views are read-only arrays, so
    no one can write to the draws after they are checked."""
    import numpy as np

    while values is not None:
        if not isinstance(values, np.ndarray) or values.flags.writeable:
            return False
        values = values.base
    return True


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


def _interval_mass(theta: float, s: float) -> float:
    """Phi(theta + s) - Phi(theta) for s > 0, taken over [a, a + s], the one of
    [theta, theta + s] and its mirror [-theta - s, -theta] that starts further
    left, where Phi is small. Where s max(1, |a|) < 0.5 the density barely
    changes across it, and the 6-point Gauss-Legendre rule integrates it to
    rounding; elsewhere the two CDF values differ by a fixed share at least."""
    a = -theta - s if theta > 0.0 else theta
    if s * max(1.0, abs(a)) < 0.5:
        h, mid = 0.5 * s, a + 0.5 * s  # phi(mid - u) + phi(mid + u) = 2 phi(mid) e^(-u^2/2) cosh(mid u)
        pairs = sum(w * math.exp(-0.5 * (h * x) ** 2) * math.cosh(mid * h * x) for x, w in _GL6)
        return s * math.exp(-0.5 * mid * mid) * pairs / math.sqrt(2.0 * math.pi)
    return std_normal_cdf(a + s) - std_normal_cdf(a)


def gbm_closed_form(params: GbmParams) -> RiskProfile:
    """Exact risk profile of the log-normal terminal income.

    With s = sigma sqrt(T), theta = (mu T - s^2/2) / s, m = e^(mu T) - 1,
    Phi the standard normal CDF and D = Phi(theta + s) - Phi(theta) the mass
    between the tails Phi(theta) and Phi(-theta - s), which sum to 1 with it:

        e_profit = L (e^(mu T) D + m Phi(theta)),   delta = L m,
        e_loss   = L (D - m Phi(-theta - s))

    So e_profit - e_loss = delta by algebra, each side subtracts less than
    the direct call and put forms, and mu = 0 gives rho = 1 exactly. Rounding
    is monotone: mu >= 0 never gives rho > 1, and mu < 0 never gives rho < 1.
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
    m = math.expm1(mu_t)
    mass = _interval_mass(theta, sig_rt)
    e_profit = params.L * (math.exp(mu_t) * mass + m * std_normal_cdf(theta))
    e_loss = max(params.L * (mass - m * std_normal_cdf(-theta - sig_rt)), 0.0)
    delta = params.L * m
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
    return _profile_from_moments(_block_moments(sample.draws, sample.L))


def _block_moments(r: np.ndarray, L: float) -> tuple:
    """Moments (n, sum X, M2 of X, sum Y, M2 of Y) of the upside X = (r - L)^+
    and downside Y = (L - r)^+ over one block of draws. M2, the sum of squared
    deviations from the block's mean, is formed as numpy's ``var`` forms it,
    so one block reproduces numpy's sample deviation bit for bit. Overflow is
    left to the finiteness check of ``_profile_from_moments``."""
    import numpy as np

    moments = [r.size]
    side = np.empty(r.shape)  # X, then Y, in one buffer: fewer pages to fault in per block
    with np.errstate(over="ignore", invalid="ignore"):
        for minuend, subtrahend in ((r, L), (L, r)):
            np.subtract(minuend, subtrahend, out=side)
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
            # L exp(drift + vol z), in place: bit for bit the same as the out-of-place form
            z *= vol
            z += drift
            np.exp(z, out=z)
            z *= model.L
        return z
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


def load_empirical_draws(path: Union[str, PathLike]) -> np.ndarray:
    """Read terminal draws from a plain-text file, one number per line.

    Each line holds exactly what Python's ``float()`` accepts, padded with
    any whitespace. An optional first-line header ``R_T`` is skipped; blank
    lines are ignored; LF, CRLF and CR end lines, as does every other line
    break ``str.splitlines`` knows. Returns a read-only 1-D float64 array;
    an error names the first line ``float()`` rejects.
    """
    import numpy as np

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractError(f"cannot read draws file: {exc}") from exc
    lines = text.splitlines()
    start = 1 if lines and lines[0].strip() == "R_T" else 0
    try:
        draws = list(map(float, filter(None, map(str.strip, islice(lines, start, None)))))
    except ValueError:
        # The same float() calls again, one line at a time, to name the first bad line.
        for lineno, raw in enumerate(lines[start:], start=start + 1):
            line = raw.strip()
            if not line:
                continue
            try:
                float(line)
            except ValueError as exc:
                raise ContractError(f"{path}: line {lineno} is not a decimal float: {line!r}") from exc
        raise  # unreachable: some line failed above
    if not draws:
        raise ContractError(f"{path}: no draws found")
    values = np.array(draws, dtype=float)
    values.flags.writeable = False
    return values
