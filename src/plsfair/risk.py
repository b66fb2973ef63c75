"""Risk profiles from asset models: closed forms, samples, and Monte Carlo.

The ratio formulas only ever consume the expected upside E[(R_T - L)^+] and
downside E[(L - R_T)^+] of the terminal income R_T against the capital L.
This module produces those expectations from:

- a geometric-Brownian-motion model, evaluated in closed form;
- a two-outcome success/failure scenario;
- an empirical sample of terminal draws;
- seeded Monte Carlo over the stochastic models, with standard errors.

Each stochastic model record carries its exact terminal sampler,
``draw(rng, out)``, so Monte Carlo draws the terminal distribution with no
time stepping and knows no model kind. It streams fixed-size chunks, each
from its own SFC64 generator seeded by numpy's ``SeedSequence(seed,
spawn_key=(chunk index,))``, on up to one thread per CPU available to the
process. One reduction turns draws into moments, for a Monte Carlo chunk
and for an empirical sample alike: it takes the draws R_T of 65,536 paths
at a time, forms their differences R_T - L in one 512 KB leaf buffer, and
reduces the moments of both sides from them through a second one. A chunk
is drawn leaf by leaf from its own generator into the first buffer, so
these two buffers are a worker's memory whatever the path count, chunk
size or sample size. One pooling rule holds throughout: each leaf's
moments are taken by numpy in two passes, and the leaves of a chunk, then
the chunks, are pooled in order by the update of Chan, Golub & LeVeque, so
results are a pure function of (model, seed, n_paths, chunk_size), bit for
bit the same for any CPU count on one machine and numpy build. GBM draws
pass through numpy's float64 ``exp``, whose AVX-512 kernel and AVX2 or
baseline path differ in the last bit on some inputs, so a seeded GBM
estimate may differ between CPUs; two-point and empirical draws use no ``exp``.

Only the functions that build or reduce draws arrays import numpy, inside
their bodies: numpy loads with the first sample or simulation, and a process
that uses only the closed forms, or only reads a draws file, never loads it.
Likewise only a simulation imports ``threading``.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from itertools import islice
from os import PathLike

from .contracts import LOG_FLOAT_MAX, ContractError, RiskProfile, _as_float, _read_text

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator
    from typing import Protocol

    import numpy as np

    class Sampled(Protocol):  # a model record with a capital L and an exact terminal sampler
        L: float

        def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray: ...

_SQRT2 = math.sqrt(2.0)
# The 6-point Gauss-Legendre rule on [-1, 1], as (positive node, weight) pairs.
_GL6 = ((0.2386191860831969, 0.46791393457269104), (0.6612093864662645, 0.3607615730481386),
        (0.932469514203152, 0.17132449237917036))
# Paths per leaf, each drawn, differenced and reduced before the next: two 512 KB
# float64 buffers per worker stay in L2.
_LEAF = 1 << 16


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well under 1e-12 on [-8, 8].

    Delegates to the C library's erfc, which keeps the relative accuracy
    needed deep in the tails where naive series lose everything. A NaN, or
    an integer beyond the float range, is a :class:`ContractError`.
    """
    cdf = 0.5 * math.erfc(-_as_float(x, "x") / _SQRT2)
    if math.isnan(cdf):
        raise ContractError("the normal CDF is undefined at nan")
    return cdf


def _require_capital(L: float) -> float:
    """The one rule for the capital L of every model: a finite positive amount, as a float."""
    L = _as_float(L, "L")
    if not math.isfinite(L) or L <= 0.0:
        raise ContractError(f"capital must be positive, got {L}")
    return L


class GbmParams(namedtuple("GbmParams", "mu sigma T L")):
    """Geometric Brownian motion for the income process, started at L.

    ``mu`` is the instantaneous return per period, ``sigma`` the volatility
    per square-root period, ``T`` the horizon and ``L`` the initial capital.
    The terminal income is log-normal:
    R_T = L exp((mu - sigma^2/2) T + sigma sqrt(T) Z).
    """

    __slots__ = ()

    def __new__(cls, mu: float, sigma: float, T: float, L: float) -> GbmParams:
        mu, sigma, T = _as_float(mu, "mu"), _as_float(sigma, "sigma"), _as_float(T, "T")
        if not math.isfinite(mu):
            raise ContractError(f"drift must be finite, got {mu}")
        if not math.isfinite(sigma) or sigma <= 0.0:
            raise ContractError(f"volatility must be positive, got {sigma}")
        if not math.isfinite(T) or T <= 0.0:
            raise ContractError(f"horizon must be positive, got {T}")
        L = _require_capital(L)
        mu_t = mu * T
        if mu_t > LOG_FLOAT_MAX or not math.isfinite(L * math.exp(mu_t)):
            raise ContractError(f"expected income L e^(mu T) overflows at mu T = {mu_t}, L = {L}")
        return tuple.__new__(cls, (mu, sigma, T, L))

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with terminal incomes and return it. L exp(drift + vol Z)
        is formed in place, bit for bit the out-of-place form; a far-tail
        overflow, or the NaN of inf - inf when both drift and vol overflow, is
        left to the caller's errstate and the moment check."""
        import numpy as np

        z = rng.standard_normal(out=out)
        z *= self.sigma * math.sqrt(self.T)
        z += (self.mu - 0.5 * self.sigma * self.sigma) * self.T
        np.exp(z, out=z)
        z *= self.L
        return z


class TwoPointScenario(namedtuple("TwoPointScenario", "beta r_plus r_minus L")):
    """Success/failure revenue model: r_plus with probability beta, else r_minus."""

    __slots__ = ()

    def __new__(cls, beta: float, r_plus: float, r_minus: float, L: float) -> TwoPointScenario:
        beta, r_plus, r_minus = _as_float(beta, "beta"), _as_float(r_plus, "r_plus"), _as_float(r_minus, "r_minus")
        if not math.isfinite(beta) or not 0.0 < beta <= 1.0:
            raise ContractError(f"success probability must lie in (0, 1], got {beta}")
        for name, v in (("r_plus", r_plus), ("r_minus", r_minus)):
            if not math.isfinite(v):
                raise ContractError(f"{name} must be finite, got {v}")
        L = _require_capital(L)
        if not r_plus > L:
            raise ContractError(f"success revenue {r_plus} must exceed the capital {L}")
        if not r_minus <= L:
            raise ContractError(f"failure revenue {r_minus} cannot exceed the capital {L}")
        return tuple.__new__(cls, (beta, r_plus, r_minus, L))

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with terminal incomes, r_plus where a uniform lies below beta, and return it."""
        u = rng.random(out=out)
        success = u < self.beta
        u.fill(self.r_minus)
        u[success] = self.r_plus
        return u


class EmpiricalSample(namedtuple("EmpiricalSample", "draws L")):
    """Observed terminal incomes against a capital L.

    ``draws`` may be any flat sequence of numbers, such as the list of floats
    ``load_empirical_draws`` returns. The sample always builds its own
    read-only 1-D float64 array from it, so no one can write to the draws
    after they are checked. Samples compare by identity, so ``==`` and
    ``hash`` never walk the draws.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, draws: np.ndarray, L: float) -> EmpiricalSample:
        import numpy as np

        try:
            values = np.array(draws, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ContractError(f"draws must be a sequence of numbers: {exc}") from exc
        values.flags.writeable = False
        if values.ndim != 1:
            raise ContractError(f"draws must be a flat sequence of numbers, got shape {values.shape}")
        if not values.size:
            raise ContractError("need at least one draw")
        valid = (values >= 0.0) & (values < math.inf)
        if not valid.all():
            i = int(valid.argmin())
            raise ContractError(f"draw {i + 1} must be a finite non-negative income, got {float(values[i])}")
        return tuple.__new__(cls, (values, _require_capital(L)))


class McConfig(namedtuple("McConfig", "n_paths seed chunk_size")):
    """Monte Carlo controls; (seed, n_paths, chunk_size) pin the result, bit for
    bit, for any CPU count on one machine and numpy build."""

    __slots__ = ()

    def __new__(cls, n_paths: int, seed: int = 0, chunk_size: int = 1 << 18) -> McConfig:
        # A bool is not an integer here, as for WakalahTerms.k.
        if isinstance(n_paths, bool) or not isinstance(n_paths, int) or n_paths < 1:
            raise ContractError(f"n_paths must be a positive integer, got {n_paths!r}")
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ContractError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        if isinstance(chunk_size, bool) or not isinstance(chunk_size, int) or chunk_size < 1:
            raise ContractError(f"chunk_size must be a positive integer, got {chunk_size!r}")
        return tuple.__new__(cls, (n_paths, seed, chunk_size))


def _interval_mass(theta: float, s: float) -> float:
    """Phi(theta + s) - Phi(theta) for s > 0, taken over [a, a + s], the one of
    [theta, theta + s] and its mirror [-theta - s, -theta] that starts further
    left, where Phi is small. Where s max(1, |a|) < 0.5 the density barely
    changes across it, and the 6-point Gauss-Legendre rule integrates it to
    rounding; elsewhere the two CDF values differ by a fixed share at least."""
    a = -theta - s if theta > 0.0 else theta
    if s * max(1.0, abs(a)) < 0.5:
        h, mid = 0.5 * s, a + 0.5 * s  # phi(mid - u) + phi(mid + u) = 2 phi(mid) e^(-u^2/2) cosh(mid u)
        # fsum is correctly rounded on every Python; sum() of floats is compensated from 3.12 only.
        pairs = math.fsum(w * math.exp(-0.5 * (h * x) ** 2) * math.cosh(mid * h * x) for x, w in _GL6)
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
    if not e_profit > 0.0 or e_loss / e_profit == math.inf:
        raise ContractError(
            f"expected profit {e_profit} underflows at mu = {params.mu}, sigma = {params.sigma}, "
            f"T = {params.T}: the risk ratio e_loss / e_profit is not representable"
        )
    return RiskProfile(e_profit, e_loss, delta=params.L * m)


def two_point_profile(scenario: TwoPointScenario) -> RiskProfile:
    """Risk profile of the success/failure model.

    e_profit = beta (r_plus - L), e_loss = (1 - beta)(L - r_minus); delta
    reduces to the expected income minus the capital.
    """
    e_profit = scenario.beta * (scenario.r_plus - scenario.L)
    e_loss = (1.0 - scenario.beta) * (scenario.L - scenario.r_minus)
    return RiskProfile(e_profit, e_loss)


def empirical_profile(sample: EmpiricalSample) -> RiskProfile:
    """Plug-in estimates from observed draws, with standard errors attached."""
    draws = sample.draws  # read-only: its leaves are differenced into the leaf buffers
    return _profile_from_moments(_block_moments(_leaves(draws), sample.L, _leaf_buffers(draws.size)))


def _leaf_buffers(n: int) -> np.ndarray:
    """A worker's two leaf buffers, min(n, _LEAF) long, as the rows of one block:
    the first takes a leaf's draws R_T (a sampler draws into it) and then their
    differences R_T - L, the second their upside and downside. glibc's malloc
    keeps a freed 1 MB block for the next call, but gives two freed 512 KB ones
    back to the OS, so each call would fault them in again."""
    import numpy as np

    return np.empty((2, min(n, _LEAF)))


def _leaves(a: np.ndarray) -> Iterator[np.ndarray]:
    """The _LEAF-long slices of ``a`` in order, the last one possibly shorter."""
    return (a[start:start + _LEAF] for start in range(0, a.size, _LEAF))


def _block_moments(draws: Iterable[np.ndarray], L: float, buffers: np.ndarray) -> tuple:
    """Moments (n, sum X, M2 of X, sum Y, M2 of Y) of the upside X = (r - L)^+
    and downside Y = (L - r)^+ over one block of draws r, given as its leaves
    in order, each at most as long as the rows of ``buffers`` (``_leaf_buffers``).

    The differences d = r - L of each leaf are formed in the first row, in
    place when a sampler drew the leaf there. X is max(d, 0) and Y is
    -min(d, 0), bit for bit, since L - r rounds to exactly -(r - L); sum Y is
    0.0 minus the sum of min(d, 0), so it is never -0.0. Each side is formed
    in the second row and read twice while cached: its sum, then M2, the sum
    of squared deviations from its mean, as numpy's ``var`` forms it, with
    (Y - mean_y)^2 as (min(d, 0) + mean_y)^2. So one leaf reproduces numpy's
    sample deviation bit for bit, and leaves are pooled in order by
    ``_merge``, as chunks are. A leaf is taken from ``draws`` only once the
    one before it is reduced, so a sampler may draw each leaf into the first
    row, and inside this function's errstate, so an overflow in the sampler,
    as in the reduction, is left to the finiteness check of
    ``_profile_from_moments``."""
    import numpy as np

    moments = None
    with np.errstate(over="ignore", invalid="ignore"):
        for r in draws:
            n = r.size
            d, out = np.subtract(r, L, out=buffers[0, :n]), buffers[1, :n]
            np.maximum(d, 0.0, out=out)
            sum_x = float(out.sum())
            out -= sum_x / n
            out *= out
            m2_x = float(out.sum())
            np.minimum(d, 0.0, out=out)
            sum_y = 0.0 - float(out.sum())
            out += sum_y / n
            out *= out
            block = n, sum_x, m2_x, sum_y, float(out.sum())
            moments = block if moments is None else _merge(moments, block)
    return moments


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
    return RiskProfile(
        mean_x, mean_y,
        se_profit=math.sqrt(var_x) / math.sqrt(n),
        se_loss=math.sqrt(var_y) / math.sqrt(n),
        se_rho=math.sqrt((var_y + rho * rho * var_x - 2.0 * rho * cov_xy) / n) / mean_x,
        se_delta=math.sqrt((var_x + var_y - 2.0 * cov_xy) / n),
    )


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The generator of one chunk: SFC64 seeded by ``SeedSequence(seed,
    spawn_key=(chunk_index,))``, numpy's recipe for independent keyed streams.
    The draws of a chunk depend only on (seed, chunk_index), never on which
    thread runs it or when."""
    import numpy as np

    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk_index,))))


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stripe(model: Sampled, cfg: McConfig, first: int, step: int, done: dict, failures: list) -> Iterator[None]:
    """Moments of chunks first, first + step, ... into ``done``, keyed by chunk
    index, yielding after each chunk.

    The stripe has the model's sampler draw each chunk leaf by leaf from the
    chunk's generator into the first leaf buffer, which ``_block_moments``
    reduces, so a chunk of any size takes two leaf buffers only. A generator
    fills its draws in order and keeps nothing between calls, so the leaves
    hold the chunk's draws bit for bit. The stripe stops before its next
    chunk once ``failures`` is not empty.
    """
    n, size = cfg.n_paths, cfg.chunk_size
    buffers = _leaf_buffers(min(n, size))
    for index in range(first, -(-n // size), step):
        if failures:
            return
        rng, count = _chunk_rng(cfg.seed, index), min(size, n - index * size)
        draws = (model.draw(rng, buffers[0, :min(_LEAF, left)]) for left in range(count, 0, -_LEAF))
        done[index] = _block_moments(draws, model.L, buffers)
        yield


def _pool_finished(moments: tuple | None, pooled: int, done: dict) -> tuple:
    """Pool the blocks of ``done`` from chunk index ``pooled`` on into
    ``moments``, in chunk order, up to the first chunk not finished yet;
    return the new (moments, pooled)."""
    while pooled in done:
        block = done.pop(pooled)
        moments = block if moments is None else _merge(moments, block)
        pooled += 1
    return moments, pooled


def monte_carlo_profile(model: Sampled, cfg: McConfig) -> RiskProfile:
    """Estimate the risk profile by exact terminal sampling, with the
    ``draw(rng, out)`` sampler that the model record carries.

    The chunks run in stripes on min(chunk count, available CPUs) threads,
    the calling thread included. Each chunk's moments of the per-path upside
    X and downside Y are pooled in chunk order, giving bit-identical results
    for a fixed config whatever the thread count; the estimator and its
    standard errors are those of an empirical sample. The calling thread
    pools finished chunks after each of its own, so memory stays flat
    however many chunks there are.
    """
    if not hasattr(model, "draw"):
        raise ContractError(f"unsupported Monte Carlo model {model!r}")
    import threading

    workers = min(-(-cfg.n_paths // cfg.chunk_size), _available_cpus())
    done, failures = {}, []

    def work(first: int) -> None:
        try:
            for _ in _stripe(model, cfg, first, workers, done, failures):
                pass
        except BaseException as exc:  # raised again by the calling thread below
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(first,)) for first in range(1, workers)]
    moments, pooled = None, 0
    try:
        for thread in threads:
            thread.start()
        for _ in _stripe(model, cfg, 0, workers, done, failures):
            moments, pooled = _pool_finished(moments, pooled, done)
    except BaseException as exc:
        failures.append(exc)  # stops the other stripes before their next chunk
        raise
    finally:
        for thread in threads:
            if thread.ident is not None:  # it was started
                thread.join()
    if failures:
        raise failures[0]
    return _profile_from_moments(_pool_finished(moments, pooled, done)[0])


def load_empirical_draws(path: str | PathLike) -> list[float]:
    """Read terminal draws from a plain-text file, one number per line.

    Each line holds exactly what Python's ``float()`` accepts, padded with
    any whitespace. An optional first-line header ``R_T`` is skipped; blank
    lines are ignored; LF, CRLF and CR end lines, as does every other line
    break ``str.splitlines`` knows. Returns the draws as a list of Python
    floats, which ``EmpiricalSample`` turns into its array; an error names
    the first line ``float()`` rejects.
    """
    lines = _read_text(path, "draws").splitlines()
    start = 1 if lines and lines[0].strip() == "R_T" else 0
    try:
        draws = list(map(float, islice(lines, start, None)))  # float() strips whitespace itself
    except ValueError:
        # A blank line or a bad one: the same float() calls, one line at a time,
        # skipping blank lines and naming the first bad line.
        draws = []
        for lineno, raw in enumerate(islice(lines, start, None), start=start + 1):
            line = raw.strip()
            if line:
                try:
                    draws.append(float(line))
                except ValueError as exc:
                    raise ContractError(f"{path}: line {lineno} is not a decimal float: {line!r}") from exc
    if not draws:
        raise ContractError(f"{path}: no draws found")
    return draws
