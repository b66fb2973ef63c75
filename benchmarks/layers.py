"""Per-layer metrics of the traced run, and which optimisation should move them.

Spans are recorded around the public names that ``plsfair.cli`` calls, in
the ``plsfair.cli`` namespace where it looks them up, plus
``plsfair.ratios.sharing_weights`` where the closed forms look it up. The
harness itself records the root span around ``main``.

What each ROADMAP item should move (and on which workload):

- Lazy imports: ``import.numpy_ms`` / ``import.plsfair_ms``, hence
  ``setup_s``, on every workload.
- Item 2, one affine kernel and a vectorised sweep: ``ratios.allocate.us``
  and ``ratios.allocate.calls_per_op`` / ``ratios.sharing_weights.calls_per_op``
  and ``cli.main.self_ms`` (CSV formatting) on ``sweep_grid``; the folded
  load-contract-and-profile code moves ``contracts.load_contract.us`` and
  ``risk.profile_from_model.self_us`` on ``allocate_cli``, where
  ``cli.main.self_ms`` (argument parsing and output) is most of a command.
- Item 3 (a)-(c), Monte Carlo dead work, threads and ``out=`` ufuncs:
  ``risk.monte_carlo_profile.ms`` and ``.paths_per_s`` on ``mc_simulate``;
  threads also raise ``.cpu_per_wall`` above 1.
- Item 3 (d), a numpy parse of draws files: ``risk.load_empirical_draws.ms``
  and ``.draws_per_s`` on ``empirical_file``; the shared moments function
  shows in ``risk.empirical_profile.ms``, and the per-draw validation of
  ``EmpiricalSample``, built inside ``profile_from_model``, in
  ``risk.profile_from_model.self_us``.
- Item 4, the accurate loss side: ``risk.gbm_closed_form.us`` on
  ``allocate_cli`` should stay where it is.
- Item 5, provenance and stage tracing: ``verification.oracle_solve.*`` is
  what ``oracle_gap`` will cost per allocate on ``allocate_cli``;
  ``cli.bytes_out`` shows the size of the added output, and
  ``cli.main.self_ms`` must not grow when tracing is off.
- ``trace.overhead_frac`` moves with nothing; it is the cost of these
  wrappers, so that the traced figures can be read against the untraced ones.
"""

from __future__ import annotations

import random
import statistics
import time

from stats import median
from tracer import LayerStats, Target

ROOT = "cli.main"


def _n_paths(args: tuple, kwargs: dict, result: object) -> float:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
    return cfg.n_paths


def _n_draws(args: tuple, kwargs: dict, result: object) -> float:
    return len(result)


def targets() -> list[Target]:
    import plsfair.cli as cli
    import plsfair.ratios as ratios

    return [
        Target(cli, "load_contract", "contracts.load_contract"),
        Target(cli, "profile_from_model", "risk.profile_from_model"),
        Target(cli, "gbm_closed_form", "risk.gbm_closed_form"),
        Target(cli, "two_point_profile", "risk.two_point_profile"),
        Target(cli, "monte_carlo_profile", "risk.monte_carlo_profile", _n_paths, cpu=True),
        Target(cli, "load_empirical_draws", "risk.load_empirical_draws", _n_draws),
        Target(cli, "empirical_profile", "risk.empirical_profile"),
        Target(cli, "allocate", "ratios.allocate"),
        Target(cli, "verify_allocation", "verification.verify_allocation"),
        Target(ratios, "sharing_weights", "ratios.sharing_weights"),
    ]


def new_stats() -> LayerStats:
    timed = ("contracts.load_contract", "risk.gbm_closed_form", "risk.monte_carlo_profile",
             "risk.load_empirical_draws", "risk.empirical_profile", "ratios.allocate",
             "verification.verify_allocation")
    return LayerStats(ROOT, timed, self_timed=("risk.profile_from_model",))


def _per_call(values, scale: float) -> float:
    """Median of per-call figures, or 0 for a layer this workload never calls."""
    return median(values) * scale if len(values) else 0.0


def _rate(stats: LayerStats, name: str) -> float:
    busy = stats.busy[name]
    return stats.work[name] / busy if busy > 0.0 else 0.0


def oracle_solve_us(seed: int) -> dict[str, float]:
    """Median time of the harness's own oracle solves at d=4 and d=64."""
    from plsfair.verification import solve_fairness_system

    rng = random.Random(f"oracle:{seed}")
    result = {}
    for d, reps in ((4, 201), (64, 21)):
        ratings = [rng.uniform(1.0, 10.0) for _ in range(d)]
        raw = [rng.uniform(0.5, 2.0) for _ in range(d)]
        capital = [v / sum(raw) for v in raw]
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            solve_fairness_system(ratings, capital, 1.0, 0.3)
            times.append(time.perf_counter() - start)
        result[f"verification.oracle_solve.d{d}_us"] = median(times) * 1e6
    return result


def metrics(stats: LayerStats, imports: dict[str, list[float]], bytes_out: list[int],
            traced_ms: list[float], untraced_ms: list[float], seed: int) -> dict[str, float]:
    """Every per-layer metric, keyed by its name in BENCHMARK.json."""
    ops = max(stats.ops, 1)
    values = {
        "import.numpy_ms": median(imports["numpy"]) * 1e3,
        "import.plsfair_ms": median(imports["plsfair"]) * 1e3,
        "cli.main.self_ms": _per_call(stats.self_times[ROOT], 1e3),
        "cli.bytes_out": statistics.median(bytes_out),
        "contracts.load_contract.us": _per_call(stats.durations["contracts.load_contract"], 1e6),
        "risk.profile_from_model.self_us":
            _per_call(stats.self_times["risk.profile_from_model"], 1e6),
        "risk.gbm_closed_form.us": _per_call(stats.durations["risk.gbm_closed_form"], 1e6),
        "risk.monte_carlo_profile.ms": _per_call(stats.durations["risk.monte_carlo_profile"], 1e3),
        "risk.monte_carlo_profile.paths_per_s": _rate(stats, "risk.monte_carlo_profile"),
        "risk.monte_carlo_profile.cpu_per_wall": (
            stats.cpu["risk.monte_carlo_profile"] / stats.busy["risk.monte_carlo_profile"]
            if stats.busy["risk.monte_carlo_profile"] > 0.0 else 0.0),
        "risk.load_empirical_draws.ms":
            _per_call(stats.durations["risk.load_empirical_draws"], 1e3),
        "risk.load_empirical_draws.draws_per_s": _rate(stats, "risk.load_empirical_draws"),
        "risk.empirical_profile.ms": _per_call(stats.durations["risk.empirical_profile"], 1e3),
        "ratios.allocate.us": _per_call(stats.durations["ratios.allocate"], 1e6),
        "ratios.allocate.calls_per_op": stats.calls["ratios.allocate"] / ops,
        "ratios.sharing_weights.calls_per_op": stats.calls["ratios.sharing_weights"] / ops,
        "verification.verify_allocation.us":
            _per_call(stats.durations["verification.verify_allocation"], 1e6),
        "trace.overhead_frac": median(traced_ms) / median(untraced_ms) - 1.0,
    }
    values.update(oracle_solve_us(seed))
    return values
