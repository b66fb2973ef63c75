"""Host-speed calibration: fixed reference kernels timed next to every operation.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 2x within seconds: a neighbour's load slows interpreter-bound code by
that much and vectorised numpy code far less. Thread CPU time follows wall
time through such a phase, so the slowdown is the core's, not preemption,
and no choice of clock removes it. A run of 25 s can fall wholly in a slow
phase or wholly in a fast one, so raw wall times of the same code spread by
more than any useful bound between runs.

Each timed operation (and each cold import) is therefore bracketed by two
samples of a reference kernel: fixed code of the benchmark's own, which no
change to the program can alter. Its time says how fast the host runs that
kind of code at that moment. A timing is reported scaled to the speed at
which the kernel takes its reference time::

    scaled = raw * REFERENCE_S[kernel] / mean(kernel before, kernel after)

so the figures read as milliseconds (or seconds) on a host of fixed speed.
A faster program still gives a smaller scaled time, as the kernel does not
change with it. Each workload is scaled by the kernel that slows like it
(``workloads.KERNEL``): ``python`` for interpreter-bound work (argument
parsing, formatting, parsing text), ``numpy`` for array work (Monte Carlo).
The raw, unscaled figures are printed as well, in the run's info line.

A kernel sample is the fastest of ``REPEATS`` back-to-back repetitions, so
that a single preemption does not read as a slow host. A cold import runs
in a fresh interpreter, which the host may place on another core than the
benchmark's, so that interpreter samples the python kernel itself, right
before and right after the import.
"""

from __future__ import annotations

import time

#: Back-to-back repetitions of a kernel per sample; the fastest one counts.
REPEATS = 3

_WORDS = [f"key{i:03d}" for i in range(64)]
_TEXT = [repr(0.001 * i * i + 0.37) for i in range(400)]


def python_kernel() -> float:
    """Interpreter-bound work: dict updates, float formatting and parsing, calls."""
    table: dict[str, float] = {}
    total = 0.0
    for i, text in enumerate(_TEXT):
        value = float(text)
        key = _WORDS[i % len(_WORDS)]
        table[key] = table.get(key, 0.0) + value
        total += len(f"{value:.12g},{value * 0.5:.6f}")
    return total + sum(sorted(table.values()))


_RNG_SEED = 20250701
_ARRAY_N = 50_000


def numpy_kernel() -> float:
    """Array work: seeded normal draws, exp, clipping and a mean."""
    # Imported here, so that a cold import can time the python kernel
    # before numpy is loaded.
    import numpy as np

    draws = np.random.default_rng(_RNG_SEED).standard_normal(_ARRAY_N)
    values = np.exp(0.2 * draws)
    return float(np.maximum(values - 1.0, 0.0).mean())


def best_time(kernel, repeats: int = REPEATS) -> float:
    """Seconds of the fastest of ``repeats`` back-to-back runs of ``kernel``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}

#: Seconds one kernel sample takes on the reference host speed: the median
#: sample on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) in a fast phase.
REFERENCE_S = {"python": 0.43e-3, "numpy": 1.6e-3}


class HostSpeed:
    """Samples one kernel and scales timings to its reference speed."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self._fn = KERNELS[kernel]
        self._reference = REFERENCE_S[kernel]
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel now and keep the sample."""
        self.samples.append(best_time(self._fn))
        return self.samples[-1]

    def scale(self, before: float, after: float) -> float:
        """Factor that takes a timing made between two samples to reference speed."""
        return self._reference / (0.5 * (before + after))
