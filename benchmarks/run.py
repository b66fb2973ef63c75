"""Benchmark of the plsfair command set, driven by one closed-loop client.

Run it from the root of a checkout::

    python3 benchmarks/run.py --workload allocate_cli --seed 1 --seconds 25 --trace 0

One single-threaded client keeps one operation in flight: each operation is
a call of ``plsfair.cli.main(argv)`` made in this process, and the next one
starts when it returns. The workloads, and why each is here, are described
in ``workloads.py``; the per-layer metrics, and which optimisation should
move each, in ``layers.py``.

A run builds its inputs from ``--seed`` in a scratch directory inside the
checkout, runs one full cycle of the workload's operations as warm-up (their
outputs give the workload's digest), then measures for ``--seconds``.
Between operations, outside the timed region, it runs ``gc.collect()``,
checks the output against the oracle and samples the workload's
calibration kernel (``calibration.py``). Sixteen cold imports of
``plsfair.cli``, each in a fresh interpreter and timed from inside it (so
the interpreter's own start-up is left out), are spread evenly across the
measured window; ``setup_s`` is their median. The load comes from this one
process, and no operation asks the program for threads.

Every end-to-end timing is scaled to a fixed host speed by the kernel
samples taken on each side of it, because this kind of shared host changes
speed by up to 2x within seconds (``calibration.py`` says how and why).
The unscaled figures are printed too.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` each operation runs twice in a row, once under the span
wrappers of ``tracer.py`` and once without, in alternating order; the
traced runs give the per-layer metrics, unscaled, and the pair gives the
tracing overhead. The line before the result describes the run: output
digest, CPU count, Python and numpy versions, git SHA, CPU steal ticks, the
kernel's median sample and the unscaled end-to-end figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from calibration import HostSpeed
from stats import MIN_TAIL, OutputDigest, median, tail_percentile

#: Cold imports per run, spread evenly across the measured window.
COLD_SAMPLES = 16
#: Untraced operations a run needs, so that its p90 has MIN_TAIL samples above it.
MIN_OPS = 12 * MIN_TAIL
#: A run may outlast ``--seconds`` by this much to reach MIN_OPS.
OVERRUN_S = 60.0

#: Kernel samples a cold import takes on each side of it; a fresh
#: interpreter runs the kernel slowly at first, so it takes more than REPEATS.
COLD_REPEATS = 8

COLD_IMPORT = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from calibration import best_time, python_kernel
before = best_time(python_kernel, int(sys.argv[4]))
t0 = time.perf_counter()
if sys.argv[3] == "1":
    import numpy
t1 = time.perf_counter()
import plsfair.cli
t2 = time.perf_counter()
after = best_time(python_kernel, int(sys.argv[4]))
print(t1 - t0, t2 - t1, before, after)
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def program_source(root: Path) -> Path:
    """The checkout's ``src`` directory; the benchmark measures only that copy."""
    src = (root / "src").resolve()
    if not (src / "plsfair" / "cli.py").is_file():
        raise SystemExit(f"error: {src} holds no plsfair package; run from a checkout's root")
    sys.path.insert(0, str(src))
    import plsfair

    if not Path(plsfair.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported plsfair from {plsfair.__file__}, not from {src}")
    return src


def cold_import(src: Path, numpy_first: bool) -> tuple[float, float, float, float]:
    """Import numpy (if asked first) and then plsfair.cli, in a fresh interpreter.

    Returns the seconds of both imports, then the python kernel's samples
    taken in that interpreter before and after them.
    """
    here = str(Path(__file__).resolve().parent)
    done = subprocess.run(
        [sys.executable, "-I", "-c", COLD_IMPORT, str(src), here,
         "1" if numpy_first else "0", str(COLD_REPEATS)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    numpy_s, plsfair_s, before, after = (float(v) for v in done.stdout.split())
    return numpy_s, plsfair_s, before, after


def call(main, op) -> tuple[float, float, int | None, str, str, str | None]:
    """Run one operation; returns (start, end, exit code, stdout, stderr, CSV text)."""
    if op.csv is not None:
        op.csv.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(op.argv)
        except Exception:  # an escaped exception fails the operation, not the run
            code = None
            traceback.print_exc()
        end = time.perf_counter()
    csv_text = None
    if op.csv is not None and op.csv.exists():
        csv_text = op.csv.read_text(encoding="utf-8")
    return start, end, code, out.getvalue(), err.getvalue(), csv_text


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, op, code, stdout, stderr, csv_text, expected_hash=None) -> bytes:
        """Count one operation and return its output bytes (stdout, then CSV)."""
        self.attempted += 1
        blob = (stdout + (csv_text or "")).encode("utf-8")
        problem = op.problem(code, stdout, stderr, csv_text)
        if problem is None and expected_hash is not None:
            if hashlib.sha256(blob).digest() != expected_hash:
                problem = "output differs from the first run of the same operation"
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{' '.join(op.argv[:2])}: {problem}")
        return blob


@dataclass
class Measurement:
    tally: Tally
    digest: str
    latencies: list[float] = field(default_factory=list)  # untraced, scaled to reference speed
    raw_latencies: list[float] = field(default_factory=list)  # untraced, as measured
    traced: list[float] = field(default_factory=list)
    items: float = 0.0
    bytes_out: list[int] = field(default_factory=list)
    cold: dict[str, list[float]] = field(default_factory=lambda: {"numpy": [], "plsfair": []})
    cold_scaled: list[float] = field(default_factory=list)  # plsfair, at reference speed


def measure(ops, src: Path, seconds: float, speed: HostSpeed, tracer, stats) -> Measurement:
    """Warm up, then run whole cycles of the workload's operations for ``seconds``.

    Only whole cycles are measured, so every run times the same multiset of
    operations whatever its seed. Without a tracer, the run goes on past
    ``seconds`` until it has enough operations for a p90, and each untraced
    operation and cold import is bracketed by samples of ``speed``'s kernel.
    With a tracer, each operation runs twice, traced and untraced, in
    alternating order, and nothing is scaled.
    """
    import plsfair.cli as cli

    trace = tracer is not None
    tally = Tally()
    digest = OutputDigest()
    first_hashes = []
    for op in ops:  # warm-up cycle: checked and digested, not timed
        _, _, code, stdout, stderr, csv_text = call(cli.main, op)
        blob = tally.record(op, code, stdout, stderr, csv_text)
        digest.add(blob)
        first_hashes.append(hashlib.sha256(blob).digest())
    cold_import(src, trace)  # writes any missing bytecode before the timed samples
    gc.freeze()  # keeps the collections between operations short

    run = Measurement(tally, digest.hexdigest())
    start = time.perf_counter()
    deadline = start + seconds
    cold_due = [start + (k + 0.5) * seconds / COLD_SAMPLES for k in range(COLD_SAMPLES)]
    cold_speed = HostSpeed("python")
    before = speed.sample()
    i = 0
    while True:
        now = time.perf_counter()
        if cold_due and now >= cold_due[0]:
            cold_due.pop(0)
            numpy_s, plsfair_s, k_before, k_after = cold_import(src, trace)
            run.cold["numpy"].append(numpy_s)
            run.cold["plsfair"].append(plsfair_s)
            run.cold_scaled.append(plsfair_s * cold_speed.scale(k_before, k_after))
            before = speed.sample()
            continue
        j = i % len(ops)
        enough = trace or len(run.latencies) >= MIN_OPS
        if j == 0 and now >= deadline and not cold_due and (
            enough or now >= deadline + OVERRUN_S
        ):
            break
        op = ops[j]
        for traced_run in ((i % 2 == 1, i % 2 == 0) if trace else (False,)):
            if traced_run:
                tracer.install()
            try:
                start_op, end_op, code, stdout, stderr, csv_text = call(cli.main, op)
            finally:
                if traced_run:
                    tracer.uninstall()
            blob = tally.record(op, code, stdout, stderr, csv_text, first_hashes[j])
            if traced_run:
                stats.add_op(start_op, end_op, tracer.take())
                run.traced.append(end_op - start_op)
            else:
                after = before if trace else speed.sample()
                run.latencies.append((end_op - start_op) * speed.scale(before, after))
                run.raw_latencies.append(end_op - start_op)
                run.items += op.items
                run.bytes_out.append(len(blob))
                before = after
        i += 1
    return run


def run_info(root: Path, src: Path, steal: int | None) -> dict:
    """What identifies the machine and the code of a run."""
    import numpy

    sources = hashlib.sha256()
    for path in sorted((src / "plsfair").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "src_sha256": sources.hexdigest(),
        "steal_ticks": steal,
    }


def git_sha(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def steal_ticks() -> int | None:
    """CPU steal ticks of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def end_to_end(latencies: list[float], cold: list[float], items: float) -> dict[str, float]:
    """The end-to-end metrics of a run, from its operation times and cold imports."""
    p90 = tail_percentile(latencies, 0.9)
    if p90 is None:
        raise SystemExit(f"error: {len(latencies)} operations are too few for a p90")
    return {
        "setup_s": median(cold),
        "items_per_s": items / sum(latencies),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    src = program_source(root)

    import layers
    from tracer import Tracer
    from workloads import KERNEL, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    trace = args.trace == 1
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = WORKLOADS[args.workload](args.seed, work)
        tracer = Tracer(layers.targets()) if trace else None
        stats = layers.new_stats() if trace else None
        steal_before = steal_ticks()
        speed = HostSpeed(KERNEL[args.workload])
        run = measure(ops, src, args.seconds, speed, tracer, stats)
        steal_after = steal_ticks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if trace:
        values = layers.metrics(stats, run.cold, run.bytes_out, run.traced, run.raw_latencies,
                                args.seed)
        unscaled = None
        declared = spec["per_layer"]
    else:
        values = end_to_end(run.latencies, run.cold_scaled, run.items)
        unscaled = end_to_end(run.raw_latencies, run.cold["plsfair"], run.items)
        declared = spec["end_to_end"]
    missing = {m["name"] for m in declared} - values.keys()
    if missing:
        raise SystemExit(f"error: the run produced no value for {sorted(missing)}")

    steal = None if steal_before is None or steal_after is None else steal_after - steal_before
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": run.digest, "ops_measured": len(run.latencies),
        "cold_samples": len(run.cold["plsfair"]), "failures": run.tally.messages,
        "kernel": speed.kernel, "kernel_median_ms": median(speed.samples) * 1e3,
        "unscaled": unscaled,
        **run_info(root, src, steal),
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
