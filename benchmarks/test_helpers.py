"""Tests of the benchmark's own helpers.

Run from the root of the repository::

    python3 -m pytest -q benchmarks/test_helpers.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from calibration import REFERENCE_S, HostSpeed  # noqa: E402
from stats import OutputDigest, median, self_time, tail_percentile, union_length  # noqa: E402
from tracer import LayerStats, Target, Tracer  # noqa: E402


def test_p90_needs_ten_samples_above_it():
    samples = [float(v) for v in range(1, 101)]
    assert tail_percentile(samples, 0.9) == 90.0
    assert tail_percentile(samples[:99], 0.9) is None


def test_percentile_does_not_count_ties_as_above():
    assert tail_percentile([1.0] * 85 + [2.0] * 15, 0.9) is None
    assert tail_percentile([1.0] * 90 + [2.0] * 10, 0.5) == 1.0


def test_percentile_is_independent_of_order():
    samples = [float((7 * i) % 101) for i in range(101)]
    assert tail_percentile(samples, 0.9) == tail_percentile(sorted(samples), 0.9)


def test_median_refuses_a_lone_sample():
    with pytest.raises(ValueError):
        median([1.0])
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_union_merges_overlaps_and_keeps_gaps():
    assert union_length([]) == 0.0
    assert union_length([(2.0, 5.0), (1.0, 3.0), (7.0, 8.0)]) == 5.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_is_span_minus_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    # A child reaching outside the span only counts inside it.
    assert self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 8.0


def test_digest_is_sha256_of_all_outputs_in_order():
    digest = OutputDigest()
    for chunk in (b"rho,gamma_1\n", b"", b"0,1\n"):
        digest.add(chunk)
    assert digest.hexdigest() == hashlib.sha256(b"rho,gamma_1\n0,1\n").hexdigest()


def test_tracer_records_nested_spans_and_self_times():
    module = SimpleNamespace()
    module.inner = lambda n: list(range(n))
    module.outer = lambda n: len(module.inner(n))
    tracer = Tracer([
        Target(module, "outer", "outer"),
        Target(module, "inner", "inner", work=lambda args, kwargs, result: len(result)),
        Target(module, "gone", "gone"),
    ])
    original = module.outer
    tracer.install()
    try:
        assert module.outer(5) == 5
    finally:
        tracer.uninstall()
    assert module.outer is original
    outer, inner = tracer.take()
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent, inner.work) == ("inner", outer.sid, 5.0)
    assert tracer.take() == []

    stats = LayerStats("root", timed=("inner",), self_timed=("outer",))
    stats.add_op(outer.start - 1.0, outer.end + 1.0, [outer, inner])
    assert stats.calls == {"outer": 1, "inner": 1}
    assert stats.self_times["root"][0] == pytest.approx(2.0)
    assert stats.self_times["outer"][0] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))
    assert len(stats.durations["inner"]) == 1 and "outer" not in stats.durations


def test_workload_inputs_follow_the_seed(tmp_path):
    from workloads import WORKLOADS

    def build(seed: int, name: str) -> list[tuple]:
        work = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
        work.mkdir()
        ops = WORKLOADS[name](seed, work)
        files = sorted((p.name, p.read_bytes()) for p in work.iterdir())
        return [(op.argv[0], op.items, op.expect_code) for op in ops] + files

    for name in ("allocate_cli", "mc_simulate"):
        assert build(3, name) == build(3, name)
        assert build(3, name) != build(4, name)


def test_host_speed_scales_to_the_reference_kernel_time():
    speed = HostSpeed("python")
    reference = REFERENCE_S["python"]
    assert speed.scale(reference, reference) == pytest.approx(1.0)
    # A host at half speed doubles the kernel time; timings made there halve.
    assert speed.scale(2 * reference, 2 * reference) == pytest.approx(0.5)
    assert speed.scale(reference, 3 * reference) == pytest.approx(0.5)
    assert speed.sample() > 0.0 and len(speed.samples) == 1
