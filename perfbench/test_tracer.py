"""Tests of the benchmark's tracer and checks: python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent)]

from pdtcoord import decode  # noqa: E402
from pdtcoord.cadence import CadenceConfig  # noqa: E402
from pdtcoord.decode import DecodeConfig, run_parallel  # noqa: E402
from run import trace_problems  # noqa: E402
from tracer import Tracer, instrumented, layer_targets, self_times  # noqa: E402
from workloads import make_artifact  # noqa: E402


def small_case():
    rng = np.random.default_rng(7)
    artifact = make_artifact(rng, 3, 64, 16, 8, 4, {0: [5, 40], 2: [20]})
    config = DecodeConfig(
        stride_b=8,
        horizon_l=8,
        regen_mode="reconsume",
        cadence=CadenceConfig("stochastic", 2),
        note_noise_scale=0.05,
        read_delta=1,
        bus_capacity=24,
    )
    return artifact, config


def test_wrapped_names_are_restored():
    targets = layer_targets()
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with instrumented(tracer, targets):
            assert all(vars(owner)[attr] is not orig for (owner, attr, _, _), orig in zip(targets, originals))
            raise RuntimeError("leave the block early")
    assert all(vars(owner)[attr] is orig for (owner, attr, _, _), orig in zip(targets, originals))


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        (1, 0, 0, "root", 0, 100),
        (2, 1, 0, "a", 10, 30),
        (3, 1, 0, "b", 20, 50),  # overlaps a: together they cover 10..50
        (4, 1, 0, "c", 90, 120),  # clipped to the parent: covers 90..100
        (5, 2, 0, "a.child", 12, 15),
        (6, 0, 1, "other_root", 200, 210),
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 3, 30, 30, 3, 10]


def test_nested_spans_split_time_exactly():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        sum(range(10000))
    (inner_id, outer_id, _, _, i_start, i_end), (_, parent, _, _, o_start, o_end) = tracer.spans
    assert parent == 0 and inner_id == 2 and outer_id == 1
    self_s = tracer.self_seconds()
    assert self_s["inner"] * 1e9 == pytest.approx(i_end - i_start)
    assert (self_s["outer"] + self_s["inner"]) * 1e9 == pytest.approx(o_end - o_start)


def test_traced_and_untraced_hashes_agree():
    artifact, config = small_case()
    plain = run_parallel(artifact, config).trace_hash()
    tracer = Tracer()
    with instrumented(tracer, layer_targets()):
        traced = decode.run_parallel(artifact, config).trace_hash()
    assert traced == plain
    for name in ("decode.step_stream", "notebus.compact", "rng.uniform", "rng.normal_array", "decode.to_lines"):
        assert tracer.counts[f"{name}.calls"] > 0, name


def test_checks_catch_a_corrupted_trace_file(tmp_path):
    artifact, config = small_case()
    trace = run_parallel(artifact, config)
    path = tmp_path / "run.trace"
    trace.write(str(path))
    assert trace_problems(trace, config, trace.trace_hash(), path) == []
    path.write_text(path.read_text().replace("tokens=", "tokens=1"))
    assert len(trace_problems(trace, config, trace.trace_hash(), path)) == 2
