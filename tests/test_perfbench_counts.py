"""The benchmark's decode counts equal the ones the trace itself gives.

perfbench/tracer.py counts a decode's tokens and rollbacks from
DecodeTrace.events.  This test imports it read-only and requires, on every
golden case, that those counts equal the ones read off the records, so a
change to events that the tracer would misread fails here.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
from test_golden_hashes import CASES

from pdtcoord.decode import StrideTokens, run_parallel

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("case_id, build, config", [c[:3] for c in CASES], ids=[c[0] for c in CASES])
def test_benchmark_counts_are_the_trace_counts(case_id, build, config):
    trace = run_parallel(build(), config)
    assert tracer._decode_counts((), trace) == {
        "decoded": sum(len(r.token_ids) for r in trace.records if isinstance(r, StrideTokens)),
        "committed": sum(trace.committed),
        "rollbacks": len(trace.rollback_events()),
        "forced_commits": trace.forced_commits,
    }
