"""In-memory span tracer, and the wrappers that time calls into pdtcoord's layers.

A span is (span_id, parent_id, run_id, name, start_ns, end_ns); parent_id 0
means a root span, and spans of one benchmark op share a run_id.  Spans stay
in memory until `write` saves them at the end of a run.  A span's self time
is its duration minus the part of it that its children cover.

`instrumented` swaps the functions that pdtcoord's modules bind (and the
NotesBus / DecodeTrace methods) for timing wrappers and restores the
originals on exit.  Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from pdtcoord import cadence, decode, replay, snc, sweeps
from pdtcoord.decode import DecodeTrace, RollbackEvent, TokenEvent
from pdtcoord.notebus import NotesBus

Span = tuple[int, int, int, str, int, int]
Counter = Callable[[tuple, Any], dict[str, float]]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack = [0]
        self._next_id = 1

    def _open(self) -> tuple[int, int]:
        span_id, parent = self._next_id, self._stack[-1]
        self._next_id += 1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((span_id, parent, self.run_id, name, start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        """fn timed as span `name`; counter(args, result) adds to `name.<key>` counts."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        totals: defaultdict[str, float] = defaultdict(float)
        for span, self_ns in zip(self.spans, self_times(self.spans)):
            totals[span[3]] += self_ns / 1e9
        return dict(totals)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,run_id,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Self time in ns of each span: its duration minus the union of its children."""
    children: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out = []
    for span_id, _, _, _, start, end in spans:
        covered, run_start, run_end = 0, start, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if c_start > run_end:
                covered += run_end - run_start
                run_start = c_start
            run_end = max(run_end, c_end)
        covered += run_end - run_start
        out.append(end - start - covered)
    return out


# -- pdtcoord layers ----------------------------------------------------------


def _decode_counts(args: tuple, trace: DecodeTrace) -> dict[str, float]:
    return {
        "decoded": sum(1 for e in trace.events if isinstance(e, TokenEvent)),
        "committed": sum(trace.committed),
        "rollbacks": sum(1 for e in trace.events if isinstance(e, RollbackEvent)),
        "forced_commits": trace.forced_commits,
    }


def layer_targets() -> list[tuple[object, str, str, Counter | None]]:
    """(owner, attribute, span name, counter) for every call the benchmark times.

    The owner is the module that binds the name where it is called from, so
    decode's own `apply_adapter` is wrapped in pdtcoord.decode, and the
    `row_softmax` inside attend_notes in pdtcoord.snc.
    """
    return [
        (replay, "read_artifact", "replay.read_artifact", lambda a, r: {"MiB": os.path.getsize(a[0]) / 2**20}),
        (sweeps, "cadence_sweep", "sweeps.cadence_sweep", None),
        (decode, "run_parallel", "decode.run_parallel", _decode_counts),
        (sweeps, "run_parallel", "decode.run_parallel", _decode_counts),
        (decode, "step_stream", "decode.step_stream", None),
        (decode, "check_and_rollback", "decode.check_and_rollback", None),
        (decode, "stack_sibling_rows", "notebus.stack_sibling_rows", lambda a, r: {"rows": r[0].shape[0]}),
        (decode, "apply_adapter", "snc.apply_adapter", lambda a, r: {"rows": a[0].shape[0]}),
        (decode, "attend_notes", "snc.attend_notes", lambda a, r: {"rows": a[1].shape[0]}),
        (decode, "gate_controller_step", "snc.gate_controller_step", None),
        (decode, "agreement_score", "snc.agreement_score", None),
        (decode, "next_emission", "cadence.next_emission", None),
        (decode, "pages_touched", "memmodel.pages_touched", lambda a, r: {"pages": r}),
        (decode, "normal_array", "rng.normal_array", None),
        (decode, "logistic", "kernels.logistic", None),
        (decode, "row_softmax", "kernels.row_softmax", None),
        (snc, "row_softmax", "kernels.row_softmax", None),
        (cadence, "uniform", "rng.uniform", None),
        (NotesBus, "read_lagged", "notebus.read_lagged", None),
        (NotesBus, "snapshot", "notebus.snapshot", None),
        (NotesBus, "publish", "notebus.publish", None),
        (NotesBus, "compact", "notebus.compact", None),
        (NotesBus, "tombstone_after", "notebus.tombstone_after", lambda a, r: {"notes": r}),
        (NotesBus, "dump_lines", "notebus.dump_lines", None),
        (DecodeTrace, "to_lines", "decode.to_lines", lambda a, r: {"bytes": sum(map(len, r)) + len(r)}),
        (DecodeTrace, "trace_hash", "decode.trace_hash", None),
        (DecodeTrace, "write", "decode.write", None),
    ]


@contextmanager
def instrumented(tracer: Tracer, targets: list[tuple[object, str, str, Counter | None]]) -> Iterator[Tracer]:
    """Replace each target attribute with a tracer wrapper; restore all on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name, counter in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
