"""Replay-decode benchmark for pdtcoord.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src.  The
workload's artifacts are generated from --seed, written to files, and read
back (set-up).  Then ops run for about --seconds: each op reads an artifact
file and decodes it, and a decode op also hashes and writes its trace.  Every
op is checked (see `trace_problems`).  The last line of standard output is one
JSON object: end-to-end metrics with --trace 0, per-layer metrics from a
separately traced run with --trace 1.  End-to-end times are normalised to
a reference host speed measured as the run goes (hostspeed.py).  The line
before the result records the seed, the unnormalised figures and every trace
hash.  METRICS.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
PEAK_JOBS = 16


@dataclass
class Op:
    """Timings and sizes of one op; decoded and committed are token counts."""

    op_s: float
    decode_s: float
    decoded: int
    committed: int
    probe: tuple[int, float]  # host-speed samples taken during the op, and their loop time


def artifact_fields(artifact) -> list[tuple[str, object]]:
    """Every header value and array of an artifact, arrays as raw float64/bool bytes."""
    fields: list[tuple[str, object]] = [
        (name, getattr(artifact, name)) for name in ("vocab_size", "d", "d_note", "d_bottleneck", "d_attn", "seed")
    ]
    params = {"adapter": artifact.adapter, "snc": artifact.snc, "agreement": artifact.agreement}
    for group, obj in params.items():
        for name, value in vars(obj).items():
            fields.append((f"{group}.{name}", value.tobytes() if hasattr(value, "tobytes") else value))
    fields.append(("readout", artifact.readout.tobytes()))
    for k, frames in enumerate(artifact.streams):
        for name, value in vars(frames).items():
            fields.append((f"stream[{k}].{name}", value.tobytes()))
    return fields


def trace_problems(trace, config, digest: str, trace_path: Path) -> list[str]:
    """Invariants every decode must keep; an empty list means the op is correct."""
    problems = []
    for ev in trace.rollback_events():
        if ev.trigger_position - ev.rolled_back_to > config.horizon_l:
            problems.append(f"rollback span {ev.trigger_position - ev.rolled_back_to} > horizon_l")
    for sid, target, log in trace.rollback_states:
        if len(log) != target or trace.token_logs[sid][:target] != log:
            problems.append(f"stream {sid}: rollback state to {target} is not a prefix of the final log")
    for k, (committed, log) in enumerate(zip(trace.committed, trace.token_logs)):
        if committed > len(log):
            problems.append(f"stream {k}: committed {committed} > {len(log)} tokens")
    data = trace_path.read_bytes()
    if hashlib.sha256(data).hexdigest() != digest:
        problems.append("written trace file does not hash to trace_hash()")
    summary = re.fullmatch(r"SUMMARY .*\btokens=(\d+)\b.*", data.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode())
    if summary is None:
        problems.append("written trace does not end with a SUMMARY line")
    elif int(summary[1]) != sum(len(log) for log in trace.token_logs):
        problems.append(f"SUMMARY tokens={summary[1]} differs from the token logs")
    return problems


class Bench:
    def __init__(self, workload, seed: int, workdir: Path) -> None:
        from pdtcoord import cadence, decode, replay, sweeps
        from hostspeed import HostProbe
        from workloads import SWEEP_GRID

        # Calls go through the module attributes, so a traced run sees the tracer's wrappers.
        self.cadence, self.decode, self.replay, self.sweeps = cadence, decode, replay, sweeps
        self.grid = SWEEP_GRID
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.jobs = []
        self.hashes: dict[str, tuple[str, ...]] = {}
        self.reference: dict[str, tuple[int, int]] = {}
        self.peaks: list[float] = []
        self.probe = HostProbe()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def path(self, name: str, suffix: str) -> Path:
        return self.workdir / f"{name}{suffix}"

    def setup(self) -> float:
        """Generate and write every artifact of the workload; returns seconds taken."""
        start = self.probe.clock()
        self.jobs = self.workload.build(self.seed)
        for job in self.jobs:
            self.replay.write_artifact(job.artifact, str(self.path(job.name, ".pdtr")))
        return self.probe.clock() - start

    def prepare(self, repeats: int, min_s: float = 0.0) -> tuple[list[float], tuple[int, float]]:
        """Set up at least `repeats` times and for `min_s` seconds, check the round
        trip and build references; returns set-up times and the host-speed samples
        taken during them."""
        setups: list[float] = []
        with self.probe.sampling():
            while len(setups) < repeats or sum(setups) < min_s:
                setups.append(self.setup())
            probe = self.probe.reading()
        self.check_round_trip()
        if self.workload.sweep:
            self.build_sweep_reference()
        return setups, probe

    def fail(self, job: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{job}: {p}" for p in problems)

    def check_round_trip(self) -> None:
        for job in self.jobs:
            self.attempted += 1
            back = self.replay.read_artifact(str(self.path(job.name, ".pdtr")))
            if artifact_fields(back) != artifact_fields(job.artifact):
                self.fail(job.name, ["read_artifact(write_artifact(a)) differs from a"])

    def sweep_configs(self, config) -> list:
        """The grid cadence_sweep decodes, in its row order."""
        return [
            replace(
                config,
                cadence=self.cadence.CadenceConfig(mode=mode, interval_m=m),
                stride_b=b,
                horizon_l=max(config.horizon_l, b),
            )
            for mode in self.grid["modes"]
            for m in self.grid["intervals"]
            for b in self.grid["strides"]
        ]

    def build_sweep_reference(self) -> None:
        """Decode each sweep grid point directly, check it, and keep its hash, token counts and memory peak."""
        for job in self.jobs:
            hashes, decoded, committed = [], 0, 0
            for i, config in enumerate(self.sweep_configs(job.config)):
                self.attempted += 1
                trace, peak = peak_mib(lambda: self.decode.run_parallel(job.artifact, config))
                self.peaks.append(peak)
                digest, trace_path = trace.trace_hash(), self.path(f"{job.name}-{i}", ".trace")
                trace.write(str(trace_path))
                problems = trace_problems(trace, config, digest, trace_path)
                if problems:
                    self.fail(job.name, problems)
                hashes.append(digest)
                decoded += sum(1 for e in trace.events if isinstance(e, self.decode.TokenEvent))
                committed += sum(trace.committed)
            self.hashes[job.name] = tuple(hashes)
            self.reference[job.name] = (decoded, committed)

    def run_op(self, job) -> Op:
        artifact_path = self.path(job.name, ".pdtr")
        clock, probe0 = self.probe.clock, self.probe.reading()
        t0 = clock()
        artifact = self.replay.read_artifact(str(artifact_path))
        t1 = clock()
        if self.workload.sweep:
            rows = self.sweeps.cadence_sweep(artifact, job.config, **self.grid)
            t2 = t3 = clock()
            hashes = tuple(r.trace_hash for r in rows)
            decoded, committed = self.reference[job.name]
            problems = [] if hashes == self.hashes[job.name] else ["sweep row hashes differ from direct decodes"]
        else:
            trace = self.decode.run_parallel(artifact, job.config)
            t2 = clock()
            trace_path = self.path(job.name, ".trace")
            digest = trace.trace_hash()
            trace.write(str(trace_path))
            t3 = clock()
            hashes = (digest,)
            decoded = sum(1 for e in trace.events if isinstance(e, self.decode.TokenEvent))
            committed = sum(trace.committed)
            problems = trace_problems(trace, job.config, digest, trace_path)
            if self.hashes.setdefault(job.name, hashes) != hashes:
                problems.append("trace hash differs from an earlier repetition")
        if problems:
            self.fail(job.name, problems)
        return Op(
            op_s=t3 - t0,
            decode_s=t2 - t1,
            decoded=decoded,
            committed=committed,
            probe=tuple(b - a for a, b in zip(probe0, self.probe.reading())),
        )

    def try_op(self, job) -> Op | None:
        self.attempted += 1
        try:
            return self.run_op(job)
        except Exception:  # an op that raises is a failed op; the run goes on
            traceback.print_exc(file=sys.stderr)
            self.fail(job.name, ["raised"])
            return None

    def decode_peak_mib(self) -> float:
        """Median tracemalloc peak of one decode, untimed: over the first PEAK_JOBS
        jobs, or over the grid points that the sweep reference decoded."""
        if self.workload.sweep:
            return statistics.median(self.peaks)
        for job in self.jobs[:PEAK_JOBS]:
            artifact = self.replay.read_artifact(str(self.path(job.name, ".pdtr")))
            self.peaks.append(peak_mib(lambda: self.decode.run_parallel(artifact, job.config))[1])
        return statistics.median(self.peaks)


def peak_mib(fn):
    """fn()'s result and the tracemalloc peak, in MiB, of the memory it allocated."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Op], dict]:
    """End-to-end metrics, normalised to the reference host speed (see hostspeed.py),
    and the same figures unnormalised."""
    from hostspeed import REFERENCE_S, pooled_factor, scale_factors

    setups, setup_probe = bench.prepare(SETUP_REPEATS, SETUP_MIN_S)
    peak = bench.decode_peak_mib()
    ops: list[Op] = []
    start, i = time.perf_counter(), 0
    with bench.probe.sampling():
        while i == 0 or fits(time.perf_counter() - start, i, seconds):
            op = bench.try_op(bench.jobs[i % len(bench.jobs)])
            i += 1
            if op is not None:
                ops.append(op)
    if not ops:
        return {}, ops, {}

    # Medians over ops, not totals over the run: a stretch of seconds in which
    # the host runs the process slowly then moves each figure by one op's worth.
    def figures(factors: list[float], setup_factor: float) -> dict[str, tuple[float, str]]:
        scaled = list(zip(ops, factors))
        return {
            "decode_tok_s": (statistics.median(o.decoded / (o.decode_s * f) for o, f in scaled), "tok/s"),
            "committed_tok_s": (statistics.median(o.committed / (o.decode_s * f) for o, f in scaled), "tok/s"),
            "op_ms_p50": (statistics.median(1e3 * o.op_s * f for o, f in scaled), "ms"),
            "decode_peak_MiB": (peak, "MiB"),
            "setup_s": (statistics.median(setups) * setup_factor, "s"),
        }

    probes = [o.probe for o in ops]
    metrics = figures(scale_factors(probes), pooled_factor([setup_probe]))
    raw = {name: value for name, (value, _) in figures([1.0] * len(ops), 1.0).items()}
    raw["host_loop_ms"] = 1e3 * REFERENCE_S / pooled_factor([setup_probe, *probes])
    return metrics, ops, raw


def fits(elapsed: float, done: int, seconds: float) -> bool:
    """Whether one more step, as long as the average so far, still ends within `seconds`."""
    return elapsed * (done + 1) / done <= seconds


def per_layer(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, list[Op]]:
    """Alternate untraced and traced ops over whole passes of the jobs, for about `seconds`."""
    from tracer import Tracer, instrumented, layer_targets

    bench.prepare(1)
    bench.try_op(bench.jobs[0])  # warm-up, so the first untraced op is not the only cold one
    tracer, targets = Tracer(), layer_targets()
    plain: list[Op] = []
    traced: list[Op] = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or fits(time.perf_counter() - start, passes, seconds):
        for job in bench.jobs:
            op = bench.try_op(job)
            with instrumented(tracer, targets), tracer.span("bench.op"):
                traced_op = bench.try_op(job)
            tracer.run_id += 1
            if op is not None and traced_op is not None:
                plain.append(op)
                traced.append(traced_op)
        passes += 1
    tracer.write(str(spans_path))
    if not traced:
        return {}, plain
    c = {k: v / passes for k, v in tracer.counts.items()}
    s = {k: v / passes for k, v in tracer.self_seconds().items()}
    trace_out_s = sum(s.get(f"decode.{n}", 0.0) for n in ("to_lines", "trace_hash", "write"))
    metrics: dict[str, tuple[float, str]] = {}
    for name in (
        "notebus.read_lagged",
        "notebus.stack_sibling_rows",
        "notebus.snapshot",
        "notebus.publish",
        "notebus.tombstone_after",
        "notebus.dump_lines",
        "snc.apply_adapter",
        "snc.attend_notes",
        "snc.gate_controller_step",
        "decode.run_parallel",
        "decode.step_stream",
        "decode.check_and_rollback",
        "replay.read_artifact",
        "cadence.next_emission",
        "kernels.row_softmax",
        "kernels.logistic",
    ):
        metrics[f"{name}.calls"] = (c.get(f"{name}.calls", 0.0), "count")
        metrics[f"{name}.self_s"] = (s.get(name, 0.0), "s")
    for name in (
        "notebus.compact.calls",
        "notebus.stack_sibling_rows.rows",
        "notebus.tombstone_after.notes",
        "snc.apply_adapter.rows",
        "snc.attend_notes.rows",
        "snc.agreement_score.calls",
        "decode.to_lines.calls",
        "decode.write.calls",
        "rng.uniform.calls",
        "memmodel.pages_touched.calls",
        "memmodel.pages_touched.pages",
        "sweeps.cadence_sweep.calls",
    ):
        metrics[name] = (c.get(name, 0.0), "count")
    decoded = c.get("decode.run_parallel.decoded", 0.0)
    metrics.update(
        {
            "replay.read_artifact.MiB": (c.get("replay.read_artifact.MiB", 0.0), "MiB"),
            "decode.rollbacks": (c.get("decode.run_parallel.rollbacks", 0.0), "count"),
            "decode.forced_commits": (c.get("decode.run_parallel.forced_commits", 0.0), "count"),
            "decode.useful_ratio": (c.get("decode.run_parallel.committed", 0.0) / decoded if decoded else 0.0, "ratio"),
            "decode.trace_hash.self_s": (s.get("decode.trace_hash", 0.0), "s"),
            "decode.trace_out.self_s": (trace_out_s, "s"),
            "decode.trace_out.bytes": (c.get("decode.to_lines.bytes", 0.0), "bytes"),
            "decode.trace_out.MiB_s": (c.get("decode.to_lines.bytes", 0.0) / 2**20 / trace_out_s if trace_out_s else 0.0, "MiB/s"),
            "trace_overhead_ratio": (sum(o.op_s for o in traced) / sum(o.op_s for o in plain), "ratio"),
            "op_ms_p95": (float(np.percentile([1e3 * o.op_s for o in plain], 95)), "ms"),
            "artifact_read_MiB_s": (c.get("replay.read_artifact.MiB", 0.0) / s["replay.read_artifact"], "MiB/s"),
        }
    )
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    try:
        import pdtcoord
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the pdtcoord package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(pdtcoord.__file__).resolve().parent != ROOT / "src" / "pdtcoord":
        print(f"pdtcoord was imported from {pdtcoord.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    outdir = ROOT / ".perfbench_out"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, workdir)
    try:
        raw: dict = {}
        if args.trace:
            metrics, ops = per_layer(bench, args.seconds, outdir / f"spans-{args.workload}.csv")
        else:
            metrics, ops, raw = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "ops": len(ops),
                "unnormalised": raw,
                "trace_hashes": bench.hashes,
                "problems": bench.problems[:20],
            }
        )
    )
    result = {
        "correct": bench.failed == 0 and bool(ops),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
