"""Walk through a full multi-stream decode against a synthetic artifact.

Synthesizes a three-stream replay artifact with two planted agreement dips,
decodes it under both regeneration policies, and shows that repeated runs
give one trace hash, since the trace is a pure function of (artifact, config).
"""

from __future__ import annotations

from pdtcoord.cadence import CadenceConfig
from pdtcoord.decode import DecodeConfig, run_parallel
from pdtcoord.replay import SynthSpec, synthesize_artifact


def main() -> None:
    spec = SynthSpec(
        n_streams=3,
        length=96,
        vocab_size=32,
        d=16,
        d_note=8,
        seed=11,
        planted_divergences=((0, 20), (2, 70)),
    )
    artifact = synthesize_artifact(spec)
    print(f"artifact: {artifact.n_streams} streams x {spec.length} frames, vocab {artifact.vocab_size}")
    print(f"planted agreement dips at stream 0 frame 20 and stream 2 frame 70\n")

    config = DecodeConfig(
        stride_b=16,
        horizon_l=16,
        cadence=CadenceConfig(mode="deterministic", interval_m=4),
    )
    trace = run_parallel(artifact, config)
    print("--- skip-ahead decode ---")
    for k, log in enumerate(trace.token_logs):
        print(f"  stream {k}: {len(log)} tokens decoded, {trace.committed[k]} committed")
    for ev in trace.rollback_events():
        print(
            f"  rollback: stream {ev.stream_id} at position {ev.trigger_position} "
            f"back to {ev.rolled_back_to} (min agreement {ev.min_agreement:.3f}, "
            f"{ev.pages_dropped} page dropped)"
        )
    print(f"  trace hash {trace.trace_hash()[:16]}...\n")

    # Reconsume re-decodes the same frames; the artifact replays the same low
    # agreement, so after two failed retries the span commits under protest.
    retry = run_parallel(artifact, DecodeConfig(
        stride_b=16,
        horizon_l=16,
        regen_mode="reconsume",
        cadence=CadenceConfig(mode="deterministic", interval_m=4),
    ))
    print("--- reconsume decode ---")
    print(f"  rollbacks: {len(retry.rollback_events())}, forced commits: {retry.forced_commits}")
    print(f"  every stream fully decoded: {[len(t) for t in retry.token_logs]}\n")

    hashes = {run_parallel(artifact, config).trace_hash() for _ in range(3)}
    print(f"three repeated runs produce {len(hashes)} distinct trace hash(es)")

    sample = trace.to_lines()
    print("\nfirst trace lines:")
    for line in sample[:6]:
        print(f"  {line}")
    print(f"  ... ({len(sample)} lines total)")


if __name__ == "__main__":
    main()
