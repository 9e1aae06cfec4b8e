"""Golden trace hashes: refactors of the decode loop must reproduce these exactly.

Each case pins the SHA-256 of a full trace.  The hashes were taken from the
decoder before the serial stride loop replaced the per-round thread pool, so
they check later code against earlier behaviour, not against itself.  A hash
changes only with a deliberate behaviour or trace-format change, which then
records the old and new values.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from pdtcoord.cadence import CadenceConfig
from pdtcoord.decode import DecodeConfig, run_parallel
from pdtcoord.replay import ReplayArtifact, StreamFrames, SynthSpec, synthesize_artifact

QUICK_START = SynthSpec(
    n_streams=3,
    length=96,
    vocab_size=32,
    d=16,
    d_note=8,
    seed=11,
    planted_divergences=((0, 20), (2, 70)),
)
WIDE = SynthSpec(
    n_streams=4,
    length=80,
    vocab_size=24,
    d=12,
    d_note=6,
    seed=3,
    gamma=1.5,
    logit_scale=1.0,
    planted_divergences=((1, 9), (3, 41), (0, 66)),
)


def truncated(frames: StreamFrames, n: int) -> StreamFrames:
    return StreamFrames(
        logits=frames.logits[:n],
        hidden=frames.hidden[:n],
        agreement=frames.agreement[:n],
        note_present=frames.note_present[:n],
        note_embeddings=frames.note_embeddings[:n],
    )


def quick_start() -> ReplayArtifact:
    return synthesize_artifact(QUICK_START)


def wide() -> ReplayArtifact:
    return synthesize_artifact(WIDE)


def ragged() -> ReplayArtifact:
    """Streams of 56, 19 and 0 frames, built from StreamFrames directly."""
    spec = replace(WIDE, n_streams=3, length=56, seed=17, planted_divergences=((0, 30), (1, 4)))
    base = synthesize_artifact(spec)
    lengths = (56, 19, 0)
    return replace(base, streams=tuple(truncated(f, n) for f, n in zip(base.streams, lengths)))


B8 = DecodeConfig(stride_b=8, horizon_l=8)
STOCHASTIC = CadenceConfig(mode="stochastic", interval_m=3)
ADAPTIVE = CadenceConfig(mode="adaptive", interval_m=4)

# (case id, artifact builder, config, pinned trace hash)
CASES = [
    ("quick_start", quick_start, B8,
     "5918fb7e9a31bbeaab35912d497d77b82d8462c3c4848b1f9decc77caa2dd626"),
    ("live_agreement", quick_start, replace(B8, agreement_mode="live"),
     "9e0a43f70affa8f9cf7c379e94a554ad74331190861179fa85e5e07d9585db51"),
    ("reconsume", quick_start, replace(B8, regen_mode="reconsume"),
     "92639b2c625e091b10381707d6278568f06be0974788498d3fca87d451270048"),
    ("reconsume_live_stochastic", wide,
     replace(B8, regen_mode="reconsume", agreement_mode="live", cadence=STOCHASTIC),
     "223d08b9699b9734bee696faf3b40a5c27e0ead8d488c6eb88f61881a644ba73"),
    ("adaptive_cadence", wide, replace(B8, cadence=ADAPTIVE, warmup_tokens=12),
     "fee98d3d84854f9ad615a5f6cd31ccb864660a635347c0cb8f00dffca23a9b4b"),
    ("read_delta_2", wide, DecodeConfig(stride_b=8, horizon_l=16, read_delta=2, cadence=STOCHASTIC),
     "6e3e3679e07cb4c0ffca08397ffc1a1d9c8b3b32db75123f043f849f311f6015"),
    ("masked_strides", wide, replace(B8, masked_strides=frozenset({1, 3, 4}), warmup_tokens=12),
     "77c341381705fc3e3b9817a24e74525c67867e416fc1024390480bc683648a54"),
    ("note_noise", wide, replace(B8, note_noise_scale=0.4, cadence=CadenceConfig(interval_m=2)),
     "24498fd98bf40a447216c5f7e7ac7d10a92aab1145a974f459715ff6920d3042"),
    ("compaction", wide,
     replace(B8, bus_capacity=12, bus_retain_k=2, cadence=CadenceConfig(interval_m=1)),
     "b6b6478c15a1143660fe78a21c2523a75d8dfc9bff4651bfd2391c0ea4f1003e"),
    ("gate_override", wide, replace(B8, gate_override=0.35),
     "425740a7806a084b3f6b49e3a8415e9a002a3d1d2552bde16fbfe7c52511a149"),
    ("ragged_streams", ragged, replace(B8, cadence=STOCHASTIC),
     "c060d88965972809298b408bfc7f495a00c01c64a3b4d261a10db60f41efc7cc"),
    ("ragged_reconsume", ragged,
     DecodeConfig(stride_b=6, horizon_l=12, regen_mode="reconsume", read_delta=1),
     "3f03f4505b7ec93c768d8dfd6b4279af91b37d7bbbfe62891ce44d0274cf43d2"),
    ("long_stride_seeded", wide,
     DecodeConfig(stride_b=32, horizon_l=32, seed=99, cadence=ADAPTIVE, warmup_tokens=16),
     "82b0b894830aa51d533ee34c0763009601026ecbfcf1ddeaddc3a49b64397976"),
]


@pytest.mark.parametrize("case_id, build, config, expected", CASES, ids=[c[0] for c in CASES])
def test_golden_trace_hash(case_id, build, config, expected):
    assert run_parallel(build(), config).trace_hash() == expected
