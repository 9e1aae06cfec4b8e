"""Golden trace hashes: refactors of the decode loop must reproduce these exactly.

Each case pins two SHA-256 values.  The first is over the full trace.  The
second is over the same lines with each ROLLBACK's min_agreement written to
12 significant digits, so it also holds where a live-mode score moves in its
last bits.  The full hashes were taken from the decoder before the serial
stride loop replaced the per-round thread pool, and the rounded ones from the
per-token decoder before stride batching, so they check later code against
earlier behaviour, not against itself.  A hash changes only with a deliberate
behaviour or trace-format change, which then records the old and new values.
Batching each stride moved the two live-mode full hashes: a batched matmul
differs from a per-row one by about 1e-16, which reaches only the printed
min_agreement digits.  Folding w_k into the query and w_v w_o into the output
of note attention moved the full hash of reconsume_live_stochastic for the
same reason: 9 ROLLBACK lines differ, each in its min_agreement digits, by at
most 5.1e-16 relative, and every other line is unchanged.  Publishing each
barrier's notes as one batch, compacted at most once, moved both hashes of
the three cases whose bus compacts (compaction, wide_bus, narrow_notes):
which notes are mean-pooled no longer depends on stream ids, and 2, 38 and
15 final tokens changed, with every rollback and committed count as before.

wide_bus is the one case at bus width: 8 streams of 256 frames read each
other's notes through a 512-row bus, so each reader attends over hundreds of
rows, and a closed gate changes 83 of the 1,984 tokens in its final logs.

narrow_notes is the one case whose note width is not half the stream width
(d=24, d_note=4, so the attention is 12 wide): scaling the scores by
1/sqrt(d_note) instead of 1/sqrt(d_attn) moves both of its hashes.  It reads
its latest snapshot (read_delta=1) of a 14-row bus that compacts at every
one of its 9 barriers and tombstones the notes of three rollbacks, so it
drives each stream's stacked rows through snapshots, compaction and
tombstones.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from pdtcoord.cadence import CadenceConfig
from pdtcoord.decode import DecodeConfig, DecodeTrace, run_parallel
from pdtcoord.replay import (
    ReplayArtifact,
    StreamFrames,
    SynthSpec,
    read_artifact,
    synthesize_artifact,
    write_artifact,
)

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
WIDE_BUS = SynthSpec(
    n_streams=8,
    length=256,
    vocab_size=64,
    d=32,
    d_note=16,
    seed=5,
    gamma=1.5,
    logit_scale=1.0,
    planted_divergences=((1, 40), (6, 200)),
)

NARROW_NOTES = SynthSpec(
    n_streams=4,
    length=72,
    vocab_size=24,
    d=24,
    d_note=4,
    seed=3,
    gamma=1.5,
    logit_scale=0.5,
    planted_divergences=((0, 13), (2, 30), (3, 50)),
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


def wide_bus() -> ReplayArtifact:
    return synthesize_artifact(WIDE_BUS)


def narrow_notes() -> ReplayArtifact:
    return synthesize_artifact(NARROW_NOTES)


def ragged() -> ReplayArtifact:
    """Streams of 56, 19 and 0 frames, built from StreamFrames directly."""
    spec = replace(WIDE, n_streams=3, length=56, seed=17, planted_divergences=((0, 30), (1, 4)))
    base = synthesize_artifact(spec)
    lengths = (56, 19, 0)
    return replace(base, streams=tuple(truncated(f, n) for f, n in zip(base.streams, lengths)))


B8 = DecodeConfig(stride_b=8, horizon_l=8)
STOCHASTIC = CadenceConfig(mode="stochastic", interval_m=3)
ADAPTIVE = CadenceConfig(mode="adaptive", interval_m=4)

# (case id, artifact builder, config, pinned trace hash, pinned rounded hash)
CASES = [
    ("quick_start", quick_start, B8,
     "5918fb7e9a31bbeaab35912d497d77b82d8462c3c4848b1f9decc77caa2dd626",
     "1b6171375c610107dfbe5a50297e8374a15680211f1af5ceb3ba3c13f81acaff"),
    ("live_agreement", quick_start, replace(B8, agreement_mode="live"),
     "f74327eadc2485dd79f0dca22e30cc212d2eeaef5b12df12410b3b6b20fe6cfb",
     "f71105c900184893d33cbe58e97066bdbfeee1111445f4460cd0ed703a9f6b38"),
    ("reconsume", quick_start, replace(B8, regen_mode="reconsume"),
     "92639b2c625e091b10381707d6278568f06be0974788498d3fca87d451270048",
     "6f0baed3d133eb52f3136686ace79601a0d4bdb08156176dcd6294f9c4e54970"),
    ("reconsume_live_stochastic", wide,
     replace(B8, regen_mode="reconsume", agreement_mode="live", cadence=STOCHASTIC),
     "5a4fd80220be5f2553008a9bdf717425d45b3dc1e6516d0bdee3f24cb7be999b",
     "da4b983397a3ce655830c0c05612489e185cb300aea5a7d18d92dbeec18e29c4"),
    ("adaptive_cadence", wide, replace(B8, cadence=ADAPTIVE, warmup_tokens=12),
     "fee98d3d84854f9ad615a5f6cd31ccb864660a635347c0cb8f00dffca23a9b4b",
     "fc5c6daf2c08b72c1a28687e5a0988f553159b55c3774db5bfa227f2c027a7a1"),
    ("read_delta_2", wide, DecodeConfig(stride_b=8, horizon_l=16, read_delta=2, cadence=STOCHASTIC),
     "6e3e3679e07cb4c0ffca08397ffc1a1d9c8b3b32db75123f043f849f311f6015",
     "59b84e7cb4d0992c06c511bcc21448527f680af6ed89b5447fabc70eaf1bb2d3"),
    ("masked_strides", wide, replace(B8, masked_strides=frozenset({1, 3, 4}), warmup_tokens=12),
     "77c341381705fc3e3b9817a24e74525c67867e416fc1024390480bc683648a54",
     "ab024e9802e16b9854080cf759943a9a7af307467bb0877b665eb0d7f9de5713"),
    ("note_noise", wide, replace(B8, note_noise_scale=0.4, cadence=CadenceConfig(interval_m=2)),
     "24498fd98bf40a447216c5f7e7ac7d10a92aab1145a974f459715ff6920d3042",
     "b3063cf39e3d6cb4eeb3de3aeb350e2c6a1efb6b523e047cf50cab1d03d81004"),
    ("compaction", wide,
     replace(B8, bus_capacity=12, bus_retain_k=2, cadence=CadenceConfig(interval_m=1)),
     "9062bd83ad5f721a1ffd18c526b222f4e558c6470d07a5db7063920159066386",
     "3b3e05a709998718e028765d354339b200be187c8b52fa1ff6ddda968d38b81b"),
    ("gate_override", wide, replace(B8, gate_override=0.35),
     "425740a7806a084b3f6b49e3a8415e9a002a3d1d2552bde16fbfe7c52511a149",
     "ded84282659dbba1cd3fc00351715c50ba256dff1c22839fce759ae1c30446d7"),
    ("ragged_streams", ragged, replace(B8, cadence=STOCHASTIC),
     "c060d88965972809298b408bfc7f495a00c01c64a3b4d261a10db60f41efc7cc",
     "4592002bc59a51d56ed83c232a98b9ebbf8f62571ff680db042d6304088038b3"),
    ("ragged_reconsume", ragged,
     DecodeConfig(stride_b=6, horizon_l=12, regen_mode="reconsume", read_delta=1),
     "3f03f4505b7ec93c768d8dfd6b4279af91b37d7bbbfe62891ce44d0274cf43d2",
     "fb548ca870ad0b4e18c09edfc43cb01bec3a40c5a8c7ae091b8d67530f17194a"),
    ("long_stride_seeded", wide,
     DecodeConfig(stride_b=32, horizon_l=32, seed=99, cadence=ADAPTIVE, warmup_tokens=16),
     "82b0b894830aa51d533ee34c0763009601026ecbfcf1ddeaddc3a49b64397976",
     "7e75d4295599d14bd6aa2ba4273b3230e4668c4c97d95ce1ff8aee08cb0404cb"),
    ("wide_bus", wide_bus,
     DecodeConfig(stride_b=32, horizon_l=32, cadence=CadenceConfig(interval_m=1), bus_capacity=512),
     "e716ca2c34b2f028db8a080b0c33b32a45ca8f7848d94b5e82676785dbb966de",
     "97e890d67ebf6bbb7e1466aa0e6cfe0997577c60933198d7f13d808fcb1f45f9"),
    ("narrow_notes", narrow_notes,
     DecodeConfig(stride_b=8, horizon_l=8, read_delta=1, bus_capacity=14, bus_retain_k=2,
                  cadence=CadenceConfig(interval_m=2), warmup_tokens=4),
     "fcdf534342d9cd26bbd37878f4a86ed7a031d48f39bc32620589baa0c660314b",
     "3948df235a6b8ca41be2d587f28c2c343990a9fa6aa296ec487718738a907fec"),
]


def rounded_trace_hash(trace: DecodeTrace) -> str:
    """SHA-256 of the trace lines with min_agreement written as .12g."""
    digest = hashlib.sha256()
    for line in trace.to_lines():
        if line.startswith("ROLLBACK "):
            fields = line.split(" ")
            fields[5] = format(float(fields[5]), ".12g")
            line = " ".join(fields)
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("case_id, build, config, expected, _", CASES, ids=[c[0] for c in CASES])
def test_golden_trace_hash(case_id, build, config, expected, _):
    assert run_parallel(build(), config).trace_hash() == expected


@pytest.mark.parametrize("case_id, build, config, _, expected", CASES, ids=[c[0] for c in CASES])
def test_golden_rounded_trace_hash(case_id, build, config, _, expected):
    assert rounded_trace_hash(run_parallel(build(), config)) == expected


def test_zero_length_stream_survives_artifact_round_trip(tmp_path):
    path = str(tmp_path / "ragged.pdtr")
    write_artifact(ragged(), path)
    artifact = read_artifact(path)
    assert artifact.lengths() == (56, 19, 0)
    _, _, config, expected, _ = next(c for c in CASES if c[0] == "ragged_streams")
    assert run_parallel(artifact, config).trace_hash() == expected
