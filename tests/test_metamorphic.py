"""Metamorphic oracles: two different decodes that the design says must agree.

(a) No communication is independent decoding.  With every stride masked,
each stream's token log, its (trigger, target) rollbacks and its committed
count equal those of a one-stream artifact that holds that stream alone.
Cadence and note noise are keyed by stream id, and the lone stream is
stream 0, so (a) uses deterministic cadence and no noise.

(b) Causality.  Cut every stream to its first k * stride_b frames: the
records of rounds below k equal the full decode's, so no later frame
reaches an earlier line.  In reconsume mode the cut run may go on past
round k - 1, because a rollback rewinds the cursor; only the rounds below k
are compared.

Neither relation compares a decode with a rerun of itself, and neither
pins a hash: each says what one decode must equal in terms of another.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_hashes import truncated

from pdtcoord.cadence import CadenceConfig
from pdtcoord.decode import MAX_RECONSUME_ATTEMPTS, DecodeConfig, DecodeTrace, run_parallel
from pdtcoord.replay import SynthSpec, synthesize_artifact


@st.composite
def specs(draw) -> SynthSpec:
    # An open gate (gamma 1.5) and flat logits let a sibling's notes move tokens, so a leak shows.
    n_streams = draw(st.integers(2, 4))
    length = draw(st.integers(1, 48))
    return SynthSpec(
        n_streams=n_streams,
        length=length,
        vocab_size=draw(st.integers(2, 12)),
        d=8,
        d_note=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**20)),
        gamma=draw(st.sampled_from([-4.0, 1.5])),
        logit_scale=draw(st.sampled_from([1.0, 3.0])),
        planted_divergences=tuple(
            draw(st.lists(st.tuples(st.integers(0, n_streams - 1), st.integers(0, length - 1)), max_size=4))
        ),
    )


@st.composite
def configs(draw, choices: list[dict]) -> DecodeConfig:
    stride = draw(st.integers(1, 6))
    setting = dict(draw(st.sampled_from(choices)))
    cadence = setting.pop("cadence", "deterministic")
    return DecodeConfig(
        stride_b=stride,
        horizon_l=stride * draw(st.integers(1, 2)),
        cadence=CadenceConfig(mode=cadence, interval_m=draw(st.integers(1, 4))),
        **setting,
    )


def stream_result(trace: DecodeTrace, sid: int) -> tuple:
    """Stream sid's token log, (trigger, target) rollbacks and committed count."""
    rollbacks = [(r.trigger_position, r.rolled_back_to) for r in trace.rollback_events() if r.stream_id == sid]
    return trace.token_logs[sid], rollbacks, trace.committed[sid]


# Skip-ahead, reconsume, live agreement, and a 20-row bus that compacts, read one snapshot back.
ALONE_SETTINGS = [{}, {"regen_mode": "reconsume"}, {"agreement_mode": "live"}, {"bus_capacity": 20, "read_delta": 1}]


@settings(max_examples=40, deadline=None)
@given(spec=specs(), config=configs(ALONE_SETTINGS))
def test_with_every_stride_masked_each_stream_decodes_as_if_alone(spec, config):
    art = synthesize_artifact(spec)
    # A span is tried at most MAX_RECONSUME_ATTEMPTS + 1 times, and every round decodes a frame.
    rounds = spec.length * (MAX_RECONSUME_ATTEMPTS + 1)
    masked = run_parallel(art, replace(config, masked_strides=frozenset(range(rounds))))
    assert all(r.round_index < rounds for r in masked.records)
    for sid, frames in enumerate(art.streams):
        alone = run_parallel(replace(art, streams=(frames,)), config)
        assert stream_result(masked, sid) == stream_result(alone, 0), sid


# Skip-ahead, reconsume with stochastic cadence, and a read two snapshots back.
CAUSAL_SETTINGS = [{}, {"regen_mode": "reconsume", "cadence": "stochastic"}, {"read_delta": 2}]


@settings(max_examples=40, deadline=None)
@given(spec=specs(), config=configs(CAUSAL_SETTINGS), k=st.sampled_from([1, 2, 3, 5]))
def test_cutting_the_frames_after_round_k_leaves_the_rounds_before_it(spec, config, k):
    art = synthesize_artifact(spec)
    frames = k * config.stride_b
    cut = replace(art, streams=tuple(truncated(f, min(f.length, frames)) for f in art.streams))

    def early(trace: DecodeTrace) -> list:
        return [r for r in trace.records if r.round_index < k]

    assert early(run_parallel(cut, config)) == early(run_parallel(art, config))
