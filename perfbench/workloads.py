"""Benchmark workloads: artifacts built from a seed, and the decode settings for each.

Artifacts are made here with a numpy generator and the public ReplayArtifact,
StreamFrames, AdapterParams, SncParams and AgreementParams constructors, not
with synthesize_artifact, so recalibrating the package's synthesizer cannot
change a workload.  Each workload returns a list of jobs; op i of a run
decodes job i modulo the number of jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from pdtcoord.cadence import CadenceConfig
from pdtcoord.decode import DecodeConfig
from pdtcoord.replay import ReplayArtifact, StreamFrames
from pdtcoord.snc import AdapterParams, AgreementParams, SncParams

# cadence_sweep's grid in the sweep_grid workload: 3 intervals x 3 strides x 2 modes.
SWEEP_GRID = {"intervals": (2, 4, 8), "strides": (8, 16, 32), "modes": ("deterministic", "stochastic")}


@dataclass(frozen=True)
class Job:
    """One artifact and the config it is decoded with; name keys repetitions."""

    name: str
    artifact: ReplayArtifact
    config: DecodeConfig


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: bool
    build: Callable[[int], list[Job]]


def make_artifact(
    rng: np.random.Generator,
    n_streams: int,
    length: int,
    vocab: int,
    d: int,
    d_note: int,
    low: dict[int, list[int]],
) -> ReplayArtifact:
    """Random artifact whose agreement stays near 0.9 except at the `low` frames.

    low maps a stream id to the positions whose agreement is planted below
    tau=0.5, so a decoder in artifact agreement mode rolls back over them.
    """
    db, da = max(2, d // 4), max(2, d // 2)

    def normal(rows: int, cols: int) -> np.ndarray:
        return rng.standard_normal((rows, cols)) / np.sqrt(rows)

    adapter = AdapterParams(w_down=normal(d, db), w_up=normal(db, d))
    snc = SncParams(w_q=normal(d, da), w_k=normal(d_note, da), w_v=normal(d_note, da), w_o=normal(da, d))
    agreement = AgreementParams(w_agree=normal(d, 1)[:, 0])
    readout = normal(d, vocab)
    streams = []
    for k in range(n_streams):
        agree = 0.9 + 0.04 * (rng.random(length) - 0.5)
        positions = low.get(k, [])
        agree[positions] = 0.05 + 0.02 * rng.random(len(positions))
        streams.append(
            StreamFrames(
                logits=3.0 * rng.standard_normal((length, vocab)),
                hidden=rng.standard_normal((length, d)),
                agreement=agree,
                note_present=np.ones(length, dtype=bool),
                note_embeddings=rng.standard_normal((length, d_note)),
            )
        )
    return ReplayArtifact(
        vocab_size=vocab,
        d=d,
        d_note=d_note,
        d_bottleneck=db,
        d_attn=da,
        seed=int(rng.integers(1 << 32)),
        adapter=adapter,
        snc=snc,
        agreement=agreement,
        readout=readout,
        streams=tuple(streams),
    )


def _long_bus(seed: int) -> list[Job]:
    # 8 streams x 2048 frames at M=4 publish two notes per stream-token, so the
    # bus passes its 2560-row capacity near token 1280 and compacts.
    # Two low frames, on fixed streams in fixed 32-frame blocks (before and
    # after compaction starts), so the rollbacks cost about the same whatever
    # the seed; only the offset within each block is drawn.
    rng = np.random.default_rng([seed, 1])
    low = {0: [15 * 32 + int(rng.integers(32))], 4: [47 * 32 + int(rng.integers(32))]}
    art = make_artifact(rng, 8, 2048, 256, 64, 16, low)
    cfg = DecodeConfig(stride_b=32, horizon_l=32, cadence=CadenceConfig("deterministic", 4))
    return [Job("long_bus", art, cfg)]


def _tiny_batch(seed: int) -> list[Job]:
    # The acceptance-criterion-4 shape: many small artifacts, one planted
    # divergence each, regen mode alternating between them.
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for i in range(300):
        low = {int(rng.integers(2)): [int(rng.integers(2, 22))]}
        art = make_artifact(rng, 2, 24, 11, 8, 4, low)
        mode = "reconsume" if i % 2 else "skip_ahead"
        jobs.append(Job(f"tiny{i:03d}", art, DecodeConfig(stride_b=8, horizon_l=8, regen_mode=mode)))
    return jobs


def _sweep_grid(seed: int) -> list[Job]:
    # Two low frames per stream, in distinct 32-frame blocks, so every grid
    # point rolls back twice per stream whatever the seed.
    rng = np.random.default_rng([seed, 4])
    low = {k: [int(j) * 32 + int(rng.integers(32)) for j in rng.choice(8, 2, replace=False)] for k in range(3)}
    art = make_artifact(rng, 3, 256, 32, 16, 8, low)
    return [Job("sweep_grid", art, DecodeConfig())]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("long_bus", False, _long_bus),
        Workload("tiny_batch", False, _tiny_batch),
        Workload("sweep_grid", True, _sweep_grid),
    )
}
