"""Replay artifacts: frozen per-stream logits, hidden states and note frames.

An artifact stands in for a live model during decoding.  It carries the
projection weights for note attention, the agreement head, a readout matrix
for mapping note residuals into logit space, and per-stream frame arrays.
The binary format is little-endian with float64 payloads and begins with the
magic bytes PDTR1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ArtifactFormatError, ConfigError, ShapeError
from .kernels import Matrix, as_matrix, as_vector
from .rng import DOMAIN_SYNTH, normal_matrix, uniform_array
from .snc import AdapterParams, AgreementParams, SncParams

MAGIC = b"PDTR1"
_MAX_DIM = 1 << 20
_MAX_LEN = 1 << 24

# Array tags for deterministic synthesis; per-stream arrays add the stream id.
_TAG_W_DOWN = 1
_TAG_W_UP = 2
_TAG_W_Q = 3
_TAG_W_K = 4
_TAG_W_V = 5
_TAG_W_O = 6
_TAG_W_AGREE = 7
_TAG_READOUT = 8
_TAG_LOGITS = 100
_TAG_HIDDEN = 200
_TAG_NOTES = 300
_TAG_AGREE_JITTER = 400
_TAG_DIVERGE_JITTER = 500


@dataclass(frozen=True)
class StreamFrames:
    """Frame arrays for one stream; row t is the frame consumed at step t."""

    logits: Matrix
    hidden: Matrix
    agreement: np.ndarray
    note_present: np.ndarray
    note_embeddings: Matrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "logits", as_matrix(self.logits, "logits"))
        object.__setattr__(self, "hidden", as_matrix(self.hidden, "hidden"))
        object.__setattr__(self, "agreement", as_vector(self.agreement, "agreement"))
        object.__setattr__(self, "note_embeddings", as_matrix(self.note_embeddings, "note_embeddings"))
        present = np.asarray(self.note_present, dtype=bool)
        if present.ndim != 1:
            raise ShapeError("note_present must be 1-D")
        object.__setattr__(self, "note_present", present)
        t = self.logits.shape[0]
        if not (self.hidden.shape[0] == self.agreement.shape[0] == present.shape[0] == self.note_embeddings.shape[0] == t):
            raise ShapeError("all frame arrays must share the same length")

    @property
    def length(self) -> int:
        return self.logits.shape[0]


@dataclass(frozen=True)
class ReplayArtifact:
    vocab_size: int
    d: int
    d_note: int
    d_bottleneck: int
    d_attn: int
    seed: int
    adapter: AdapterParams
    snc: SncParams
    agreement: AgreementParams
    readout: Matrix
    streams: tuple[StreamFrames, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "readout", as_matrix(self.readout, "readout"))
        if self.readout.shape != (self.d, self.vocab_size):
            raise ShapeError(f"readout shape {self.readout.shape} != ({self.d}, {self.vocab_size})")
        widths = (self.adapter.d, self.adapter.w_down.shape[1], self.snc.d, self.snc.d_note, self.snc.d_attn)
        if widths != (self.d, self.d_bottleneck, self.d, self.d_note, self.d_attn):
            raise ShapeError(f"parameter widths (d, d_bottleneck, d, d_note, d_attn) = {widths} disagree with header")
        for k, frames in enumerate(self.streams):
            if frames.logits.shape[1] != self.vocab_size:
                raise ShapeError(f"stream {k}: logit width != vocab_size")
            if frames.hidden.shape[1] != self.d:
                raise ShapeError(f"stream {k}: hidden width != d")
            if frames.note_embeddings.shape[1] != self.d_note:
                raise ShapeError(f"stream {k}: note width != d_note")

    @property
    def n_streams(self) -> int:
        return len(self.streams)

    def lengths(self) -> tuple[int, ...]:
        return tuple(f.length for f in self.streams)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a deterministic synthetic artifact.

    planted_divergences lists (stream_id, position) frames whose agreement
    score is forced below tau, so a decoder at default settings must roll
    back when it commits across them.
    """

    n_streams: int = 3
    length: int = 96
    vocab_size: int = 32
    d: int = 16
    d_note: int = 8
    d_bottleneck: int | None = None
    d_attn: int | None = None
    seed: int = 0
    gamma: float = -4.0
    tau: float = 0.5
    dropout_rate: float = 0.1
    base_agreement: float = 0.9
    divergence_agreement: float = 0.05
    logit_scale: float = 3.0
    planted_divergences: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n_streams < 1 or self.length < 1 or self.vocab_size < 2:
            raise ConfigError("need n_streams >= 1, length >= 1, vocab_size >= 2")
        if self.d < 4 or self.d_note < 1:
            raise ConfigError("need d >= 4 and d_note >= 1")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must lie in (0, 1)")
        if not self.divergence_agreement < self.tau <= self.base_agreement:
            raise ConfigError("need divergence_agreement < tau <= base_agreement")
        for sid, pos in self.planted_divergences:
            if not 0 <= sid < self.n_streams:
                raise ConfigError(f"planted divergence stream {sid} out of range")
            if not 0 <= pos < self.length:
                raise ConfigError(f"planted divergence position {pos} out of range")

    @property
    def bottleneck(self) -> int:
        return self.d_bottleneck if self.d_bottleneck is not None else max(2, self.d // 4)

    @property
    def attn_width(self) -> int:
        return self.d_attn if self.d_attn is not None else max(2, self.d // 2)


def synthesize_artifact(spec: SynthSpec) -> ReplayArtifact:
    """Build a fully deterministic artifact from a SynthSpec.

    Every array is a pure function of (spec.seed, array tag, indices), so the
    same spec always yields byte-identical artifacts.
    """
    s, d, dn = spec.seed, spec.d, spec.d_note
    db, da = spec.bottleneck, spec.attn_width
    scale = 1.0 / np.sqrt(d)
    adapter = AdapterParams(
        w_down=normal_matrix(s, DOMAIN_SYNTH, _TAG_W_DOWN, d, db) * scale,
        w_up=normal_matrix(s, DOMAIN_SYNTH, _TAG_W_UP, db, d) * (1.0 / np.sqrt(db)),
    )
    snc = SncParams(
        w_q=normal_matrix(s, DOMAIN_SYNTH, _TAG_W_Q, d, da) * scale,
        w_k=normal_matrix(s, DOMAIN_SYNTH, _TAG_W_K, dn, da) * (1.0 / np.sqrt(dn)),
        w_v=normal_matrix(s, DOMAIN_SYNTH, _TAG_W_V, dn, da) * (1.0 / np.sqrt(dn)),
        w_o=normal_matrix(s, DOMAIN_SYNTH, _TAG_W_O, da, d) * (1.0 / np.sqrt(da)),
        gamma=spec.gamma,
    )
    agreement = AgreementParams(
        w_agree=normal_matrix(s, DOMAIN_SYNTH, _TAG_W_AGREE, 1, d)[0] * scale,
        b_agree=0.0,
        dropout_rate=spec.dropout_rate,
        tau=spec.tau,
    )
    readout = normal_matrix(s, DOMAIN_SYNTH, _TAG_READOUT, d, spec.vocab_size) * scale

    planted = set(spec.planted_divergences)
    streams = []
    for k in range(spec.n_streams):
        t = spec.length
        logits = normal_matrix(s, DOMAIN_SYNTH, _TAG_LOGITS + k, t, spec.vocab_size) * spec.logit_scale
        hidden = normal_matrix(s, DOMAIN_SYNTH, _TAG_HIDDEN + k, t, d)
        notes = normal_matrix(s, DOMAIN_SYNTH, _TAG_NOTES + k, t, dn)
        jitter = uniform_array(s, DOMAIN_SYNTH, _TAG_AGREE_JITTER + k, np.arange(t))
        agree = spec.base_agreement + 0.04 * (jitter - 0.5)
        div_jitter = uniform_array(s, DOMAIN_SYNTH, _TAG_DIVERGE_JITTER + k, np.arange(t))
        for sid, pos in planted:
            if sid == k:
                agree[pos] = spec.divergence_agreement + 0.02 * div_jitter[pos]
        np.clip(agree, 1e-6, 1.0 - 1e-6, out=agree)
        streams.append(
            StreamFrames(
                logits=logits,
                hidden=hidden,
                agreement=agree,
                note_present=np.ones(t, dtype=bool),
                note_embeddings=notes,
            )
        )
    return ReplayArtifact(
        vocab_size=spec.vocab_size,
        d=d,
        d_note=dn,
        d_bottleneck=db,
        d_attn=da,
        seed=s,
        adapter=adapter,
        snc=snc,
        agreement=agreement,
        readout=readout,
        streams=tuple(streams),
    )


# -- binary serialization ---------------------------------------------------


def _pack_matrix(parts: list[bytes], m: np.ndarray) -> None:
    parts.append(np.ascontiguousarray(m, dtype="<f8").tobytes())


def write_artifact(artifact: ReplayArtifact, path: str) -> None:
    """Serialize an artifact to its binary file form."""
    parts: list[bytes] = [MAGIC]
    parts.append(
        struct.pack(
            "<IIIIII",
            artifact.vocab_size,
            artifact.n_streams,
            artifact.d,
            artifact.d_note,
            artifact.d_bottleneck,
            artifact.d_attn,
        )
    )
    parts.append(struct.pack("<Q", artifact.seed))
    parts.append(
        struct.pack(
            "<ddddd",
            artifact.adapter.ln_eps,
            artifact.snc.gamma,
            artifact.agreement.b_agree,
            artifact.agreement.dropout_rate,
            artifact.agreement.tau,
        )
    )
    parts.append(struct.pack(f"<{artifact.n_streams}I", *artifact.lengths()))
    _pack_matrix(parts, artifact.adapter.w_down)
    _pack_matrix(parts, artifact.adapter.w_up)
    _pack_matrix(parts, artifact.snc.w_q)
    _pack_matrix(parts, artifact.snc.w_k)
    _pack_matrix(parts, artifact.snc.w_v)
    _pack_matrix(parts, artifact.snc.w_o)
    _pack_matrix(parts, artifact.agreement.w_agree)
    _pack_matrix(parts, artifact.readout)
    for frames in artifact.streams:
        _pack_matrix(parts, frames.logits)
        _pack_matrix(parts, frames.hidden)
        _pack_matrix(parts, frames.agreement)
        parts.append(np.ascontiguousarray(frames.note_present, dtype="<u1").tobytes())
        _pack_matrix(parts, frames.note_embeddings)
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.buf):
            raise ArtifactFormatError(f"truncated while reading {what}", offset=self.off)
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def u32(self, what: str, lo: int, hi: int) -> int:
        """A u32 in [lo, hi]; one out of range is reported at its own offset."""
        start = self.off
        val = struct.unpack("<I", self.take(4, what))[0]
        if not lo <= val <= hi:
            raise ArtifactFormatError(f"{what}={val} out of range", offset=start)
        return val

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def f64(self, what: str) -> float:
        return float(self.floats(1, what)[0])

    def floats(self, count: int, what: str) -> np.ndarray:
        start = self.off
        raw = self.take(8 * count, what)
        arr = np.frombuffer(raw, dtype="<f8", count=count).astype(np.float64)
        bad = ~np.isfinite(arr)
        if bad.any():
            raise ArtifactFormatError(f"non-finite value in {what}", offset=start + 8 * int(bad.argmax()))
        return arr

    def bytes_as_bool(self, count: int, what: str) -> np.ndarray:
        raw = self.take(count, what)
        arr = np.frombuffer(raw, dtype="<u1", count=count)
        if np.any(arr > 1):
            raise ArtifactFormatError(f"{what} entries must be 0 or 1", offset=self.off - count)
        return arr.astype(bool)


def read_artifact(path: str) -> ReplayArtifact:
    """Parse a binary artifact file, validating structure as it goes.

    Malformed input raises ArtifactFormatError carrying the byte offset of
    the failure; trailing bytes after the last array are also an error.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    magic = r.take(len(MAGIC), "magic")
    if magic != MAGIC:
        raise ArtifactFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    vocab = r.u32("header field vocab_size", 1, _MAX_DIM)
    n_streams = r.u32("header field n_streams", 1, 4096)
    d = r.u32("header field d", 1, _MAX_DIM)
    dn = r.u32("header field d_note", 1, _MAX_DIM)
    db = r.u32("header field d_bottleneck", 1, _MAX_DIM)
    da = r.u32("header field d_attn", 1, _MAX_DIM)
    seed = r.u64("seed")
    ln_eps = r.f64("ln_eps")
    gamma = r.f64("gamma")
    b_agree = r.f64("b_agree")
    dropout_rate = r.f64("dropout_rate")
    tau = r.f64("tau")
    lengths = [r.u32(f"length[{k}]", 0, _MAX_LEN) for k in range(n_streams)]

    def mat(rows: int, cols: int, what: str) -> np.ndarray:
        return r.floats(rows * cols, what).reshape(rows, cols)

    try:
        adapter = AdapterParams(w_down=mat(d, db, "w_down"), w_up=mat(db, d, "w_up"), ln_eps=ln_eps)
        snc = SncParams(
            w_q=mat(d, da, "w_q"),
            w_k=mat(dn, da, "w_k"),
            w_v=mat(dn, da, "w_v"),
            w_o=mat(da, d, "w_o"),
            gamma=gamma,
        )
        agreement = AgreementParams(
            w_agree=r.floats(d, "w_agree"),
            b_agree=b_agree,
            dropout_rate=dropout_rate,
            tau=tau,
        )
        readout = mat(d, vocab, "readout")
        streams = []
        for k, t in enumerate(lengths):
            logits = mat(t, vocab, f"stream[{k}].logits")
            hidden = mat(t, d, f"stream[{k}].hidden")
            agree = r.floats(t, f"stream[{k}].agreement")
            present = r.bytes_as_bool(t, f"stream[{k}].note_present")
            notes = mat(t, dn, f"stream[{k}].note_embeddings")
            streams.append(StreamFrames(logits, hidden, agree, present, notes))
    except (ConfigError, ShapeError) as exc:
        raise ArtifactFormatError(f"inconsistent artifact contents: {exc}", offset=r.off) from exc
    if r.off != len(buf):
        raise ArtifactFormatError(f"{len(buf) - r.off} trailing bytes after last array", offset=r.off)
    return ReplayArtifact(
        vocab_size=vocab,
        d=d,
        d_note=dn,
        d_bottleneck=db,
        d_attn=da,
        seed=seed,
        adapter=adapter,
        snc=snc,
        agreement=agreement,
        readout=readout,
        streams=tuple(streams),
    )
