"""Replay artifacts: frozen per-stream logits, hidden states and note frames.

An artifact stands in for a live model during decoding.  It carries the
projection weights for note attention, the agreement head, a readout matrix
for mapping note residuals into logit space, and per-stream frame arrays.
The binary format is little-endian with float64 payloads and begins with the
magic bytes PDTR1.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArtifactFormatError, ConfigError, ShapeError
from .kernels import Matrix, as_matrix, as_vector
from .rng import DOMAIN_SYNTH, normal_matrix, uniform_array
from .snc import AdapterParams, AgreementParams, SncParams

MAGIC = b"PDTR1"
_MAX_DIM = 1 << 20
_MAX_LEN = 1 << 24
_MAX_SEED = (1 << 64) - 1

# The file layout after MAGIC, little-endian: the u32 header fields below
# with their allowed ranges, the u64 seed, the f64 scalars below, one u32
# length per stream in [0, _MAX_LEN], the weights below, then each stream's
# frame arrays below.  write_artifact and read_artifact both walk these
# lists, and the writer checks the reader's ranges before it writes.
_HEADER = (
    ("vocab_size", 2, _MAX_DIM),
    ("n_streams", 1, 4096),
    ("d", 1, _MAX_DIM),
    ("d_note", 1, _MAX_DIM),
    ("d_bottleneck", 1, _MAX_DIM),
    ("d_attn", 1, _MAX_DIM),
)
# f64 scalars by owner, the artifact attribute that holds them, in file order.
_SCALARS = {"adapter": ("ln_eps",), "snc": ("gamma",), "agreement": ("b_agree", "dropout_rate", "tau")}
# (owner, name, shape as header field names); float64.  Owner None is the artifact itself.
_WEIGHTS = (
    ("adapter", "w_down", ("d", "d_bottleneck")),
    ("adapter", "w_up", ("d_bottleneck", "d")),
    ("snc", "w_q", ("d", "d_attn")),
    ("snc", "w_k", ("d_note", "d_attn")),
    ("snc", "w_v", ("d_note", "d_attn")),
    ("snc", "w_o", ("d_attn", "d")),
    ("agreement", "w_agree", ("d",)),
    (None, "readout", ("d", "vocab_size")),
)
_PARAMS = {"adapter": AdapterParams, "snc": SncParams, "agreement": AgreementParams}
# (StreamFrames field, widths after the frame axis as header field names, dtype).
_FRAMES = (
    ("logits", ("vocab_size",), "<f8"),
    ("hidden", ("d",), "<f8"),
    ("agreement", (), "<f8"),
    ("note_present", (), "<u1"),
    ("note_embeddings", ("d_note",), "<f8"),
)

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

# Synthesized agreement: clean frames score near 0.9, planted ones near 0.05, so any tau in between separates them.
BASE_AGREEMENT = 0.9
DIVERGENCE_AGREEMENT = 0.05


def _check_ranges(limits: list[tuple[str, int, int, int]]) -> None:
    """Raise ConfigError for the first (name, value, lo, hi) whose value is outside [lo, hi]."""
    for what, val, lo, hi in limits:
        if not lo <= val <= hi:
            raise ConfigError(f"{what}={val} outside the artifact format's range [{lo}, {hi}]")


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
    """A frozen backbone's recorded frames plus the coordination weights.

    The header widths must match the array shapes, and vocab_size must be at
    least 2: adaptive cadence divides by log(vocab_size).
    """

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
    streams: tuple[StreamFrames, ...]

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size={self.vocab_size} must be >= 2")
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
    back when it commits across them.  Clean frames score about
    BASE_AGREEMENT and planted ones about DIVERGENCE_AGREEMENT, so tau must
    lie in (DIVERGENCE_AGREEMENT, BASE_AGREEMENT].  The adapter bottleneck
    is max(2, d // 4) wide and the attention max(2, d // 2); b_agree and
    dropout_rate take AgreementParams' defaults.  Widths, the stream count,
    the length and the seed must fit the artifact format, so a spec that
    constructs can be written.
    """

    n_streams: int = 3
    length: int = 96
    vocab_size: int = 32
    d: int = 16
    d_note: int = 8
    seed: int = 0
    gamma: float = -4.0
    tau: float = 0.5
    logit_scale: float = 3.0
    planted_divergences: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        # The bottleneck and attention widths follow from d, so only the header fields a spec sets are checked.
        limits = [(name, getattr(self, name), lo, hi) for name, lo, hi in _HEADER if hasattr(self, name)]
        limits += [("length", self.length, 0, _MAX_LEN), ("seed", self.seed, 0, _MAX_SEED)]
        _check_ranges(limits)
        if self.d < 4 or self.length < 1:
            raise ConfigError("need d >= 4 and length >= 1")
        if not DIVERGENCE_AGREEMENT < self.tau <= BASE_AGREEMENT:
            raise ConfigError(f"need {DIVERGENCE_AGREEMENT} < tau <= {BASE_AGREEMENT}, got tau={self.tau}")
        for sid, pos in self.planted_divergences:
            if not 0 <= sid < self.n_streams:
                raise ConfigError(f"planted divergence stream {sid} out of range")
            if not 0 <= pos < self.length:
                raise ConfigError(f"planted divergence position {pos} out of range")


def synthesize_artifact(spec: SynthSpec) -> ReplayArtifact:
    """Build a fully deterministic artifact from a SynthSpec.

    Every array is a pure function of (spec.seed, array tag, indices), so the
    same spec always yields byte-identical artifacts.
    """
    s, d, dn = spec.seed, spec.d, spec.d_note
    db, da = max(2, d // 4), max(2, d // 2)
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
        agree = BASE_AGREEMENT + 0.04 * (jitter - 0.5)
        div_jitter = uniform_array(s, DOMAIN_SYNTH, _TAG_DIVERGE_JITTER + k, np.arange(t))
        for sid, pos in planted:
            if sid == k:
                agree[pos] = DIVERGENCE_AGREEMENT + 0.02 * div_jitter[pos]
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


def write_artifact(artifact: ReplayArtifact, path: str) -> None:
    """Serialize an artifact to its binary file form.

    A header field, stream length or seed outside the format's range raises
    ConfigError before the file is opened, so nothing is written and every
    file written here reads back.
    """
    header = [getattr(artifact, name) for name, _, _ in _HEADER]
    lengths = artifact.lengths()
    limits = [(name, val, lo, hi) for (name, lo, hi), val in zip(_HEADER, header)]
    limits += [(f"length[{k}]", t, 0, _MAX_LEN) for k, t in enumerate(lengths)]
    limits.append(("seed", artifact.seed, 0, _MAX_SEED))
    _check_ranges(limits)
    scalars = [getattr(getattr(artifact, owner), name) for owner, names in _SCALARS.items() for name in names]
    parts = [
        MAGIC,
        struct.pack(f"<{len(header)}I", *header),
        struct.pack("<Q", artifact.seed),
        struct.pack(f"<{len(scalars)}d", *scalars),
        struct.pack(f"<{len(lengths)}I", *lengths),
    ]
    arrays = [(getattr(artifact if o is None else getattr(artifact, o), name), "<f8") for o, name, _ in _WEIGHTS]
    arrays += [(getattr(frames, name), dtype) for frames in artifact.streams for name, _, dtype in _FRAMES]
    parts += [np.ascontiguousarray(a, dtype=dtype).tobytes() for a, dtype in arrays]
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

    def array(self, shape: tuple[int, ...], dtype: str, what: str) -> np.ndarray:
        """Finite float64s ("<f8") or 0/1 bytes as bools ("<u1"); a bad entry is reported at its own offset."""
        start, count, size = self.off, math.prod(shape), np.dtype(dtype).itemsize
        arr = np.frombuffer(self.take(size * count, what), dtype=dtype, count=count)
        if dtype == "<u1":
            bad = arr > 1
            problem = f"{what} entries must be 0 or 1"
        else:
            bad = ~np.isfinite(arr)
            problem = f"non-finite value in {what}"
        if bad.any():
            raise ArtifactFormatError(problem, offset=start + size * int(bad.argmax()))
        return arr.astype(bool if dtype == "<u1" else np.float64).reshape(shape)


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
    head = {name: r.u32(f"header field {name}", lo, hi) for name, lo, hi in _HEADER}
    seed = struct.unpack("<Q", r.take(8, "seed"))[0]
    fields: dict[str | None, dict[str, object]] = {None: {}}
    scalar_offsets: dict[str, int] = {}
    for owner, names in _SCALARS.items():
        fields[owner] = {}
        for name in names:
            scalar_offsets[name] = r.off
            fields[owner][name] = float(r.array((), "<f8", name))
    lengths = [r.u32(f"length[{k}]", 0, _MAX_LEN) for k in range(head.pop("n_streams"))]
    try:
        for owner, name, dims in _WEIGHTS:
            fields[owner][name] = r.array(tuple(head[n] for n in dims), "<f8", name)
        for owner, params in _PARAMS.items():
            fields[None][owner] = params(**fields[owner])
        streams = []
        for k, t in enumerate(lengths):
            frames = {
                name: r.array((t, *(head[n] for n in dims)), dtype, f"stream[{k}].{name}")
                for name, dims, dtype in _FRAMES
            }
            streams.append(StreamFrames(**frames))
    except (ConfigError, ShapeError) as exc:
        # A parameter class's refusal starts with the name of the field it refuses.
        offset = scalar_offsets.get(str(exc).split(" ", 1)[0], r.off)
        raise ArtifactFormatError(f"inconsistent artifact contents: {exc}", offset=offset) from exc
    if r.off != len(buf):
        raise ArtifactFormatError(f"{len(buf) - r.off} trailing bytes after last array", offset=r.off)
    return ReplayArtifact(**head, seed=seed, streams=tuple(streams), **fields[None])
