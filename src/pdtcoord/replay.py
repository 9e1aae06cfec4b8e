"""Replay artifacts: frozen per-stream logits, hidden states and note frames.

An artifact stands in for a live model during decoding.  It carries the
projection weights for note attention, the agreement head, a readout matrix
for mapping note residuals into logit space, and per-stream frame arrays.
The binary format is little-endian with float64 payloads and begins with the
magic bytes PDTR1.  The _HEADER, _WEIGHTS and _FRAMES tables are the one
statement of its layout and shapes: the writer, the reader, the synthesizer
and ReplayArtifact's shape check all walk them.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import BinaryIO

import numpy as np

from .errors import ArtifactFormatError, ConfigError, ShapeError, as_float, as_int
from .kernels import Matrix, as_matrix, as_vector
from .rng import DOMAIN_SYNTH, normal_matrix, uniform
from .snc import AdapterParams, AgreementParams, SncParams

MAGIC = b"PDTR1"
_MAX_DIM = 1 << 20
_MAX_LEN = 1 << 24
_MAX_SEED = (1 << 64) - 1
_U32, _U64, _F64 = struct.Struct("<I"), struct.Struct("<Q"), struct.Struct("<d")

# The file layout after MAGIC, little-endian: the u32 header fields below
# with their allowed ranges, the u64 seed, the f64 scalars below, one u32
# length per stream in [0, _MAX_LEN], the weights below, then each stream's
# frame arrays below.  write_artifact and read_artifact both walk these
# lists, and ReplayArtifact checks the reader's ranges when it is built.
# synthesize_artifact draws weight i of _WEIGHTS (1-based) under tag i.
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
# The header widths that a ReplayArtifact stores (n_streams is its stream count), and getters for its arrays.
_WIDTHS = tuple(name for name, _, _ in _HEADER if name != "n_streams")
_HEADER_WIDTHS = attrgetter(*_WIDTHS)
_WEIGHT_ARRAYS = attrgetter(*(name if owner is None else f"{owner}.{name}" for owner, name, _ in _WEIGHTS))
_FRAME_ARRAYS = attrgetter(*(name for name, _, _ in _FRAMES))


@lru_cache(maxsize=64)
def _shapes(widths: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(Each weight's shape, each frame array's widths after the frame axis) for header widths in _WIDTHS order.

    Cached: every ReplayArtifact checks its arrays against it.
    """
    width = dict(zip(_WIDTHS, widths))
    return (
        tuple(tuple(width[n] for n in dims) for _, _, dims in _WEIGHTS),
        tuple(tuple(width[n] for n in dims) for _, dims, _ in _FRAMES),
    )


# Synthesis tags of the drawn frame arrays and the two agreement jitters; each adds the stream id.
_FRAME_TAGS = {"logits": 100, "hidden": 200, "note_embeddings": 300}
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
        for name, dims, dtype in _FRAMES:
            if dtype == "<u1":
                arr = np.asarray(getattr(self, name), dtype=bool)
                if arr.ndim != 1:
                    raise ShapeError(f"{name} must be 1-D")
            else:
                arr = (as_matrix if dims else as_vector)(getattr(self, name), name)
            object.__setattr__(self, name, arr)
        if len({getattr(self, name).shape[0] for name, _, _ in _FRAMES}) != 1:
            raise ShapeError("all frame arrays must share the same length")

    @property
    def length(self) -> int:
        return self.logits.shape[0]


@dataclass(frozen=True)
class ReplayArtifact:
    """A frozen backbone's recorded frames plus the coordination weights.

    The header widths and the seed are stored as int.  Every header field
    (the stream count too), stream length and the seed must lie in the
    format's range, and every weight and frame array must have the shape
    that _WEIGHTS and _FRAMES give in header widths, so every artifact that
    constructs can be written and read back.  vocab_size's floor of 2 is
    also what adaptive cadence needs: it divides by log(vocab_size).
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
        for name in (*_WIDTHS, "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        limits = [(name, getattr(self, name), lo, hi) for name, lo, hi in _HEADER]
        limits += [(f"length[{k}]", f.length, 0, _MAX_LEN) for k, f in enumerate(self.streams)]
        limits.append(("seed", self.seed, 0, _MAX_SEED))
        _check_ranges(limits)
        object.__setattr__(self, "readout", as_matrix(self.readout, "readout"))
        weight_shapes, frame_widths = _shapes(_HEADER_WIDTHS(self))
        for (_, name, dims), arr, want in zip(_WEIGHTS, _WEIGHT_ARRAYS(self), weight_shapes):
            if arr.shape != want:
                raise ShapeError(f"{name} shape {arr.shape} != {dims} = {want}")
        for k, frames in enumerate(self.streams):
            for (name, dims, _), arr, want in zip(_FRAMES, _FRAME_ARRAYS(frames), frame_widths):
                if arr.shape[1:] != want:
                    raise ShapeError(f"stream {k}: {name} widths {arr.shape[1:]} != {dims} = {want}")

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
    dropout_rate take AgreementParams' defaults.  Counts and the seed are
    stored as int and the rest as float, so equal specs write equal
    artifacts and traces.  Widths, the stream count, the length and the seed
    must fit the artifact format, and gamma and logit_scale be finite, so a
    spec that constructs can be written.
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
        for name in ("n_streams", "length", "vocab_size", "d", "d_note", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        for name in ("gamma", "tau", "logit_scale"):
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        planted = [(as_int(sid, "planted stream"), as_int(pos, "planted position")) for sid, pos in self.planted_divergences]
        object.__setattr__(self, "planted_divergences", tuple(planted))
        # The bottleneck and attention widths follow from d, so only the header fields a spec sets are checked.
        limits = [(name, getattr(self, name), lo, hi) for name, lo, hi in _HEADER if hasattr(self, name)]
        limits += [("length", self.length, 0, _MAX_LEN), ("seed", self.seed, 0, _MAX_SEED)]
        _check_ranges(limits)
        if self.d < 4 or self.length < 1:
            raise ConfigError("need d >= 4 and length >= 1")
        for name in ("gamma", "logit_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
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
    s, d = spec.seed, spec.d
    header = (spec.vocab_size, d, spec.d_note, max(2, d // 4), max(2, d // 2))  # the widths in _WIDTHS order
    weight_shapes, frame_widths = _shapes(header)
    # The spec sets gamma and tau; the other scalars take their parameter class's defaults.
    fields: dict[str | None, dict[str, object]] = {owner: {} for owner in (None, *_PARAMS)}
    fields["snc"]["gamma"], fields["agreement"]["tau"] = spec.gamma, spec.tau
    for tag, ((owner, name, _), shape) in enumerate(zip(_WEIGHTS, weight_shapes), 1):
        # A 1-D weight is drawn as one row; each is scaled by 1/sqrt(its first width).
        w = normal_matrix(s, DOMAIN_SYNTH, tag, *(1, *shape)[-2:]) * (1.0 / np.sqrt(shape[0]))
        fields[owner][name] = w.reshape(shape)
    for owner, params in _PARAMS.items():
        fields[None][owner] = params(**fields[owner])

    planted = set(spec.planted_divergences)
    t = spec.length
    streams = []
    for k in range(spec.n_streams):
        frames = {
            name: normal_matrix(s, DOMAIN_SYNTH, _FRAME_TAGS[name] + k, t, *widths)
            for (name, _, _), widths in zip(_FRAMES, frame_widths)
            if name in _FRAME_TAGS
        }
        frames["logits"] *= spec.logit_scale
        jitter = uniform(s, DOMAIN_SYNTH, _TAG_AGREE_JITTER + k, np.arange(t))
        agree = BASE_AGREEMENT + 0.04 * (jitter - 0.5)
        div_jitter = uniform(s, DOMAIN_SYNTH, _TAG_DIVERGE_JITTER + k, np.arange(t))
        for sid, pos in planted:
            if sid == k:
                agree[pos] = DIVERGENCE_AGREEMENT + 0.02 * div_jitter[pos]
        np.clip(agree, 1e-6, 1.0 - 1e-6, out=agree)
        streams.append(StreamFrames(**frames, agreement=agree, note_present=np.ones(t, dtype=bool)))
    return ReplayArtifact(**dict(zip(_WIDTHS, header)), seed=s, streams=tuple(streams), **fields[None])


# -- binary serialization ---------------------------------------------------


def write_artifact(artifact: ReplayArtifact, path: str) -> None:
    """Serialize an artifact to its binary file form.

    ReplayArtifact refuses at construction every value outside the format's
    ranges, so every file written here reads back.
    """
    header = [getattr(artifact, name) for name, _, _ in _HEADER]
    lengths = artifact.lengths()
    scalars = [getattr(getattr(artifact, owner), name) for owner, names in _SCALARS.items() for name in names]
    parts = [
        MAGIC,
        struct.pack(f"<{len(header)}I", *header),
        struct.pack("<Q", artifact.seed),
        struct.pack(f"<{len(scalars)}d", *scalars),
        struct.pack(f"<{len(lengths)}I", *lengths),
    ]
    arrays = [(a, "<f8") for a in _WEIGHT_ARRAYS(artifact)]
    arrays += [(getattr(frames, name), dtype) for frames in artifact.streams for name, _, dtype in _FRAMES]
    # Each array's own buffer, so a write copies no array.
    overwrite(path, [b"".join(parts), *(np.ascontiguousarray(a, dtype=dtype).data for a, dtype in arrays)])


def overwrite(path: str, chunks: Iterable[bytes | memoryview]) -> None:
    """Write chunks to path in order, so that the file holds exactly their bytes.

    An existing file is written over in place and then cut to the new length,
    not truncated to zero first: on ext4 (auto_da_alloc), a file truncated to
    zero is flushed when it is closed, which costs several times the write.
    Only a regular file is cut, so os.devnull, a FIFO or a terminal work too.
    """
    with open(path, "wb", opener=_without_truncation) as fh:
        for chunk in chunks:
            fh.write(chunk)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()  # at the current position, after a flush


def _without_truncation(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


class _Reader:
    """Reads an artifact file in order, each array straight into its own aligned, read-only array.

    Not views of one buffer: numpy rounds a matmul of an unaligned view
    differently.  A float array is not scanned here: the constructor that
    takes it scans it once, and first_non_finite finds what it refused.
    """

    def __init__(self, fh: BinaryIO) -> None:
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.off = 0
        self.floats: list[tuple[int, str, np.ndarray]] = []  # (offset, name, array) of each float array read
        self.scalar_offsets: dict[str, int] = {}

    def advance(self, n: int, what: str) -> int:
        """Claim the next n bytes for what, before they are read; returns their offset."""
        start = self.off
        if start + n > self.size:
            raise ArtifactFormatError(f"truncated while reading {what}", offset=start)
        self.off += n
        return start

    def check_read(self, got: int, n: int, what: str, start: int) -> None:
        """A read that returned fewer bytes than the file's size promised is a truncation too."""
        if got != n:
            raise ArtifactFormatError(f"truncated while reading {what}", offset=start)

    def take(self, n: int, what: str) -> bytes:
        start = self.advance(n, what)
        data = self.fh.read(n)
        self.check_read(len(data), n, what, start)
        return data

    def u32(self, what: str, lo: int, hi: int) -> int:
        """A u32 in [lo, hi]; one out of range is reported at its own offset."""
        start = self.off
        val = _U32.unpack(self.take(4, what))[0]
        if not lo <= val <= hi:
            raise ArtifactFormatError(f"{what}={val} out of range", offset=start)
        return val

    def f64(self, what: str) -> float:
        """A finite f64 scalar; a non-finite one is reported at its own offset."""
        start = self.scalar_offsets[what] = self.off
        val = _F64.unpack(self.take(8, what))[0]
        if not math.isfinite(val):
            raise ArtifactFormatError(f"non-finite value in {what}", offset=start)
        return val

    def array(self, shape: tuple[int, ...], dtype: str, what: str) -> np.ndarray:
        """Float64s ("<f8"), unscanned, or 0/1 bytes as bools ("<u1"), a bad one reported at its own offset."""
        n = np.dtype(dtype).itemsize * math.prod(shape)
        start = self.advance(n, what)  # before the array is allocated
        arr = np.empty(shape, dtype)
        self.check_read(self.fh.readinto(arr), n, what, start)
        arr.setflags(write=False)
        if dtype == "<f8":
            self.floats.append((start, what, arr))
            return arr
        bad = arr > 1
        if bad.any():
            raise ArtifactFormatError(f"{what} entries must be 0 or 1", offset=start + int(bad.argmax()))
        return arr.view(bool)

    def first_non_finite(self) -> ArtifactFormatError | None:
        """The error for the first non-finite entry of the float arrays read so far, in file order, if any."""
        for start, what, arr in self.floats:
            bad = ~np.isfinite(arr)
            if bad.any():
                return ArtifactFormatError(f"non-finite value in {what}", offset=start + 8 * int(bad.argmax()))
        return None


def read_artifact(path: str) -> ReplayArtifact:
    """Parse a binary artifact file, validating structure as it goes.

    Malformed input raises ArtifactFormatError carrying the byte offset of
    the failure; trailing bytes after the last array are also an error.
    Each float array is scanned for finiteness once, by the constructor that
    takes it.  Whatever stops a read, a non-finite entry of an array read
    before it is reported first, so the error is always the first problem in
    file order.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh)
        try:
            artifact = _parse(r)
        except (ArtifactFormatError, ConfigError, ShapeError, ValueError) as exc:
            bad = r.first_non_finite()
            if bad is not None:
                raise bad from exc
            if isinstance(exc, ArtifactFormatError):
                raise
            # A parameter class's refusal starts with the name of the field it refuses.
            offset = r.scalar_offsets.get(str(exc).split(" ", 1)[0], r.off)
            raise ArtifactFormatError(f"inconsistent artifact contents: {exc}", offset=offset) from exc
    if r.off != r.size:
        raise ArtifactFormatError(f"{r.size - r.off} trailing bytes after last array", offset=r.off)
    return artifact


def _parse(r: _Reader) -> ReplayArtifact:
    """The artifact in r's file, read and checked in file order up to its last array."""
    magic = r.take(len(MAGIC), "magic")
    if magic != MAGIC:
        raise ArtifactFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    head = {name: r.u32(f"header field {name}", lo, hi) for name, lo, hi in _HEADER}
    seed = _U64.unpack(r.take(8, "seed"))[0]
    fields: dict[str | None, dict[str, object]] = {owner: {} for owner in (None, *_PARAMS)}
    for owner, names in _SCALARS.items():
        for name in names:
            fields[owner][name] = r.f64(name)
    lengths = [r.u32(f"length[{k}]", 0, _MAX_LEN) for k in range(head.pop("n_streams"))]
    weight_shapes, frame_widths = _shapes(tuple(head.values()))
    for (owner, name, _), shape in zip(_WEIGHTS, weight_shapes):
        fields[owner][name] = r.array(shape, "<f8", name)
    for owner, params in _PARAMS.items():
        fields[None][owner] = params(**fields[owner])
    streams = []
    for k, t in enumerate(lengths):
        frames = {
            name: r.array((t, *widths), dtype, f"stream[{k}].{name}")
            for (name, _, dtype), widths in zip(_FRAMES, frame_widths)
        }
        streams.append(StreamFrames(**frames))
    return ReplayArtifact(**head, seed=seed, streams=tuple(streams), **fields[None])
