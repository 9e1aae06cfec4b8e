"""Artifact synthesis determinism and binary round-trip fidelity."""

from __future__ import annotations

import dataclasses
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcoord.decode import run_parallel
from pdtcoord.errors import ArtifactFormatError, ConfigError, ShapeError
from pdtcoord.replay import (
    _FRAMES,
    _MAX_LEN,
    _WEIGHTS,
    BASE_AGREEMENT,
    DIVERGENCE_AGREEMENT,
    MAGIC,
    SynthSpec,
    read_artifact,
    synthesize_artifact,
    write_artifact,
)
from test_golden_hashes import CASES, truncated

SMALL = SynthSpec(n_streams=2, length=24, vocab_size=11, d=8, d_note=4, seed=13)
# About 1 KB on disk, so a fuzzer reaches every field.
TINY = SynthSpec(n_streams=2, length=3, vocab_size=3, d=4, d_note=2, seed=5, planted_divergences=((1, 2),))


def test_synthesis_is_deterministic():
    a = synthesize_artifact(SMALL)
    b = synthesize_artifact(SMALL)
    assert np.array_equal(a.readout, b.readout)
    for fa, fb in zip(a.streams, b.streams):
        assert np.array_equal(fa.logits, fb.logits)
        assert np.array_equal(fa.note_embeddings, fb.note_embeddings)
    c = synthesize_artifact(SynthSpec(**{**SMALL.__dict__, "seed": 14}))
    assert not np.array_equal(a.readout, c.readout)


def test_synthesized_agreement_respects_tau():
    spec = SynthSpec(
        n_streams=2, length=24, vocab_size=11, d=8, d_note=4, seed=13,
        planted_divergences=((0, 5), (1, 20)),
    )
    art = synthesize_artifact(spec)
    assert art.streams[0].agreement[5] < spec.tau
    assert art.streams[1].agreement[20] < spec.tau
    clean = np.delete(art.streams[0].agreement, 5)
    assert np.all(clean >= spec.tau)


def test_synth_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(planted_divergences=((9, 0),))
    with pytest.raises(ConfigError):
        SynthSpec(planted_divergences=((0, 10**6),))
    # tau must separate the synthesized clean and planted agreement scores.
    for tau in (DIVERGENCE_AGREEMENT, BASE_AGREEMENT + 0.01, float("nan")):
        with pytest.raises(ConfigError, match="tau"):
            SynthSpec(tau=tau)
    assert SynthSpec(tau=BASE_AGREEMENT).tau == BASE_AGREEMENT


def test_equal_specs_write_equal_artifacts_and_traces(tmp_path):
    numpy_typed = SynthSpec(
        n_streams=np.int64(2), length=np.uint16(24), vocab_size=11, d=np.int32(8), d_note=4,
        seed=np.uint64(13), tau=np.float32(0.5), planted_divergences=((np.int64(1), np.int8(5)),),
    )
    plain = dataclasses.replace(SMALL, planted_divergences=((1, 5),))
    assert numpy_typed == plain
    assert {type(getattr(numpy_typed, f.name)) for f in dataclasses.fields(SynthSpec)} == {int, float, tuple}
    files = []
    for k, spec in enumerate((plain, numpy_typed)):
        art = synthesize_artifact(spec)
        assert type(art.seed) is int
        write_artifact(art, str(tmp_path / f"{k}.pdtr"))
        files.append((tmp_path / f"{k}.pdtr").read_bytes())
        files.append(run_parallel(art).trace_hash())
    assert files[0] == files[2] and files[1] == files[3]


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("seed", True, "seed must be an integer"),
        ("d", 8.0, "d must be an integer"),
        ("n_streams", 2.0, "n_streams must be an integer"),
        ("length", "24", "length must be an integer"),
        ("d_note", None, "d_note must be an integer"),
        ("tau", "0.5", "tau must be a real number"),
        ("gamma", True, "gamma must be a real number"),
        ("gamma", math.nan, "must be finite"),
        ("logit_scale", math.inf, "must be finite"),
        ("planted_divergences", ((1, 5.0),), "planted position must be an integer"),
    ],
)
def test_synth_spec_refuses_what_it_could_not_write(field, value, message):
    with pytest.raises(ConfigError, match=message):
        SynthSpec(**{field: value})


def test_artifact_header_ints_are_ints():
    art = synthesize_artifact(SMALL)
    numpy_typed = dataclasses.replace(art, seed=np.uint64(13), d=np.int64(8), vocab_size=np.int16(11))
    assert [type(getattr(numpy_typed, name)) for name in ("seed", "d", "vocab_size")] == [int, int, int]
    for field, value in (("seed", True), ("d", 8.0), ("vocab_size", "11"), ("d_attn", 4.5)):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            dataclasses.replace(art, **{field: value})


@pytest.mark.parametrize(
    ("field", "value"),
    [("n_streams", 4097), ("length", _MAX_LEN + 1), ("seed", -1)],
)
def test_synth_spec_refuses_what_the_format_cannot_hold(field, value):
    # Refused when the spec is built, before anything is synthesized.
    with pytest.raises(ConfigError, match=f"{field}={value}"):
        SynthSpec(**{field: value})


@pytest.mark.parametrize(
    ("field", "change"),
    [
        ("seed", lambda art: {"seed": -1}),
        ("seed", lambda art: {"seed": 2**64}),
        ("n_streams", lambda art: {"streams": (truncated(art.streams[0], 0),) * 4097}),
        ("n_streams", lambda art: {"streams": ()}),
    ],
    ids=["seed=-1", "seed=2**64", "4097 streams", "no streams"],
)
def test_an_artifact_the_format_cannot_hold_is_refused_when_built(field, change):
    # Every artifact that constructs can be written, so none of these gets as far as write_artifact.
    art = synthesize_artifact(TINY)
    with pytest.raises(ConfigError, match=f"{field}="):
        dataclasses.replace(art, **change(art))


def test_binary_roundtrip_is_exact(tmp_path):
    spec = SynthSpec(
        n_streams=3, length=17, vocab_size=9, d=8, d_note=4, seed=77,
        planted_divergences=((2, 3),),
    )
    art = synthesize_artifact(spec)
    path = tmp_path / "roundtrip.pdtr"
    write_artifact(art, str(path))
    back = read_artifact(str(path))
    assert back.vocab_size == art.vocab_size
    assert back.seed == art.seed
    assert back.snc.gamma == art.snc.gamma
    assert back.agreement.tau == art.agreement.tau
    assert np.array_equal(back.readout, art.readout)
    assert np.array_equal(back.adapter.w_down, art.adapter.w_down)
    for fa, fb in zip(art.streams, back.streams):
        assert np.array_equal(fa.logits, fb.logits)
        assert np.array_equal(fa.hidden, fb.hidden)
        assert np.array_equal(fa.agreement, fb.agreement)
        assert np.array_equal(fa.note_present, fb.note_present)
        assert np.array_equal(fa.note_embeddings, fb.note_embeddings)


def test_write_is_byte_stable(tmp_path):
    art = synthesize_artifact(SMALL)
    p1, p2 = tmp_path / "a.pdtr", tmp_path / "b.pdtr"
    write_artifact(art, str(p1))
    # A write over a larger file leaves exactly the artifact's bytes: the file
    # is written over in place and then cut to length.
    write_artifact(synthesize_artifact(dataclasses.replace(SMALL, length=240)), str(p2))
    larger = p2.stat().st_size
    write_artifact(art, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:5] == MAGIC
    assert p2.stat().st_size < larger
    assert read_artifact(str(p2)).lengths() == art.lengths()
    # Not a regular file, so nothing to cut.
    write_artifact(art, os.devnull)


def test_bad_magic_rejected(tmp_path):
    art = synthesize_artifact(SMALL)
    path = tmp_path / "bad.pdtr"
    write_artifact(art, str(path))
    data = bytearray(path.read_bytes())
    data[0] = ord("X")
    path.write_bytes(bytes(data))
    with pytest.raises(ArtifactFormatError) as err:
        read_artifact(str(path))
    assert err.value.offset == 0


def test_truncated_file_reports_offset(tmp_path):
    art = synthesize_artifact(SMALL)
    path = tmp_path / "short.pdtr"
    write_artifact(art, str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ArtifactFormatError) as err:
        read_artifact(str(path))
    assert err.value.offset is not None


def test_trailing_bytes_rejected(tmp_path):
    art = synthesize_artifact(SMALL)
    path = tmp_path / "long.pdtr"
    write_artifact(art, str(path))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ArtifactFormatError, match="trailing"):
        read_artifact(str(path))


def _float_arrays(art):
    """(name, offset, entries) of each float array in art's file, in file order."""
    offset = len(MAGIC) + 6 * 4 + 8 + 5 * 8 + 4 * art.n_streams
    named = [(name, getattr(art if owner is None else getattr(art, owner), name)) for owner, name, _ in _WEIGHTS]
    named += [(f"stream[{k}].{name}", getattr(frames, name)) for k, frames in enumerate(art.streams) for name, _, _ in _FRAMES]
    arrays = []
    for name, arr in named:
        if arr.dtype == np.float64:
            arrays.append((name, offset, arr.size))
        offset += arr.nbytes
    return arrays


def _written(tmp_path, art, name="art.pdtr"):
    path = tmp_path / name
    write_artifact(art, str(path))
    return path, path.read_bytes()


def _with_f64(data, offset, value):
    damaged = bytearray(data)
    damaged[offset : offset + 8] = np.array([value], dtype="<f8").tobytes()
    return bytes(damaged)


def test_nonfinite_payload_rejected(tmp_path):
    # The five header scalars (ln_eps, gamma, b_agree, dropout_rate, tau)
    # that follow magic, six u32 and a u64, then the first, a middle and the
    # last entry of every float array.
    art = synthesize_artifact(SMALL)
    path, clean = _written(tmp_path, art)
    arrays = _float_arrays(art)
    assert len(arrays) == len(_WEIGHTS) + 4 * art.n_streams
    assert arrays[-1][1] + 8 * arrays[-1][2] == len(clean)
    header = len(MAGIC) + 6 * 4 + 8
    entries = [(name, header + 8 * i) for i, name in enumerate(("ln_eps", "gamma", "b_agree", "dropout_rate", "tau"))]
    entries += [(name, start + 8 * i) for name, start, n in arrays for i in sorted({0, n // 2, n - 1})]
    for name, offset in entries:
        for bad in (np.nan, np.inf, -np.inf):
            path.write_bytes(_with_f64(clean, offset, bad))
            with pytest.raises(ArtifactFormatError, match=re.escape(f"non-finite value in {name} ")) as err:
                read_artifact(str(path))
            assert err.value.offset == offset


def test_a_non_finite_entry_is_reported_ahead_of_a_later_problem(tmp_path):
    # The first problem in file order is the one reported, as if each array
    # were scanned as it is read.
    art = synthesize_artifact(SMALL)
    path, clean = _written(tmp_path, art)
    at = {name: start for name, start, _ in _float_arrays(art)}
    ln_eps = len(MAGIC) + 6 * 4 + 8
    mask = at["stream[0].note_embeddings"] - art.streams[0].length
    weights, all_three = ("w_q", "readout"), ("w_q", "readout", "stream[0].agreement")
    # Each problem, and the arrays read before it: a refused scalar is found when
    # the parameters are built, after the last weight.
    problems = [
        (lambda data: _with_f64(data, ln_eps, -1.0), weights),
        (lambda data: data[:mask] + b"\x02" + data[mask + 1 :], all_three),
        (lambda data: data[: at["stream[1].hidden"] + 4], all_three),
        (lambda data: data + b"\x00" * 8, all_three),
    ]
    for damaged, earlier in problems:
        for name in earlier:
            path.write_bytes(damaged(_with_f64(clean, at[name] + 8, np.nan)))
            with pytest.raises(ArtifactFormatError, match=re.escape(f"non-finite value in {name} ")) as err:
                read_artifact(str(path))
            assert err.value.offset == at[name] + 8


def test_a_read_scans_each_float_array_for_finiteness_once(tmp_path, monkeypatch):
    art = synthesize_artifact(SMALL)
    path, _ = _written(tmp_path, art)
    scanned = []
    isfinite = np.isfinite

    def counting(a, *args, **kwargs):
        scanned.append(np.shape(a))
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    read_artifact(str(path))
    assert len(scanned) == len(_float_arrays(art)), scanned


def test_a_read_shorter_than_the_files_size_is_a_truncation(tmp_path, monkeypatch):
    # fstat overstates the size, as for a file cut while it is read: the short
    # read itself is refused, at the offset of the field it cut.
    art = synthesize_artifact(SMALL)
    path, clean = _written(tmp_path, art)
    readout = {name: start for name, start, _ in _float_arrays(art)}["readout"]
    fstat = os.fstat

    def larger(fd):
        st = fstat(fd)
        return os.stat_result((*st[:6], st.st_size + 4096, *st[7:10]))

    for cut, what, offset in ((len(MAGIC) + 2, "header field vocab_size", len(MAGIC)), (readout + 12, "readout", readout)):
        path.write_bytes(clean[:cut])
        with monkeypatch.context() as patched:
            patched.setattr(os, "fstat", larger)
            with pytest.raises(ArtifactFormatError, match=re.escape(f"truncated while reading {what} ")) as err:
                read_artifact(str(path))
        assert err.value.offset == offset


def test_out_of_range_scalar_reported_at_its_offset(tmp_path):
    art = synthesize_artifact(SMALL)
    path = tmp_path / "scalar.pdtr"
    write_artifact(art, str(path))
    clean = path.read_bytes()
    # ln_eps, dropout_rate and tau are the first, fourth and fifth f64 after
    # magic, six u32 and a u64; -1.0 is finite but outside each one's range.
    header = len(MAGIC) + 6 * 4 + 8
    for name, offset in (("ln_eps", header), ("dropout_rate", header + 3 * 8), ("tau", header + 4 * 8)):
        data = bytearray(clean)
        data[offset : offset + 8] = np.array([-1.0], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactFormatError, match=f"inconsistent artifact contents: {name} ") as err:
            read_artifact(str(path))
        assert err.value.offset == offset
    assert header == 37


def test_note_mask_byte_rejected_at_its_offset(tmp_path):
    art = synthesize_artifact(SMALL)
    path = tmp_path / "mask.pdtr"
    write_artifact(art, str(path))
    # SMALL: V=11, d=8, d_note=4, bottleneck 2, attention 4, two streams of 24.
    weights = 8 * 2 + 2 * 8 + 8 * 4 + 4 * 4 + 4 * 4 + 4 * 8 + 8 + 8 * 11
    before_mask = 24 * 11 + 24 * 8 + 24
    offset = len(MAGIC) + 6 * 4 + 8 + 5 * 8 + 2 * 4 + 8 * (weights + before_mask) + 5
    data = bytearray(path.read_bytes())
    assert data[offset] == 1
    data[offset] = 2
    path.write_bytes(bytes(data))
    with pytest.raises(ArtifactFormatError, match=r"stream\[0\]\.note_present") as err:
        read_artifact(str(path))
    assert err.value.offset == offset


@pytest.fixture(scope="module")
def tiny_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.pdtr"
    write_artifact(synthesize_artifact(TINY), str(path))
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_file_reads_back_or_reports_offset(tiny_file, data):
    # A truncation or a single flipped bit anywhere either still parses or
    # raises ArtifactFormatError with the offset of the problem; nothing else.
    path, clean = tiny_file
    at = data.draw(st.integers(0, len(clean) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        damaged = clean[:at]
    else:
        damaged = bytearray(clean)
        damaged[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    path.write_bytes(bytes(damaged))
    try:
        read_artifact(str(path))
    except ArtifactFormatError as err:
        assert err.offset is not None and 0 <= err.offset <= len(damaged)


def test_zero_dim_header_rejected(tmp_path):
    # Each out-of-range field is reported at its own offset.
    art = synthesize_artifact(SMALL)
    path = tmp_path / "dim.pdtr"
    write_artifact(art, str(path))
    clean = path.read_bytes()
    # Six u32 fields follow the magic.
    names = ("vocab_size", "n_streams", "d", "d_note", "d_bottleneck", "d_attn")
    for i, name in enumerate(names):
        offset = len(MAGIC) + 4 * i
        data = bytearray(clean)
        data[offset : offset + 4] = (0).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactFormatError, match=name) as err:
            read_artifact(str(path))
        assert err.value.offset == offset
    # vocab_size=1 would make adaptive cadence divide by log(1).
    data = bytearray(clean)
    data[len(MAGIC) : len(MAGIC) + 4] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(ArtifactFormatError, match="vocab_size") as err:
        read_artifact(str(path))
    assert err.value.offset == len(MAGIC)
    # The stream lengths follow the u64 seed and the five f64 scalars.
    offset = len(MAGIC) + 6 * 4 + 8 + 5 * 8 + 4 * 1
    data = bytearray(clean)
    data[offset : offset + 4] = (_MAX_LEN + 1).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(ArtifactFormatError, match=r"length\[1\]") as err:
        read_artifact(str(path))
    assert err.value.offset == offset


def test_artifact_header_consistency_enforced():
    art = synthesize_artifact(SMALL)
    for width in ("vocab_size", "d", "d_note", "d_bottleneck", "d_attn"):
        with pytest.raises(ShapeError):
            dataclasses.replace(art, **{width: getattr(art, width) + 1})
    with pytest.raises(ConfigError, match="vocab_size"):
        dataclasses.replace(art, vocab_size=1)


def _wider(a):
    """a with its first column repeated at the end of its last axis."""
    return np.concatenate([a, a[..., :1]], axis=-1)


@pytest.mark.parametrize(("owner", "name"), [row[:2] for row in _WEIGHTS], ids=[row[1] for row in _WEIGHTS])
def test_a_weight_wider_than_the_header_is_refused(owner, name):
    # An AgreementParams of any width constructs, so for w_agree only the
    # artifact's own check stops an artifact that writes but cannot be read.
    art = synthesize_artifact(SMALL)
    with pytest.raises(ShapeError):
        if owner is None:
            dataclasses.replace(art, **{name: _wider(getattr(art, name))})
        else:
            params = getattr(art, owner)
            dataclasses.replace(art, **{owner: dataclasses.replace(params, **{name: _wider(getattr(params, name))})})


@pytest.mark.parametrize("name", [row[0] for row in _FRAMES])
def test_a_frame_array_wider_than_the_header_is_refused(name):
    # A 1-D frame array's last axis is the frame axis, so it is one frame too long.
    art = synthesize_artifact(SMALL)
    with pytest.raises(ShapeError):
        frames = dataclasses.replace(art.streams[1], **{name: _wider(getattr(art.streams[1], name))})
        dataclasses.replace(art, streams=(art.streams[0], frames))


@pytest.mark.parametrize("build", sorted({case[1] for case in CASES}, key=lambda b: b.__name__), ids=lambda b: b.__name__)
def test_every_artifact_that_constructs_reads_back_byte_for_byte(tmp_path, build):
    # The golden artifacts, ragged's streams of 56, 19 and 0 frames among them.
    art = build()
    first, second = tmp_path / "a.pdtr", tmp_path / "b.pdtr"
    write_artifact(art, str(first))
    back = read_artifact(str(first))
    write_artifact(back, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert back.lengths() == art.lengths()
    # The folded attention weights are computed again from the read arrays, to the bit.
    for name in ("w_qk", "w_vo"):
        assert getattr(back.snc, name).tobytes() == getattr(art.snc, name).tobytes()


def test_a_read_holds_the_file_once_in_aligned_read_only_arrays(tmp_path):
    path = tmp_path / "read.pdtr"
    write_artifact(synthesize_artifact(SynthSpec(n_streams=4, length=512, vocab_size=128, d=32)), str(path))
    size = path.stat().st_size
    assert size > 2 << 20
    tracemalloc.start()
    try:
        art = read_artifact(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * size, f"read peak {peak} bytes for a {size}-byte file"
    arrays = [getattr(art if owner is None else getattr(art, owner), name) for owner, name, _ in _WEIGHTS]
    arrays += [getattr(frames, name) for frames in art.streams for name, _, _ in _FRAMES]
    assert not any(a.flags.writeable for a in arrays)
    assert all(a.flags.aligned for a in arrays)


def test_a_write_copies_no_array(tmp_path):
    art = synthesize_artifact(SynthSpec(n_streams=4, length=512, vocab_size=128, d=32))
    path = tmp_path / "write.pdtr"
    tracemalloc.start()
    try:
        write_artifact(art, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2 << 20
    assert peak < 0.25 * size, f"write peak {peak} bytes for a {size}-byte file"
