"""Artifact synthesis determinism and binary round-trip fidelity."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcoord.errors import ArtifactFormatError, ConfigError, ShapeError
from pdtcoord.replay import (
    _MAX_LEN,
    BASE_AGREEMENT,
    DIVERGENCE_AGREEMENT,
    MAGIC,
    SynthSpec,
    read_artifact,
    synthesize_artifact,
    write_artifact,
)

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


@pytest.mark.parametrize(
    ("field", "value"),
    [("n_streams", 4097), ("length", _MAX_LEN + 1), ("seed", -1)],
)
def test_synth_spec_refuses_what_the_format_cannot_hold(field, value):
    # Refused when the spec is built, before anything is synthesized.
    with pytest.raises(ConfigError, match=f"{field}={value}"):
        SynthSpec(**{field: value})


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
    write_artifact(art, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:5] == MAGIC


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


def test_nonfinite_payload_rejected(tmp_path):
    art = synthesize_artifact(SMALL)
    path = tmp_path / "nan.pdtr"
    write_artifact(art, str(path))
    clean = path.read_bytes()
    # The last float of the file, then the five header scalars (ln_eps,
    # gamma, b_agree, dropout_rate, tau) that follow magic, six u32 and a u64.
    header = len(MAGIC) + 6 * 4 + 8
    for offset in (len(clean) - 8, *range(header, header + 5 * 8, 8)):
        for bad in (np.nan, np.inf, -np.inf):
            data = bytearray(clean)
            data[offset : offset + 8] = np.array([bad], dtype="<f8").tobytes()
            path.write_bytes(bytes(data))
            with pytest.raises(ArtifactFormatError, match="non-finite") as err:
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
