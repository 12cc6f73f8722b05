"""Stream serialization: header fields, MSB-first payload packing, parsing."""

from __future__ import annotations

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from melvq import quantizer
from melvq.analysis import FrameConfig, compute_mfcc
from melvq.bitstream import (
    HEADER_LEN,
    STREAM_MAGIC,
    STREAM_VERSION,
    EncodedStream,
    encode_audio,
    pack,
    stream_bitrate,
    stream_codes,
    unpack_codes,
)
from melvq.errors import FormatError
from melvq.quantizer import FrameCode, RateMode, _quantize
from melvq.signal_io import AudioBuffer
from melvq.signals import speech_like
from melvq.synthesis import decode_stream
from melvq.trainer import train_codebook_set


def frame_codes_strategy(mode: RateMode):
    return st.tuples(*[
        st.integers(min_value=0, max_value=2 ** bits - 1)
        for bits in mode.field_bits
    ])


def _rows(codes, mode: RateMode) -> np.ndarray:
    return np.array(codes, dtype=np.int64).reshape(-1, len(mode.field_bits))


def test_hand_packed_single_frame():
    # sq index 5 in 4 bits then vq index 1000 in 12 bits:
    # 0101 0011 1110 1000 -> 0x53 0xE8
    stream = pack([[5, 1000]], RateMode.R1000, 0)
    assert stream.payload == bytes([0x53, 0xE8])
    assert stream_codes(stream) == (FrameCode(5, (1000,)),)


def test_header_layout():
    stream = pack([[1, 2]], RateMode.R1000, 0xDEADBEEFCAFEF00D)
    raw = stream.to_bytes()
    assert raw[:4] == STREAM_MAGIC
    assert raw[4] == STREAM_VERSION
    assert raw[5] == 0  # R1000 wire byte
    assert int.from_bytes(raw[6:10], "little") == 1
    assert int.from_bytes(raw[10:18], "little") == 0xDEADBEEFCAFEF00D
    assert len(raw) == HEADER_LEN + 2


def test_r2000_frames_are_four_bytes():
    codes = [[63, 8191, 8191], [0, 0, 1]]
    stream = pack(codes, RateMode.R2000, 7)
    assert len(stream.payload) == 8
    # first frame is all ones: 6+13+13 = 32 set bits
    assert stream.payload[:4] == b"\xff\xff\xff\xff"
    assert stream_codes(stream) == (FrameCode(63, (8191, 8191)), FrameCode(0, (0, 1)))


def test_pack_rejects_out_of_range_indices():
    with pytest.raises(ValueError, match="does not fit"):
        pack([[16, 0]], RateMode.R1000, 0)
    with pytest.raises(ValueError, match="does not fit"):
        pack([[0, 4096]], RateMode.R1000, 0)
    with pytest.raises(ValueError, match="does not fit"):
        pack([[0, 0], [-1, 0]], RateMode.R1000, 0)
    with pytest.raises(ValueError, match="does not fit"):
        pack([[0, -2]], RateMode.R1000, 0)


def test_pack_rejects_wrong_field_count():
    with pytest.raises(ValueError):
        pack([[0, 0, 0]], RateMode.R1000, 0)


def test_empty_stream_roundtrips():
    stream = pack(np.zeros((0, 3), dtype=np.int64), RateMode.R2000, 1)
    raw = stream.to_bytes()
    assert len(raw) == HEADER_LEN
    back = EncodedStream.from_bytes(raw)
    assert back.frame_count == 0
    assert stream_codes(back) == ()


def test_from_bytes_error_paths():
    good = pack([[3, 7]], RateMode.R1000, 5).to_bytes()

    with pytest.raises(FormatError, match="header"):
        EncodedStream.from_bytes(good[:10])
    with pytest.raises(FormatError, match="magic"):
        EncodedStream.from_bytes(b"XXXX" + good[4:])
    with pytest.raises(FormatError, match="version"):
        EncodedStream.from_bytes(good[:4] + bytes([9]) + good[5:])
    with pytest.raises(FormatError, match="mode"):
        EncodedStream.from_bytes(good[:5] + bytes([7]) + good[6:])
    with pytest.raises(FormatError, match="truncated"):
        EncodedStream.from_bytes(good[:-1])
    with pytest.raises(FormatError, match="trailing"):
        EncodedStream.from_bytes(good + b"\x00")


def test_unpack_returns_mode_hash_codes():
    codes = np.array([[2, 30, 40], [1, 0, 8000]])
    raw = pack(codes, RateMode.R2000, 0xABC).to_bytes()
    stream = EncodedStream.from_bytes(raw)
    assert stream.rate_mode is RateMode.R2000
    assert stream.codebook_hash == 0xABC
    assert np.array_equal(unpack_codes(stream), codes)


def test_bitrate_is_exact():
    s1 = pack(np.zeros((10, 2), dtype=np.int64), RateMode.R1000, 0)
    s2 = pack(np.zeros((10, 3), dtype=np.int64), RateMode.R2000, 0)
    assert stream_bitrate(s1) == 1000.0
    assert stream_bitrate(s2) == 2000.0


@settings(max_examples=200, deadline=None)
@given(st.lists(frame_codes_strategy(RateMode.R1000), max_size=40))
def test_r1000_roundtrip_property(codes):
    rows = _rows(codes, RateMode.R1000)
    stream = pack(rows, RateMode.R1000, 123)
    back = EncodedStream.from_bytes(stream.to_bytes())
    assert np.array_equal(unpack_codes(back), rows)
    assert stream_codes(back) == tuple(FrameCode(c[0], c[1:]) for c in codes)


@settings(max_examples=200, deadline=None)
@given(st.lists(frame_codes_strategy(RateMode.R2000), max_size=40))
def test_r2000_roundtrip_property(codes):
    rows = _rows(codes, RateMode.R2000)
    stream = pack(rows, RateMode.R2000, 2 ** 64 - 1)
    back = EncodedStream.from_bytes(stream.to_bytes())
    assert back.codebook_hash == 2 ** 64 - 1
    assert np.array_equal(unpack_codes(back), rows)
    assert stream_codes(back) == tuple(FrameCode(c[0], c[1:]) for c in codes)


def test_mass_roundtrip_both_modes():
    """Bulk randomized roundtrip, mirroring the acceptance volume."""
    rng = np.random.default_rng(0)
    for mode in (RateMode.R1000, RateMode.R2000):
        widths = mode.field_bits
        mismatches = 0
        for _ in range(100):
            count = int(rng.integers(0, 60))
            codes = np.stack([rng.integers(0, 2 ** w, size=count) for w in widths], axis=1)
            back = unpack_codes(
                EncodedStream.from_bytes(pack(codes, mode, 99).to_bytes())
            )
            if not np.array_equal(back, codes):
                mismatches += 1
        assert mismatches == 0


@pytest.mark.parametrize("mode", list(RateMode))
@pytest.mark.parametrize("count", [0, 1, 7, 1000])
def test_pack_and_unpack_match_the_word_packer(mode, count):
    """The bit packer gives the bytes and codes of the one-word-per-frame
    packer it replaced, for all-zero, all-maximum and random indices."""
    widths = np.array(mode.field_bits)
    rng = np.random.default_rng(count)
    for codes in (np.zeros((count, len(widths)), np.int64),
                  np.tile((1 << widths) - 1, (count, 1)),
                  rng.integers(0, 1 << widths, (count, len(widths)))):
        stream, want = pack(codes, mode, 5), reference.pack(codes, mode, 5)
        assert stream.payload == want.payload
        got, expected = unpack_codes(stream), reference.unpack_codes(want)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got, codes)


def test_a_field_table_of_any_width_round_trips_end_to_end(monkeypatch, train_corpus):
    """With R2000 patched to 3 + 5 + 5 + 5 = 18 bits per frame, which is no
    whole number of bytes, training, encoding, parsing, unpacking and
    decoding follow the field table: frames are MSB-first, and only the
    payload is zero-padded to a whole byte, at the end."""
    monkeypatch.setitem(quantizer._FIELD_BITS, RateMode.R2000, (3, 5, 5, 5))
    books, reports = train_codebook_set(train_corpus, RateMode.R2000)
    assert set(reports) == {"scalar", "msvq"}
    assert books.stage_bits == (5, 5, 5)
    cfg = FrameConfig()
    speech = speech_like(1.0, seed=7).samples
    for count in (0, 1, 3, 40):
        if count:
            audio = AudioBuffer(speech[:count * cfg.frame_shift], cfg.sample_rate_hz)
            codes = _quantize(compute_mfcc(audio, cfg).values, books)
            stream = encode_audio(audio, books)
        else:  # no audio gives zero frames
            codes = np.zeros((0, 4), np.int64)
            stream = pack(codes, RateMode.R2000, books.content_hash)
        assert stream.frame_count == count
        assert len(stream.payload) == -(-18 * count // 8)
        parsed = EncodedStream.from_bytes(stream.to_bytes())
        bits = np.unpackbits(np.frombuffer(parsed.payload, np.uint8))
        assert not bits[18 * count:].any()
        expected = "".join(f"{c:0{w}b}" for row in codes for c, w in zip(row, (3, 5, 5, 5)))
        assert "".join(map(str, bits[:18 * count])) == expected
        np.testing.assert_array_equal(unpack_codes(parsed), codes)
        if count:
            decoded = decode_stream(parsed, books, gl_iterations=2)
            assert len(decoded) == (count - 1) * cfg.frame_shift + cfg.frame_len
            assert np.all(np.isfinite(decoded.samples))
