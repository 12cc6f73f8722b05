"""Stream serialization: header fields, MSB-first payload packing, parsing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melvq.analysis import FrameConfig
from melvq.bitstream import (
    HEADER_LEN,
    STREAM_MAGIC,
    STREAM_VERSION,
    EncodedStream,
    pack,
    stream_bitrate,
    stream_codes,
    unpack_codes,
)
from melvq.errors import FormatError
from melvq.quantizer import FrameCode, RateMode


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
    cfg = FrameConfig()
    s1 = pack(np.zeros((10, 2), dtype=np.int64), RateMode.R1000, 0)
    s2 = pack(np.zeros((10, 3), dtype=np.int64), RateMode.R2000, 0)
    assert stream_bitrate(s1, cfg) == 1000.0
    assert stream_bitrate(s2, cfg) == 2000.0


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
