"""Bit-exact stream container for encoded frames.

A stream is an 18-byte header followed by the packed frame payload:

    offset  size  field
    0       4     magic "MVQC"
    4       1     version (0x01)
    5       1     rate mode: 0 = 1000 bit/s, 1 = 2000 bit/s
    6       4     frame count, unsigned 32-bit little-endian
    10      8     codebook content hash, unsigned 64-bit little-endian

Payload frames are concatenated MSB-first in field order: energy index, then
the VQ stage index(es). Field widths are fixed per mode (4+12 bits or
6+13+13 bits, so 16 or 32 bits per frame) regardless of the trained codebook
sizes, and the payload is zero-padded to a whole byte at the end. The header
is not counted in the payload bit rate. encode_audio is the whole encoder:
MFCC analysis, quantization and packing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import FrameConfig, compute_mfcc
from .errors import FormatError
from .quantizer import DEFAULT_BEAM_WIDTH, CodebookSet, FrameCode, RateMode, _quantize
from .signal_io import AudioBuffer

STREAM_MAGIC = b"MVQC"
STREAM_VERSION = 1
HEADER_LEN = 18


@dataclass(frozen=True, eq=False)
class EncodedStream:
    """Parsed stream header plus the packed payload bytes."""

    rate_mode: RateMode
    frame_count: int
    codebook_hash: int
    payload: bytes
    version: int = STREAM_VERSION

    def __post_init__(self) -> None:
        if self.frame_count < 0:
            raise ValueError("frame_count must be non-negative")
        if not 0 <= self.codebook_hash < 2 ** 64:
            raise ValueError("codebook_hash must fit in 64 bits")
        expected = _payload_len(self.rate_mode, self.frame_count)
        if len(self.payload) != expected:
            raise ValueError(
                f"payload is {len(self.payload)} bytes, expected {expected} "
                f"for {self.frame_count} frames"
            )

    def to_bytes(self) -> bytes:
        header = (
            STREAM_MAGIC
            + bytes([self.version, self.rate_mode.wire_byte])
            + self.frame_count.to_bytes(4, "little")
            + self.codebook_hash.to_bytes(8, "little")
        )
        return header + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodedStream":
        if len(data) < HEADER_LEN:
            raise FormatError("stream shorter than its fixed header")
        if data[:4] != STREAM_MAGIC:
            raise FormatError(f"bad stream magic {data[:4]!r}")
        if data[4] != STREAM_VERSION:
            raise FormatError(f"unsupported stream version {data[4]}")
        try:
            mode = RateMode.from_wire_byte(data[5])
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        frame_count = int.from_bytes(data[6:10], "little")
        codebook_hash = int.from_bytes(data[10:18], "little")
        expected = _payload_len(mode, frame_count)
        payload = data[HEADER_LEN:]
        if len(payload) < expected:
            raise FormatError(
                f"truncated payload: {len(payload)} bytes for {frame_count} frames"
            )
        if len(payload) > expected:
            raise FormatError(
                f"trailing garbage: {len(payload) - expected} bytes beyond the payload"
            )
        return cls(mode, frame_count, codebook_hash, payload)


def _payload_len(mode: RateMode, frame_count: int) -> int:
    return (frame_count * mode.bits_per_frame + 7) // 8


def _word_dtype(mode: RateMode) -> np.dtype:
    return np.dtype(f">u{mode.bits_per_frame // 8}")


def pack(codes: np.ndarray, mode: RateMode, codebook_hash: int) -> EncodedStream:
    """Pack a (frames, fields) index array into a stream, validating every
    index against the mode's fixed field widths."""
    widths = mode.field_bits
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2 or codes.shape[1] != len(widths):
        raise ValueError(
            f"{mode.name} packs {len(widths)} fields per frame, "
            f"got codes of shape {codes.shape}"
        )
    bad = np.argwhere((codes < 0) | (codes >= 1 << np.array(widths)))
    if bad.size:
        n, k = bad[0]
        raise ValueError(f"frame {n}: index {codes[n, k]} does not fit in {widths[k]} bits")
    words = np.zeros(len(codes), dtype=np.int64)
    for k, width in enumerate(widths):
        words = (words << width) | codes[:, k]
    payload = words.astype(_word_dtype(mode)).tobytes()
    return EncodedStream(mode, len(codes), codebook_hash, payload)


def unpack_codes(stream: EncodedStream) -> np.ndarray:
    """Unpack the payload into a (frames, fields) index array."""
    widths = np.array(stream.rate_mode.field_bits)
    words = np.frombuffer(stream.payload, dtype=_word_dtype(stream.rate_mode),
                          count=stream.frame_count).astype(np.int64)
    shifts = widths.sum() - np.cumsum(widths)
    return (words[:, None] >> shifts) & ((1 << widths) - 1)


def stream_codes(stream: EncodedStream) -> tuple[FrameCode, ...]:
    """Per-frame view of the unpacked indices."""
    return tuple(FrameCode(row[0], tuple(row[1:]))
                 for row in unpack_codes(stream).tolist())


def encode_audio(audio: AudioBuffer, codebooks: CodebookSet,
                 beam_width: int = DEFAULT_BEAM_WIDTH,
                 config: FrameConfig | None = None) -> EncodedStream:
    """Analyze and quantize audio into an encoded stream."""
    cfg = config or FrameConfig()
    if 1 + codebooks.vector_dim != cfg.num_bands:
        raise ValueError("codebook dimension does not match the frame config")
    features = compute_mfcc(audio, cfg)
    codes = _quantize(features.values, codebooks, beam_width)
    return pack(codes, codebooks.rate_mode, codebooks.content_hash)


def stream_bitrate(stream: EncodedStream, config: FrameConfig | None = None) -> float:
    """Payload bit rate in bit/s: bits per frame times frames per second.

    Computed from integers (bits * sample_rate / frame_shift), so the nominal
    operating points come out exactly 1000.0 and 2000.0.
    """
    cfg = config or FrameConfig()
    return stream.rate_mode.bits_per_frame * cfg.sample_rate_hz / cfg.frame_shift
