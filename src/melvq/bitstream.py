"""The codec's three byte containers, and encode_audio, the whole encoder
(MFCC analysis, quantization and packing).

Each container starts with a 4-byte magic and a version byte (1); integers
are unsigned little-endian. Readers check, in this order, that the fixed
header is there, the magic, the version, the rate-mode byte (0 = 1000 bit/s,
1 = 2000 bit/s) where the format has one, and that the file is exactly as
long as its header says. Every failure is a FormatError.

    .mvqc stream      .mvqb codebooks                .mels mel-spectrogram
    0  "MVQC"         0  "MVQB"                      0  "MELS"
    4  version        4  version                     4  version
    5  rate mode      5  rate mode                   5  frame count M, u32
    6  frames, u32    6  energy stage bit width      9  band count K, u32
    10 book hash, u64 7  vector dimension, u16       13 sample rate, u32
    18 payload        9  one bit width per VQ stage  17 frame length, u32
                      .. stage tables, float32       21 frame shift, u32
                      -8 FNV-1a of the rest, u64     25 M x K float32

Stream frames are concatenated MSB-first in field order: energy index, then
the VQ stage index(es). Field widths are fixed per mode (4+12 bits or
6+13+13 bits, so 16 or 32 bits per frame) regardless of the trained codebook
sizes, and the payload is zero-padded to a whole byte at the end. The header
is not counted in the payload bit rate. Codebook stage tables are row-major,
energy levels first; load checks the digest in one fnv1a64 pass before it
parses them, then checks that they serialize back to the hashed bytes. Mel
values are row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import FrameConfig, MelSpectrogram, compute_mfcc
from .errors import FormatError, HashMismatchError
from .quantizer import (
    CODEBOOK_MAGIC,
    CODEBOOK_VERSION,
    DEFAULT_BEAM_WIDTH,
    CodebookSet,
    FrameCode,
    RateMode,
    VectorCodebook,
    _quantize,
    codebook_payload,
    fnv1a64,
)
from .signal_io import AudioBuffer

STREAM_MAGIC = b"MVQC"
STREAM_VERSION = 1
HEADER_LEN = 18

MELSPEC_MAGIC = b"MELS"
MELSPEC_VERSION = 1
MELSPEC_HEADER_LEN = 25

_BOOK_HEADER_LEN = 9  # before the per-stage bit widths
_DIGEST_LEN = 8


def _check_header(data: bytes, magic: bytes, version: int, min_len: int, what) -> None:
    """The first three checks of every reader: length, magic, version."""
    if len(data) < min_len:
        raise FormatError(f"{what}: shorter than its fixed header")
    if data[:4] != magic:
        raise FormatError(f"{what}: bad magic {data[:4]!r}")
    if data[4] != version:
        raise FormatError(f"{what}: unsupported version {data[4]}")


def _rate_mode(byte: int, what) -> RateMode:
    try:
        return RateMode.from_wire_byte(byte)
    except ValueError as exc:
        raise FormatError(f"{what}: {exc}") from exc


def _check_length(size: int, expected: int, what) -> None:
    """A container is exactly as long as its header says."""
    if size < expected:
        raise FormatError(f"{what}: truncated, {size} bytes where the header gives {expected}")
    if size > expected:
        raise FormatError(f"{what}: trailing garbage, {size - expected} bytes past the end")


@dataclass(frozen=True, eq=False)
class EncodedStream:
    """Parsed stream header plus the packed payload bytes."""

    rate_mode: RateMode
    frame_count: int
    codebook_hash: int
    payload: bytes

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
            + bytes([STREAM_VERSION, self.rate_mode.wire_byte])
            + self.frame_count.to_bytes(4, "little")
            + self.codebook_hash.to_bytes(8, "little")
        )
        return header + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodedStream":
        _check_header(data, STREAM_MAGIC, STREAM_VERSION, HEADER_LEN, "stream")
        mode = _rate_mode(data[5], "stream")
        frame_count = int.from_bytes(data[6:10], "little")
        _check_length(len(data), HEADER_LEN + _payload_len(mode, frame_count), "stream")
        return cls(mode, frame_count, int.from_bytes(data[10:18], "little"),
                   data[HEADER_LEN:])


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
                 beam_width: int = DEFAULT_BEAM_WIDTH) -> EncodedStream:
    """Analyze and quantize audio into an encoded stream."""
    cfg = FrameConfig()
    if 1 + codebooks.vector_dim != cfg.num_bands:
        raise ValueError("codebook dimension does not match the frame config")
    features = compute_mfcc(audio, cfg)
    codes = _quantize(features.values, codebooks, beam_width)
    return pack(codes, codebooks.rate_mode, codebooks.content_hash)


def stream_bitrate(stream: EncodedStream) -> float:
    """Payload bit rate in bit/s: bits per frame times frames per second.

    Computed from integers (bits * sample_rate / frame_shift), so the nominal
    operating points come out exactly 1000.0 and 2000.0.
    """
    cfg = FrameConfig()
    return stream.rate_mode.bits_per_frame * cfg.sample_rate_hz / cfg.frame_shift


def save_codebooks(codebooks: CodebookSet, path) -> None:
    """Write a .mvqb file: the codebook payload, then its digest."""
    payload = codebook_payload(codebooks)
    Path(path).write_bytes(payload + codebooks.content_hash.to_bytes(_DIGEST_LEN, "little"))


def load_codebooks(path, expected_mode: RateMode | None = None) -> CodebookSet:
    """Read and verify a .mvqb file.

    A stored digest that differs from the payload's, or a payload that does
    not serialize back to itself, raises HashMismatchError. Pass
    expected_mode to reject a file trained for the other rate.
    """
    data = Path(path).read_bytes()
    _check_header(data, CODEBOOK_MAGIC, CODEBOOK_VERSION, _BOOK_HEADER_LEN + _DIGEST_LEN, path)
    mode = _rate_mode(data[5], path)
    num_vq = len(mode.field_bits) - 1
    offset = _BOOK_HEADER_LEN + num_vq
    bits = (data[6], *data[_BOOK_HEADER_LEN:offset])
    dims = (1,) + (int.from_bytes(data[7:9], "little"),) * num_vq
    table_len = 4 * sum(2 ** b * d for b, d in zip(bits, dims))
    _check_length(len(data), offset + table_len + _DIGEST_LEN, path)
    stored = int.from_bytes(data[-_DIGEST_LEN:], "little")
    payload = memoryview(data)[:-_DIGEST_LEN]
    computed = fnv1a64(payload)
    if stored != computed:
        raise HashMismatchError(
            f"{path}: stored hash {stored:016x} != computed {computed:016x}"
        )
    stages = []
    try:
        for b, d in zip(bits, dims):
            flat = np.frombuffer(data, dtype="<f4", count=2 ** b * d, offset=offset)
            stages.append(VectorCodebook(flat.reshape(2 ** b, d).copy(), b))
            offset += flat.nbytes
        codebooks = CodebookSet(mode, tuple(stages), content_hash=computed)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    # startswith compares in place; == on a memoryview goes item by item
    serialized = codebook_payload(codebooks)
    if len(serialized) != len(payload) or not data.startswith(serialized):
        raise HashMismatchError(f"{path}: payload does not re-serialize to the hashed bytes")
    if expected_mode is not None and mode is not expected_mode:
        raise FormatError(
            f"{path}: codebook is for {mode.value} bit/s, "
            f"expected {expected_mode.value} bit/s"
        )
    return codebooks


def export_mel(mel: MelSpectrogram, path) -> None:
    """Write a .mels file for external vocoders."""
    cfg = mel.config
    fields = (mel.values.shape[0], cfg.num_bands, cfg.sample_rate_hz,
              cfg.frame_len, cfg.frame_shift)
    header = MELSPEC_MAGIC + bytes([MELSPEC_VERSION]) + b"".join(
        int(value).to_bytes(4, "little") for value in fields)
    Path(path).write_bytes(header + mel.values.astype("<f4").tobytes())


def import_mel(path) -> MelSpectrogram:
    """Read a .mels file written by export_mel."""
    data = Path(path).read_bytes()
    _check_header(data, MELSPEC_MAGIC, MELSPEC_VERSION, MELSPEC_HEADER_LEN, path)
    num_frames, num_bands, rate, frame_len, frame_shift = (
        int.from_bytes(data[5 + 4 * i:9 + 4 * i], "little") for i in range(5)
    )
    _check_length(len(data), MELSPEC_HEADER_LEN + 4 * num_frames * num_bands, path)
    values = np.frombuffer(data, dtype="<f4", offset=MELSPEC_HEADER_LEN,
                           count=num_frames * num_bands)
    try:
        cfg = FrameConfig(sample_rate_hz=rate, frame_len=frame_len,
                          frame_shift=frame_shift, num_bands=num_bands)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return MelSpectrogram(values.reshape(num_frames, num_bands).astype(np.float64), cfg)
