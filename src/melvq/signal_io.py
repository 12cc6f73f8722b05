"""PCM WAV input/output and the in-memory audio representation.

WAV files are RIFF containers: a 12-byte "RIFF" <size> "WAVE" header, then
chunks of a 4-byte id, a 32-bit little-endian size and that many bytes,
padded to an even length. The reader needs a "fmt " chunk before the "data"
chunk and skips every other chunk.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

PCM16_FULL_SCALE = 32768.0
PCM16_MAX_SAMPLE = 1.0 - 2.0 ** -15  # largest value representable as int16 / 32768

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Trailing 12 bytes of every KSDATAFORMAT_SUBTYPE GUID; the first 4 hold the
# format tag (RFC 2361).
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_FMT = struct.Struct("<HHIIHH")  # tag, channels, rate, byte rate, block align, bits
_CHUNK = struct.Struct("<4sI")


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Mono audio samples plus their sample rate.

    Samples are float64. Codec input and output live in [-1, 1]; intermediate
    signals may exceed that range and are clamped only when written to WAV.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_seconds(self) -> float:
        return self.samples.size / self.sample_rate_hz


def _format_tag(fmt: bytes, tag: int) -> int:
    """The effective format tag: an EXTENSIBLE header's subformat tag."""
    if tag != WAVE_FORMAT_EXTENSIBLE:
        return tag
    if len(fmt) < 40 or struct.unpack_from("<H", fmt, 16)[0] < 22:
        raise FormatError("EXTENSIBLE fmt chunk too short")
    guid = fmt[24:40]
    return struct.unpack_from("<I", guid)[0] if guid[4:] == _SUBFORMAT_GUID_TAIL else tag


def _parse_wav(data: bytes) -> tuple[int, np.ndarray]:
    """Sample rate and (frames, channels) 16- or 32-bit integer samples of
    RIFF WAV bytes. 24-bit samples are widened into the 32-bit range."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError("not a RIFF WAVE file")
    pos, fmt = 12, None
    while True:
        if pos + _CHUNK.size > len(data):
            raise FormatError("no data chunk" if fmt else "no fmt chunk")
        chunk_id, size = _CHUNK.unpack_from(data, pos)
        body = pos + _CHUNK.size
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            if size < _FMT.size or body + size > len(data):
                raise FormatError("truncated fmt chunk")
            fmt = data[body:body + size]
        pos = body + size + size % 2
    if fmt is None:
        raise FormatError("no fmt chunk before the data chunk")
    tag, channels, rate, byte_rate, block_align, bits = _FMT.unpack_from(fmt)
    tag = _format_tag(fmt, tag)
    if tag != WAVE_FORMAT_PCM:
        raise FormatError(f"format tag 0x{tag:04x} is not integer PCM")
    if channels == 0 or rate == 0 or block_align % channels or byte_rate != rate * block_align:
        raise FormatError(f"inconsistent fmt chunk: {channels} channel(s), {rate} Hz, "
                          f"block align {block_align}, {byte_rate} bytes/s")
    width = block_align // channels
    if width not in (2, 3, 4) or not 8 < bits <= 8 * width:
        raise FormatError(f"{bits}-bit samples in {width}-byte containers; "
                          "only 16/24/32-bit integer PCM is accepted")
    # A data chunk cut short by the end of the file yields its whole frames.
    frames = min(size, len(data) - body) // block_align
    if frames == 0:
        raise FormatError("the data chunk holds no whole sample frame")
    raw = np.frombuffer(data, np.uint8, frames * block_align, body)
    if width == 3:
        widened = np.zeros((raw.size // 3, 4), np.uint8)
        widened[:, 1:] = raw.reshape(-1, 3)
        samples = widened.view("<i4")
    else:
        samples = raw.view(f"<i{width}")
    return rate, samples.reshape(frames, channels)


def read_wav(path) -> AudioBuffer:
    """Read an integer PCM WAV file as a mono AudioBuffer.

    Accepts 16-, 24- and 32-bit PCM, plain or WAVE_FORMAT_EXTENSIBLE; any
    other format, any malformed or truncated header and a file without one
    whole sample frame raise FormatError.
    16-bit samples are scaled by 1/32768. 24-bit samples are widened into the
    int32 range (shifted left by 8 bits) and, like 32-bit ones, scaled by
    1/2**31. Multichannel content is averaged to mono. The sample rate is
    preserved as read; rate requirements are enforced by the analysis stage,
    not here.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        rate, pcm = _parse_wav(data)
    except FormatError as exc:
        raise FormatError(f"{path}: malformed, unsupported or non-PCM WAV ({exc})") from exc
    scale = PCM16_FULL_SCALE if pcm.dtype.itemsize == 2 else 2147483648.0
    samples = pcm.astype(np.float64) / scale
    if pcm.shape[1] == 1:
        return AudioBuffer(samples[:, 0], rate)
    return AudioBuffer(samples.mean(axis=1), rate)


def write_wav(path, audio: AudioBuffer) -> None:
    """Write 16-bit mono PCM, clamping samples to [-1, 1 - 2**-15] first."""
    clipped = np.clip(audio.samples, -1.0, PCM16_MAX_SAMPLE)
    pcm = np.round(clipped * PCM16_FULL_SCALE).astype("<i2").tobytes()
    rate = audio.sample_rate_hz
    header = (_CHUNK.pack(b"RIFF", 36 + len(pcm)) + b"WAVE" + _CHUNK.pack(b"fmt ", _FMT.size)
              + _FMT.pack(WAVE_FORMAT_PCM, 1, rate, 2 * rate, 2, 16)
              + _CHUNK.pack(b"data", len(pcm)))
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(pcm)
