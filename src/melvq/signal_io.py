"""PCM WAV input/output and the in-memory audio representation."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .errors import FormatError

PCM16_FULL_SCALE = 32768.0
PCM16_MAX_SAMPLE = 1.0 - 2.0 ** -15  # largest value representable as int16 / 32768


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


def read_wav(path) -> AudioBuffer:
    """Read an integer PCM WAV file as a mono AudioBuffer.

    16-bit samples are scaled by 1/32768. 24- and 32-bit samples arrive from
    scipy widened into the int32 range and are scaled by 1/2**31. Multichannel
    content is averaged to mono. The sample rate is preserved as read; rate
    requirements are enforced by the analysis stage, not here.
    """
    try:
        rate, data = wavfile.read(path)
    except (ValueError, struct.error, EOFError, ZeroDivisionError, UnboundLocalError) as exc:
        # scipy's reader raises each of these on truncated or malformed headers
        raise FormatError(f"{path}: malformed, unsupported or non-PCM WAV ({exc})") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / PCM16_FULL_SCALE
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    else:
        raise FormatError(
            f"{path}: unsupported sample format {data.dtype}; "
            "only 16/24/32-bit integer PCM is accepted"
        )
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return AudioBuffer(samples, int(rate))


def write_wav(path, audio: AudioBuffer) -> None:
    """Write 16-bit PCM, clamping samples to [-1, 1 - 2**-15] first."""
    clipped = np.clip(audio.samples, -1.0, PCM16_MAX_SAMPLE)
    pcm = np.round(clipped * PCM16_FULL_SCALE).astype(np.int16)
    wavfile.write(path, audio.sample_rate_hz, pcm)
