"""Receiver-side synthesis: inverse DCT, mel inversion, Griffin-Lim, WOLA.

Decoding mirrors the analysis chain. Received MFCC frames are inverted by the
orthonormal inverse DCT into log-mel rows, exponentiated, and mapped back to
linear-frequency magnitudes through the Moore-Penrose pseudo-inverse of the
mel filterbank with negative leakage clamped to zero. A deterministic
Griffin-Lim loop (zero-phase start, fixed iteration count) recovers a phase,
and weighted overlap-add with the analysis Hamming window reconstructs the
waveform. Decoded audio always has length (frame_count - 1) * shift + length.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    FrameConfig,
    FrameMatrix,
    MelFilterbank,
    MelSpectrogram,
    _idct,
    build_mel_filterbank,
    hamming_window,
)
from .bitstream import EncodedStream, unpack_codes
from .errors import FormatError, HashMismatchError
from .quantizer import CodebookSet, dequantize
from .signal_io import AudioBuffer

DEFAULT_GL_ITERATIONS = 60
WOLA_FLOOR = 1e-8  # floor on the accumulated squared window before division

MELSPEC_MAGIC = b"MELS"
MELSPEC_VERSION = 1
MELSPEC_HEADER_LEN = 25


@dataclass(frozen=True, eq=False)
class MagnitudeSpectrogram:
    """Non-negative linear-frequency magnitudes, one row per frame."""

    values: np.ndarray
    config: FrameConfig

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != self.config.num_bins:
            raise ValueError("values must be (num_frames, num_bins)")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("magnitudes must be finite and non-negative")

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]


def magnitude_spectrogram(frames: FrameMatrix) -> MagnitudeSpectrogram:
    """FFT magnitude of windowed analysis frames (the Griffin-Lim target when
    synthesizing from a true spectrogram)."""
    cfg = frames.config
    return MagnitudeSpectrogram(
        np.abs(np.fft.rfft(frames.frames, n=cfg.fft_size, axis=1)), cfg
    )


def idct_mel(coefficients: np.ndarray) -> np.ndarray:
    """Invert the orthonormal DCT-II; accepts one row or a matrix of rows."""
    return _idct(coefficients)


def mel_to_linear(mel: MelSpectrogram, filterbank: MelFilterbank) -> MagnitudeSpectrogram:
    """Invert log-mel rows to linear-frequency magnitudes.

    Mel energies are recovered by exponentiation and mapped through the
    filterbank pseudo-inverse; small negative excursions of the least-squares
    solution are clamped to zero.
    """
    weights = filterbank.weights
    if weights.shape[0] != mel.values.shape[1]:
        raise ValueError("filterbank band count does not match the spectrogram")
    if weights.shape[1] != mel.config.num_bins:
        raise ValueError("filterbank bin count does not match the frame config")
    if np.linalg.matrix_rank(weights) < weights.shape[0]:
        raise ValueError("filterbank is rank-deficient; mel inversion is ill-posed")
    energies = np.exp(mel.values)
    linear = energies @ np.linalg.pinv(weights).T
    return MagnitudeSpectrogram(np.maximum(linear, 0.0), mel.config)


def _wola(frames: np.ndarray, window: np.ndarray, frame_shift: int) -> np.ndarray:
    """Weighted overlap-add: window each frame, sum at the hop, divide by the
    accumulated squared window."""
    num_frames, frame_len = frames.shape
    out_len = (num_frames - 1) * frame_shift + frame_len
    numerator = np.zeros(out_len)
    denominator = np.zeros(out_len)
    window_sq = window * window
    for m in range(num_frames):
        start = m * frame_shift
        numerator[start:start + frame_len] += frames[m] * window
        denominator[start:start + frame_len] += window_sq
    return numerator / np.maximum(denominator, WOLA_FLOOR)


def overlap_add(frames: np.ndarray, window: np.ndarray, frame_shift: int,
                sample_rate_hz: int = 16000) -> AudioBuffer:
    """Synthesize audio from frames by weighted overlap-add.

    With analysis frames (already windowed once) this is an identity on the
    covered samples, since the numerator accumulates signal * window**2 and
    the denominator accumulates window**2.
    """
    frames = np.asarray(frames, dtype=np.float64)
    window = np.asarray(window, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != window.shape[0]:
        raise ValueError("frames must be (num_frames, len(window))")
    if frame_shift < 1:
        raise ValueError("frame_shift must be positive")
    return AudioBuffer(_wola(frames, window, frame_shift), sample_rate_hz)


def _stft_fixed(x: np.ndarray, window: np.ndarray, frame_shift: int,
                num_frames: int, fft_size: int) -> np.ndarray:
    """Forward STFT with a fixed frame count over a fully covered signal."""
    offsets = frame_shift * np.arange(num_frames)[:, None]
    frames = x[offsets + np.arange(window.shape[0])[None, :]] * window
    return np.fft.rfft(frames, n=fft_size, axis=1)


def griffin_lim(magnitude: MagnitudeSpectrogram,
                iterations: int = DEFAULT_GL_ITERATIONS) -> tuple[AudioBuffer, list[float]]:
    """Phase reconstruction by alternating projections, zero-phase start.

    Each iteration synthesizes a signal estimate by WOLA, re-analyzes it, and
    keeps the resulting phase under the target magnitude. Returns the final
    signal and the per-iteration consistency errors
    ||  |STFT(x_t)| - magnitude ||_F, a non-increasing sequence.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    cfg = magnitude.config
    window = hamming_window(cfg.frame_len)
    num_frames = magnitude.num_frames
    target = magnitude.values.astype(np.float64)
    spectrum = target.astype(complex)
    errors: list[float] = []
    for _ in range(iterations):
        estimate = _wola(np.fft.irfft(spectrum, n=cfg.frame_len, axis=1),
                         window, cfg.frame_shift)
        consistent = _stft_fixed(estimate, window, cfg.frame_shift,
                                 num_frames, cfg.fft_size)
        consistent_mag = np.abs(consistent)
        errors.append(float(np.linalg.norm(consistent_mag - target)))
        safe = np.where(consistent_mag == 0.0, 1.0, consistent_mag)
        phase = np.where(consistent_mag == 0.0, 1.0 + 0.0j, consistent / safe)
        spectrum = target * phase
    estimate = _wola(np.fft.irfft(spectrum, n=cfg.frame_len, axis=1),
                     window, cfg.frame_shift)
    return AudioBuffer(estimate, cfg.sample_rate_hz), errors


def export_mel(mel: MelSpectrogram, path) -> None:
    """Write a mel-spectrogram container for external vocoders.

    Layout: magic "MELS", version byte, then frame count, band count, sample
    rate, frame length, and frame shift as unsigned 32-bit LE (25 header
    bytes), followed by the values as row-major float32 LE.
    """
    cfg = mel.config
    header = MELSPEC_MAGIC + bytes([MELSPEC_VERSION])
    for value in (mel.values.shape[0], cfg.num_bands, cfg.sample_rate_hz,
                  cfg.frame_len, cfg.frame_shift):
        header += int(value).to_bytes(4, "little")
    Path(path).write_bytes(header + mel.values.astype("<f4").tobytes())


def import_mel(path) -> MelSpectrogram:
    """Read a mel-spectrogram container written by export_mel."""
    data = Path(path).read_bytes()
    if len(data) < MELSPEC_HEADER_LEN:
        raise FormatError(f"{path}: truncated mel-spectrogram header")
    if data[:4] != MELSPEC_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    if data[4] != MELSPEC_VERSION:
        raise FormatError(f"{path}: unsupported version {data[4]}")
    num_frames, num_bands, rate, frame_len, frame_shift = (
        int.from_bytes(data[5 + 4 * i:9 + 4 * i], "little") for i in range(5)
    )
    expected = MELSPEC_HEADER_LEN + 4 * num_frames * num_bands
    if len(data) != expected:
        raise FormatError(f"{path}: payload size does not match the header")
    values = np.frombuffer(data, dtype="<f4", offset=MELSPEC_HEADER_LEN,
                           count=num_frames * num_bands)
    try:
        cfg = FrameConfig(sample_rate_hz=rate, frame_len=frame_len,
                          frame_shift=frame_shift, fft_size=frame_len,
                          num_bands=num_bands)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return MelSpectrogram(values.reshape(num_frames, num_bands).astype(np.float64), cfg)


def decode_stream(stream: EncodedStream, codebooks: CodebookSet,
                  gl_iterations: int = DEFAULT_GL_ITERATIONS,
                  config: FrameConfig | None = None) -> AudioBuffer:
    """Full receiver: dequantize, invert the DCT and filterbank, Griffin-Lim.

    The stream's codebook hash must match the loaded codebooks. The decoded
    signal has exactly (frame_count - 1) * frame_shift + frame_len samples
    and is clamped to [-1, 1].
    """
    return _decode(stream, codebooks, gl_iterations, config or FrameConfig())[0]


def _decode(stream: EncodedStream, codebooks: CodebookSet, gl_iterations: int,
            cfg: FrameConfig) -> tuple[AudioBuffer, MelSpectrogram]:
    """decode_stream's audio plus the dequantized mel-spectrogram it was
    synthesized from."""
    if stream.frame_count == 0:
        raise FormatError("empty stream: no frames to decode")
    if stream.codebook_hash != codebooks.content_hash:
        raise HashMismatchError(
            f"stream was encoded with codebook hash {stream.codebook_hash:016x} "
            f"but the loaded codebook hash is {codebooks.content_hash:016x}"
        )
    if 1 + codebooks.vector_dim != cfg.num_bands:
        raise ValueError("codebook dimension does not match the frame config")
    coefficients = dequantize(unpack_codes(stream), codebooks)
    mel = MelSpectrogram(idct_mel(coefficients), cfg)
    spectrogram = mel_to_linear(mel, build_mel_filterbank(cfg))
    audio, _ = griffin_lim(spectrogram, gl_iterations)
    samples = np.clip(audio.samples, -1.0, 1.0)
    return AudioBuffer(samples, cfg.sample_rate_hz), mel
