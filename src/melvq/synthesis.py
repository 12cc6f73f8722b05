"""Receiver-side synthesis: inverse DCT, mel inversion, Griffin-Lim, WOLA.

Decoding mirrors the analysis chain. Received MFCC frames are inverted by the
orthonormal inverse DCT into log-mel rows, exponentiated, and mapped back to
linear-frequency magnitudes through the Moore-Penrose pseudo-inverse of the
mel filterbank with negative leakage clamped to zero. A deterministic
Griffin-Lim loop (zero-phase start, fixed iteration count) recovers a phase,
and weighted overlap-add with the analysis Hamming window reconstructs the
waveform. Decoded audio always has length (frame_count - 1) * shift + length.

Griffin-Lim reads the magnitudes in place and keeps six frame-sized buffers
allocated once per call: the WOLA denominator, the overlap rows (which hold
the estimate), the frames, the spectrum, its modulus and the silent-bin mask.
Its in-place phase step applies the oracle loop's ufuncs to the same operands,
and overlap-add adds one frame phase at a time, last phase first, so each
sample sums its frames in ascending order from +0, as the oracle does; and
c * (1/|c|) equals numpy's complex-by-real divide (a + b*0) * (1/s) +
(b - a*0) * (1/s) j up to zero signs, which that +0 drops. Bins with
|c| <= 2**-1024, where 1/|c| would overflow, take phase 1 like |c| = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    FrameConfig,
    FrameMatrix,
    MelFilterbank,
    MelSpectrogram,
    _frame_view,
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
_TINY = 2.0 ** -1024  # the largest magnitude whose reciprocal overflows


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


def _overlap(frames: np.ndarray, frame_shift: int,
             rows: np.ndarray | None = None) -> np.ndarray:
    """Sum frames placed frame_shift apart; return the samples they cover.

    rows holds frame_shift samples per row, and phase r of frame m (its r-th
    frame_shift samples) lands in row m + r. The phases are added from the
    last to the first, so each sample sums its frames in ascending order."""
    num_frames, frame_len = frames.shape
    phases = -(-frame_len // frame_shift)
    if rows is None:
        rows = np.empty((num_frames + phases - 1, frame_shift))
    rows.fill(0.0)
    for r in reversed(range(phases)):
        part = frames[:, r * frame_shift:(r + 1) * frame_shift]
        rows[r:r + num_frames, :part.shape[1]] += part
    return rows.reshape(-1)[:(num_frames - 1) * frame_shift + frame_len]


def _wola_denominator(window: np.ndarray, frame_shift: int, num_frames: int) -> np.ndarray:
    """The floored sum of squared windows that overlap-add divides by."""
    squared = np.broadcast_to(window * window, (num_frames, window.size))
    return np.maximum(_overlap(squared, frame_shift), WOLA_FLOOR)


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
    return AudioBuffer(_overlap(frames * window, frame_shift)
                       / _wola_denominator(window, frame_shift, len(frames)), sample_rate_hz)


def griffin_lim(magnitude: MagnitudeSpectrogram,
                iterations: int = DEFAULT_GL_ITERATIONS) -> tuple[AudioBuffer, list[float]]:
    """Phase reconstruction by alternating projections, zero-phase start.

    Each iteration synthesizes a signal estimate by WOLA, re-analyzes it, and
    keeps the resulting phase under the target magnitude. Returns the final
    signal and the per-iteration consistency errors
    ||  |STFT(x_t)| - magnitude ||_F, a non-increasing sequence. A non-finite
    error on a non-finite estimate raises ValueError: NaN never leaves it.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    cfg = magnitude.config
    length, shift = cfg.frame_len, cfg.frame_shift
    window = hamming_window(length)
    num_frames = magnitude.num_frames
    target = np.asarray(magnitude.values, dtype=np.float64)
    denominator = _wola_denominator(window, shift, num_frames)
    rows = np.empty((num_frames + length // shift - 1, shift))
    frames = np.empty((num_frames, length))
    spectrum = target.astype(complex)
    modulus = np.empty(target.shape)
    silent = np.empty(target.shape, bool)
    errors: list[float] = []
    while True:
        np.fft.irfft(spectrum, n=length, axis=1, out=frames)
        frames *= window
        estimate = _overlap(frames, shift, rows)
        estimate /= denominator
        if len(errors) == iterations:
            return AudioBuffer(estimate, cfg.sample_rate_hz), errors
        np.multiply(_frame_view(estimate, length, shift), window, out=frames)
        np.fft.rfft(frames, n=cfg.fft_size, axis=1, out=spectrum)
        np.abs(spectrum, out=modulus)
        errors.append(float(np.linalg.norm(modulus - target)))
        if not np.isfinite(errors[-1]) and not np.isfinite(estimate).all():
            raise ValueError("Griffin-Lim samples must be finite")
        # target * spectrum / |spectrum|, phase 1 where 1/|spectrum| overflows
        np.less_equal(modulus, _TINY, out=silent)
        np.copyto(modulus, 1.0, where=silent)
        np.divide(1.0, modulus, out=modulus)
        spectrum *= modulus
        np.copyto(spectrum, 1.0, where=silent)
        spectrum *= target


def decode_stream(stream: EncodedStream, codebooks: CodebookSet,
                  gl_iterations: int = DEFAULT_GL_ITERATIONS) -> AudioBuffer:
    """Full receiver: dequantize, invert the DCT and filterbank, Griffin-Lim.

    The stream's codebook hash must match the loaded codebooks. The decoded
    signal has exactly (frame_count - 1) * frame_shift + frame_len samples
    and is clamped to [-1, 1]. Codebook content that overflows decoding
    raises FormatError.
    """
    return _decode(stream, codebooks, gl_iterations)[0]


def _decode(stream: EncodedStream, codebooks: CodebookSet,
            gl_iterations: int) -> tuple[AudioBuffer, MelSpectrogram]:
    """decode_stream's audio plus the dequantized mel-spectrogram it was
    synthesized from."""
    cfg = FrameConfig()
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
    # huge codebook levels overflow exp or Griffin-Lim: a content error
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            spectrogram = mel_to_linear(mel, build_mel_filterbank(cfg))
            audio, _ = griffin_lim(spectrogram, gl_iterations)
        except ValueError as exc:
            if "must be finite" not in str(exc):
                raise
            raise FormatError(f"codebook content overflows decoding: {exc}") from exc
    samples = np.clip(audio.samples, -1.0, 1.0)
    return AudioBuffer(samples, cfg.sample_rate_hz), mel
