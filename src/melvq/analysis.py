"""Transmit-side analysis: framing, mel filterbank, log mel-spectrogram, MFCC.

The chain is fixed by the codec contract: 16 kHz input, 1024-sample Hamming
frames at a 256-sample shift (62.5 frames/s), a 1024-point FFT reduced to its
513 non-redundant magnitude bins, an 80-band triangular mel filterbank on the
HTK mel scale, a natural log with an absolute floor, and an orthonormal
type-II DCT across the 80 log-mel values. All 80 DCT coefficients are kept;
bit-rate reduction happens in the quantizer, not by truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SampleRateError
from .signal_io import AudioBuffer

MEL_LOG_FLOOR = 1e-5  # absolute floor applied to mel energies before the log
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FrameConfig:
    """Frame and filterbank geometry shared by every stage of the codec."""

    sample_rate_hz: int = 16000
    frame_len: int = 1024
    frame_shift: int = 256
    num_bands: int = 80

    def __post_init__(self) -> None:
        if min(self.sample_rate_hz, self.frame_len, self.frame_shift, self.num_bands) <= 0:
            raise ValueError("all frame parameters must be positive")
        if self.frame_len % self.frame_shift != 0:
            raise ValueError("frame_shift must divide frame_len")
        if self.num_bands > self.num_bins:
            raise ValueError("num_bands exceeds the number of FFT bins")

    @property
    def fft_size(self) -> int:
        """The FFT length: one frame, unpadded."""
        return self.frame_len

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def frames_per_second(self) -> float:
        return self.sample_rate_hz / self.frame_shift


@dataclass(frozen=True, eq=False)
class FrameMatrix:
    """Windowed analysis frames, one row per frame."""

    frames: np.ndarray
    window: np.ndarray
    config: FrameConfig

    def __post_init__(self) -> None:
        if self.frames.ndim != 2 or self.frames.shape[1] != self.config.frame_len:
            raise ValueError("frames must be (num_frames, frame_len)")
        if self.window.shape != (self.config.frame_len,):
            raise ValueError("window length must equal frame_len")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True, eq=False)
class MelFilterbank:
    """Triangular mel filter weights plus the band edge frequencies in Hz."""

    weights: np.ndarray
    band_edges_hz: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.ndim != 2:
            raise ValueError("weights must be a 2-D matrix")
        if self.band_edges_hz.shape != (self.weights.shape[0] + 2,):
            raise ValueError("band_edges_hz must hold num_bands + 2 frequencies")

    @property
    def num_bands(self) -> int:
        return self.weights.shape[0]

    def band_center_hz(self, band: int) -> float:
        return float(self.band_edges_hz[band + 1])


@dataclass(frozen=True, eq=False)
class MelSpectrogram:
    """Floored natural-log mel energies, one row per frame."""

    values: np.ndarray
    config: FrameConfig

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != self.config.num_bands:
            raise ValueError("values must be (num_frames, num_bands)")


@dataclass(frozen=True, eq=False)
class MfccMatrix:
    """Orthonormal DCT-II of the log mel rows; all coefficients retained."""

    values: np.ndarray
    config: FrameConfig

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != self.config.num_bands:
            raise ValueError("values must be (num_frames, num_bands)")


def hamming_window(length: int) -> np.ndarray:
    """Symmetric Hamming window 0.54 - 0.46*cos(2*pi*n/(length-1))."""
    return np.hamming(length)


def hz_to_mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def _frame_view(x: np.ndarray, frame_len: int, frame_shift: int) -> np.ndarray:
    """The frame_len windows of x at every frame_shift, as a read-only view."""
    return sliding_window_view(x, frame_len)[::frame_shift]


def frame_signal(audio: AudioBuffer, config: FrameConfig | None = None) -> FrameMatrix:
    """Split audio into overlapping Hamming-windowed frames.

    The signal is zero-padded at the tail so the frame count is
    max(1, ceil(len / frame_shift)); every sample of the input therefore
    lands in at least one frame.
    """
    cfg = config or FrameConfig()
    if audio.sample_rate_hz != cfg.sample_rate_hz:
        raise SampleRateError(
            f"expected {cfg.sample_rate_hz} Hz input, got {audio.sample_rate_hz} Hz; "
            "resample upstream of the codec"
        )
    x = audio.samples
    if x.size == 0:
        raise ValueError("cannot frame an empty signal")
    num_frames = max(1, -(-x.size // cfg.frame_shift))
    padded_len = (num_frames - 1) * cfg.frame_shift + cfg.frame_len
    padded = np.zeros(padded_len)
    padded[: x.size] = x
    window = hamming_window(cfg.frame_len)
    frames = _frame_view(padded, cfg.frame_len, cfg.frame_shift) * window
    return FrameMatrix(frames, window, cfg)


def build_mel_filterbank(config: FrameConfig | None = None) -> MelFilterbank:
    """Construct triangular filters with centers equally spaced in mel.

    Band edges run from 0 Hz to Nyquist on the HTK mel scale and are snapped
    to FFT bin indices, so each filter peaks at exactly 1 on its center bin.
    """
    cfg = config or FrameConfig()
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(cfg.sample_rate_hz / 2.0), cfg.num_bands + 2))
    edge_bins = np.floor((cfg.fft_size + 1) * edges_hz / cfg.sample_rate_hz).astype(int)
    weights = np.zeros((cfg.num_bands, cfg.num_bins))
    for band in range(cfg.num_bands):
        lo, mid, hi = edge_bins[band], edge_bins[band + 1], edge_bins[band + 2]
        for i in range(lo, mid):
            weights[band, i] = (i - lo) / (mid - lo)
        for i in range(mid, hi):
            weights[band, i] = (hi - i) / (hi - mid)
        weights[band, mid] = 1.0
    if not np.all((weights > 0).any(axis=1)):
        raise ValueError("filterbank too dense: some band covers no FFT bin")
    return MelFilterbank(weights, edges_hz)


def log_mel_spectrogram(frames: FrameMatrix, filterbank: MelFilterbank) -> MelSpectrogram:
    """Apply the FFT magnitude and mel filterbank, then a floored natural log."""
    cfg = frames.config
    if filterbank.weights.shape != (cfg.num_bands, cfg.num_bins):
        raise ValueError(
            f"filterbank shape {filterbank.weights.shape} does not match "
            f"config ({cfg.num_bands}, {cfg.num_bins})"
        )
    return _log_mel(np.abs(np.fft.rfft(frames.frames, n=cfg.fft_size, axis=1)),
                    filterbank, cfg)


def _log_mel(magnitude: np.ndarray, filterbank: MelFilterbank,
             cfg: FrameConfig) -> MelSpectrogram:
    """Floored log mel energies of FFT magnitude rows. The product takes the
    whole matrix at once: BLAS rounds it differently in small row blocks."""
    mel_energy = magnitude @ filterbank.weights.T
    return MelSpectrogram(np.log(np.maximum(mel_energy, MEL_LOG_FLOOR)), cfg)


# The orthonormal DCT-II and its inverse are computed the way pocketfft
# computes them: a pairwise butterfly, one real FFT of the same length, and a
# twiddle step with cos(pi*i/(2n)). numpy 2's FFT is the pocketfft that
# scipy.fft runs, and the twiddles are built the way pocketfft builds them,
# so the result is bit-identical to scipy.fft.dct/idct(norm="ortho") (the
# tests check this against scipy). The FFT calls no BLAS and transforms each
# row alone, so no BLAS setting and no batch size can change a bit.


@lru_cache(maxsize=8)
def _dct_plan(size: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Twiddles w[i-1] = cos(pi*i/(2*size)) as (w[k-1], w[size-k-1]) for
    k = 1 .. ceil(size/2) - 1, the middle twiddle w[size/2 - 1] (even size
    only), and the 1/sqrt(2*size) normalisation.

    Each w[i-1] is the real part of a fine times a coarse table entry of
    exp(2*pi*j*i/n), n = 4*size, with the entries from libm and the table
    split where pocketfft splits it, so the twiddles round as scipy's do.
    """
    n = 4 * size
    pi = np.longdouble("3.141592653589793238462643383279502884197")
    angle = float(np.longdouble("0.25") * pi / n)  # 2*pi/n per step of 8

    def quadrant(j: int) -> tuple[float, float]:
        """(cos, sin) of 2*pi*j/n for 0 <= j < n/4, from the nearer octant."""
        x = 8 * j
        if x < n:
            return math.cos(x * angle), math.sin(x * angle)
        return math.sin((2 * n - x) * angle), math.cos((2 * n - x) * angle)

    shift = 1
    while (1 << shift) ** 2 < n // 2 + 1:
        shift += 1
    mask = (1 << shift) - 1
    twiddles = np.zeros(size)
    for i in range(1, size):
        (fine_re, fine_im), (coarse_re, coarse_im) = quadrant(i & mask), quadrant(i & ~mask)
        twiddles[i - 1] = fine_re * coarse_re - fine_im * coarse_im
    half = (size + 1) // 2
    k = np.arange(1, half)
    w_k, w_kc = twiddles[k - 1], twiddles[size - k - 1]
    w_k.flags.writeable = w_kc.flags.writeable = False
    norm = float(np.longdouble(1) / np.sqrt(np.longdouble(2 * size)))
    return w_k, w_kc, float(twiddles[half - 1]), norm


def _dct(values: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the last axis."""
    values = np.asarray(values, dtype=np.float64)
    size = values.shape[-1]
    w_k, w_kc, w_mid, norm = _dct_plan(size)
    half, pairs = (size + 1) // 2, (size - 1) // 2
    lo, hi = values[..., 1:2 * pairs:2], values[..., 2:2 * pairs + 1:2]
    spectrum = np.zeros(values.shape[:-1] + (size // 2 + 1,), complex)
    spectrum.real[..., 0] = 2 * values[..., 0]
    spectrum.real[..., 1:pairs + 1] = hi + lo
    spectrum.imag[..., 1:pairs + 1] = hi - lo
    if size % 2 == 0:
        spectrum.real[..., size // 2] = 2 * values[..., size - 1]
    y = np.fft.irfft(spectrum, n=size, axis=-1, norm="forward")
    y *= norm
    out = np.empty_like(y)
    fwd, rev = y[..., 1:half], y[..., size - 1:size - half:-1]
    t1 = w_k * rev + w_kc * fwd
    t2 = w_k * fwd - w_kc * rev
    out[..., 1:half] = 0.5 * (t1 + t2)
    out[..., size - 1:size - half:-1] = 0.5 * (t1 - t2)
    if size % 2 == 0:
        out[..., half] = y[..., half] * w_mid
    out[..., 0] = y[..., 0] * (_SQRT2 * 0.5)
    return out


def _idct(values: np.ndarray) -> np.ndarray:
    """Inverse of _dct (the orthonormal DCT-III) along the last axis."""
    out = np.array(values, dtype=np.float64)
    size = out.shape[-1]
    w_k, w_kc, w_mid, norm = _dct_plan(size)
    half, pairs = (size + 1) // 2, (size - 1) // 2
    out[..., 0] *= _SQRT2
    fwd, rev = out[..., 1:half], out[..., size - 1:size - half:-1]
    t1 = fwd + rev
    t2 = fwd - rev
    out[..., 1:half] = w_k * t2 + w_kc * t1
    out[..., size - 1:size - half:-1] = w_k * t1 - w_kc * t2
    if size % 2 == 0:
        out[..., half] *= 2 * w_mid
    spectrum = np.fft.rfft(out, axis=-1)
    lo = spectrum.real[..., 1:pairs + 1] * norm
    hi = spectrum.imag[..., 1:pairs + 1] * norm
    out[..., 0] = spectrum.real[..., 0] * norm
    out[..., 1:2 * pairs:2] = lo - hi
    out[..., 2:2 * pairs + 1:2] = lo + hi
    if size % 2 == 0:
        out[..., size - 1] = spectrum.real[..., size // 2] * norm
    return out


def mfcc(mel: MelSpectrogram) -> MfccMatrix:
    """Orthonormal DCT-II of each log-mel row, keeping all coefficients."""
    return MfccMatrix(_dct(mel.values), mel.config)


def compute_mfcc(audio: AudioBuffer, config: FrameConfig | None = None,
                 filterbank: MelFilterbank | None = None) -> MfccMatrix:
    """Full transmit-side feature chain from audio to the MFCC matrix."""
    cfg = config or FrameConfig()
    fb = filterbank or build_mel_filterbank(cfg)
    return mfcc(log_mel_spectrogram(frame_signal(audio, cfg), fb))
