"""Objective quality metrics: STOI, mel-cepstral distortion, LSD, segSNR.

All pairwise metrics align signals by truncation to the shorter operand; no
time warping is applied. The intelligibility measure follows the standard
short-time objective intelligibility construction: both signals are resampled
to 10 kHz, silent frames are dropped based on the reference energy, one-third
octave band envelopes are correlated over 30-frame segments after per-segment
normalization and clipping, and the band/segment correlations are averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import MfccMatrix, _frame_view
from .signal_io import AudioBuffer
from .synthesis import MagnitudeSpectrogram

_EPS = float(np.finfo(np.float64).eps)

STOI_FS = 10000
STOI_FRAME_LEN = 256
STOI_HOP = 128
STOI_NFFT = 512
STOI_NUM_BANDS = 15
STOI_MIN_FREQ_HZ = 150.0
STOI_SEG_FRAMES = 30
STOI_BETA_DB = -15.0
STOI_DYN_RANGE_DB = 40.0

RESAMPLER_TAPS_PER_PHASE = 64

MCD_SCALE = (10.0 / math.log(10.0)) * math.sqrt(2.0)

LSD_EPS = 1e-8

SEG_SNR_FLOOR_DB = -10.0
SEG_SNR_CEIL_DB = 35.0
DEFAULT_SEG_LEN = 256


@dataclass(frozen=True)
class QualityReport:
    """Per-utterance metric values; a field is None when its metric was not
    computable for the pair (for STOI: too short, or a silent reference)."""

    utterance_id: str
    stoi: float | None
    mcd_db: float | None
    lsd_db: float | None
    seg_snr_db: float | None

    def format_line(self) -> str:
        def fmt(value: float | None) -> str:
            return "NA" if value is None else f"{value:.6f}"

        return (
            f"{self.utterance_id} stoi={fmt(self.stoi)} mcd_db={fmt(self.mcd_db)} "
            f"lsd_db={fmt(self.lsd_db)} seg_snr_db={fmt(self.seg_snr_db)}"
        )

    @classmethod
    def corpus_mean(cls, reports: list["QualityReport"]) -> "QualityReport":
        """Mean across utterances; each metric averages the utterances that
        have it."""
        if not reports:
            raise ValueError("no reports to average")

        def mean_of(field: str) -> float | None:
            values = [getattr(r, field) for r in reports
                      if getattr(r, field) is not None]
            return float(np.mean(values)) if values else None

        return cls("MEAN", mean_of("stoi"), mean_of("mcd_db"),
                   mean_of("lsd_db"), mean_of("seg_snr_db"))


def _upfirdn(taps: np.ndarray, x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Upsample by up, filter with taps, downsample by down; full output.

    Polyphase form of y[m] = sum_k taps[k] * x_up[m*down - k] for coprime up
    and down. The outputs that tap k reaches are every up-th output, fed by
    every down-th input, so with y split into its up output phases and x
    into its down input phases each tap is one contiguous multiply-add.
    """
    out_len = ((x.size - 1) * up + taps.size - 1) // down + 1
    phases = np.zeros((up, -(-out_len // up)))  # phases[p, t] = y[p + up*t]
    inputs = [x[r::down] for r in range(down)]
    inverse = pow(down, -1, up)
    for k, tap in enumerate(taps):
        m = k * inverse % up  # first output with m*down = k (mod up)
        i = (m * down - k) // up
        if i < 0:  # skip the outputs that would read before x[0]
            steps = -(i // down)
            m += up * steps
            i += down * steps
        count = min(-(-(out_len - m) // up), -(-(x.size - i) // down))
        if count > 0:
            t, s = m // up, i // down
            phases[m % up, t:t + count] += tap * inputs[i % down][s:s + count]
    return phases.T.reshape(-1)[:out_len]


def _resample_sinc(x: np.ndarray, fs_in: int, fs_out: int,
                   taps_per_phase: int = RESAMPLER_TAPS_PER_PHASE) -> np.ndarray:
    """Polyphase rational resampler with a Hamming-windowed sinc prototype."""
    if fs_in == fs_out:
        return x.copy()
    g = math.gcd(fs_in, fs_out)
    up, down = fs_out // g, fs_in // g
    # Odd-length prototype whose group delay is a whole number of output
    # samples, so the output needs no fractional shift.
    half = taps_per_phase * max(up, down) // 2
    half = down * -(-half // down)
    num_taps = 2 * half + 1
    cutoff = 1.0 / max(up, down)
    n = np.arange(num_taps) - half
    kernel = cutoff * np.sinc(cutoff * n) * np.hamming(num_taps)
    filtered = _upfirdn(kernel * up, x, up, down)
    start = half // down
    n_out = -(-x.size * up // down)
    out = filtered[start:start + n_out]
    if out.size < n_out:
        out = np.pad(out, (0, n_out - out.size))
    return out


def _third_octave_bands(fs: int, nfft: int, num_bands: int,
                        min_freq_hz: float) -> np.ndarray:
    """0/1 matrix mapping FFT bins to one-third-octave bands."""
    bin_freqs = np.arange(nfft // 2 + 1) * fs / nfft
    centers = min_freq_hz * 2.0 ** (np.arange(num_bands) / 3.0)
    lows = centers / 2.0 ** (1.0 / 6.0)
    highs = centers * 2.0 ** (1.0 / 6.0)
    matrix = np.zeros((num_bands, bin_freqs.size))
    for band in range(num_bands):
        lo = int(np.argmin(np.abs(bin_freqs - lows[band])))
        hi = int(np.argmin(np.abs(bin_freqs - highs[band])))
        matrix[band, lo:hi] = 1.0
    return matrix


def stoi(reference: AudioBuffer, degraded: AudioBuffer) -> float:
    """Short-time objective intelligibility of degraded speech against its
    reference. Raises ValueError for a silent reference, and when, after
    silence removal, less than one 30-frame analysis segment remains."""
    if reference.sample_rate_hz != degraded.sample_rate_hz:
        raise ValueError("sample rates differ")
    n = min(len(reference), len(degraded))
    x = _resample_sinc(reference.samples[:n], reference.sample_rate_hz, STOI_FS)
    y = _resample_sinc(degraded.samples[:n], degraded.sample_rate_hz, STOI_FS)

    if x.size < STOI_FRAME_LEN:
        raise ValueError("signals shorter than one analysis frame")
    if not x.any():
        raise ValueError("the reference is silent")
    window = np.hanning(STOI_FRAME_LEN + 2)[1:-1]
    x_frames = _frame_view(x, STOI_FRAME_LEN, STOI_HOP) * window
    y_frames = _frame_view(y, STOI_FRAME_LEN, STOI_HOP) * window

    energies_db = 20.0 * np.log10(np.linalg.norm(x_frames, axis=1) + _EPS)
    keep = energies_db > energies_db.max() - STOI_DYN_RANGE_DB
    x_frames = x_frames[keep]
    y_frames = y_frames[keep]
    if x_frames.shape[0] < STOI_SEG_FRAMES:
        raise ValueError(
            "signals too short for the intelligibility analysis "
            f"({x_frames.shape[0]} active frames, need {STOI_SEG_FRAMES})"
        )

    bands = _third_octave_bands(STOI_FS, STOI_NFFT, STOI_NUM_BANDS, STOI_MIN_FREQ_HZ)
    x_spec = np.abs(np.fft.rfft(x_frames, n=STOI_NFFT, axis=1)) ** 2
    y_spec = np.abs(np.fft.rfft(y_frames, n=STOI_NFFT, axis=1)) ** 2
    x_bands = np.sqrt(x_spec @ bands.T)  # (frames, bands)
    y_bands = np.sqrt(y_spec @ bands.T)

    clip_gain = 10.0 ** (-STOI_BETA_DB / 20.0)
    correlations = []
    for m in range(STOI_SEG_FRAMES, x_bands.shape[0] + 1):
        x_seg = x_bands[m - STOI_SEG_FRAMES:m]  # (30, bands)
        y_seg = y_bands[m - STOI_SEG_FRAMES:m]
        alpha = np.linalg.norm(x_seg, axis=0) / (np.linalg.norm(y_seg, axis=0) + _EPS)
        y_norm = np.minimum(y_seg * alpha, x_seg * (1.0 + clip_gain))
        xc = x_seg - x_seg.mean(axis=0)
        yc = y_norm - y_norm.mean(axis=0)
        xc = xc / (np.linalg.norm(xc, axis=0) + _EPS)
        yc = yc / (np.linalg.norm(yc, axis=0) + _EPS)
        correlations.append((xc * yc).sum(axis=0))
    return float(np.mean(correlations))


def mcd(ref_mfcc: MfccMatrix, deg_mfcc: MfccMatrix) -> float:
    """Mel-cepstral distortion in dB over the shape coefficients.

    The energy coefficient (index 0) is excluded; frames are aligned by
    truncation to the shorter matrix. A unit Euclidean difference on one
    frame maps to (10 / ln 10) * sqrt(2), about 6.1421 dB.
    """
    if ref_mfcc.values.shape[1] != deg_mfcc.values.shape[1]:
        raise ValueError("coefficient counts differ")
    num = min(ref_mfcc.values.shape[0], deg_mfcc.values.shape[0])
    if num == 0:
        raise ValueError("no frames to compare")
    diff = ref_mfcc.values[:num, 1:] - deg_mfcc.values[:num, 1:]
    return float(MCD_SCALE * np.mean(np.linalg.norm(diff, axis=1)))


def lsd(ref_spec: MagnitudeSpectrogram, deg_spec: MagnitudeSpectrogram) -> float:
    """Log-spectral distance in dB, averaged RMS-per-frame over shared frames."""
    if ref_spec.values.shape[1] != deg_spec.values.shape[1]:
        raise ValueError("bin counts differ")
    num = min(ref_spec.num_frames, deg_spec.num_frames)
    if num == 0:
        raise ValueError("no frames to compare")
    ratio_db = 20.0 * np.log10(
        (ref_spec.values[:num] + LSD_EPS) / (deg_spec.values[:num] + LSD_EPS)
    )
    return float(np.mean(np.sqrt(np.mean(ratio_db ** 2, axis=1))))


def seg_snr(reference: AudioBuffer, degraded: AudioBuffer,
            segment_len: int = DEFAULT_SEG_LEN) -> float:
    """Segmental SNR in dB over non-silent fixed-length segments, each segment
    clamped to [-10, 35] dB before averaging."""
    if reference.sample_rate_hz != degraded.sample_rate_hz:
        raise ValueError("sample rates differ")
    if segment_len < 1:
        raise ValueError("segment_len must be positive")
    n = min(len(reference), len(degraded))
    num_segments = n // segment_len
    if num_segments == 0:
        raise ValueError("signals shorter than one segment")
    ref = reference.samples[:num_segments * segment_len].reshape(num_segments, segment_len)
    deg = degraded.samples[:num_segments * segment_len].reshape(num_segments, segment_len)
    ref_energy = (ref ** 2).sum(axis=1)
    err_energy = ((ref - deg) ** 2).sum(axis=1)
    active = ref_energy > 0.0
    if not active.any():
        raise ValueError("all-silent reference")
    with np.errstate(divide="ignore"):
        ratios = 10.0 * np.log10(ref_energy[active] / err_energy[active])
    return float(np.mean(np.clip(ratios, SEG_SNR_FLOOR_DB, SEG_SNR_CEIL_DB)))
