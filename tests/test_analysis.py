"""Framing, mel filterbank construction, log-mel, and the cepstral transform."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dct

import reference
from melvq.analysis import (
    MEL_LOG_FLOOR,
    FrameConfig,
    MelSpectrogram,
    build_mel_filterbank,
    compute_mfcc,
    frame_signal,
    hz_to_mel,
    log_mel_spectrogram,
    mel_to_hz,
    mfcc,
)
from melvq.errors import SampleRateError
from melvq.signal_io import AudioBuffer
from melvq.signals import speech_like, tone
from melvq.synthesis import idct_mel


def test_config_defaults_and_validation():
    cfg = FrameConfig()
    assert (cfg.sample_rate_hz, cfg.frame_len, cfg.frame_shift) == (16000, 1024, 256)
    assert cfg.num_bins == 513
    assert cfg.frames_per_second == pytest.approx(62.5)
    with pytest.raises(ValueError):
        FrameConfig(frame_shift=300)  # must divide frame_len
    with pytest.raises(ValueError):
        FrameConfig(num_bands=600)  # more bands than bins


def test_mel_scale_inverts():
    freqs = np.linspace(0.0, 8000.0, 64)
    assert mel_to_hz(hz_to_mel(freqs)) == pytest.approx(freqs, abs=1e-9)
    assert hz_to_mel(1000.0) == pytest.approx(2595.0 * np.log10(1 + 1000.0 / 700.0))


def test_frame_count_rule(frame_config):
    buf = AudioBuffer(np.full(16000, 1e-6), 16000)
    assert frame_signal(buf, frame_config).frames.shape == (63, 1024)
    # shorter than one frame still yields a single zero-padded frame
    short = AudioBuffer(np.ones(100), 16000)
    fm = frame_signal(short, frame_config)
    assert fm.frames.shape == (1, 1024)
    assert np.all(fm.frames[0, 100:] == 0.0)


def test_frames_are_hamming_windowed(frame_config):
    buf = AudioBuffer(np.ones(1024), 16000)
    fm = frame_signal(buf, frame_config)
    assert fm.frames[0] == pytest.approx(np.hamming(1024))


def test_frame_rejects_wrong_rate_and_empty(frame_config):
    with pytest.raises(SampleRateError):
        frame_signal(AudioBuffer(np.zeros(100), 8000), frame_config)
    with pytest.raises(ValueError):
        frame_signal(AudioBuffer(np.zeros(0), 16000), frame_config)


def test_filterbank_shape_peaks_and_coverage(frame_config, filterbank):
    weights = filterbank.weights
    assert weights.shape == (80, 513)
    # every band has a unit peak and non-empty support
    assert np.max(weights, axis=1) == pytest.approx(np.ones(80))
    assert np.all((weights > 0).sum(axis=1) >= 1)
    assert np.all(weights >= 0.0)
    # edges span 0 Hz to Nyquist on the mel scale
    assert filterbank.band_edges_hz[0] == pytest.approx(0.0)
    assert filterbank.band_edges_hz[-1] == pytest.approx(8000.0)
    mels = hz_to_mel(filterbank.band_edges_hz)
    assert np.diff(mels) == pytest.approx(np.full(81, mels[-1] / 81), rel=1e-9)


def test_tone_lands_in_nearest_band(frame_config, filterbank):
    buf = tone(1000.0, 0.5)
    lm = log_mel_spectrogram(frame_signal(buf, frame_config), filterbank)
    centers = np.array([filterbank.band_center_hz(k) for k in range(80)])
    expected = int(np.argmin(np.abs(centers - 1000.0)))
    # check an interior frame, away from edge padding
    assert int(np.argmax(lm.values[5])) == expected


def test_log_floor_applied(frame_config, filterbank):
    silent = AudioBuffer(np.zeros(2048), 16000)
    lm = log_mel_spectrogram(frame_signal(silent, frame_config), filterbank)
    assert np.all(lm.values == np.log(MEL_LOG_FLOOR))


def test_mfcc_is_orthonormal_dct(frame_config, filterbank):
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((4, 80))
    from melvq.analysis import MelSpectrogram

    z = mfcc(MelSpectrogram(rows, frame_config))
    assert z.values == pytest.approx(dct(rows, type=2, norm="ortho", axis=-1))
    # Parseval: orthonormal transform preserves row norms
    assert np.linalg.norm(z.values, axis=1) == pytest.approx(
        np.linalg.norm(rows, axis=1), abs=1e-9
    )


def test_compute_mfcc_shapes(frame_config):
    audio = speech_like(0.5, seed=1)
    z = compute_mfcc(audio, frame_config)
    assert z.values.shape == (-(-len(audio) // 256), 80)
    assert np.all(np.isfinite(z.values))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=2 ** 31))
def test_frame_count_matches_ceil_rule(num_samples, seed):
    cfg = FrameConfig()
    rng = np.random.default_rng(seed)
    buf = AudioBuffer(0.1 * rng.standard_normal(num_samples), 16000)
    fm = frame_signal(buf, cfg)
    assert fm.frames.shape[0] == max(1, -(-num_samples // cfg.frame_shift))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_mfcc_roundtrips_log_mel(seed):
    """DCT then inverse DCT recovers the log-mel matrix to float precision."""
    from scipy.fft import idct

    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3, 80))
    from melvq.analysis import MelSpectrogram

    z = mfcc(MelSpectrogram(rows, FrameConfig()))
    back = idct(z.values, type=2, norm="ortho", axis=-1)
    assert np.max(np.abs(back - rows)) < 1e-9


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("size", [1, 2, 13, 80])
def test_dct_equals_scipy_bit_for_bit_and_round_trips(size):
    """mfcc and idct_mel give exactly the bits of scipy's orthonormal DCT-II
    and its inverse (signed zeros included), for matrices and single rows,
    and invert each other."""
    rows = 5.0 * np.random.default_rng(size).standard_normal((64, size))
    rows[:3] = np.array([[np.log(MEL_LOG_FLOOR)], [0.0], [-0.0]])  # constant rows
    coefficients = mfcc(MelSpectrogram(rows, FrameConfig(num_bands=size))).values
    assert _same_bits(coefficients, reference.dct(rows))
    assert _same_bits(idct_mel(coefficients), reference.idct_mel(coefficients))
    assert _same_bits(idct_mel(coefficients[3]), reference.idct_mel(coefficients[3]))
    assert np.max(np.abs(idct_mel(coefficients) - rows)) < 1e-12


def test_dct_equals_scipy_on_speech(frame_config):
    audio = speech_like(2.0, seed=21)
    log_mel = log_mel_spectrogram(frame_signal(audio, frame_config),
                                  build_mel_filterbank(frame_config)).values
    assert _same_bits(compute_mfcc(audio, frame_config).values, reference.dct(log_mel))


def test_dct_rows_are_independent(frame_config):
    """Each row is transformed alone, so it comes out bit-identical alone or
    inside any matrix."""
    rows = np.random.default_rng(3).standard_normal((7, 80))
    whole = mfcc(MelSpectrogram(rows, frame_config)).values
    inverse = idct_mel(whole)
    for i in range(rows.shape[0]):
        alone = mfcc(MelSpectrogram(rows[i:i + 1], frame_config)).values
        assert _same_bits(alone[0], whole[i])
        assert _same_bits(idct_mel(whole[i]), inverse[i])
