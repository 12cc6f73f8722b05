"""Objective quality metrics: STOI, MCD, LSD, segmental SNR."""

from __future__ import annotations

import math

import numpy as np
import pytest

import reference
from melvq.analysis import FrameConfig, MfccMatrix
from melvq.metrics import (
    MCD_SCALE,
    QualityReport,
    _resample_sinc,
    _upfirdn,
    lsd,
    mcd,
    seg_snr,
    stoi,
)
from melvq.signal_io import AudioBuffer
from melvq.signals import speech_like, tone
from melvq.synthesis import MagnitudeSpectrogram

CFG = FrameConfig()


# ------------------------------------------------------------------- STOI


def test_stoi_self_is_one():
    x = speech_like(2.0, seed=0)
    assert stoi(x, x) == pytest.approx(1.0, abs=1e-6)


def test_stoi_scale_invariant():
    x = speech_like(2.0, seed=1)
    for factor in (0.25, 0.9, 3.0):
        scaled = AudioBuffer(np.clip(x.samples * factor, -10, 10), 16000)
        assert stoi(x, scaled) == pytest.approx(1.0, abs=1e-6)


def test_stoi_independent_noise_is_low():
    """A sustained voiced pseudo-utterance against unrelated noise scores
    far below intelligibility; measured 0.006-0.04 on this construction."""
    fs = 16000
    t = np.arange(2 * fs) / fs
    f0 = 120.0 * (1.0 + 0.1 * np.sin(2 * np.pi * 0.8 * t))
    theta = 2 * np.pi * np.cumsum(f0) / fs
    vowel = sum(np.sin(k * theta + 0.2 * k) / k for k in range(1, 25))
    reference = AudioBuffer(0.5 * vowel / np.max(np.abs(vowel)), fs)
    for seed in (1, 2, 3):
        noise = AudioBuffer(
            0.3 * np.random.default_rng(seed).standard_normal(len(reference)), fs)
        assert stoi(reference, noise) < 0.3


def test_stoi_rejects_rate_mismatch():
    x = AudioBuffer(np.zeros(16000), 16000)
    y = AudioBuffer(np.zeros(8000), 8000)
    with pytest.raises(ValueError):
        stoi(x, y)


def test_stoi_rejects_too_short():
    x = tone(300.0, 0.05)
    with pytest.raises(ValueError):
        stoi(x, x)


def test_stoi_degrades_with_noise_level():
    x = speech_like(2.0, seed=4)
    rng = np.random.default_rng(10)
    noise = rng.standard_normal(len(x))
    scores = []
    for level in (0.001, 0.01, 0.1):
        noisy = AudioBuffer(x.samples + level * noise, 16000)
        scores.append(stoi(x, noisy))
    assert scores[0] > scores[1] > scores[2]
    assert scores[0] > 0.95


# -------------------------------------------------------------- resampler


def test_resampler_preserves_tone_frequency():
    fs_in, fs_out = 16000, 10000
    t = np.arange(fs_in) / fs_in
    x = np.sin(2 * np.pi * 440.0 * t)
    y = _resample_sinc(x, fs_in, fs_out)
    assert y.size == 10000
    # dominant DFT bin corresponds to 440 Hz at the new rate
    spectrum = np.abs(np.fft.rfft(y[500:-500] * np.hanning(y.size - 1000)))
    peak_hz = np.argmax(spectrum) * fs_out / (y.size - 1000)
    assert peak_hz == pytest.approx(440.0, abs=2.0)


def test_resampler_identity_when_rates_match():
    x = np.sin(np.linspace(0, 50, 1000))
    assert np.array_equal(_resample_sinc(x, 16000, 16000), x)


@pytest.mark.parametrize("up, down", [(5, 8), (8, 5), (1, 3), (3, 1), (1, 1), (2, 3)])
def test_polyphase_matches_scipy_upfirdn(up, down):
    rng = np.random.default_rng(up * 10 + down)
    for size in (1, 2, 7, 1000):
        for num_taps in (1, 4, 17, 513):
            taps = rng.standard_normal(num_taps)
            x = rng.standard_normal(size)
            ours = _upfirdn(taps, x, up, down)
            oracle = reference.upfirdn(taps, x, up=up, down=down)
            assert ours.shape == oracle.shape
            assert np.max(np.abs(ours - oracle)) < 1e-12


def test_resampler_group_delay_is_compensated():
    fs_in, fs_out = 16000, 10000
    x = np.zeros(3200)
    x[1600] = 1.0  # impulse at 0.1 s
    y = _resample_sinc(x, fs_in, fs_out)
    assert abs(int(np.argmax(np.abs(y))) - 1000) <= 1


# ------------------------------------------------------------------- MCD


def test_mcd_unit_difference_constant():
    a = MfccMatrix(np.zeros((1, 80)), CFG)
    b_values = np.zeros((1, 80))
    b_values[0, 1] = 1.0
    b = MfccMatrix(b_values, CFG)
    assert MCD_SCALE == pytest.approx((10.0 / math.log(10.0)) * math.sqrt(2.0))
    assert mcd(a, b) == pytest.approx(MCD_SCALE, abs=1e-9)
    assert mcd(a, b) == pytest.approx(6.1421, abs=3e-4)


def test_mcd_ignores_energy_coefficient():
    a = MfccMatrix(np.zeros((2, 80)), CFG)
    b_values = np.zeros((2, 80))
    b_values[:, 0] = 99.0  # energy row differs, the rest match
    assert mcd(a, MfccMatrix(b_values, CFG)) == 0.0


def test_mcd_truncates_to_common_length():
    rng = np.random.default_rng(0)
    long = rng.standard_normal((10, 80))
    a = MfccMatrix(long, CFG)
    b = MfccMatrix(long[:6].copy(), CFG)
    assert mcd(a, b) == 0.0


def test_mcd_zero_on_identical():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((5, 80))
    assert mcd(MfccMatrix(values, CFG), MfccMatrix(values.copy(), CFG)) == 0.0


# ------------------------------------------------------------------- LSD


def test_lsd_hand_computed_two_by_three():
    ref = MagnitudeSpectrogram(np.array([[1.0, 2.0, 4.0]]), _tiny_cfg())
    deg = MagnitudeSpectrogram(np.array([[2.0, 2.0, 2.0]]), _tiny_cfg())
    # per-bin dB differences: -20log10(2), 0, 20log10(2); the 1e-8
    # regularizer shifts these only at the 1e-8 dB level
    d = 20.0 * math.log10(2.0)
    expected = math.sqrt((d * d + 0.0 + d * d) / 3.0)
    assert lsd(ref, deg) == pytest.approx(expected, abs=1e-6)


def test_lsd_scale_by_ten_is_twenty_db():
    rng = np.random.default_rng(2)
    values = rng.uniform(0.5, 2.0, size=(4, 513))
    ref = MagnitudeSpectrogram(values, CFG)
    deg = MagnitudeSpectrogram(10.0 * values, CFG)
    assert lsd(ref, deg) == pytest.approx(20.0, abs=1e-6)


def test_lsd_zero_on_identical():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.1, 1.0, size=(3, 513))
    assert lsd(MagnitudeSpectrogram(values, CFG),
               MagnitudeSpectrogram(values.copy(), CFG)) == pytest.approx(0.0)


def _tiny_cfg() -> FrameConfig:
    return FrameConfig(sample_rate_hz=16000, frame_len=4, frame_shift=2, num_bands=2)


# ---------------------------------------------------------------- seg SNR


def test_seg_snr_known_noise_matches_analytic():
    fs = 16000
    rng = np.random.default_rng(4)
    # 1000 Hz at 16 kHz completes exactly 16 cycles per 256-sample segment,
    # so every segment carries identical reference power; noise is scaled
    # for a 20 dB global SNR, inside the [-10, 35] clamp
    n = 256 * 100
    phase = 2 * np.pi * 1000.0 * np.arange(n) / fs
    ref = np.sin(phase)
    noise = rng.standard_normal(n)
    ref_rms = np.sqrt(np.mean(ref ** 2))
    noise *= (ref_rms / 10.0) / np.sqrt(np.mean(noise ** 2))
    snr_db = 10.0 * math.log10(np.mean(ref ** 2) / np.mean(noise ** 2))
    assert snr_db == pytest.approx(20.0, abs=1e-9)
    got = seg_snr(AudioBuffer(ref, fs), AudioBuffer(ref + noise, fs))
    assert got == pytest.approx(snr_db, abs=0.1)


def test_seg_snr_identical_hits_ceiling():
    x = speech_like(0.5, seed=5)
    assert seg_snr(x, x) == pytest.approx(35.0)


def test_seg_snr_floor_applied():
    fs = 16000
    ref = AudioBuffer(0.01 * np.ones(2560), fs)
    deg = AudioBuffer(np.ones(2560), fs)
    assert seg_snr(ref, deg) == pytest.approx(-10.0)


def test_seg_snr_ignores_silent_segments():
    fs = 16000
    ref = np.zeros(512)
    ref[:256] = 0.1  # second segment is silent
    deg = ref + 0.001
    value = seg_snr(AudioBuffer(ref, fs), AudioBuffer(deg, fs))
    expected = 10.0 * math.log10(np.mean(ref[:256] ** 2) / 1e-6)
    assert value == pytest.approx(min(expected, 35.0), abs=1e-6)


def test_seg_snr_all_silent_rejected():
    fs = 16000
    with pytest.raises(ValueError):
        seg_snr(AudioBuffer(np.zeros(2560), fs),
                AudioBuffer(np.ones(2560), fs))


# ----------------------------------------------------------------- report


def test_report_line_format():
    report = QualityReport("utt1", 0.912345678, 5.5, 1.25, -3.0)
    line = report.format_line()
    assert line == ("utt1 stoi=0.912346 mcd_db=5.500000 "
                    "lsd_db=1.250000 seg_snr_db=-3.000000")


def test_report_na_fields():
    report = QualityReport("utt2", None, None, 1.0, 2.0)
    assert "stoi=NA" in report.format_line()
    assert "mcd_db=NA" in report.format_line()


def test_corpus_mean():
    reports = [
        QualityReport("a", 0.8, 4.0, 1.0, 10.0),
        QualityReport("b", None, 6.0, 3.0, 20.0),
    ]
    mean = QualityReport.corpus_mean(reports)
    assert mean.utterance_id == "MEAN"
    assert mean.stoi == pytest.approx(0.8)
    assert mean.mcd_db == pytest.approx(5.0)
    assert mean.lsd_db == pytest.approx(2.0)
    assert mean.seg_snr_db == pytest.approx(15.0)
    with pytest.raises(ValueError):
        QualityReport.corpus_mean([])
