"""Receiver chain: inverse DCT, mel inversion, phase reconstruction,
overlap-add, mel-spectrogram files, and stream decoding."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import reference
from melvq import export_mel, import_mel
from melvq.analysis import (
    FrameConfig,
    MelSpectrogram,
    build_mel_filterbank,
    compute_mfcc,
    frame_signal,
    hamming_window,
    log_mel_spectrogram,
)
from melvq.bitstream import MELSPEC_HEADER_LEN, MELSPEC_MAGIC, encode_audio, pack
from melvq.errors import FormatError, HashMismatchError
from melvq.metrics import seg_snr
from melvq.quantizer import RateMode
from melvq.signal_io import AudioBuffer
from melvq.signals import speech_like, tone
from melvq.synthesis import (
    MagnitudeSpectrogram,
    decode_stream,
    griffin_lim,
    idct_mel,
    magnitude_spectrogram,
    mel_to_linear,
    overlap_add,
)

# (frame_len, frame_shift) pairs whose frame_len / frame_shift is 1, 2, 4 or 8
GEOMETRIES = [(1024, 256), (512, 128), (1024, 512), (1024, 1024), (512, 64)]

# ------------------------------------------------------------- inverse DCT


def test_idct_inverts_mfcc(frame_config, filterbank):
    audio = speech_like(0.4, seed=2)
    lm = log_mel_spectrogram(frame_signal(audio, frame_config), filterbank)
    z = compute_mfcc(audio, frame_config, filterbank)
    assert np.max(np.abs(idct_mel(z.values) - lm.values)) < 1e-9


def test_idct_basis_vectors():
    assert idct_mel(np.zeros(80)) == pytest.approx(np.zeros(80))
    e0 = np.zeros(80)
    e0[0] = np.sqrt(80.0)
    assert idct_mel(e0) == pytest.approx(np.ones(80))


# ----------------------------------------------------------- mel inversion


def test_mel_to_linear_on_calibration_battery(frame_config, filterbank):
    """Pseudo-inverse inversion with the non-negativity clamp loses at most
    5% of the mel-energy vector (relative l2) on harmonic signals with a
    realistic noise floor. The battery below was measured at 0.022-0.036."""
    fs = frame_config.sample_rate_hz
    t = np.arange(fs) / fs
    rng = np.random.default_rng(1234)
    noise = rng.standard_normal(len(t))
    for f0, noise_level in ((180, 0.08), (220, 0.05), (250, 0.04)):
        x = sum(np.sin(2 * np.pi * f0 * k * t + 0.2 * k * k) / k
                for k in range(1, int(6500 / f0)))
        x = 0.4 * x / np.max(np.abs(x)) + noise_level * noise
        frames = frame_signal(AudioBuffer(x, fs), frame_config)
        lm = log_mel_spectrogram(frames, filterbank)
        mel_energies = np.exp(lm.values)
        estimate = mel_to_linear(lm, filterbank)
        recon = estimate.values @ filterbank.weights.T
        rel = np.linalg.norm(recon - mel_energies) / np.linalg.norm(mel_energies)
        assert rel <= 0.05, (f0, noise_level, rel)


def test_mel_to_linear_never_negative(frame_config, filterbank):
    audio = speech_like(0.3, seed=9)
    lm = log_mel_spectrogram(frame_signal(audio, frame_config), filterbank)
    assert np.all(mel_to_linear(lm, filterbank).values >= 0.0)


def test_mel_to_linear_floor_input_is_tiny(frame_config, filterbank):
    from melvq.analysis import MEL_LOG_FLOOR

    floor = np.full((3, 80), np.log(MEL_LOG_FLOOR))
    out = mel_to_linear(MelSpectrogram(floor, frame_config), filterbank)
    assert np.all(out.values <= 1e-4)


# ------------------------------------------------------------- overlap-add


def test_overlap_add_identity_interior(frame_config):
    audio = speech_like(1.0, seed=4)
    fm = frame_signal(audio, frame_config)
    rec = overlap_add(fm.frames, fm.window, frame_config.frame_shift)
    n = len(audio)
    lo, hi = frame_config.frame_len, n - frame_config.frame_len
    err = np.max(np.abs(rec.samples[lo:hi] - audio.samples[lo:hi]))
    assert err / np.max(np.abs(audio.samples)) < 1e-6


def test_overlap_add_single_frame(frame_config):
    """One analysis frame (signal times window) comes back as the underlying
    signal: numerator s*w^2 over denominator w^2."""
    window = np.hamming(1024)
    signal = np.sin(np.linspace(0.0, 20.0, 1024))
    rec = overlap_add((signal * window)[None, :], window, 256)
    assert rec.samples == pytest.approx(signal, abs=1e-12)


def test_overlap_add_zero_frames(frame_config):
    rec = overlap_add(np.zeros((4, 1024)), np.hamming(1024), 256)
    assert np.all(rec.samples == 0.0)
    assert len(rec) == 3 * 256 + 1024


@pytest.mark.parametrize("frame_len,frame_shift",
                         GEOMETRIES + [(1000, 300), (256, 400)])
@pytest.mark.parametrize("num_frames", [1, 2, 9])
def test_overlap_add_matches_the_frame_loop(frame_len, frame_shift, num_frames):
    """Same float bytes as the loop over frames, also for a shift that does
    not divide the frame or exceeds it."""
    rng = np.random.default_rng(frame_len + frame_shift + num_frames)
    frames = rng.standard_normal((num_frames, frame_len))
    window = hamming_window(frame_len)
    rec = overlap_add(frames, window, frame_shift)
    assert rec.samples.tobytes() == reference._wola(frames, window, frame_shift).tobytes()


def test_overlap_add_shape_mismatch():
    with pytest.raises(ValueError):
        overlap_add(np.zeros((2, 512)), np.hamming(1024), 256)


# -------------------------------------------------------------- Griffin-Lim


def _speech_chirp(frame_config) -> AudioBuffer:
    """2 s amplitude-modulated sweep used as the phase-recovery reference."""
    fs = frame_config.sample_rate_hz
    t = np.arange(2 * fs) / fs
    sweep = np.sin(2 * np.pi * (100.0 * t + (3900.0 / 4.0) * t ** 2))
    am = 0.5 * (1.0 - np.cos(2 * np.pi * 4.0 * t))
    return AudioBuffer(0.5 * sweep * am, fs)


def test_griffin_lim_consistency_non_increasing(frame_config):
    for seed in (0, 1):
        audio = speech_like(1.0, seed=seed)
        mag = magnitude_spectrogram(frame_signal(audio, frame_config))
        _, errors = griffin_lim(mag, iterations=30)
        assert len(errors) == 30
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:])), errors


def test_griffin_lim_recovers_phase_recoverable_reference(frame_config):
    """segSNR of the reconstruction against a reference whose phase is
    reachable from the deterministic all-zero initialization. The reference
    is itself synthesized by the same projection operator, so its true STFT
    magnitude admits a recoverable phase; measured 14.8 dB, asserted > 5."""
    chirp = _speech_chirp(frame_config)
    mag0 = magnitude_spectrogram(frame_signal(chirp, frame_config))
    reference, _ = griffin_lim(mag0, iterations=60)

    mag = magnitude_spectrogram(frame_signal(reference, frame_config))
    rebuilt, errors = griffin_lim(mag, iterations=60)
    assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    n = min(len(reference), len(rebuilt))
    snr = seg_snr(AudioBuffer(reference.samples[:n], 16000),
                  AudioBuffer(rebuilt.samples[:n], 16000))
    assert snr > 5.0, snr


def test_griffin_lim_zero_magnitude(frame_config):
    zero = magnitude_spectrogram(frame_signal(
        AudioBuffer(np.zeros(2048), 16000), frame_config))
    out, errors = griffin_lim(zero, iterations=3)
    assert np.all(out.samples == 0.0)
    assert errors == pytest.approx([0.0, 0.0, 0.0])


def test_griffin_lim_deterministic(frame_config):
    audio = speech_like(0.5, seed=3)
    mag = magnitude_spectrogram(frame_signal(audio, frame_config))
    a, _ = griffin_lim(mag, iterations=10)
    b, _ = griffin_lim(mag, iterations=10)
    assert np.array_equal(a.samples, b.samples)


def _assert_griffin_lim_matches_reference(magnitude, iterations):
    audio, errors = griffin_lim(magnitude, iterations)
    ref_audio, ref_errors = reference.griffin_lim(magnitude, iterations)
    assert audio.samples.tobytes() == ref_audio.samples.tobytes()
    assert errors == ref_errors


@pytest.mark.parametrize("iterations", [1, 8])
def test_griffin_lim_matches_reference_on_speech(frame_config, iterations):
    mag = magnitude_spectrogram(frame_signal(speech_like(6.0, seed=1), frame_config))
    _assert_griffin_lim_matches_reference(mag, iterations)


@pytest.mark.parametrize("frame_len,frame_shift", GEOMETRIES)
@pytest.mark.parametrize("num_frames", [1, 2, 7, 40])
@pytest.mark.parametrize("iterations", [1, 8])
def test_griffin_lim_matches_reference_on_zero_bins_and_silent_frames(
        frame_len, frame_shift, num_frames, iterations):
    """Random magnitudes with exact-zero bins, isolated silent frames and a
    silent run long enough that whole re-analysis frames come out zero."""
    cfg = FrameConfig(frame_len=frame_len, frame_shift=frame_shift, num_bands=40)
    rng = np.random.default_rng(frame_len + frame_shift + num_frames)
    values = rng.random((num_frames, cfg.num_bins)) * rng.choice(
        [0.0, 1.0, 30.0], size=(num_frames, cfg.num_bins), p=[0.2, 0.4, 0.4])
    values[1::3] = 0.0
    values[num_frames // 4:num_frames // 4 + 2 * frame_len // frame_shift + 1] = 0.0
    _assert_griffin_lim_matches_reference(MagnitudeSpectrogram(values, cfg), iterations)



@pytest.mark.parametrize("frame_len,frame_shift", [(1024, 1024), (1024, 256)])
def test_griffin_lim_survives_subnormal_magnitudes(frame_len, frame_shift):
    """Where 1/|c| would overflow the phase is 1, as where |c| = 0, so tiny
    frames give finite samples; unscaled, the output equals the oracle's."""
    cfg = FrameConfig(frame_len=frame_len, frame_shift=frame_shift, num_bands=40)
    values = np.random.default_rng(frame_shift).random((20, cfg.num_bins))
    _assert_griffin_lim_matches_reference(MagnitudeSpectrogram(values, cfg), 8)
    values[5:16] *= np.logspace(-305, -321, 11)[:, None]
    audio, errors = griffin_lim(MagnitudeSpectrogram(values, cfg), 8)
    assert np.all(np.isfinite(audio.samples)) and np.all(np.isfinite(errors))


def test_griffin_lim_stops_only_on_a_non_finite_estimate(frame_config):
    """An error norm that overflows on finite samples runs every iteration;
    magnitudes that overflow the estimate itself raise."""
    values = np.random.default_rng(0).random((10, frame_config.num_bins)) * 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        audio, errors = griffin_lim(MagnitudeSpectrogram(values, frame_config), 3)
        assert errors == [np.inf] * 3 and np.all(np.isfinite(audio.samples))
        with pytest.raises(ValueError, match="must be finite"):
            griffin_lim(MagnitudeSpectrogram(values * 1e8, frame_config), 60)


def test_griffin_lim_working_set_and_read_only_target(frame_config):
    """Over 1125 frames the kernel's traced peak stays within 32 KB per frame
    (six frame-sized buffers and the error norm's temporary come to about
    29 KB), and the magnitudes it reads in place come back unchanged."""
    mag = magnitude_spectrogram(frame_signal(speech_like(18.0, seed=3), frame_config))
    before = mag.values.tobytes()
    tracemalloc.start()
    try:
        griffin_lim(mag, iterations=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mag.num_frames == 1125
    assert peak <= 32_000 * mag.num_frames, peak / mag.num_frames
    assert mag.values.tobytes() == before


def test_frame_signal_matches_the_index_gather(frame_config):
    """The strided frames give the same spectrum bits as the index gather."""
    audio = speech_like(0.7, seed=8)
    fm = frame_signal(audio, frame_config)
    padded = np.zeros((fm.num_frames - 1) * frame_config.frame_shift + frame_config.frame_len)
    padded[:len(audio)] = audio.samples
    expected = reference._stft_fixed(padded, fm.window, frame_config.frame_shift,
                                     fm.num_frames, frame_config.fft_size)
    assert np.fft.rfft(fm.frames, axis=1).tobytes() == expected.tobytes()


def test_griffin_lim_requires_iterations(frame_config):
    mag = magnitude_spectrogram(frame_signal(tone(500.0, 0.2), frame_config))
    with pytest.raises(ValueError):
        griffin_lim(mag, iterations=0)


# ----------------------------------------------------------- MELSPEC files


def test_melspec_roundtrip_bit_exact(tmp_path, frame_config, filterbank):
    audio = speech_like(0.5, seed=6)
    lm = log_mel_spectrogram(frame_signal(audio, frame_config), filterbank)
    path = tmp_path / "a.mels"
    export_mel(lm, path)
    back = import_mel(path)
    assert np.array_equal(back.values, lm.values.astype(np.float32))
    assert back.config == frame_config
    # a second export of the imported data is byte-identical
    path2 = tmp_path / "b.mels"
    export_mel(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_melspec_header_fields(tmp_path, frame_config, filterbank):
    audio = AudioBuffer(np.full(16000, 1e-4), 16000)
    lm = log_mel_spectrogram(frame_signal(audio, frame_config), filterbank)
    path = tmp_path / "h.mels"
    export_mel(lm, path)
    raw = path.read_bytes()
    assert raw[:4] == MELSPEC_MAGIC
    assert raw[4] == 1
    m, k, fs, flen, fshift = [
        int.from_bytes(raw[5 + 4 * i:9 + 4 * i], "little") for i in range(5)
    ]
    assert (m, k, fs, flen, fshift) == (63, 80, 16000, 1024, 256)
    assert len(raw) == MELSPEC_HEADER_LEN + 63 * 80 * 4


def test_melspec_zero_frames_header_only(tmp_path, frame_config):
    empty = MelSpectrogram(np.zeros((0, 80)), frame_config)
    path = tmp_path / "z.mels"
    export_mel(empty, path)
    assert len(path.read_bytes()) == MELSPEC_HEADER_LEN
    back = import_mel(path)
    assert back.values.shape == (0, 80)


def test_melspec_import_rejects_corruption(tmp_path, frame_config, filterbank):
    audio = speech_like(0.3, seed=8)
    lm = log_mel_spectrogram(frame_signal(audio, frame_config), filterbank)
    path = tmp_path / "c.mels"
    export_mel(lm, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.mels"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        import_mel(bad)
    bad.write_bytes(raw[:-3])
    with pytest.raises(FormatError):
        import_mel(bad)
    bad.write_bytes(raw + b"\x01")
    with pytest.raises(FormatError):
        import_mel(bad)


# ------------------------------------------------------------ stream decode


def test_decode_stream_length_and_determinism(frame_config, cb2000):
    audio = speech_like(1.0, seed=12)
    stream = encode_audio(audio, cb2000)
    out1 = decode_stream(stream, cb2000, gl_iterations=8)
    out2 = decode_stream(stream, cb2000, gl_iterations=8)
    expected = (stream.frame_count - 1) * frame_config.frame_shift \
        + frame_config.frame_len
    assert len(out1) == expected
    assert np.array_equal(out1.samples, out2.samples)
    assert np.all(np.abs(out1.samples) <= 1.0)
    assert np.all(np.isfinite(out1.samples))


def test_decode_stream_rejects_wrong_codebooks(cb1000, cb2000):
    audio = speech_like(0.5, seed=13)
    stream = encode_audio(audio, cb2000)
    with pytest.raises(HashMismatchError):
        decode_stream(stream, cb1000)


def test_decode_stream_rejects_empty(cb1000):
    empty = pack(np.zeros((0, 2), dtype=np.int64), RateMode.R1000, cb1000.content_hash)
    with pytest.raises(FormatError):
        decode_stream(empty, cb1000)
