"""WAV reading/writing and the AudioBuffer container."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.io import wavfile

from melvq.errors import FormatError
from melvq.signal_io import PCM16_FULL_SCALE, AudioBuffer, read_wav, write_wav
from melvq.signals import tone


def test_buffer_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros((4, 2)), 16000)
    with pytest.raises(ValueError):
        AudioBuffer(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros(4), 0)


def test_duration_and_len():
    buf = AudioBuffer(np.zeros(8000), 16000)
    assert len(buf) == 8000
    assert buf.duration_seconds == pytest.approx(0.5)


def test_full_scale_int16_maps_to_almost_one(tmp_path):
    path = tmp_path / "full.wav"
    wavfile.write(path, 16000, np.array([32767, -32768], dtype=np.int16))
    buf = read_wav(path)
    assert buf.samples[0] == pytest.approx(32767 / PCM16_FULL_SCALE)
    assert buf.samples[1] == pytest.approx(-1.0)


def test_write_read_roundtrip_within_quantization_step(tmp_path):
    original = tone(440.0, 0.1, amplitude=0.25)
    path = tmp_path / "t.wav"
    write_wav(path, original)
    back = read_wav(path)
    assert back.sample_rate_hz == 16000
    assert len(back) == len(original)
    assert np.max(np.abs(back.samples - original.samples)) <= 2.0 ** -15


def test_int32_and_multichannel_inputs(tmp_path):
    path = tmp_path / "i32.wav"
    wavfile.write(path, 16000, np.array([2 ** 31 - 1, 0], dtype=np.int32))
    buf = read_wav(path)
    assert buf.samples[0] == pytest.approx(1.0, abs=1e-9)

    stereo = tmp_path / "st.wav"
    wavfile.write(stereo, 16000,
                  np.array([[10000, -10000], [20000, 0]], dtype=np.int16))
    buf = read_wav(stereo)
    assert buf.samples == pytest.approx([0.0, 10000 / PCM16_FULL_SCALE])


def test_float_wav_rejected(tmp_path):
    path = tmp_path / "f32.wav"
    wavfile.write(path, 16000, np.zeros(16, dtype=np.float32))
    with pytest.raises(FormatError):
        read_wav(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"not a wav at all")
    with pytest.raises(FormatError):
        read_wav(path)


def test_write_clips_out_of_range(tmp_path):
    loud = AudioBuffer(np.array([2.0, -2.0, 0.5]), 16000)
    path = tmp_path / "loud.wav"
    write_wav(path, loud)
    back = read_wav(path)
    assert back.samples[0] == pytest.approx(32767 / PCM16_FULL_SCALE)
    assert back.samples[1] == pytest.approx(-1.0)
    assert back.samples[2] == pytest.approx(0.5, abs=2.0 ** -15)


def test_truncated_or_malformed_header_is_format_error(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, tone(440.0, 0.01))
    data = path.read_bytes()
    for size in range(44):
        path.write_bytes(data[:size])
        with pytest.raises(FormatError):
            read_wav(path)
    path.write_bytes(data[:22] + bytes(2) + data[24:])  # zero channels
    with pytest.raises(FormatError):
        read_wav(path)
