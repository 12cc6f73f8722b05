"""WAV reading/writing and the AudioBuffer container."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from scipy.io import wavfile

import reference
from melvq.errors import FormatError
from melvq.signal_io import PCM16_FULL_SCALE, AudioBuffer, read_wav, write_wav
from melvq.signals import speech_like, tone

PCM_GUID = bytes([1, 0, 0, 0, 0, 0, 0x10, 0, 0x80, 0, 0, 0xAA, 0, 0x38, 0x9B, 0x71])
FLOAT_GUID = bytes([3]) + PCM_GUID[1:]


def _fmt(channels: int, width: int, rate: int = 16000, subformat: bytes | None = None) -> bytes:
    """A PCM fmt chunk body; with a subformat GUID it is WAVE_FORMAT_EXTENSIBLE."""
    block = channels * width
    body = struct.pack("<HHIIHH", 1 if subformat is None else 0xFFFE,
                       channels, rate, rate * block, block, 8 * width)
    if subformat is not None:
        body += struct.pack("<HHI", 22, 8 * width, (1 << channels) - 1) + subformat
    return body


def _riff(*chunks: tuple[bytes, bytes]) -> bytes:
    """RIFF WAVE bytes from (id, body) chunks, odd bodies padded."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(data)) + data + bytes(len(data) % 2)
                              for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _pcm(samples: np.ndarray, width: int) -> bytes:
    """Little-endian integer samples in width-byte containers."""
    if width == 3:
        return samples.astype("<i4").reshape(-1, 1).view(np.uint8)[:, :3].tobytes()
    return samples.astype(f"<i{width}").tobytes()


def _assert_reads_like_scipy(path) -> AudioBuffer:
    buf, oracle = read_wav(path), reference.read_wav(path)
    assert buf.sample_rate_hz == oracle.sample_rate_hz
    assert np.array_equal(buf.samples, oracle.samples)
    return buf


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


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("width", [2, 3, 4])
def test_reader_matches_scipy(tmp_path, width, channels):
    """16-, 24- and 32-bit PCM read to the same samples and rate as the
    scipy-based reader; 24-bit is widened into the int32 range."""
    bits = 8 * width
    rng = np.random.default_rng(width * 10 + channels)
    ints = rng.integers(-2 ** (bits - 1), 2 ** (bits - 1), size=(257, channels))
    ints[:2] = [[-2 ** (bits - 1)] * channels, [2 ** (bits - 1) - 1] * channels]
    path = tmp_path / "pcm.wav"
    path.write_bytes(_riff((b"fmt ", _fmt(channels, width, rate=22050)),
                           (b"data", _pcm(ints, width))))
    buf = _assert_reads_like_scipy(path)
    assert buf.sample_rate_hz == 22050 and len(buf) == 257
    if width == 3 and channels == 1:
        assert np.array_equal(buf.samples, ints[:, 0] * 256 / 2.0 ** 31)


def test_reader_accepts_extensible_pcm(tmp_path):
    ints = np.arange(-300, 300).reshape(-1, 2) * 20000
    path = tmp_path / "ext.wav"
    path.write_bytes(_riff((b"fmt ", _fmt(2, 3, subformat=PCM_GUID)),
                           (b"data", _pcm(ints, 3))))
    assert len(_assert_reads_like_scipy(path)) == 300


def test_reader_skips_chunks_with_odd_padding(tmp_path):
    ints = np.arange(-50, 50) * 300
    path = tmp_path / "list.wav"
    path.write_bytes(_riff((b"fmt ", _fmt(1, 2)), (b"LIST", b"INFOabc"),
                           (b"JUNK", b"x"), (b"data", _pcm(ints, 2))))
    buf = _assert_reads_like_scipy(path)
    assert np.array_equal(buf.samples, ints / PCM16_FULL_SCALE)


@pytest.mark.parametrize("samples", [
    speech_like(0.3, seed=4).samples,
    np.array([2.0, -2.0, 0.5, -0.5, 1e-6]),
    np.zeros(0),
])
def test_writer_bytes_equal_scipy(tmp_path, samples):
    for rate in (16000, 8000):
        audio = AudioBuffer(samples, rate)
        write_wav(tmp_path / "ours.wav", audio)
        reference.write_wav(tmp_path / "scipy.wav", audio)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


def test_unsupported_formats_rejected(tmp_path):
    """8-bit, float and malformed chunk layouts raise FormatError, as they
    did through scipy."""
    path = tmp_path / "u.wav"
    wavfile.write(path, 16000, np.full(16, 128, dtype=np.uint8))
    files = [path.read_bytes()]
    wavfile.write(path, 16000, np.zeros(16, dtype=np.float64))
    files.append(path.read_bytes())
    files.append(_riff((b"fmt ", _fmt(1, 4, subformat=FLOAT_GUID)), (b"data", bytes(64))))
    files.append(_riff((b"data", bytes(64)), (b"fmt ", _fmt(1, 2))))
    files.append(_riff((b"fmt ", _fmt(1, 2))))
    for data in files:
        path.write_bytes(data)
        for reader in (read_wav, reference.read_wav):
            with pytest.raises(FormatError):
                reader(path)


def test_wav_without_a_whole_sample_rejected(tmp_path):
    """An empty data chunk, or one cut inside its first frame, has nothing to
    code: FormatError (exit 5 in the CLI), not an error from framing."""
    path = tmp_path / "empty.wav"
    for data in (_riff((b"fmt ", _fmt(1, 2)), (b"data", b"")),
                 _riff((b"fmt ", _fmt(2, 2)), (b"data", bytes(3)))):
        path.write_bytes(data)
        with pytest.raises(FormatError, match="no whole sample"):
            read_wav(path)


def test_big_endian_rifx_rejected(tmp_path):
    """Only little-endian RIFF is read, though scipy's reader also read
    big-endian RIFX."""
    path = tmp_path / "x.wav"
    path.write_bytes(b"RIFX" + _riff((b"fmt ", _fmt(1, 2)), (b"data", bytes(4)))[4:])
    with pytest.raises(FormatError):
        read_wav(path)
