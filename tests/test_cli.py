"""Command-line behavior: happy paths, exit codes, report output."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import melvq
from melvq import import_mel, load_codebooks
from melvq.analysis import (
    FrameConfig,
    build_mel_filterbank,
    frame_signal,
    log_mel_spectrogram,
    mfcc,
)
from melvq.bitstream import pack
from melvq.cli import main
from melvq.metrics import QualityReport, lsd, mcd, seg_snr, stoi
from melvq.quantizer import RateMode, fnv1a64
from melvq.signal_io import AudioBuffer, read_wav, write_wav
from melvq.signals import speech_like
from melvq.synthesis import magnitude_spectrogram


@pytest.fixture()
def corpus_dir(tmp_path):
    paths = []
    for i in range(6):
        path = tmp_path / f"train_{i}.wav"
        write_wav(path, speech_like(1.2, seed=300 + i))
        paths.append(str(path))
    manifest = tmp_path / "train.txt"
    manifest.write_text("\n".join(paths) + "\n")
    write_wav(tmp_path / "input.wav", speech_like(1.5, seed=55))
    return tmp_path


def _train(tmp_path, rate: str, name: str, *extra) -> str:
    book = str(tmp_path / name)
    code = main(["train", "--manifest", str(tmp_path / "train.txt"),
                 "--rate", rate, "--codebook", book, *extra])
    assert code == 0
    return book


def test_train_encode_decode_eval_happy_path(corpus_dir, capsys):
    book = _train(corpus_dir, "2000", "cb.mvqb",
                  "--sq-bits", "4", "--stage-bits", "6,6")
    wav_in = str(corpus_dir / "input.wav")
    stream = str(corpus_dir / "out.mvqc")
    wav_out = str(corpus_dir / "rec.wav")

    assert main(["encode", wav_in, stream, "--codebook", book]) == 0
    assert main(["decode", stream, wav_out, "--codebook", book,
                 "--gl-iters", "15"]) == 0
    report = str(corpus_dir / "report.txt")
    assert main(["eval", wav_in, wav_out, "--report", report]) == 0

    lines = (corpus_dir / "report.txt").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("input ")
    assert lines[1].startswith("MEAN ")
    for field in ("stoi=", "mcd_db=", "lsd_db=", "seg_snr_db="):
        assert field in lines[0]

    decoded = read_wav(wav_out)
    assert decoded.sample_rate_hz == 16000
    assert len(decoded) > 0


def test_encode_decode_bitstreams_are_stable(corpus_dir):
    """Same input and codebook must give byte-identical stream and audio."""
    book = _train(corpus_dir, "1000", "cb1k.mvqb",
                  "--sq-bits", "3", "--vq-bits", "6")
    wav_in = str(corpus_dir / "input.wav")
    s1, s2 = str(corpus_dir / "a.mvqc"), str(corpus_dir / "b.mvqc")
    assert main(["encode", wav_in, s1, "--codebook", book]) == 0
    assert main(["encode", wav_in, s2, "--codebook", book]) == 0
    assert (corpus_dir / "a.mvqc").read_bytes() == (corpus_dir / "b.mvqc").read_bytes()

    w1, w2 = str(corpus_dir / "a.wav"), str(corpus_dir / "b.wav")
    assert main(["decode", s1, w1, "--codebook", book, "--gl-iters", "10"]) == 0
    assert main(["decode", s2, w2, "--codebook", book, "--gl-iters", "10"]) == 0
    assert (corpus_dir / "a.wav").read_bytes() == (corpus_dir / "b.wav").read_bytes()


def test_decode_emit_mel(corpus_dir):
    book = _train(corpus_dir, "1000", "cb.mvqb",
                  "--sq-bits", "3", "--vq-bits", "5")
    stream = str(corpus_dir / "out.mvqc")
    assert main(["encode", str(corpus_dir / "input.wav"), stream,
                 "--codebook", book]) == 0
    mel_path = corpus_dir / "out.mels"
    assert main(["decode", stream, str(corpus_dir / "rec.wav"),
                 "--codebook", book, "--gl-iters", "5",
                 "--emit-mel", str(mel_path)]) == 0
    mel = import_mel(mel_path)
    assert mel.values.shape[1] == 80
    assert mel.values.shape[0] > 0


def test_inspect_all_three_formats(corpus_dir, capsys):
    book = _train(corpus_dir, "1000", "cb.mvqb",
                  "--sq-bits", "3", "--vq-bits", "5")
    stream = str(corpus_dir / "out.mvqc")
    main(["encode", str(corpus_dir / "input.wav"), stream, "--codebook", book])
    mel_path = str(corpus_dir / "m.mels")
    main(["decode", stream, str(corpus_dir / "rec.wav"), "--codebook", book,
          "--gl-iters", "3", "--emit-mel", mel_path])
    capsys.readouterr()

    assert main(["inspect", stream]) == 0
    out = capsys.readouterr().out
    assert "mode=1000" in out and "codebook_hash=" in out

    assert main(["inspect", book]) == 0
    out = capsys.readouterr().out
    assert "scalar_bits=3" in out and "stage_bits=(5,)" in out

    assert main(["inspect", mel_path]) == 0
    out = capsys.readouterr().out
    assert "bands=80" in out


def test_eval_manifest_with_mean_footer(corpus_dir, capsys):
    pairs = corpus_dir / "pairs.txt"
    a, b = str(corpus_dir / "train_0.wav"), str(corpus_dir / "train_1.wav")
    pairs.write_text(f"{a} {a}\n{b} {b}\n")
    report = corpus_dir / "pairs_report.txt"
    assert main(["eval", "--manifest", str(pairs),
                 "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 3
    assert lines[-1].startswith("MEAN ")
    assert "stoi=1.000000" in lines[0]


def test_eval_prints_na_where_seg_snr_cannot_be_computed(corpus_dir, capsys):
    """A silent reference and a clip shorter than one segment exit 0 with
    seg_snr_db=NA; in a manifest the other pairs are still scored, and the
    MEAN line averages the pairs that have the metric."""
    silent, short = corpus_dir / "silent.wav", corpus_dir / "short.wav"
    write_wav(silent, AudioBuffer(np.zeros(16000), 16000))
    write_wav(short, AudioBuffer(speech_like(1.0, seed=9).samples[:100], 16000))
    speech = str(corpus_dir / "train_2.wav")
    for ref, deg in ((silent, speech), (short, short)):
        assert main(["eval", str(ref), str(deg)]) == 0
        assert "seg_snr_db=NA" in capsys.readouterr().out
    pairs = corpus_dir / "pairs.txt"
    pairs.write_text(f"{silent} {speech}\n{speech} {corpus_dir / 'train_3.wav'}\n")
    assert main(["eval", "--manifest", str(pairs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[0].endswith("seg_snr_db=NA")
    seg = [line.split("seg_snr_db=")[1] for line in lines]
    assert seg[1] != "NA" and seg[2] == seg[1]


def test_eval_line_matches_the_two_fft_chain(corpus_dir, capsys):
    """eval takes one FFT per signal; its line equals the one built from
    log_mel_spectrogram and magnitude_spectrogram, which take one each."""
    ref_path, deg_path = corpus_dir / "train_2.wav", corpus_dir / "train_3.wav"
    assert main(["eval", str(ref_path), str(deg_path)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    cfg = FrameConfig()
    ref, deg = read_wav(ref_path), read_wav(deg_path)
    n = min(len(ref), len(deg))
    ref, deg = AudioBuffer(ref.samples[:n], 16000), AudioBuffer(deg.samples[:n], 16000)
    fb = build_mel_filterbank(cfg)
    ref_frames, deg_frames = frame_signal(ref, cfg), frame_signal(deg, cfg)
    expected = QualityReport(
        "train_2", stoi(ref, deg),
        mcd(mfcc(log_mel_spectrogram(ref_frames, fb)),
            mfcc(log_mel_spectrogram(deg_frames, fb))),
        lsd(magnitude_spectrogram(ref_frames), magnitude_spectrogram(deg_frames)),
        seg_snr(ref, deg))
    assert line == expected.format_line()


def test_exit_codes(corpus_dir, capsys):
    book = _train(corpus_dir, "2000", "cb.mvqb",
                  "--sq-bits", "4", "--stage-bits", "5,5")
    other = _train(corpus_dir, "2000", "other.mvqb",
                   "--sq-bits", "4", "--stage-bits", "4,4")
    wav_in = str(corpus_dir / "input.wav")
    stream = str(corpus_dir / "out.mvqc")
    main(["encode", wav_in, stream, "--codebook", book])
    capsys.readouterr()

    # 3: missing input file
    assert main(["encode", str(corpus_dir / "missing.wav"),
                 str(corpus_dir / "x.mvqc"), "--codebook", book]) == 3
    # 4: wrong sample rate
    lo = corpus_dir / "lo.wav"
    wavfile.write(lo, 8000, np.zeros(4000, dtype=np.int16))
    assert main(["encode", str(lo), str(corpus_dir / "x.mvqc"),
                 "--codebook", book]) == 4
    # 5: corrupt stream
    junk = corpus_dir / "junk.mvqc"
    junk.write_bytes(b"XXXX" + bytes(20))
    assert main(["decode", str(junk), str(corpus_dir / "x.wav"),
                 "--codebook", book]) == 5
    # 5: stream indices beyond the codebook sizes (5-bit VQ, 4-bit energy
    # stage), though each fits its wire field
    digest = load_codebooks(book).content_hash
    for row in ([0, 2000, 0], [60, 0, 0]):
        wide = corpus_dir / "wide.mvqc"
        wide.write_bytes(pack([row], RateMode.R2000, digest).to_bytes())
        assert main(["decode", str(wide), str(corpus_dir / "x.wav"),
                     "--codebook", book]) == 5
        assert "out of range" in capsys.readouterr().err
    # 5: a correctly hashed codebook whose contents are invalid: a NaN
    # codeword, energy levels not increasing, a 0-bit stage, an energy stage
    # wider than its 4-bit field
    levels = np.arange(4.0)
    for energy, vq_bits, table in ((levels, 2, np.full((4, 3), np.nan)),
                                   (levels[[0, 2, 1, 3]], 2, np.zeros((4, 3))),
                                   (levels, 0, np.zeros((1, 3))),
                                   (np.arange(32.0), 2, np.zeros((4, 3)))):
        bad = corpus_dir / "bad.mvqb"
        bad.write_bytes(_codebook_bytes(energy, vq_bits, table))
        assert main(["inspect", str(bad)]) == 5
    # 2: a valid codebook whose vectors are not 79-dimensional, before any
    # analysis, with the message decode gives
    narrow = corpus_dir / "narrow.mvqb"
    narrow.write_bytes(_codebook_bytes(levels, 2, np.arange(12.0).reshape(4, 3)))
    assert main(["encode", wav_in, str(corpus_dir / "x.mvqc"), "--codebook", str(narrow)]) == 2
    assert "codebook dimension does not match" in capsys.readouterr().err
    # 5: a valid 79-dim book whose top energy level overflows decoding, in
    # Griffin-Lim (6330) or in exp (6360, 1e4), with no numpy warning; levels
    # near -6340 give subnormal magnitudes, which decode
    for levels, index, code in (([0, 1, 2, 6330], 3, 5), ([0, 1, 2, 6360], 3, 5),
                                ([0, 1, 2, 1e4], 3, 5), ([-6340, -6330, -6320, -6310], 0, 0)):
        huge, loud = corpus_dir / "huge.mvqb", corpus_dir / "loud.mvqc"
        huge.write_bytes(_codebook_bytes(np.array(levels, float), 2, np.zeros((4, 79))))
        loud.write_bytes(pack([[index, 0]] * 5, RateMode.R1000,
                              load_codebooks(huge).content_hash).to_bytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["decode", str(loud), str(corpus_dir / "x.wav"),
                         "--codebook", str(huge), "--gl-iters", "3"]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: codebook content overflows") and err.count("\n") == 1
        else:
            assert err == ""
    # 5: a mel header whose frame config is invalid (shift does not divide
    # the frame length; no bands)
    for frame_len, bands in ((1000, 80), (1024, 0)):
        mels = corpus_dir / "bad.mels"
        header = [1, bands, 16000, frame_len, 256]
        mels.write_bytes(b"MELS\x01" + b"".join(v.to_bytes(4, "little") for v in header)
                         + bytes(4 * bands))
        assert main(["inspect", str(mels)]) == 5
    # 5: a WAV cut inside its header
    cut = corpus_dir / "cut.wav"
    cut.write_bytes((corpus_dir / "input.wav").read_bytes()[:30])
    assert main(["encode", str(cut), str(corpus_dir / "x.mvqc"), "--codebook", book]) == 5
    # 5: rate flag contradicts the codebook
    assert main(["encode", wav_in, str(corpus_dir / "x.mvqc"),
                 "--codebook", book, "--rate", "1000"]) == 5
    # 6: stream coded with different codebooks
    assert main(["decode", stream, str(corpus_dir / "x.wav"),
                 "--codebook", other]) == 6
    # 7: not enough data for production-size codebooks
    assert main(["train", "--manifest", str(corpus_dir / "train.txt"),
                 "--rate", "1000",
                 "--codebook", str(corpus_dir / "big.mvqb")]) == 7
    err = capsys.readouterr().err
    assert "at least 4096" in err
    # 2: a width wider than its wire field, before any training, though the
    # corpus is also too small for a 13-bit book
    for widths in (("--sq-bits", "5", "--vq-bits", "8"), ("--vq-bits", "13")):
        assert main(["train", "--manifest", str(corpus_dir / "train.txt"), "--rate", "1000",
                     "--codebook", str(corpus_dir / "wide.mvqb"), *widths]) == 2
        assert "wider than its" in capsys.readouterr().err
    assert not (corpus_dir / "wide.mvqb").exists()
    # 2: a beam, Griffin-Lim iteration count or scalar width below 1, before
    # any file is read
    for argv in (["encode", str(corpus_dir / "missing.wav"), str(corpus_dir / "x.mvqc"),
                  "--codebook", book, "--beam", "0"],
                 ["train", "--manifest", str(corpus_dir / "missing.txt"),
                  "--codebook", str(corpus_dir / "x.mvqb"), "--sq-bits", "0"],
                 ["decode", str(corpus_dir / "missing.mvqc"), str(corpus_dir / "x.wav"),
                  "--codebook", book, "--gl-iters", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_overflowing_decode_stops_early(tmp_path, capsys, monkeypatch):
    """A long stream whose energy level overflows Griffin-Lim exits 5 after
    one re-analysis, not after all 60 iterations."""
    huge, loud = tmp_path / "huge.mvqb", tmp_path / "loud.mvqc"
    huge.write_bytes(_codebook_bytes(np.array([0, 1, 2, 6330.0]), 2, np.zeros((4, 79))))
    loud.write_bytes(pack([[3, 0]] * 1000, RateMode.R1000,
                          load_codebooks(huge).content_hash).to_bytes())
    analyses, frame_view = [], melvq.synthesis._frame_view

    def counting(*args):
        analyses.append(1)
        return frame_view(*args)

    monkeypatch.setattr(melvq.synthesis, "_frame_view", counting)
    assert main(["decode", str(loud), str(tmp_path / "x.wav"), "--codebook", str(huge)]) == 5
    assert capsys.readouterr().err.startswith("error: codebook content overflows")
    assert 1 <= len(analyses) <= 2


def _codebook_bytes(levels, vq_bits: int, table) -> bytes:
    """A correctly hashed R1000 codebook file with arbitrary contents."""
    energy_bits = int(np.log2(len(levels)))
    payload = (b"MVQB" + bytes([1, RateMode.R1000.wire_byte, energy_bits])
               + table.shape[1].to_bytes(2, "little") + bytes([vq_bits])
               + np.asarray(levels, "<f4").tobytes() + np.asarray(table, "<f4").tobytes())
    return payload + fnv1a64(payload).to_bytes(8, "little")


def test_empty_manifest_fails_before_output(corpus_dir):
    empty = corpus_dir / "empty.txt"
    empty.write_text("# only a comment\n\n")
    book = corpus_dir / "never.mvqb"
    assert main(["train", "--manifest", str(empty), "--rate", "1000",
                 "--codebook", str(book)]) == 7
    assert not book.exists()


def test_train_writes_loadable_codebooks(corpus_dir):
    book = _train(corpus_dir, "1000", "cb.mvqb",
                  "--sq-bits", "3", "--vq-bits", "4")
    loaded = load_codebooks(book)
    assert loaded.stages[0].bits == 3
    assert loaded.stage_bits == (4,)


def test_cli_module_runs_without_warnings():
    """The package does not import the CLI, so running it as a module
    raises no 'found in sys.modules' RuntimeWarning."""
    result = subprocess.run([sys.executable, "-W", "error", "-m", "melvq.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--rate", "1500"])  # invalid rate and missing args
    assert exc.value.code == 2


_NO_SCIPY_SCRIPT = """
import sys
from melvq.cli import main

d = sys.argv[1]
book, stream, wav = d + "/cb.mvqb", d + "/out.mvqc", d + "/out.wav"
for argv in (["train", "--manifest", d + "/train.txt", "--rate", "2000",
              "--codebook", book, "--sq-bits", "3", "--stage-bits", "4,4"],
             ["encode", d + "/input.wav", stream, "--codebook", book],
             ["decode", stream, wav, "--codebook", book, "--gl-iters", "2",
              "--emit-mel", d + "/out.mels"],
             ["eval", d + "/input.wav", wav],
             ["inspect", stream]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_commands_never_import_scipy(corpus_dir):
    """scipy is a test-only dependency: train, encode, decode --emit-mel,
    eval and inspect run without importing it. A child process is needed
    because tests import scipy into this one."""
    src = str(Path(melvq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(corpus_dir)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
