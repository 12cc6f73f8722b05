"""Command-line behavior: happy paths, exit codes, report output."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from scipy.io import wavfile

from melvq.bitstream import pack
from melvq.cli import main
from melvq.quantizer import RateMode
from melvq.signal_io import read_wav, write_wav
from melvq.signals import speech_like
from melvq.trainer import load_codebooks


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
    from melvq.synthesis import import_mel

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
    # 2: a beam or Griffin-Lim iteration count below 1, before any file is read
    for argv in (["encode", str(corpus_dir / "missing.wav"), str(corpus_dir / "x.mvqc"),
                  "--codebook", book, "--beam", "0"],
                 ["decode", str(corpus_dir / "missing.mvqc"), str(corpus_dir / "x.wav"),
                  "--codebook", book, "--gl-iters", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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
