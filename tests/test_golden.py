"""Golden bytes: a seeded desk-scale pass through the command line.

Trains a 1000 bit/s (3+7 bits) and a 2000 bit/s (4+6+6 bits) codebook on
eight synthetic clips, encodes one clip with each at beam widths 8 and 1,
decodes every stream with --emit-mel, and inspects every codec file. The
sha256 of each written file and of the whole stdout (temp paths masked) is
pinned, so a refactor of the quantizer, the stream packing or the codebook
container must reproduce every byte.
"""

from __future__ import annotations

import hashlib

from melvq.cli import main
from melvq.signal_io import write_wav
from melvq.signals import speech_like

EXPECTED = {
    "r1000.mvqb": "8dce893023e133a731a6d1cf97755a15b4e5e2160fb68b4f8929aa394dba8683",
    "r1000_b8.mvqc": "775283aca885473735713f72bbfc7a22bf8e0a265bffea7e608e1f31e3b60d46",
    "r1000_b8.wav": "a058109f0e5d7ad2aa2a666e3ee98af351e970e297b887d12746d24fb55c605b",
    "r1000_b8.mels": "12a5aa3e48b7596bf0ce019155d8c113e467e823f1fa24d60af3dfb4483d420a",
    "r1000_b1.mvqc": "775283aca885473735713f72bbfc7a22bf8e0a265bffea7e608e1f31e3b60d46",
    "r1000_b1.wav": "a058109f0e5d7ad2aa2a666e3ee98af351e970e297b887d12746d24fb55c605b",
    "r1000_b1.mels": "12a5aa3e48b7596bf0ce019155d8c113e467e823f1fa24d60af3dfb4483d420a",
    "r2000.mvqb": "848f60b5be2a8cd777a68a46eac45e7bd2d3dd05d3b9d514e46f5305dcb88d4a",
    "r2000_b8.mvqc": "a925b4cb933b03f523e6bf7a243e2a07d12a9e4f8fdf1910b21a6e931567d5b7",
    "r2000_b8.wav": "1411a817eed2cd48a29bba5d5ca2c93c40bdbcb9058fe79cecd942736703d243",
    "r2000_b8.mels": "e975a03dc733ca6461d0e21fd7741e312ad239502014542b9b0acc4288b5977c",
    "r2000_b1.mvqc": "35bf14ad19dc876cb2fc00dbc96fc5286b3f6e95e0348e8c598abf607bde9745",
    "r2000_b1.wav": "42b3a15adb75d8190960acac03530eea824eee452d6fbfd02b3656bb255f35e8",
    "r2000_b1.mels": "003b5e07c54ba4b7fd82e106ede44d67a8beb65eaa144089d487a3dc9db1d1ec",
    "stdout": "0aa7c03da267ac3d7dcbc212d2482729216bc1863dc93bf3f28b6c5117e428c1",
}


def _run(tmp_path, capsys) -> dict[str, str]:
    paths = []
    for i in range(8):
        path = tmp_path / f"clip_{i}.wav"
        write_wav(path, speech_like(1.2, seed=700 + i))
        paths.append(str(path))
    (tmp_path / "train.txt").write_text("\n".join(paths) + "\n")
    wav_in = str(tmp_path / "input.wav")
    write_wav(wav_in, speech_like(1.5, seed=77))

    books = {
        "r1000.mvqb": ["--rate", "1000", "--sq-bits", "3", "--vq-bits", "7"],
        "r2000.mvqb": ["--rate", "2000", "--sq-bits", "4", "--stage-bits", "6,6"],
    }
    outputs = []
    for book, flags in books.items():
        assert main(["train", "--manifest", str(tmp_path / "train.txt"),
                     "--codebook", str(tmp_path / book), *flags]) == 0
        outputs.append(book)
        for beam in ("8", "1"):
            stem = f"{book[:5]}_b{beam}"
            assert main(["encode", wav_in, str(tmp_path / f"{stem}.mvqc"),
                         "--codebook", str(tmp_path / book), "--beam", beam]) == 0
            assert main(["decode", str(tmp_path / f"{stem}.mvqc"),
                         str(tmp_path / f"{stem}.wav"),
                         "--codebook", str(tmp_path / book), "--gl-iters", "8",
                         "--emit-mel", str(tmp_path / f"{stem}.mels")]) == 0
            outputs += [f"{stem}.mvqc", f"{stem}.wav", f"{stem}.mels"]
    for name in outputs:
        if not name.endswith(".wav"):
            assert main(["inspect", str(tmp_path / name)]) == 0

    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in outputs}
    digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return digests


def test_cli_outputs_match_golden_bytes(tmp_path, capsys):
    assert _run(tmp_path, capsys) == EXPECTED
