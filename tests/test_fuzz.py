"""Fuzzing the CLI with damaged files: truncated or byte-mutated streams,
mel files, WAV headers and re-hashed codebooks must end in an exit code from
the README table, never a traceback."""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from melvq import save_codebooks
from melvq.cli import main
from melvq.quantizer import fnv1a64
from melvq.signal_io import write_wav
from melvq.signals import speech_like

WAV_HEADER_LEN = 44


@pytest.fixture(scope="module")
def seeds(tmp_path_factory, cb2000):
    """One valid file of each kind, as bytes, and a work directory holding
    the desk-scale R2000 codebook."""
    work = tmp_path_factory.mktemp("fuzz")
    book, wav, stream, mels = (str(work / name) for name in
                               ("cb.mvqb", "in.wav", "in.mvqc", "in.mels"))
    save_codebooks(cb2000, book)
    write_wav(wav, speech_like(0.5, seed=7))
    assert _run(["encode", wav, stream, "--codebook", book]) == 0
    assert _run(["decode", stream, str(work / "rec.wav"), "--codebook", book,
                 "--gl-iters", "1", "--emit-mel", mels]) == 0
    files = {suffix: (work / f"{stem}.{suffix}").read_bytes()
             for stem, suffix in (("cb", "mvqb"), ("in", "wav"), ("in", "mvqc"), ("in", "mels"))}
    return work, files


def _run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


# A damage: ("cut", n) keeps the first n bytes; ("set", [(i, v), ...]) writes
# byte v at offset i, both taken modulo the file or header length.
_damage = st.one_of(
    st.tuples(st.just("cut"), st.integers(min_value=0, max_value=2 ** 20)),
    st.tuples(st.just("set"), st.lists(st.tuples(st.integers(min_value=0, max_value=2 ** 20),
                                                 st.integers(min_value=0, max_value=255)),
                                       min_size=1, max_size=4)),
)


def _damaged(data: bytes, damage, span: int | None = None) -> bytes:
    kind, arg = damage
    if kind == "cut":
        return data[:arg % len(data)]
    out = bytearray(data)
    for offset, value in arg:
        out[offset % (span or len(data))] = value
    return bytes(out)


@settings(max_examples=100, deadline=None)
@given(_damage)
def test_damaged_stream(seeds, damage):
    work, files = seeds
    path = work / "x.mvqc"
    path.write_bytes(_damaged(files["mvqc"], damage))
    assert _run(["inspect", str(path)]) in (0, 5)
    assert _run(["decode", str(path), str(work / "x.wav"), "--codebook",
                 str(work / "cb.mvqb"), "--gl-iters", "1"]) in (0, 5, 6)


@settings(max_examples=100, deadline=None)
@given(_damage)
def test_damaged_mel_file(seeds, damage):
    work, files = seeds
    path = work / "x.mels"
    path.write_bytes(_damaged(files["mels"], damage))
    assert _run(["inspect", str(path)]) in (0, 5)


@settings(max_examples=100, deadline=None)
@given(_damage)
@example(("cut", 44))  # a header whose data chunk holds no sample
def test_damaged_wav_header(seeds, damage):
    work, files = seeds
    path = work / "x.wav"
    path.write_bytes(_damaged(files["wav"], damage, WAV_HEADER_LEN))
    assert _run(["encode", str(path), str(work / "x.mvqc"), "--codebook",
                 str(work / "cb.mvqb")]) in (0, 4, 5)


@settings(max_examples=100, deadline=None)
@given(_damage)
def test_damaged_rehashed_codebook(seeds, damage):
    """The digest is rewritten after the damage, so the parser and the
    re-serialization check, not the digest, must catch it."""
    work, files = seeds
    payload = _damaged(files["mvqb"], damage)[:-8]
    path = work / "x.mvqb"
    path.write_bytes(payload + fnv1a64(payload).to_bytes(8, "little"))
    assert _run(["inspect", str(path)]) in (0, 5, 6)
    assert _run(["encode", str(work / "in.wav"), str(work / "y.mvqc"),
                 "--codebook", str(path)]) in (0, 5, 6)
