"""The batched shortlist search against the per-frame reference search.

`melvq.quantizer._quantize` scores codewords with a float32 GEMM, keeps
every codeword within a proven rounding margin of the cut-off and re-ranks
that shortlist with the float64 distance. `tests/reference.py` holds the
per-frame search it replaced, so every index, tie-break included, must be
equal.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from reference import _quantize as reference_quantize

from melvq import quantizer, trainer
from melvq.quantizer import CodebookSet, RateMode, VectorCodebook, _quantize

DIM = 79


def _energy(bits: int, rng) -> VectorCodebook:
    levels = np.sort(rng.choice(np.arange(-40.0, 40.0, 0.25), 2 ** bits, replace=False))
    return VectorCodebook(levels[:, None], bits)


def _stage(bits: int, scale: float, rng) -> np.ndarray:
    """A stage with groups of duplicated codewords, as books drawn from
    silent frames have, and copies of codeword 3 moved by one float32 ulp in
    some coefficients: their float32 scores are within rounding of each
    other, so only a search that keeps the margin finds the nearest."""
    codewords = (rng.standard_normal((2 ** bits, DIM)) * scale).astype(np.float32)
    size = len(codewords)
    codewords[size // 2:size // 2 + 6] = codewords[3]
    codewords[size - 3:] = codewords[size // 3]
    near = np.repeat(codewords[3:4], 6, axis=0)
    moved = rng.random(near.shape) < 0.3
    near[moved] = np.nextafter(near[moved], np.float32(np.inf))
    codewords[size // 2 + 6:size // 2 + 12] = near
    return codewords


def _books(mode: RateMode, bits: tuple[int, ...], seed: int) -> CodebookSet:
    rng = np.random.default_rng(seed)
    stages = [VectorCodebook(_stage(b, scale, rng), b)
              for b, scale in zip(bits[1:], (3.0, 0.7))]
    return CodebookSet(mode, (_energy(bits[0], rng), *stages), content_hash=0)


def _frames(books: CodebookSet, count: int, seed: int) -> np.ndarray:
    """Frames near sums of codewords, some on a duplicated codeword (an
    exact tie) or at its stage-2 residual (a tied residual)."""
    rng = np.random.default_rng(seed)
    vq = books.stages[1:]
    picks = [rng.integers(len(s.codewords), size=count) for s in vq]
    vectors = sum(s.codewords[p].astype(np.float64) for s, p in zip(vq, picks))
    vectors += rng.standard_normal(vectors.shape) * rng.choice([0.0, 0.05, 0.5], (count, 1))
    vectors[0] = vq[0].codewords[3]
    vectors[1] = vq[-1].codewords[3] + vq[0].codewords[5]
    energy = rng.uniform(-45, 45, count)
    energy[2] = books.stages[0].codewords[1, 0]
    energy[3] = (books.stages[0].codewords[1, 0] + books.stages[0].codewords[2, 0]) / 2
    return np.column_stack([energy, vectors])


@pytest.mark.parametrize("mode, bits, count, beams", [
    (RateMode.R1000, (4, 12), 48, (8,)),
    (RateMode.R2000, (6, 13, 13), 20, (1, 8)),
])
def test_matches_reference_on_production_size_books(mode, bits, count, beams):
    books = _books(mode, bits, seed=bits[-1])
    frames = _frames(books, count, seed=5)
    for beam in beams:
        np.testing.assert_array_equal(_quantize(frames, books, beam),
                                      reference_quantize(frames, books, beam))


@pytest.mark.parametrize("mode, bits", [(RateMode.R1000, (3, 6)),
                                        (RateMode.R2000, (4, 6, 6))])
def test_matches_reference_for_any_beam_and_frame_count(mode, bits):
    books = _books(mode, bits, seed=11)
    frames = _frames(books, 40, seed=12)
    for beam in (1, 8, 64, 100):
        for count in (0, 1, 40):
            got = _quantize(frames[:count], books, beam)
            assert got.shape == (count, len(bits))
            np.testing.assert_array_equal(got, reference_quantize(frames[:count], books, beam))


@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_results_do_not_depend_on_the_score_block(monkeypatch, block_rows):
    """With score blocks of 1, 3 or 7 rows of a 64-word stage, the codes
    equal the per-frame reference's and the trainer's assignment is bit-equal
    to its unpatched one; no search gets more than max(1024, beam) residual
    rows."""
    r1000 = _books(RateMode.R1000, (3, 6), seed=11)
    vectors = _frames(r1000, 40, seed=12)[:, 1:]
    codewords = r1000.stages[1].codewords.astype(np.float64)
    expected = trainer._assign(vectors, codewords)
    residual_rows, search = [], quantizer._search

    def counting(block, stages, beam):
        residual_rows.append((len(block) * beam if len(stages) > 1 else len(block), beam))
        return search(block, stages, beam)

    monkeypatch.setattr(quantizer, "_BLOCK_SCORES", 64 * block_rows)
    monkeypatch.setattr(quantizer, "_search", counting)
    for books in (r1000, _books(RateMode.R2000, (4, 6, 6), seed=11)):
        frames = _frames(books, 40, seed=12)
        for beam in (1, 8, 64):
            for count in (0, 1, 40):
                np.testing.assert_array_equal(_quantize(frames[:count], books, beam),
                                              reference_quantize(frames[:count], books, beam))
    assert all(rows <= max(1024, beam) for rows, beam in residual_rows)
    assert max(rows for rows, _ in residual_rows) == 1024  # beam 64 over 40 frames
    for got, want in zip(trainer._assign(vectors, codewords), expected):
        np.testing.assert_array_equal(got, want)


def _near_tie_stage(rng) -> np.ndarray:
    """Codewords 0 and 1 whose float32 half norms round to the same value
    (1/2 + 2^-25 is a tie that rounds to even, to 1/2), though the squared
    distance of codeword 0 from the origin is larger by 2^-24. Every other
    codeword is farther away."""
    codewords = rng.standard_normal((64, DIM)) + 4.0
    codewords[:2] = 0.0
    codewords[0, :2] = 1.0, 2.0 ** -12
    codewords[1, 0] = 1.0
    return codewords


def test_rerank_overrules_the_gemm_order_on_a_near_tie():
    rng = np.random.default_rng(3)
    near = _near_tie_stage(rng)
    half = ((near.astype(np.float64) ** 2).sum(axis=1) / 2).astype(np.float32)
    assert half[0] == half[1] and np.argmin(half) == 0  # the GEMM order at x = 0
    energy = VectorCodebook(np.array([[0.0], [1.0]]), 1)

    r1000 = CodebookSet(RateMode.R1000, (energy, VectorCodebook(near, 6)), content_hash=0)
    frames = np.zeros((3, 1 + DIM))
    assert (reference_quantize(frames, r1000)[:, 1] == 1).all()
    np.testing.assert_array_equal(_quantize(frames, r1000), reference_quantize(frames, r1000))

    # The same tie in the last stage: the residual of head codeword 9 is 0.
    head = rng.standard_normal((64, DIM)) * 3
    r2000 = CodebookSet(RateMode.R2000,
                        (energy, VectorCodebook(head, 6), VectorCodebook(near, 6)),
                        content_hash=0)
    frames[:, 1:] = head[9]
    assert (reference_quantize(frames, r2000)[:, 1:] == [9, 1]).all()
    for beam in (1, 8):
        np.testing.assert_array_equal(_quantize(frames, r2000, beam),
                                      reference_quantize(frames, r2000, beam))


def test_non_finite_frames_rejected():
    books = _books(RateMode.R1000, (3, 6), seed=1)
    frames = np.zeros((2, 1 + DIM))
    frames[1, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _quantize(frames, books)


_CHILD = """
import hashlib
import numpy as np
from melvq import CodebookSet, RateMode, VectorCodebook, encode_audio
from melvq.quantizer import codebook_payload
from melvq.signals import speech_like
from melvq.trainer import TrainingCorpus, train_codebook_set
rng = np.random.default_rng(8)
levels = VectorCodebook(np.linspace(-40.0, 10.0, 64)[:, None], 6)
stages = [VectorCodebook(rng.standard_normal((8192, 79)) * s, 13) for s in (4.0, 1.0)]
books = CodebookSet(RateMode.R2000, (levels, *stages), content_hash=0)
stream = encode_audio(speech_like(2.0, seed=4), books)
print(hashlib.sha256(stream.to_bytes()).hexdigest())
features = np.random.default_rng(9).standard_normal((2000, 80)) * np.geomspace(8.0, 0.2, 80)
trained, _ = train_codebook_set(TrainingCorpus(features), RateMode.R2000,
                                sq_bits=4, stage_bits=(7, 7))
print(hashlib.sha256(codebook_payload(trained)).hexdigest())
"""


def test_stream_bytes_do_not_depend_on_blas_threads():
    """Encoding, and training from fixed features (a .mvqb is its payload
    plus the payload's digest), give the same bytes at 1 and 2 threads."""
    children = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        children.append(subprocess.Popen([sys.executable, "-c", _CHILD], env=env,
                                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                         text=True))
    digests = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        digests.append(out.split())
    assert digests[0] == digests[1]
    assert [len(d) for d in digests[0]] == [len(hashlib.sha256().hexdigest())] * 2
