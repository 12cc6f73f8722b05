"""The stage-list quantizer (energy, VQ and N-stage M-best search)
against brute-force oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from melvq.errors import FormatError
from melvq.quantizer import (
    CodebookSet,
    FrameCode,
    RateMode,
    VectorCodebook,
    dequantize,
    fnv1a64,
    quantize_frame,
)
from melvq.quantizer import _FNV_BLOCK, _FNV_CHUNK, _search

# ---------------------------------------------------------------- oracles


def naive_sq(value: float, levels: np.ndarray) -> int:
    best, best_d = 0, float("inf")
    for i, level in enumerate(levels.astype(np.float64)):
        d = (value - level) ** 2
        if d < best_d:
            best, best_d = i, d
    return best


def naive_vq(vec: np.ndarray, codewords: np.ndarray) -> int:
    best, best_d = 0, float("inf")
    for i, cw in enumerate(codewords.astype(np.float64)):
        d = float(np.sum((vec - cw) ** 2))
        if d < best_d:
            best, best_d = i, d
    return best


def _residual(vec, stages, path):
    for stage, i in zip(stages, path):
        vec = vec - stage[i].astype(np.float64)
    return vec


def naive_msvq_exhaustive(vec, *stages):
    """The jointly nearest path of any number of stages, ties toward the
    lexicographically smaller path."""
    best, best_d = None, float("inf")
    for path in itertools.product(*(range(len(stage)) for stage in stages)):
        d = float(np.sum(_residual(vec, stages, path) ** 2))
        if d < best_d:
            best, best_d = path, d
    return best


def naive_msvq_greedy(vec, *stages):
    path = ()
    for stage in stages:
        path += (naive_vq(_residual(vec, stages, path), stage),)
    return path


def naive_msvq_mbest(vec, stages, beam):
    """M-best: every kept path is extended by every codeword of the next
    stage, and the beam best by residual distance are kept, ties toward the
    smaller path; after the last stage the best one wins."""
    def rank(path):
        return float(np.sum(_residual(vec, stages, path) ** 2)), path

    paths = [()]
    for depth, stage in enumerate(stages):
        extended = [path + (i,) for path in paths for i in range(len(stage))]
        paths = sorted(extended, key=rank)[:beam if depth < len(stages) - 1 else 1]
    return paths[0]


# ------------------------------------------------------------- helpers


def _stage(table) -> VectorCodebook:
    table = np.asarray(table, dtype=np.float32)
    return VectorCodebook(table, len(table).bit_length() - 1)


def _set(levels, *vq_tables) -> CodebookSet:
    """A codebook set from an energy level list and one or two VQ tables;
    the number of VQ stages picks the mode."""
    mode = (RateMode.R1000, RateMode.R2000)[len(vq_tables) - 1]
    energy = _stage(np.asarray(levels)[:, None])
    return CodebookSet(mode, (energy, *map(_stage, vq_tables)))


def _vq_code(vec, books: CodebookSet, beam_width: int = 8) -> tuple[int, ...]:
    """VQ stage indices of one vector, searched through quantize_frame."""
    return quantize_frame(np.concatenate([[0.0], vec]), books, beam_width).vq_indices


def _vq_decode(code, books: CodebookSet) -> np.ndarray:
    return dequantize(np.array([[0, *code]]), books)[0, 1:]


# ------------------------------------------------------------ type checks


def test_rate_mode_wire_fields():
    assert RateMode.R1000.field_bits == (4, 12)
    assert RateMode.R1000.bits_per_frame == 16
    assert RateMode.R2000.field_bits == (6, 13, 13)
    assert RateMode.R2000.bits_per_frame == 32


def test_scalar_codebook_must_be_sorted():
    vq = np.zeros((2, 3))
    with pytest.raises(ValueError):
        _set([0.5, 0.1], vq)
    with pytest.raises(ValueError):
        _set([0.1, 0.2, 0.3], vq)


def test_vector_codebook_size_checked():
    with pytest.raises(ValueError):
        VectorCodebook(np.zeros((3, 4), dtype=np.float32), 2)


def test_msvq_requires_two_equal_dim_stages():
    energy = _stage([[0.0], [1.0]])
    a = VectorCodebook(np.zeros((2, 4), dtype=np.float32), 1)
    b = VectorCodebook(np.zeros((2, 5), dtype=np.float32), 1)
    with pytest.raises(ValueError):
        CodebookSet(RateMode.R2000, (energy, a))
    with pytest.raises(ValueError):
        CodebookSet(RateMode.R2000, (energy, a, b))


# --------------------------------------------------------------- scalar


def _sq_code(value: float, books: CodebookSet) -> int:
    z = np.zeros(1 + books.vector_dim)
    z[0] = value
    return quantize_frame(z, books).sq_index


def test_sq_matches_oracle_and_saturates():
    levels = np.array([-1.0, 0.0, 0.5, 2.0], dtype=np.float32)
    books = _set(levels, np.zeros((2, 3)))
    rng = np.random.default_rng(0)
    for v in rng.uniform(-5, 5, size=300):
        assert _sq_code(float(v), books) == naive_sq(float(v), levels)
    assert _sq_code(-100.0, books) == 0
    assert _sq_code(100.0, books) == 3
    assert dequantize(np.array([[2, 0]]), books)[0, 0] == pytest.approx(0.5)
    with pytest.raises(FormatError):
        dequantize(np.array([[4, 0]]), books)


def test_sq_roundtrip_error_bounded():
    books = _set([0.0, 1.0, 3.0, 7.0], np.zeros((2, 3)))
    max_gap = 4.0
    rng = np.random.default_rng(1)
    for v in rng.uniform(0.0, 7.0, size=200):
        code = _sq_code(float(v), books)
        err = abs(dequantize(np.array([[code, 0]]), books)[0, 0] - v)
        assert err <= max_gap / 2 + 1e-12


# --------------------------------------------------------------- vector


def test_vq_matches_oracle_many_codebooks():
    mismatches = 0
    for trial in range(20):
        rng = np.random.default_rng(trial)
        codewords = rng.standard_normal((4, 3)).astype(np.float32)
        books = _set([0.0, 1.0], codewords)
        for vec in rng.standard_normal((1000, 3)):
            if _vq_code(vec, books) != (naive_vq(vec, codewords),):
                mismatches += 1
    assert mismatches == 0


def test_vq_decode_range_checked():
    books = _set([0.0, 1.0], np.zeros((2, 3)))
    with pytest.raises(FormatError):
        _vq_decode((2,), books)
    with pytest.raises(FormatError):
        _vq_decode((-1,), books)


def test_vq_tie_breaks_to_lowest_index():
    cw = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                  dtype=np.float32)
    books = _set([0.0, 1.0], cw)
    assert _vq_code(np.array([1.0, 0.0]), books) == (0,)
    assert _vq_code(np.array([0.0, 0.0]), books) == (2,)


# ------------------------------------------------------------- multistage


def _toy_msvq(seed: int, spread: float = 0.3) -> CodebookSet:
    rng = np.random.default_rng(seed)
    s1 = rng.standard_normal((4, 2)).astype(np.float32)
    s2 = (spread * rng.standard_normal((4, 2))).astype(np.float32)
    return _set([0.0, 1.0], s1, s2)


def test_msvq_full_beam_equals_exhaustive():
    mismatches = 0
    for seed in range(10):
        books = _toy_msvq(seed)
        s1 = books.stages[1].codewords
        s2 = books.stages[2].codewords
        rng = np.random.default_rng(100 + seed)
        for vec in rng.standard_normal((200, 2)):
            got = _vq_code(vec, books, beam_width=4)
            want = naive_msvq_exhaustive(vec, s1, s2)
            d_got = float(np.sum((vec - _vq_decode(got, books)) ** 2))
            d_want = float(np.sum((vec
                                   - s1[want[0]].astype(np.float64)
                                   - s2[want[1]].astype(np.float64)) ** 2))
            # equal distortion is required; index ties may resolve either way
            if abs(d_got - d_want) > 1e-12:
                mismatches += 1
    assert mismatches == 0


def test_msvq_beam_one_is_greedy():
    for seed in range(10):
        books = _toy_msvq(seed)
        s1 = books.stages[1].codewords
        s2 = books.stages[2].codewords
        rng = np.random.default_rng(200 + seed)
        for vec in rng.standard_normal((100, 2)):
            assert _vq_code(vec, books, beam_width=1) == \
                naive_msvq_greedy(vec, s1, s2)


def test_msvq_wider_beam_never_worse():
    for seed in range(6):
        books = _toy_msvq(seed, spread=0.8)
        rng = np.random.default_rng(300 + seed)
        for vec in rng.standard_normal((100, 2)):
            dists = []
            for beam in (1, 2, 4):
                code = _vq_code(vec, books, beam_width=beam)
                dists.append(float(np.sum((vec - _vq_decode(code, books)) ** 2)))
            assert dists[1] <= dists[0] + 1e-12
            assert dists[2] <= dists[1] + 1e-12


def _three_stages(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [(scale * rng.standard_normal((4, 3))).astype(np.float32)
            for scale in (1.0, 0.5, 0.25)]


@pytest.mark.parametrize("seed", range(30))
def test_three_stage_search_matches_the_oracles(seed):
    """Three stages prune paths after the middle one, which two never do:
    beam 1 is the greedy search, a beam of k1 * k2 or more the exhaustive
    joint search, and every beam the brute-force M-best search."""
    stages = _three_stages(seed)
    vectors = np.random.default_rng(400 + seed).standard_normal((20, 3))
    greedy = [naive_msvq_greedy(vec, *stages) for vec in vectors]
    np.testing.assert_array_equal(_search(vectors, stages, 1), greedy)
    exhaustive = [naive_msvq_exhaustive(vec, *stages) for vec in vectors]
    for beam in (16, 64):
        np.testing.assert_array_equal(_search(vectors, stages, beam), exhaustive)
    for beam in (2, 3, 5):
        mbest = [naive_msvq_mbest(vec, stages, beam) for vec in vectors]
        np.testing.assert_array_equal(_search(vectors, stages, beam), mbest)


def test_search_breaks_exact_ties_toward_the_smaller_path():
    """Paths whose codewords sum to the row tie at distance 0. The beam keeps
    and returns the lexicographically smallest of them, not the one with
    the smaller last index."""
    unit = np.eye(3)[0]
    stage = np.stack([0 * unit, unit, 5 * unit, -5 * unit]).astype(np.float32)
    vectors = unit[None, :]
    assert _search(vectors, [stage] * 2, 2).tolist() == [[0, 1]]
    assert _search(vectors, [stage] * 3, 16).tolist() == [[0, 0, 1]]
    for count in (2, 3):
        for beam in (1, 2, 3, 16):
            want = naive_msvq_mbest(unit, [stage] * count, beam)
            assert _search(vectors, [stage] * count, beam).tolist() == [list(want)]


def test_msvq_beam_width_validated():
    # the shared search rejects a zero beam at both rates
    for books in (_toy_msvq(0), _set([0.0, 1.0], np.zeros((2, 2)))):
        with pytest.raises(ValueError):
            _vq_code(np.zeros(2), books, beam_width=0)


# ------------------------------------------------------------- frame level


def _desk_set(mode: RateMode, seed: int = 0) -> CodebookSet:
    rng = np.random.default_rng(seed)
    dim = 79
    levels = np.sort(rng.standard_normal(8))
    if mode is RateMode.R1000:
        return _set(levels, rng.standard_normal((16, dim)))
    return _set(levels, rng.standard_normal((16, dim)),
                0.3 * rng.standard_normal((16, dim)))


def _rows(*codes: FrameCode) -> np.ndarray:
    return np.array([(code.sq_index, *code.vq_indices) for code in codes])


@pytest.mark.parametrize("mode", [RateMode.R1000, RateMode.R2000])
def test_quantize_dequantize_frame_shapes(mode):
    books = _desk_set(mode)
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(80)
    code = quantize_frame(vec, books)
    assert isinstance(code, FrameCode)
    assert len(code.vq_indices) == len(mode.field_bits) - 1
    back = dequantize(_rows(code), books)[0]
    assert back.shape == (80,)
    assert np.all(np.isfinite(back))


@pytest.mark.parametrize("mode", [RateMode.R1000, RateMode.R2000])
def test_quantize_is_idempotent_at_full_beam(mode):
    """Re-quantizing a reconstruction returns the same code (nearest-neighbor
    fixed point). MSVQ needs the full beam: small beams may not find the
    joint-nearest pair for the reconstructed point."""
    books = _desk_set(mode, seed=1)
    rng = np.random.default_rng(6)
    full_beam = 16
    for vec in rng.standard_normal((50, 80)):
        code = quantize_frame(vec, books, beam_width=full_beam)
        back = dequantize(_rows(code), books)[0]
        again = quantize_frame(back, books, beam_width=full_beam)
        d_code = float(np.sum((back - dequantize(_rows(code), books)[0]) ** 2))
        d_again = float(np.sum((back - dequantize(_rows(again), books)[0]) ** 2))
        # the original code reconstructs `back` exactly, so any other answer
        # must tie at zero distortion
        assert d_code == 0.0
        assert d_again == pytest.approx(0.0, abs=1e-12)


def test_quantize_frame_validates_length():
    books = _desk_set(RateMode.R1000)
    with pytest.raises(ValueError):
        quantize_frame(np.zeros(79), books)


def test_codebook_set_validates_mode_pairing():
    rng = np.random.default_rng(2)
    scalar = _stage(np.sort(rng.standard_normal(8))[:, None])
    vector = _stage(rng.standard_normal((16, 79)))
    with pytest.raises(ValueError):
        CodebookSet(RateMode.R1000, (scalar, vector, vector))
    with pytest.raises(ValueError):
        CodebookSet(RateMode.R2000, (scalar, vector))
    with pytest.raises(ValueError):
        CodebookSet(RateMode.R1000, (vector, vector))


def test_codebook_set_rejects_oversized_books():
    rng = np.random.default_rng(3)
    # R1000 carries only 4 scalar bits on the wire; a 5-bit book cannot ship
    with pytest.raises(ValueError):
        _set(np.sort(rng.standard_normal(32)), rng.standard_normal((16, 79)))


def test_content_hash_is_fnv1a_of_payload():
    from melvq.quantizer import codebook_payload

    books = _desk_set(RateMode.R2000, seed=9)
    assert books.content_hash == fnv1a64(codebook_payload(books))
    # any codeword change moves the hash
    other = _desk_set(RateMode.R2000, seed=10)
    assert books.content_hash != other.content_hash


def test_fnv1a64_known_vectors():
    # reference values for the 64-bit FNV-1a parameters
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2000))
def test_fnv1a64_matches_the_byte_loop(data):
    assert fnv1a64(data) == reference.fnv1a64(data)


# the boundaries of 64-byte words of packed bits, of _FNV_BLOCK-byte blocks
# and of _FNV_CHUNK-byte chunks, each +-1, and lengths past two chunks
_FNV_LENGTHS = [0, 1, 2, 63, 64, 65, 127, 128, 129, _FNV_BLOCK - 1, _FNV_BLOCK,
                _FNV_BLOCK + 1, 2 * _FNV_BLOCK + 1, _FNV_CHUNK - 1, _FNV_CHUNK,
                _FNV_CHUNK + 1, 2 * _FNV_CHUNK - 1, 2 * _FNV_CHUNK,
                2 * _FNV_CHUNK + 1, 2 * _FNV_CHUNK + _FNV_BLOCK + 65]


@pytest.mark.parametrize("length", _FNV_LENGTHS)
def test_fnv1a64_matches_the_byte_loop_at_boundaries(length):
    data = np.random.default_rng(length).integers(0, 256, length, dtype=np.uint8).tobytes()
    assert fnv1a64(data) == reference.fnv1a64(data)


@pytest.mark.parametrize("fill", [0x00, 0xFF, 0xB3])
def test_fnv1a64_matches_the_byte_loop_on_constant_fills(fill):
    data = bytes([fill]) * (_FNV_CHUNK + 77)
    assert fnv1a64(data) == reference.fnv1a64(data)


def test_fnv1a64_takes_any_bytes_like_object():
    data = np.random.default_rng(5).integers(0, 256, 1000, dtype=np.uint8).tobytes()
    expected = reference.fnv1a64(data)
    framed = b"xx" + data + b"yy"
    assert fnv1a64(bytearray(data)) == expected
    assert fnv1a64(memoryview(data)) == expected
    assert fnv1a64(memoryview(framed)[2:-2]) == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=2, max_value=6))
def test_vq_oracle_property(seed, dim):
    rng = np.random.default_rng(seed)
    codewords = rng.standard_normal((8, dim)).astype(np.float32)
    books = _set([0.0, 1.0], codewords)
    vec = rng.standard_normal(dim)
    assert _vq_code(vec, books) == (naive_vq(vec, codewords),)
