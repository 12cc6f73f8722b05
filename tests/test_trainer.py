"""Codebook training: Lloyd iterations, binary splitting, and file I/O."""

from __future__ import annotations

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from melvq import load_codebooks, save_codebooks
from melvq.errors import FormatError, HashMismatchError, InsufficientDataError
from melvq.quantizer import RateMode, fnv1a64
from melvq.trainer import (
    LLOYD_REL_TOL,
    SPLIT_EPSILON,
    TrainingCorpus,
    _assign,
    _lloyd,
    train_codebook_set,
    train_lbg,
    train_msvq,
    train_scalar,
)

# ------------------------------------------------------------ Lloyd oracle


def oracle_lloyd(vectors: np.ndarray, codewords: np.ndarray,
                 rel_tol: float = LLOYD_REL_TOL, max_iters: int = 50):
    """Straight-line re-implementation of the Lloyd loop with the same
    initialization, stop rule, and tie handling (lowest index wins)."""
    codewords = codewords.astype(np.float64).copy()
    distortions = []
    prev = None
    for _ in range(max_iters):
        d = ((vectors[:, None, :] - codewords[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d, axis=1)
        dist = float(d[np.arange(len(vectors)), assign].mean())
        distortions.append(dist)
        if prev is not None and prev - dist <= rel_tol * prev:
            break
        prev = dist
        for k in range(len(codewords)):
            members = vectors[assign == k]
            if len(members):
                codewords[k] = members.mean(axis=0)
        # empty-cell reseed: farthest member of the most populous cell
        counts = np.bincount(assign, minlength=len(codewords))
        for k in np.flatnonzero(counts == 0):
            donor = int(np.argmax(counts))
            members = np.flatnonzero(assign == donor)
            far = members[np.argmax(d[members, donor])]
            codewords[k] = vectors[far]
            counts[donor] -= 1
            counts[k] += 1
            assign[far] = k
    return codewords, distortions


# ---------------------------------------------------------------- scalar


def test_scalar_uniform_reaches_lloyd_max_levels():
    rng = np.random.default_rng(0)
    samples = rng.random(100_000)
    book, report = train_scalar(samples, 2)
    assert book.codewords[:, 0].astype(float) == pytest.approx(
        [0.125, 0.375, 0.625, 0.875], abs=0.02
    )
    assert report.iterations == len(report.distortions)
    assert all(b <= a for a, b in zip(report.distortions, report.distortions[1:]))


def test_scalar_needs_enough_distinct_values():
    with pytest.raises(InsufficientDataError):
        train_scalar(np.array([1.0, 1.0, 1.0, 2.0]), 2)


def test_scalar_levels_sorted():
    rng = np.random.default_rng(1)
    book, _ = train_scalar(rng.standard_normal(5000), 3)
    assert book.codewords.shape == (2 ** book.bits, 1)
    assert np.all(np.diff(book.codewords[:, 0]) > 0)


# ------------------------------------------------------------------- LBG


def test_lbg_four_corner_toy_exact():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    book, report = train_lbg(pts, 2)
    assert report.final_distortion == 0.0
    assert sorted(map(tuple, book.codewords.astype(float).tolist())) == [
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)
    ]
    assert all(b <= a for a, b in zip(report.distortions, report.distortions[1:]))


@pytest.mark.parametrize("shape", [(64, 2), (300, 5), (200, 79)], ids=["64x2", "300x5", "200x79"])
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_lbg_matches_oracle_lloyd_at_fixed_size(shape, seed):
    """With the split bypassed (start from the 1-codeword stage and follow
    the same split rule by hand), the trainer's trace equals the oracle's
    bit for bit: both assign by the exact distance and average in input
    order."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal(shape)
    book, report = train_lbg(vectors, 1)
    # replicate: global centroid, keep-parent split, Lloyd to convergence
    c0 = vectors.mean(axis=0, keepdims=True)
    seeds = np.vstack([c0, c0 * (1.0 + SPLIT_EPSILON)])
    _, oracle_trace = oracle_lloyd(vectors, seeds)
    assert report.distortions == tuple(oracle_trace)


def test_lbg_beats_or_ties_oracle_restart():
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((16, 2))
    book, report = train_lbg(vectors, 2)
    # oracle: run plain Lloyd from the trainer's own split seeding; the
    # trainer's final distortion must not be worse
    seeds = book.codewords.astype(np.float64)
    _, oracle_trace = oracle_lloyd(vectors, seeds)
    assert report.final_distortion <= oracle_trace[0] + 1e-12


def test_lbg_monotone_on_random_data():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((200, 4))
        _, report = train_lbg(vectors, 3)
        trace = report.distortions
        assert all(b <= a for a, b in zip(trace, trace[1:])), trace


def test_lbg_insufficient_data_names_minimum():
    with pytest.raises(InsufficientDataError, match="at least 8"):
        train_lbg(np.zeros((5, 2)), 3)


# ------------------------------------------------- assignment and sums


def _tied_data(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Codewords with exact duplicates and copies moved by one ulp in some
    coefficients, and vectors on, near and halfway between them."""
    rng = np.random.default_rng(seed)
    codewords = rng.standard_normal((64, dim)) * 2.0
    codewords[40:44] = codewords[3]
    near = np.repeat(codewords[5:6], 6, axis=0)
    moved = rng.random(near.shape) < 0.3
    near[moved] = np.nextafter(near[moved], np.inf)
    codewords[50:56] = near
    pick = rng.integers(64, size=(3, 300))
    noise = rng.standard_normal((300, dim)) * rng.choice([0.0, 1e-9, 0.3], (300, 1))
    vectors = np.concatenate([
        codewords[pick[0]] + noise,
        (codewords[pick[1]] + codewords[pick[2]]) / 2,
        codewords[[3, 5, 40, 50, 53]],
        rng.standard_normal((100, dim)) * 3.0,
    ])
    return vectors, codewords


@pytest.mark.parametrize("dim, seed", [(1, 0), (2, 1), (5, 2), (79, 3)])
def test_assign_is_the_exact_nearest_codeword(dim, seed):
    vectors, codewords = _tied_data(dim, seed)
    d = ((codewords[None, :, :] - vectors[:, None, :]) ** 2).sum(axis=-1)
    nearest = np.argmin(d, axis=1)  # the first of equal minima
    assign, dists = _assign(vectors, codewords)
    np.testing.assert_array_equal(assign, nearest)
    np.testing.assert_array_equal(dists, d[np.arange(len(d)), nearest])


def test_assign_overrules_the_expanded_formula_on_a_near_tie():
    """x = 2^30 lies 2 from codeword 0 and 1 from codeword 1. Every product
    is exact, but ||c||^2 rounds to 2^60 + 2^32 and 2^60 - 2^31, so the
    expanded formula gives 0 for both, and its argmin takes codeword 0 on
    any BLAS."""
    vectors = np.array([[2.0 ** 30]])
    codewords = np.array([[2.0 ** 30 + 2], [2.0 ** 30 - 1]])
    assert reference._assign(vectors, codewords)[0].tolist() == [0]
    assign, dists = _assign(vectors, codewords)
    assert assign.tolist() == [1] and dists.tolist() == [1.0]


@pytest.mark.parametrize("dim, seed", [(1, 4), (5, 5), (79, 6)])
def test_lloyd_centroid_sums_equal_add_at(dim, seed, monkeypatch):
    """One bincount per column adds each cell's members in input order, as
    np.add.at did: on the same assignments the Lloyd loop returns the same
    codewords and trace bit for bit. A far codeword empties its cell, so
    the reseed runs too."""
    vectors, codewords = _tied_data(dim, seed)
    codewords[60] = 1e3
    monkeypatch.setattr(reference, "_assign", _assign)
    mine, trace = _lloyd(vectors, codewords)
    theirs, oracle_trace = reference._lloyd(vectors, codewords)
    assert len(trace) > 2 and trace == oracle_trace
    assert mine.tobytes() == theirs.tobytes()


# ------------------------------------------------------------------ MSVQ


def test_msvq_trace_monotone_across_stage_boundary():
    rng = np.random.default_rng(11)
    centers = rng.standard_normal((8, 3)) * 3.0
    vectors = np.concatenate(
        [c + 0.2 * rng.standard_normal((40, 3)) for c in centers]
    )
    book, report = train_msvq(vectors, (2, 2))
    trace = report.distortions
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:])), trace
    assert len(report.stage_reports) == 2


def test_msvq_two_stages_beat_single_stage_same_bits():
    rng = np.random.default_rng(13)
    centers = rng.standard_normal((6, 4)) * 2.0
    vectors = np.concatenate(
        [c + 0.3 * rng.standard_normal((50, 4)) for c in centers]
    )
    ms_book, ms_report = train_msvq(vectors, (2, 2))
    vq_book, vq_report = train_lbg(vectors, 2)
    assert ms_report.final_distortion <= vq_report.final_distortion + 1e-12


# ------------------------------------------------------------- full sets


def test_train_codebook_set_both_modes(train_corpus):
    books1, reports1 = train_codebook_set(train_corpus, RateMode.R1000,
                                          sq_bits=3, stage_bits=(5,))
    assert set(reports1) == {"scalar", "vector"}
    assert books1.rate_mode is RateMode.R1000
    assert books1.vector_dim == 79

    books2, reports2 = train_codebook_set(train_corpus, RateMode.R2000,
                                          sq_bits=4, stage_bits=(5, 5))
    assert set(reports2) == {"scalar", "msvq"}
    assert books2.stage_bits == (5, 5)
    assert len(books2.stages) == 3


@pytest.mark.parametrize("mode, sq_bits, stage_bits", [
    (RateMode.R1000, 5, (8,)), (RateMode.R1000, 4, (13,)), (RateMode.R2000, 6, (13, 14))])
def test_over_wide_widths_fail_before_training(monkeypatch, mode, sq_bits, stage_bits):
    def untrained(*args):
        raise AssertionError("training ran")

    monkeypatch.setattr("melvq.trainer.train_scalar", untrained)
    monkeypatch.setattr("melvq.trainer.train_lbg", untrained)
    with pytest.raises(ValueError, match="wider than its"):
        train_codebook_set(TrainingCorpus(np.zeros((4, 80))), mode, sq_bits, stage_bits)


def test_training_is_deterministic(train_corpus):
    a, _ = train_codebook_set(train_corpus, RateMode.R1000, sq_bits=3,
                              stage_bits=(4,))
    b, _ = train_codebook_set(train_corpus, RateMode.R1000, sq_bits=3,
                              stage_bits=(4,))
    assert a.content_hash == b.content_hash
    for mine, theirs in zip(a.stages, b.stages):
        assert np.array_equal(mine.codewords, theirs.codewords)


# ------------------------------------------------------------- file I/O


def test_save_load_roundtrip(tmp_path, cb2000):
    path = tmp_path / "books.mvqb"
    save_codebooks(cb2000, path)
    back = load_codebooks(path)
    assert back.content_hash == cb2000.content_hash
    assert back.rate_mode is cb2000.rate_mode
    assert len(back.stages) == len(cb2000.stages) == 3
    for mine, theirs in zip(cb2000.stages, back.stages):
        assert np.array_equal(mine.codewords, theirs.codewords)


def test_save_load_roundtrip_r1000(tmp_path, cb1000):
    path = tmp_path / "books.mvqb"
    save_codebooks(cb1000, path)
    back = load_codebooks(path, expected_mode=RateMode.R1000)
    assert np.array_equal(back.stages[1].codewords, cb1000.stages[1].codewords)


def test_load_rejects_wrong_mode(tmp_path, cb1000):
    path = tmp_path / "books.mvqb"
    save_codebooks(cb1000, path)
    with pytest.raises(FormatError, match="2000"):
        load_codebooks(path, expected_mode=RateMode.R2000)


def test_load_rejects_corrupt_payload(tmp_path, cb1000):
    path = tmp_path / "books.mvqb"
    save_codebooks(cb1000, path)
    raw = bytearray(path.read_bytes())
    raw[30] ^= 0xFF  # flip a payload byte, digest must catch it
    bad = tmp_path / "bad.mvqb"
    bad.write_bytes(bytes(raw))
    with pytest.raises(HashMismatchError):
        load_codebooks(bad)


def test_codebooks_hashed_once_per_load_and_not_on_save(tmp_path, cb2000, monkeypatch):
    import sys

    hashed = []

    def counting(data):
        hashed.append(len(data))
        return fnv1a64(data)

    # every module binding, as the benchmark's tracer patches them
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "melvq" and getattr(module, "fnv1a64", None) is fnv1a64:
            monkeypatch.setattr(module, "fnv1a64", counting)
    path = tmp_path / "books.mvqb"
    save_codebooks(cb2000, path)
    assert hashed == []
    assert load_codebooks(path).content_hash == cb2000.content_hash
    assert hashed == [path.stat().st_size - 8]


def test_load_rejects_bad_magic_version_truncation(tmp_path, cb1000):
    path = tmp_path / "books.mvqb"
    save_codebooks(cb1000, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "m.mvqb"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError, match="magic"):
        load_codebooks(bad_magic)

    bad_version = tmp_path / "v.mvqb"
    bad_version.write_bytes(raw[:4] + bytes([99]) + raw[5:])
    with pytest.raises(FormatError, match="version"):
        load_codebooks(bad_version)

    truncated = tmp_path / "t.mvqb"
    truncated.write_bytes(raw[:-5])
    with pytest.raises(FormatError):
        load_codebooks(truncated)

    trailing = tmp_path / "g.mvqb"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_codebooks(trailing)


def test_training_corpus_validation():
    with pytest.raises(ValueError):
        TrainingCorpus(np.zeros(5))
    with pytest.raises(ValueError):
        TrainingCorpus(np.array([[np.inf, 0.0]]))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_lbg_monotone_property(seed):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((60, 3)) * rng.uniform(0.1, 5.0)
    _, report = train_lbg(vectors, 2)
    trace = report.distortions
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert report.final_distortion == trace[-1]
