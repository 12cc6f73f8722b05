"""Self-tests of the benchmark's own pieces.

Run from the repository root: python3 -m pytest bench/test_bench.py -q
"""

import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import check  # noqa: E402
from check import Checker  # noqa: E402
from inputs import Book, book_bytes, read_book, read_wav, write_wav  # noqa: E402
from layers import parse_importtime  # noqa: E402
from spans import MIN_BEYOND, TAIL_PERCENTILES, Tracer, self_times, tail_percentile  # noqa: E402


def span(span_id, parent, start, end, name="f"):
    return [span_id, parent, name, start, end, None, {}]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, None, 0, 100),
        span(2, 1, 10, 40),     # overlaps its sibling, as on two threads
        span(3, 1, 30, 60),
        span(4, 2, 15, 20),     # grandchild: counts against 2, not 1
        span(5, 1, 90, 130),    # runs past its parent: clipped at 100
    ]
    assert self_times(spans) == {1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 40}


def test_spans_on_worker_threads_nest_under_their_parent():
    tracer = Tracer()

    def work():
        with tracer.span("inner"):
            pass

    with tracer.span("outer") as outer:
        worker = threading.Thread(target=tracer.in_parent(outer[0], work))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    inner = next(s for s in tracer.spans if s[2] == "inner")
    assert inner[1] == outer[0]


def test_patching_wraps_every_alias_once_and_unpatch_restores(monkeypatch):
    package, defining, importing = (types.ModuleType(n) for n in ("fake", "fake.a", "fake.b"))

    def digest(data):
        return len(data)

    def load(data):
        return importing.digest(data) + importing.digest(data)

    for module in (package, defining, importing):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    digest.__module__ = load.__module__ = "fake.a"
    defining.digest, importing.digest, importing.load = digest, digest, load

    tracer = Tracer()
    tracer.patch_package("fake")
    assert defining.digest is importing.digest is not digest
    assert importing.load(b"abc") == 6
    tracer.unpatch()
    assert defining.digest is importing.digest is digest

    names = {s[0]: s[2] for s in tracer.spans}
    assert sorted(names.values()) == ["digest", "digest", "load"]
    assert all(names.get(s[1]) == "load" for s in tracer.spans if s[2] == "digest")


@pytest.mark.parametrize("n, expected", [(1, None), (10, None), (19, None), (20, 50.0),
                                         (39, 50.0), (40, 75.0), (100, 90.0),
                                         (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_no_percentile_without_ten_samples_beyond_it(n, expected):
    values = list(range(n, 0, -1))
    found = tail_percentile(values)
    assert (found[0] if found else None) == expected
    if found:
        assert sum(v > found[1] for v in values) >= MIN_BEYOND
        higher = [p for p in TAIL_PERCENTILES if p > found[0]]
        for p in higher:  # every higher percentile has fewer than ten beyond it
            assert sum(v > sorted(values)[int(np.ceil(p * n / 100 - 1e-9)) - 1]
                       for v in values) < MIN_BEYOND


def small_book(rng, rate, tmp_path):
    levels = np.sort(rng.normal(size=16)).astype(np.float32)
    stages = [rng.normal(size=(64, 79)).astype(np.float32)]
    if rate == 2000:
        stages.append((0.3 * rng.normal(size=(64, 79))).astype(np.float32))
    stages[0][5] = stages[0][9]  # duplicate codewords: ties go to the lower index
    path = tmp_path / f"r{rate}.mvqb"
    path.write_bytes(book_bytes(rate, levels, stages))
    return path, read_book(path)


def stream_bytes(codes, book: Book, frames=None):
    header = (b"MVQC" + bytes([1, 0 if book.rate == 1000 else 1])
              + (len(codes) if frames is None else frames).to_bytes(4, "little")
              + book.digest.to_bytes(8, "little"))
    return header + check.pack_codes(codes, book.rate)


@pytest.mark.parametrize("rate", [1000, 2000])
def test_oracle_matches_the_program_search(rate, tmp_path):
    import melvq

    rng = np.random.default_rng(rate)
    path, book = small_book(rng, rate, tmp_path)
    program = melvq.load_codebooks(path)
    frames = rng.normal(size=(12, 80))
    frames[3, 1:] = book.stages[0][9]  # exact tie between codewords 5 and 9
    for z in frames:
        code = melvq.quantize_frame(z, program)
        assert check.expected_code(z, book) == (code.sq_index, *code.vq_indices)


def checked(data, book, z):
    """One encode operation checked the way a run checks it."""
    checker = Checker()
    codes = checker.attempt("encode", check.parse_stream, data, book, len(z))
    if codes is not None:
        checker.verify("encode", check.check_codes, z, codes, book, list(range(len(z))))
    return checker


@pytest.mark.parametrize("rate", [1000, 2000])
def test_checker_counts_corrupted_streams_as_failures(rate, tmp_path):
    rng = np.random.default_rng(7)
    _, book = small_book(rng, rate, tmp_path)
    z = rng.normal(size=(6, 80))
    codes = np.array([check.expected_code(row, book) for row in z])
    good = stream_bytes(codes, book)
    assert checked(good, book, z).failed == 0

    flipped = bytearray(good)
    flipped[18 + 1] ^= 0x01  # lowest bit of frame 0's first VQ index
    result = checked(bytes(flipped), book, z)
    assert (result.attempted, result.failed) == (1, 1)

    wrong = codes.copy()
    wrong[4, 1] = (wrong[4, 1] + 1) % 64
    result = checked(stream_bytes(wrong, book), book, z)
    assert (result.attempted, result.failed) == (1, 1)
    assert "frame 4" in result.report()[0]

    result = checked(good[:-1], book, z)
    assert (result.attempted, result.failed) == (1, 1)


def test_checker_counts_a_truncated_wav_as_a_failure(tmp_path):
    path = tmp_path / "decoded.wav"
    write_wav(path, np.zeros((3 - 1) * 256 + 1024))
    checker = Checker()
    samples = checker.attempt("decode", read_wav, path)
    checker.verify("decode", check.check_decoded, samples, 3)
    assert checker.failed == 0

    path.write_bytes(path.read_bytes()[:-100])
    checker = Checker()
    samples = checker.attempt("decode", read_wav, path)
    assert samples is None and (checker.attempted, checker.failed) == (1, 1)
    checker.attempt("decode short", check.check_decoded, np.zeros(1000), 3)
    assert (checker.attempted, checker.failed) == (2, 2)


def test_importtime_parsing():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       500 |       2000 |   scipy\n"
              "import time:       250 |        250 |     scipy.fft\n"
              "import time:      1000 |     400000 | melvq\n")
    assert parse_importtime(stderr) == {"melvq": 0.4, "scipy": 0.00075}
