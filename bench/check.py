"""Output checks and quality measures, written against the documented formats.

Each program call the benchmark makes is one operation. A check that fails,
or a call that raises, marks its operation as failed; nothing here ends the
run. Streams, mel files and codebooks are parsed by this file's own readers,
and quantizer indices are compared with a brute-force float64 evaluation of
the documented search rule:

- scalar: nearest level
- 1000 bit/s: full search of the single stage
- 2000 bit/s: M-best with a beam of 8 stage-1 candidates, then a full
  stage-2 search per candidate, minimising total distortion

Every tie goes to the lowest index (for pairs, the lexicographically
smallest).
"""

from __future__ import annotations

import re

import numpy as np

from inputs import FRAME_LEN, FRAME_SHIFT, LAYOUTS, SAMPLE_RATE, Book

BEAM_WIDTH = 8
NUM_BANDS = 80
WIRE_FIELDS = {1000: (4, 12), 2000: (6, 13, 13)}  # fixed field widths per frame


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Checker:
    """Counts operations and the ones with at least one failure."""

    def __init__(self):
        self.failures: dict[str, list[str]] = {}

    def attempt(self, op: str, fn, *args, **kwargs):
        """Count op and run fn; a raised error fails op and returns None."""
        self.failures.setdefault(op, [])
        return self.verify(op, fn, *args, **kwargs)

    def verify(self, op: str, fn, *args, **kwargs):
        """Run a check on an operation already attempted."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, none ends the run
            self.failures.setdefault(op, []).append(f"{type(exc).__name__}: {exc}")
            return None

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(1 for messages in self.failures.values() if messages)

    def report(self) -> list[str]:
        return [f"{op}: {'; '.join(m)}" for op, m in self.failures.items() if m]


def frame_count(num_samples: int) -> int:
    return max(1, -(-num_samples // FRAME_SHIFT))


# --- streams -----------------------------------------------------------------

def parse_stream(data: bytes, book: Book, expected_frames: int) -> np.ndarray:
    """Check a .mvqc container and return its codes, one row per frame:
    scalar index then one index per VQ stage."""
    widths = WIRE_FIELDS[book.rate]
    bits = sum(widths)
    require(data[:4] == b"MVQC", "stream magic")
    require(data[4] == 1, "stream version")
    require(data[5] == LAYOUTS[book.rate][0], f"rate byte {data[5]} for {book.rate} bit/s")
    frames = int.from_bytes(data[6:10], "little")
    require(frames == expected_frames, f"{frames} frames, expected {expected_frames}")
    require(int.from_bytes(data[10:18], "little") == book.digest, "stream hash is not the book's")
    payload = data[18:]
    require(bits in (16, 32) and len(payload) * 8 == frames * bits,
            f"{len(payload)} payload bytes for {frames} frames of {bits} bits")
    words = np.frombuffer(payload, dtype=">u2" if bits == 16 else ">u4").astype(np.int64)
    codes = np.empty((frames, len(widths)), dtype=np.int64)
    shift = bits
    for k, width in enumerate(widths):
        shift -= width
        codes[:, k] = (words >> shift) & ((1 << width) - 1)
    require(pack_codes(codes, book.rate) == payload, "payload does not re-pack from its codes")
    require(codes[:, 0].max() < book.levels.size, "scalar index beyond the book")
    for k, stage in enumerate(book.stages):
        require(codes[:, k + 1].max() < stage.shape[0], f"stage {k + 1} index beyond the book")
    return codes


def pack_codes(codes: np.ndarray, rate: int) -> bytes:
    widths = WIRE_FIELDS[rate]
    words = np.zeros(len(codes), dtype=np.int64)
    for k, width in enumerate(widths):
        words = (words << width) | codes[:, k]
    return words.astype(">u2" if sum(widths) == 16 else ">u4").tobytes()


def check_program_view(stream, codes: np.ndarray, rate: int) -> None:
    """The program's own unpacking and rate accounting agree with the bytes."""
    from melvq import stream_bitrate, stream_codes

    unpacked = stream_codes(stream)
    require(len(unpacked) == len(codes), "stream_codes frame count")
    program = np.array([(c.sq_index, *c.vq_indices) for c in unpacked], dtype=np.int64)
    require(np.array_equal(program.reshape(codes.shape), codes),
            "stream_codes differs from the packed bytes")
    require(stream_bitrate(stream) == float(rate), f"stream_bitrate {stream_bitrate(stream)}")


# --- quantizer oracle ----------------------------------------------------------

def expected_code(z: np.ndarray, book: Book) -> tuple[int, ...]:
    """Indices the documented rule selects for one 80-dim frame."""
    sq = int(np.argmin((book.levels.astype(np.float64) - z[0]) ** 2))
    x = z[1:]
    stage1 = book.stages[0].astype(np.float64)
    d1 = ((stage1 - x) ** 2).sum(axis=1)
    if len(book.stages) == 1:
        return (sq, int(np.argmin(d1)))
    stage2 = book.stages[1].astype(np.float64)
    beam = np.sort(np.argsort(d1, kind="stable")[:BEAM_WIDTH])
    total = np.stack([((stage2 - (x - stage1[i1])) ** 2).sum(axis=1) for i1 in beam])
    rows, cols = np.nonzero(total == total.min())
    first = int(np.lexsort((cols, beam[rows]))[0])
    return (sq, int(beam[rows[first]]), int(cols[first]))


def sample_frames(rng: np.random.Generator, samples: np.ndarray, count: int) -> list[int]:
    """A seeded sample of frame numbers, plus one digitally silent frame when
    the input has one (its code is decided by ties)."""
    frames = frame_count(samples.size)
    chosen = set(rng.choice(frames, min(count, frames), replace=False).tolist())
    padded = np.zeros((frames - 1) * FRAME_SHIFT + FRAME_LEN)
    padded[:samples.size] = np.abs(samples)
    peaks = np.maximum.reduceat(padded, np.arange(0, padded.size, FRAME_SHIFT))
    windows = np.lib.stride_tricks.sliding_window_view(peaks, FRAME_LEN // FRAME_SHIFT)
    silent = np.flatnonzero(windows[:frames].max(axis=1) == 0.0)
    if silent.size:
        chosen.add(int(rng.choice(silent)))
    return sorted(chosen)


def check_codes(z: np.ndarray, codes: np.ndarray, book: Book, frames: list[int]) -> None:
    for m in frames:
        expected = expected_code(z[m], book)
        got = tuple(int(c) for c in codes[m])
        require(got == expected, f"frame {m}: indices {got}, rule gives {expected}")


def dequantize(codes: np.ndarray, book: Book) -> np.ndarray:
    out = np.empty((len(codes), 1 + book.stages[0].shape[1]))
    out[:, 0] = book.levels[codes[:, 0]]
    out[:, 1:] = sum(stage[codes[:, k + 1]].astype(np.float64)
                     for k, stage in enumerate(book.stages))
    return out


def vq_sq_error(z: np.ndarray, codes: np.ndarray, book: Book) -> tuple[float, int]:
    """Sum of squared coefficient errors and the number of coefficients."""
    diff = z - dequantize(codes, book)
    return float((diff ** 2).sum()), diff.size


# --- decoded audio and mel files -----------------------------------------------

def check_decoded(samples: np.ndarray, frames: int) -> None:
    expected = (frames - 1) * FRAME_SHIFT + FRAME_LEN
    require(samples.size == expected, f"{samples.size} decoded samples, expected {expected}")
    require(np.all(np.isfinite(samples)), "decoded audio is not finite")
    require(np.abs(samples).max() <= 1.0, "decoded audio outside [-1, 1]")


def dct_matrix(n: int = NUM_BANDS) -> np.ndarray:
    """Orthonormal DCT-II: coefficients = D @ log_mel, log_mel = D.T @ coefficients."""
    k = np.arange(n)[:, None]
    d = np.cos(np.pi * (2 * np.arange(n)[None, :] + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    d[0] /= np.sqrt(2.0)
    return d


def check_mels(data: bytes, codes: np.ndarray, book: Book) -> None:
    header = [int.from_bytes(data[5 + 4 * i:9 + 4 * i], "little") for i in range(5)]
    require(data[:5] == b"MELS\x01", "mel file magic/version")
    require(header == [len(codes), NUM_BANDS, SAMPLE_RATE, FRAME_LEN, FRAME_SHIFT],
            f"mel header {header}")
    require(len(data) == 25 + 4 * len(codes) * NUM_BANDS, "mel payload size")
    values = np.frombuffer(data, "<f4", offset=25).reshape(len(codes), NUM_BANDS)
    expected = dequantize(codes, book) @ dct_matrix()
    # One float32 ulp of each value; near zero, of 1e-3, so that the last
    # float64 digits of two inverse DCTs cannot fail the check.
    ulp = np.spacing(np.maximum(np.abs(expected), 1e-3).astype(np.float32)).astype(np.float64)
    err = np.abs(values.astype(np.float64) - expected)
    require(np.all(err <= ulp), f"mel values off by up to {float((err / ulp).max()):.2f} ulp")


# --- CLI output -----------------------------------------------------------------

def check_inspect_stream(stdout: str, codes: np.ndarray, book: Book) -> None:
    frames = len(codes)
    duration = ((frames - 1) * FRAME_SHIFT + FRAME_LEN) / SAMPLE_RATE
    require(re.search(rf"mode={book.rate} bit/s frames={frames}\b", stdout), "inspect: mode/frames")
    require(f"codebook_hash={book.digest:016x}" in stdout, "inspect: hash")
    require(f"payload_bitrate={book.rate} bit/s" in stdout, "inspect: bitrate")
    require(f"decoded_duration={duration:.3f} s" in stdout, "inspect: duration")


def check_inspect_book(stdout: str, book: Book) -> None:
    bits = re.search(r"stage_bits=\D*([\d, ]+)", stdout)
    require(re.search(rf"mode={book.rate} bit/s dim={book.stages[0].shape[1]}\b", stdout),
            "inspect: mode/dim")
    require(f"scalar_bits={int(book.levels.size).bit_length() - 1}" in stdout, "inspect: scalar bits")
    require(bits and tuple(int(b) for b in re.findall(r"\d+", bits.group(1))) == book.stage_bits,
            "inspect: stage bits")
    require(f"content_hash={book.digest:016x}" in stdout, "inspect: hash")


def check_eval(stdout: str, quality: tuple[float, float | None]) -> None:
    """eval prints the same MCD and STOI the benchmark computes in-process."""
    mcd_db, stoi = quality
    line = stdout.splitlines()[0]
    got_mcd = float(re.search(r"mcd_db=(\S+)", line).group(1))
    require(abs(got_mcd - mcd_db) <= 1e-6, f"eval mcd_db {got_mcd} vs {mcd_db}")
    got_stoi = re.search(r"stoi=(\S+)", line).group(1)
    if stoi is None:
        require(got_stoi == "NA", f"eval stoi {got_stoi}, expected NA")
    else:
        require(abs(float(got_stoi) - stoi) <= 1e-6, f"eval stoi {got_stoi} vs {stoi}")


def train_hash(stdout: str) -> int:
    match = re.search(r"hash ([0-9a-f]{16})", stdout)
    require(match, "train printed no hash")
    return int(match.group(1), 16)


# --- quality --------------------------------------------------------------------

def quality(reference: np.ndarray, decoded: np.ndarray) -> tuple[float, float | None]:
    """(MCD dB, STOI) of decoded audio against its input, both truncated to
    the shorter signal as the eval command does; STOI is None when the
    signal is too short for it."""
    from melvq import AudioBuffer, compute_mfcc, mcd, stoi

    n = min(reference.size, decoded.size)
    ref = AudioBuffer(reference[:n], SAMPLE_RATE)
    deg = AudioBuffer(decoded[:n], SAMPLE_RATE)
    try:
        stoi_value = stoi(ref, deg)
    except ValueError:
        stoi_value = None
    return mcd(compute_mfcc(ref), compute_mfcc(deg)), stoi_value
