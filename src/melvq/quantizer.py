"""Frame quantization through one list of codebook stages.

Each 80-dim MFCC frame is split into its first coefficient (the frame energy
term) and the remaining 79 coefficients. A codebook set is a list of stages:
stage 0 is a one-dimensional codebook of sorted energy levels, and the later
stages are cascaded 79-dim VQ stages, each quantizing the residual of the
ones before. The field table _FIELD_BITS alone gives each mode's stages
and bits: 4 + 12 per frame at 1000 bit/s, 6 + 13 + 13 at 2000 bit/s. One
M-best beam search serves any number of VQ stages. Distortion is unweighted
squared Euclidean distance throughout, and every tie breaks toward the
lowest index (the lexicographically smaller path), so encoding is
deterministic. Frame codes are one (frames, stages) integer array.

The search is batched and exact. One kernel, _nearest, serves every stage
and the trainer. It scores rows against all k codewords of a stage in
blocks of _BLOCK_SCORES // k rows, by one GEMM in the codewords' dtype:
float32 for a book, float64 when the trainer assigns through it. Every
codeword within a proven rounding margin of the cut-off (the beam-th
smallest score, or the smallest in the last stage) is kept, and that
shortlist is re-ranked with the float64 distance ((c - x)**2).sum(axis=-1).
The margin holds for any BLAS summation order, FMA use, thread count or
block size (derivation above _shortlist), so the chosen indices, ties
included, equal those of a full per-frame search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .errors import FormatError

DEFAULT_BEAM_WIDTH = 8

CODEBOOK_MAGIC = b"MVQB"
CODEBOOK_VERSION = 1

FNV64_OFFSET_BASIS = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def _descending_powers(base: int, count: int) -> np.ndarray:
    """base**(count-1), ..., base**1, base**0 mod 2**64 as uint64."""
    powers = np.full(count, base, np.uint64)
    powers[0] = 1
    return np.multiply.accumulate(powers)[::-1]


_FNV_BLOCK = 512  # bytes per row of the uint64 dot product
_FNV_CHUNK = 512 * _FNV_BLOCK  # bytes per pass; bounds the temporaries to a few MB
_FNV_BLOCK_POWERS = _descending_powers(FNV64_PRIME, _FNV_BLOCK + 1)[:-1]  # P**B .. P**1
_FNV_FOLD_POWERS = _descending_powers(int(_FNV_BLOCK_POWERS[0]), _FNV_CHUNK // _FNV_BLOCK)


def fnv1a64(data: bytes | bytearray | memoryview) -> int:
    """64-bit FNV-1a digest of a bytes-like object.

    The byte loop h = ((h ^ b) * P) mod 2**64 is evaluated exactly with
    numpy, one chunk of bytes at a time, in two steps.

    1. The low byte l of the state. With x = l ^ b the next low byte is
       l' = (x * 0xB3) mod 256, as P mod 256 = 0xB3. 0xB3 is odd, so bit k
       of l' is l_k ^ b_k ^ bit_k((x mod 2**k) * 0xB3), and every term after
       l_k is known once bits < k are solved. Each of the 8 bits is thus one
       prefix XOR over the chunk, run on bit-packed uint64 words: 6 in-word
       shift-XORs, then an XOR accumulate of each word's parity bit.
    2. The full state. h ^ b = h + x - l, so h' = P*h + P*(x - l), and after
       the n bytes of a chunk h = P**n h + sum_t (x_t - l_t) P**(n - t + 1)
       mod 2**64: blocks of B steps x_t - l_t times P**B .. P**1, then the
       block sums times powers of P**B, in wrapping uint64. numpy's integer
       matmul does not use BLAS, and a sum mod 2**64 is exact in any order.
    """
    digest = FNV64_OFFSET_BASIS
    data = np.frombuffer(data, np.uint8)
    for start in range(0, len(data), _FNV_CHUNK):
        chunk = data[start:start + _FNV_CHUNK]
        n = len(chunk)
        # Zero bytes in front pad the chunk to whole blocks. They do not
        # change the sum, and with a zero state their terms stay zero.
        first = -n % _FNV_BLOCK
        padded = np.concatenate([np.zeros(first, np.uint8), chunk])
        # x[t] = l_t ^ b_t, l_t the low byte before byte t, solved one bit
        # per pass; unsolved bits still hold b_t. The first byte's x starts
        # complete, so each prefix XOR starts from the carried-in bit.
        x = padded.copy()
        x[first] ^= digest & 0xFF
        terms = np.empty_like(x)
        for k in range(8):
            np.bitwise_and(x, (1 << k) - 1, out=terms)
            terms *= 0xB3
            terms ^= x
            terms &= 1 << k
            words = np.packbits(terms, bitorder="little").view("<u8")
            for shift in (1, 2, 4, 8, 16, 32):
                words ^= words << np.uint64(shift)
            parity = np.bitwise_xor.accumulate(words >> np.uint64(63))
            words[1:] ^= -parity[:-1]
            solved = np.unpackbits(words.view(np.uint8), bitorder="little")
            solved <<= k
            x[1:] ^= solved[:-1]
        steps = x.astype(np.uint64)
        steps -= x ^ padded
        sums = steps.reshape(-1, _FNV_BLOCK) @ _FNV_BLOCK_POWERS
        folded = int(sums @ _FNV_FOLD_POWERS[-len(sums):])
        digest = (digest * pow(FNV64_PRIME, n, 1 << 64) + folded) & 0xFFFFFFFFFFFFFFFF
    return digest


class RateMode(IntEnum):
    """Operating points of the codec, named by their payload bit rate."""

    R1000 = 1000
    R2000 = 2000

    @property
    def field_bits(self) -> tuple[int, ...]:
        """Wire width of each frame field: the energy index, then one index
        per VQ stage. Also the production codebook sizes."""
        return _FIELD_BITS[self]

    @property
    def bits_per_frame(self) -> int:
        return sum(self.field_bits)

    @property
    def wire_byte(self) -> int:
        return list(RateMode).index(self)

    @classmethod
    def from_wire_byte(cls, value: int) -> "RateMode":
        modes = list(cls)
        if value >= len(modes):
            raise ValueError(f"unknown rate-mode byte {value:#04x}")
        return modes[value]


_FIELD_BITS = {RateMode.R1000: (4, 12), RateMode.R2000: (6, 13, 13)}


def _check_field_bits(mode: RateMode, bits: tuple[int, ...]) -> None:
    """Raise ValueError if a stage width exceeds its wire field in mode."""
    for b, width in zip(bits, mode.field_bits):
        if b > width:
            raise ValueError(f"a {b}-bit codebook is wider than its {width}-bit wire field")


@dataclass(frozen=True, eq=False)
class VectorCodebook:
    """One codebook stage: 2**bits codewords of a fixed dimension."""

    codewords: np.ndarray
    bits: int

    def __post_init__(self) -> None:
        codewords = np.asarray(self.codewords, dtype=np.float32)
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if codewords.ndim != 2 or codewords.shape[0] != 2 ** self.bits:
            raise ValueError(
                f"expected {2 ** self.bits} codewords, got shape {codewords.shape}"
            )
        if not np.all(np.isfinite(codewords)):
            raise ValueError("codewords must be finite")
        object.__setattr__(self, "codewords", codewords)

    @property
    def dim(self) -> int:
        return self.codewords.shape[1]


class FrameCode(NamedTuple):
    """Per-frame view of one code row: energy index plus VQ stage indices."""

    sq_index: int
    vq_indices: tuple[int, ...]


@dataclass(eq=False)
class CodebookSet:
    """All codebook stages for one rate mode, plus a content digest.

    stages[0] quantizes the energy coefficient: a 2**b x 1 codebook whose
    levels are strictly increasing. stages[1:] are the cascaded VQ stages
    for the remaining coefficients; the mode's field table fixes how many.
    Production codebooks use the full field widths (4+12 or 6+13+13 bits);
    smaller desk-scale codebooks are accepted for experiments as long as
    every index still fits its fixed wire field. The content hash is the
    64-bit FNV-1a digest of the serialized codebook payload and ties encoded
    streams to the exact codebooks that produced them; pass it only when it
    is the already verified digest of this payload.
    """

    rate_mode: RateMode
    stages: tuple[VectorCodebook, ...]
    content_hash: int | None = None

    def __post_init__(self) -> None:
        widths = self.rate_mode.field_bits
        if len(self.stages) != len(widths):
            raise ValueError(
                f"{self.rate_mode.name} takes {len(widths)} codebook stages, "
                f"got {len(self.stages)}"
            )
        if self.stages[0].dim != 1:
            raise ValueError("the energy stage must be one-dimensional")
        if np.any(np.diff(self.stages[0].codewords[:, 0]) <= 0):
            raise ValueError("energy levels must be strictly increasing")
        if any(stage.dim != self.vector_dim for stage in self.stages[2:]):
            raise ValueError("stage dimensions differ")
        _check_field_bits(self.rate_mode, tuple(stage.bits for stage in self.stages))
        if self.content_hash is None:
            self.content_hash = fnv1a64(codebook_payload(self))

    @property
    def stage_bits(self) -> tuple[int, ...]:
        """Bit widths of the VQ stages (the energy stage excluded)."""
        return tuple(stage.bits for stage in self.stages[1:])

    @property
    def vector_dim(self) -> int:
        return self.stages[1].dim


def codebook_payload(codebooks: CodebookSet) -> bytes:
    """A .mvqb file minus its trailing digest (layout in melvq.bitstream)."""
    parts = [
        CODEBOOK_MAGIC,
        bytes([CODEBOOK_VERSION, codebooks.rate_mode.wire_byte, codebooks.stages[0].bits]),
        int(codebooks.vector_dim).to_bytes(2, "little"),
        bytes(codebooks.stage_bits),
    ]
    parts += [stage.codewords.astype("<f4").tobytes() for stage in codebooks.stages]
    return b"".join(parts)


# Scores per search block: _nearest scores _BLOCK_SCORES // k rows at a time
# against a k-word stage, 4 MB of float32 scores (8 MB of float64 ones in
# training). _quantize builds at most _RESIDUAL_ROWS (frame, beam entry)
# residual rows at a time, so no beam width makes it allocate without bound.
_BLOCK_SCORES = 128 * 8192
_RESIDUAL_ROWS = 1024
# Candidate pairs per exact re-rank chunk (at most 5 MB of float64 rows).
_RERANK_PAIRS = 8192
# Rows whose scale P exceeds this keep every codeword: float32 could overflow.
_SAFE_SCALE = 2.0 ** 100


def _gamma(n: int, unit: float) -> float:
    """The rounding-error factor gamma_n = n u / (1 - n u)."""
    return n * unit / (1 - n * unit)


# The shortlist margin. Let x be a float64 row of n coefficients, c a float32
# or float64 codeword, u the unit roundoff of c's dtype (2^-24 or 2^-53),
# u64 = 2^-53 and g(k, u) = gamma_k. The score is s = fl(h - q) in c's dtype,
# h being ||c||^2 / 2 summed in it and q = c . fl(x) from a GEMM in it. The
# bound |fl(a . b) - a . b| <= g(n, u) |a| . |b| holds for any summation
# order, FMA use or BLAS thread count, and with Cauchy-Schwarz it gives
#     |h - ||c||^2 / 2| <= g(n, u) ||c||^2 / 2,
#     |q - c . x| <= g(n + 1, u) ||c|| ||x||,
#     |2 s + ||x||^2 - ||c - x||^2| <= g(n + 2, u) (||c||^2 + 2 ||c|| ||x||).
# The exact distance d = fl64(sum (c_k - x_k)^2) rounds each difference and
# square and then sums n terms, so |d - ||c - x||^2| <= g(n + 2, u64)
# ||c - x||^2. With P = (max ||c|| + ||x||)^2 bounding both right-hand sides,
#     |2 s + ||x||^2 - d| <= E = (g(n + 2, u) + g(n + 2, u64)) P.
# Let t be the keep-th smallest score of the row. At least keep codewords
# score at most t, and each has d <= 2 t + ||x||^2 + E. So every codeword
# among the keep nearest by d has 2 s + ||x||^2 <= d + E <= 2 t + ||x||^2
# + 2 E, that is s <= t + E. The search keeps every codeword with
# s <= t + M, where M uses g(n + 3, .) in place of g(n + 2, .). The extra
# (u + u64) P covers the rounding of max ||c||, ||x||, P and t + M. Underflow,
# at most tau / 2 per rounded product or halving and |c_k| tau / 2 per
# coefficient of fl(x) (tau the dtype's smallest subnormal), adds at most
# (2 n + 1 + sqrt(n) max ||c||) tau, within M's 2 (n + 1)(1 + max ||c||) tau.
# t + M is rounded up to c's dtype before the compare. Nothing in M depends
# on the other rows, so neither does the result.
def _shortlist(rows: np.ndarray, codewords: np.ndarray, half_norms: np.ndarray,
               reach: float, keep: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (row, codeword) pair whose codeword can be among the keep
    nearest to its row: row indices, codeword indices (ascending within a
    row) and the exact distance ((c - x)**2).sum(axis=-1) of each pair.
    half_norms are the codewords' half squared norms summed in their dtype,
    reach the largest norm."""
    count, dim = rows.shape
    scale = (reach + np.sqrt(np.einsum("ij,ij->i", rows, rows))) ** 2
    unsafe = ~(scale <= _SAFE_SCALE)
    fp = np.finfo(codewords.dtype)
    safe = np.where(unsafe[:, None], 0.0, rows) if unsafe.any() else rows
    scores = safe.astype(fp.dtype, copy=False) @ codewords.T
    np.subtract(half_norms, scores, out=scores)
    if keep >= scores.shape[1]:
        cut = np.full(count, np.inf)
    elif keep == 1:
        cut = scores.min(axis=1)
    else:
        cut = np.partition(scores, keep - 1, axis=1)[:, keep - 1]
    margin = ((_gamma(dim + 3, float(fp.eps) / 2) + _gamma(dim + 3, 2.0 ** -53)) * scale
              + 2 * (dim + 1) * (1 + reach) * float(fp.smallest_subnormal))
    limit = np.nextafter((cut + margin).astype(fp.dtype), fp.dtype.type(np.inf))
    limit[unsafe] = np.inf
    pair_rows, pair_cols = np.nonzero(scores <= limit[:, None])
    dists = np.empty(len(pair_rows))
    for start in range(0, len(pair_rows), _RERANK_PAIRS):
        at = slice(start, start + _RERANK_PAIRS)
        diff = codewords[pair_cols[at]] - rows[pair_rows[at]]
        dists[at] = np.square(diff, out=diff).sum(axis=-1)
    return pair_rows, pair_cols, dists


def _nearest(rows: np.ndarray, codewords: np.ndarray, keep: int,
             ) -> tuple[np.ndarray, np.ndarray]:
    """The keep codewords nearest to each of any number of float64 rows by
    the exact distance, ties toward the lower index, and their distances,
    as (rows, keep) arrays; keep is at most the number of codewords. The
    rows are scored _BLOCK_SCORES // k at a time against the k codewords."""
    sq_norms = np.einsum("ij,ij->i", codewords, codewords)
    half_norms, reach = sq_norms / 2, float(np.sqrt(sq_norms.max()))
    step = max(1, _BLOCK_SCORES // len(codewords))
    index = np.empty((len(rows), keep), np.intp)
    dist = np.empty((len(rows), keep))
    for start in range(0, len(rows), step):
        pair_rows, pair_cols, dists = _shortlist(rows[start:start + step], codewords,
                                                 half_norms, reach, keep)
        order = np.lexsort((pair_cols, dists, pair_rows))
        ranked_rows = pair_rows[order]
        rank = np.arange(len(order)) - np.searchsorted(ranked_rows, ranked_rows)
        chosen = order[rank < keep]
        index[start:start + step] = pair_cols[chosen].reshape(-1, keep)
        dist[start:start + step] = dists[chosen].reshape(-1, keep)
    return index, dist


def _search(vectors: np.ndarray, stages: list[np.ndarray], beam: int) -> np.ndarray:
    """VQ indices of rows through any number of stages by an M-best beam.
    Each kept path is extended by its min(beam, k) nearest codewords of the
    next stage (by the nearest only in the last), and a row keeps its beam
    best paths by the exact residual distance, ties toward the
    lexicographically smaller path. After the last stage the best one wins."""
    paths, residuals, kept = np.empty((len(vectors), 0), np.intp), vectors, 1
    for depth, codewords in enumerate(stages, 1):
        step = min(beam, len(codewords)) if depth < len(stages) else 1
        index, dists = _nearest(residuals, codewords, step)
        paths = np.hstack([np.repeat(paths, step, axis=0), index.reshape(-1, 1)])
        keys = [column.reshape(-1, kept * step) for column in (dists.ravel(), *paths.T)]
        order = np.lexsort(keys[::-1])[:, :beam]
        chosen = (order + np.arange(0, len(paths), kept * step)[:, None]).ravel()
        paths, kept = paths[chosen], order.shape[1]
        if depth < len(stages):
            residuals = residuals[chosen // step] - codewords[paths[:, -1]]
    return paths[::kept]


def _quantize(frames: np.ndarray, codebooks: CodebookSet,
              beam_width: int = DEFAULT_BEAM_WIDTH) -> np.ndarray:
    """Codes of (frames, 1 + dim) MFCC rows as a (frames, stages) array:
    column 0 through the energy stage, the rest through the VQ stages.
    Frames go to the search in blocks of at most _RESIDUAL_ROWS residual
    rows: beam per frame, the beam clamped to the paths before the last stage."""
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    frames = np.asarray(frames, dtype=np.float64)
    if not np.all(np.isfinite(frames)):
        raise ValueError("frames must be finite")
    energy, *stages = (book.codewords for book in codebooks.stages)
    beam = min(beam_width, int(np.prod([len(stage) for stage in stages[:-1]])))
    step = max(1, _RESIDUAL_ROWS // beam)
    codes = np.empty((len(frames), len(codebooks.stages)), dtype=np.int64)
    for start in range(0, len(frames), step):
        block = frames[start:start + step]
        codes[start:start + step, 0] = _nearest(block[:, :1], energy, 1)[0][:, 0]
        codes[start:start + step, 1:] = _search(block[:, 1:], stages, beam)
    return codes


def quantize_frame(z: np.ndarray, codebooks: CodebookSet,
                   beam_width: int = DEFAULT_BEAM_WIDTH) -> FrameCode:
    """Quantize one MFCC frame: z[0] through the energy stage, the rest
    through the M-best search of the mode's VQ stages, however many."""
    z = np.asarray(z, dtype=np.float64)
    expected = 1 + codebooks.vector_dim
    if z.shape != (expected,):
        raise ValueError(f"expected a {expected}-dim frame, got shape {z.shape}")
    code = _quantize(z[None, :], codebooks, beam_width)[0].tolist()
    return FrameCode(code[0], tuple(code[1:]))


def dequantize(codes: np.ndarray, codebooks: CodebookSet) -> np.ndarray:
    """Reconstruct (frames, 1 + dim) coefficients from a (frames, stages)
    code array: the energy level, then the VQ codewords summed in stage
    order. An index beyond its codebook raises FormatError."""
    tables = []
    for k, stage in enumerate(codebooks.stages):
        bad = codes[:, k][(codes[:, k] < 0) | (codes[:, k] >= len(stage.codewords))]
        if bad.size:
            raise FormatError(
                f"stage {k} index {bad[0]} out of range for a {stage.bits}-bit codebook"
            )
        tables.append(stage.codewords[codes[:, k]].astype(np.float64))
    return np.hstack([tables[0], sum(tables[2:], tables[1])])
