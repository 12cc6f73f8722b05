"""Frame quantization through one list of codebook stages.

Each 80-dim MFCC frame is split into its first coefficient (the frame energy
term) and the remaining 79 coefficients. A codebook set is a list of stages:
stage 0 is a one-dimensional codebook of sorted energy levels, and the later
stages are cascaded 79-dim VQ stages, each quantizing the residual of the
ones before. The 1000 bit/s mode spends 4 + 12 bits per frame on the energy
stage and one VQ stage; the 2000 bit/s mode spends 6 + 13 + 13 bits on two
VQ stages searched with an M-best beam. One search serves every stage.
Distortion is unweighted squared Euclidean distance throughout, and every tie
breaks toward the lowest index so encoding is deterministic. Frame codes are
one (frames, stages) integer array.
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


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a digest of a byte string."""
    digest = FNV64_OFFSET_BASIS
    for byte in data:
        digest ^= byte
        digest = (digest * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
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
        for stage, width in zip(self.stages, widths):
            if stage.bits > width:
                raise ValueError(f"a {stage.bits}-bit codebook is wider than "
                                 f"its {width}-bit wire field")
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
    """Serialize a codebook set minus its trailing hash field.

    Layout: magic "MVQB", version byte, rate-mode byte (0 for 1000 bit/s,
    1 for 2000 bit/s), energy bit width, vector dimension as 16-bit LE, one
    bit-width byte per VQ stage, then each stage's table as row-major
    float32 LE, the energy levels first. The file format appends the 64-bit
    FNV-1a digest of these bytes.
    """
    parts = [
        CODEBOOK_MAGIC,
        bytes([CODEBOOK_VERSION, codebooks.rate_mode.wire_byte, codebooks.stages[0].bits]),
        int(codebooks.vector_dim).to_bytes(2, "little"),
        bytes(codebooks.stage_bits),
    ]
    parts += [stage.codewords.astype("<f4").tobytes() for stage in codebooks.stages]
    return b"".join(parts)


def _search(vec: np.ndarray, stages: tuple[VectorCodebook, ...],
            beam_width: int) -> tuple[tuple[int, ...], float]:
    """M-best search of cascaded stages; returns the indices and their
    squared error.

    The beam keeps the beam_width codewords of the first stage closest to
    vec (ties toward lower index) and searches the later stages on each
    residual; the last stage is a full search. The indices minimizing
    ||vec - c1 - c2 - ...||^2 win, ties toward the lexicographically
    smallest. A beam as wide as the first stage is an exhaustive joint
    search of two stages; beam_width 1 is the greedy sequential search.
    """
    codewords = stages[0].codewords
    dists = ((codewords - vec) ** 2).sum(axis=1)
    if len(stages) == 1:
        index = int(np.argmin(dists))
        return (index,), dists[index]
    best, best_dist = (0,) * len(stages), np.inf
    for i in np.sort(np.argsort(dists, kind="stable")[:beam_width]):
        rest, dist = _search(vec - codewords[i], stages[1:], beam_width)
        if dist < best_dist:
            best, best_dist = (int(i),) + rest, dist
    return best, best_dist


def _quantize(frames: np.ndarray, codebooks: CodebookSet,
              beam_width: int = DEFAULT_BEAM_WIDTH) -> np.ndarray:
    """Codes of (frames, 1 + dim) MFCC rows as a (frames, stages) array:
    column 0 through the energy stage, the rest through the VQ stages."""
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    codes = np.empty((len(frames), len(codebooks.stages)), dtype=np.int64)
    for n, z in enumerate(frames):
        codes[n, :1] = _search(z[:1], codebooks.stages[:1], 1)[0]
        codes[n, 1:] = _search(z[1:], codebooks.stages[1:], beam_width)[0]
    return codes


def quantize_frame(z: np.ndarray, codebooks: CodebookSet,
                   beam_width: int = DEFAULT_BEAM_WIDTH) -> FrameCode:
    """Quantize one MFCC frame: z[0] through the energy stage, the rest
    through the mode's vector stage(s)."""
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
