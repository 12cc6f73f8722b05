"""Codebook training: Lloyd-Max scalar levels and LBG vector codebooks.

Training is fully deterministic. The scalar quantizer starts from mid-cell
quantiles of the sample distribution; vector codebooks grow from the global
centroid by repeated splitting followed by Lloyd iterations. A split keeps
each parent codeword and adds a copy scaled by (1 + epsilon), so the codebook
after a split always contains the previous one and the recorded distortion
sequence is non-increasing across the whole run, not just within one Lloyd
pass. Empty cells are reseeded from the farthest member of the most populous
cell, which also cannot raise the assignment distortion. Reductions are
accumulated in a fixed chunk order so results do not depend on worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, HashMismatchError, InsufficientDataError
from .quantizer import (
    CODEBOOK_MAGIC,
    CODEBOOK_VERSION,
    CodebookSet,
    RateMode,
    VectorCodebook,
    codebook_payload,
    fnv1a64,
)

LLOYD_REL_TOL = 1e-4     # stop when the relative distortion drop falls below this
LLOYD_MAX_ITERS = 50     # per Lloyd pass
SPLIT_EPSILON = 0.01     # scale factor for the split copy of each codeword

_CHUNK_ELEMS = 1 << 22   # bound on rows*codewords handled per distance block

# Report names printed by `melvq train`, by number of VQ stages.
_VQ_REPORT_NAMES = {1: "vector", 2: "msvq"}


@dataclass(frozen=True, eq=False)
class TrainingCorpus:
    """Pooled MFCC vectors from a list of source files."""

    vectors: np.ndarray
    source_manifest: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be (count, dim)")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("training vectors must be finite")
        object.__setattr__(self, "vectors", vectors)


@dataclass(frozen=True)
class TrainReport:
    """Distortion trace of a training run.

    distortions holds the mean squared assignment error recorded at every
    Lloyd iteration, concatenated across split stages (and across MSVQ
    stages); the sequence is non-increasing by construction. Multi-stage
    runs keep their per-stage traces in stage_reports.
    """

    distortions: tuple[float, ...]
    iterations: int
    final_distortion: float
    stage_reports: tuple["TrainReport", ...] = field(default=())

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.distortions):
            raise ValueError("distortions must be non-negative")
        if self.iterations != len(self.distortions):
            raise ValueError("iterations must match the trace length")


def _assign(vectors: np.ndarray, codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-codeword assignment (ties toward the lower index) plus the
    squared distance to that codeword, computed in row blocks."""
    count = vectors.shape[0]
    k = codewords.shape[0]
    assign = np.empty(count, dtype=np.int64)
    dists = np.empty(count)
    block = max(1, _CHUNK_ELEMS // max(k, 1))
    sq_norms = (codewords ** 2).sum(axis=1)
    for start in range(0, count, block):
        chunk = vectors[start:start + block]
        d = sq_norms[None, :] - 2.0 * (chunk @ codewords.T) + (chunk ** 2).sum(axis=1)[:, None]
        idx = np.argmin(d, axis=1)
        assign[start:start + block] = idx
        dists[start:start + block] = np.maximum(d[np.arange(len(chunk)), idx], 0.0)
    return assign, dists


def _lloyd(vectors: np.ndarray, codewords: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Lloyd iterations until the relative distortion drop is below tolerance
    or the iteration cap is hit. Returns the refined codewords and the
    distortion recorded at each iteration."""
    codewords = codewords.astype(np.float64, copy=True)
    trace: list[float] = []
    prev = None
    for _ in range(LLOYD_MAX_ITERS):
        assign, dists = _assign(vectors, codewords)
        distortion = float(dists.mean())
        trace.append(distortion)
        if prev is not None and prev - distortion <= LLOYD_REL_TOL * prev:
            break
        prev = distortion
        counts = np.bincount(assign, minlength=codewords.shape[0])
        sums = np.zeros_like(codewords)
        np.add.at(sums, assign, vectors)
        occupied = counts > 0
        codewords[occupied] = sums[occupied] / counts[occupied, None]
        if not occupied.all():
            codewords = _reseed(vectors, codewords, occupied)
    return codewords, trace


def _reseed(vectors: np.ndarray, codewords: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    """Reseed empty cells from the farthest member of the most populous cell,
    one empty cell at a time so two cells never claim the same vector."""
    assign, dists = _assign(vectors, codewords)
    counts = np.bincount(assign, minlength=codewords.shape[0])
    codewords = codewords.copy()
    for cell in np.flatnonzero(~occupied):
        donor = int(np.argmax(counts))
        members = np.flatnonzero(assign == donor)
        if members.size == 0:
            continue
        farthest = int(members[int(np.argmax(dists[members]))])
        codewords[cell] = vectors[farthest]
        counts[donor] -= 1
        counts[cell] = 1
        assign[farthest] = cell
        dists[farthest] = 0.0
    return codewords


def train_scalar(samples: np.ndarray, bits: int) -> tuple[VectorCodebook, TrainReport]:
    """Lloyd-Max scalar levels initialized at the (i + 0.5) / 2**bits quantiles,
    returned sorted as a 2**bits x 1 codebook."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if bits < 1:
        raise ValueError("bits must be >= 1")
    size = 2 ** bits
    if np.unique(samples).size < size:
        raise InsufficientDataError(
            f"scalar training needs at least {size} distinct samples, "
            f"got {np.unique(samples).size}"
        )
    quantiles = (np.arange(size) + 0.5) / size
    levels = np.quantile(samples, quantiles)
    refined, trace = _lloyd(samples[:, None], levels[:, None])
    levels = np.sort(refined[:, 0])
    codebook = VectorCodebook(levels.astype(np.float32)[:, None], bits)
    report = TrainReport(tuple(trace), len(trace), trace[-1])
    return codebook, report


def train_lbg(vectors: np.ndarray, bits: int) -> tuple[VectorCodebook, TrainReport]:
    """Grow a 2**bits codebook from the global centroid by binary splitting.

    Each split keeps the parent codeword and adds parent * (1 + epsilon), so
    the new codebook contains the old one and the distortion trace stays
    non-increasing across split boundaries.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("vectors must be (count, dim)")
    if bits < 1:
        raise ValueError("bits must be >= 1")
    size = 2 ** bits
    if vectors.shape[0] < size:
        raise InsufficientDataError(
            f"LBG training needs at least {size} vectors, got {vectors.shape[0]}"
        )
    codewords = vectors.mean(axis=0, keepdims=True)
    trace: list[float] = []
    while codewords.shape[0] < size:
        codewords = np.vstack([codewords, codewords * (1.0 + SPLIT_EPSILON)])
        codewords, stage_trace = _lloyd(vectors, codewords)
        trace.extend(stage_trace)
    codebook = VectorCodebook(codewords.astype(np.float32), bits)
    report = TrainReport(tuple(trace), len(trace), trace[-1])
    return codebook, report


def train_msvq(vectors: np.ndarray, bits_per_stage: tuple[int, ...] = (13, 13),
               ) -> tuple[tuple[VectorCodebook, ...], TrainReport]:
    """Train cascaded VQ stages; each stage after the first fits the residuals
    of greedy assignment to the stages before it."""
    if not bits_per_stage:
        raise ValueError("at least one stage is required")
    residuals = np.asarray(vectors, dtype=np.float64)
    stages, reports = [], []
    for bits in bits_per_stage:
        if stages:
            codewords = stages[-1].codewords.astype(np.float64)
            residuals = residuals - codewords[_assign(residuals, codewords)[0]]
        stage, report = train_lbg(residuals, bits)
        stages.append(stage)
        reports.append(report)
    trace = sum((report.distortions for report in reports), ())
    report = TrainReport(trace, len(trace), trace[-1], stage_reports=tuple(reports))
    return tuple(stages), report


def train_codebook_set(corpus: TrainingCorpus, mode: RateMode,
                       sq_bits: int | None = None,
                       stage_bits: tuple[int, ...] | None = None,
                       ) -> tuple[CodebookSet, dict[str, TrainReport]]:
    """Train the energy and vector codebook stages for one rate mode.

    Bit widths default to the mode's field widths, the production layout
    (4+12 or 6+13+13); smaller widths give desk-scale codebooks that still
    pack into the same stream fields.
    """
    widths = mode.field_bits
    sq_bits = widths[0] if sq_bits is None else sq_bits
    stage_bits = widths[1:] if stage_bits is None else tuple(stage_bits)
    if len(stage_bits) != len(widths) - 1:
        raise ValueError(
            f"{mode.name} takes {len(widths) - 1} stage bit width(s), got {stage_bits}"
        )
    vectors = corpus.vectors
    if vectors.shape[1] < 2:
        raise ValueError("corpus vectors must have at least 2 coefficients")
    energy, energy_report = train_scalar(vectors[:, 0], sq_bits)
    stages, vq_report = train_msvq(vectors[:, 1:], stage_bits)
    reports = {"scalar": energy_report, _VQ_REPORT_NAMES[len(stages)]: vq_report}
    return CodebookSet(mode, (energy,) + stages), reports


def save_codebooks(codebooks: CodebookSet, path) -> None:
    """Write the codebook container: payload then its 64-bit FNV-1a digest."""
    payload = codebook_payload(codebooks)
    Path(path).write_bytes(payload + codebooks.content_hash.to_bytes(8, "little"))


def load_codebooks(path, expected_mode: RateMode | None = None) -> CodebookSet:
    """Read and verify a codebook container.

    The stored digest is checked against the payload bytes before the
    contents are parsed, and the parsed set must serialize back to exactly
    those bytes. Pass expected_mode to reject a file trained for the other
    rate.
    """
    data = Path(path).read_bytes()
    header_len = len(CODEBOOK_MAGIC) + 3 + 2
    if len(data) < header_len + 8:
        raise FormatError(f"{path}: truncated codebook file")
    if data[:4] != CODEBOOK_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    version, mode_byte = data[4], data[5]
    if version != CODEBOOK_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    try:
        mode = RateMode.from_wire_byte(mode_byte)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    dim = int.from_bytes(data[7:9], "little")
    num_vq = len(mode.field_bits) - 1
    offset = header_len + num_vq
    bits = (data[6], *data[header_len:offset])
    dims = (1,) + (dim,) * num_vq
    expected_len = offset + 4 * sum(2 ** b * d for b, d in zip(bits, dims)) + 8
    if len(data) < expected_len:
        raise FormatError(f"{path}: truncated codebook file")
    if len(data) > expected_len:
        raise FormatError(f"{path}: trailing garbage after codebook payload")
    stored = int.from_bytes(data[-8:], "little")
    computed = fnv1a64(data[:-8])
    if stored != computed:
        raise HashMismatchError(
            f"{path}: stored hash {stored:016x} != computed {computed:016x}"
        )
    stages = []
    for b, d in zip(bits, dims):
        flat = np.frombuffer(data, dtype="<f4", count=2 ** b * d, offset=offset)
        stages.append(VectorCodebook(flat.reshape(2 ** b, d).copy(), b))
        offset += flat.nbytes
    codebooks = CodebookSet(mode, tuple(stages), content_hash=computed)
    if codebook_payload(codebooks) != data[:-8]:
        raise HashMismatchError(f"{path}: payload does not re-serialize to the hashed bytes")
    if expected_mode is not None and mode is not expected_mode:
        raise FormatError(
            f"{path}: codebook is for {mode.value} bit/s, "
            f"expected {expected_mode.value} bit/s"
        )
    return codebooks
