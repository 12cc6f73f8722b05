"""Codebook training: Lloyd-Max scalar levels and LBG vector codebooks.

Training is fully deterministic. The scalar quantizer starts from mid-cell
quantiles of the sample distribution; vector codebooks grow from the global
centroid by repeated splitting followed by Lloyd iterations. A split keeps
each parent codeword and adds a copy scaled by (1 + epsilon), so the codebook
after a split always contains the previous one and the recorded distortion
sequence is non-increasing across the whole run, not just within one Lloyd
pass. Empty cells are reseeded from the farthest member of the most populous
cell, which also cannot raise the assignment distortion. Vectors are assigned
by the encoder's exact search (quantizer._nearest) on the float64 codewords,
and centroid sums add in input order, so no BLAS setting changes a book.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError
from .quantizer import CodebookSet, RateMode, VectorCodebook, _check_field_bits, _nearest

LLOYD_REL_TOL = 1e-4     # stop when the relative distortion drop falls below this
LLOYD_MAX_ITERS = 50     # per Lloyd pass
SPLIT_EPSILON = 0.01     # scale factor for the split copy of each codeword


@dataclass(frozen=True, eq=False)
class TrainingCorpus:
    """Pooled MFCC vectors from a list of source files."""

    vectors: np.ndarray

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
    stage_reports: tuple["TrainReport", ...] = field(default=())

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.distortions):
            raise ValueError("distortions must be non-negative")

    @property
    def iterations(self) -> int:
        return len(self.distortions)

    @property
    def final_distortion(self) -> float:
        return self.distortions[-1]


def _assign(vectors: np.ndarray, codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest codeword of each vector by the exact distance, ties toward the
    lower index, and that distance: the encoder's search."""
    index, dist = _nearest(vectors, codewords, 1)
    return index[:, 0], dist[:, 0]


def _lloyd(vectors: np.ndarray, codewords: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Lloyd iterations until the relative distortion drop is below tolerance
    or the iteration cap is hit. Returns the refined codewords and the
    distortion recorded at each iteration."""
    codewords = codewords.astype(np.float64, copy=True)
    columns = np.ascontiguousarray(vectors.T)  # centroid sums: one bincount each
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
        sums = np.column_stack([np.bincount(assign, x, len(codewords)) for x in columns])
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
    return VectorCodebook(levels.astype(np.float32)[:, None], bits), TrainReport(tuple(trace))


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
    return VectorCodebook(codewords.astype(np.float32), bits), TrainReport(tuple(trace))


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
    return tuple(stages), TrainReport(trace, stage_reports=tuple(reports))


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
    _check_field_bits(mode, (sq_bits, *stage_bits))
    vectors = corpus.vectors
    if vectors.shape[1] < 2:
        raise ValueError("corpus vectors must have at least 2 coefficients")
    energy, energy_report = train_scalar(vectors[:, 0], sq_bits)
    stages, vq_report = train_msvq(vectors[:, 1:], stage_bits)
    vq_name = "vector" if len(stage_bits) == 1 else "msvq"  # the name `melvq train` prints
    reports = {"scalar": energy_report, vq_name: vq_report}
    return CodebookSet(mode, (energy,) + stages), reports

