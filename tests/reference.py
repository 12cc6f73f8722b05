"""Reference implementations kept as test oracles for code that was replaced.

Each function is a verbatim copy of the code it stands for, so a test can
require the replacement to give the same results bit for bit.

- `_search` and `_quantize`: the per-frame M-best search of
  `melvq.quantizer` before the batched shortlist search. They take the same
  `CodebookSet` and return the same `(frames, stages)` code array.
- `dct`, `idct_mel`, `upfirdn`, `read_wav` and `write_wav`: the scipy-backed
  transforms, STOI resampler core and WAV I/O that the numpy-only runtime
  replaced. scipy is a test-only dependency, so these are oracles, not code
  the package may import. The DCT and WAV replacements match them bit for
  bit, the resampler to float rounding.
- `fnv1a64`: the byte loop of `melvq.quantizer.fnv1a64` before the
  vectorised digest. Every input must give the same 64-bit value.
- `_wola`, `_stft_fixed` and `griffin_lim`: the frame-by-frame overlap-add,
  the index-gather re-analysis and the Griffin-Lim loop of
  `melvq.synthesis` before the fixed-working-set kernel. `overlap_add` and
  `griffin_lim` must return the same float bytes and the same error list.
- `_assign`, `_lloyd` and `_reseed`: the trainer's nearest-codeword
  assignment by an argmin over the expanded formula
  ||c||^2 - 2 x.c + ||x||^2 (a GEMM, so BLAS decides its near-ties) and the
  Lloyd loop with `np.add.at` centroid sums that called it, before training
  assigned through the encoder's exact search. `_reseed` is copied too, so
  that this Lloyd loop runs on this `_assign` throughout. With `_assign`
  patched to the trainer's, `_lloyd` must return the same codewords and
  trace bit for bit.
- `_word_dtype`, `pack` and `unpack_codes`: the stream packer of
  `melvq.bitstream` that wrote each frame as one big-endian 16- or 32-bit
  word, before frames of any width were packed bit by bit. For the 16- and
  32-bit field tables the payload bytes and unpacked codes must be equal.
"""

from __future__ import annotations

import struct

import numpy as np
from scipy.fft import dct as _scipy_dct
from scipy.fft import idct as _scipy_idct
from scipy.io import wavfile
from scipy.signal import upfirdn  # noqa: F401  (re-exported oracle)

from melvq.bitstream import EncodedStream
from melvq.errors import FormatError
from melvq.quantizer import (
    DEFAULT_BEAM_WIDTH,
    FNV64_OFFSET_BASIS,
    FNV64_PRIME,
    CodebookSet,
    RateMode,
    VectorCodebook,
)
from melvq.analysis import hamming_window
from melvq.signal_io import PCM16_FULL_SCALE, PCM16_MAX_SAMPLE, AudioBuffer
from melvq.synthesis import DEFAULT_GL_ITERATIONS, WOLA_FLOOR, MagnitudeSpectrogram
from melvq.trainer import LLOYD_MAX_ITERS, LLOYD_REL_TOL


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a digest of a byte string."""
    digest = FNV64_OFFSET_BASIS
    for byte in data:
        digest ^= byte
        digest = (digest * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return digest


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


def dct(values: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the last axis (what `mfcc` computed)."""
    return _scipy_dct(values, type=2, norm="ortho", axis=-1)


def idct_mel(coefficients: np.ndarray) -> np.ndarray:
    """Invert the orthonormal DCT-II; accepts one row or a matrix of rows."""
    return _scipy_idct(np.asarray(coefficients, dtype=np.float64), type=2, norm="ortho", axis=-1)


def read_wav(path) -> AudioBuffer:
    """Read an integer PCM WAV file as a mono AudioBuffer.

    16-bit samples are scaled by 1/32768. 24- and 32-bit samples arrive from
    scipy widened into the int32 range and are scaled by 1/2**31. Multichannel
    content is averaged to mono. The sample rate is preserved as read; rate
    requirements are enforced by the analysis stage, not here.
    """
    try:
        rate, data = wavfile.read(path)
    except (ValueError, struct.error, EOFError, ZeroDivisionError, UnboundLocalError) as exc:
        # scipy's reader raises each of these on truncated or malformed headers
        raise FormatError(f"{path}: malformed, unsupported or non-PCM WAV ({exc})") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / PCM16_FULL_SCALE
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    else:
        raise FormatError(
            f"{path}: unsupported sample format {data.dtype}; "
            "only 16/24/32-bit integer PCM is accepted"
        )
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return AudioBuffer(samples, int(rate))


def write_wav(path, audio: AudioBuffer) -> None:
    """Write 16-bit PCM, clamping samples to [-1, 1 - 2**-15] first."""
    clipped = np.clip(audio.samples, -1.0, PCM16_MAX_SAMPLE)
    pcm = np.round(clipped * PCM16_FULL_SCALE).astype(np.int16)
    wavfile.write(path, audio.sample_rate_hz, pcm)


def _wola(frames: np.ndarray, window: np.ndarray, frame_shift: int) -> np.ndarray:
    """Weighted overlap-add: window each frame, sum at the hop, divide by the
    accumulated squared window."""
    num_frames, frame_len = frames.shape
    out_len = (num_frames - 1) * frame_shift + frame_len
    numerator = np.zeros(out_len)
    denominator = np.zeros(out_len)
    window_sq = window * window
    for m in range(num_frames):
        start = m * frame_shift
        numerator[start:start + frame_len] += frames[m] * window
        denominator[start:start + frame_len] += window_sq
    return numerator / np.maximum(denominator, WOLA_FLOOR)


def _stft_fixed(x: np.ndarray, window: np.ndarray, frame_shift: int,
                num_frames: int, fft_size: int) -> np.ndarray:
    """Forward STFT with a fixed frame count over a fully covered signal."""
    offsets = frame_shift * np.arange(num_frames)[:, None]
    frames = x[offsets + np.arange(window.shape[0])[None, :]] * window
    return np.fft.rfft(frames, n=fft_size, axis=1)


def griffin_lim(magnitude: MagnitudeSpectrogram,
                iterations: int = DEFAULT_GL_ITERATIONS) -> tuple[AudioBuffer, list[float]]:
    """Phase reconstruction by alternating projections, zero-phase start.

    Each iteration synthesizes a signal estimate by WOLA, re-analyzes it, and
    keeps the resulting phase under the target magnitude. Returns the final
    signal and the per-iteration consistency errors
    ||  |STFT(x_t)| - magnitude ||_F, a non-increasing sequence.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    cfg = magnitude.config
    window = hamming_window(cfg.frame_len)
    num_frames = magnitude.num_frames
    target = magnitude.values.astype(np.float64)
    spectrum = target.astype(complex)
    errors: list[float] = []
    for _ in range(iterations):
        estimate = _wola(np.fft.irfft(spectrum, n=cfg.frame_len, axis=1),
                         window, cfg.frame_shift)
        consistent = _stft_fixed(estimate, window, cfg.frame_shift,
                                 num_frames, cfg.fft_size)
        consistent_mag = np.abs(consistent)
        errors.append(float(np.linalg.norm(consistent_mag - target)))
        safe = np.where(consistent_mag == 0.0, 1.0, consistent_mag)
        phase = np.where(consistent_mag == 0.0, 1.0 + 0.0j, consistent / safe)
        spectrum = target * phase
    estimate = _wola(np.fft.irfft(spectrum, n=cfg.frame_len, axis=1),
                     window, cfg.frame_shift)
    return AudioBuffer(estimate, cfg.sample_rate_hz), errors


_CHUNK_ELEMS = 1 << 22   # bound on rows*codewords handled per distance block


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


def _word_dtype(mode: RateMode) -> np.dtype:
    return np.dtype(f">u{mode.bits_per_frame // 8}")


def pack(codes: np.ndarray, mode: RateMode, codebook_hash: int) -> EncodedStream:
    """Pack a (frames, fields) index array into a stream, validating every
    index against the mode's fixed field widths."""
    widths = mode.field_bits
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2 or codes.shape[1] != len(widths):
        raise ValueError(
            f"{mode.name} packs {len(widths)} fields per frame, "
            f"got codes of shape {codes.shape}"
        )
    bad = np.argwhere((codes < 0) | (codes >= 1 << np.array(widths)))
    if bad.size:
        n, k = bad[0]
        raise ValueError(f"frame {n}: index {codes[n, k]} does not fit in {widths[k]} bits")
    words = np.zeros(len(codes), dtype=np.int64)
    for k, width in enumerate(widths):
        words = (words << width) | codes[:, k]
    payload = words.astype(_word_dtype(mode)).tobytes()
    return EncodedStream(mode, len(codes), codebook_hash, payload)


def unpack_codes(stream: EncodedStream) -> np.ndarray:
    """Unpack the payload into a (frames, fields) index array."""
    widths = np.array(stream.rate_mode.field_bits)
    words = np.frombuffer(stream.payload, dtype=_word_dtype(stream.rate_mode),
                          count=stream.frame_count).astype(np.int64)
    shifts = widths.sum() - np.cumsum(widths)
    return (words[:, None] >> shifts) & ((1 << widths) - 1)
