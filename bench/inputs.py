"""Seeded benchmark inputs, written once per seed and then reused.

Every input the program sees is a file made here: 16 kHz PCM WAVs and
production-size codebook containers (4+12 and 6+13+13 bits). The same seed
always gives the same bytes. Codebooks are drawn from the MFCC frames of the
seed's training corpus rather than from noise, so codeword distances and
ties look like those of trained books:

- scalar levels: corpus energy coefficients, half at evenly spaced values
  from the lowest (digital silence) to the highest, so the sparse range of
  fading and zero-padded frames is covered, and the rest at evenly spaced
  ranks, dense where most frames are
- stage 1: sampled corpus frames (digital silence makes exact duplicates)
- stage 2: scaled differences of random frame pairs

Files are written with the benchmark's own WAV and container writers, which
follow the formats documented in the README.
"""

from __future__ import annotations

import os
import shutil
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
FRAME_LEN = 1024
FRAME_SHIFT = 256
GENERATOR_VERSION = 7  # bump when any rule below changes the generated bytes

# 160 one-second utterances (10k frames, enough for 8192 distinct stage-1
# rows): many voices, so the books cover new voices about equally well.
CORPUS_UTTERANCES = 160
CORPUS_SECONDS = 1.0
LONG_SECONDS = (3.0, 6.0, 18.0)  # codec-long: one pass is about one 10 s window
CLIP_COUNT = 3
CLIP_SECONDS = (0.8, 1.2)
PROBE_CLIP_COUNT = 8  # more voices for cli-short's quality figures
HELDOUT_COUNT = 12  # many voices, so train-prod's quality figures vary little by seed
HELDOUT_SECONDS = 1.0
STAGE2_SCALE = 0.5

# Production layouts: rate -> (mode byte, scalar bits, stage bits).
LAYOUTS = {1000: (0, 4, (12,)), 2000: (1, 6, (13, 13))}

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    digest = FNV64_OFFSET
    for byte in data:
        digest = ((digest ^ byte) * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return digest


def write_wav(path: Path, samples: np.ndarray) -> None:
    """16-bit mono PCM, the same scaling the codec's own writer uses."""
    pcm = np.round(np.clip(samples, -1.0, 1.0 - 2.0 ** -15) * 32768.0).astype("<i2")
    with wave.open(str(path), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(SAMPLE_RATE)
        out.writeframes(pcm.tobytes())


def read_wav(path: Path) -> np.ndarray:
    """Strict 16-bit mono reader: a file holding fewer frames than its header
    declares is an error, not a short signal."""
    with wave.open(str(path), "rb") as src:
        if (src.getnchannels(), src.getsampwidth(), src.getframerate()) != (1, 2, SAMPLE_RATE):
            raise ValueError(f"{path}: not 16 kHz 16-bit mono")
        declared = src.getnframes()
        data = src.readframes(declared)
    if len(data) != 2 * declared:
        raise ValueError(f"{path}: truncated, {len(data) // 2} of {declared} frames")
    return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0


@dataclass(frozen=True, eq=False)
class Book:
    """A parsed codebook container."""

    rate: int
    levels: np.ndarray            # float32 scalar levels
    stages: tuple[np.ndarray, ...]  # float32 (2**bits, dim) tables
    digest: int                   # stored FNV-1a digest of the payload

    @property
    def stage_bits(self) -> tuple[int, ...]:
        return tuple(int(s.shape[0]).bit_length() - 1 for s in self.stages)


def book_bytes(rate: int, levels: np.ndarray, stages: list[np.ndarray]) -> bytes:
    """A codebook container; bit widths follow from the table sizes."""
    bits = [len(levels).bit_length() - 1] + [len(s).bit_length() - 1 for s in stages]
    payload = b"".join(
        [b"MVQB", bytes([1, LAYOUTS[rate][0], bits[0]]), int(stages[0].shape[1]).to_bytes(2, "little"),
         bytes(bits[1:]), np.asarray(levels, "<f4").tobytes()]
        + [np.asarray(s, "<f4").tobytes() for s in stages])
    return payload + fnv1a64(payload).to_bytes(8, "little")


def read_book(path: Path) -> Book:
    data = Path(path).read_bytes()
    if data[:4] != b"MVQB" or data[4] != 1:
        raise ValueError(f"{path}: not a codebook container")
    rate = {0: 1000, 1: 2000}[data[5]]
    sq_bits, dim = data[6], int.from_bytes(data[7:9], "little")
    count = len(LAYOUTS[rate][2])
    stage_bits = data[9:9 + count]
    offset = 9 + count
    levels = np.frombuffer(data, "<f4", 2 ** sq_bits, offset)
    offset += 4 * levels.size
    stages = []
    for bits in stage_bits:
        stages.append(np.frombuffer(data, "<f4", dim << bits, offset).reshape(1 << bits, dim))
        offset += 4 * (dim << bits)
    if offset + 8 != len(data):
        raise ValueError(f"{path}: size does not match its header")
    return Book(rate, levels, tuple(stages), int.from_bytes(data[-8:], "little"))


def utterance(rng: np.random.Generator, seconds: float, pauses: bool) -> np.ndarray:
    """speech_like segments; with pauses, 2 or 3 segments separated by runs of
    exact zeros (digital silence) of 0.2 to 0.6 s, at most half the total."""
    from melvq.signals import speech_like

    total = round(seconds * SAMPLE_RATE)
    if not pauses:
        return speech_like(total / SAMPLE_RATE, seed=int(rng.integers(2 ** 31))).samples
    segments = int(rng.integers(2, 4))
    gaps = rng.uniform(0.2, 0.6, segments - 1) * SAMPLE_RATE
    gaps = [round(g) for g in gaps * min(1.0, 0.5 * total / gaps.sum())]
    cuts = np.sort(rng.choice(np.arange(1, segments * 8), segments - 1, replace=False))
    speech = total - sum(gaps)
    bounds = np.concatenate([[0], np.round(cuts / (segments * 8) * speech), [speech]]).astype(int)
    parts = []
    for k in range(segments):
        length = int(bounds[k + 1] - bounds[k])
        parts.append(speech_like(length / SAMPLE_RATE, seed=int(rng.integers(2 ** 31))).samples)
        if k < segments - 1:
            parts.append(np.zeros(gaps[k]))
    return np.concatenate(parts)


def scalar_levels(energies: np.ndarray, count: int) -> np.ndarray:
    """count distinct values of the sorted array energies: the first at or
    above each of count // 2 evenly spaced values over its range, and the
    rest at evenly spaced ranks among the others."""
    by_value = np.searchsorted(energies, np.linspace(energies[0], energies[-1], count // 2))
    chosen = np.unique(np.minimum(by_value, energies.size - 1))
    rest = np.setdiff1d(np.arange(energies.size), chosen)
    by_rank = rest[np.round(np.linspace(0, rest.size - 1, count - chosen.size)).astype(int)]
    return energies[np.union1d(chosen, by_rank)]


@dataclass(frozen=True)
class Inputs:
    """Paths of one seed's generated files."""

    root: Path

    def wavs(self, group: str) -> list[Path]:
        return sorted((self.root / group).glob("*.wav"))

    def book(self, rate: int) -> Path:
        return self.root / f"r{rate}.mvqb"


def make_inputs(cache: Path, seed: int) -> Inputs:
    """Generate the seed's inputs under cache unless a finished copy exists."""
    root = cache / f"v{GENERATOR_VERSION}-seed{seed}"
    if (root / "done").exists():
        return Inputs(root)
    from melvq import AudioBuffer, compute_mfcc

    tmp = cache / f"{root.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    for group in ("corpus", "long", "clips", "probe", "heldout"):
        (tmp / group).mkdir(parents=True)
    rng = np.random.default_rng([seed % 2 ** 64, GENERATOR_VERSION])

    frames = []
    for k in range(CORPUS_UTTERANCES):
        x = utterance(rng, CORPUS_SECONDS, pauses=k % 4 == 0)
        write_wav(tmp / "corpus" / f"c{k:03d}.wav", x)
        frames.append(compute_mfcc(AudioBuffer(x, SAMPLE_RATE)).values)
    for k, seconds in enumerate(rng.permutation(LONG_SECONDS)):
        write_wav(tmp / "long" / f"u{k}.wav", utterance(rng, seconds, pauses=seconds > 5))
    for group, count in (("clips", CLIP_COUNT), ("probe", PROBE_CLIP_COUNT)):
        for k in range(count):
            write_wav(tmp / group / f"{group[0]}{k}.wav",
                      utterance(rng, rng.uniform(*CLIP_SECONDS), False))
    for k in range(HELDOUT_COUNT):
        write_wav(tmp / "heldout" / f"h{k}.wav", utterance(rng, HELDOUT_SECONDS, False))

    z = np.concatenate(frames)
    energies = np.unique(z[:, 0].astype(np.float32))
    for rate, (_, sq_bits, stage_bits) in LAYOUTS.items():
        levels = scalar_levels(energies, 2 ** sq_bits)
        rows = rng.choice(len(z), 2 ** stage_bits[0], replace=len(z) < 2 ** stage_bits[0])
        stages = [z[rows, 1:]]
        for bits in stage_bits[1:]:
            a, b = rng.integers(len(z), size=(2, 2 ** bits))
            stages.append(STAGE2_SCALE * (z[a, 1:] - z[b, 1:]))
        (tmp / f"r{rate}.mvqb").write_bytes(book_bytes(rate, levels, stages))
    (tmp / "done").write_text("")
    try:
        tmp.rename(root)
    except OSError:  # another run finished the same seed first
        shutil.rmtree(tmp, ignore_errors=True)
    return Inputs(root)
