#!/usr/bin/env python3
"""End-to-end codec demo at desk scale.

Trains both rate modes on a synthetic corpus, codes a held-out utterance
through each, and prints objective quality next to the unquantized
phase-reconstruction pipeline (the quality ceiling of this decoder).

Small codebooks (default 6 bits per stage) keep the run under a minute;
pass --full-bits to train the production 12/13-bit books instead, which
needs a large corpus and correspondingly more time.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from melvq.analysis import FrameConfig, MelSpectrogram, build_mel_filterbank, compute_mfcc
from melvq.bitstream import encode_audio
from melvq.metrics import QualityReport, lsd, mcd, seg_snr, stoi
from melvq.quantizer import RateMode
from melvq.signal_io import AudioBuffer, write_wav
from melvq.signals import speech_like
from melvq.synthesis import decode_stream, griffin_lim, idct_mel, mel_to_linear
from melvq.trainer import TrainingCorpus, train_codebook_set


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("demo_out"))
    parser.add_argument("--train-count", type=int, default=20)
    parser.add_argument("--full-bits", action="store_true",
                        help="train production-size codebooks (slow, needs data)")
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    cfg = FrameConfig()
    filterbank = build_mel_filterbank(cfg)
    t0 = time.time()

    train = [speech_like(1.5, seed=100 + i) for i in range(args.train_count)]
    pooled = np.concatenate(
        [compute_mfcc(a, cfg, filterbank).values for a in train], axis=0
    )
    corpus = TrainingCorpus(pooled, ("synthetic demo corpus",))
    print(f"pooled {pooled.shape[0]} training frames  [{time.time() - t0:.1f}s]")

    if args.full_bits:
        books = {
            RateMode.R1000: train_codebook_set(corpus, RateMode.R1000)[0],
            RateMode.R2000: train_codebook_set(corpus, RateMode.R2000)[0],
        }
    else:
        books = {
            RateMode.R1000: train_codebook_set(
                corpus, RateMode.R1000, sq_bits=3, stage_bits=(6,))[0],
            RateMode.R2000: train_codebook_set(
                corpus, RateMode.R2000, sq_bits=4, stage_bits=(6, 6))[0],
        }
    print(f"codebooks trained  [{time.time() - t0:.1f}s]")

    original = speech_like(2.0, seed=7)
    write_wav(args.outdir / "original.wav", original)
    z_ref = compute_mfcc(original, cfg, filterbank)

    def score(name: str, decoded: AudioBuffer) -> QualityReport:
        n = min(len(original), len(decoded))
        ref = AudioBuffer(original.samples[:n], cfg.sample_rate_hz)
        deg = AudioBuffer(decoded.samples[:n], cfg.sample_rate_hz)
        z_deg = compute_mfcc(deg, cfg, filterbank)
        return QualityReport(
            name,
            stoi(ref, deg),
            mcd(z_ref, z_deg),
            None,
            seg_snr(ref, deg),
        )

    reports = []
    log_mel = idct_mel(z_ref.values)
    ceiling, _ = griffin_lim(mel_to_linear(MelSpectrogram(log_mel, cfg), filterbank))
    write_wav(args.outdir / "unquantized.wav", ceiling)
    reports.append(score("unquantized", ceiling))

    for mode, book in sorted(books.items(), key=lambda kv: -kv[0].value):
        stream = encode_audio(original, book)
        (args.outdir / f"r{mode.value}.mvqc").write_bytes(stream.to_bytes())
        decoded = decode_stream(stream, book)
        write_wav(args.outdir / f"r{mode.value}.wav", decoded)
        reports.append(score(f"r{mode.value}", decoded))
        print(f"{mode.value} bit/s coded  [{time.time() - t0:.1f}s]")

    print()
    for report in reports:
        print(report.format_line())
    print(f"\noutputs in {args.outdir}/  total {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
