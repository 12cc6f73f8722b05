"""Release gate for the codec.

Each test covers one release criterion end to end and prints a single
CRITERION line (visible with -s) stating pass or fail plus the measured
numbers, so a full run doubles as a scorecard:

    pytest tests/test_acceptance.py -v -s

The criteria, in order: exact payload bit rates and encode speed, lossless
bitstream packing, quantizer equivalence with exhaustive search, monotone
codebook training, analysis/synthesis roundtrips, phase-reconstruction
convergence and fidelity, rate-distortion ordering on held-out audio, STOI
sanity, and thread-count independence of every produced artifact.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from melvq.analysis import (
    FrameConfig,
    MelSpectrogram,
    build_mel_filterbank,
    compute_mfcc,
    frame_signal,
    log_mel_spectrogram,
    mfcc,
)
from melvq.bitstream import EncodedStream, encode_audio, pack, stream_bitrate, unpack_codes
from melvq.cli import main
from melvq.metrics import mcd, seg_snr, stoi
from melvq.quantizer import CodebookSet, RateMode, VectorCodebook, quantize_frame
from melvq.signal_io import AudioBuffer, write_wav
from melvq.signals import speech_like, tone
from melvq.synthesis import (
    decode_stream,
    griffin_lim,
    idct_mel,
    magnitude_spectrogram,
    mel_to_linear,
    overlap_add,
)
from melvq.trainer import train_lbg, train_msvq, train_scalar


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n}: {detail}"


# 1. Exact payload bit rates, and encoding stays well ahead of real time.
def test_criterion_1_rate_exactness(cb1000, cb2000):
    audio = speech_like(10.0, seed=42)
    rates = {}
    elapsed = {}
    for books in (cb1000, cb2000):
        t0 = time.perf_counter()
        stream = encode_audio(audio, books)
        elapsed[books.rate_mode] = time.perf_counter() - t0
        rates[books.rate_mode] = stream_bitrate(stream)
    ok = (
        rates[RateMode.R1000] == 1000.0
        and rates[RateMode.R2000] == 2000.0
        and max(elapsed.values()) < 1.0
    )
    _report(1, ok,
            f"bitrates {rates[RateMode.R1000]:g}/{rates[RateMode.R2000]:g} bit/s, "
            f"10 s encode max {max(elapsed.values()):.3f} s")


# 2. Packing then unpacking returns every frame-code sequence unchanged.
def test_criterion_2_bitstream_roundtrip():
    rng = np.random.default_rng(2024)
    sequences = 0
    mismatches = 0
    for mode in (RateMode.R1000, RateMode.R2000):
        widths = mode.field_bits
        for _ in range(10_000):
            count = int(rng.integers(0, 9))
            codes = np.array(
                [[int(rng.integers(0, 1 << w)) for w in widths] for _ in range(count)],
                dtype=np.int64,
            ).reshape(count, len(widths))
            digest = int(rng.integers(0, 2 ** 64, dtype=np.uint64))
            got = EncodedStream.from_bytes(pack(codes, mode, digest).to_bytes())
            sequences += 1
            if (got.rate_mode is not mode or got.codebook_hash != digest
                    or not np.array_equal(unpack_codes(got), codes)):
                mismatches += 1
    ok = sequences >= 20_000 and mismatches == 0
    _report(2, ok,
            f"{sequences} random sequences round-tripped, {mismatches} mismatches")


# 3. The fast searches agree with brute force.
def test_criterion_3_quantizer_matches_exhaustive_search():
    rng = np.random.default_rng(7)
    energy = VectorCodebook(np.array([[0.0], [1.0]]), bits=1)

    def vq_code(vec, books, beam_width=8):
        return quantize_frame(np.concatenate([[0.0], vec]), books, beam_width).vq_indices

    vq_mismatches = 0
    for _ in range(20):
        book = VectorCodebook(rng.standard_normal((16, 8)), bits=4)
        books = CodebookSet(RateMode.R1000, (energy, book))
        for _ in range(1000):
            vec = rng.standard_normal(8)
            dists = [float(((cw - vec) ** 2).sum()) for cw in
                     book.codewords.astype(np.float64)]
            if vq_code(vec, books) != (int(np.argmin(dists)),):
                vq_mismatches += 1

    msvq_off = 0
    for _ in range(50):
        toy = CodebookSet(RateMode.R2000, (
            energy,
            VectorCodebook(rng.standard_normal((4, 6)), bits=2),
            VectorCodebook(rng.standard_normal((4, 6)), bits=2),
        ))
        s1 = toy.stages[1].codewords.astype(np.float64)
        s2 = toy.stages[2].codewords.astype(np.float64)
        for _ in range(20):
            vec = rng.standard_normal(6)
            best = min(
                float(((vec - s1[i] - s2[j]) ** 2).sum())
                for i in range(4) for j in range(4)
            )
            i1, i2 = vq_code(vec, toy, beam_width=4)
            got = float(((vec - s1[i1] - s2[i2]) ** 2).sum())
            if abs(got - best) > 1e-12 * max(best, 1.0):
                msvq_off += 1
    ok = vq_mismatches == 0 and msvq_off == 0
    _report(3, ok,
            f"20000 VQ searches ({vq_mismatches} mismatches), "
            f"1000 two-stage searches ({msvq_off} off-optimum)")


# 4. Every training trace is non-increasing; separable data trains to zero.
def test_criterion_4_training_monotonicity(train_corpus):
    rng = np.random.default_rng(11)
    reports = [
        train_scalar(train_corpus.vectors[:, 0], bits=3)[1],
        train_lbg(train_corpus.vectors[:, 1:], bits=4)[1],
        train_msvq(train_corpus.vectors[:, 1:], bits_per_stage=(3, 3))[1],
        train_lbg(rng.standard_normal((500, 5)), bits=3)[1],
        train_scalar(rng.standard_normal(300), bits=4)[1],
    ]
    traces = [r.distortions for r in reports]
    for r in reports:
        traces.extend(s.distortions for s in r.stage_reports)
    increases = sum(
        b > a for trace in traces for a, b in zip(trace, trace[1:])
    )

    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    book, report = train_lbg(np.repeat(corners, 8, axis=0), bits=2)
    corner_zero = report.final_distortion == 0.0
    ok = increases == 0 and corner_zero
    _report(4, ok,
            f"{len(traces)} traces, {increases} increases; "
            f"4-corner final distortion {report.final_distortion:g}")


# 5. Transform and overlap-add roundtrips, and filterbank centering.
def test_criterion_5_analysis_synthesis_roundtrips(frame_config, filterbank):
    rng = np.random.default_rng(3)
    log_mel = rng.standard_normal((40, 80))
    back = idct_mel(mfcc(MelSpectrogram(log_mel, frame_config)).values)
    dct_rel = np.max(np.abs(back - log_mel)) / np.max(np.abs(log_mel))

    audio = speech_like(1.0, seed=4)
    fm = frame_signal(audio, frame_config)
    rec = overlap_add(fm.frames, fm.window, frame_config.frame_shift)
    lo, hi = frame_config.frame_len, len(audio) - frame_config.frame_len
    ola_rel = (np.max(np.abs(rec.samples[lo:hi] - audio.samples[lo:hi]))
               / np.max(np.abs(audio.samples)))

    centers = np.array(
        [filterbank.band_center_hz(b) for b in range(filterbank.num_bands)]
    )
    expected_band = int(np.argmin(np.abs(centers - 1000.0)))
    mel = log_mel_spectrogram(frame_signal(tone(1000.0, 0.5), frame_config),
                              filterbank)
    hit_band = int(np.argmax(mel.values.mean(axis=0)))

    ok = dct_rel <= 1e-9 and ola_rel <= 1e-6 and hit_band == expected_band
    _report(5, ok,
            f"DCT roundtrip {dct_rel:.2e}, overlap-add {ola_rel:.2e}, "
            f"1 kHz tone in band {hit_band} (nearest center {expected_band})")


# 6. Phase reconstruction converges and recovers a reachable reference.
def test_criterion_6_griffin_lim(frame_config):
    increases = 0
    for audio in (speech_like(1.0, seed=0), speech_like(1.0, seed=1)):
        mag = magnitude_spectrogram(frame_signal(audio, frame_config))
        _, errors = griffin_lim(mag, iterations=60)
        increases += sum(b > a + 1e-9 for a, b in zip(errors, errors[1:]))

    fs = frame_config.sample_rate_hz
    t = np.arange(2 * fs) / fs
    sweep = np.sin(2 * np.pi * (100.0 * t + (3900.0 / 4.0) * t ** 2))
    am = 0.5 * (1.0 - np.cos(2 * np.pi * 4.0 * t))
    chirp = AudioBuffer(0.5 * sweep * am, fs)

    # The reference is itself a projection output, so its magnitude admits
    # a phase reachable from the deterministic zero-phase start.
    mag0 = magnitude_spectrogram(frame_signal(chirp, frame_config))
    reference, _ = griffin_lim(mag0, iterations=60)
    mag = magnitude_spectrogram(frame_signal(reference, frame_config))
    rebuilt, errors = griffin_lim(mag, iterations=60)
    increases += sum(b > a + 1e-9 for a, b in zip(errors, errors[1:]))

    n = min(len(reference), len(rebuilt))
    snr = seg_snr(AudioBuffer(reference.samples[:n], fs),
                  AudioBuffer(rebuilt.samples[:n], fs))
    ok = increases == 0 and snr > 5.0
    _report(6, ok,
            f"{increases} consistency increases over 3 inputs x 60 iterations, "
            f"reconstruction segSNR {snr:.1f} dB (> 5 required)")


# 7. More bits never hurt: unquantized <= 2000 bit/s <= 1000 bit/s in MCD.
def test_criterion_7_rate_distortion_ordering(
    held_out_utterances, cb1000, cb2000, frame_config, filterbank
):
    t0 = time.perf_counter()
    sums = {"unquantized": 0.0, "r2000": 0.0, "r1000": 0.0}
    for audio in held_out_utterances:
        z_ref = compute_mfcc(audio, frame_config, filterbank)

        def score(decoded: AudioBuffer) -> float:
            n = min(len(audio), len(decoded))
            deg = AudioBuffer(decoded.samples[:n], frame_config.sample_rate_hz)
            return mcd(z_ref, compute_mfcc(deg, frame_config, filterbank))

        ceiling, _ = griffin_lim(mel_to_linear(
            MelSpectrogram(idct_mel(z_ref.values), frame_config), filterbank))
        sums["unquantized"] += score(ceiling)
        sums["r2000"] += score(decode_stream(encode_audio(audio, cb2000), cb2000))
        sums["r1000"] += score(decode_stream(encode_audio(audio, cb1000), cb1000))
    count = len(held_out_utterances)
    means = {name: value / count for name, value in sums.items()}
    elapsed = time.perf_counter() - t0
    ok = (
        count >= 20
        and means["unquantized"] <= means["r2000"] <= means["r1000"]
        and elapsed < 300.0
    )
    _report(7, ok,
            f"mean MCD over {count} utterances: "
            f"unquantized {means['unquantized']:.2f} <= "
            f"r2000 {means['r2000']:.2f} <= r1000 {means['r1000']:.2f} dB "
            f"in {elapsed:.1f} s")


# 8. STOI equals 1 on identical inputs, ignores gain, and stays low on noise.
def test_criterion_8_stoi_sanity():
    fs = 16000
    t = np.arange(2 * fs) / fs
    f0 = 120.0 * (1.0 + 0.1 * np.sin(2.0 * np.pi * 0.8 * t))
    theta = 2.0 * np.pi * np.cumsum(f0) / fs
    vowel = sum(np.sin(k * theta + 0.2 * k) / k for k in range(1, 25))
    vowel = AudioBuffer(0.5 * vowel / np.max(np.abs(vowel)), fs)

    self_err = abs(stoi(vowel, vowel) - 1.0)
    scaled = AudioBuffer(0.25 * vowel.samples, fs)
    scale_err = abs(stoi(vowel, scaled) - 1.0)
    noise = AudioBuffer(
        0.3 * np.random.default_rng(1).standard_normal(len(vowel)), fs)
    noise_score = stoi(vowel, noise)

    ok = self_err <= 1e-6 and scale_err <= 1e-6 and noise_score < 0.3
    _report(8, ok,
            f"self {1.0 - self_err:.8f}, gain-invariance error {scale_err:.1e}, "
            f"noise pair {noise_score:.3f} (< 0.3 required)")


# 9. Thread count never changes any produced byte.
def test_criterion_9_determinism(tmp_path, monkeypatch, train_utterances):
    manifest = tmp_path / "train.txt"
    paths = []
    for n, audio in enumerate(train_utterances[:8]):
        path = tmp_path / f"train_{n}.wav"
        write_wav(path, audio)
        paths.append(str(path))
    manifest.write_text("\n".join(paths) + "\n")
    wav_in = tmp_path / "input.wav"
    write_wav(wav_in, speech_like(1.5, seed=9))

    def full_run(threads: int) -> dict[str, bytes]:
        monkeypatch.setenv("MELVQ_THREADS", str(threads))
        out = tmp_path / f"threads_{threads}"
        out.mkdir()
        book, stream = out / "cb.mvqb", out / "s.mvqc"
        rec, report = out / "rec.wav", out / "report.txt"
        assert main(["train", "--manifest", str(manifest), "--rate", "2000",
                     "--codebook", str(book),
                     "--sq-bits", "4", "--stage-bits", "5,5"]) == 0
        assert main(["encode", str(wav_in), str(stream),
                     "--codebook", str(book)]) == 0
        assert main(["decode", str(stream), str(rec), "--codebook", str(book),
                     "--gl-iters", "30"]) == 0
        assert main(["eval", str(wav_in), str(rec),
                     "--report", str(report)]) == 0
        return {p.name: p.read_bytes() for p in (book, stream, rec, report)}

    first = full_run(1)
    second = full_run(4)
    differing = [name for name in first if first[name] != second[name]]
    ok = not differing
    _report(9, ok,
            "codebooks, streams, audio, and reports byte-identical for "
            f"MELVQ_THREADS=1 vs 4 (differing: {differing or 'none'})")
