"""Command-line front end: train, encode, decode, eval, inspect.

Exit codes are distinct per error class:

    0  success, all outputs written
    2  usage error (bad arguments, malformed flag values)
    3  file I/O error (missing or unreadable input)
    4  sample-rate mismatch (codec input must be 16 kHz)
    5  container format error (bad magic/version, truncation, mode mismatch)
    6  codebook hash mismatch between a stream and the loaded codebooks
    7  insufficient training data for the requested codebook size

The MELVQ_THREADS environment variable caps the worker count for per-file
feature extraction and evaluation; results are identical for any setting.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import synthesis
from .analysis import FrameConfig, build_mel_filterbank, compute_mfcc, frame_signal, mfcc, log_mel_spectrogram
from .bitstream import STREAM_MAGIC, EncodedStream, encode_audio, stream_bitrate, unpack_codes
from .errors import (
    FormatError,
    HashMismatchError,
    InsufficientDataError,
    SampleRateError,
)
from .metrics import QualityReport, lsd, mcd, seg_snr, stoi
from .quantizer import CODEBOOK_MAGIC, DEFAULT_BEAM_WIDTH, RateMode, dequantize
from .signal_io import AudioBuffer, read_wav, write_wav
from .synthesis import (
    MELSPEC_MAGIC,
    MelSpectrogram,
    decode_stream,
    export_mel,
    idct_mel,
    import_mel,
    magnitude_spectrogram,
)
from .trainer import (
    TrainingCorpus,
    load_codebooks,
    save_codebooks,
    train_codebook_set,
)
from .workers import ordered_map

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SAMPLE_RATE = 4
EXIT_FORMAT = 5
EXIT_HASH = 6
EXIT_TRAINING_DATA = 7


def _read_manifest(path) -> list[str]:
    lines = Path(path).read_text().splitlines()
    entries = [line.strip() for line in lines]
    return [line for line in entries if line and not line.startswith("#")]


def _parse_rate(value: str) -> RateMode:
    if value not in ("1000", "2000"):
        raise argparse.ArgumentTypeError("rate must be 1000 or 2000")
    return RateMode(int(value))


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _parse_stage_bits(value: str) -> tuple[int, ...]:
    try:
        bits = tuple(int(part) for part in value.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("stage bits must be integers like 6,6") from exc
    if not bits or any(b < 1 for b in bits):
        raise argparse.ArgumentTypeError("stage bits must be positive")
    return bits


def cmd_train(args) -> int:
    paths = _read_manifest(args.manifest)
    if not paths:
        raise InsufficientDataError(f"{args.manifest}: manifest lists no input files")
    cfg = FrameConfig()
    filterbank = build_mel_filterbank(cfg)

    def extract(path):
        return compute_mfcc(read_wav(path), cfg, filterbank).values

    pooled = np.concatenate(ordered_map(extract, paths), axis=0)
    corpus = TrainingCorpus(pooled, tuple(paths))
    codebooks, reports = train_codebook_set(
        corpus, args.rate, sq_bits=args.sq_bits, stage_bits=args.stage_bits
    )
    save_codebooks(codebooks, args.codebook)
    print(f"trained on {pooled.shape[0]} frames from {len(paths)} file(s)")
    for name, report in reports.items():
        print(
            f"{name}: iterations={report.iterations} "
            f"final_distortion={report.final_distortion:.6e}"
        )
    print(
        f"wrote {args.codebook} (mode {args.rate.value} bit/s, "
        f"hash {codebooks.content_hash:016x})"
    )
    return EXIT_OK


def cmd_encode(args) -> int:
    codebooks = load_codebooks(args.codebook, expected_mode=args.rate)
    audio = read_wav(args.input)
    stream = encode_audio(audio, codebooks, beam_width=args.beam)
    Path(args.output).write_bytes(stream.to_bytes())
    rate = stream_bitrate(stream)
    print(
        f"encoded {stream.frame_count} frames at {rate:g} bit/s "
        f"to {args.output}"
    )
    return EXIT_OK


def cmd_decode(args) -> int:
    codebooks = load_codebooks(args.codebook)
    stream = EncodedStream.from_bytes(Path(args.input).read_bytes())
    audio = decode_stream(stream, codebooks, gl_iterations=args.gl_iters)
    write_wav(args.output, audio)
    if args.emit_mel is not None:
        coefficients = dequantize(unpack_codes(stream), codebooks)
        mel = MelSpectrogram(idct_mel(coefficients), FrameConfig())
        export_mel(mel, args.emit_mel)
        print(f"wrote mel-spectrogram to {args.emit_mel}")
    print(
        f"decoded {stream.frame_count} frames "
        f"({audio.duration_seconds:.3f} s) to {args.output}"
    )
    return EXIT_OK


def _evaluate_pair(ref_path: str, deg_path: str, cfg: FrameConfig) -> QualityReport:
    reference = read_wav(ref_path)
    degraded = read_wav(deg_path)
    if reference.sample_rate_hz != cfg.sample_rate_hz:
        raise SampleRateError(f"{ref_path}: expected {cfg.sample_rate_hz} Hz")
    if degraded.sample_rate_hz != cfg.sample_rate_hz:
        raise SampleRateError(f"{deg_path}: expected {cfg.sample_rate_hz} Hz")
    n = min(len(reference), len(degraded))
    reference = AudioBuffer(reference.samples[:n], reference.sample_rate_hz)
    degraded = AudioBuffer(degraded.samples[:n], degraded.sample_rate_hz)
    try:
        stoi_value = stoi(reference, degraded)
    except ValueError:
        stoi_value = None
    filterbank = build_mel_filterbank(cfg)
    ref_frames = frame_signal(reference, cfg)
    deg_frames = frame_signal(degraded, cfg)
    ref_mel = log_mel_spectrogram(ref_frames, filterbank)
    deg_mel = log_mel_spectrogram(deg_frames, filterbank)
    report = QualityReport(
        Path(ref_path).stem,
        stoi_value,
        mcd(mfcc(ref_mel), mfcc(deg_mel)),
        lsd(magnitude_spectrogram(ref_frames), magnitude_spectrogram(deg_frames)),
        seg_snr(reference, degraded),
    )
    return report


def cmd_eval(args) -> int:
    cfg = FrameConfig()
    if args.manifest is not None:
        pairs = []
        for line in _read_manifest(args.manifest):
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(
                    f"{args.manifest}: each line must hold a reference and a "
                    f"degraded path, got {line!r}"
                )
            pairs.append((parts[0], parts[1]))
        if not pairs:
            raise FormatError(f"{args.manifest}: manifest lists no pairs")
    elif args.reference is not None and args.degraded is not None:
        pairs = [(args.reference, args.degraded)]
    else:
        raise FormatError("eval needs either --manifest or a reference and degraded pair")
    reports = ordered_map(lambda pair: _evaluate_pair(pair[0], pair[1], cfg), pairs)
    lines = [report.format_line() for report in reports]
    lines.append(QualityReport.corpus_mean(reports).format_line())
    text = "\n".join(lines) + "\n"
    if args.report is not None:
        Path(args.report).write_text(text)
    print(text, end="")
    return EXIT_OK


def cmd_inspect(args) -> int:
    data = Path(args.input).read_bytes()
    magic = data[:4]
    if magic == STREAM_MAGIC:
        stream = EncodedStream.from_bytes(data)
        cfg = FrameConfig()
        duration = ((stream.frame_count - 1) * cfg.frame_shift + cfg.frame_len
                    ) / cfg.sample_rate_hz if stream.frame_count else 0.0
        print(f"stream: mode={stream.rate_mode.value} bit/s frames={stream.frame_count}")
        print(f"codebook_hash={stream.codebook_hash:016x}")
        print(f"payload_bitrate={stream_bitrate(stream):g} bit/s "
              f"decoded_duration={duration:.3f} s")
    elif magic == CODEBOOK_MAGIC:
        codebooks = load_codebooks(args.input)
        print(f"codebooks: mode={codebooks.rate_mode.value} bit/s "
              f"dim={codebooks.vector_dim}")
        print(f"scalar_bits={codebooks.stages[0].bits} stage_bits={codebooks.stage_bits}")
        print(f"content_hash={codebooks.content_hash:016x}")
    elif magic == MELSPEC_MAGIC:
        mel = import_mel(args.input)
        cfg = mel.config
        print(f"mel-spectrogram: frames={mel.values.shape[0]} bands={cfg.num_bands}")
        print(f"sample_rate={cfg.sample_rate_hz} frame_len={cfg.frame_len} "
              f"frame_shift={cfg.frame_shift}")
    else:
        raise FormatError(f"{args.input}: unrecognized magic {magic!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melvq",
        description="Low-bit-rate speech codec: train codebooks, encode, "
                    "decode, evaluate, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train codebooks from a WAV manifest")
    train.add_argument("--manifest", required=True, help="text file, one WAV path per line")
    train.add_argument("--rate", type=_parse_rate, default=RateMode.R1000,
                       help="target rate: 1000 or 2000 (default 1000)")
    train.add_argument("--codebook", required=True, help="output codebook path")
    train.add_argument("--sq-bits", type=int, default=None,
                       help="override scalar bit width (production default 4 or 6)")
    train.add_argument("--vq-bits", type=_parse_stage_bits, dest="stage_bits",
                       help="override single-stage VQ bit width (rate 1000)")
    train.add_argument("--stage-bits", type=_parse_stage_bits, default=None,
                       help="override per-stage bit widths, e.g. 6,6 (rate 2000)")

    encode = sub.add_parser("encode", help="encode a 16 kHz WAV to a stream")
    encode.add_argument("input", help="input WAV path")
    encode.add_argument("output", help="output stream path")
    encode.add_argument("--codebook", required=True)
    encode.add_argument("--rate", type=_parse_rate, default=None,
                        help="require the codebook to match this rate")
    encode.add_argument("--beam", type=_positive_int, default=DEFAULT_BEAM_WIDTH,
                        help=f"MSVQ beam width (default {DEFAULT_BEAM_WIDTH})")

    decode = sub.add_parser("decode", help="decode a stream to a WAV")
    decode.add_argument("input", help="input stream path")
    decode.add_argument("output", help="output WAV path")
    decode.add_argument("--codebook", required=True)
    decode.add_argument("--gl-iters", type=_positive_int,
                        default=synthesis.DEFAULT_GL_ITERATIONS,
                        help="Griffin-Lim iterations "
                             f"(default {synthesis.DEFAULT_GL_ITERATIONS})")
    decode.add_argument("--emit-mel", default=None,
                        help="also write the decoded mel-spectrogram here")

    evaluate = sub.add_parser("eval", help="score degraded audio against references")
    evaluate.add_argument("reference", nargs="?", default=None)
    evaluate.add_argument("degraded", nargs="?", default=None)
    evaluate.add_argument("--manifest", default=None,
                          help="text file of 'reference degraded' path pairs")
    evaluate.add_argument("--report", default=None, help="write the report here")

    inspect = sub.add_parser("inspect", help="print header fields of a codec file")
    inspect.add_argument("input")

    return parser


_HANDLERS = {
    "train": cmd_train,
    "encode": cmd_encode,
    "decode": cmd_decode,
    "eval": cmd_eval,
    "inspect": cmd_inspect,
}

_ERROR_EXIT_CODES = (
    (SampleRateError, EXIT_SAMPLE_RATE),
    (HashMismatchError, EXIT_HASH),
    (InsufficientDataError, EXIT_TRAINING_DATA),
    (FormatError, EXIT_FORMAT),
    (OSError, EXIT_IO),
    (ValueError, EXIT_USAGE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except tuple(pair[0] for pair in _ERROR_EXIT_CODES) as exc:
        for error_type, code in _ERROR_EXIT_CODES:
            if isinstance(exc, error_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise  # unreachable, the tuple above mirrors the table


if __name__ == "__main__":
    sys.exit(main())
