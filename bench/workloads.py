"""The three workloads and the phases they are built from.

Every workload is closed-loop with a single client: one request at a time
from one process, the next sent only when the previous one has finished.

- codec phase: in-process `encode_audio` at 1000 and 2000 bit/s and
  `decode_stream` of both streams, per utterance, with books loaded before
  timing.
- cli phase: per clip, five fresh `melvq` processes: encode, decode
  --emit-mel, eval, inspect of the stream and inspect of the codebook.
- train phase: the `melvq train` path in-process over a WAV manifest.

A workload runs its own phase for the --seconds window (never fewer than
one pass over its inputs) and small probes of the other two phases before
and after it, so that every run reports every end-to-end metric. Outputs
are checked after the timed phases; see check.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import check
from check import Checker, frame_count
from inputs import SAMPLE_RATE, Inputs, fnv1a64, read_book, read_wav
from layers import HOOKS, PROCESS, layer_metrics, parse_importtime
from spans import Tracer, tail_percentile

BENCH = Path(__file__).resolve().parent
# What the `melvq` console script runs.
CLI = ["-c", "import sys; from melvq.cli import main; sys.exit(main())"]
SETUP = ("import sys, time; t = time.perf_counter(); import melvq; "
         "[melvq.load_codebooks(p) for p in sys.argv[1:]]; print(time.perf_counter() - t)")
SETUP_REPEATS = 3           # per probe slot, before and after the timed phase
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120
CHECK_FRAMES = 6            # oracle-checked frames per stream, plus one silent frame
PROBE_CORPUS_FILES = 40     # desk-scale training used as the train probe
PROBE_TRAIN_ARGS = ("--sq-bits", "4", "--vq-bits", "8")
PROBE_TRAIN_RUNS = 5        # per probe slot

CLI_METRICS = {"inspect-stream": "cli_start_s", "inspect-book": "cli_load_s",
               "encode": "cli_encode_s", "decode": "cli_decode_s", "eval": "cli_eval_s"}


def run_child(cmd: list[str], cwd: Path, stdout_path: Path) -> tuple[int, str, str, float, int]:
    """Run a process to completion; returns (exit code, stdout, stderr, wall
    seconds, peak RSS in KiB). Waiting with wait4 gives this child's own peak
    memory; a timer kills a child that hangs."""
    with open(stdout_path, "w+") as out, open(stdout_path.with_suffix(".err"), "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss


class Run:
    """State of one benchmark run: timings, deferred checks and quality sums."""

    def __init__(self, workload: str, inputs: Inputs, work: Path, root: Path, seed: int):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.root = root
        self.checker = Checker()
        self.rng = np.random.default_rng([seed % 2 ** 64, 2])  # frames the oracle checks
        self.tracer: Tracer | None = None
        self.times: dict[str, list[float]] = defaultdict(list)
        self.rtf_work: dict[str, float] = defaultdict(float)
        self.rtf_audio: dict[str, float] = defaultdict(float)
        self.deferred: list = []
        self.sq_err = 0.0
        self.coefficients = 0
        self.mcd: list[float] = []
        self.stoi: list[float] = []
        self.child_peak_kib = 0
        self.trained: Path | None = None
        self.children = 0  # numbers the files of each started process

    # -- plumbing --------------------------------------------------------------
    def set_request(self, request: str) -> None:
        if self.tracer is not None:
            self.tracer.request = request

    def call(self, op: str, fn, *args):
        """Attempt one program call as operation op; returns (result, seconds)."""
        start = time.perf_counter()
        result = self.checker.attempt(op, fn, *args)
        return result, time.perf_counter() - start

    def later(self, op: str, fn, *args) -> None:
        """Check an output of op after the timed phases."""
        self.deferred.append((op, fn, args))

    def run_checks(self) -> None:
        for op, fn, args in self.deferred:
            self.checker.verify(op, fn, *args)
        self.deferred.clear()

    def process(self, op: str, name: str, argv: list[str]) -> str | None:
        """One fresh melvq process, as the console script runs it."""
        if self.tracer is None:
            return self.spawn(op, name, [sys.executable, *CLI, *argv])
        self.children += 1
        spans_path = self.work / f"child{self.children}.spans.json"
        with self.tracer.span(PROCESS, command=name) as record:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans_path),
                   str(record[0]), str(self.tracer.request), *argv]
            stdout = self.spawn(op, name, cmd)
        if spans_path.exists():
            self.tracer.adopt(json.loads(spans_path.read_text()))
        return stdout

    def spawn(self, op: str, name: str, cmd: list[str]) -> str | None:
        """Run cmd as operation op, record its wall time under name, and
        return its standard output, or None when it failed."""
        self.children += 1
        stdout_path = self.work / f"child{self.children}.out"
        result, _ = self.call(op, run_child, cmd, self.root, stdout_path)
        if result is None:
            return None
        code, stdout, stderr, wall, peak = result
        self.times[name].append(wall)
        self.child_peak_kib = max(self.child_peak_kib, peak)
        if code != 0:
            self.checker.verify(op, check.require, False, f"exit {code}: {stderr.strip()[-300:]}")
            return None
        return stdout

    def manifest(self, wavs: list[Path], name: str) -> Path:
        path = self.work / name
        path.write_text("".join(f"{p.resolve()}\n" for p in wavs))
        return path

    def add_quality(self, z, codes, book, reference, decoded) -> None:
        err, count = check.vq_sq_error(z, codes, book)
        self.sq_err += err
        self.coefficients += count
        mcd_db, stoi = check.quality(reference, decoded)
        self.mcd.append(mcd_db)
        if stoi is not None:
            self.stoi.append(stoi)


def _stream_checks(run: Run, data: bytes, book, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Container, program view and oracle checks of one stream; returns its
    codes and the MFCC frames of its input."""
    from melvq import AudioBuffer, EncodedStream, compute_mfcc

    codes = check.parse_stream(data, book, frame_count(samples.size))
    check.check_program_view(EncodedStream.from_bytes(data), codes, book.rate)
    z = compute_mfcc(AudioBuffer(samples, SAMPLE_RATE)).values
    check.check_codes(z, codes, book, check.sample_frames(run.rng, samples, CHECK_FRAMES))
    return codes, z


# -- phases -------------------------------------------------------------------------

def codec_phase(run: Run, wavs: list[Path], books: dict[int, Path], quality_rates,
                deadline: float, minimum: int) -> int:
    import melvq

    for rate in [rate for rate, path in books.items() if path is None]:
        run.checker.attempt(f"load r{rate} book", check.require, False, "no book to load")
        del books[rate]
    program = {rate: run.checker.attempt(f"load {path.name}", melvq.load_codebooks, path)
               for rate, path in books.items()}
    own = {rate: read_book(path) for rate, path in books.items()}
    audio = {wav: melvq.read_wav(wav) for wav in wavs}
    first: dict[tuple, tuple] = {}
    n = 0
    while n < minimum or time.perf_counter() < deadline:
        wav = wavs[n % len(wavs)]
        n += 1
        request = f"{wav.stem}#{n}"
        run.set_request(request)
        seconds = audio[wav].duration_seconds
        started = time.perf_counter()
        streams = {}
        for rate, books_loaded in program.items():
            streams[rate], took = run.call(f"encode {request} r{rate}", melvq.encode_audio,
                                           audio[wav], books_loaded)
            run.rtf_work[f"encode_r{rate}"] += took
            run.rtf_audio[f"encode_r{rate}"] += seconds
        decoded = {}
        for rate, stream in streams.items():
            decoded[rate], took = run.call(f"decode {request} r{rate}", melvq.decode_stream,
                                           stream, program[rate])
            run.rtf_work["decode"] += took
            run.rtf_audio["decode"] += seconds
        run.times["utterance_latency_s"].append(time.perf_counter() - started)
        for rate in program:
            if streams[rate] is None or decoded[rate] is None:
                continue
            key = (wav, rate)
            data, samples = streams[rate].to_bytes(), decoded[rate].samples
            if key in first:
                run.checker.verify(f"decode {request} r{rate}", check.require,
                                   first[key][0] == data and np.array_equal(first[key][1], samples),
                                   "a repeated request gave different output")
                continue
            first[key] = (data, samples)
            run.later(f"decode {request} r{rate}", _check_codec_output, run, f"encode {request} r{rate}",
                      data, own[rate], audio[wav].samples, samples, rate in quality_rates)
    return n


def _check_codec_output(run, encode_op, data, book, samples, decoded, quality) -> None:
    codes_z = run.checker.verify(encode_op, _stream_checks, run, data, book, samples)
    check.check_decoded(decoded, frame_count(samples.size))
    if quality and codes_z is not None:
        run.add_quality(codes_z[1], codes_z[0], book, samples, decoded)


def cli_phase(run: Run, clips: list[Path], book_path: Path, quality: bool,
              deadline: float, minimum: int) -> int:
    book = read_book(book_path)
    first: dict[Path, dict] = {}
    n = 0
    while n < minimum or time.perf_counter() < deadline:
        clip = clips[n % len(clips)]
        n += 1
        request = f"{clip.stem}#{n}"
        run.set_request(request)
        run.children += 1
        out = run.work / f"cli{run.children}"
        out.mkdir()
        paths = stream, decoded, mels = out / "out.mvqc", out / "dec.wav", out / "out.mels"
        commands = {
            "encode": ["encode", clip, stream, "--codebook", book_path, "--rate", book.rate],
            "decode": ["decode", stream, decoded, "--codebook", book_path, "--emit-mel", mels],
            "eval": ["eval", clip, decoded],
            "inspect-stream": ["inspect", stream],
            "inspect-book": ["inspect", book_path],
        }
        stdout = {name: run.process(f"{name} {request}", name, [str(a) for a in argv])
                  for name, argv in commands.items()}
        files = tuple(p.read_bytes() if p.exists() else None for p in paths)
        if clip in first:
            for name in ("eval", "inspect-stream", "inspect-book"):
                run.checker.verify(f"{name} {request}", check.require,
                                   stdout[name] == first[clip][1][name],
                                   "a repeated command printed different output")
            run.checker.verify(f"decode {request}", check.require, files == first[clip][0],
                               "a repeated command wrote different files")
            continue
        first[clip] = files, stdout
        run.later(f"encode {request}", _check_cli_output, run, request, clip, book, files,
                  decoded, stdout, quality)
    return n


def _check_cli_output(run, request, clip, book, files, decoded_path, stdout, quality) -> None:
    stream, _, mels = files
    samples = read_wav(clip)
    check.require(stdout["encode"] is not None and stream is not None, "encode wrote no stream")
    codes, z = _stream_checks(run, stream, book, samples)
    verify = run.checker.verify
    verify(f"inspect-stream {request}", check.check_inspect_stream, stdout["inspect-stream"], codes, book)
    verify(f"inspect-book {request}", check.check_inspect_book, stdout["inspect-book"], book)
    decoded = verify(f"decode {request}", read_wav, decoded_path)
    if decoded is None:
        return
    verify(f"decode {request}", check.check_decoded, decoded, len(codes))
    verify(f"decode {request}", check.check_mels, mels, codes, book)
    scores = check.quality(samples, decoded)
    verify(f"eval {request}", check.check_eval, stdout["eval"], scores)
    if quality:
        run.add_quality(z, codes, book, samples, decoded)


def train_phase(run: Run, manifest: Path, extra: tuple[str, ...], name: str,
                deadline: float, minimum: int) -> int:
    import melvq.cli

    n = 0
    first = None
    while n < minimum or time.perf_counter() < deadline:
        n += 1
        request = f"{name}#{n}"
        run.set_request(request)
        out = run.work / f"{name}-{n}.mvqb"
        argv = ["train", "--manifest", str(manifest), "--rate", "1000", "--codebook", str(out), *extra]
        printed = io.StringIO()

        def train():
            with contextlib.redirect_stdout(printed):
                return melvq.cli.main(argv)

        code, took = run.call(f"train {request}", train)
        run.times[name].append(took)
        if first is None and code == 0:
            first = out
            if not extra:
                run.trained = out
        run.later(f"train {request}", _check_trained, code, printed.getvalue(), out, first)
    return n


def _check_trained(code, stdout, path, first) -> None:
    import melvq

    check.require(code == 0, f"train exited {code}")
    printed = check.train_hash(stdout)
    book = read_book(path)
    data = path.read_bytes()
    check.require(book.digest == printed, "stored digest differs from the printed hash")
    check.require(fnv1a64(data[:-8]) == printed, "printed hash is not the payload's FNV-1a")
    check.require(melvq.load_codebooks(path).content_hash == printed, "loaded hash differs")
    check.require(first is not None and first.read_bytes() == data,
                  "retraining the same manifest wrote different bytes")


# -- workloads ----------------------------------------------------------------------

def phases(run: Run) -> tuple:
    """The workload's own phase with its minimum request count, and the
    (name, phase, count) probes run before and after it. Probes are split
    around the timed phase so that their few samples do not all fall in one
    slow moment of a shared machine."""
    inputs = run.inputs
    corpus = inputs.wavs("corpus")
    clips, b1000, b2000 = inputs.wavs("clips"), inputs.book(1000), inputs.book(2000)
    probe_manifest = run.manifest(corpus[:PROBE_CORPUS_FILES], "probe.txt")

    def codec(wavs, books, quality_rates):
        return lambda deadline, minimum: codec_phase(run, wavs, books(), quality_rates,
                                                     deadline, minimum)

    def cli(wavs, quality):
        return lambda deadline, minimum: cli_phase(run, wavs, b2000, quality, deadline, minimum)

    def train(manifest, extra, name):
        return lambda deadline, minimum: train_phase(run, manifest, extra, name, deadline, minimum)

    setup = ("setup", lambda deadline, minimum: measure_setup(run, minimum), SETUP_REPEATS)
    probe_train = ("train", train(probe_manifest, PROBE_TRAIN_ARGS, "train_probe"),
                   PROBE_TRAIN_RUNS)
    probe_cli = ("cli", cli(clips[:1], False), 1)
    if run.workload == "codec-long":
        long_wavs = inputs.wavs("long")
        probes = [setup, probe_cli, probe_train]
        own = codec(long_wavs, lambda: {1000: b1000, 2000: b2000}, {1000, 2000})
        return own, len(long_wavs), probes, probes
    if run.workload == "cli-short":
        extra = inputs.wavs("probe")
        half = len(extra) // 2

        def probes(wavs):
            return [setup, ("codec", codec(wavs, lambda: {1000: b1000, 2000: b2000}, {2000}),
                            len(wavs)), probe_train]

        return cli(clips, True), len(clips), probes(extra[:half]), probes(extra[half:])
    heldout = inputs.wavs("heldout")
    own = train(run.manifest(corpus, "train.txt"), (), "train")
    return (own, 1, [setup, probe_cli],
            [("codec", codec(heldout, lambda: {1000: run.trained, 2000: b2000}, {1000}),
              len(heldout)), setup, probe_cli])


def setup_books(run: Run) -> list[Path]:
    return {"codec-long": [run.inputs.book(1000), run.inputs.book(2000)],
            "cli-short": [run.inputs.book(2000)],
            "train-prod": []}[run.workload]


def measure_setup(run: Run, repeats: int) -> int:
    books = [str(p) for p in setup_books(run)]
    for _ in range(repeats):
        stdout = run.spawn(f"setup #{run.children + 1}", "setup",
                           [sys.executable, "-c", SETUP, *books])
        if stdout is not None:
            run.times["setup_s"].append(float(stdout.strip()))
    return repeats


def measure_importtime(run: Run) -> dict[str, float]:
    samples = defaultdict(list)
    for k in range(IMPORTTIME_REPEATS):
        result = run.checker.attempt(f"importtime #{k + 1}", run_child,
                                     [sys.executable, "-X", "importtime", "-c", "import melvq"],
                                     run.root, run.work / f"importtime{k}.out")
        if result is not None:
            for name, seconds in parse_importtime(result[2]).items():
                samples[name].append(seconds)
    return {name: statistics.median(v) for name, v in samples.items()}


def run_workload(run: Run, seconds: float, trace: bool) -> dict:
    """Run every phase, check the outputs, and return the metrics."""
    own, minimum, before, after = phases(run)
    if not trace:
        for _, phase, count in before:
            phase(0.0, count)
        own(time.perf_counter() + seconds, minimum)
        for _, phase, count in after:
            phase(0.0, count)
        run.run_checks()
        return end_to_end(run)

    # Traced: time the workload's own phase untraced, then the same requests
    # traced; the probes run traced once. Set-up is not traced.
    importtime = measure_importtime(run)
    started = time.perf_counter()
    requests = own(started + seconds, minimum)
    untraced = time.perf_counter() - started
    import melvq.cli  # noqa: F401  (the tracer patches the loaded modules)
    run.tracer = Tracer()
    run.tracer.patch_package("melvq", HOOKS)
    try:
        started = time.perf_counter()
        own(0.0, requests)
        traced = time.perf_counter() - started
        for name, phase, count in after:
            if name != "setup":
                phase(0.0, count)
    finally:
        run.tracer.unpatch()
    run.run_checks()
    overhead = 100.0 * (traced - untraced) / untraced
    return {"layers": layer_metrics(run.tracer.spans, importtime, overhead),
            "spans": run.tracer.spans}


def end_to_end(run: Run) -> dict:
    times = run.times
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, run.child_peak_kib)

    def rtf(key):
        return run.rtf_work[key] / run.rtf_audio[key] if run.rtf_audio[key] else float("nan")

    def median(key):
        return statistics.median(times[key]) if times[key] else float("nan")

    train_key = "train" if run.workload == "train-prod" else "train_probe"
    metrics = {
        "setup_s": (median("setup_s"), "s"),
        "encode_rtf_r1000": (rtf("encode_r1000"), "s/s"),
        "encode_rtf_r2000": (rtf("encode_r2000"), "s/s"),
        "decode_rtf": (rtf("decode"), "s/s"),
        **{metric: (median(name), "s") for name, metric in CLI_METRICS.items()},
        "train_s": (median(train_key), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "vq_mse": (run.sq_err / run.coefficients if run.coefficients else float("nan"), "1"),
        "mcd_db": (statistics.mean(run.mcd) if run.mcd else float("nan"), "dB"),
        "stoi": (statistics.mean(run.stoi) if run.stoi else float("nan"), "1"),
    }
    distributions = {}
    for key in [*CLI_METRICS, "utterance_latency_s", train_key, "setup_s"]:
        if times[key]:
            distributions[key] = {"median": statistics.median(times[key]),
                                  "tail": tail_percentile(times[key]), "count": len(times[key])}
    return {"metrics": metrics, "distributions": distributions}
