"""Per-layer metrics of melvq, computed from the spans of a traced run.

Spans are named after the wrapped function (``quantize_frame``,
``EncodedStream.from_bytes``), not its module, so a metric keeps its meaning
when a later change moves a function between modules. The hooks below add
counts at the same call boundaries. Like spans.py, this module imports only
the standard library at load time.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

from spans import ATTRS, END, ID, NAME, PARENT, START, ancestor, outermost, self_times


def _after(key, value_of):
    def hook(tracer, record, args, kwargs):
        return None, lambda result: record[ATTRS].__setitem__(key, value_of(args, kwargs, result))
    return hook


def _ordered_map(tracer, record, args, kwargs):
    fn, items = args[0], list(args[1])
    record[ATTRS]["items"] = len(items)
    record[ATTRS]["threads"] = sys.modules["melvq.workers"].worker_count()
    return ((tracer.in_parent(record[ID], fn), items) + tuple(args[2:]), kwargs), None


def _encode_audio(tracer, record, args, kwargs):
    books = args[1] if len(args) > 1 else kwargs["codebooks"]
    record[ATTRS]["rate"] = int(books.rate_mode.value)
    return None, lambda result: record[ATTRS].__setitem__("frames", result.frame_count)


HOOKS = {
    "frame_signal": _after("frames", lambda a, k, r: r.num_frames),
    "griffin_lim": _after("iters", lambda a, k, r: len(r[1])),
    "train_lbg": _after("iters", lambda a, k, r: r[1].iterations),
    "train_scalar": _after("iters", lambda a, k, r: r[1].iterations),
    "fnv1a64": _after("bytes", lambda a, k, r: len(a[0])),
    "load_codebooks": _after("payload", lambda a, k, r: Path(a[0]).stat().st_size - 8),
    "ordered_map": _ordered_map,
    "encode_audio": _encode_audio,
}

# Inclusive time of the outermost calls of a function, by metric name.
TIMED = {
    "quantizer.msvq_encode_s": "msvq_encode",
    "quantizer.vq_encode_s": "vq_encode",
    "quantizer.sq_encode_s": "sq_encode",
    "quantizer.fnv1a64_s": "fnv1a64",
    "quantizer.dequantize_frame_s": "dequantize_frame",
    "trainer.train_lbg_s": "train_lbg",
    "trainer.train_scalar_s": "train_scalar",
    "trainer.save_codebooks_s": "save_codebooks",
    "analysis.frame_signal_s": "frame_signal",
    "analysis.log_mel_spectrogram_s": "log_mel_spectrogram",
    "analysis.mfcc_s": "mfcc",
    "bitstream.pack_s": "pack",
    "bitstream.stream_codes_s": "stream_codes",
    "bitstream.parse_s": "EncodedStream.from_bytes",
    "synthesis.griffin_lim_s": "griffin_lim",
    "synthesis.mel_to_linear_s": "mel_to_linear",
    "synthesis.idct_mel_s": "idct_mel",
    "synthesis.export_mel_s": "export_mel",
    "metrics.stoi_s": "stoi",
    "metrics.mcd_s": "mcd",
    "metrics.lsd_s": "lsd",
    "metrics.seg_snr_s": "seg_snr",
    "signal_io.read_wav_s": "read_wav",
    "signal_io.write_wav_s": "write_wav",
    "workers.ordered_map_s": "ordered_map",
}

# Spans the benchmark itself records around child processes.
PROCESS = "process"
IMPORT = "import melvq"
MAIN = "main"


def _seconds(spans) -> float:
    return sum(s[END] - s[START] for s in spans) / 1e9


def layer_metrics(spans: list[list], importtime: dict[str, float],
                  overhead_pct: float) -> dict[str, float]:
    by_id = {s[ID]: s for s in spans}
    own = self_times(spans)
    out = {metric: _seconds(outermost(spans, name)) for metric, name in TIMED.items()}

    # Quantizer search: time in quantize_frame, or the self time of
    # encode_audio once a change stops calling quantize_frame per frame.
    encodes = outermost(spans, "encode_audio")
    search = {s[ID]: 0 for s in encodes}
    frames_called = [s for s in spans if s[NAME] == "quantize_frame"]
    for s in outermost(frames_called, "quantize_frame"):
        parent = ancestor(by_id, s, "encode_audio")
        if parent is not None:
            search[parent[ID]] += s[END] - s[START]
    if not frames_called:
        search = {s[ID]: own[s[ID]] for s in encodes}
    out["quantizer.search_s"] = (_seconds(outermost(spans, "quantize_frame"))
                                 if frames_called else sum(search.values()) / 1e9)
    for rate in (1000, 2000):
        chosen = [s for s in encodes if s[ATTRS].get("rate") == rate]
        frames = sum(s[ATTRS].get("frames", 0) for s in chosen)
        took = sum(search[s[ID]] for s in chosen)
        out[f"quantizer.search_us_per_frame.r{rate}"] = took / 1e3 / frames if frames else 0.0
        if rate == 2000:
            wall = sum(s[END] - s[START] for s in chosen)
            out["quantizer.search_share.r2000"] = took / wall if wall else 0.0

    # Bytes hashed per load of the largest book loaded.
    loads = [s for s in spans if s[NAME] == "load_codebooks" and "payload" in s[ATTRS]]
    hashed = {s[ID]: 0 for s in loads}
    for s in spans:
        if s[NAME] == "fnv1a64":
            parent = ancestor(by_id, s, "load_codebooks")
            if parent is not None and parent[ID] in hashed:
                hashed[parent[ID]] += s[ATTRS].get("bytes", 0)
    largest = max((s[ATTRS]["payload"] for s in loads), default=0)
    per_load = [hashed[s[ID]] for s in loads if s[ATTRS]["payload"] == largest]
    out["quantizer.fnv1a64_bytes"] = statistics.mean(per_load) if per_load else 0.0
    out["quantizer.fnv1a64_passes"] = out["quantizer.fnv1a64_bytes"] / largest if largest else 0.0

    out["trainer.load_codebooks_s"] = sum(own[s[ID]] for s in spans
                                          if s[NAME] == "load_codebooks") / 1e9
    trains = outermost(spans, "train_lbg") + outermost(spans, "train_scalar")
    iters = sum(s[ATTRS].get("iters", 0) for s in trains)
    out["trainer.lloyd_iters"] = iters
    out["trainer.lloyd_iter_ms"] = _seconds(trains) * 1e3 / iters if iters else 0.0

    out["analysis.frames"] = sum(s[ATTRS].get("frames", 0) for s in spans
                                 if s[NAME] == "frame_signal")

    gl = outermost(spans, "griffin_lim")
    gl_iters = sum(s[ATTRS].get("iters", 0) for s in gl)
    decode_wall = _seconds(outermost(spans, "decode_stream"))
    out["synthesis.gl_iters"] = gl_iters
    out["synthesis.gl_iter_ms"] = _seconds(gl) * 1e3 / gl_iters if gl_iters else 0.0
    out["synthesis.griffin_lim_share"] = (
        _seconds([s for s in gl if ancestor(by_id, s, "decode_stream")]) / decode_wall
        if decode_wall else 0.0)

    maps = outermost(spans, "ordered_map")
    out["workers.items"] = sum(s[ATTRS].get("items", 0) for s in maps)
    out["workers.threads"] = max((s[ATTRS].get("threads", 0) for s in maps), default=0)

    out["cli.import_melvq_s"] = importtime.get("melvq", 0.0)
    out["cli.import_scipy_s"] = importtime.get("scipy", 0.0)
    overheads, shares = [], []
    children: dict[int, list[list]] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    for proc in (s for s in spans if s[NAME] == PROCESS):
        wall = proc[END] - proc[START]
        inner = children.get(proc[ID], [])
        main = [s for s in inner if s[NAME] == MAIN]
        imported = [s for s in inner if s[NAME] == IMPORT]
        if proc[ATTRS].get("command") == "inspect-stream" and main:
            overheads.append((wall - (main[0][END] - main[0][START])) / 1e9)
        if proc[ATTRS].get("command") == "inspect-book" and main and imported:
            loaded = [s for s in spans if s[NAME] == "load_codebooks"
                      and ancestor(by_id, s, MAIN) is main[0]]
            shares.append((_seconds(imported) + _seconds(loaded)) * 1e9 / wall)
    out["cli.process_overhead_s"] = statistics.median(overheads) if overheads else 0.0
    out["cli.import_load_share"] = statistics.median(shares) if shares else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing melvq (cumulative) and scipy (self time of
    every scipy module) from `python -X importtime` output."""
    melvq = scipy = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:  # the header line
            continue
        name = fields[2].strip()
        if name == "melvq":
            melvq = cumulative
        elif name == "scipy" or name.startswith("scipy."):
            scipy += own
    return {"melvq": melvq / 1e6, "scipy": scipy / 1e6}
