"""Scalable low-bit-rate wideband speech codec built on mel-cepstral VQ.

Audio at 16 kHz is reduced to 80 mel-cepstral coefficients per 64 ms frame,
quantized through one list of codebook stages (an energy stage, then one
VQ stage at 1000 bit/s or two at 2000 bit/s), and serialized to a compact
self-describing stream.  Decoding inverts the cepstral transform and
recovers a waveform with iterative phase reconstruction.
"""

from .analysis import (
    MEL_LOG_FLOOR,
    FrameConfig,
    MelFilterbank,
    MelSpectrogram,
    MfccMatrix,
    build_mel_filterbank,
    compute_mfcc,
    frame_signal,
    hz_to_mel,
    log_mel_spectrogram,
    mel_to_hz,
    mfcc,
)
from .bitstream import (
    EncodedStream,
    encode_audio,
    export_mel,
    import_mel,
    load_codebooks,
    pack,
    save_codebooks,
    stream_bitrate,
    stream_codes,
    unpack_codes,
)
from .errors import (
    FormatError,
    HashMismatchError,
    InsufficientDataError,
    MelvqError,
    SampleRateError,
)
from .metrics import QualityReport, lsd, mcd, seg_snr, stoi
from .quantizer import (
    DEFAULT_BEAM_WIDTH,
    CodebookSet,
    FrameCode,
    RateMode,
    VectorCodebook,
    dequantize,
    fnv1a64,
    quantize_frame,
)
from .signal_io import AudioBuffer, read_wav, write_wav
from .synthesis import (
    MagnitudeSpectrogram,
    decode_stream,
    griffin_lim,
    idct_mel,
    mel_to_linear,
    overlap_add,
)
from .trainer import (
    TrainingCorpus,
    TrainReport,
    train_codebook_set,
    train_lbg,
    train_msvq,
    train_scalar,
)

__version__ = "0.1.0"

__all__ = [
    "MEL_LOG_FLOOR",
    "FrameConfig",
    "MelFilterbank",
    "MelSpectrogram",
    "MfccMatrix",
    "build_mel_filterbank",
    "compute_mfcc",
    "frame_signal",
    "hz_to_mel",
    "log_mel_spectrogram",
    "mel_to_hz",
    "mfcc",
    "EncodedStream",
    "pack",
    "stream_bitrate",
    "stream_codes",
    "unpack_codes",
    "encode_audio",
    "FormatError",
    "HashMismatchError",
    "InsufficientDataError",
    "MelvqError",
    "SampleRateError",
    "QualityReport",
    "lsd",
    "mcd",
    "seg_snr",
    "stoi",
    "DEFAULT_BEAM_WIDTH",
    "CodebookSet",
    "FrameCode",
    "RateMode",
    "VectorCodebook",
    "dequantize",
    "fnv1a64",
    "quantize_frame",
    "AudioBuffer",
    "read_wav",
    "write_wav",
    "MagnitudeSpectrogram",
    "decode_stream",
    "export_mel",
    "griffin_lim",
    "idct_mel",
    "import_mel",
    "mel_to_linear",
    "overlap_add",
    "TrainingCorpus",
    "TrainReport",
    "load_codebooks",
    "save_codebooks",
    "train_codebook_set",
    "train_lbg",
    "train_msvq",
    "train_scalar",
    "__version__",
]
