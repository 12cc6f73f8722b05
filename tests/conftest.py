"""Shared fixtures: frame config, filterbank, synthetic corpora, and
desk-scale codebooks trained once per session."""

from __future__ import annotations

import numpy as np
import pytest

from melvq.analysis import FrameConfig, build_mel_filterbank, compute_mfcc
from melvq.quantizer import RateMode
from melvq.signals import speech_like
from melvq.trainer import TrainingCorpus, train_codebook_set

TRAIN_SEEDS = range(100, 120)
HELD_OUT_SEEDS = range(0, 20)


@pytest.fixture(scope="session")
def frame_config() -> FrameConfig:
    return FrameConfig()


@pytest.fixture(scope="session")
def filterbank(frame_config):
    return build_mel_filterbank(frame_config)


@pytest.fixture(scope="session")
def train_utterances():
    return [speech_like(1.5, seed=s) for s in TRAIN_SEEDS]


@pytest.fixture(scope="session")
def held_out_utterances():
    return [speech_like(1.5, seed=s) for s in HELD_OUT_SEEDS]


@pytest.fixture(scope="session")
def train_corpus(train_utterances, frame_config, filterbank) -> TrainingCorpus:
    pooled = np.concatenate(
        [compute_mfcc(a, frame_config, filterbank).values for a in train_utterances],
        axis=0,
    )
    return TrainingCorpus(pooled)


@pytest.fixture(scope="session")
def cb1000(train_corpus):
    books, _ = train_codebook_set(train_corpus, RateMode.R1000,
                                  sq_bits=3, stage_bits=(6,))
    return books


@pytest.fixture(scope="session")
def cb2000(train_corpus):
    books, _ = train_codebook_set(train_corpus, RateMode.R2000,
                                  sq_bits=4, stage_bits=(6, 6))
    return books
