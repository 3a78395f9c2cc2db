"""Shared fixtures: a tiny toy corpus and small trained checkpoints.

Everything here is session-scoped because generating audio and training
even a tiny model dominates test runtime; tests must treat the fixtures
as read-only.
"""

# importing spoofvae pins BLAS to one thread, since training forks a worker
# that would otherwise run BLAS threads of its own on the same CPUs
import spoofvae  # noqa: F401  isort: skip

import numpy as np
import pytest

from spoofvae.data import ToyConfig, generate_toy_dataset, parse_manifest
from spoofvae.dsp import FrontendConfig
from spoofvae.errors import FormatError
from spoofvae.model import ModelConfig
from spoofvae.train import StageConfig, train_stage1, train_stage2

TINY_MODEL = ModelConfig(n_mels=32, target_frames=32, latent_dim=8,
                         channels=(4, 8, 8, 16), classifier_channels=(4, 8))
TINY_FRONTEND = FrontendConfig(n_mels=32, target_frames=32)


def tiny_stage1(**overrides) -> StageConfig:
    base = dict(model=TINY_MODEL, frontend=TINY_FRONTEND,
                max_iterations=12, seed=11)
    base.update(overrides)
    return StageConfig.stage1(**base)


def tiny_stage2(**overrides) -> StageConfig:
    base = dict(model=TINY_MODEL, frontend=TINY_FRONTEND, epochs=3,
                batch_size=16, seed=12)
    base.update(overrides)
    return StageConfig.stage2(**base)


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    """Small generated corpus plus its records, keyed by split."""
    root = tmp_path_factory.mktemp("toycorpus")
    cfg = ToyConfig(clips_train=10, clips_dev=4, clips_eval=6, seed=77)
    manifest = generate_toy_dataset(cfg, str(root))
    records = parse_manifest(manifest)
    by_split = {s: [r for r in records if r.split == s]
                for s in ("train", "dev", "eval")}
    return {"config": cfg, "manifest": manifest, "records": records,
            "splits": by_split, "root": str(root)}


@pytest.fixture(scope="session")
def stage1_ckpt(toy_corpus):
    return train_stage1(toy_corpus["splits"]["train"], tiny_stage1())


@pytest.fixture(scope="session")
def stage2_ckpts(toy_corpus, stage1_ckpt):
    return train_stage2(toy_corpus["splits"]["train"], stage1_ckpt,
                        tiny_stage2(), val_records=toy_corpus["splits"]["dev"])


def read_pgm(path) -> np.ndarray:
    """Parse a binary PGM written by export_pgm; returns uint8 (rows, cols)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {buf[:2]!r})")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(buf[start:pos]))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: expected maxval 255, got {maxval}")
    data = buf[pos:pos + width * height]
    if len(data) != width * height:
        raise FormatError(f"{path}: pixel data truncated")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width)
