"""Parameter names, shapes and init bytes of build_model, pinned.

Every `.dsva` names its tensors after the networks' parameter listings, and
the same seed must draw the same weights, so a refactor of the layer code
may move neither.  The init draws only uniform floats from the counter
streams (no BLAS), so the bytes are the same on every platform.
`golden_init.json` holds, per case, each parameter's `[name, shape,
sha256 of its float32 bytes]` in `named_params` order, the margin head's
`cosface_head.w` (drawn from `COSFACE_STREAM_INDEX`) last.
"""

import hashlib
import json
import os

import pytest

from spoofvae import model as M
from spoofvae.losses import CosFaceHead
from spoofvae.rng import Stream

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_init.json")
CONFIGS = {
    "paper": M.ModelConfig(),
    "toy": M.ModelConfig(n_mels=32, target_frames=32, latent_dim=32,
                         channels=(8, 16, 32, 64), classifier_channels=(8, 16)),
}
SEEDS = (0, 3)


def init_listing(config: M.ModelConfig, seed: int) -> list:
    """[name, shape, sha256] of each initial parameter, head last."""
    head = CosFaceHead(config.latent_dim,
                       stream=Stream(seed).spawn(M.COSFACE_STREAM_INDEX))
    params = M.build_model(config, seed).named_params() + head.params()
    return [[name, list(p.data.shape), hashlib.sha256(p.data.tobytes()).hexdigest()]
            for name, p in params]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_init_matches_golden(golden, name, seed):
    assert init_listing(CONFIGS[name], seed) == golden[f"{name}/seed{seed}"]
