"""Networks for two-stage spectrogram disentanglement.

Stage 1 trains a general encoder plus decoder to reconstruct log-mel
inputs.  Stage 2 freezes the general encoder, trains a second identical
encoder whose latent should capture what separates synthetic from bona
fide speech, a joint decoder reconstructing from both latents, a map
decoder producing a [0,1] activation map over the spectrogram, and a
classifier scoring the activation-weighted spectrogram.

All parameter tensors are float32 and owned by exactly one network; the
bundle exposes them with stable dotted names so optimizers and
checkpoints agree on ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import JsonConfig, bounded
from .dsp import MAX_CELLS, MAX_MELS
from .errors import ContractError, DimensionError
from .rng import Stream
from .tensor import Tensor

LEAK = 0.2

# the largest model ModelConfig accepts, so that no config asks for weights
# past a machine's memory before any is built.  At these bounds a model
# holds at most about 342M float32 weights (1.3 GiB): the four latent
# heads and the three decoders' input layers hold 8 * MAX_DENSE weights
# and 3 * MAX_DENSE biases (184.5M), and each of the three 3x3 conv stacks
# (two encoders, the classifier) and the three 4x4 deconv stacks holds at
# most MAX_LAYERS - 1 layers of 512 by 512 channels (157.3M in all)
MAX_WIDTH = 512  # channels of any layer, and latent_dim
MAX_LAYERS = 9  # a stack of stride-2 layers; 4^9 is the frontend's MAX_CELLS
MAX_DENSE = 1 << 24  # prod(bottleneck) * latent_dim

GENERAL = "general"
DISENTANGLED = "disentangled"

# network i of NET_NAMES initializes from spawn i of the master init
# stream; the margin head draws from the spawn after them
COSFACE_STREAM_INDEX = 6


@dataclass(frozen=True)
class ModelConfig(JsonConfig):
    """Input extent and layer widths shared by every network."""

    error = ContractError

    n_mels: int = bounded(80, 1, MAX_MELS)
    target_frames: int = bounded(96, 1, MAX_CELLS)
    latent_dim: int = bounded(32, 1, MAX_WIDTH)
    channels: tuple[int, ...] = bounded((16, 32, 64, 128), 1, MAX_WIDTH)
    classifier_channels: tuple[int, ...] = bounded((8, 16), 1, MAX_WIDTH)

    def __post_init__(self):
        super().__post_init__()
        for key in ("channels", "classifier_channels"):
            layers = len(getattr(self, key))
            if not 1 <= layers <= MAX_LAYERS:
                raise ContractError(f"{key} must hold 1 to {MAX_LAYERS} "
                                    f"layers, got {layers}")
        factor = 2 ** len(self.channels)
        if self.n_mels % factor or self.target_frames % factor:
            raise ContractError(
                f"input extent {self.n_mels}x{self.target_frames} must be "
                f"divisible by {factor} (one halving per encoder layer)")
        dense = math.prod(self.bottleneck) * self.latent_dim
        if dense > MAX_DENSE:
            raise ContractError(
                f"bottleneck {self.bottleneck} times latent_dim "
                f"{self.latent_dim} must be at most {MAX_DENSE} weights, "
                f"got {dense}")

    @property
    def bottleneck(self) -> tuple:
        # channels x spatial extent after the strided encoder stack
        factor = 2 ** len(self.channels)
        return (self.channels[-1], self.n_mels // factor, self.target_frames // factor)


def _kaiming_uniform(stream: Stream, shape, fan_in: int) -> np.ndarray:
    bound = float(np.sqrt(6.0 / fan_in))
    return stream.uniform(-bound, bound, shape).astype(np.float32)


class _Layer:
    """Kaiming-uniform weight w (zeros, drawing nothing, when stream is
    None) and zero bias b; op(x, w, b) computes the layer, adding b
    itself."""

    def __init__(self, op, shape, fan_in: int, out: int, stream: Stream | None):
        self.op = op
        w = np.zeros(shape, dtype=np.float32) if stream is None \
            else _kaiming_uniform(stream, shape, fan_in)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(out, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return self.op(x, self.w, self.b)


# the ops look T's functions up at each call, so a patched T (a tracer) sees
# layers built before the patch
def _linear(in_dim: int, out_dim: int, stream: Stream) -> _Layer:
    return _Layer(lambda x, w, b: T.add_bias(T.matmul(x, w), b),
                  (in_dim, out_dim), in_dim, out_dim, stream)


def _conv(in_ch: int, out_ch: int, stream: Stream) -> _Layer:
    """Stride-2 3x3 conv, padding 1, then leaky ReLU: halves each extent."""
    return _Layer(lambda x, w, b: T.conv2d(x, w, 2, 1, bias=b, leak=LEAK),
                  (out_ch, in_ch, 3, 3), in_ch * 9, out_ch, stream)


def _deconv(in_ch: int, out_ch: int, leak, stream: Stream) -> _Layer:
    """Stride-2 4x4 transpose conv, padding 1, then leaky ReLU unless leak
    is None: doubles each extent exactly; kernel dim 0 is the incoming
    channel count."""
    return _Layer(
        lambda x, w, b: T.conv2d_transpose(x, w, 2, 1, bias=b, leak=leak),
        (in_ch, out_ch, 4, 4), in_ch * 16, out_ch, stream)


class _Net:
    """A network's layers as (name, layer) in creation order, which is both
    the init draw order and the order of its parameter listing."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.layers = []

    def _add(self, name: str, layer: _Layer) -> _Layer:
        self.layers.append((name, layer))
        return layer

    def _conv_stack(self, widths, stream: Stream) -> list:
        """Stride-2 3x3 convs from one input channel through widths."""
        return [self._add(f"conv{i}", _conv(c_in, c_out, stream))
                for i, (c_in, c_out) in enumerate(zip((1, *widths), widths))]

    def _conv_forward(self, x: Tensor) -> Tensor:
        """The conv stack over an input of the configured extent."""
        want = (self.cfg.n_mels, self.cfg.target_frames)
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2:] != want:
            raise DimensionError(
                f"{type(self).__name__.lower()} expects (batch, 1, {want[0]}, "
                f"{want[1]}), got {x.shape}")
        h = x
        for conv in self.convs:
            h = conv(h)
        return h

    def params(self, prefix: str):
        """Every weight and bias, named <prefix>.<layer>.w and .b."""
        return [(f"{prefix}.{name}.{key}", getattr(layer, key))
                for name, layer in self.layers for key in ("w", "b")]


class Encoder(_Net):
    """Strided conv stack producing per-item (mu, logvar) latent heads."""

    def __init__(self, cfg: ModelConfig, stream: Stream):
        super().__init__(cfg)
        self.convs = self._conv_stack(cfg.channels, stream)
        self.flat = math.prod(cfg.bottleneck)
        self.mu_head = self._add("mu", _linear(self.flat, cfg.latent_dim, stream))
        self.logvar_head = self._add(
            "logvar", _linear(self.flat, cfg.latent_dim, stream))

    def __call__(self, x: Tensor):
        h = T.reshape(self._conv_forward(x), (x.shape[0], self.flat))
        return self.mu_head(h), self.logvar_head(h)


class Decoder(_Net):
    """Linear + deconv stack mapping a latent vector back to input extent.

    Final layer is linear by default (reconstructions of standardized
    features are unbounded); with sigmoid_output=True the map lands in [0,1].
    """

    def __init__(self, cfg: ModelConfig, in_dim: int, sigmoid_output: bool,
                 stream: Stream):
        super().__init__(cfg)
        self.in_dim = in_dim
        self.sigmoid_output = sigmoid_output
        self.bottleneck = cfg.bottleneck
        self.fc = self._add("fc", _linear(in_dim, math.prod(self.bottleneck), stream))
        chans = [self.bottleneck[0], *reversed(cfg.channels[:-1]), 1]
        last = len(chans) - 2  # the output layer is linear
        self.deconvs = [
            self._add(f"deconv{i}",
                      _deconv(c_in, c_out, None if i == last else LEAK, stream))
            for i, (c_in, c_out) in enumerate(zip(chans, chans[1:]))]

    def __call__(self, z: Tensor) -> Tensor:
        if z.ndim != 2 or z.shape[1] != self.in_dim:
            raise DimensionError(
                f"decoder expects (batch, {self.in_dim}), got {z.shape}")
        out = T.leaky_relu(
            T.reshape(self.fc(z), (z.shape[0], *self.bottleneck)), LEAK)
        for dc in self.deconvs:
            out = dc(out)
        if self.sigmoid_output:
            out = T.sigmoid(out)
        return out


class Classifier(_Net):
    """Small conv net scoring one probability per item (1 = synthetic)."""

    def __init__(self, cfg: ModelConfig, stream: Stream):
        super().__init__(cfg)
        self.convs = self._conv_stack(cfg.classifier_channels, stream)
        self.head = self._add(
            "head", _linear(cfg.classifier_channels[-1], 1, stream))

    def __call__(self, x: Tensor) -> Tensor:
        pooled = T.reduce_mean(self._conv_forward(x), (2, 3))
        logit = T.reshape(self.head(pooled), (x.shape[0],))
        return T.sigmoid(logit)


# ---- latent plumbing --------------------------------------------------------

@dataclass
class LatentDistribution:
    """Batched diagonal-Gaussian parameters, each (batch, latent_dim)."""

    mu: Tensor
    logvar: Tensor


@dataclass
class LatentSample:
    """A latent draw tagged with which encoder produced it."""

    z: Tensor
    source: str

    def __post_init__(self):
        if self.source not in (GENERAL, DISENTANGLED):
            raise ContractError(f"unknown latent source {self.source!r}")


@dataclass
class JointFeature:
    """Concatenation [general latent, disentangled latent], (batch, 2d)."""

    f: Tensor


@dataclass
class ActivationMap:
    """Per-cell [0,1] weighting of the spectrogram, (batch, 1, H, W)."""

    values: Tensor


def reparameterize(dist: LatentDistribution, *, eps: np.ndarray,
                   source: str = GENERAL) -> LatentSample:
    """Sample z = mu + exp(0.5*logvar) * eps, eps a draw of N(0, I).

    Gradients flow into mu and logvar; eps is a constant the caller draws.
    """
    noise = Tensor(np.asarray(eps, dtype=np.float32))
    if noise.shape != dist.mu.shape:
        raise DimensionError(f"eps shape {noise.shape} != mu shape {dist.mu.shape}")
    sigma = T.exp(T.scale(dist.logvar, 0.5))
    return LatentSample(z=dist.mu + sigma * noise, source=source)


def mean_latent(dist: LatentDistribution, source: str) -> LatentSample:
    """Deterministic latent (the mean); used at inference."""
    return LatentSample(z=dist.mu, source=source)


def concat_features(f_g: LatentSample, f_d: LatentSample) -> JointFeature:
    if f_g.source != GENERAL or f_d.source != DISENTANGLED:
        raise ContractError(
            f"concat_features needs (general, disentangled), "
            f"got ({f_g.source}, {f_d.source})")
    if f_g.z.shape != f_d.z.shape:
        raise ContractError(
            f"latent shapes differ: {f_g.z.shape} vs {f_d.z.shape}")
    return JointFeature(f=T.concat(f_g.z, f_d.z, axis=1))


# ---- the bundle -------------------------------------------------------------

NET_NAMES = ("general_encoder", "general_decoder", "disentangled_encoder",
             "joint_decoder", "map_decoder", "classifier")
STAGE1_NETS = ("general_encoder", "general_decoder")
STAGE2_NETS = ("disentangled_encoder", "joint_decoder", "map_decoder", "classifier")


@dataclass
class ModelBundle:
    """All six networks plus the frozen-subnetwork bookkeeping."""

    config: ModelConfig
    general_encoder: Encoder
    general_decoder: Decoder
    disentangled_encoder: Encoder
    joint_decoder: Decoder
    map_decoder: Decoder
    classifier: Classifier
    frozen: set = field(default_factory=set)

    def net(self, name: str):
        if name not in NET_NAMES:
            raise ContractError(f"unknown network {name!r}")
        return getattr(self, name)

    def named_params(self, nets=NET_NAMES):
        out = []
        for name in nets:
            out += self.net(name).params(name)
        return out

    def trainable_params(self, nets=NET_NAMES):
        return [(n, p) for n, p in self.named_params(nets)
                if n.split(".")[0] not in self.frozen]

    def freeze(self, net_name: str) -> None:
        """Exclude a network from gradients and optimizer updates."""
        self.net(net_name)
        self.frozen.add(net_name)
        for _, p in self.net(net_name).params(net_name):
            p.requires_grad = False


def build_model(config: ModelConfig, seed: int,
                drawn=NET_NAMES) -> ModelBundle:
    """Deterministically initialize all networks from one master seed.

    Each network draws from its own child stream, so a network left out
    of drawn (its weights zero, for a caller that loads them) changes no
    other network's bytes.
    """
    master = Stream(seed)
    streams = {name: master.spawn(i) if name in drawn else None
               for i, name in enumerate(NET_NAMES)}
    d = config.latent_dim
    return ModelBundle(
        config=config,
        general_encoder=Encoder(config, streams["general_encoder"]),
        general_decoder=Decoder(config, d, False, streams["general_decoder"]),
        disentangled_encoder=Encoder(config, streams["disentangled_encoder"]),
        joint_decoder=Decoder(config, 2 * d, False, streams["joint_decoder"]),
        map_decoder=Decoder(config, d, True, streams["map_decoder"]),
        classifier=Classifier(config, streams["classifier"]),
    )


# ---- spec-level operations --------------------------------------------------

def encode(bundle: ModelBundle, which: str, x: Tensor) -> LatentDistribution:
    """Run one of the two encoders; which is 'general' or 'disentangled'."""
    if which not in (GENERAL, DISENTANGLED):
        raise ContractError(f"unknown encoder {which!r}")
    mu, logvar = bundle.net(f"{which}_encoder")(x)
    return LatentDistribution(mu=mu, logvar=logvar)


def decode_general(bundle: ModelBundle, f_g: LatentSample) -> Tensor:
    if f_g.source != GENERAL:
        raise ContractError(f"decode_general needs a general latent, got {f_g.source}")
    return bundle.general_decoder(f_g.z)


def decode_joint(bundle: ModelBundle, joint: JointFeature) -> Tensor:
    return bundle.joint_decoder(joint.f)


def decode_activation(bundle: ModelBundle, f_d: LatentSample) -> ActivationMap:
    if f_d.source != DISENTANGLED:
        raise ContractError(
            f"decode_activation needs a disentangled latent, got {f_d.source}")
    return ActivationMap(values=bundle.map_decoder(f_d.z))


def apply_activation(a: ActivationMap, x: Tensor) -> Tensor:
    """Elementwise product weighting the spectrogram by the map."""
    if a.values.shape != x.shape:
        raise DimensionError(
            f"activation map {a.values.shape} does not match input {x.shape}")
    return a.values * x


def classify(bundle: ModelBundle, x_map: Tensor) -> Tensor:
    return bundle.classifier(x_map)


def infer(bundle: ModelBundle, x: Tensor):
    """Inference chain: disentangled mean latent -> map -> weighting -> score.

    The general encoder is not used at inference.  Returns float32 numpy
    (scores, activation maps, weighted inputs).
    """
    with T.no_grad():
        dist = encode(bundle, DISENTANGLED, x)
        f_d = mean_latent(dist, DISENTANGLED)
        a_map = decode_activation(bundle, f_d)
        x_map = apply_activation(a_map, x)
        scores = classify(bundle, x_map)
    return scores.data, a_map.values.data, x_map.data


def reconstruct(bundle: ModelBundle, x: Tensor) -> np.ndarray:
    """Joint reconstruction from both mean latents; float32 numpy output."""
    with T.no_grad():
        f_g = mean_latent(encode(bundle, GENERAL, x), GENERAL)
        f_d = mean_latent(encode(bundle, DISENTANGLED, x), DISENTANGLED)
        x_hat = decode_joint(bundle, concat_features(f_g, f_d))
    return x_hat.data
