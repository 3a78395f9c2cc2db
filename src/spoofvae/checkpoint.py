"""Binary checkpoint container for model weights.

Wire layout, in order:

  bytes 0..4    magic b"DSVA"
  bytes 4..8    format version, uint32 little-endian (currently 2)
  bytes 8..12   header length in bytes, uint32 little-endian
  header        canonical JSON (UTF-8, sorted keys, no whitespace)
  blobs         raw little-endian float32 arrays, in declared order

The header's "tensors" list declares each parameter's name, shape and the
CRC32 of its blob; blobs follow in exactly that order.  A file holds
weights only, no optimizer state.  Canonical JSON plus fixed blob order
makes save -> load -> save byte-identical.  Every header key is required
and type-checked (CheckpointHeader) before any blob is read, and each blob
is checked against its CRC32 as it is read.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import reprlib
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .config import F32_POSITIVE, MAX_COUNT, UNIT, JsonConfig, bounded
from .dsp import FrontendConfig
from .errors import ContractError, DimensionError, FormatError, InputError
from .losses import CosFaceHead
from .model import NET_NAMES, ModelBundle, ModelConfig, build_model

MAGIC = b"DSVA"
VERSION = 2
_HEADER_AT = 12  # magic + version + header length


@dataclass(frozen=True)
class CosFaceHeader(JsonConfig):
    """Margin-head settings; its weight travels as tensor cosface_head.w."""

    error = FormatError

    scale: float = bounded(dataclasses.MISSING, F32_POSITIVE)
    margin: float = bounded(dataclasses.MISSING, UNIT)


@dataclass(frozen=True)
class CheckpointHeader(JsonConfig):
    """The header's keys, all required, and their JSON types.

    Each "tensors" entry is [name, shape, crc32]: non-negative int
    dimensions and the zlib CRC32 of the blob's little-endian float32 bytes.
    The frontend's extent is the model's input extent, and the frontend can
    featurize a clip.
    """

    error = FormatError

    stage: int
    # steps taken: up to MAX_COUNT epochs of up to MAX_COUNT batches
    iteration: int = bounded(dataclasses.MISSING, 0, MAX_COUNT ** 2)
    epoch: int = bounded(dataclasses.MISSING, 0, MAX_COUNT)
    model_config: ModelConfig
    frontend: FrontendConfig
    nets: tuple[str, ...]
    frozen: tuple[str, ...]
    cosface: CosFaceHeader | None
    metric_history: tuple[dict, ...]
    tensors: tuple[list, ...]

    def __post_init__(self):
        super().__post_init__()
        self.frontend.check_fits(self.model_config, FormatError)
        try:
            self.frontend.filterbank()
        except InputError as exc:
            raise FormatError(str(exc)) from exc
        for entry in self.tensors:
            if not (len(entry) == 3 and isinstance(entry[0], str)
                    and isinstance(entry[1], list)
                    and all(type(d) is int and d >= 0 for d in entry[1])
                    and type(entry[2]) is int and 0 <= entry[2] < 2 ** 32):
                raise FormatError(
                    f"tensors: expected [name, list of non-negative "
                    f"integers, CRC32], got {reprlib.repr(entry)}")


@dataclass(eq=False)  # arrays inside; identity comparison only
class Checkpoint:
    """One model snapshot: its weights plus the context to rebuild and score it.

    The metadata fields are CheckpointHeader's, all but "tensors", which
    `params` replaces: it maps dotted tensor names to float32 arrays in a
    stable order.  `nets` says which networks those names belong to and
    `frozen` which of them were excluded from training.  `metric_history`
    holds small JSON-safe dicts (loss curve for stage 1, per-epoch
    validation balanced accuracy for stage 2).
    """

    stage: int
    iteration: int
    epoch: int
    model_config: ModelConfig
    frontend: FrontendConfig
    nets: tuple
    frozen: tuple
    params: dict
    cosface: CosFaceHeader | None = None
    metric_history: tuple = ()
    source: str | None = None  # the file load_checkpoint read; never saved

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ContractError(f"stage must be 1 or 2, got {self.stage}")
        for name in self.nets:
            if name not in NET_NAMES:
                raise ContractError(f"unknown network {name!r} in checkpoint")
        for name in self.frozen:
            if name not in self.nets:
                raise ContractError(f"frozen net {name!r} not among stored nets")
        for name, arr in self.params.items():
            if arr.dtype != np.float32:
                raise ContractError(
                    f"checkpoint tensor {name!r} must be float32, got {arr.dtype}")


# the metadata both the writer and the reader walk, in CheckpointHeader order
_META = tuple(f.name for f in dataclasses.fields(CheckpointHeader)
              if f.name != "tensors")


# ---- bundle <-> checkpoint --------------------------------------------------

def checkpoint_from_bundle(bundle: ModelBundle, frontend: FrontendConfig, *,
                           stage: int, nets, iteration: int = 0, epoch: int = 0,
                           head: CosFaceHead | None = None,
                           metric_history=()) -> Checkpoint:
    """Snapshot the given networks (and optionally the margin head).

    Arrays are copied so later training steps cannot mutate the snapshot,
    except a frozen network's, which nothing writes to: those share storage
    with the live bundle.
    """
    params = {}
    for name in nets:
        share = name in bundle.frozen
        for pname, p in bundle.net(name).params(name):
            params[pname] = p.data if share else p.data.copy()
    cosface = None
    if head is not None:
        params["cosface_head.w"] = head.weight.data.copy()
        cosface = CosFaceHeader(scale=head.scale, margin=head.margin)
    return Checkpoint(
        stage=stage, iteration=iteration, epoch=epoch,
        model_config=bundle.config, frontend=frontend,
        nets=tuple(nets), frozen=tuple(n for n in nets if n in bundle.frozen),
        params=params, cosface=cosface,
        metric_history=tuple(metric_history))


def restore_bundle(ckpt: Checkpoint):
    """Rebuild (bundle, head) from a checkpoint.

    Networks absent from the checkpoint keep a fixed-seed fresh
    initialization; callers that need them train or overwrite them.  The
    networks it holds draw no initialization.  The head is None unless
    the checkpoint stored one.
    """
    bundle = build_model(ckpt.model_config, seed=0, drawn=[
        name for name in NET_NAMES if name not in ckpt.nets])
    for name in ckpt.nets:
        load_net_params(bundle, name, ckpt)
    for name in ckpt.frozen:
        bundle.freeze(name)
    head = None
    if ckpt.cosface is not None:
        if "cosface_head.w" not in ckpt.params:
            raise FormatError(
                "checkpoint has a cosface block but no tensor 'cosface_head.w'")
        try:
            head = CosFaceHead(ckpt.model_config.latent_dim,
                               scale=ckpt.cosface.scale,
                               margin=ckpt.cosface.margin,
                               weight=ckpt.params["cosface_head.w"].copy())
        except (ContractError, DimensionError) as exc:
            raise FormatError(f"invalid cosface head: {exc}") from exc
    return bundle, head


def load_net_params(bundle: ModelBundle, net_name: str, ckpt: Checkpoint) -> None:
    """Copy one network's parameters out of a checkpoint into the bundle."""
    for pname, p in bundle.net(net_name).params(net_name):
        if pname not in ckpt.params:
            raise FormatError(f"checkpoint is missing tensor {pname!r}")
        arr = ckpt.params[pname]
        if arr.shape != p.data.shape:
            raise FormatError(
                f"checkpoint tensor {pname!r} has shape {arr.shape}, "
                f"model expects {p.data.shape}")
        p.data = arr.copy()


# ---- serialization ----------------------------------------------------------

def _canonical_header(ckpt: Checkpoint, blobs: list) -> bytes:
    header = {key: getattr(ckpt, key) for key in _META}
    header["tensors"] = [[name, list(blob.shape), zlib.crc32(blob)]
                         for name, blob in zip(ckpt.params, blobs)]
    return json.dumps(header, default=dataclasses.asdict, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the binary checkpoint file described in the module docstring.

    The bytes go to path + ".tmp", a name no "*.dsva" glob matches, which
    replaces path once every byte is written.  A write that fails or is
    interrupted leaves path as it was and removes the temporary file.
    """
    blobs = [np.ascontiguousarray(arr, dtype="<f4")
             for arr in ckpt.params.values()]
    header = _canonical_header(ckpt, blobs)
    part = os.fspath(path) + ".tmp"
    try:
        with open(part, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(header)))
            fh.write(header)
            for blob in blobs:
                fh.write(blob.tobytes())
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(part)
        raise


def _read_blob(buf: bytes, offset: int, name: str, shape, crc: int) -> tuple:
    count = math.prod(shape)
    end = offset + 4 * count
    if end > len(buf):
        raise FormatError(
            f"truncated checkpoint: tensor {name!r} needs bytes "
            f"{offset}..{end}, file ends at byte {len(buf)}")
    if zlib.crc32(memoryview(buf)[offset:end]) != crc:
        raise FormatError(
            f"tensor {name!r}: bytes {offset}..{end} do not match the "
            f"header's CRC32")
    arr = np.frombuffer(buf, dtype="<f4", count=count, offset=offset)
    return arr.reshape(tuple(shape)).copy(), end


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file; format violations name it and the byte offset."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _parse(buf, str(path))
    except FormatError as exc:
        raise FormatError(f"checkpoint {path}: {exc}") from exc


def _parse(buf: bytes, source: str) -> Checkpoint:
    if len(buf) < 4 or buf[:4] != MAGIC:
        raise FormatError(
            f"bad magic at byte 0: expected {MAGIC!r}, got {buf[:4]!r}")
    if len(buf) < _HEADER_AT:
        raise FormatError(
            f"truncated checkpoint: fixed 12-byte prefix, file ends at "
            f"byte {len(buf)}")
    version, header_len = struct.unpack("<II", buf[4:_HEADER_AT])
    if version != VERSION:
        raise FormatError(
            f"unsupported format version {version} at byte 4 "
            f"(supported: {VERSION})")
    if _HEADER_AT + header_len > len(buf):
        raise FormatError(
            f"truncated checkpoint: header needs bytes "
            f"{_HEADER_AT}..{_HEADER_AT + header_len}, file ends at byte {len(buf)}")
    try:
        header = CheckpointHeader.from_dict(json.loads(
            buf[_HEADER_AT:_HEADER_AT + header_len].decode("utf-8")))
    # RecursionError: JSON nested past the interpreter's stack
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"corrupt header at byte {_HEADER_AT}: {exc}") from exc

    offset = _HEADER_AT + header_len
    params = {}
    for name, shape, crc in header.tensors:
        params[name], offset = _read_blob(buf, offset, name, shape, crc)
    if offset != len(buf):
        raise FormatError(
            f"{len(buf) - offset} trailing bytes at byte {offset}")
    try:
        return Checkpoint(**{key: getattr(header, key) for key in _META},
                          params=params, source=source)
    except ContractError as exc:
        raise FormatError(f"invalid checkpoint header: {exc}") from exc
