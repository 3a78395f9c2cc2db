"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of spoofvae's modules from outside
the package: nothing under src/ knows it exists.  Every call to a wrapped
function records one span (name, start, end, parent) in a Python list;
the list is written out when the run ends.  `Tracer.uninstall` puts every
original function back, so a process can alternate traced and untraced
passes over the same code.

A name bound with `from module import name` lives in the importing
module's namespace too (for example `score_features` in spoofvae.train
and `score_dataset` in spoofvae.cli).  `install` replaces every binding of
a wrapped function in every package module, then checks that no module
still holds an unwrapped original; a hook that would silently miss its
layer raises instead.

Also here: the span arithmetic (self time, per-name aggregation), the
percentile rule, and the conv FLOP formulas, all covered by
test_helpers.py.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
import weakref

PACKAGE = "spoofvae"
# the package's modules, one layer each (spoofvae.errors holds no work)
LAYERS = ("cli", "data", "dsp", "tensor", "model", "losses", "optim", "rng",
          "train", "checkpoint", "evaluate")

# public methods worth a span; module-level functions are found by scanning
METHODS = {
    "tensor": {"Tensor": ("backward",)},
    "optim": {"Adam": ("step", "zero_grad")},
    "rng": {"Stream": ("normal",)},
}
# private functions that stand for a phase the metrics name, and that name
PRIVATE = {"train": {"_val_balanced_accuracy": "validation"}}
# the network classes; a forward span is named after the bundle attribute
NETWORK_CLASSES = ("Encoder", "Decoder", "Classifier")


# ---- FLOP and percentile helpers ---------------------------------------------

def conv2d_flops(x_shape, w_shape, out_shape) -> int:
    """Multiply-adds x2 of conv2d's GEMM: (N*Ho*Wo, C*K*K) @ (C*K*K, O)."""
    n = x_shape[0]
    o, c, k, _ = w_shape
    ho, wo = out_shape[2], out_shape[3]
    return 2 * n * ho * wo * o * c * k * k


def conv2d_transpose_flops(x_shape, w_shape) -> int:
    """Multiply-adds x2 of the transpose's GEMM: (N*Hi*Wi, O) @ (O, C*K*K)."""
    n, o, hi, wi = x_shape
    _, c, k, _ = w_shape
    return 2 * n * hi * wi * o * c * k * k


PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending list: (value, samples beyond)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def timing_summary(values) -> dict:
    """Median plus the highest percentile with at least 10 samples beyond it.

    When no percentile qualifies (fewer than 20 samples) the tail is the
    median itself, reported as percentile 50.
    """
    xs = sorted(values)
    if not xs:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 50.0, "samples": 0}
    p50, _ = percentile(xs, 50.0)
    tail, tail_pct = p50, 50.0
    for p in PERCENTILES:
        value, beyond = percentile(xs, p)
        if beyond >= 10:
            tail, tail_pct = value, p
    return {"p50": p50, "tail": tail, "tail_pct": tail_pct,
            "samples": len(xs)}


# ---- span arithmetic -----------------------------------------------------------

def covered(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Per span: duration minus the part its direct child spans cover (ns)."""
    children = [[] for _ in spans]
    for sp in spans:
        if sp[3] >= 0:
            children[sp[3]].append((sp[1], sp[2]))
    return [sp[2] - sp[1] - covered(sp[1], sp[2], kids)
            for sp, kids in zip(spans, children)]


def aggregate(spans) -> dict:
    """name -> {calls, self_s, incl_s, extra} summed over the given spans."""
    out = {}
    for sp, own in zip(spans, self_times(spans)):
        agg = out.setdefault(sp[0], {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                     "extra": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own * 1e-9
        agg["incl_s"] += (sp[2] - sp[1]) * 1e-9
        if sp[4] is not None:
            agg["extra"] += sp[4]
    return out


def stage2_steps(spans) -> list:
    """Seconds per stage-2 training step: first encode to Adam's zero_grad.

    A step is one batch's forward, losses, backward and optimizer update.
    The epoch's validation and checkpoint snapshot fall between steps and
    are not part of any.
    """
    steps = []
    parents = {i for i, sp in enumerate(spans)
               if sp[0] == "train.train_stage2"}
    start = None
    for sp in spans:
        if sp[3] not in parents:
            continue
        if sp[0] == "model.encode" and start is None:
            start = sp[1]
        elif sp[0] == "optim.zero_grad" and start is not None:
            steps.append((sp[2] - start) * 1e-9)
            start = None
    return steps


# ---- the tracer ---------------------------------------------------------------

def _conv2d_extra(args, kwargs, result):
    return conv2d_flops(args[0].shape, args[1].shape, result.shape) * 1e-9


def _conv2d_transpose_extra(args, kwargs, result):
    return conv2d_transpose_flops(args[0].shape, args[1].shape) * 1e-9


def _saved_mb(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path) * 1e-6


def _loaded_mb(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path) * 1e-6


def _eer_records(args, kwargs, result):
    return len(args[0] if args else kwargs["records"])


def _score_failures(args, kwargs, result):
    return len(result[1])


# extra quantity summed per span: GFLOP, MB, records, failures
EXTRAS = {
    "tensor.conv2d": _conv2d_extra,
    "tensor.conv2d_transpose": _conv2d_transpose_extra,
    "checkpoint.save_checkpoint": _saved_mb,
    "checkpoint.load_checkpoint": _loaded_mb,
    "evaluate.compute_eer": _eer_records,
    "evaluate.score_dataset": _score_failures,
}


class Tracer:
    """Records spans in memory; install() hooks spoofvae, uninstall() undoes it.

    A span is [name, start_ns, end_ns, parent_index, extra].
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._net_names = weakref.WeakKeyDictionary()

    # -- recording --

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, extra=None):
        """fn with a span named `name` around every call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if extra is not None:
                rec[4] = extra(args, kwargs, result)
            return result

        traced.__traced_original__ = fn
        return traced

    def _wrap_network(self, cls_name: str, fn):
        tracer = self
        names = self._net_names

        @functools.wraps(fn)
        def traced(net, *args, **kwargs):
            rec = tracer._open(f"model.{names.get(net, cls_name)}.fwd")
            try:
                return fn(net, *args, **kwargs)
            finally:
                tracer._close(rec)

        traced.__traced_original__ = fn
        return traced

    def _wrap_bundle_init(self, fn, net_names):
        names = self._net_names

        @functools.wraps(fn)
        def init(bundle, *args, **kwargs):
            fn(bundle, *args, **kwargs)
            for net in net_names:
                names[getattr(bundle, net)] = net

        init.__traced_original__ = fn
        return init

    # -- hooking --

    def _modules(self) -> dict:
        return {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                for layer in LAYERS}

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's public functions wherever they are bound."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        namespaces = [m for name, m in sys.modules.items()
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        originals = {}  # id(original function) -> wrapped
        for layer, mod in modules.items():
            if layer == "cli":  # the benchmark spans each cli.main call
                continue
            for attr, fn in vars(mod).items():
                private = PRIVATE.get(layer, {})
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (attr in private or not attr.startswith("_"))):
                    continue
                name = f"{layer}.{private.get(attr, attr)}"
                originals[id(fn)] = (fn, self.wrap(name, fn, EXTRAS.get(name)))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(ns, attr, hit[1])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    self._patch(cls, meth, self.wrap(
                        f"{layer}.{meth}", vars(cls)[meth]))
        model = modules["model"]
        for cls_name in NETWORK_CLASSES:
            cls = getattr(model, cls_name)
            self._patch(cls, "__call__",
                        self._wrap_network(cls_name, vars(cls)["__call__"]))
        self._patch(model.ModelBundle, "__init__", self._wrap_bundle_init(
            vars(model.ModelBundle)["__init__"], model.NET_NAMES))
        self._check_coverage(namespaces, originals)

    def _check_coverage(self, namespaces, originals) -> None:
        missed = [f"{ns.__name__}.{attr}"
                  for ns in namespaces for attr, value in vars(ns).items()
                  if id(value) in originals and originals[id(value)][0] is value]
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer left unwrapped bindings: {missed}")

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self) -> list:
        """Hand over the recorded spans and start an empty list."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, self.spans = self.spans, []
        return spans


def write_spans(path, segments) -> None:
    """One JSON line per span: segment, index, name, start, end, parent, extra."""
    with open(path, "w") as fh:
        for label, spans in segments:
            for i, sp in enumerate(spans):
                fh.write(json.dumps([label, i] + list(sp)) + "\n")
