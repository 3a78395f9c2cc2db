"""Command-line entry point exposing the full pipeline as subcommands.

Subcommands: gen-toy, train-stage1, train-stage2, select-best, eval, infer,
export-embeddings.  Machine-readable output goes to stdout or files under
--out; progress and notes go to stderr.  Exit codes: 0 success, 1 bad
input or file format, 2 internal error, 130 interrupted (Ctrl-C), 143
terminated (SIGTERM).

Manifest splits follow fixed conventions: train-stage1 and train-stage2
consume the train split, validation comes from the dev split, and eval /
export-embeddings use the eval split.  When the wanted split is empty the
whole manifest is used and a note is printed to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import glob
import json
import os
import signal
import sys
import threading

import numpy as np

from . import model as M
from .checkpoint import load_checkpoint, restore_bundle, save_checkpoint
from .config import read_json_object
from .data import (ToyConfig, export_pgm, generate_toy_dataset, load_wav,
                   parse_manifest)
from .dsp import mel_features
from .errors import FormatError, InputError, NumericalError, SpoofVaeError
from .evaluate import (EMBED_BOTH, EMBED_DISENTANGLED, EMBED_GENERAL,
                       check_finite_scores, eval_report, export_embeddings,
                       score_dataset, write_rows, write_scores_csv)
from .tensor import Tensor
from .train import StageConfig, select_best, train_stage1, train_stage2

# export-embeddings --which: the embedding and the encoders it runs
_WHICH = {"fg": (EMBED_GENERAL, ("general_encoder",)),
          "fd": (EMBED_DISENTANGLED, ("disentangled_encoder",)),
          "both": (EMBED_BOTH, ("general_encoder", "disentangled_encoder"))}
# the networks M.infer runs for a score, and those M.reconstruct adds for
# infer's images
_SCORING = ("disentangled_encoder", "map_decoder", "classifier")
_RECONSTRUCTION = ("general_encoder", "joint_decoder")


class _UsageError(InputError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as exit-1 input errors."""

    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed training buffers in the heap for the next step (glibc).

    A paper-size training step frees over 100 MB of tape buffers when its
    backward ends.  By default glibc returns that memory to the system and
    the next step faults it back in, page by page; this keeps it.  Both
    thresholds are set because setting either one turns off glibc's
    dynamic mmap threshold and leaves it at 128 KiB, which would make every
    large array a fresh mmap.  Other C libraries lack mallopt, and the call
    is skipped.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's maximum on 64-bit
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised where it lands, so that it unwinds as Ctrl-C does."""


def _raise_terminated(signum, frame):
    raise _Terminated


@contextlib.contextmanager
def _sigterm_unwinds():
    """Raise _Terminated on SIGTERM inside the with block, then put the
    previous handler back (perfbench and the tests call main in-process).
    Python runs handlers on the main thread only, so elsewhere this does
    nothing.  Forked children inherit the handler; one that gets SIGTERM
    ends through os._exit as on any exception."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        yield
    finally:  # None: a handler not set from Python, which leaves no default
        signal.signal(signal.SIGTERM,
                      signal.SIG_DFL if previous is None else previous)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _pick_split(records, split: str):
    subset = [r for r in records if r.split == split]
    if subset:
        return subset
    _note(f"note: manifest has no '{split}' rows; using all "
          f"{len(records)} rows")
    return records


def _stage_config(args, stage: int) -> StageConfig:
    if args.config:
        doc = {"stage": stage, **read_json_object(args.config)}
        cfg = StageConfig.from_dict(doc)
        if cfg.stage != stage:
            raise InputError(
                f"config declares stage {cfg.stage}, subcommand needs "
                f"stage {stage}")
    else:
        cfg = StageConfig.stage1() if stage == 1 else StageConfig.stage2()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _checkpoint_paths(arg) -> list:
    if os.path.isdir(arg):
        paths = sorted(glob.glob(os.path.join(glob.escape(arg), "*.dsva")))
        if not paths:
            raise InputError(f"no .dsva checkpoints found in {arg}")
        return paths
    return [arg]


def _holding(ckpt, nets):
    """ckpt, if it holds every network in nets (input error otherwise)."""
    missing = [n for n in nets if n not in ckpt.nets]
    if missing:
        raise InputError(
            f"checkpoint {ckpt.source}: lacks {', '.join(missing)} "
            f"(holds {', '.join(ckpt.nets)})")
    return ckpt


def _restore(path, nets):
    """(checkpoint, model bundle) from a checkpoint file holding nets."""
    ckpt = _holding(load_checkpoint(path), nets)
    return ckpt, restore_bundle(ckpt)[0]


@contextlib.contextmanager
def _weights_of(path):
    """Non-finite model output is the checkpoint's fault: exit 1 naming it."""
    try:
        yield
    except NumericalError as exc:
        raise FormatError(f"checkpoint {path}: {exc}") from exc


def _report_failures(failures) -> None:
    for f in failures:
        _note(f"failed: {f['path']}: {f['error']}")
    if failures:
        _note(f"note: {len(failures)} clip(s) failed to score")


# ---- subcommand bodies --------------------------------------------------------

def _cmd_gen_toy(args) -> int:
    cfg = ToyConfig.from_dict(read_json_object(args.config)) \
        if args.config else ToyConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    manifest = generate_toy_dataset(cfg, args.out)
    print(manifest)
    return 0


def _cmd_train_stage1(args) -> int:
    cfg = _stage_config(args, 1)
    records = _pick_split(parse_manifest(args.manifest), "train")
    ckpt = train_stage1(records, cfg, log=_note)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "stage1.dsva")
    save_checkpoint(ckpt, path)
    print(path)
    return 0


def _cmd_train_stage2(args) -> int:
    cfg = _stage_config(args, 2)
    records = parse_manifest(args.manifest)
    train_records = _pick_split(records, "train")
    if args.val_manifest:
        val_records = _pick_split(parse_manifest(args.val_manifest), "dev")
    else:
        val_records = [r for r in records if r.split == "dev"]
        if not val_records:
            _note("note: no dev rows for validation; metrics use the "
                  "training records")
            val_records = None
    stage1 = load_checkpoint(args.stage1_checkpoint) \
        if args.stage1_checkpoint else None
    if stage1 is None:
        _note("note: no stage-1 checkpoint; the general encoder stays at "
              "its random initialization")

    def write(ckpt):
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"epoch_{ckpt.epoch:03d}.dsva")
        save_checkpoint(ckpt, path)
        print(path, flush=True)

    # each epoch's file is written as the epoch ends, so an epoch that
    # fails leaves the earlier ones on disk
    train_stage2(train_records, stage1, cfg, val_records=val_records,
                 log=_note, on_epoch=write)
    return 0


def _cmd_select_best(args) -> int:
    paths = _checkpoint_paths(args.checkpoint)
    val_records = _pick_split(parse_manifest(args.val_manifest), "dev") \
        if args.val_manifest else None
    judged = []

    def checkpoints():
        for path in paths:
            judged.append(path)
            ckpt = load_checkpoint(path)
            yield ckpt if val_records is None else _holding(ckpt, _SCORING)

    # select_best judges each file before it reads the next one
    try:
        best = select_best(checkpoints(), val_records)
    except NumericalError as exc:
        raise FormatError(f"checkpoint {judged[-1]}: {exc}") from exc
    except InputError as exc:
        if val_records is not None:  # the set's fault, or the file is named
            raise
        raise InputError(f"checkpoint {judged[-1]}: {exc}") from exc
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "best.dsva")
        save_checkpoint(best, path)
        print(path)
    else:
        print(best.source)
    return 0


def _cmd_eval(args) -> int:
    ckpt, bundle = _restore(args.checkpoint, _SCORING)
    records = _pick_split(parse_manifest(args.manifest), "eval")
    with _weights_of(args.checkpoint):
        scores, failures = score_dataset(bundle, records, ckpt.frontend)
    _report_failures(failures)
    report = eval_report(scores)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_scores_csv(scores, os.path.join(args.out, "scores.csv"))
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_infer(args) -> int:
    ckpt, bundle = _restore(args.checkpoint, _SCORING + (
        _RECONSTRUCTION if args.maps else ()))
    feats = mel_features(load_wav(args.wav), ckpt.frontend)[None, None, :, :]
    scores, a_map, x_map = M.infer(bundle, Tensor(feats))
    x_hat = M.reconstruct(bundle, Tensor(feats)) if args.maps else None
    with _weights_of(args.checkpoint):
        check_finite_scores(scores)
        if args.maps:  # the images need finite values too
            for what, values in (("reconstructed features", x_hat),
                                 ("activation maps", a_map),
                                 ("weighted inputs", x_map)):
                check_finite_scores(values, what)
    score_text = f"{float(scores[0]):.6g}"
    print(score_text)
    if args.maps:
        os.makedirs(args.maps, exist_ok=True)
        stem = os.path.splitext(os.path.basename(args.wav))[0]
        with open(os.path.join(args.maps, f"{stem}.score.txt"), "w") as fh:
            fh.write(score_text + "\n")
        # row 0 is the lowest mel bin; images put high frequencies on top
        for name, image, scale in (("x", feats, "minmax"),
                                   ("xrec", x_hat, "minmax"),
                                   ("amap", a_map, ("fixed", 0.0, 1.0)),
                                   ("xmap", x_map, "minmax")):
            export_pgm(np.flipud(image[0, 0]),
                       os.path.join(args.maps, f"{stem}.{name}.pgm"), scale)
    return 0


def _cmd_export_embeddings(args) -> int:
    which, nets = _WHICH[args.which]
    ckpt, bundle = _restore(args.checkpoint, nets)
    records = _pick_split(parse_manifest(args.manifest), "eval")
    with _weights_of(args.checkpoint):
        ids, emb, failures = export_embeddings(bundle, records, which,
                                               ckpt.frontend)
    _report_failures(failures)
    names = [f"f_{i}" for i in range(emb.shape[1])]
    if not args.out:
        write_rows(sys.stdout, ids, names, emb)
        return 0
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "embeddings.csv")
    with open(path, "w", newline="") as fh:
        write_rows(fh, ids, names, emb)
    print(path)
    return 0


# ---- wiring -------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="spoofvae",
                     description="Two-stage spectrogram disentanglement for "
                                 "synthetic-speech detection")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen-toy", help="generate the deterministic toy corpus")
    p.add_argument("--config", help="ToyConfig JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(run=_cmd_gen_toy)

    p = sub.add_parser("train-stage1", help="reconstruction pre-training")
    p.add_argument("--config", help="StageConfig JSON (stage 1)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--seed", type=int)
    p.set_defaults(run=_cmd_train_stage1)

    p = sub.add_parser("train-stage2", help="labeled disentanglement training")
    p.add_argument("--config", help="StageConfig JSON (stage 2)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--val-manifest")
    p.add_argument("--stage1-checkpoint")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--seed", type=int)
    p.set_defaults(run=_cmd_train_stage2)

    p = sub.add_parser("select-best",
                       help="pick the checkpoint with the best validation "
                            "balanced accuracy")
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint file or directory of .dsva files")
    p.add_argument("--val-manifest",
                   help="recompute metrics instead of using recorded ones")
    p.add_argument("--out", help="directory for a best.dsva copy")
    p.set_defaults(run=_cmd_select_best)

    p = sub.add_parser("eval", help="score a manifest and print the report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="directory for scores.csv and report.json")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("infer", help="score one clip, optionally with maps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--maps", help="directory for score.txt and PGM images")
    p.set_defaults(run=_cmd_infer)

    p = sub.add_parser("export-embeddings", help="per-clip mean latents as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--which", choices=sorted(_WHICH), default="both")
    p.add_argument("--out", help="directory for embeddings.csv")
    p.set_defaults(run=_cmd_export_embeddings)
    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    with _sigterm_unwinds():
        try:
            args = _build_parser().parse_args(argv)
            # training's step check and the score checks catch every
            # non-finite value, so numpy's warnings would only add stderr
            # lines; forked children inherit this
            with np.errstate(all="ignore"):
                return args.run(args)
        except SystemExit as exc:  # argparse -h/--help
            return 0 if exc.code in (0, None) else int(exc.code)
        # Ctrl-C or SIGTERM; every child is reaped by now
        except _Terminated:
            print("terminated", file=sys.stderr)
            return 143
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
            return 130
        except (InputError, FormatError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except SpoofVaeError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            print(f"internal error: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
