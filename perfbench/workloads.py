"""One benchmark run in one process: set-up, a timed closed loop, checks.

Started by run.py with BLAS pinned to one thread; it imports spoofvae from
the checkout's src/ and drives it only through `spoofvae.cli.main`, the
way a user would from a shell.  The seed reaches the program only inside
the ToyConfig and StageConfig JSON files written here.

    python3 perfbench/workloads.py WORKLOAD SEED SECONDS TRACE WORKDIR

writes WORKDIR/result.json and, for a traced run, WORKDIR/spans.jsonl.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing as tr  # noqa: E402

SETUP_REPS = 3  # untraced run: set-up is repeated and its median reported
MIN_PASSES = 3  # untraced run: timed passes behind each median, at least

# criterion-04 network: 32x32 input, channels 8-64
TOY_MODEL = {"n_mels": 32, "target_frames": 32, "latent_dim": 32,
             "channels": [8, 16, 32, 64], "classifier_channels": [8, 16]}
TOY_FRONT = {"n_mels": 32, "target_frames": 32}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def toy_stage_configs(seed: int, iterations: int, epochs: int):
    s1 = {"stage": 1, "max_iterations": iterations, "seed": seed,
          "model": TOY_MODEL, "frontend": TOY_FRONT}
    s2 = {"stage": 2, "epochs": epochs, "learning_rate": 3e-4, "seed": seed,
          "loss_weights": {"w_con": 3.0}, "model": TOY_MODEL,
          "frontend": TOY_FRONT}
    return s1, s2


class Workload:
    """Inputs and the CLI steps of one workload.

    `setup_steps` build the inputs (timed as setup_s); `timed_steps` are one
    pass of the closed loop.  Both return (step name, argv) lists.  The
    allowances bound one set-up and one pass when run.py sets the child's
    time limit.
    """

    name = ""
    setup_allowance_s = 0.0
    pass_allowance_s = 0.0

    def __init__(self, seed: int):
        self.seed = seed

    def configs(self) -> dict:
        raise NotImplementedError

    def setup_steps(self, cfg: dict, tree: str) -> list:
        return [("gen-toy", ["gen-toy", "--config", cfg["toy"],
                             "--out", os.path.join(tree, "corpus")])]

    def manifest(self, setup_tree: str) -> str:
        return os.path.join(setup_tree, "corpus", "manifest.csv")

    def train_steps(self, cfg: dict, manifest: str, tree: str) -> list:
        return [
            ("train-stage1", ["train-stage1", "--config", cfg["s1"],
                              "--manifest", manifest,
                              "--out", os.path.join(tree, "stage1")]),
            ("train-stage2", ["train-stage2", "--config", cfg["s2"],
                              "--manifest", manifest, "--stage1-checkpoint",
                              os.path.join(tree, "stage1", "stage1.dsva"),
                              "--out", os.path.join(tree, "stage2")]),
            ("select-best", ["select-best",
                             "--checkpoint", os.path.join(tree, "stage2"),
                             "--out", os.path.join(tree, "best")]),
        ]

    def eval_step(self, checkpoint: str, manifest: str, tree: str):
        return ("eval", ["eval", "--checkpoint", checkpoint,
                         "--manifest", manifest,
                         "--out", os.path.join(tree, "report")])

    def timed_steps(self, cfg: dict, setup_tree: str, tree: str) -> list:
        manifest = self.manifest(setup_tree)
        return self.train_steps(cfg, manifest, tree) + [self.eval_step(
            self.best_checkpoint(setup_tree, tree), manifest, tree)]

    def best_checkpoint(self, setup_tree: str, tree: str) -> str:
        return os.path.join(tree, "best", "best.dsva")


class ToyPipeline(Workload):
    """The criterion-04 pipeline, with stage lengths cut to fit the run."""

    name = "toy_pipeline"
    setup_allowance_s = 12.0  # measured 4.5-5.2 s
    pass_allowance_s = 8.0  # measured 2.9-3.7 s

    def configs(self) -> dict:
        # 20 iterations and 3 epochs (criterion 04 trains 300 and 120) keep
        # a pass near 3 s, so that a run holds several passes
        s1, s2 = toy_stage_configs(self.seed, 20, 3)
        toy = {"clips_train": 200, "clips_dev": 50, "clips_eval": 100,
               "holdout_family": "G01", "seed": self.seed}
        return {"toy": toy, "s1": s1, "s2": s2}


class ScoreBulk(Workload):
    """eval of a 2000-clip eval split with a checkpoint made in set-up."""

    name = "score_bulk"
    setup_allowance_s = 30.0  # measured 11-15 s, mostly generating 1 s clips
    pass_allowance_s = 6.0  # measured 2.1-2.9 s

    def configs(self) -> dict:
        s1, s2 = toy_stage_configs(self.seed, 40, 8)
        toy = {"clips_train": 16, "clips_dev": 4, "clips_eval": 1000,
               "holdout_family": "G01", "seed": self.seed}
        return {"toy": toy, "s1": s1, "s2": s2}

    def setup_steps(self, cfg: dict, tree: str) -> list:
        return super().setup_steps(cfg, tree) + self.train_steps(
            cfg, self.manifest(tree), tree)

    def timed_steps(self, cfg: dict, setup_tree: str, tree: str) -> list:
        return [self.eval_step(self.best_checkpoint(setup_tree, tree),
                               self.manifest(setup_tree), tree)]

    def best_checkpoint(self, setup_tree: str, tree: str) -> str:
        return os.path.join(setup_tree, "best", "best.dsva")


class PaperTrain(Workload):
    """Both stages, select-best and eval at the paper's 80x96 model size."""

    name = "paper_train"
    setup_allowance_s = 5.0  # measured 0.6-1.0 s
    pass_allowance_s = 12.0  # measured 4.2-5.4 s

    def configs(self) -> dict:
        toy = {"clips_train": 32, "clips_dev": 8, "clips_eval": 16,
               "holdout_family": "G01", "seed": self.seed}
        s1 = {"stage": 1, "max_iterations": 8, "seed": self.seed}
        s2 = {"stage": 2, "epochs": 2, "seed": self.seed}
        return {"toy": toy, "s1": s1, "s2": s2}


WORKLOADS = {w.name: w for w in (ToyPipeline, ScoreBulk, PaperTrain)}

# ---- per-layer metrics ---------------------------------------------------------
# (metric, span, kind, unit); kind is self (self time), incl (whole call),
# calls, or extra (the quantity EXTRAS in tracing.py sums per span)
PER_LAYER = [
    ("tensor.conv2d_s", "tensor.conv2d", "self", "s"),
    ("tensor.conv2d.calls", "tensor.conv2d", "calls", "count"),
    ("tensor.conv2d.gflop", "tensor.conv2d", "extra", "GFLOP"),
    ("tensor.conv2d_transpose_s", "tensor.conv2d_transpose", "self", "s"),
    ("tensor.conv2d_transpose.calls", "tensor.conv2d_transpose", "calls",
     "count"),
    ("tensor.conv2d_transpose.gflop", "tensor.conv2d_transpose", "extra",
     "GFLOP"),
    ("tensor.leaky_relu_s", "tensor.leaky_relu", "self", "s"),
    ("tensor.matmul_s", "tensor.matmul", "self", "s"),
    ("tensor.backward_s", "tensor.backward", "self", "s"),
    ("tensor.backward.calls", "tensor.backward", "calls", "count"),
    ("model.general_encoder.fwd_s", "model.general_encoder.fwd", "incl", "s"),
    ("model.general_encoder.fwd.calls", "model.general_encoder.fwd", "calls",
     "count"),
    ("model.disentangled_encoder.fwd_s", "model.disentangled_encoder.fwd",
     "incl", "s"),
    ("model.general_decoder.fwd_s", "model.general_decoder.fwd", "incl", "s"),
    ("model.joint_decoder.fwd_s", "model.joint_decoder.fwd", "incl", "s"),
    ("model.map_decoder.fwd_s", "model.map_decoder.fwd", "incl", "s"),
    ("model.classifier.fwd_s", "model.classifier.fwd", "incl", "s"),
    ("model.infer_s", "model.infer", "incl", "s"),
    ("model.infer.calls", "model.infer", "calls", "count"),
    ("losses.stage1_loss_s", "losses.stage1_loss", "incl", "s"),
    ("losses.stage2_loss_s", "losses.stage2_loss", "incl", "s"),
    ("optim.step_s", "optim.step", "self", "s"),
    ("optim.step.calls", "optim.step", "calls", "count"),
    ("optim.zero_grad_s", "optim.zero_grad", "self", "s"),
    ("rng.normal_s", "rng.normal", "self", "s"),
    ("rng.normal.calls", "rng.normal", "calls", "count"),
    ("train.load_features_s", "train.load_features", "incl", "s"),
    ("train.load_features.calls", "train.load_features", "calls", "count"),
    ("train.validation_s", "train.validation", "incl", "s"),
    ("checkpoint.checkpoint_from_bundle_s", "checkpoint.checkpoint_from_bundle",
     "incl", "s"),
    ("checkpoint.save_checkpoint_s", "checkpoint.save_checkpoint", "incl", "s"),
    ("checkpoint.save_checkpoint.calls", "checkpoint.save_checkpoint", "calls",
     "count"),
    ("checkpoint.save_mb", "checkpoint.save_checkpoint", "extra", "MB"),
    ("checkpoint.load_checkpoint_s", "checkpoint.load_checkpoint", "incl", "s"),
    ("checkpoint.load_mb", "checkpoint.load_checkpoint", "extra", "MB"),
    ("checkpoint.restore_bundle_s", "checkpoint.restore_bundle", "incl", "s"),
    ("dsp.mel_features_s", "dsp.mel_features", "incl", "s"),
    ("dsp.mel_features.calls", "dsp.mel_features", "calls", "count"),
    ("dsp.stft_magnitude_s", "dsp.stft_magnitude", "self", "s"),
    ("dsp.mel_spectrogram_s", "dsp.mel_spectrogram", "self", "s"),
    ("data.generate_toy_dataset_s", "data.generate_toy_dataset", "incl", "s"),
    ("data.write_wav_s", "data.write_wav", "self", "s"),
    ("data.load_wav_s", "data.load_wav", "self", "s"),
    ("data.load_wav.calls", "data.load_wav", "calls", "count"),
    ("data.parse_manifest_s", "data.parse_manifest", "self", "s"),
    ("evaluate.score_features_s", "evaluate.score_features", "incl", "s"),
    ("evaluate.compute_eer_s", "evaluate.compute_eer", "self", "s"),
    ("evaluate.compute_eer.records", "evaluate.compute_eer", "extra", "count"),
    ("evaluate.balanced_accuracy_s", "evaluate.balanced_accuracy", "self", "s"),
    ("evaluate.per_synthesizer_report_s", "evaluate.per_synthesizer_report",
     "self", "s"),
    ("evaluate.write_scores_csv_s", "evaluate.write_scores_csv", "self", "s"),
    ("evaluate.score_failures", "evaluate.score_dataset", "extra", "count"),
    ("cli.select_best_s", "cli.select_best", "incl", "s"),
    ("cli.eval_s", "cli.eval", "incl", "s"),
]
STEP_METRICS = [("train.step_s.p50", "s"), ("train.step_s.tail", "s"),
                ("train.step_s.tail_pct", "pct"), ("train.step.samples", "count")]

# rows of the stage-2 split: label -> spans whose whole calls count
STAGE2_SPLIT = [
    ("backward", ("tensor.backward",)),
    ("encoder forward", ("model.general_encoder.fwd",
                         "model.disentangled_encoder.fwd")),
    ("map-decoder forward", ("model.map_decoder.fwd",)),
    ("joint-decoder forward", ("model.joint_decoder.fwd",)),
    ("classifier forward", ("model.classifier.fwd",)),
    ("per-epoch validation", ("train.validation",)),
    ("Adam", ("optim.step", "optim.zero_grad")),
    ("feature load", ("train.load_features",)),
    ("losses", ("losses.stage2_loss",)),
    ("noise draws", ("rng.normal",)),
    ("checkpoint snapshot", ("checkpoint.checkpoint_from_bundle",)),
]


def per_layer_metrics(setup_spans, timed_passes) -> dict:
    """Per-layer values over the traced set-up plus one traced pass.

    The pass's share is the mean over the traced passes.  Counting set-up
    gives corpus generation its layers, and on score_bulk it puts the
    training that makes the checkpoint under the training layers.
    """
    n = len(timed_passes)
    setup = tr.aggregate(setup_spans)
    timed = tr.aggregate([sp for spans in timed_passes for sp in spans])
    none = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "extra": 0.0}
    key = {"self": "self_s", "incl": "incl_s", "calls": "calls",
           "extra": "extra"}
    out = {}
    for metric, span, kind, unit in PER_LAYER:
        value = setup.get(span, none)[key[kind]] \
            + timed.get(span, none)[key[kind]] / n
        out[metric] = {"value": value, "unit": unit}
    steps = tr.timing_summary(
        [s for spans in [setup_spans] + timed_passes
         for s in tr.stage2_steps(spans)])
    for (metric, unit), field in zip(STEP_METRICS,
                                     ("p50", "tail", "tail_pct", "samples")):
        out[metric] = {"value": steps[field], "unit": unit}
    return out


def stage2_split(spans) -> dict:
    """Share of train_stage2 wall time in each row of STAGE2_SPLIT.

    Rows count whole calls anywhere under train_stage2, so the validation
    forwards are counted both in their network rows and in validation.
    """
    roots = {i for i, sp in enumerate(spans) if sp[0] == "train.train_stage2"}
    if not roots:
        return {}
    root_of = {}
    for i, sp in enumerate(spans):
        if i in roots:
            root_of[i] = i
        elif sp[3] >= 0 and sp[3] in root_of:
            root_of[i] = root_of[sp[3]]
    total = sum(spans[i][2] - spans[i][1] for i in roots)
    rows = {}
    for label, names in STAGE2_SPLIT:
        ns = sum(sp[2] - sp[1] for i, sp in enumerate(spans)
                 if i in root_of and i not in roots and sp[0] in names)
        rows[label] = ns / total
    return rows


# ---- running the CLI ---------------------------------------------------------

class Run:
    """Counts operations and failed checks; times each CLI invocation."""

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += 1
        return ok

    @contextlib.contextmanager
    def tracing(self):
        """Trace the CLI steps run inside; the package is unpatched after."""
        self.tracer.install()
        self.traced = True
        try:
            yield
        finally:
            self.tracer.uninstall()
            self.traced = False

    def step(self, step: str, argv: list, log_dir: str) -> float:
        """Run one CLI command; its stdout and stderr go to log files."""
        os.makedirs(log_dir, exist_ok=True)
        self.attempted += 1
        out_path = os.path.join(log_dir, f"{step}.out")
        with open(out_path, "w") as out, \
                open(os.path.join(log_dir, f"{step}.err"), "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if self.traced:
                with self.tracer.span("cli." + step.replace("-", "_")):
                    rc = self.cli.main(argv)
            else:
                rc = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        self.check(f"{step} exits 0", rc == 0, f"exit code {rc}; see {out_path}")
        return elapsed

    def steps(self, steps: list, log_dir: str) -> dict:
        return {step: self.step(step, argv, log_dir) for step, argv in steps}


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_tree(root: str, suffix: str = "") -> str:
    """One digest over the relative path and bytes of every file (by suffix)."""
    h = hashlib.sha256()
    for dirpath, dirnames, names in os.walk(root):
        dirnames.sort()
        for name in sorted(n for n in names if n.endswith(suffix)):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(sha256_file(path).encode())
    return h.hexdigest()


def eval_rows(manifest: str) -> list:
    """The eval-split rows of a manifest CSV, as dicts."""
    with open(manifest, newline="") as fh:
        return [r for r in csv.DictReader(fh) if r["split"] == "eval"]


def check_outputs(run: Run, manifest: str, tree: str, best: str) -> dict:
    """Output checks of one pass; returns the hashes and the report."""
    report_path = os.path.join(tree, "report", "report.json")
    scores_path = os.path.join(tree, "report", "scores.csv")
    expected = eval_rows(manifest)
    run.attempted += len(expected)  # every eval record is one scored clip
    report = None
    try:
        with open(report_path) as fh:
            report = json.load(fh)
        keys = {"eer", "balanced_accuracy", "per_synthesizer", "counts"}
        run.check("report.json parses", keys <= set(report),
                  f"keys {sorted(report)}")
    except (OSError, ValueError) as exc:
        run.check("report.json parses", False, str(exc))
    try:
        with open(scores_path, newline="") as fh:
            scored = len(list(csv.DictReader(fh)))
    except OSError as exc:
        scored = 0
        run.check("scores.csv readable", False, str(exc))
    missing = len(expected) - scored
    run.failed += max(missing, 0)  # a clip without a score row failed
    run.check("scores.csv has one row per eval record", missing == 0,
              f"{scored} rows for {len(expected)} eval records")
    hashes = {}
    for label, path in (("report.json", report_path),
                        ("scores.csv", scores_path), ("best.dsva", best)):
        hashes[label] = sha256_file(path) if os.path.exists(path) else None
    return {"hashes": hashes, "report": report}


def holdout_accuracy(report) -> float | None:
    for row in report.get("per_synthesizer", []):
        if row["synthesizer_id"] == "G01":
            return row["accuracy"]
    return None


def provenance(seed: int, src: str) -> dict:
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "src_sha256": sha256_tree(src, ".py"),
        "seed": seed,
    }


def main(argv) -> int:
    name, seed, seconds, trace, work = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    src = os.path.join(os.getcwd(), "src")
    from spoofvae import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"spoofvae imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[name](seed)
    tracer = tr.Tracer() if trace else None
    run = Run(cli, tracer)

    cfg = {}
    for key, doc in workload.configs().items():
        cfg[key] = os.path.join(work, f"{key}.json")
        with open(cfg[key], "w") as fh:
            json.dump(doc, fh, indent=1)

    setup_tree = os.path.join(work, "setup0")
    manifest = workload.manifest(setup_tree)

    def set_up(rep: int) -> dict:
        """One set-up into setup<rep>; only setup0's tree is kept."""
        tree = os.path.join(work, f"setup{rep}")
        times = run.steps(workload.setup_steps(cfg, tree), tree)
        digest = {"corpus": sha256_tree(os.path.join(tree, "corpus"))}
        best = workload.best_checkpoint(tree, tree)
        if name == "score_bulk":
            digest["best.dsva"] = sha256_file(best) if os.path.exists(best) \
                else None
        if rep:
            shutil.rmtree(tree)
        return {"times": times, "digest": digest}

    def timed_pass(i: int) -> dict:
        tree = os.path.join(work, f"pass{i}")
        times = run.steps(workload.timed_steps(cfg, setup_tree, tree), tree)
        out = check_outputs(run, manifest, tree,
                            workload.best_checkpoint(setup_tree, tree))
        if i:
            shutil.rmtree(os.path.join(work, f"pass{i - 1}"))
        gc.collect()  # each pass starts without the last one's garbage
        return {"times": times, "pipeline_s": sum(times.values()), **out}

    # Set-up is repeated (the traced run traces its second one), and a share
    # of the closed loop follows each set-up.  The machine's speed drifts
    # over tens of seconds, so spreading both kinds of sample over the whole
    # run gives steadier medians than timing them at either end.  Pass 0
    # warms the process (allocator, caches) and is checked but not timed; a
    # traced run then alternates traced and untraced passes.
    reps = 2 if trace else SETUP_REPS
    setups, passes, setup_spans, timed_spans = [], [], [], []
    loop_s = 0.0  # wall time spent in passes
    for rep in range(reps):
        if trace and rep == 1:
            with run.tracing():
                setups.append(set_up(rep))
            setup_spans = tracer.take()
        else:
            setups.append(set_up(rep))
        while True:
            i = len(passes)
            traced = trace and i % 2 == 1
            start = time.perf_counter()
            if traced:
                with run.tracing():
                    passes.append(timed_pass(i))
                timed_spans.append(tracer.take())
            else:
                passes.append(timed_pass(i))
            loop_s += time.perf_counter() - start
            passes[-1].update(traced=traced, warmup=i == 0)
            plain = [p for p in passes if not p["traced"] and not p["warmup"]]
            enough = rep < reps - 1 or (
                (len(timed_spans) >= 1 and len(plain) >= 1) if trace
                else len(plain) >= MIN_PASSES)
            if enough and loop_s >= seconds * (rep + 1) / reps:
                break

    setup_times = [sum(s["times"].values()) for s in setups]
    setup_steps = [s["times"] for s in setups]
    setup_hashes = [s["digest"] for s in setups]
    run.check("set-up repeats byte-identical",
              all(h == setup_hashes[0] for h in setup_hashes),
              json.dumps(setup_hashes))
    n_eval = len(eval_rows(manifest))

    first = passes[0]["hashes"]
    run.check("outputs byte-identical across passes"
              + (" (traced and untraced)" if trace else ""),
              all(p["hashes"] == first for p in passes),
              json.dumps([p["hashes"] for p in passes]))
    report = passes[0]["report"] or {}

    info = {
        "provenance": provenance(seed, src),
        "passes": len(passes),
        "setup_samples": setup_times,
        "setup_steps": setup_steps,
        "pipeline_samples": [p["pipeline_s"] for p in plain],
        "step_samples": {k: [p["times"][k] for p in plain]
                         for k in plain[0]["times"]},
        "hashes": first,
        "setup_hashes": setup_hashes[0],
        "eer": report.get("eer"),
        "balanced_accuracy": report.get("balanced_accuracy"),
        "holdout_accuracy": holdout_accuracy(report) if report else None,
        "eval_clips": n_eval,
    }
    if trace:
        metrics = per_layer_metrics(setup_spans, timed_spans)
        traced_s = statistics.median(
            [p["pipeline_s"] for p in passes if p["traced"]])
        overhead = traced_s / statistics.median(info["pipeline_samples"]) - 1.0
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "share"}
        fired = {sp[0] for spans in [setup_spans] + timed_spans for sp in spans}
        missing = sorted({span for _, span, _, _ in PER_LAYER} - fired)
        run.check("every per-layer metric of the workload fired", not missing,
                  f"never called: {missing}")
        # score_bulk runs stage 2 only in set-up
        info["stage2_split"] = stage2_split(timed_spans[0]) \
            or stage2_split(setup_spans)
        tr.write_spans(os.path.join(work, "spans.jsonl"),
                       [("setup", setup_spans)]
                       + [(f"pass{2 * k + 1}", s)
                          for k, s in enumerate(timed_spans)])
    else:
        steps = info["step_samples"]
        if name == "score_bulk":  # stages run only in set-up here
            steps = {k: [s[k] for s in setup_steps]
                     for k in ("train-stage1", "train-stage2")} | steps
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": statistics.median(info["pipeline_samples"]),
            "stage1_s": statistics.median(steps["train-stage1"]),
            "stage2_s": statistics.median(steps["train-stage2"]),
            "score_clips_per_s": n_eval / statistics.median(steps["eval"]),
        }
        units = {"setup_s": "s", "pipeline_s": "s", "stage1_s": "s",
                 "stage2_s": "s", "score_clips_per_s": "1/s"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    result = {"attempted": run.attempted, "failed": run.failed,
              "checks": run.checks, "metrics": metrics, "info": info}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
