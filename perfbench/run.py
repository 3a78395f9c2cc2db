"""spoofvae benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload toy_pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(perfbench/workloads.py) with BLAS and OpenMP pinned to one thread; this
parent records the child's peak memory, prints provenance and every metric
with its unit, and ends stdout with

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics instead.  Exit status is
0 whenever a result was printed, even if a check failed (then "correct" is
false), and non-zero without a result when the run could not happen, for
example when the child outlives its time limit (see child_timeout).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys

from workloads import MIN_PASSES, SETUP_REPS, THREAD_VARS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
START_ALLOWANCE_S = 15.0  # interpreter start, imports, provenance, checks
WORK_DIR = ".perfbench"  # run outputs, under the checkout root


def git_commit(root: str):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child_timeout(workload, seconds: float) -> float:
    """Seconds the child may run: set-ups, then a timed loop of `seconds`.

    The loop stops after the first pass that ends past `seconds` with at
    least MIN_PASSES timed passes behind the warm-up, so it lasts at most
    `seconds` plus MIN_PASSES + 1 passes.  The allowances hold about twice
    the measured set-up and pass times.
    """
    return (START_ALLOWANCE_S + SETUP_REPS * workload.setup_allowance_s
            + seconds + (MIN_PASSES + 1) * workload.pass_allowance_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spoofvae", "cli.py")):
        print("error: run from the root of a spoofvae checkout "
              "(src/spoofvae/cli.py not found)", file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in
                                       [os.environ.get("PYTHONPATH")] if p])
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), work]
    # the child's stdout joins our stderr: our stdout carries only the report
    timeout = child_timeout(WORKLOADS[args.workload], args.seconds)
    with subprocess.Popen(cmd, env=env, cwd=root, stdout=sys.stderr) as proc:
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"error: workload exceeded {timeout:.0f} s", file=sys.stderr)
            return 3
    if rc != 0:
        print(f"error: workload process exited with {rc}", file=sys.stderr)
        return 1
    # only one child has been waited for, so this is its own peak
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(os.path.join(work, "result.json")) as fh:
        result = json.load(fh)

    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    info = result["info"]
    info["provenance"]["git_commit"] = git_commit(root)
    info["provenance"]["workload"] = args.workload
    info["provenance"]["seconds"] = args.seconds
    info["provenance"]["trace"] = args.trace

    print("provenance " + json.dumps(info["provenance"], sort_keys=True))
    print(f"workload {args.workload}: {info['passes']} passes, "
          f"{info['eval_clips']} eval clips per pass")
    if not args.trace:
        print(f"  setup samples (s): {fmt(info['setup_samples'])}")
        print(f"  pass samples  (s): {fmt(info['pipeline_samples'])}")
        for step, samples in info["step_samples"].items():
            print(f"  {step:<13} (s): {fmt(samples)}")
    print(f"  eer {info['eer']}  balanced_accuracy {info['balanced_accuracy']}"
          f"  holdout_accuracy {info['holdout_accuracy']} (G01)")
    print("  hashes " + json.dumps(info["hashes"], sort_keys=True))
    if info.get("stage2_split"):
        print("  stage-2 split (share of train_stage2 wall time):")
        for label, share in info["stage2_split"].items():
            print(f"    {label:<22} {100 * share:5.1f}%")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    failed = [c for c in result["checks"] if not c["ok"]]
    share = result["failed"] / max(result["attempted"], 1)
    print(f"  checks: {len(result['checks']) - len(failed)} passed, "
          f"{len(failed)} failed; failed_share {share:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for c in failed:
        print(f"  FAILED {c['check']}: {c['detail']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in metrics.items()}}))
    return 0


def fmt(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


if __name__ == "__main__":
    raise SystemExit(main())
