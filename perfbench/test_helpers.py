"""Self-tests for the benchmark's helpers.

    python3 -m pytest perfbench/test_helpers.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing as tr  # noqa: E402
import workloads  # noqa: E402


# ---- percentile rule ---------------------------------------------------------

def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))  # 1..100
    assert tr.percentile(xs, 50.0) == (50, 50)
    assert tr.percentile(xs, 90.0) == (90, 10)
    assert tr.percentile(xs, 99.0) == (99, 1)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    s = tr.timing_summary(range(1, 101))
    assert (s["p50"], s["tail"], s["tail_pct"], s["samples"]) == (50, 90, 90.0, 100)
    s = tr.timing_summary(range(1, 1001))
    assert (s["tail"], s["tail_pct"]) == (990, 99.0)
    s = tr.timing_summary(range(1, 201))  # p95: rank 190, 10 beyond
    assert (s["tail"], s["tail_pct"]) == (190, 95.0)


def test_tail_falls_back_to_median_below_twenty_samples():
    s = tr.timing_summary([5.0, 1.0, 3.0])
    assert (s["p50"], s["tail"], s["tail_pct"], s["samples"]) == (3.0, 3.0, 50.0, 3)
    s = tr.timing_summary(range(20))  # p50 has exactly 10 beyond
    assert (s["tail"], s["tail_pct"]) == (9, 50.0)
    assert tr.timing_summary([])["samples"] == 0


# ---- span self time ------------------------------------------------------------

def span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


def test_self_time_nested_chain():
    spans = [span("a", 0, 100), span("b", 10, 60, 0), span("c", 20, 30, 1)]
    assert tr.self_times(spans) == [50, 40, 10]


def test_self_time_siblings():
    spans = [span("a", 0, 100), span("b", 10, 20, 0), span("c", 30, 55, 0),
             span("d", 55, 60, 0)]
    assert tr.self_times(spans) == [60, 10, 25, 5]


def test_covered_merges_overlaps_and_clips_to_parent():
    assert tr.covered(0, 100, [(10, 30), (20, 40), (90, 120)]) == 40
    assert tr.covered(0, 100, []) == 0
    assert tr.covered(50, 60, [(0, 10)]) == 0


def test_aggregate_sums_per_name():
    spans = [span("a", 0, 100), span("b", 10, 20, 0), span("b", 30, 50, 0)]
    spans[1][4] = 1.5
    agg = tr.aggregate(spans)
    assert agg["b"]["calls"] == 2
    assert agg["b"]["incl_s"] == pytest.approx(30e-9)
    assert agg["a"]["self_s"] == pytest.approx(70e-9)
    assert agg["b"]["extra"] == 1.5


def test_stage2_steps_run_from_first_encode_to_zero_grad():
    spans = [span("train.train_stage2", 0, 1000),
             span("train.load_features", 0, 100, 0),
             span("model.encode", 100, 150, 0),
             span("model.encode", 150, 200, 0),
             span("optim.zero_grad", 290, 300, 0),
             span("train.validation", 300, 400, 0),
             span("model.encode", 400, 420, 5),  # inside validation
             span("model.encode", 500, 550, 0),
             span("optim.zero_grad", 690, 700, 0)]
    assert tr.stage2_steps(spans) == pytest.approx([200e-9, 200e-9])


# ---- conv FLOP formulas --------------------------------------------------------

def test_conv2d_flops_at_toy_encoder_shapes():
    # first encoder conv: 32 clips of 1x32x32, 8 filters 3x3, stride 2
    # 16x16 outputs x 8 channels x 9 taps x 1 input channel x 32 clips x 2
    assert tr.conv2d_flops((32, 1, 32, 32), (8, 1, 3, 3),
                           (32, 8, 16, 16)) == 1_179_648
    # second: 8x8 outputs x 16 channels x 9 taps x 8 inputs x 32 clips x 2
    assert tr.conv2d_flops((32, 8, 16, 16), (16, 8, 3, 3),
                           (32, 16, 8, 8)) == 4_718_592


def test_conv2d_transpose_flops_at_toy_decoder_shapes():
    # first decoder layer: 2x2 inputs x 64 channels -> 32 channels, 4x4 taps
    # 4 positions x 64 x 32 x 16 x 32 clips x 2
    assert tr.conv2d_transpose_flops((32, 64, 2, 2), (64, 32, 4, 4)) == 8_388_608
    # last: 16x16 inputs x 8 channels -> 1 channel: 256 x 8 x 16 x 32 x 2
    assert tr.conv2d_transpose_flops((32, 8, 16, 16), (8, 1, 4, 4)) == 2_097_152


# ---- hooking spoofvae --------------------------------------------------------

def test_install_wraps_from_imports_and_uninstall_restores():
    from spoofvae import cli, evaluate, model, tensor, train
    originals = (train.score_features, cli.score_dataset, tensor.conv2d,
                 model.Encoder.__call__, tensor.Tensor.backward)
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert train.score_features.__traced_original__ is originals[0]
        assert cli.score_dataset.__traced_original__ is originals[1]
        assert evaluate.score_features is train.score_features
        bundle = model.build_model(model.ModelConfig(
            n_mels=16, target_frames=16, channels=(4, 8),
            classifier_channels=(4,)), seed=1)
        import numpy as np
        model.infer(bundle, tensor.Tensor(np.zeros((2, 1, 16, 16), np.float32)))
    finally:
        tracer.uninstall()
    names = {sp[0] for sp in tracer.take()}
    assert {"model.infer", "model.disentangled_encoder.fwd",
            "model.map_decoder.fwd", "model.classifier.fwd",
            "tensor.conv2d", "tensor.conv2d_transpose"} <= names
    assert "model.general_encoder.fwd" not in names
    assert (train.score_features, cli.score_dataset, tensor.conv2d,
            model.Encoder.__call__, tensor.Tensor.backward) == originals


def test_coverage_check_fails_loudly_on_an_unwrapped_binding():
    def layer_fn():
        return 1

    probe = type(sys)("spoofvae_probe")
    probe.alias = layer_fn  # a from-import the patching did not reach
    tracer = tr.Tracer()
    with pytest.raises(RuntimeError, match="spoofvae_probe.alias"):
        tracer._check_coverage([probe], {id(layer_fn): (layer_fn, None)})


def test_every_declared_metric_is_computed():
    metrics = workloads.per_layer_metrics([], [[]])
    declared = [m for m, _, _, _ in workloads.PER_LAYER] + \
        [m for m, _ in workloads.STEP_METRICS]
    assert list(metrics) == declared


def test_benchmark_json_declares_what_the_runs_report():
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    traced = list(workloads.per_layer_metrics([], [[]])) + ["trace.overhead_share"]
    assert [m["name"] for m in bench["per_layer"]] == traced
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "pipeline_s", "stage1_s", "stage2_s", "score_clips_per_s",
        "peak_rss_mb"}
