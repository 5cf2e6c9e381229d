"""Self-tests of the benchmark: its loops reproduce the library's own
training and evaluation, its runs are deterministic, its tracer counts the
work the shapes imply, and BENCHMARK.json describes what it prints.

    python -m pytest benchmarks/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
import measure
import spans
from nirmalpool import harness

ROOT = Path(__file__).resolve().parents[2]
SMALL = dict(n_train=200, n_test=100)


def small_run(tmp_path, name, seed=5):
    workload = workloads.WORKLOADS[name]
    workloads.write_dataset(workload, tmp_path, seed, **SMALL)
    return workload, workloads.Run(workload, tmp_path, seed)


@pytest.mark.parametrize("name", ["mnist_train", "cifar_train_overlap"])
def test_training_loop_reproduces_harness_train(tmp_path, name):
    workload, run = small_run(tmp_path, name)
    config = dataclasses.replace(workload.config(tmp_path, 5), epochs=2)
    expected = harness.train(config)
    steps_per_epoch = -(-len(run.split.train) // workloads.BATCH)
    for _ in range(config.epochs * steps_per_epoch):
        run.step()
    assert run.eval_pass() == (expected.test_loss, expected.test_accuracy)


def test_eval_loop_reproduces_harness_evaluate(tmp_path):
    _, run = small_run(tmp_path, "mnist_eval")
    expected = harness.evaluate(run.spec, run.params, run.test_set, workloads.BATCH)
    assert run.eval_pass() == expected


def test_tracer_counts_match_shapes(tmp_path):
    _, run = small_run(tmp_path, "mnist_train")
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.step()
        tracer.step, tracer.active = 1, True
        run.step()
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics({})
    # conv1: 26x26x32 outputs of 3x3x1 windows; conv2: 11x11x64 of 3x3x32.
    conv_flop = 2 * workloads.BATCH * (26 * 26 * 32 * 9 + 11 * 11 * 64 * 9 * 32)
    assert layers["nn.conv2d_forward.gflop"] == pytest.approx(conv_flop / 1e9)
    assert layers["nn.conv2d_backward.calls"] == 2
    assert layers["pooling.nirmal_forward.windows"] == workloads.BATCH * (13 * 13 * 32 + 5 * 5 * 64)
    assert [layers[f"pool2.{f}"] for f in ("window", "stride", "target", "achieved")] == [3, 2, 5, 5]
    assert layers["pooling.max_pool2x2_forward.ms"] == 0.0
    assert layers["data.load_mnist.ms"] == 0.0  # set-up was not traced
    assert 0.0 < layers["nn.conv2d_backward.useful_frac"] <= 1.0
    assert all(s.step == 1 for s in tracer.spans)


def checkout(tmp_path, with_program=True):
    """A copy of the files the benchmark needs, as a fresh checkout holds them."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (tmp_path / "tests").mkdir()
        shutil.copy(ROOT / "tests" / "oracles.py", tmp_path / "tests")
    return tmp_path


def bench(root, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_runs_are_deterministic_and_trace_shows_no_backward_in_eval(tmp_path):
    root = checkout(tmp_path)
    common = ["--workload", "mnist_eval", "--seed", "3", "--seconds", "0.5"]
    untraced, traced = bench(root, *common, "--trace", "0"), bench(root, *common, "--trace", "1")
    assert untraced.returncode == 0 and traced.returncode == 0, untraced.stderr + traced.stderr
    plain = json.loads(untraced.stdout.splitlines()[-1])
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == [name for name, _ in measure.END_TO_END]

    results = [json.loads((root / ".bench_out" / f"mnist_eval-seed3-trace{t}.json").read_text())
               for t in (0, 1)]
    assert results[0]["determinism"] == results[1]["determinism"]
    layers = json.loads(traced.stdout.splitlines()[-1])["metrics"]
    assert list(layers) == [name for name, _ in spans.PER_LAYER]
    for name in ("nn.conv2d_backward.calls", "optim.adam_step.ms", "pooling.nirmal_backward.ms",
                 "nn.model_backward.self_ms"):
        assert layers[name]["value"] == 0.0
    assert layers["pooling.max_pool2x2_forward.windows"]["value"] > 0
    assert (root / ".bench_out" / "mnist_eval-seed3.spans.json").exists()


def test_exits_nonzero_without_the_program(tmp_path):
    root = checkout(tmp_path, with_program=False)
    proc = bench(root, "--workload", "mnist_eval", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_describes_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
           {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == measure.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert spec["run_seconds"] == measure.DEFAULT_SECONDS
