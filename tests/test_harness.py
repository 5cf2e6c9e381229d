import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nirmalpool import cli, data, gradcheck, harness, nn, optim, pooling

LOAD_DATASET_PAIR = harness.load_dataset_pair


def synth_config(**overrides):
    base = dict(dataset="synthetic", epochs=3, batch_size=64, seed=2,
                lr=0.003, output_dir=".")
    base.update(overrides)
    return harness.RunConfig(**base)


def test_synthetic_training_reaches_perfect_accuracy():
    for variant in ("nirmal", "max2x2"):
        report = harness.train(synth_config(pooling_variant=variant))
        assert report.test_accuracy == 1.0


def test_fingerprint_changes_iff_config_changes():
    base = synth_config()
    assert base.fingerprint() == synth_config().fingerprint()
    for change in ({"seed": 3}, {"epochs": 4}, {"lr": 0.004},
                   {"pooling_variant": "max2x2"}, {"batch_size": 32}):
        assert synth_config(**change).fingerprint() != base.fingerprint()


def test_write_report_and_csv(tmp_path):
    report = harness.train(synth_config(epochs=1))
    json_path = harness.write_report(report, tmp_path)
    assert json_path.name == f"synthetic_nirmal_seed2_{report.fingerprint[:8]}.report.json"
    assert harness.RunReport.from_json(json_path.read_text()) == report

    harness.write_report(report, tmp_path)  # a rerun replaces its report and its row
    rows = csv_rows(tmp_path)
    assert rows == table_of(tmp_path) and len(rows) == 2
    assert rows[1][:4] == ["synthetic", "nirmal", "2", report.fingerprint]


def test_write_report_leaves_nothing_when_the_rename_fails(tmp_path, monkeypatch):
    report = harness.train(synth_config(epochs=1))

    def replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(harness.os, "replace", replace)
    with pytest.raises(OSError, match="rename failed"):
        harness.write_report(report, tmp_path)
    # No temp file, no report and no results.csv row.
    assert list(tmp_path.iterdir()) == []


def csv_rows(directory):
    with open(Path(directory) / "results.csv", newline="") as f:
        return list(csv.reader(f))


def table_of(directory):
    """The rows results.csv should hold: the header, then one row per report
    in `directory`, by file name, read as plain JSON."""
    rows = [harness.CSV_HEADER]
    for path in sorted(Path(directory).glob("*.report.json")):
        r = json.loads(path.read_text())
        rows.append([r["dataset"], r["variant"], str(r["seed"]), r["fingerprint"],
                     str(len(r["epochs"])), f"{r['test_loss']:.6f}",
                     f"{r['test_accuracy']:.6f}"])
    return rows


def fake_report(variant, seed, lr, loss):
    """A report for synth_config's settings, built without training."""
    config = synth_config(pooling_variant=variant, seed=seed, lr=lr)
    return harness.RunReport(config.dataset, variant, seed, config.fingerprint(),
                             [harness.EpochMetrics(0, loss, 0.5, loss, 0.5)], loss, 0.5,
                             0.0, dataclasses.asdict(config))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(
    st.tuples(st.just("write"), st.sampled_from(nn.VARIANTS), st.integers(0, 1),
              st.sampled_from([0.001, 0.003]), st.floats(0.0, 10.0)),
    st.tuples(st.sampled_from(["delete", "stale"]))), min_size=1, max_size=12))
def test_results_csv_is_the_table_of_the_reports_after_any_writes(tmp_path, steps):
    """After every write_report, results.csv holds one row per report in the
    directory, by file name, whatever happened to results.csv in between."""
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    written = set()
    for kind, *args in steps:
        if kind == "write":
            written.add(harness.write_report(fake_report(*args), out).name)
            assert csv_rows(out) == table_of(out)
            assert len(csv_rows(out)) == 1 + len(written)
        elif kind == "delete":
            (out / "results.csv").unlink(missing_ok=True)
        else:
            (out / "results.csv").write_text(",".join(harness.CSV_HEADER) + "\nstale,row\n")
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


def test_cli_reruns_and_differing_targets_give_one_row_per_report(tmp_path, capsys):
    """Three runs whose targets are 3x3, 2x2 and 3x3 write two reports, and
    results.csv holds one row for each, told apart by the full fingerprint."""
    for targets in ("3x3", "2x2", "3x3"):
        assert cli.main(["train", "--dataset", "synthetic", "--epochs", "1",
                         "--pool-targets", targets, "--output-dir", str(tmp_path)]) == cli.EXIT_OK
    reports = [harness.RunReport.from_json(p.read_text())
               for p in sorted(tmp_path.glob("*.report.json"))]
    rows = csv_rows(tmp_path)
    assert len(reports) == 2 and rows == table_of(tmp_path)
    assert [row[3] for row in rows[1:]] == [r.fingerprint for r in reports]
    assert len({row[3] for row in rows[1:]}) == 2


@pytest.mark.parametrize("state", ["deleted", "stale"])
def test_write_report_rebuilds_a_deleted_or_stale_results_csv(tmp_path, state):
    """results.csv is a view: the next write lists every report, whatever it held."""
    for lr in (0.001, 0.002):
        harness.write_report(fake_report("nirmal", 0, lr, 1.0), tmp_path)
    if state == "deleted":
        (tmp_path / "results.csv").unlink()
    else:
        (tmp_path / "results.csv").write_text(",".join(harness.CSV_HEADER) + "\nold,row\n")
    harness.write_report(fake_report("max2x2", 1, 0.003, 2.0), tmp_path)
    assert csv_rows(tmp_path) == table_of(tmp_path)
    assert len(csv_rows(tmp_path)) == 4


def test_write_report_keeps_the_report_when_the_results_csv_rename_fails(tmp_path,
                                                                         monkeypatch):
    harness.write_report(fake_report("nirmal", 0, 0.001, 1.0), tmp_path)
    before = (tmp_path / "results.csv").read_bytes()
    os_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == "results.csv":
            raise OSError("rename failed")
        os_replace(src, dst)

    monkeypatch.setattr(harness.os, "replace", replace)
    report = fake_report("max2x2", 0, 0.001, 2.0)
    with pytest.raises(OSError, match="rename failed"):
        harness.write_report(report, tmp_path)
    [path] = tmp_path.glob("synthetic_max2x2_*.report.json")
    assert harness.RunReport.from_json(path.read_text()) == report
    assert (tmp_path / "results.csv").read_bytes() == before
    assert len(list(tmp_path.iterdir())) == 3  # two reports and results.csv; no temp file


@pytest.mark.parametrize("text", ['{"dataset": "x"}', "not json", "[]", '{"epochs": [1]}',
                                  "\udcff", "[" * 100000 + "]" * 100000, None],
                         ids=["missing_keys", "not_json", "a_list", "bad_epochs", "not_utf8",
                              "deeply_nested", "directory"])
def test_cli_unloadable_report_in_output_dir_exit_code(tmp_path, capsys, text):
    """A *.report.json that does not load (text None: a directory) stops the
    table's rebuild after the run: exit 2 naming the file, with the run's
    report written and results.csv left as it was."""
    harness.write_report(fake_report("nirmal", 0, 0.001, 1.0), tmp_path)
    before = (tmp_path / "results.csv").read_bytes()
    stray = tmp_path / "x.report.json"
    if text is None:
        stray.mkdir()
    else:
        stray.write_text(text, errors="surrogateescape")
    code = cli.main(["train", "--dataset", "synthetic", "--epochs", "1",
                     "--output-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert f"config error: {stray} does not load as a run report" in captured.err
    assert "Traceback" not in captured.err and "test loss" not in captured.out
    assert len(list(tmp_path.glob("synthetic_nirmal_*.report.json"))) == 2
    assert (tmp_path / "results.csv").read_bytes() == before


def cli_compare(capsys, tmp_path, name="out", **settings):
    """`nirmalpool compare` on synth_config(epochs=1)'s settings, updated by
    `settings`, from a config file into tmp_path / name: the reports whose
    paths it printed, read back, by variant in the order they were written,
    and the lines it printed."""
    settings = {"dataset": "synthetic", "epochs": 1, "batch_size": 64, "seed": 2,
                "lr": 0.003, **settings, "output_dir": tmp_path / name}
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    assert cli.main(["compare", "--config", str(cfg)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    paths = [line.removeprefix("report written to ") for line in lines
             if line.startswith("report written to ")]
    reports = [harness.RunReport.from_json(Path(path).read_text()) for path in paths]
    return {report.variant: report for report in reports}, lines


def test_compare_runs_both_variants(tmp_path, capsys):
    reports, lines = cli_compare(capsys, tmp_path, epochs=2)
    assert list(reports) == ["max2x2", "nirmal"]
    assert len(list((tmp_path / "out").glob("*.report.json"))) == 2
    for variant, report in reports.items():
        assert report.variant == variant
        assert report.seed == 2
    # Each run prints one line per epoch, as its report holds it, before its report's path.
    runs, run = [], []
    for line in lines:
        if line.startswith("epoch "):
            run.append(line)
        elif line.startswith("report written to "):
            runs.append(run)
            run = []
    assert runs == [[epoch_line(e) for e in report.epochs] for report in reports.values()]
    assert [len(report.epochs) for report in reports.values()] == [2, 2]
    # The table's row for each variant gives the test loss and accuracy its report holds.
    header = lines.index("variant          loss   accuracy")
    rows = [line.split() for line in lines[header + 1:header + 3]]
    assert rows == [[variant, f"{report.test_loss:.4f}", f"{report.test_accuracy:.4f}"]
                    for variant, report in reports.items()]


def test_compare_deterministic(tmp_path, capsys):
    a, _ = cli_compare(capsys, tmp_path, "a")
    b, _ = cli_compare(capsys, tmp_path, "b")
    for variant in a:
        assert a[variant].test_loss == b[variant].test_loss
        assert a[variant].test_accuracy == b[variant].test_accuracy


def test_compare_keeps_configured_placement(tmp_path, capsys, record):
    calls = record(nn, "init_params")  # one per run, with the spec it trains
    reports, _ = cli_compare(capsys, tmp_path, "pool_only", activation_placement="pool_only")
    assert [c.args["spec"].activation_placement for c in calls] == ["pool_only", "pool_only"]
    assert all(r.config["activation_placement"] == "pool_only" for r in reports.values())

    calls.clear()
    cli_compare(capsys, tmp_path, "default")
    assert {c.args["spec"].pooling_variant: c.args["spec"].activation_placement
            for c in calls} == {"max2x2": "after_conv", "nirmal": "pool_only"}


def test_poolcheck_rows(capsys):
    assert cli.main(["poolcheck", "--max-dim", "32"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    end = lines.index("deviation histogram (achieved - requested):")
    # (input, target) -> (window, stride, out, flag) per printed row
    sweep = {(int(h), int(t)): (int(w), int(s), int(o), *flag)
             for h, t, w, s, o, *flag in map(str.split, lines[1:end])}
    assert list(sweep) == [(h, t) for h in range(1, 33) for t in range(1, 33)]
    assert sweep[(28, 10)] == (3, 2, 13, "DEVIATES")  # deviates from 10
    assert sweep[(28, 14)] == (2, 2, 14)
    assert all(row[2] >= 1 for row in sweep.values())
    assert all((row[2] != t) == (row[3:] == ("DEVIATES",)) for (_, t), row in sweep.items())


def test_gradcheck_catches_each_pool_backward_corruption_at_its_floor(monkeypatch):
    backward = pooling.nirmal_backward
    # The floors are the catches, on seeds 0-99, of central differences behind a
    # pool tie screen: the closest-difference rule is no less strict.
    corruptions = [
        (lambda g, cache: 2.0 * backward(g, cache), 100),
        (lambda g, cache: backward(g, dataclasses.replace(cache, relu_out=None)), 85),
        (lambda g, cache: np.roll(backward(g, cache), 1, axis=2), 89),
    ]
    for corrupt, floor in corruptions:
        monkeypatch.setattr(pooling, "nirmal_backward", corrupt)
        caught = sum(not gradcheck.check_nirmal_backward(np.random.default_rng(seed)).passed
                     for seed in range(100))
        assert caught >= floor


def test_gradcheck_judges_each_partial_by_the_closest_difference():
    # f(x) = sum |x - c|: the first three x lie within EPS of their kink, the last 1 away.
    x = np.array([0.3, -1.2, 2.0, 0.7])
    c = x + np.array([0.4, -0.7, 0.99, 1e5]) * gradcheck.EPS

    def check(slope):
        return gradcheck._check("abs", lambda t: float(np.abs(t - c).sum()), (x,), (slope,))

    slope = np.sign(x - c)
    assert check(slope).passed
    # The slope from the far side of a kink within EPS fails.
    assert not check(slope * [-1.0, 1.0, 1.0, 1.0]).passed
    # A slope off by 2 TOL fails at a point 1 from its kink.
    assert not check(slope + [0.0, 0.0, 0.0, 2.0 * gradcheck.TOL]).passed


def test_divergence_error_names_epoch(monkeypatch):
    """The first training batch's loss is NaN."""
    calls = itertools.count()
    loss_of = nn.softmax_cross_entropy

    def patched(logits, labels):
        loss, grad = loss_of(logits, labels)
        return (float("nan") if next(calls) == 0 else loss), grad

    monkeypatch.setattr(nn, "softmax_cross_entropy", patched)
    with pytest.raises(harness.DivergenceError) as exc_info:
        harness.train(synth_config(epochs=1, batch_size=64))
    assert str(exc_info.value) == "non-finite loss at epoch 0"


def test_train_and_evaluate_take_one_step_call_per_batch(record):
    """train's loop is one train_step call per training batch, threading the
    parameters, and evaluate's one eval_batch call per batch; neither calls
    a layer or Adam itself."""
    calls = record(harness, "train_step", "eval_batch")
    harness.train(synth_config(epochs=2, batch_size=50, train_limit=120, test_limit=30))
    # 120 images split into 108 to train (batches of 50, 50, 8) and 12 to validate.
    assert [(c.name, len(c.args["labels"])) for c in calls] == [
        *[("train_step", 50), ("train_step", 50), ("train_step", 8), ("eval_batch", 12)] * 2,
        ("eval_batch", 30)]
    steps = [c for c in calls if c.name == "train_step"]
    for before, after in zip(steps, steps[1:]):
        assert after.args["params"] is before.result[0]
    assert len({id(c.args["state"]) for c in steps}) == 1

    calls.clear()
    spec, dataset = steps[-1].args["spec"], data.synthetic_two_class(30, seed=3)
    params = steps[-1].result[0]
    loss, accuracy = harness.evaluate(spec, params, dataset, 7)
    assert [len(c.args["labels"]) for c in calls] == [7, 7, 7, 7, 2]
    assert loss == sum(c.result[0] * len(c.args["labels"]) for c in calls) / 30
    assert accuracy == sum(c.result[1] for c in calls) / 30

    step_functions = {"model_forward", "softmax_cross_entropy", "model_backward", "adam_step"}
    for fn in (harness.train, harness.evaluate):
        assert not step_functions & set(fn.__code__.co_names), fn.__name__


def test_train_sets_up_through_setup(record):
    """train builds its run with one setup call, and its first train_step
    takes the very parameters and Adam state that setup returned."""
    config = synth_config(epochs=1, batch_size=50, train_limit=120, test_limit=30)
    calls = record(harness, "setup", "train_step")
    harness.train(config)
    names = [c.name for c in calls]
    assert names[:2] == ["setup", "train_step"] and names.count("setup") == 1
    setup, first_step = calls[:2]
    assert setup.args["config"] is config
    split, test_set, spec, params, state = setup.result
    assert first_step.args["spec"] is spec
    assert first_step.args["params"] is params and first_step.args["state"] is state
    assert len(split.train) == 108 and len(split.val) == 12 and len(test_set) == 30
    set_up_by_setup = {"load_dataset_pair", "split_train_val", "init_params", "init_adam"}
    assert not set_up_by_setup & set(harness.train.__code__.co_names)


def test_train_step_on_a_non_finite_loss_changes_nothing(monkeypatch, record):
    """A NaN loss skips backward and Adam: the parameters come back as they
    went in, and the Adam state has not stepped."""
    spec = harness.build_model_spec(synth_config())
    params = nn.init_params(spec, (1, 8, 8, 1), seed=0)
    state = optim.init_adam(params)
    before = {key: value.copy() for key, value in params.items()}
    loss_of = nn.softmax_cross_entropy
    monkeypatch.setattr(nn, "softmax_cross_entropy",
                        lambda logits, labels: (float("nan"), loss_of(logits, labels)[1]))
    backward, adam = record(nn, "model_backward"), record(optim, "adam_step")
    batch = data.synthetic_two_class(16, seed=0)
    new_params, loss, correct = harness.train_step(spec, params, state, batch.images[:],
                                                   batch.labels)
    assert np.isnan(loss) and 0 <= correct <= 16
    assert new_params is params and not backward and not adam and state.step == 0
    assert all((params[key] == before[key]).all() for key in params)


@pytest.mark.parametrize("epochs", [0, 2])
def test_train_hands_each_epoch_to_on_epoch_as_it_ends(record, capsys, epochs):
    """on_epoch gets each epoch's metrics once, in order, after the epoch's
    validation and before the next epoch's first step; train prints nothing."""
    calls = record(harness, "train_step", "eval_batch")
    report = harness.train(synth_config(epochs=epochs, batch_size=50, train_limit=120,
                                        test_limit=30), on_epoch=calls.append)
    assert len(report.epochs) == epochs
    assert [c if isinstance(c, harness.EpochMetrics) else c.name for c in calls] == [
        *itertools.chain.from_iterable(
            ["train_step"] * 3 + ["eval_batch", metrics] for metrics in report.epochs),
        "eval_batch"]
    assert capsys.readouterr().out == ""


def test_synthetic_splits_are_byte_images():
    """The synthetic set is bytes, like a loaded file: each read is bitwise
    raw / 255 in float64."""
    for split in harness.load_dataset_pair(harness.RunConfig(dataset="synthetic")):
        assert isinstance(split.images, data.ByteImages)
        read = split.images[:]
        assert read.dtype == np.float64
        assert read.tobytes() == (split.images.raw.astype(np.float64) / 255.0).tobytes()


def test_train_frees_the_loaded_train_set_before_the_first_step(monkeypatch):
    loaded = []

    def load(cfg):
        train_set = data.synthetic_two_class(64, seed=0)
        loaded.append(weakref.ref(train_set))
        return train_set, data.synthetic_two_class(16, seed=1)

    alive_at_steps = []
    forward = nn.model_forward

    def watched_forward(spec, params, batch):
        alive_at_steps.append(loaded[0]() is not None)
        return forward(spec, params, batch)

    monkeypatch.setattr(harness, "load_dataset_pair", load)
    monkeypatch.setattr(nn, "model_forward", watched_forward)
    harness.train(synth_config(epochs=1))
    assert alive_at_steps and alive_at_steps[0] is False


def test_missing_data_root_raises_path_error(monkeypatch):
    monkeypatch.delenv(harness.DATA_ROOT_ENV, raising=False)
    with pytest.raises(harness.DataPathError):
        harness.train(harness.RunConfig(dataset="mnist_digits"))


def test_missing_files_hint(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.DATA_ROOT_ENV, str(tmp_path))
    with pytest.raises(harness.DataPathError) as exc_info:
        harness.load_dataset_pair(harness.RunConfig(dataset="cifar10"))
    assert "cifar10" in str(exc_info.value)


# --- CLI ---

@pytest.fixture
def reads(monkeypatch):
    """The configs that reached load_dataset_pair, which is patched to read nothing."""
    calls = []
    monkeypatch.setattr(harness, "load_dataset_pair", calls.append)
    return calls


def epoch_line(e):
    """The line cli prints for one epoch: its four reported numbers to 4 places."""
    return (f"epoch {e.epoch}: train loss {e.train_loss:.4f} acc {e.train_accuracy:.4f} | "
            f"val loss {e.val_loss:.4f} acc {e.val_accuracy:.4f}")


def test_cli_train_prints_each_epoch_line_from_its_report(tmp_path, capsys):
    """One line per epoch, each holding that epoch's four reported numbers to
    4 places, then the reported test loss and accuracy to 4 places, then the
    report's path."""
    assert cli.main(["train", "--dataset", "synthetic", "--epochs", "2",
                     "--output-dir", str(tmp_path)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    [report_path] = tmp_path.glob("synthetic_nirmal_seed0_*.report.json")
    report = harness.RunReport.from_json(report_path.read_text())
    assert len(report.epochs) == 2
    assert lines == [*map(epoch_line, report.epochs),
                     f"test loss {report.test_loss:.4f}  accuracy {report.test_accuracy:.4f}",
                     f"report written to {report_path}"]


def test_cli_compare_keeps_the_finished_report_when_the_next_run_diverges(tmp_path,
                                                                         monkeypatch):
    """max2x2 runs first; when nirmal then diverges, the command exits 4 and
    max2x2's report and results.csv row stay on disk."""
    train_step = harness.train_step

    def nirmal_diverges(spec, *args):
        params, loss, correct = train_step(spec, *args)
        return params, (float("nan") if spec.pooling_variant == "nirmal" else loss), correct

    monkeypatch.setattr(harness, "train_step", nirmal_diverges)
    out = tmp_path / "out"
    code = cli.main(["compare", "--dataset", "synthetic", "--epochs", "1",
                     "--output-dir", str(out)])
    assert code == cli.EXIT_DIVERGENCE
    [report_path] = out.glob("*.report.json")
    assert report_path.match("synthetic_max2x2_seed*.report.json")
    assert harness.RunReport.from_json(report_path.read_text()).variant == "max2x2"
    with open(out / "results.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == harness.CSV_HEADER and len(rows) == 2


def test_cli_compare_table(tmp_path, capsys):
    code = cli.main(["compare", "--dataset", "synthetic", "--epochs", "1",
                     "--output-dir", str(tmp_path)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "nirmal" in out and "max2x2" in out
    # On 8x8 images the halving target pools 6 -> 3 with 2x2 windows at stride 2.
    assert "both variants build the same network" in out
    assert "differs" not in out
    with open(tmp_path / "results.csv") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 3


@pytest.mark.parametrize("args, stage_rows", [
    (["--dataset", "mnist_digits"], [
        "1 max2x2 2x2 2x2 13x13 yes",
        "1 nirmal 2x2 2x2 13x13 yes",
        "2 max2x2 2x2 2x2 5x5 yes differs",
        "2 nirmal 3x3 2x2 5x5 yes differs"]),
    (["--dataset", "synthetic", "--activation-placement", "pool_only"], [
        "1 max2x2 2x2 2x2 3x3 no differs",
        "1 nirmal 2x2 2x2 3x3 yes differs"]),
], ids=["mnist_stage2", "synthetic_pool_only"])
def test_cli_compare_is_silent_when_the_variants_differ(tmp_path, capsys, monkeypatch, args,
                                                        stage_rows):
    """nirmal pools MNIST's 11 -> 5 with 3x3 windows, max2x2 with 2x2; under
    pool_only max2x2 fuses no ReLU. The per-stage table after the comparison
    marks both rows of each stage that differs, and the same-network line is
    not printed. Training is stubbed: no data is read."""
    monkeypatch.setattr(harness, "train", lambda config, on_epoch: harness.RunReport(
        config.dataset, config.pooling_variant, config.seed, config.fingerprint(), [],
        1.0, 0.5, 0.0))
    assert cli.main(["compare", *args, "--output-dir", str(tmp_path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "nirmal" in out and "max2x2" in out
    assert "same network" not in out
    lines = out.splitlines()
    header = lines.index("stage variant   window  stride     out  relu")
    assert [" ".join(line.split()) for line in lines[header + 1:]] == stage_rows


def test_cli_poolcheck_derives_one_row_at_a_time():
    """The sweep keeps no table of its rows: printing max_dim=200's 40000 rows
    peaks under 1 MB of traced memory, where a dict of them all took ~9 MB."""
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert cli.main(["poolcheck", "--max-dim", "200"]) == cli.EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_cli_poolcheck(capsys):
    assert cli.main(["poolcheck", "--max-dim", "30"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "DEVIATES" in out
    assert "900 cases" in out
    histogram = out.split("deviation histogram (achieved - requested):\n")[1].splitlines()[:-1]
    deviating = int(out.splitlines()[-1].split()[2])
    assert deviating == out.count("DEVIATES")
    assert sum(int(line.split()[1]) for line in histogram) == deviating


def test_cli_poolcheck_default_histogram(capsys):
    assert cli.main(["poolcheck"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    histogram = lines[lines.index("deviation histogram (achieved - requested):") + 1:-1]
    assert len(histogram) == 93
    assert {"  -63: 1 cases", "   +1: 203 cases", "  +30: 2 cases"} <= set(histogram)
    assert lines[-1] == "4096 cases, 3364 deviate from the requested size"


@pytest.mark.parametrize("max_dim", ["0", "-3"])
def test_cli_poolcheck_max_dim_below_one_exit_code(capsys, max_dim):
    assert cli.main(["poolcheck", "--max-dim", max_dim]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"max_dim must be >= 1, got {max_dim}" in captured.err


def test_python_m_cli_hands_main_exit_code_to_the_shell():
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-m", "nirmalpool.cli", "poolcheck", "--max-dim", "0"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == cli.EXIT_CONFIG and result.stdout == ""


def test_cli_gradcheck(capsys):
    assert cli.main(["gradcheck", "--seed", "0"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 7


@pytest.mark.parametrize("seed", ["238", "528"])
def test_cli_gradcheck_passes_across_a_model_kink(capsys, seed):
    # A central difference straddles a kink of the max2x2 (238) or nirmal (528) toy model.
    assert cli.main(["gradcheck", "--seed", seed]) == cli.EXIT_OK
    assert capsys.readouterr().out.count("PASS") == 7


def test_cli_gradcheck_negative_seed_exit_code(capsys):
    assert cli.main(["gradcheck", "--seed", "-1"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert not captured.out
    assert "--seed must be >= 0, got -1" in captured.err


def test_cli_gradcheck_failure_exit_code(monkeypatch, capsys):
    backward = pooling.nirmal_backward
    monkeypatch.setattr(pooling, "nirmal_backward", lambda g, cache: 2.0 * backward(g, cache))
    assert cli.main(["gradcheck"]) == cli.EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("nan_call", [0, 1])
def test_non_finite_eval_loss_is_divergence(monkeypatch, tmp_path, nan_call):
    """Call 0 evaluates the validation split, call 1 the test set."""
    calls = itertools.count()
    evaluate = harness.evaluate

    def patched(*args):
        loss, acc = evaluate(*args)
        return (float("nan") if next(calls) == nan_call else loss), acc

    monkeypatch.setattr(harness, "evaluate", patched)
    code = cli.main(["train", "--dataset", "synthetic", "--epochs", "1",
                     "--output-dir", str(tmp_path)])
    assert code == cli.EXIT_DIVERGENCE
    assert not list(tmp_path.iterdir())


def test_cli_empty_validation_split_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset = synthetic\ntrain_limit = 4\nval_fraction = 0.1\n")
    assert cli.main(["train", "--config", str(cfg), "--output-dir", str(tmp_path)]) \
        == cli.EXIT_CONFIG


def test_cli_compare_bad_pool_target_exit_code(tmp_path, reads):
    """A bad target is rejected before either variant reads data: compare's
    config is the nirmal one, which reads targets, though the max2x2 run goes first."""
    code = cli.main(["compare", "--dataset", "synthetic", "--epochs", "1",
                     "--pool-targets", "0x0", "--output-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert not reads and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("targets, small", [("1x1,half", (1, 1)), ("2x2,2x2", (2, 2))])
def test_cli_pool_targets_too_small_for_the_next_conv_exit_code(tmp_path, capsys, reads,
                                                                command, source, targets, small):
    """Targets that leave a map smaller than the next conv's kernel on the
    dataset's images are rejected before any data is read, by train and by
    compare, whose max2x2 run goes first and ignores targets."""
    args = cli_args(tmp_path, source, {"dataset": "mnist_digits", "pool_targets": targets})
    out = tmp_path / "out"
    assert cli.main([command, *args, "--output-dir", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"spatial dims {small} smaller than kernel (3, 3)" in captured.err
    assert not captured.out and not reads and not out.exists()


def test_run_config_plans_the_network_on_each_dataset_shape():
    """Every dataset's shape plans its network; the synthetic network has
    one stage, so a 1x1 target, which no later conv reads, is accepted."""
    for dataset in harness.DATASETS:
        config = harness.RunConfig(dataset=dataset)
        spec = harness.build_model_spec(config)
        assert len(nn.plan(spec, (1, *harness.DATASETS[dataset]))) == len(spec.conv_filters)
    assert harness.RunConfig(dataset="synthetic", pool_targets=((1, 1),))


def test_cli_empty_test_files_exit_code(tmp_path, capsys):
    """Test files that hold no images are a config error, raised before any
    output is written."""
    rng = np.random.default_rng(0)
    sub = tmp_path / "mnist_digits"
    sub.mkdir()
    names = harness.MNIST_FILES["mnist_digits"]
    for images, labels, count in ((names[0], names[1], 20), (names[2], names[3], 0)):
        data.write_idx_images(sub / images, rng.integers(0, 256, (count, 28, 28)))
        data.write_idx_labels(sub / labels, rng.integers(0, 10, count))
    code = cli.main(["train", "--dataset", "mnist_digits", "--data-root", str(tmp_path),
                     "--output-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "the test set is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("split", [0, 1], ids=["train", "test"])
def test_cli_wrong_image_shape_is_a_data_error(tmp_path, capsys, split):
    """IDX files of 20x20 images under an MNIST set exit 3 (data), naming the
    shape found and the shape expected, and write no output."""
    rng = np.random.default_rng(0)
    sub = tmp_path / "mnist_digits"
    sub.mkdir()
    names = harness.MNIST_FILES["mnist_digits"]
    for index, (images, labels) in enumerate(((names[0], names[1]), (names[2], names[3]))):
        side = 20 if index == split else 28
        data.write_idx_images(sub / images, rng.integers(0, 256, (16, side, side)))
        data.write_idx_labels(sub / labels, rng.integers(0, 10, 16))
    code = cli.main(["train", "--dataset", "mnist_digits", "--data-root", str(tmp_path),
                     "--epochs", "1", "--output-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "mnist_digits images are (20, 20, 1), expected (28, 28, 1)" in err
    assert str(sub / names[2 * split]) in err
    assert not (tmp_path / "out").exists()


def test_load_dataset_pair_rejects_cifar_images_of_another_shape(tmp_path, monkeypatch):
    """The shape check covers CIFAR-10 too, whatever the loader decodes."""
    sub = tmp_path / "cifar10"
    sub.mkdir()
    for name in harness.CIFAR_TRAIN_FILES + harness.CIFAR_TEST_FILES:
        (sub / name).write_bytes(b"")
    monkeypatch.setattr(data, "load_cifar10", lambda paths: data.Dataset(
        data.ByteImages(np.zeros((2, 28, 28, 3), np.uint8)), np.zeros(2, np.int64)))
    config = harness.RunConfig(dataset="cifar10", data_root=str(tmp_path))
    with pytest.raises(data.FormatError, match=r"cifar10 images are \(28, 28, 3\), "
                                               r"expected \(32, 32, 3\)"):
        harness.load_dataset_pair(config)


def _write_mnist_label_12(sub):
    rng = np.random.default_rng(0)
    names = harness.MNIST_FILES["mnist_digits"]
    for images, labels in (names[:2], names[2:]):
        data.write_idx_images(sub / images, rng.integers(0, 256, (16, 28, 28)))
        data.write_idx_labels(sub / labels, np.full(16, 12))


def _write_truncated_mnist(sub):
    for name in harness.MNIST_FILES["mnist_digits"]:
        (sub / name).write_bytes(b"\x00\x00")


def _write_mnist_with_a_directory(sub):
    rng = np.random.default_rng(0)
    names = harness.MNIST_FILES["mnist_digits"]
    for images, labels in (names[:2], names[2:]):
        data.write_idx_images(sub / images, rng.integers(0, 256, (16, 28, 28)))
        data.write_idx_labels(sub / labels, rng.integers(0, 10, 16))
    (sub / names[2]).unlink()
    (sub / names[2]).mkdir()


def _write_cifar10(sub):
    rng = np.random.default_rng(0)
    for name in harness.CIFAR_TRAIN_FILES + harness.CIFAR_TEST_FILES:
        records = rng.integers(0, 256, (4, data.CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] %= 10
        (sub / name).write_bytes(records.tobytes())


def _write_cifar10_with_a_directory(sub):
    _write_cifar10(sub)
    (sub / "data_batch_3.bin").unlink()
    (sub / "data_batch_3.bin").mkdir()


def _write_cifar10_one_byte_short(sub):
    _write_cifar10(sub)
    path = sub / "data_batch_2.bin"
    path.write_bytes(path.read_bytes()[:-1])


def _write_mnist_with_fewer_labels(sub):
    rng = np.random.default_rng(0)
    names = harness.MNIST_FILES["mnist_digits"]
    for images, labels in (names[:2], names[2:]):
        data.write_idx_images(sub / images, rng.integers(0, 256, (64, 28, 28)))
        data.write_idx_labels(sub / labels, rng.integers(0, 10, 60))


@pytest.mark.parametrize("dataset, write, message", [
    ("mnist_digits", _write_truncated_mnist, "truncated header"),
    ("mnist_digits", _write_mnist_label_12, "train-labels-idx1-ubyte: label out of range: 12"),
    ("mnist_digits", _write_mnist_with_a_directory, "t10k-images-idx3-ubyte: Is a directory"),
    ("mnist_digits", _write_mnist_with_fewer_labels,
     "train-images-idx3-ubyte, {sub}/train-labels-idx1-ubyte: 64 images but 60 labels"),
    ("cifar10", _write_cifar10_with_a_directory, "{sub}/data_batch_3.bin: Is a directory"),
    ("cifar10", _write_cifar10_one_byte_short, "{sub}/data_batch_2.bin: size"),
], ids=["truncated", "label_out_of_range", "unreadable", "count_mismatch", "cifar_unreadable",
        "cifar_truncated"])
def test_cli_malformed_data_file_is_a_data_error(tmp_path, capsys, dataset, write, message):
    """A data.FormatError, or a dataset file that exists but cannot be read,
    exits 3 (data), not 2, and writes no output."""
    sub = tmp_path / dataset
    sub.mkdir()
    write(sub)
    code = cli.main(["train", "--dataset", dataset, "--data-root", str(tmp_path),
                     "--output-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert message.format(sub=sub) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_unknown_dataset_exit_code_without_data_root(monkeypatch, tmp_path, capsys):
    """A dataset typo is a config error, not a missing data root, whether it
    comes from the config file or from --dataset."""
    monkeypatch.delenv(harness.DATA_ROOT_ENV, raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset=mnist_digit\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg), "--output-dir", str(out)]) == cli.EXIT_CONFIG
    assert "unknown dataset 'mnist_digit'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["train", "--dataset", "mnist_digit", "--output-dir", str(out)])
    assert exc_info.value.code == cli.EXIT_CONFIG
    assert not out.exists()


def cli_args(tmp_path, source, settings):
    """Command-line arguments that give `settings` as flags or in a config file."""
    if source == "flag":
        return [text for key, value in settings.items() for text in (cli.SETTINGS[key][0], value)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    return ["--config", str(cfg)]


def rejected(source, message, **settings):
    ident = "-".join([source, *(f"{key}={value}" for key, value in settings.items())])
    return pytest.param(source, settings, message, id=ident)


BOTH = ("flag", "config")
# Settings that RunConfig rejects when it is built, as a flag or a config-file
# line, over a synthetic run unless the row names another dataset.
REJECTED_WHEN_BUILT = [
    *(rejected(source, "epochs must be >= 0, got -2", epochs="-2") for source in BOTH),
    *(rejected(source, f"batch_size must be >= 1, got {value}", batch_size=value)
      for source in BOTH for value in ("-5", "0")),
    *(rejected(source, "seed must be >= 0, got -1", seed="-1") for source in BOTH),
    *(rejected("config", f"{key} must be >= 1 or unset, got {value}", **{key: value})
      for key, value in (("train_limit", "-5"), ("train_limit", "0"),
                         ("test_limit", "-1"), ("test_limit", "0"))),
    *(rejected(source, f"val_fraction must be in (0, 1), got {value}", val_fraction=text)
      for source in BOTH for text, value in (("1.5", 1.5), ("0", 0.0))),
    rejected("flag", "lr must be finite and > 0, got -1.0", lr="-1"),
    rejected("flag", "lr must be finite and > 0, got nan", lr="nan"),
    rejected("flag", "beta1 must lie in [0, 1), got 1.0", beta1="1.0"),
    rejected("flag", "beta2 must lie in [0, 1), got 1.0", beta2="1.0"),
    rejected("flag", "epsilon must be finite and > 0, got 0.0", epsilon="0"),
    rejected("config", "unknown pooling_variant 'nirmall'", pooling_variant="nirmall"),
    rejected("config", "unknown activation_placement 'poolonly'",
             activation_placement="poolonly"),
    rejected("flag", "3 pool_targets for 2 conv stages",
             dataset="mnist_digits", pool_targets="half,half,half"),
    rejected("flag", "3 pool_targets for 1 conv stages", pool_targets="half,3x3,2x2"),
    rejected("config", "3 pool_targets for 1 conv stages", pool_targets="half,half,half"),
]


@pytest.mark.parametrize("source, settings, message", REJECTED_WHEN_BUILT)
def test_cli_rejects_setting_before_any_data_is_read(tmp_path, capsys, reads,
                                                     source, settings, message):
    """A setting that cannot run exits 2 and is named, with no data read and
    no output directory made."""
    args = cli_args(tmp_path, source, {"dataset": "synthetic", **settings})
    out = tmp_path / "out"
    assert cli.main(["train", *args, "--output-dir", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not reads and not out.exists()


@pytest.mark.parametrize("source", BOTH)
def test_cli_zero_epochs_evaluates_the_initial_model(tmp_path, source):
    args = cli_args(tmp_path, source, {"dataset": "synthetic", "epochs": "0"})
    out = tmp_path / "out"
    assert cli.main(["train", *args, "--output-dir", str(out)]) == cli.EXIT_OK
    [report_path] = out.glob("*.report.json")
    assert harness.RunReport.from_json(report_path.read_text()).epochs == []


@pytest.mark.parametrize("source", BOTH)
def test_cli_compare_rejects_a_variant(tmp_path, capsys, reads, source):
    """compare trains every variant, so a variant from a flag or a config
    file is rejected before any data is read; train takes either."""
    args = cli_args(tmp_path, source, {"dataset": "synthetic", "pooling_variant": "nirmal",
                                       "epochs": "1"})
    out = tmp_path / "out"
    assert cli.main(["compare", *args, "--output-dir", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "compare trains every variant" in captured.err
    assert not captured.out and not reads and not out.exists()
    assert build(*args).pooling_variant == "nirmal"


@pytest.mark.parametrize("command", ["train", "compare"])
def test_cli_output_dir_that_is_a_file_exit_code(tmp_path, capsys, reads, command):
    """An output_dir that is an existing file is rejected before any data is
    read, and the file is left as it was."""
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    assert cli.main([command, "--output-dir", str(out)]) == cli.EXIT_CONFIG
    assert f"output_dir {str(out)!r} exists and is not a directory" in capsys.readouterr().err
    assert not reads and out.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("source", BOTH)
@pytest.mark.parametrize("below", ["sub", "sub/deeper"])
def test_cli_output_dir_below_a_file_exit_code(tmp_path, capsys, reads, command, source, below):
    """An output_dir below an existing file, which no run could make, is
    rejected before any data is read, and the file is left as it was."""
    blocker = tmp_path / "out"
    blocker.write_text("not a directory\n")
    out = blocker / below
    args = cli_args(tmp_path, source, {"dataset": "synthetic", "output_dir": str(out)})
    assert cli.main([command, *args]) == cli.EXIT_CONFIG
    assert (f"output_dir {str(out)!r} is below {str(blocker)!r}, which is not a directory"
            in capsys.readouterr().err)
    assert not reads and blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["train", "compare"])
def test_cli_results_csv_with_another_header_exit_code(tmp_path, capsys, reads, command):
    """results.csv is overwritten whole after each run, so an output_dir whose
    results.csv has another header, another tool's or this one's older
    six-column one, is rejected before any data is read, and the file is
    left as it was; the message says the file can be deleted."""
    out = tmp_path / "out"
    out.mkdir()
    csv_path = out / "results.csv"
    for text in ("name,score\nrun,1\n",
                 "dataset,variant,seed,epochs,test_loss,test_accuracy\r\n"
                 "synthetic,nirmal,0,1,0.553718,0.859375\r\n"):
        csv_path.write_bytes(text.encode())
        assert cli.main([command, "--dataset", "synthetic", "--output-dir", str(out)]) \
            == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert (f"{csv_path} does not start with the header "
                f"'dataset,variant,seed,fingerprint,epochs,test_loss,test_accuracy'; it is "
                f"rebuilt from the reports beside it after each run, so an older one can be "
                f"deleted\n" in captured.err)
        assert not captured.out and not reads and csv_path.read_bytes() == text.encode()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_cli_results_csv_that_is_not_a_file_exit_code(tmp_path, capsys, reads, command):
    """A results.csv that is a directory could take no row once training is
    done, so it is rejected before any data is read."""
    csv_path = tmp_path / "out" / "results.csv"
    csv_path.mkdir(parents=True)
    assert cli.main([command, "--dataset", "synthetic", "--epochs", "1",
                     "--output-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{csv_path} exists and is not a regular file" in captured.err
    assert not captured.out and not reads and csv_path.is_dir()


def test_write_report_heads_an_empty_results_csv(tmp_path):
    (tmp_path / "results.csv").touch()
    harness.write_report(harness.train(synth_config(epochs=1, output_dir=str(tmp_path))),
                         tmp_path)
    with open(tmp_path / "results.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == harness.CSV_HEADER and len(rows) == 2
    assert synth_config(output_dir=str(tmp_path))  # its own header is accepted


def test_run_config_accepts_an_output_dir_yet_to_be_made(tmp_path):
    """Missing directories below an existing one are made when the report is written."""
    out = tmp_path / "a" / "b"
    assert harness.RunConfig(dataset="synthetic", output_dir=str(out)).output_dir == str(out)
    assert not (tmp_path / "a").exists()


def test_run_config_is_frozen_and_checked_on_replace():
    config = harness.RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.epochs = 3
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        dataclasses.replace(config, batch_size=0)


@pytest.mark.parametrize("key, value", [
    ("epochs", 1.5), ("epochs", True), ("batch_size", 16.0), ("seed", 1.0), ("seed", False),
    ("train_limit", 100.0), ("test_limit", 10.0), ("test_limit", "10")])
def test_run_config_rejects_a_count_that_is_not_an_int(key, value):
    """A float or bool count is refused when the config is built, not after
    its data is loaded; a bool would train under a fingerprint of its own."""
    with pytest.raises(ValueError, match=f"^{key} must be an int"):
        harness.RunConfig(dataset="synthetic", **{key: value})


@pytest.mark.parametrize("key, value", [
    ("lr", True), ("lr", "0.001"), ("beta1", False), ("beta2", None), ("epsilon", True),
    ("val_fraction", "0.1"), ("val_fraction", True)])
def test_run_config_rejects_a_float_setting_that_is_not_a_number(key, value):
    """A bool would train under a value and fingerprint of its own, and a
    string would fail inside the range checks with a TypeError."""
    with pytest.raises(ValueError, match=f"^{key} must be an int or a float, got {value!r}$"):
        harness.RunConfig(dataset="synthetic", **{key: value})


@pytest.mark.parametrize("key, value", [
    ("lr", 10**400), ("val_fraction", 10**400), ("beta1", 10**400), ("epsilon", -10**400)],
    ids=["lr", "val_fraction", "beta1", "epsilon"])
def test_run_config_rejects_an_int_float_setting_past_the_float_range(key, value):
    """float() of such an int raises OverflowError; the config names the key."""
    with pytest.raises(ValueError, match=f"^{key} must fit in a float, got an int of 1329 bits$"):
        harness.RunConfig(dataset="synthetic", **{key: value})


def test_run_config_stores_an_int_float_setting_as_its_float():
    """`lr=1` and `lr=1.0` are one run, so one fingerprint and one report name."""
    as_int = harness.RunConfig(dataset="synthetic", lr=1, epsilon=1)
    as_float = harness.RunConfig(dataset="synthetic", lr=1.0, epsilon=1.0)
    assert type(as_int.lr) is float and type(as_int.epsilon) is float
    assert as_int == as_float and as_int.fingerprint() == as_float.fingerprint()


def test_evaluate_rejects_an_empty_dataset():
    spec = nn.ModelSpec()
    params = nn.init_params(spec, (1, 8, 8, 1), seed=0)
    empty = data.synthetic_two_class(16, seed=1).subset(np.arange(0))
    with pytest.raises(ValueError, match="empty dataset"):
        harness.evaluate(spec, params, empty, 8)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_a_batch_size_below_one(batch_size):
    spec = nn.ModelSpec()
    params = nn.init_params(spec, (1, 8, 8, 1), seed=0)
    dataset = data.synthetic_two_class(16, seed=1)
    with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
        harness.evaluate(spec, params, dataset, batch_size)


def test_cli_lets_a_program_bug_propagate(monkeypatch):
    """Only bad settings and unusable files exit 2; a TypeError from inside
    training is a bug, not a config error."""
    def fail(config, on_epoch):
        raise TypeError("a bug")

    monkeypatch.setattr(harness, "train", fail)
    with pytest.raises(TypeError, match="a bug"):
        cli.main(["train", "--dataset", "synthetic", "--epochs", "1"])


def build(*argv):
    """The RunConfig that `train` builds from the arguments `argv`."""
    parser = argparse.ArgumentParser()
    cli.add_config_flags(parser)
    return cli.build_config(parser.parse_args(argv))


def test_cli_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset = synthetic\nepochs = 5\nseed = 9  # comment\n")
    assert cli.parse_config_file(cfg) == ({"dataset": "synthetic", "epochs": 5, "seed": 9},
                                          {"dataset": 1, "epochs": 2, "seed": 3})

    config = build("--config", str(cfg), "--epochs", "2")  # the flag overrides the file
    assert (config.dataset, config.epochs, config.seed) == ("synthetic", 2, 9)


def test_config_file_skips_blank_and_comment_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a run\n\n   \nepochs = 2\n  # indented comment\n\n")
    assert cli.parse_config_file(cfg) == ({"epochs": 2}, {"epochs": 4})


@pytest.mark.parametrize("text, expected", [
    ("", (10000, 2000, 3)),
    ("train_limit = 0\ntest_limit = -1\nepochs = 2\n",
     ValueError("train_limit must be >= 1 or unset, got 0")),
    ("train_limit = 50\nepochs = 7\n", (50, 2000, 3)),
])
def test_cli_desk_scale_fills_only_unset_limits(tmp_path, text, expected):
    """--desk-scale sets the limits a config left unset and caps epochs at 3;
    an explicit limit is kept, and an invalid one is rejected as without it."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset = synthetic\n" + text)
    argv = ("--config", str(cfg), "--desk-scale")
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError, match=str(expected)):
            build(*argv)
    else:
        config = build(*argv)
        assert (config.train_limit, config.test_limit, config.epochs) == expected


def test_cli_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    with pytest.raises(ValueError):
        cli.parse_config_file(bad)
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("dataset synthetic\n")
    with pytest.raises(ValueError):
        cli.parse_config_file(noeq)
    assert cli.main(["train", "--config", str(bad)]) == cli.EXIT_CONFIG
    # An unreadable config file (a directory) stays a config error.
    assert cli.main(["train", "--config", str(tmp_path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("key, value, message", [
    ("epochs", "three", "invalid literal for int() with base 10: 'three'"),
    ("lr", "fast", "could not convert string to float: 'fast'"),
    ("pool_targets", "5", "each stage is 'half' or HxW, got '5'"),
    ("dataset", "synthetic", "already set on line 1"),  # a key set twice, even to one value
])
def test_cli_config_file_value_error_names_file_line_and_key(tmp_path, capsys, key, value,
                                                             message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = synthetic\n# a comment\n{key} = {value}\n")
    assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {cfg}:3: {key}: {message}\n"


@pytest.mark.parametrize("text, flags, message", [
    (b"dataset = synthetic\nbatch_size = 0\n", [], "{cfg}:2: batch_size must be >= 1, got 0\n"),
    (b"dataset = mnist_digit\n", [], "{cfg}:1: unknown dataset 'mnist_digit'\n"),
    (b"dataset = synthetic\nbatch_size = 0\n", ["--batch-size", "0"],
     "batch_size must be >= 1, got 0\n"),
    (b"dataset = mnist_digits\npool_targets = 1x1,half\n", [],
     "spatial dims (1, 1) smaller than kernel (3, 3)\n"),
    (b"dataset = synthetic\noutput_dir = OUT\n", [], "{out}/results.csv does not start with"),
    (b"dataset=synthetic\nepochs=\xff1\n", [],
     "{cfg}:2: 'utf-8' codec can't decode byte 0xff in position 25: invalid start byte\n"),
], ids=["batch_size", "dataset", "flag_overrides", "names_no_setting", "csv_header", "not_utf8"])
def test_cli_config_error_names_the_config_file_line_of_its_setting(tmp_path, capsys, reads,
                                                                    text, flags, message):
    """A config error names the config-file line that set the one setting its
    message names; a setting a flag gave, or a message that names no
    setting, is not given a line. Bytes that are not UTF-8 name their line."""
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    out.mkdir()
    (out / "results.csv").write_text("name,score\n")
    cfg.write_bytes(text.replace(b"OUT", bytes(out)))
    assert cli.main(["train", "--config", str(cfg), *flags]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message.format(cfg=cfg, out=out)}")
    assert not reads


def test_cli_compare_help_marks_variant_train_only(capsys):
    """compare keeps --variant only to reject it with a clear message, so its
    help says the flag is for train."""
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["compare", "--help"])
    assert exc_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--variant {max2x2,nirmal} train only: compare trains every variant" in help_text


def test_parse_pool_targets():
    assert cli.parse_pool_targets("13x13,5x5") == ((13, 13), (5, 5))
    assert cli.parse_pool_targets("half,5x5") == (None, (5, 5))
    for text in ("auto", "half,auto", "13", "13xhalf"):
        with pytest.raises(argparse.ArgumentTypeError, match="each stage is 'half' or HxW"):
            cli.parse_pool_targets(text)


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("value", ["5", "13xhalf"])
def test_cli_pool_targets_flag_error_gives_the_reason(capsys, reads, command, value):
    """A --pool-targets value that does not parse exits 2 with the reason the
    config file gives, not argparse's generic message."""
    with pytest.raises(SystemExit) as exc_info:
        cli.main([command, "--dataset", "synthetic", "--pool-targets", value])
    assert exc_info.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert (f"argument --pool-targets: each stage is 'half' or HxW, got {value!r}\n"
            in err)
    assert "invalid" not in err and not reads


# A value for every RunConfig field, unlike its default, as text.
SETTING_TEXT = {
    "dataset": "cifar10", "pooling_variant": "max2x2", "activation_placement": "pool_only",
    "epochs": "3", "batch_size": "32", "val_fraction": "0.2", "seed": "7", "lr": "0.01",
    "beta1": "0.8", "beta2": "0.99", "epsilon": "1e-08", "pool_targets": "13x13,half",
    "train_limit": "50", "test_limit": "20", "data_root": "data", "output_dir": "out",
}


def test_settings_name_every_run_config_field_once():
    names = [f.name for f in dataclasses.fields(harness.RunConfig)]
    assert list(cli.SETTINGS) == names
    assert sorted(SETTING_TEXT) == sorted(names)
    assert [name for name, (flag, _, _) in cli.SETTINGS.items() if flag is None] == \
        ["train_limit", "test_limit"]


def asdict_without(config, name):
    values = dataclasses.asdict(config)
    del values[name]
    return values


@pytest.mark.parametrize("name", list(cli.SETTINGS))
def test_setting_flag_and_config_line_build_equal_configs(tmp_path, name):
    """A flag and a config-file line with the same text set the same field to
    the same value; train_limit and test_limit have no flag."""
    flag, _, _ = cli.SETTINGS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {SETTING_TEXT[name]}\n")
    from_file = build("--config", str(cfg))
    assert from_file != harness.RunConfig()
    assert asdict_without(from_file, name) == asdict_without(harness.RunConfig(), name)
    if flag is None:
        with pytest.raises(SystemExit):
            build(f"--{name.replace('_', '-')}", SETTING_TEXT[name])
    else:
        assert build(flag, SETTING_TEXT[name]) == from_file


def test_fingerprints_are_stable():
    """Report names carry the fingerprint, so it must not drift: the default
    config and the three benchmark workloads' configs at seed 1, data root "data"."""
    assert harness.RunConfig().fingerprint() == "23060e8a763aeced"
    common = dict(batch_size=64, seed=1, data_root="data")
    assert harness.RunConfig(
        dataset="mnist_digits", pooling_variant="nirmal", activation_placement="pool_only",
        **common).fingerprint() == "c0aebec5621eb16d"
    assert harness.RunConfig(
        dataset="cifar10", pooling_variant="nirmal", activation_placement="after_conv",
        pool_targets=((14, 14), (5, 5)), **common).fingerprint() == "206b9a74fb5221d9"
    assert harness.RunConfig(
        dataset="mnist_digits", pooling_variant="max2x2", activation_placement="after_conv",
        **common).fingerprint() == "92ad6eb7a987e21d"


def test_pool_targets_that_halve_every_stage_take_the_default_fingerprint():
    """Targets that build the same network give one config, so one run writes
    one report and one CSV row: `half` on every stage is the default."""
    for dataset in harness.DATASETS:
        default = harness.RunConfig(dataset=dataset)
        stages = len(harness.build_model_spec(default).conv_filters)
        for targets in ((None,), (None,) * stages):
            halved = harness.RunConfig(dataset=dataset, pool_targets=targets)
            assert halved == default and halved.fingerprint() == default.fingerprint()
    assert harness.RunConfig(pool_targets=((13, 13),)).fingerprint() == \
        harness.RunConfig(pool_targets=((13, 13), None)).fingerprint()


def test_max2x2_keeps_no_pool_targets():
    """The 2x2 pool reads no target, so every spelling of targets is one
    max2x2 config with one fingerprint, even targets only nirmal rejects."""
    default = harness.RunConfig(dataset="mnist_digits", pooling_variant="max2x2")
    assert default.fingerprint() == "a935b95454d01345"
    for targets in (None, ((12, 12), (5, 5)), ((1, 1), None)):
        config = harness.RunConfig(dataset="mnist_digits", pooling_variant="max2x2",
                                   pool_targets=targets)
        assert config == default and config.fingerprint() == default.fingerprint()
    with pytest.raises(ValueError, match=r"spatial dims \(1, 1\) smaller than kernel \(3, 3\)"):
        harness.RunConfig(dataset="mnist_digits", pool_targets=((1, 1), None))


def test_cli_compare_with_and_without_targets_writes_one_max2x2_run(tmp_path):
    """Two compares into one directory, one with targets, train one max2x2
    network: one max2x2 report and row, and two nirmal ones."""
    rng = np.random.default_rng(0)
    sub = tmp_path / "mnist_digits"
    sub.mkdir()
    names = harness.MNIST_FILES["mnist_digits"]
    for images, labels in (names[:2], names[2:]):
        data.write_idx_images(sub / images, rng.integers(0, 256, (20, 28, 28)))
        data.write_idx_labels(sub / labels, rng.integers(0, 10, 20))
    out = tmp_path / "out"
    common = ["--dataset", "mnist_digits", "--data-root", str(tmp_path), "--epochs", "1",
              "--output-dir", str(out)]
    assert cli.main(["compare", *common, "--pool-targets", "12x12,5x5"]) == cli.EXIT_OK
    assert cli.main(["compare", *common]) == cli.EXIT_OK
    assert len(list(out.glob("mnist_digits_max2x2_*.report.json"))) == 1
    assert len(list(out.glob("mnist_digits_nirmal_*.report.json"))) == 2
    with open(out / "results.csv") as f:
        variants = [row[1] for row in csv.reader(f)][1:]
    assert sorted(variants) == ["max2x2", "nirmal", "nirmal"]


def test_wall_clock_seconds_survive_a_system_clock_set_back(monkeypatch):
    """`time.time` runs backwards, as when the system clock is reset during a
    run; the run is timed on a monotonic clock, so its wall clock stays >= 0."""
    clock = itertools.count(1e9, -3600.0)
    monkeypatch.setattr(harness.time, "time", lambda: next(clock))
    assert harness.train(synth_config(epochs=1)).wall_clock_seconds >= 0


# Text for each cli.SETTINGS row: values RunConfig accepts on their own
# (valid and boundary; None omits the row), then values it refuses on their
# own (boundary and garbage). Paths lie under each example's temp dir, whose
# data root holds no files, so only the synthetic set trains (it is drawn
# twice as often); epochs is always set, to at most 1. The output dir
# `{tmp}/stray` holds a *.report.json that does not load.
SETTING_DRAWS = {
    "dataset": ([None, "synthetic", *harness.DATASETS], ["mnist_digit", "CIFAR10", ""]),
    "pooling_variant": ([None, *nn.VARIANTS], ["nirmall", ""]),
    "activation_placement": ([None, *nn.PLACEMENTS], ["poolonly", "none"]),
    "epochs": (["0", "1"], ["-1", "1.5", "one"]),
    "batch_size": ([None, "1", "64"], ["0", "-3", "x"]),
    "val_fraction": ([None, "0.5", "0.99"], ["0", "1", "nan", "x"]),
    "seed": ([None, "0", "7"], ["-1", "1e3"]),
    "lr": ([None, "0.003", "1e300"], ["0", "-1", "inf", "nan", "x"]),
    "beta1": ([None, "0"], ["1", "-0.1", "x"]),
    "beta2": ([None, "0.999999"], ["1", "2", "x"]),
    "epsilon": ([None, "1e-300"], ["0", "-1", "inf", "x"]),
    "pool_targets": ([None, "half", "half,half", "1x1", "4x4", "1x1,half", "2x2,2x2",
                      "14x14,5x5"], ["half,half,half", "0x0", "3", "13xhalf", ""]),
    "train_limit": ([None, "1", "10", "100"], ["0", "-1", "x"]),
    "test_limit": ([None, "1", "10"], ["0", "-1", "x"]),
    "data_root": ([None, "{tmp}/empty", "{tmp}/missing", "{tmp}/file"], []),
    "output_dir": ([None, "{tmp}/out/sub", "{tmp}/ours", "{tmp}/stray"],
                   ["{tmp}/file", "{tmp}/file/sub", "{tmp}/foreign"]),
}
# Config-file lines that name no setting.
GARBAGE_LINES = ["nonsense", "unknown_key = 1", "= 3"]


@st.composite
def config_files(draw):
    """Config-file text whose rows are all accepted on their own, but for at
    most one that is refused or a garbage line."""
    refused = [key for key, (_, values) in SETTING_DRAWS.items() if values]
    bad = draw(st.sets(st.sampled_from([*refused, "garbage"]), max_size=1))
    lines = [draw(st.sampled_from(GARBAGE_LINES))] if "garbage" in bad else []
    for key, (accepted, values) in SETTING_DRAWS.items():
        value = draw(st.sampled_from(values if key in bad else accepted))
        if value is not None:
            lines.append(f"{key} = {value}")
    return "".join(f"{line}\n" for line in draw(st.permutations(lines)))


# The exit-2 errors that README lists as found after loading.
REJECTED_AFTER_LOADING = ("the test set is empty", "leaves an empty train or validation split",
                          "does not load as a run report")


@pytest.fixture
def loads(reads, monkeypatch):
    """The configs that reached load_dataset_pair, which goes on to load."""
    record = harness.load_dataset_pair
    monkeypatch.setattr(harness, "load_dataset_pair",
                        lambda config: record(config) or LOAD_DATASET_PAIR(config))
    return reads


def test_setting_draws_cover_every_setting():
    assert list(SETTING_DRAWS) == list(cli.SETTINGS)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # lr = 1e300 is drawn to diverge
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config_files())
def test_property_config_files_exit_with_a_documented_code(tmp_path, monkeypatch, capsys,
                                                            loads, text):
    """Any config file exits 0, 2 (config), 3 (data) or 4 (divergence) with no
    traceback; one rejected when it is built reads no data, and one that
    builds exits 2 only for an error README lists as found after loading."""
    tmp = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(tmp)
    monkeypatch.delenv(harness.DATA_ROOT_ENV, raising=False)
    (tmp / "empty").mkdir()
    (tmp / "file").write_text("not a directory\n")
    for name, header in (("foreign", "name,score"), ("ours", ",".join(harness.CSV_HEADER))):
        (tmp / name).mkdir()
        (tmp / name / "results.csv").write_text(header + "\n")
    (tmp / "stray").mkdir()  # results.csv cannot be rebuilt from its reports
    (tmp / "stray" / "x.report.json").write_text('{"dataset": "x"}')
    cfg = tmp / "run.cfg"
    cfg.write_text(text.format(tmp=tmp))
    try:
        build("--config", str(cfg))
        built = True
    except (ValueError, TypeError):
        built = False
    loads.clear()
    code = cli.main(["train", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_DIVERGENCE), err
    assert "Traceback" not in err
    if not built:
        assert code == cli.EXIT_CONFIG and not loads, err
    else:
        assert len(loads) == 1
        assert code != cli.EXIT_CONFIG or any(m in err for m in REJECTED_AFTER_LOADING), err
