"""Golden training traces: the numbers a short seeded run produces, pinned.

Each case writes small seeded dataset files in the real IDX (MNIST) or
CIFAR-10 binary format and trains through the real loaders, split, batches,
Adam and evaluation. A change that moves any of these numbers moves them on
every run, so `test_acceptance.py::test_determinism` cannot see it; these
literals can. A change that means to move them updates them and says why; a
refactor leaves them alone.

The relative tolerance of 1e-10 is there for CI, whose CPU and BLAS kernels
may round a matrix product differently; on one machine the values repeat
bitwise.
"""

from pathlib import Path

import numpy as np
import pytest

from nirmalpool import cli, data, harness

REL = 1e-10
# 53 training images leave 48 = 3 batches of 16 after the 10% split.
N_TRAIN, N_TEST, BATCH = 53, 16, 16
DATA_SEED = 7


def write_mnist(root, seed=DATA_SEED):
    sub = root / "mnist_digits"
    sub.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    images_train, labels_train, images_test, labels_test = harness.MNIST_FILES["mnist_digits"]
    for images_name, labels_name, count in ((images_train, labels_train, N_TRAIN),
                                            (images_test, labels_test, N_TEST)):
        data.write_idx_images(sub / images_name, rng.integers(0, 256, (count, 28, 28)))
        data.write_idx_labels(sub / labels_name, rng.integers(0, 10, count))


def write_cifar10(root, seed=DATA_SEED):
    """CIFAR-10 records by hand: a label byte, then 3072 pixel bytes."""
    sub = root / "cifar10"
    sub.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    counts = [len(c) for c in np.array_split(np.arange(N_TRAIN), len(harness.CIFAR_TRAIN_FILES))]
    for name, count in [*zip(harness.CIFAR_TRAIN_FILES, counts),
                        (harness.CIFAR_TEST_FILES[0], N_TEST)]:
        records = rng.integers(0, 256, (count, data.CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, count)
        (sub / name).write_bytes(records.tobytes())


# The benchmark's three workload configurations, at seed 1.
CONFIGS = {
    "mnist_nirmal_pool_only": (write_mnist, dict(
        dataset="mnist_digits", pooling_variant="nirmal", activation_placement="pool_only")),
    "cifar_nirmal_after_conv_14x14_5x5": (write_cifar10, dict(
        dataset="cifar10", pooling_variant="nirmal", activation_placement="after_conv",
        pool_targets=((14, 14), (5, 5)))),
    "mnist_max2x2_after_conv": (write_mnist, dict(
        dataset="mnist_digits", pooling_variant="max2x2", activation_placement="after_conv")),
}


def config_for(name, tmp_path):
    write, settings = CONFIGS[name]
    write(tmp_path / "data")
    return harness.RunConfig(epochs=1, batch_size=BATCH, seed=1,
                             data_root=str(tmp_path / "data"),
                             output_dir=str(tmp_path / "out"), **settings)


def trace(report):
    """Each epoch's train loss, train accuracy, val loss and val accuracy,
    then the test loss and test accuracy, in one flat list."""
    return [*(value for e in report.epochs
              for value in (e.train_loss, e.train_accuracy, e.val_loss, e.val_accuracy)),
            report.test_loss, report.test_accuracy]


# name -> trace(report) of one epoch of harness.train.
GOLDEN_TRAIN = {
    "mnist_nirmal_pool_only": [
        2.8114154429174576, 0.14583333333333334, 2.3650012133789966, 0.2,
        2.9478636987818216, 0.0625],
    "cifar_nirmal_after_conv_14x14_5x5": [
        2.627283295793554, 0.125, 3.385767476840774, 0.0,
        2.7678010523518184, 0.0625],
    "mnist_max2x2_after_conv": [
        2.5448624447312596, 0.14583333333333334, 2.2817117169149967, 0.2,
        3.0035261631291856, 0.0625],
}

# variant -> trace(report) of `nirmalpool compare` on 48 synthetic training images.
GOLDEN_COMPARE = {
    "max2x2": [
        0.628776507142269, 0.5208333333333334, 0.46940169463783016, 1.0,
        0.549354645318999, 0.6875],
    "nirmal": [
        0.7216274477322014, 0.25, 0.6242659685146463, 1.0,
        0.6667187132341047, 0.625],
}

# name -> (loss, correct, {param: (sum, sum of squares)}) after the first
# training step of a run of the configuration.
GOLDEN_STEP = {
    "mnist_nirmal_pool_only": (2.5467671592744656, 2, {
        "conv1_w": (-15.142727665083365, 55.36157562033877),
        "conv1_b": (-0.010999535968933959, 3.0998853504415964e-05),
        "conv2_w": (-17.728679664245092, 126.52881677277115),
        "conv2_b": (-0.010999821257894416, 5.899812743787321e-05),
        "dense1_w": (-13.354152105309208, 255.71477863438255),
        "dense1_b": (0.0019956603605086293, 8.199028907439125e-05),
        "dense2_w": (-4.913891041134928, 21.169999244088856),
        "dense2_b": (0.001999972767720751, 9.99992524302617e-06),
    }),
    "cifar_nirmal_after_conv_14x14_5x5": (2.5017862158102426, 3, {
        "conv1_w": (-14.473237187758821, 62.39587209174746),
        "conv1_b": (-0.0040002361814100475, 3.1999031434932283e-05),
        "conv2_w": (-16.538290757403622, 126.37884988858983),
        "conv2_b": (-0.008999727309189645, 5.0996819608693005e-05),
        "dense1_w": (-23.123288638287164, 255.7347939217404),
        "dense1_b": (-0.017002068144045396, 8.099141269292143e-05),
        "dense2_w": (-7.32573002276054, 19.948898411808102),
        "dense2_b": (2.4819824036509744e-08, 9.99991385598799e-06),
    }),
    "mnist_max2x2_after_conv": (2.4862941141195103, 2, {
        "conv1_w": (-15.096279012027937, 55.349913801519705),
        "conv1_b": (-0.0010003153707238803, 3.09989549033215e-05),
        "conv2_w": (-15.941647628745883, 126.5561743249631),
        "conv2_b": (0.0009994172472178957, 5.899748242799655e-05),
        "dense1_w": (-20.19237564884405, 255.71859715196172),
        "dense1_b": (-0.008000295002113713, 8.599569955497462e-05),
        "dense2_w": (-4.963930170462207, 21.17010472846843),
        "dense2_b": (3.560521778561872e-08, 9.999877569145386e-06),
    }),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_one_epoch_trace(tmp_path, name):
    assert trace(harness.train(config_for(name, tmp_path))) == \
        pytest.approx(GOLDEN_TRAIN[name], rel=REL)


def test_synthetic_compare_trace(tmp_path, capsys):
    # With the ReLU on the pool only, max2x2 has none: the variants differ.
    # Each report is read back from the path that compare printed for it.
    cfg = tmp_path / "compare.cfg"
    cfg.write_text(f"dataset=synthetic\nactivation_placement=pool_only\nepochs=1\n"
                   f"batch_size={BATCH}\nseed=1\ntrain_limit={N_TRAIN}\n"
                   f"test_limit={N_TEST}\noutput_dir={tmp_path / 'out'}\n")
    assert cli.main(["compare", "--config", str(cfg)]) == cli.EXIT_OK
    paths = [line.removeprefix("report written to ")
             for line in capsys.readouterr().out.splitlines()
             if line.startswith("report written to ")]
    reports = [harness.RunReport.from_json(Path(path).read_text()) for path in paths]
    reports = {report.variant: report for report in reports}
    assert list(reports) == list(GOLDEN_COMPARE)
    for variant, report in reports.items():
        assert trace(report) == pytest.approx(GOLDEN_COMPARE[variant], rel=REL), variant


def first_step(config):
    """The first training step of `harness.train` on `config`, after its set-up."""
    split, _, spec, params, state = harness.setup(config)
    images, labels = next(data.batches(split.train, config.batch_size, config.seed, 0))
    return harness.train_step(spec, params, state, images, labels)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_first_training_step(tmp_path, name):
    params, loss, correct = first_step(config_for(name, tmp_path))
    expected_loss, expected_correct, expected_sums = GOLDEN_STEP[name]
    assert loss == pytest.approx(expected_loss, rel=REL)
    assert correct == expected_correct
    assert list(params) == list(expected_sums)
    for key, value in params.items():
        assert [value.sum(), (value ** 2).sum()] == pytest.approx(expected_sums[key], rel=REL), key
