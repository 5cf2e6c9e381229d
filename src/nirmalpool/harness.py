"""Experiment harness: trains the benchmark network with either pooling
variant, evaluates on held-out data, and writes a JSON report per run plus a
CSV table of every report in the output directory, for cross-run comparison.
"""

import csv
import hashlib
import io
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data as datasets
from . import nn, optim

DATA_ROOT_ENV = "NIRMALPOOL_DATA_ROOT"
CSV_HEADER = "dataset,variant,seed,fingerprint,epochs,test_loss,test_accuracy".split(",")

# Both MNIST sets ship the same four IDX files: train images and labels,
# then test images and labels.
MNIST_FILES = dict.fromkeys(("mnist_digits", "mnist_fashion"),
                            ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"))
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILES = ["test_batch.bin"]
# Every dataset's name and its images' (H, W, C), which a file-backed set must decode to.
DATASETS = {**dict.fromkeys(MNIST_FILES, (28, 28, 1)), "cifar10": (32, 32, 3),
            "synthetic": (8, 8, 1)}


class DataPathError(FileNotFoundError):
    """Dataset files missing from the configured root, or there but unreadable."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class RunConfig:
    dataset: str = "mnist_digits"   # one of DATASETS
    pooling_variant: str = "nirmal"  # one of nn.VARIANTS
    activation_placement: str | None = None  # None -> variant default
    epochs: int = 10
    batch_size: int = 64
    val_fraction: float = 0.1
    seed: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    # nn.ModelSpec's per-stage targets, stored padded to one per stage; None if all halve.
    pool_targets: tuple[tuple[int, int] | None, ...] | None = None
    train_limit: int | None = None  # desk-scale subsampling
    test_limit: int | None = None
    data_root: str | None = None
    output_dir: str = "."

    def __post_init__(self):  # reject every setting that cannot run, before any data is read
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        for key, low, unset in (("epochs", 0, ""), ("batch_size", 1, ""), ("seed", 0, ""),
                                ("train_limit", 1, " or unset"), ("test_limit", 1, " or unset")):
            value = getattr(self, key)
            if unset and value is None:
                continue
            if type(value) is not int:  # a float or bool count would run, or fail, after loading
                raise ValueError(f"{key} must be an int{unset}, got {value!r}")
            if value < low:
                raise ValueError(f"{key} must be >= {low}{unset}, got {value}")
        for key in ("val_fraction", "lr", "beta1", "beta2", "epsilon"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{key} must be an int or a float, got {value!r}")
            try:
                object.__setattr__(self, key, float(value))  # lr=1 and lr=1.0: one fingerprint
            except OverflowError:  # an int past the float range; its repr may be huge
                raise ValueError(f"{key} must fit in a float, got an int of "
                                 f"{value.bit_length()} bits") from None
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        optim.check_settings(self.lr, self.beta1, self.beta2, self.epsilon)
        spec = build_model_spec(self)  # ModelSpec judges variant, placement and targets
        # One network, one spelling of its targets, so one run has one fingerprint.
        object.__setattr__(self, "pool_targets",
                           spec.pool_targets if any(spec.pool_targets) else None)
        # nn.plan judges every stage's geometry on the dataset's images, under
        # either variant, as compare runs both.
        for variant in nn.VARIANTS:
            nn.plan(replace(spec, pooling_variant=variant), (1, *DATASETS[self.dataset]))
        # The nearest existing path at or above output_dir must be a directory,
        # or write_report could not make it once training is done.
        out = Path(self.output_dir)
        existing = next((p for p in (out, *out.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise ValueError(f"output_dir {self.output_dir!r} exists and is not a directory"
                             if existing == out else
                             f"output_dir {self.output_dir!r} is below {str(existing)!r}, "
                             f"which is not a directory")
        csv_path = out / "results.csv"  # write_report overwrites it whole, so it must be ours
        if csv_path.exists() and not csv_path.is_file():
            raise ValueError(f"{csv_path} exists and is not a regular file")
        if csv_path.is_file() and csv_path.stat().st_size:
            with open(csv_path, errors="replace") as f:
                if f.readline().rstrip("\n") != ",".join(CSV_HEADER):
                    raise ValueError(f"{csv_path} does not start with the header "
                                     f"{','.join(CSV_HEADER)!r}; it is rebuilt from the reports "
                                     f"beside it after each run, so an older one can be deleted")

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


@dataclass
class RunReport:
    dataset: str
    variant: str
    seed: int
    fingerprint: str
    epochs: list[EpochMetrics]
    test_loss: float
    test_accuracy: float
    wall_clock_seconds: float
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        raw = json.loads(text)
        raw["epochs"] = [EpochMetrics(**e) for e in raw["epochs"]]
        return cls(**raw)


def load_dataset_pair(config: RunConfig) -> tuple[datasets.Dataset, datasets.Dataset]:
    """(train, test) datasets for the configured benchmark. A split whose
    images are not the dataset's DATASETS shape raises FormatError; a
    dataset file that is missing or cannot be read raises DataPathError."""
    if config.dataset == "synthetic":
        return (datasets.synthetic_two_class(512, seed=config.seed),
                datasets.synthetic_two_class(128, seed=config.seed + 1))
    if config.dataset == "cifar10":
        names, load = (CIFAR_TRAIN_FILES, CIFAR_TEST_FILES), datasets.load_cifar10
    else:
        files = MNIST_FILES[config.dataset]
        names, load = (files[:2], files[2:]), datasets.load_mnist
    root = config.data_root or os.environ.get(DATA_ROOT_ENV)
    if root is None:
        raise DataPathError(f"no data root configured; set --data-root or ${DATA_ROOT_ENV}")
    sub = Path(root) / config.dataset
    splits = [[sub / n for n in split] for split in names]
    missing = [str(p) for paths in splits for p in paths if not p.exists()]
    if missing:
        raise DataPathError(f"missing {config.dataset} files: {missing}; place them under {sub}")
    pair = []
    for paths in splits:
        try:
            dataset = load(paths)
        except OSError as exc:  # a file that exists but cannot be read
            raise DataPathError(f"cannot read {config.dataset} file "
                                f"{exc.filename or paths}: {exc.strerror or exc}") from exc
        shape, expected = dataset.images.shape[1:], DATASETS[config.dataset]
        if shape != expected:
            raise datasets.FormatError(f"{paths[0]}: {config.dataset} images are {shape}, "
                                       f"expected {expected}")
        pair.append(dataset)
    return tuple(pair)


def build_model_spec(config: RunConfig, input_hw: tuple[int, int] | None = None) -> nn.ModelSpec:
    """The paper's network, `nn.ModelSpec`'s default widths; a compact variant
    for the synthetic toy set, where 8x8 inputs cannot feed two pooling stages.
    `input_hw` is unused: it is kept only because `benchmarks/workloads.py`
    passes it."""
    widths = dict(conv_filters=(8,), dense_units=(32, 2)) if config.dataset == "synthetic" else {}
    return nn.ModelSpec(pooling_variant=config.pooling_variant,
                        activation_placement=config.activation_placement,
                        pool_targets=config.pool_targets or (), **widths)


def train_step(spec: nn.ModelSpec, params: dict, state: optim.AdamState, images: np.ndarray,
               labels: np.ndarray) -> tuple[dict, float, int]:
    """One training step on a batch: forward, loss, backward and Adam.
    Returns the new parameters, the batch's mean loss and its number of
    correct predictions. A non-finite loss skips backward and Adam, and
    returns the parameters unchanged."""
    logits, cache = nn.model_forward(spec, params, images)
    loss, grad_logits = nn.softmax_cross_entropy(logits, labels)
    if np.isfinite(loss):
        grads = nn.model_backward(spec, params, cache, grad_logits)
        params = optim.adam_step(params, grads, state)
    return params, loss, int((logits.argmax(axis=1) == labels).sum())


def eval_batch(spec: nn.ModelSpec, params: dict, images: np.ndarray,
               labels: np.ndarray) -> tuple[float, int]:
    """A batch's mean loss and its number of correct predictions."""
    logits, _ = nn.model_forward(spec, params, images)
    loss, _ = nn.softmax_cross_entropy(logits, labels)
    return loss, int((logits.argmax(axis=1) == labels).sum())


def evaluate(spec: nn.ModelSpec, params: dict, dataset: datasets.Dataset,
             batch_size: int) -> tuple[float, float]:
    """Mean loss and accuracy over a dataset, which must not be empty."""
    if not len(dataset):
        raise ValueError("cannot evaluate an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    total_loss = 0.0
    correct = 0
    for start in range(0, len(dataset), batch_size):
        images = dataset.images[start:start + batch_size]
        labels = dataset.labels[start:start + batch_size]
        loss, batch_correct = eval_batch(spec, params, images, labels)
        total_loss += loss * len(labels)
        correct += batch_correct
    return total_loss / len(dataset), correct / len(dataset)


def setup(config: RunConfig) -> tuple[datasets.Split, datasets.Dataset, nn.ModelSpec, dict,
                                      optim.AdamState]:
    """What a run of `config` builds before its first step: the train/val
    split, the test set, the spec, the initial parameters and the Adam state.
    An empty test set raises ValueError."""
    train_full, test_set = load_dataset_pair(config)
    if config.train_limit is not None:
        train_full = train_full.subset(np.arange(min(config.train_limit, len(train_full))))
    if config.test_limit is not None:
        test_set = test_set.subset(np.arange(min(config.test_limit, len(test_set))))
    if not len(test_set):
        raise ValueError("the test set is empty; check the test files")

    split = datasets.split_train_val(train_full, config.val_fraction, config.seed)
    del train_full  # the split holds copies; free the undivided set before training
    spec = build_model_spec(config)
    params = nn.init_params(spec, (1, *DATASETS[config.dataset]), seed=config.seed)
    state = optim.init_adam(params, lr=config.lr, beta1=config.beta1,
                            beta2=config.beta2, epsilon=config.epsilon)
    return split, test_set, spec, params, state


def train(config: RunConfig, on_epoch=lambda metrics: None) -> RunReport:
    """Train and evaluate a config, which checked its settings when it was built.
    Each epoch's `EpochMetrics` goes to `on_epoch` as the epoch ends; `train` prints nothing."""
    start_time = time.time()
    split, test_set, spec, params, state = setup(config)
    epoch_metrics: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        running_loss = 0.0
        running_correct = 0
        for images, labels in datasets.batches(split.train, config.batch_size,
                                               config.seed, epoch):
            params, loss, correct = train_step(spec, params, state, images, labels)
            if not np.isfinite(loss):
                raise DivergenceError(epoch)
            running_loss += loss * len(labels)
            running_correct += correct
        val_loss, val_acc = evaluate(spec, params, split.val, config.batch_size)
        if not np.isfinite(val_loss):
            raise DivergenceError(epoch)
        metrics = EpochMetrics(epoch=epoch,
                               train_loss=running_loss / len(split.train),
                               train_accuracy=running_correct / len(split.train),
                               val_loss=val_loss, val_accuracy=val_acc)
        epoch_metrics.append(metrics)
        on_epoch(metrics)

    test_loss, test_acc = evaluate(spec, params, test_set, config.batch_size)
    if not np.isfinite(test_loss):
        raise DivergenceError(config.epochs - 1)
    return RunReport(dataset=config.dataset, variant=config.pooling_variant,
                     seed=config.seed, fingerprint=config.fingerprint(),
                     epochs=epoch_metrics, test_loss=test_loss, test_accuracy=test_acc,
                     wall_clock_seconds=time.time() - start_time,
                     config=asdict(config))


def _write_atomic(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over `path`."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_report(report: RunReport, output_dir) -> Path:
    """Write `<dataset>_<variant>_seed<seed>_<fingerprint[:8]>.report.json`, then
    rebuild `results.csv` from every `*.report.json` in `output_dir`, one row per
    report by file name, both atomically. The fingerprint keeps runs that differ
    in any other setting apart; a rerun replaces its report and row. A report that
    does not load raises ValueError naming it and leaves `results.csv` as it was."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = f"{report.dataset}_{report.variant}_seed{report.seed}_{report.fingerprint[:8]}"
    json_path = out / f"{name}.report.json"
    _write_atomic(json_path, report.to_json())
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(CSV_HEADER)
    for path in sorted(out.glob("*.report.json")):
        try:
            r = RunReport.from_json(path.read_text())
            writer.writerow([r.dataset, r.variant, r.seed, r.fingerprint, len(r.epochs),
                             f"{r.test_loss:.6f}", f"{r.test_accuracy:.6f}"])
        except (KeyError, RecursionError, TypeError, ValueError) as exc:  # any file content
            raise ValueError(f"{path} does not load as a run report "
                             f"({type(exc).__name__}: {exc})") from None
    _write_atomic(out / "results.csv", table.getvalue())
    return json_path
