"""The benchmark's workloads and the closed-loop step it times.

`Run` calls the library's public functions in the order
`harness.train` and `harness.evaluate` call them, so a timed step is the
step a user's training or evaluation run executes. Every library call goes
through a module attribute (`nn.model_forward`, `data.batches`, ...) so the
tracer in `spans.py` can wrap it from outside the library.

Inputs are seeded random images written in the real IDX (MNIST) and CIFAR-10
binary formats, because the real dataset files are not part of the
repository; the loaders decode them exactly as they would the real files.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nirmalpool import data, harness, nn, optim

BATCH = 64
# 2133 training images leave 1920 = 30 full batches after the 10% split.
N_TRAIN = 2133
N_TEST = 512
# The determinism digest is taken after this many steps, warm-up included.
DIGEST_STEPS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str          # harness dataset name: "mnist_digits" | "cifar10"
    variant: str          # "nirmal" | "max2x2"
    placement: str        # "pool_only" | "after_conv"
    pool_targets: tuple | None
    train: bool           # training step (True) or evaluation step (False)
    why: str

    def config(self, data_root, seed: int) -> harness.RunConfig:
        return harness.RunConfig(dataset=self.dataset, pooling_variant=self.variant,
                                 activation_placement=self.placement,
                                 batch_size=BATCH, seed=seed,
                                 pool_targets=self.pool_targets,
                                 data_root=str(data_root))


WORKLOADS = {w.name: w for w in (
    Workload("mnist_train", "mnist_digits", "nirmal", "pool_only", None, True,
             "paper headline: NIRMAL training step at MNIST shape, halving targets; "
             "conv backward dominates"),
    Workload("cifar_train_overlap", "cifar10", "nirmal", "after_conv", ((14, 14), (5, 5)), True,
             "CIFAR shape, C_in=3, 3x3 stride-2 overlapping windows and ReLU masks "
             "in backward"),
    Workload("mnist_eval", "mnist_digits", "max2x2", "after_conv", None, False,
             "forward and loss only with the fixed 2x2 baseline; pooling forward "
             "dominates, no backward or Adam"),
)}


def write_dataset(workload: Workload, root: Path, seed: int,
                  n_train: int = N_TRAIN, n_test: int = N_TEST) -> None:
    """Seeded random uint8 images and labels in the workload's file format,
    laid out as `harness.load_dataset_pair` expects under `root`."""
    rng = np.random.default_rng([seed, 0xDA7A])
    if workload.dataset == "cifar10":
        sub = root / "cifar10"
        sub.mkdir(parents=True, exist_ok=True)
        train_chunks = np.array_split(np.arange(n_train), len(harness.CIFAR_TRAIN_FILES))
        files = list(zip(harness.CIFAR_TRAIN_FILES, (len(c) for c in train_chunks)))
        files.append((harness.CIFAR_TEST_FILES[0], n_test))
        for name, count in files:
            records = np.empty((count, data.CIFAR_RECORD_BYTES), dtype=np.uint8)
            records[:, 0] = rng.integers(0, 10, count)
            records[:, 1:] = rng.integers(0, 256, (count, data.CIFAR_RECORD_BYTES - 1))
            (sub / name).write_bytes(records.tobytes())
        return
    sub = root / workload.dataset
    sub.mkdir(parents=True, exist_ok=True)
    images_train, labels_train, images_test, labels_test = harness.MNIST_FILES[workload.dataset]
    for images_name, labels_name, count in ((images_train, labels_train, n_train),
                                            (images_test, labels_test, n_test)):
        data.write_idx_images(sub / images_name, rng.integers(0, 256, (count, 28, 28)))
        data.write_idx_labels(sub / labels_name, rng.integers(0, 10, count))


class Run:
    """The state `harness.train` builds before its first step, and one step
    of its training loop (or of `harness.evaluate`'s loop) per call."""

    def __init__(self, workload: Workload, data_root, seed: int):
        self.workload = workload
        self.config = config = workload.config(data_root, seed)
        train_full, self.test_set = harness.load_dataset_pair(config)
        self.split = data.split_train_val(train_full, config.val_fraction, config.seed)
        h, w, c = train_full.images.shape[1:]
        self.input_shape = (1, h, w, c)
        self.spec = harness.build_model_spec(config, (h, w))
        self.params = nn.init_params(self.spec, self.input_shape, seed=config.seed)
        self.state = optim.init_adam(self.params, lr=config.lr, beta1=config.beta1,
                                     beta2=config.beta2, epsilon=config.epsilon)
        self.epoch = -1
        self._batches = iter(())
        self.eval_pos = 0
        self.total_loss = 0.0
        self.correct = 0
        self.seen = 0

    def first_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """The batch the first step consumes (outside any timing)."""
        if self.workload.train:
            return next(data.batches(self.split.train, self.config.batch_size,
                                     self.config.seed, 0))
        return (self.test_set.images[:self.config.batch_size],
                self.test_set.labels[:self.config.batch_size])

    def step(self) -> float:
        """One closed-loop step; returns its loss."""
        return self._train_step() if self.workload.train else self._eval_step()

    def _train_step(self) -> float:
        batch = next(self._batches, None)
        if batch is None:
            self.epoch += 1
            self._batches = data.batches(self.split.train, self.config.batch_size,
                                         self.config.seed, self.epoch)
            batch = next(self._batches)
        images, labels = batch
        logits, cache = nn.model_forward(self.spec, self.params, images)
        loss, grad_logits = nn.softmax_cross_entropy(logits, labels)
        grads = nn.model_backward(self.spec, self.params, cache, grad_logits)
        self.params = optim.adam_step(self.params, grads, self.state)
        self._count(loss, logits, labels)
        return loss

    def _eval_step(self) -> float:
        start, size = self.eval_pos, self.config.batch_size
        images = self.test_set.images[start:start + size]
        labels = self.test_set.labels[start:start + size]
        self.eval_pos = start + size if start + size < len(self.test_set) else 0
        logits, _ = nn.model_forward(self.spec, self.params, images)
        loss, _ = nn.softmax_cross_entropy(logits, labels)
        self._count(loss, logits, labels)
        return loss

    def _count(self, loss: float, logits: np.ndarray, labels: np.ndarray) -> None:
        self.total_loss += loss * len(labels)
        self.correct += int((logits.argmax(axis=1) == labels).sum())
        self.seen += len(labels)

    def eval_pass(self) -> tuple[float, float]:
        """Mean loss and accuracy over one pass of the test set by evaluation
        steps from its start, accumulated as `harness.evaluate` does."""
        self.eval_pos, self.total_loss, self.correct, self.seen = 0, 0.0, 0, 0
        self._eval_step()
        while self.eval_pos:
            self._eval_step()
        return self.total_loss / self.seen, self.correct / self.seen

    def digest(self, loss: float) -> str:
        """sha256 over the loss and every parameter, in key order."""
        h = hashlib.sha256(float(loss).hex().encode())
        for key in sorted(self.params):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.params[key]).tobytes())
        return h.hexdigest()
