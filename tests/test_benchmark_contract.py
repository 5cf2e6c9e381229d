"""The names `benchmarks/` calls, wraps and probes, as README's "What
`benchmarks/` relies on" lists them.

The benchmark's tracer binds each wrapped call's arguments by parameter name
(`args["kernels"]`, `args.get("h_out_target")`, ...), so renaming a parameter
breaks a probe without an error from the library itself. This test pins those
names here, without importing `benchmarks/`.
"""

import dataclasses
import inspect
from pathlib import Path

from nirmalpool import data, harness, nn, optim, pooling

import oracles

# Each function and the names of its leading parameters, the ones the
# benchmark passes or reads.
LEADING_PARAMETERS = {
    nn.model_forward: ("spec", "params", "batch"),
    nn.model_backward: ("spec", "params", "cache", "grad_logits"),
    nn.conv2d_forward: ("x", "kernels", "bias"),
    nn.conv2d_backward: ("x", "kernels", "grad_out"),
    nn.softmax_cross_entropy: ("logits", "labels"),
    nn.init_params: ("spec", "input_shape", "seed"),
    optim.init_adam: ("params", "lr", "beta1", "beta2", "epsilon"),
    optim.adam_step: ("params", "grads", "state"),
    pooling.nirmal_forward: ("x", "h_out_target"),
    pooling.max_pool2x2_forward: ("x",),
    pooling.nirmal_backward: ("grad_out", "cache"),
    harness.build_model_spec: ("config", "input_hw"),
    harness.load_dataset_pair: ("config",),
    harness.train: ("config",),
    harness.evaluate: ("spec", "params", "dataset", "batch_size"),
    data.load_mnist: ("paths",),
    data.load_cifar10: ("paths",),
    data.batches: ("dataset", "batch_size", "seed", "epoch"),
    data.split_train_val: ("dataset", "fraction", "seed"),
    data.write_idx_images: ("path", "images"),
    data.write_idx_labels: ("path", "labels"),
}

# The functions the oracle gates look up by name in tests/oracles.py, which
# they load by path, and the parameters they pass positionally.
ORACLE_PARAMETERS = {
    "conv2d_oracle": ("x", "kernels", "bias"),
    "nirmal_oracle": ("x", "th", "tw"),
    "max_pool_oracle": ("x", "ph", "pw", "sh", "sw"),
}

# The RunConfig fields a benchmark workload sets or reads.
RUN_CONFIG_FIELDS = {"dataset", "pooling_variant", "activation_placement", "batch_size",
                     "seed", "pool_targets", "data_root", "val_fraction", "lr", "beta1",
                     "beta2", "epsilon"}


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_names_the_benchmark_relies_on():
    for fn, leading in LEADING_PARAMETERS.items():
        names = tuple(inspect.signature(fn).parameters)[:len(leading)]
        assert names == leading, f"{fn.__module__}.{fn.__name__} takes {names}, not {leading}"
    assert Path(oracles.__file__) == Path(__file__).with_name("oracles.py")
    for name, parameters in ORACLE_PARAMETERS.items():
        assert hasattr(oracles, name), f"tests/oracles.py has no {name}"
        assert tuple(inspect.signature(getattr(oracles, name)).parameters) == parameters, name
    assert {"pooling_variant", "activation_placement", "pool_targets"} <= _field_names(nn.ModelSpec)
    assert {"conv_inputs", "dense_inputs", "flat_input_shape"} <= _field_names(nn.ForwardCache)
    assert "params" in _field_names(pooling.PoolCache)
    for derived in ("argmax", "relu_mask"):
        assert isinstance(getattr(pooling.PoolCache, derived), property), derived
    assert RUN_CONFIG_FIELDS <= _field_names(harness.RunConfig)
    assert {"images", "labels"} <= _field_names(data.Dataset)
    assert {"train", "val"} <= _field_names(data.Split)
    assert hasattr(data.ByteImages, "shape") and hasattr(data.ByteImages, "__getitem__")
    for name in ("MNIST_FILES", "CIFAR_TRAIN_FILES", "CIFAR_TEST_FILES"):
        assert hasattr(harness, name), name
    assert isinstance(data.CIFAR_RECORD_BYTES, int)
