"""Adaptive max pooling with fused ReLU, a from-scratch CNN stack, and a
benchmark harness comparing it against standard 2x2 max pooling."""

from .pooling import (
    PoolCache,
    PoolParams,
    compute_pool_params,
    max_pool2x2_forward,
    max_pool_forward,
    nirmal_backward,
    nirmal_forward,
    output_shape,
)

__all__ = [
    "PoolCache",
    "PoolParams",
    "compute_pool_params",
    "max_pool2x2_forward",
    "max_pool_forward",
    "nirmal_backward",
    "nirmal_forward",
    "output_shape",
]

__version__ = "0.1.0"
