"""Dense rank-4 tensors in (batch, height, width, channel) layout.

Tensors are plain numpy float arrays: float64 unless a caller passes
float32, since every layer's outputs and gradients follow its input's
dtype. This module pins the layout conventions (row-major BHWC) and
provides the elementwise primitives the rest of the library builds on.
"""

from typing import NamedTuple

import numpy as np


class Shape4(NamedTuple):
    batch: int
    height: int
    width: int
    channels: int

    def element_count(self) -> int:
        return self.batch * self.height * self.width * self.channels


def elementwise_relu(t: np.ndarray) -> np.ndarray:
    """max(0, x) per element; negative zero normalizes to +0.0."""
    return np.maximum(t, 0.0) + 0.0

