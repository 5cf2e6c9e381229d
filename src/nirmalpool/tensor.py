"""Dense rank-4 tensors in (batch, height, width, channel) layout.

Tensors are plain float64 numpy arrays; this module pins the layout
conventions (row-major BHWC) and provides the elementwise primitives the
rest of the library builds on.
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

    def validate(self) -> None:
        if any(extent < 1 for extent in self):
            raise ValueError(f"all extents must be >= 1, got {tuple(self)}")


def zeros(shape: Shape4) -> np.ndarray:
    """All-zero tensor of the given shape."""
    shape = Shape4(*shape)
    shape.validate()
    return np.zeros(tuple(shape), dtype=np.float64)


def elementwise_relu(t: np.ndarray) -> np.ndarray:
    """max(0, x) per element; negative zero normalizes to +0.0."""
    return np.maximum(t, 0.0) + 0.0

