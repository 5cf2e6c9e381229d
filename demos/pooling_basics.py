"""Walkthrough of the adaptive pooling operator.

Shows how the window, stride and output size are derived from a requested
output size, what the fused ReLU does, and how gradients are routed back
through the argmax coordinates.
"""

import numpy as np

from nirmalpool import (compute_pool_params, max_pool2x2_forward, nirmal_backward,
                        nirmal_forward)

# Parameter derivation: window = ceil(in/target), stride = max(1, floor(in/target))
print("== adaptive parameters ==")
for h_in, target in [(28, 14), (28, 10), (32, 8), (4, 8)]:
    p = compute_pool_params(h_in, h_in, target, target)
    note = "" if p.out_h == target else f"  (requested {target}, got {p.out_h})"
    print(f"input {h_in:>2} target {target:>2} -> window {p.window_h}, "
          f"stride {p.stride_h}, output {p.out_h}{note}")

# Forward pass on a small plane
print("\n== forward pass ==")
x = np.array([[1, 2, 3, 4],
              [5, 6, 7, 8],
              [-1, -2, -3, -4],
              [0, 1, 2, 3]], dtype=float).reshape(1, 4, 4, 1)
out, cache = nirmal_forward(x, 2, 2)
print("input plane:\n", x[0, :, :, 0])
print("pooled + ReLU (target 2x2):\n", out[0, :, :, 0])

baseline, _ = max_pool2x2_forward(x)
print("plain 2x2 max pool (negatives survive):\n", baseline[0, :, :, 0])

# A window full of negatives is clamped to zero by the fused activation
neg = np.full((1, 2, 2, 1), -5.0)
clamped, _ = nirmal_forward(neg, 1, 1)
print("all-negative window pools to:", clamped[0, 0, 0, 0])

# Backward pass: each output gradient lands on its window's argmax,
# and outputs whose max was clamped contribute nothing.
print("\n== backward pass ==")
grad_in = nirmal_backward(np.ones_like(out), cache)
print("gradient of sum(output) w.r.t. input:\n", grad_in[0, :, :, 0])
