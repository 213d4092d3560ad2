"""Closed-form fields that the tests snapshot and fit; the package ships none."""

import numpy as np


def VAN_DER_POL(y):
    """A planar limit cycle, on a point (2,) or a batch (..., 2)."""
    y1, y2 = y[..., 0], y[..., 1]
    return np.stack([y2, (1.0 - y1**2) * y2 - y1], axis=-1)
