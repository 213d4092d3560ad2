"""Closed-form fields that the tests snapshot and fit; the package ships none."""

import numpy as np

from sillkoop.bench import VectorField


def _van_der_pol(y):
    y1, y2 = y[..., 0], y[..., 1]
    return np.stack([y2, (1.0 - y1**2) * y2 - y1], axis=-1)


# a planar limit cycle
VAN_DER_POL = VectorField("van-der-pol", 2, _van_der_pol)
