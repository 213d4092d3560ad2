#!/usr/bin/env python3
"""Tour of the SILL dictionary: evaluation, lifting, gradients, joins.

A SILL dictionary lifts an m-dimensional measurement y to
[1, y, Lambda_1(y), ..., Lambda_NL(y)] where each Lambda is a product of
per-coordinate sigmoids.  This script builds a small two-dimensional
dictionary, inspects its values and derivatives, and join-completes it so
that every pairwise product has its limiting dictionary function present.
"""

import numpy as np

from sillkoop import (
    ConjLogistic,
    SillDictionary,
    check_total_order,
    eval_conjunctive,
    grad_conjunctive,
    join_completion,
    join_params,
    lift,
    lift_jacobian,
)

d = SillDictionary(
    2,
    (
        ConjLogistic([-1.0, 0.5], [3.0, 2.0]),
        ConjLogistic([0.5, -0.5], [2.5, 4.0]),
    ),
)
print("dictionary: m =", d.m, " logistics =", d.n_logistic, " lifted size N =", d.size)

y = np.array([0.2, 0.1])
print("\nmeasurement y =", y)
print("lift(y)      =", np.round(lift(y, d), 6))
print("  index 0 is the constant 1, indices 1..2 copy y, the rest are logistics")

for k, f in enumerate(d.logistics):
    print(f"\nlogistic {k}: mu={f.mu} alpha={f.alpha}")
    print("  value at its own center:", eval_conjunctive(f.mu, f), "(always (1/2)^m)")
    print("  gradient at y:", np.round(grad_conjunctive(y, f), 6))

# the Jacobian stacks a zero row, the identity, and the logistic gradients
J = lift_jacobian(y, d)
print("\nlift Jacobian at y has shape", J.shape)
print(np.round(J, 4))

# check the analytic gradient against a central difference
h = 1e-6
fd = (lift(y + [h, 0], d) - lift(y - [h, 0], d)) / (2 * h)
print("max |Jacobian - finite difference| in column 0:", np.abs(J[:, 0] - fd).max())

# the two centers are incomparable: neither dominates componentwise
pairs = check_total_order(d)
print("\ntotally ordered:", not pairs)
print("incomparable pairs:", pairs)

j = join_params(d.logistics[0], d.logistics[1])
print("componentwise-max join: mu =", j.mu, " alpha =", j.alpha)

completed = join_completion(d)
print("after join completion: N_L =", completed.n_logistic, "(original order kept)")
for k, f in enumerate(completed.logistics):
    print(f"  logistic {k}: mu={f.mu}")

# the product of the two originals approaches the join as steepness grows
print("\nproduct vs join at y, steepness scaled by s:")
for s in (1, 2, 4, 8, 16):
    fs, gs = d.logistics[0].scaled(s), d.logistics[1].scaled(s)
    prod = eval_conjunctive(y, fs) * eval_conjunctive(y, gs)
    joined = eval_conjunctive(y, join_params(fs, gs))
    print(f"  s={s:2d}  product={prod:.6f}  join={joined:.6f}  gap={prod - joined:+.2e}")
