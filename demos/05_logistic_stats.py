#!/usr/bin/env python3
"""Moments of randomly parameterized logistics and per-term error rates.

With center, steepness, and measurement drawn iid from U(-a, a), the
logistic's argument is a product of uniforms with a closed-form density.
Quadrature against that density puts the expected logistic at exactly one
half for every interval radius, with variance growing toward the 0/1
extremes; Monte Carlo cross-checks every number.  The same sampling model
makes per-term approximation errors halve with each added measurement.
"""

import numpy as np

from sillkoop import (
    expected_error_rates,
    mc_conjunctive_table,
    moment_sweep,
    product_pdf_normalization,
)

print("logistic moments under U(-a, a) parameter sampling")
print("\n   a    integral(g)   E[lambda]    Var[lambda]   quad err   MC E      3*stderr")
for rep in moment_sweep([1.0, 2.0, 4.0, 8.0], samples=200_000, seed=0):
    norm = product_pdf_normalization(rep.a)
    print(
        f"  {rep.a:4.1f}  {norm:.10f}  {rep.expectation:.8f}  {rep.variance:.6f}"
        f"   {rep.quad_error:.1e}    {rep.mc_expectation:.6f}  {3 * rep.mc_stderr:.1e}"
    )
print("the expectation is 1/2 at every radius; the variance climbs toward 1/4;")
print("quad err is |fine - coarse| between two fixed Gauss-Legendre rules")

print("\nconjunctive expectation against the 1/2^m envelope (a = 2, 200k samples)")
print("   m    E[Lambda]   1/2^m")
table = mc_conjunctive_table(range(1, 7), 2.0, 200_000, seed=1)
for m, (est, _) in enumerate(table, start=1):
    print(f"   {m}    {est:.6f}   {2.0**-m:.6f}")
print("every row reads one sample path, so the comparison across m is paired")

print("\nper-term error rates: analytic vs Monte Carlo (a = 2, 200k samples)")
rows = expected_error_rates(range(1, 7), 2.0, samples=200_000, seed=5)
print("   m    1/2^(m+1)   1/2^(2m+1)   MC |linear term|   MC |bilinear term|")
for r in rows:
    print(
        f"   {r.m}    {r.rate_linear:.6f}   {r.rate_bilinear:.8f}   "
        f"{r.mc_linear:.6f}            {r.mc_bilinear:.8f}"
    )
slope = np.polyfit([r.m for r in rows], np.log2([r.mc_linear for r in rows]), 1)[0]
print(f"\nlog2 slope of the MC linear-term column: {slope:.3f} "
      "(one halving per added measurement)")
print("the bilinear column falls twice as fast; the analytic ratio is exactly 2^m")
