#!/usr/bin/env python3
"""A dual-frame perturbation with finite energy but divergent block norm.

For the unit box window on the half-unit/unit-frequency lattice, any signal
orthogonal to all adjoint-lattice shifts of the generator can be added to
the canonical dual to produce another valid dual window.  The modulated
staircase with harmonic amplitudes is such a signal: every inner product
cancels exactly (a geometric sum over each unit interval), yet its block
norm grows like the harmonic series as the grid widens.  So duals beyond
the canonical one can fall outside the space the generator lives in.

Also probes both block geometries of the canonical dual's multiplier sums;
whether finiteness transfers between the two geometries is open, so the two
numbers are printed side by side without a verdict.
"""

import numpy as np

from gaborwalnut import (
    GaborLattice,
    Signal,
    Weight,
    WindowSpec,
    build_counterexample,
    build_grid,
    build_window,
    conjecture_probe,
    counterexample_report,
    dual_window,
    verify_reconstruction,
)

s = 8
w = Weight.constant()

print("grid growth vs block-norm total (harmonic amplitudes):")
prev = None
for K in (8, 16, 32, 64):
    grid = build_grid(K * s, s)
    h = build_counterexample("harmonic", grid)
    g = build_window(WindowSpec.characteristic(1.0), grid)
    lat = GaborLattice(grid, s // 2, K)
    max_inner, profile = counterexample_report(h, g, lat, w)
    marker = "" if prev is None else f"  (+{profile.norm - prev:.3f})"
    print(f"  K={K:3d}: max |<h, shifted g>| = {max_inner:.1e}, "
          f"block norm = {profile.norm:.3f}{marker}")
    prev = profile.norm

# the perturbed window is still a dual: reconstruction stays exact
grid = build_grid(16 * s, s)
lat = GaborLattice(grid, s // 2, 16)
g = build_window(WindowSpec.characteristic(1.0), grid)
gd = dual_window(g, lat, tol=1e-12)
h = build_counterexample("harmonic", grid)
perturbed = Signal(grid, gd.samples + h.samples)
print(f"\nreconstruction residual with canonical dual:  "
      f"{verify_reconstruction(g, gd, lat, trials=5, seed=0):.2e}")
print(f"reconstruction residual with perturbed dual:  "
      f"{verify_reconstruction(g, perturbed, lat, trials=5, seed=0):.2e}")

sum_alpha, sum_invbeta = conjecture_probe(gd, lat, w)
print(f"\ndual multiplier sums, two block geometries: "
      f"{sum_alpha:.4f} vs {sum_invbeta:.4f} (no verdict attached)")
