#!/usr/bin/env python3
"""Walk through the two faces of the frame operator.

We build the classic half-unit-step, unit-frequency-step system generated by
the unit box window, apply the frame operator both as the full double sum
over the lattice and as the strided multiplier sum, and watch them agree.
On this instance the operator is exactly twice the identity, which makes
every downstream quantity easy to eyeball.
"""

import numpy as np

from gaborwalnut import (
    GaborLattice,
    Signal,
    WindowSpec,
    build_grid,
    build_window,
    frame_operator_direct,
    frame_operator_walnut,
    signed_range,
    walnut_coefficients,
)

# 8 samples, 4 per unit: the grid covers [0, 2) with half-unit resolution
grid = build_grid(8, 4)
g = build_window(WindowSpec.characteristic(1.0), grid)
lat = GaborLattice(grid, a=2, b=2)  # alpha = 1/2, beta = 1, redundancy 2

print("window:      ", g.samples.real)
print("lattice:      a=%d samples (alpha=%.2f), b=%d bins (beta=%.2f)"
      % (lat.a, lat.alpha, lat.b, lat.beta))
print("redundancy:  ", lat.redundancy)

rng = np.random.default_rng(0)
f = Signal(grid, rng.standard_normal(8) + 1j * rng.standard_normal(8))

direct = frame_operator_direct(g, lat, f)
print("\ndouble-sum operator applied to random f:")
print("  S f / f =", np.round((direct.samples / f.samples).real, 12))

W = walnut_coefficients(g, lat)
print("\nmultiplier form: factor =", W.factor)
for r in signed_range(lat.b):
    print(f"  G_{r} =", W.table[r].real)

walnut = frame_operator_walnut(W, f)
print("\nmax |walnut - direct| =",
      np.max(np.abs(walnut.samples - direct.samples)))

# the multiplier picture scales: a much longer grid, same cost structure
grid = build_grid(4096, 16)
lat = GaborLattice(grid, 32, 32)
g = build_window(WindowSpec.gaussian(width=1.0), grid)
W = walnut_coefficients(g, lat)
f = Signal(grid, rng.standard_normal(4096) + 1j * rng.standard_normal(4096))

import time

t0 = time.perf_counter()
direct = frame_operator_direct(g, lat, f)
t_direct = time.perf_counter() - t0
t0 = time.perf_counter()
walnut = frame_operator_walnut(W, f)
t_walnut = time.perf_counter() - t0
rel = np.linalg.norm(walnut.samples - direct.samples) / \
    np.linalg.norm(direct.samples)
print(f"\nL=4096: direct {t_direct*1e3:.1f} ms, multiplier {t_walnut*1e3:.3f} ms,"
      f" speedup {t_direct/t_walnut:.0f}x, rel diff {rel:.2e}")
