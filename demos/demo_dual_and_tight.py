#!/usr/bin/env python3
"""Canonical dual and tight windows for a gaussian frame.

The dual window solves S gd = g (conjugate gradients on the multiplier
form); the tight window applies S^{-1/2} via a contour integral around the
spectrum.  Both are checked against dense linear algebra, and both inherit
the fast decay of the generator, which the block-norm profile makes visible.
"""

import numpy as np

from gaborwalnut import (
    GaborLattice,
    Weight,
    WindowSpec,
    amalgam_norm,
    build_grid,
    build_window,
    dual_window,
    frame_bounds,
    tight_window,
    verify_reconstruction,
)

grid = build_grid(256, 16)
lat = GaborLattice(grid, a=8, b=8)  # alpha = beta = 1/2, redundancy 4
g = build_window(WindowSpec.gaussian(width=1.0), grid)

fb = frame_bounds(g, lat, method="dense")
print(f"frame bounds: A = {fb.A:.6f}, B = {fb.B:.6f}, B/A = {fb.B/fb.A:.4f}")

gd = dual_window(g, lat, method="cg", tol=1e-12)
res = verify_reconstruction(g, gd, lat, trials=10, seed=1)
print(f"dual window:  reconstruction residual {res:.2e}")

gd_dense = dual_window(g, lat, method="dense")
print("cross-method agreement: cg vs dense %.2e" % (
    np.max(np.abs(gd.samples - gd_dense.samples)),
))

gt = tight_window(g, lat, method="contour", tol=1e-10)
fb_t = frame_bounds(gt, lat, method="dense")
print(f"tight window: bounds [{fb_t.A:.12f}, {fb_t.B:.12f}] (unit = tight)")
print(f"tight window: self-dual residual "
      f"{verify_reconstruction(gt, gt, lat, trials=10, seed=2):.2e}")

w = Weight.polynomial(2.0)
print("\nblock norms (weight (1+|n|)^2):")
for label, win in (("generator", g), ("dual", gd), ("tight", gt)):
    print(f"  {label:9s} {amalgam_norm(win, lat.a, w):10.4f}")
