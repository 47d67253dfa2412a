#!/usr/bin/env python3
"""Canonical dual and tight windows for a gaussian frame.

The frame operator splits into independent Hermitian fiber blocks, so the
dual window (S gd = g) and the tight window (S^{-1/2} g) are exact blockwise
solves and eigendecompositions.  Both are checked against dense linear
algebra, next to the matrix-free paths (conjugate gradients, a contour
integral around the spectrum), and both inherit the fast decay of the
generator, which the block-norm profile makes visible.
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

gd = dual_window(g, lat)  # fiber blocks
res = verify_reconstruction(g, gd, lat, trials=10, seed=1)
print(f"dual window:  reconstruction residual {res:.2e}")

gd_dense = dual_window(g, lat, method="dense")
gd_cg = dual_window(g, lat, method="cg", tol=1e-12)
print("dual vs dense:  fiber %.2e, cg %.2e" % (
    np.max(np.abs(gd.samples - gd_dense.samples)),
    np.max(np.abs(gd_cg.samples - gd_dense.samples)),
))

gt = tight_window(g, lat)  # fiber blocks
gt_dense = tight_window(g, lat, method="dense")
gt_contour = tight_window(g, lat, method="contour", tol=1e-10)
print("tight vs dense: fiber %.2e, contour %.2e" % (
    np.max(np.abs(gt.samples - gt_dense.samples)),
    np.max(np.abs(gt_contour.samples - gt_dense.samples)),
))
fb_t = frame_bounds(gt, lat, method="dense")
print(f"tight window: bounds [{fb_t.A:.12f}, {fb_t.B:.12f}] (unit = tight)")
print(f"tight window: self-dual residual "
      f"{verify_reconstruction(gt, gt, lat, trials=10, seed=2):.2e}")

w = Weight.polynomial(2.0)
print("\nblock norms (weight (1+|n|)^2):")
for label, win in (("generator", g), ("dual", gd), ("tight", gt)):
    print(f"  {label:9s} {amalgam_norm(win, lat.a, w):10.4f}")
