#!/usr/bin/env python3
"""The mixed-bracket convolution identity and its norm estimate.

Brackets of the dual against translates of the generator satisfy an exact
convolution identity on the cyclic grid.  We evaluate both sides point by
point for every time offset, then corrupt the dual to show the identity
really does fail for anything but the canonical dual.  The matching norm
estimate bounds the weighted series of mixed brackets by the product of the
pure ones.
"""

import numpy as np

from gaborwalnut import (
    GaborLattice,
    Weight,
    WindowSpec,
    analysis,
    build_grid,
    build_window,
    convo_identity_residual,
    dual_window,
    estimate_convest,
    mixed_bracket,
)

grid = build_grid(256, 16)
lat = GaborLattice(grid, 8, 8)
g = build_window(WindowSpec.gaussian(width=1.0), grid)
gd = dual_window(g, lat, tol=1e-12)

res = convo_identity_residual(g, gd, lat)
print(f"identity residual with the canonical dual: {res.max_abs_error:.2e} "
      f"(worst at k={res.worst_k}, x={res.worst_x})")

res_bad = convo_identity_residual(g, g, lat)
print(f"identity residual with gd := g (control):  {res_bad.max_abs_error:.2e}")

w = Weight.polynomial(1.0)
lhs, rhs = estimate_convest(g, gd, lat, w)
print(f"\nnorm estimate: lhs = {lhs:.6f} <= rhs = {rhs:.6f} "
      f"(slack {rhs - lhs:.4f})")

# Fourier coefficients of the scaled mixed bracket are Gabor coefficients
coeffs = analysis(g, lat, gd).values
k = 1
mk = mixed_bracket(g, gd, lat, k)
mk_hat = np.fft.fft(mk.values) / lat.M
print(f"\nmixed bracket at k={k}: Fourier coefficients vs Gabor coefficients "
      f"agree to {np.max(np.abs(mk_hat - coeffs[:, k])):.2e}")
