"""The conjugated right inverse on the extended cylinder and its decay.

Run:  python3 demos/04_cylinder_right_inverse.py
"""

import numpy as np

from beamlab.cylinder import (EigenBasis, apply_conjugated, conjugated_solve,
                              make_cylinder_grid, s_a_apply)
from beamlab.geometry import make_chart

print("=" * 64)
print("one-dimensional symbol inverses: gain halves per doubling of a")
print("=" * 64)
n, dx = 512, 0.04
x = (np.arange(n) - n / 2) * dx
h = np.exp(-x ** 2 / 4.0)
prev = None
for a in (2.0, 4.0, 8.0, 16.0):
    nrm = np.linalg.norm(s_a_apply(h, dx, a))
    note = "" if prev is None else f"  ratio {nrm / prev:.4f}"
    print(f"|a| = {a:4.0f}: ||S_a h|| = {nrm:.5f}{note}")
    prev = nrm

print()
print("conjugated solve: norm gain along a frequency ladder, with the")
print("residual of the operator applied to R on the physical rows")
chart = make_chart("flat_disk", n=3)
grid = make_cylinder_grid(chart, nx0=96, ntrans=96)
basis = EigenBasis(grid)
X0, X1, X2 = grid.mesh()
bump = np.exp(-((X0 - 0.5) ** 2) / 0.05)
inner = grid.physical_mask()
inner[:3] = inner[-3:] = False
lams, ratios = [], []
for nominal in (10.0, 20.0, 40.0, 80.0):
    idx = basis.index_near_sqrt(nominal - 1.0)
    om = basis.omega[idx]
    lam = np.sqrt(basis.eigenvalue(idx)) + 1.0
    F = bump * np.exp(1j * (om[0] * X1 + om[1] * X2))
    R, rep = conjugated_solve(F, grid, lam)
    Fw = F * grid.window[:, None, None]
    res = apply_conjugated(R, grid, lam) - Fw
    residual = np.linalg.norm(res[inner]) / np.linalg.norm(Fw[inner])
    lams.append(lam)
    ratios.append(rep.norm_ratio)
    print(f"lambda = {lam:8.3f}: ||R||/||F|| = {rep.norm_ratio:.4e}, "
          f"residual {residual:.1e}, modes {rep.modes}")
slope = np.polyfit(np.log(lams), np.log(ratios), 1)[0]
print(f"log-log slope: {slope:+.3f}  (contract: -1)")
