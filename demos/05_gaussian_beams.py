"""Gaussian beam quasimodes: phase hierarchy, amplitudes, rates, assembly.

Run:  python3 demos/05_gaussian_beams.py
"""

import numpy as np

from beamlab.cgo import (assemble_cgo, build_amplitude, build_phase,
                         conjugated_defect_norm, eikonal_defect_exact,
                         quasimode_lp_norm)
from beamlab.cylinder import make_cylinder_grid
from beamlab.geometry import FermiChart, make_chart, trace_geodesic
from beamlab.jacobi import curvature_along, solve_jacobi

chart = make_chart("flat_disk", n=3, params={"tube_radius": 1.0,
                                             "margin": 0.3})
path = trace_geodesic(chart, [0.0, 0.0], [1.0, 0.0])
K = curvature_along(path)
Y = solve_jacobi(K, 0.0, [[1.0]], [[1j]], require_admissible=True)
fermi = FermiChart(path, delta_prime=1.2)

print("=" * 64)
print("eikonal defect order: higher phase order, faster vanishing")
print("=" * 64)
for N in (2, 3, 4):
    phase = build_phase(path, Y, N=N)
    ys = np.array([0.05, 0.1, 0.2, 0.4])
    ds = [abs(eikonal_defect_exact(fermi, phase, 0.25, [y])) for y in ys]
    slope = np.polyfit(np.log(ys), np.log(ds), 1)[0]
    print(f"N = {N}: offset power of the defect = {slope:.2f}")

print()
print("frequency scalings of the beam (slopes over lambda ladder)")
sigma = 1.0
lams = [20.0, 40.0, 80.0, 160.0]
phase = build_phase(path, Y, N=2, ny1=401)
amp = build_amplitude(path, phase, Y, N_amp=1)
l2 = [quasimode_lp_norm(phase, amp, complex(l, sigma), +1, chart)
      for l in lams]
dn = [conjugated_defect_norm(phase, amp, complex(l, sigma), +1, chart)
      for l in lams]
print(f"  L2 norm slope     : {np.polyfit(np.log(lams), np.log(l2), 1)[0]:+.3f}"
      f"  (contract: -(n-2)/4 = -0.25)")
print(f"  defect norm slope : {np.polyfit(np.log(lams), np.log(dn), 1)[0]:+.3f}"
      f"  (bound: 2 - N/2 - (n-2)/4 = +0.75)")

print()
print("assembly: remainder through the cylinder right inverse at lambda = 40")
grid = make_cylinder_grid(chart, nx0=96, ntrans=192)
(sol,) = assemble_cgo(path, phase, amp, 40.0, sigma, grid, signs=(+1,))
print(f"  discrete PDE residual of U = Q + R: {sol.pde_residual:.2e} (relative)")
