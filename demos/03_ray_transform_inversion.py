"""Forward weighted ray transforms and the three local inversion routes.

Run:  python3 demos/03_ray_transform_inversion.py
"""

import numpy as np

from beamlab.geometry import make_chart, trace_geodesic
from beamlab.jacobi import curvature_along, epsilon_family, real_pair
from beamlab.raytransform import (GeodesicSample, forward_curve,
                                  invert_j1_moments, invert_j1_point_split,
                                  invert_j2_point, j1_forward, j2_forward)

print("=" * 64)
print("second-kind route (any rank): point value at the anchor")
print("=" * 64)
chart = make_chart("sphere_cap", n=3, params={"cap_radius": 1.25})
path = trace_geodesic(chart, [0.0, 0.0], [0.5, 0.0])
K = curvature_along(path)
pair = real_pair(K, "point")
f = GeodesicSample.from_time_function(path,
                                      lambda t: 1.0 + 0.4 * np.sin(1.3 * t + 0.4))
truth = 1.0 + 0.4 * np.sin(0.4)
oracle = lambda e: j2_forward(f, epsilon_family(K, e, pair=pair))
rep = invert_j2_point(oracle, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], zeta=0.4, n=3)
print(f"f(p) = {truth:.6f}, estimate = {rep.estimate.real:.6f} "
      f"(reported bound {rep.error_bound:.2e})")

print()
print("first-kind conjugate-split route (even offset rank)")
chart4 = make_chart("flat_disk", n=4)
path4 = trace_geodesic(chart4, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
K4 = curvature_along(path4)
pair4 = real_pair(K4, "point")
f4 = GeodesicSample.from_time_function(path4, lambda t: 1.0 + t * t)
orc4 = lambda e: j1_forward(f4, epsilon_family(K4, e, pair=pair4))
rep4 = invert_j1_point_split(orc4, [0.18, 0.12, 0.08, 0.05, 0.03, 0.02,
                                    0.012, 0.008, 0.005, 0.003, 0.002, 0.001])
print(f"f(p) = 1, estimate = {rep4.estimate:.6f} "
      f"(bias slope {rep4.diagnostics['bias_slope']:+.3f})")

print()
print("first-kind moment route (scalar offset rank): profile along the ray")
chart3 = make_chart("flat_disk", n=3)
path3 = trace_geodesic(chart3, [0.0, 0.0], [1.0, 0.0], margin=1.0)
K3 = curvature_along(path3)
X, Z = real_pair(K3, "entry")
f3 = GeodesicSample.from_time_function(path3, lambda t: np.exp(-t * t))
orc3 = lambda e: j1_forward(f3, epsilon_family(K3, e, anchor="entry",
                                               pair=(X, Z)))
rec, diag = invert_j1_moments(orc3, X, Z,
                              (path3.tau_minus, path3.tau_plus), K_max=8)
truth3 = np.exp(-rec.t ** 2)
rel = np.linalg.norm(rec.values - truth3) / np.linalg.norm(truth3)
print(f"relative L2 error along the ray: {rel:.4f} "
      f"(moment design condition {diag['condition']:.2e})")

curve = forward_curve(f, lambda e: epsilon_family(K, e, pair=pair),
                      [0.3, 0.1, 0.03, 0.01], kind="second")
curve.to_csv("/tmp/beamlab_transform.csv")
print("wrote /tmp/beamlab_transform.csv")
