"""Trace geodesics on the shipped model geometries and build tube coordinates.

Run:  python3 demos/01_geodesics_and_tubes.py
"""

import numpy as np

from beamlab.geometry import FermiChart, make_chart, trace_geodesic

print("=" * 64)
print("geodesics on the shipped transversal models")
print("=" * 64)

for kind, params in [("flat_disk", {}),
                     ("sphere_cap", {"cap_radius": 1.25}),
                     ("conformal_disk", {})]:
    chart = make_chart(kind, n=3, params=params)
    x = np.array([0.1, 0.0])
    th = np.array([1.0, 0.3])
    th = th / chart.metric.norm(x, th)
    path = trace_geodesic(chart, x, th)
    print(f"{kind:16s}: exit times ({path.tau_minus:+.4f}, "
          f"{path.tau_plus:+.4f}), unit-speed defect "
          f"{path.unit_speed_defect:.2e}")

print()
print("tube (Fermi) coordinates around a sphere-cap geodesic")
chart = make_chart("sphere_cap", n=3, params={"cap_radius": 1.2})
path = trace_geodesic(chart, [0.0, 0.0], [0.5, 0.0])
fermi = FermiChart(path)
g_axis = fermi.pullback_metric(0.3, np.array([0.0]))
print("pullback metric on the axis (expect identity):")
print(np.round(g_axis, 10))
y1, ypp = fermi.inverse(fermi.forward(np.array(0.4), np.array([0.12]))[0])
print(f"round trip through the chart: (0.4, 0.12) -> "
      f"({y1:.6f}, {ypp[0]:.6f})")

path.to_csv("/tmp/beamlab_geodesic.csv")
print("wrote /tmp/beamlab_geodesic.csv")
