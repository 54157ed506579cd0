"""End-to-end coefficient recovery from synthesized interaction data.

A coarse run (five product frequencies, one target point) that finishes in
about a second; the acceptance suite runs the full one.

Run:  python3 demos/07_recovery.py
"""

import time

from beamlab.geometry import make_chart
from beamlab.potentials import PotentialSeries, make_field
from beamlab.recon import (ReconTask, dn_moment_v3, prepare_bundle,
                           recover_vm, stationary_phase_oracle)

t0 = time.time()
chart = make_chart("flat_disk", n=3, params={"tube_radius": 0.7})
prof = make_field("trig_gaussian", amp=1.0, freq=1.5, c0=0.4, c1=1.0,
                  width=0.5, center=(0.1, 0.0))
V = PotentialSeries({3: prof})
task = ReconTask(chart=chart, V=V, m=3, truth=prof,
                 lams=(160.0, 320.0, 640.0, 1280.0), n_xi=5)
bundle = prepare_bundle(task)

print("=" * 64)
print("beam-pair interaction data vs the stationary-phase line integral")
print("=" * 64)
xi, eps = 0.8, 0.2
datum, diag = dn_moment_v3(task, bundle, eps, -xi / 4.0)
oracle = stationary_phase_oracle(task, bundle, eps, xi, kind="second")
print(f"ladder-extrapolated datum : {datum:.6f}")
print(f"independent line integral : {oracle:.6f}")
print(f"relative mismatch         : {abs(datum - oracle) / abs(oracle):.2%}")

print()
print("pointwise recovery of the cubic coefficient at the anchor")
rec = recover_vm(task)
print(f"relative error against the registered truth: {rec.rel_error():.2%}")
print(f"elapsed: {time.time() - t0:.1f} s")
rec.to_csv("/tmp/beamlab_recovered.csv")
print("wrote /tmp/beamlab_recovered.csv")
