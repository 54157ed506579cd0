"""The three benchmark workloads: inputs, driver calls and reference checks.

Every input is a fixed closed form; nothing here depends on a seed.  Each
workload has

* ``setup()``: construction of charts, potentials and tasks, with no call
  into a driver;
* ``run(inputs)``: the driver calls, returning what the check needs;
* ``check(result)``: ``(ok, deviation)`` against a reference the benchmark
  computes itself, with a tolerance taken from the method.

Drivers are called through their module attribute (``recon.recover_vm``), so
the wrappers that ``tracer.Tracer`` installs see the calls.
"""

from __future__ import annotations

import math

import numpy as np

from beamlab import cgo, cylinder, geometry, jacobi, recon
from beamlab.potentials import PotentialSeries, make_field

# criterion 10 of tests/test_acceptance.py
RECOVERY_TOL = 0.10

# recover_vm samples the product-variable transform at this many xi; the
# criterion uses 17.  fourier_synthesis fits three terms (constant, cos and
# sin at the registered frequency), which three xi determine, and a round
# takes about 3 s instead of 13 s
CUBIC_N_XI = 3

# build_phase samples its metric fit at this many axis points (default 321);
# the fit at each point does not depend on the count
CURVED_NY1 = 11


# ---------------------------------------------------------------------------
# closed forms evaluated by the benchmark itself
# ---------------------------------------------------------------------------

def trig_gaussian(x0, xp, amp, freq, c0, c1, s1, width, support, center):
    """``amp (c0 + c1 cos(f x0) + s1 sin(f x0)) exp(-|x'-c|^2/w^2) b(|x'-c|/s)``
    with the bump ``b(s) = exp(1 - 1/(1 - s^2))`` on ``|s| < 1``."""
    x0 = np.asarray(x0, dtype=float)
    xp = np.asarray(xp, dtype=float)
    d2 = np.sum((xp - np.asarray(center)) ** 2, axis=-1)
    s2 = d2 / support ** 2
    bump = np.where(s2 < 1.0,
                    np.exp(1.0 - 1.0 / np.clip(1.0 - s2, 1e-300, None)), 0.0)
    prof = c0 + c1 * np.cos(freq * x0) + s1 * np.sin(freq * x0)
    return amp * prof * np.exp(-d2 / width ** 2) * bump


def relative_deviation(values, reference):
    """``max |values - reference| / max |reference|``."""
    values = np.asarray(values)
    reference = np.asarray(reference)
    return float(np.max(np.abs(values - reference))
                 / np.max(np.abs(reference)))


# ---------------------------------------------------------------------------
# recover_cubic: recover_vm, m = 3, criterion 10's cubic configuration, 3 xi
# ---------------------------------------------------------------------------

CUBIC_PROFILE = dict(amp=1.0, freq=1.5, c0=0.4, c1=1.0, s1=0.0, width=0.5,
                     support=0.9, center=(0.1, 0.0))


def setup_cubic():
    chart = geometry.make_chart("flat_disk", n=3,
                                params={"tube_radius": 0.7})
    prof = make_field("trig_gaussian", **CUBIC_PROFILE)
    task = recon.ReconTask(chart=chart, V=PotentialSeries({3: prof}), m=3,
                           lams=(160.0, 320.0, 640.0, 1280.0),
                           n_xi=CUBIC_N_XI)
    return {"task": task}


def run_cubic(inputs):
    rec = recon.recover_vm(inputs["task"])
    return {"x0": rec.x0, "values": rec.values}


def check_cubic(result):
    """The recovered profile at the anchor (the origin) against the closed
    form there; criterion 10's tolerance."""
    ref = trig_gaussian(result["x0"], np.zeros(2), **CUBIC_PROFILE)
    dev = relative_deviation(result["values"], ref)
    return dev <= RECOVERY_TOL, dev


# ---------------------------------------------------------------------------
# boundary_pair: full_dn_moment_v3 on a coarse and a fine grid
# ---------------------------------------------------------------------------

# criterion 11 at half its frequency and half its grids: lambda 40 -> 20,
# disk 48x32^2 / 96x64^2 -> 24x16^2 / 48x32^2, cylinder 96x160^2 -> 48x80^2.
# Every grid keeps its nodes per wavelength (lambda h is 0.75 on the torus
# and 1.25 radially on the disk in both), and a round takes about 5.5 s and
# 0.34 GB instead of 28 s and 2.4 GB.
BOUNDARY_LAM = 20.0
BOUNDARY_CYLINDER = dict(nx0=48, ntrans=80)
BOUNDARY_GRIDS = (dict(nx0=24, nr=16, nphi=16),
                  dict(nx0=48, nr=32, nphi=32))


def setup_boundary():
    chart = geometry.make_chart("flat_disk", n=3, interval=(0.0, 0.25),
                                params={"tube_radius": 0.7, "margin": 0.3})
    prof = make_field("trig_gaussian", amp=1.0, freq=6.0, c0=0.4, c1=1.0,
                      width=0.5, support=0.9, center=(0.1, 0.0))
    task = recon.ReconTask(chart=chart, V=PotentialSeries({3: prof}), m=3,
                           delta=0.7)
    return {"task": task}


def run_boundary(inputs):
    task = inputs["task"]
    bundle = recon.prepare_bundle(task, anchor="point")
    cyl = cylinder.make_cylinder_grid(task.chart, **BOUNDARY_CYLINDER)
    values = []
    for grid in BOUNDARY_GRIDS:
        values.append(recon.full_dn_moment_v3(task, bundle, 0.2, 0.25,
                                              BOUNDARY_LAM, grid=cyl,
                                              **grid))
    (coarse, _), (fine, volume) = values
    return {"coarse": coarse, "fine": fine, "volume": volume}


def check_boundary(result):
    """Criterion 11: the boundary pairing equals the interaction (volume)
    integral up to a tolerance built from the coarse/fine difference plus a
    2% quadrature budget, and that tolerance must not exceed the value.
    The deviation is the fine-grid gap relative to the volume value."""
    coarse, fine, volume = (result["coarse"], result["fine"],
                            result["volume"])
    tol = abs(fine - coarse) / 3.0 * 1.6 + 0.02 * abs(volume)
    gap = abs(fine - volume)
    return bool(gap <= tol <= abs(volume)), float(gap / abs(volume))


# ---------------------------------------------------------------------------
# curved_beam: one Gaussian beam on the constant-curvature cap
# ---------------------------------------------------------------------------

CURVATURE = 1.0
CAP = {"cap_radius": 1.1, "tube_radius": 0.35, "curvature": CURVATURE}
CURVED_LAM = 40.0
CURVED_SIGMA = 1.0
CURVED_NORM_GRID = dict(ny1=11, nypp=7, nx0=5)
# Fermi points (y1, y'') where the pulled-back metric is sampled
FERMI_SAMPLES = ((-0.5, -0.3), (-0.2, 0.1), (0.0, 0.35), (0.3, -0.15),
                 (0.6, 0.25))
FERMI_RK4_STEPS = 32


def setup_curved():
    return {"chart": geometry.make_chart("sphere_cap", n=3, params=CAP)}


def run_curved(inputs):
    chart = inputs["chart"]
    # unit speed at the origin, where the cap metric is 4 |dx|^2
    path = geometry.trace_geodesic(chart, [0.0, 0.0], [0.5, 0.0])
    K = jacobi.curvature_along(path)
    Y = jacobi.solve_jacobi(K, 0.0, [[1.0]], [[1j]], require_admissible=True)
    phase = cgo.build_phase(path, Y, N=2, ny1=CURVED_NY1)
    amp = cgo.build_amplitude(path, phase, Y, N_amp=0)
    fermi = geometry.FermiChart(path)
    rho = complex(CURVED_LAM, CURVED_SIGMA)
    norm = cgo.quasimode_lp_norm(phase, amp, rho, +1, chart, fermi=fermi,
                                 **CURVED_NORM_GRID)
    norm_flat = cgo.quasimode_lp_norm(phase, amp, rho, +1, chart,
                                      **CURVED_NORM_GRID)
    metric = [fermi.pullback_metric(y1, np.array([ypp]))
              for y1, ypp in FERMI_SAMPLES]
    result = {"ginv_yy": phase.ginv[0][0].coeffs[(2,)],
              "gdet_yy": phase.gdet_sqrt.coeffs[(2,)],
              "metric": np.array(metric), "norm": norm,
              "norm_flat": norm_flat, "delta": amp.delta}
    return result


def fit_bias(h_fit, curvature):
    """Leading error of the y''^2 coefficient of ``metric_jet``'s fit.

    ``metric_jet`` fits a quadratic in y'' by least squares to the metric at
    y'' = k h_fit, k = -3..3.  The first neglected Taylor term of
    ``cos^2(sqrt(K) y'') = 1 - K y''^2 + K^2 y''^4 / 3 - ...`` leaks into
    the quadratic coefficient through the projection of y''^4 on the fit,
    ``P h_fit^2`` with P from the stencil, so the coefficient is off by
    ``P K^2 h_fit^2 / 3``; relative to K that is ``P K h_fit^2 / 3``.  The
    square root and the inverse of the jet carry the same relative error.
    The next term is O(K^2 h_fit^4).
    """
    y = np.arange(-3, 4) * h_fit
    design = np.stack([np.ones_like(y), y ** 2], axis=1)
    proj = np.linalg.lstsq(design, y ** 4, rcond=None)[0][1]
    return proj * curvature / 3.0


def check_curved(result, curvature=CURVATURE):
    """The Fermi metric of a surface of constant curvature K is
    ``diag(cos^2(sqrt(K) y''), 1)``: the phase's ``g^{11}`` jet has y''^2
    coefficient K and its ``sqrt(det g)`` jet -K/2.  Tolerances:

    * jet coefficients: twice the fit's leading truncation error
      (``fit_bias``), with h_fit = min(0.05, tube_radius / 6);
    * sampled metric: the global error of RK4 with 32 steps on offsets up
      to the tube radius, ``(tube_radius / 32)^4``;
    * the L2 norm with the Fermi volume element ``cos(sqrt(K) y'')`` lies
      between ``sqrt(cos(sqrt(K) delta))`` and 1 times the flat-volume norm.

    The deviation is the larger relative error of the two jet coefficients.
    """
    sk = math.sqrt(curvature)
    h_fit = min(0.05, CAP["tube_radius"] / 6.0)
    dev = max(relative_deviation(result["ginv_yy"], curvature),
              relative_deviation(result["gdet_yy"], -0.5 * curvature))
    ok = dev <= 2.0 * fit_bias(h_fit, curvature)
    ref = np.zeros((len(FERMI_SAMPLES), 2, 2))
    ref[:, 0, 0] = np.cos(sk * np.array([s[1] for s in FERMI_SAMPLES])) ** 2
    ref[:, 1, 1] = 1.0
    ok &= bool(np.max(np.abs(result["metric"] - ref))
               <= (CAP["tube_radius"] / FERMI_RK4_STEPS) ** 4)
    ratio = result["norm"] / result["norm_flat"]
    ok &= math.sqrt(math.cos(sk * result["delta"])) <= ratio <= 1.0
    return bool(ok), dev


# name: (setup, run, check, operations per round); an operation is one
# driver call, one full_dn_moment_v3 grid or, on the cap, one beam
WORKLOADS = {
    "recover_cubic": (setup_cubic, run_cubic, check_cubic, 1),
    "boundary_pair": (setup_boundary, run_boundary, check_boundary,
                      len(BOUNDARY_GRIDS)),
    "curved_beam": (setup_curved, run_curved, check_curved, 1),
}
