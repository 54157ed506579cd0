"""End-to-end recovery of nonlinearity coefficients from beam interactions.

The driver reduces (real or synthesized) boundary measurements to weighted
ray-transform data: products of exponential solutions concentrate on a tube
around a geodesic, the large-frequency limit collapses the volume integral to
a line integral against ``|det Y|^{-1}`` (three-or-more-fold interactions) or
``(det Y)^{-1/2}`` (two-fold interactions at doubled frequency), and the
local transform inversions plus a trigonometric fit in the product variable
produce the coefficient.  Limits are taken in a fixed order: frequency ladder
first (fit a + b / sqrt(lambda), plus c / lambda from four rungs), then the
family parameter, then the window, each as weights applied row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cgo import (TubeBeam, assemble_cgo, build_amplitude, build_phase,
                  tube_grid)
from .errors import ModeMismatch
from .geometry import FermiChart, trace_geodesic
from .jacobi import curvature_along, epsilon_family, real_pair, riccati_path
from .raytransform import (GeodesicSample, _apply, _fit, _simpson_weights,
                           invert_j1_moments, invert_j2_point, j1_forward,
                           j2_forward)

__all__ = [
    "ReconTask", "BeamBundle", "RecoveredPotential",
    "prepare_bundle", "dn_moment_v3", "dn_moment_v2", "lambda_extrapolate",
    "recover_vm", "recover_v2", "stationary_phase_oracle",
    "fourier_synthesis", "full_dn_moment_v3",
]


# ---------------------------------------------------------------------------
# task and geometry bundles
# ---------------------------------------------------------------------------

@dataclass
class ReconTask:
    chart: object
    V: object                        # PotentialSeries with known lower orders
    m: int
    point: object = None             # transversal anchor (defaults to origin)
    theta: object = None
    lams: tuple = (80.0, 160.0, 320.0, 640.0)
    lam_eps_ref: float = 0.4       # ladder rescales like max(1, ref/eps)
    sigma0: float = 8.0
    n_xi: int = 17
    eps_grid: tuple = (0.2, 0.1, 0.05, 0.025, 0.012)
    zeta: float = 0.4
    N: int = 2
    delta: float = None
    margin: float = None
    basis_freqs: tuple = (1.5,)
    truth: object = None             # optional callable for diagnostics

    def xi_grid(self):
        half = self.sigma0 / 4.0
        return np.linspace(-half, half, self.n_xi)


@dataclass
class BeamBundle:
    """Traced geodesic with curvature and family data for one target point;
    memoizes the beams built on it and their cylinder completions."""

    chart: object
    path: object
    K: object
    pair: tuple
    anchor: str = "point"
    _beams: dict = field(default_factory=dict)
    _cgo: dict = field(default_factory=dict)

    @classmethod
    def build(cls, chart, point=None, theta=None, margin=None,
              anchor="point"):
        d = chart.trans_dim
        point = np.zeros(d) if point is None else np.asarray(point, float)
        theta = (np.eye(d)[0] if theta is None
                 else np.asarray(theta, dtype=float))
        theta = theta / chart.metric.norm(point, theta)
        path = trace_geodesic(chart, point, theta, h=2e-3, margin=margin)
        K = curvature_along(path)
        pair = real_pair(K, anchor)
        return cls(chart=chart, path=path, K=K, pair=pair, anchor=anchor)

    def family(self, eps):
        return epsilon_family(self.K, eps, anchor=self.anchor, pair=self.pair)

    def beam(self, eps, N, delta=None, n_amp=0, V1=None):
        """Phase and amplitude jets for one family parameter, memoized."""
        # keyed on V1 itself: the entry keeps it alive, so its identity
        # cannot pass to a new object while the entry exists
        key = (round(float(eps), 14), N, delta, n_amp, V1)
        if key not in self._beams:
            Y = self.family(eps)
            phase = build_phase(self.path, Y, N=N)
            amp = build_amplitude(self.path, phase, Y, V1=V1,
                                  N_amp=n_amp, delta=delta)
            self._beams[key] = (Y, phase, amp)
        return self._beams[key]

    def cgo_pair(self, eps, N, delta, lam, sigma, grid):
        """The +lambda and -lambda solutions of ``beam(eps, N, delta,
        n_amp=1)`` completed on a cylinder grid in one ``assemble_cgo``
        call, memoized."""
        # keyed on id(grid): the entry keeps the grid alive, so its identity
        # cannot pass to a new object while the entry exists
        key = (round(float(eps), 14), N, delta, float(lam), float(sigma),
               id(grid))
        if key not in self._cgo:
            _, phase, amp = self.beam(eps, N, delta, n_amp=1)
            self._cgo[key] = (grid, assemble_cgo(self.path, phase, amp, lam,
                                                 sigma, grid))
        return self._cgo[key][1]


def prepare_bundle(task, anchor="point"):
    margin = task.margin
    if anchor == "entry" and margin is None:
        # retracted anchor conditions the moment route
        margin = 0.5 * (task.chart.radius * 2.0)
    return BeamBundle.build(task.chart, task.point, task.theta, margin=margin,
                            anchor=anchor)


# ---------------------------------------------------------------------------
# tube quadrature of interaction integrals
# ---------------------------------------------------------------------------

def _beam_width(phase, amp, lam, ny1):
    """Tube half-width at ``ny1`` axis samples,
    ``6 / sqrt(4 lam min eig Im H)`` capped at the cutoff radius."""
    y1 = np.linspace(phase.y1[0], phase.y1[-1], ny1)
    imH = np.min(np.linalg.eigvalsh(
        (phase.H - np.conj(np.swapaxes(phase.H, 1, 2))) / 2j), axis=-1)
    imH_s = np.interp(y1, phase.y1, np.maximum(imH, 1e-8))
    return np.minimum(6.0 / np.sqrt(4.0 * lam * imH_s), amp.delta)


# tube quadrature: Simpson nodes over the interval (odd), axis samples, and
# samples per offset axis
TUBE_NX0, TUBE_NY1, TUBE_NS = 49, 161, 41


def tube_interaction(bundle, field_fn, phase, amp, factor_sets, lam, sigmas):
    """lambda^{d/2} * integral of field * prod_k q_k^{p_k} over I x tube, for
    every sigma in ``sigmas`` and every factor set: an (n_sigma, n_sets) array.

    A factor set holds one ``(c, sign, power)`` per factor ``q_k``: the beam
    ``(phase, amp)`` of that sign at ``c rho``, ``rho = lam + i sigma``, growth
    removed.  A principal-part beam at ``c rho`` is ``e^{i c sigma x0}`` times
    its value at ``c lam`` times ``e^{-c sigma theta_s}`` (``theta_+ = theta``,
    ``theta_- = conj theta``).  So the tube (Fermi map, beam width, jets) is
    built once for all sigma, the beams are evaluated at real frequencies and
    x0 = 0, and the field is transformed in x0 for every sigma in one matrix
    product (Simpson weights times ``e^{i s sigma x0}``, ``s = sum_k p_k
    c_k``).  Subprincipal (x0, axis) grids raise ``ModeMismatch``.
    """
    if amp.v1_plus is not None:
        raise ModeMismatch(
            "the tube interaction integrates principal-part beams; the "
            "amplitude carries subprincipal (x0, axis) grids (n_amp >= 1)")
    chart = bundle.chart
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    x0 = np.linspace(*chart.interval, TUBE_NX0)
    wx0 = _simpson_weights(TUBE_NX0, x0[1] - x0[0])
    width = _beam_width(phase, amp, lam, TUBE_NY1)
    y1, T, ypp, wgt = tube_grid(phase, width, TUBE_NY1, TUBE_NS)
    pts, vol = FermiChart(bundle.path).forward(T, ypp)
    # coefficients live on the manifold and extend by zero past the chart
    fv = field_fn(x0[:, None, None], pts[None]).reshape(TUBE_NX0, -1)
    meas = (chart.inside(pts) * vol * wgt[:, None]).ravel()
    beam = TubeBeam(phase, amp, T, ypp)
    theta = beam.theta.ravel()
    out = np.empty((len(sigmas), len(factor_sets)), dtype=complex)
    for j, factors in enumerate(factor_sets):
        A, B = meas, 0.0
        for c, sign, power in factors:
            q = beam.value(0.0, c * lam, sign)
            A = A * q.ravel() ** power
            B = B - power * c * (theta if sign > 0 else np.conj(theta))
        s = sum(c * power for c, _, power in factors)
        w = wx0 * np.exp(1j * s * sigmas[:, None] * x0)
        # a complex weight matrix would promote the whole field to complex
        fhat = w.real @ fv + 1j * (w.imag @ fv)
        out[:, j] = np.sum(fhat * A * np.exp(sigmas[:, None] * B), axis=1)
    d = chart.trans_dim - 1
    return lam ** (d / 2.0) * out * (y1[1] - y1[0])


def lambda_extrapolate(lams, values):
    """Fit a + b / sqrt(lambda) (+ c / lambda with four or more rungs)
    and return (a, residual).  The square-root term is the worst-case
    transversal-moment correction; the next order often dominates when the
    odd moments cancel.  ``values`` has one row per rung; with more axes,
    each column is fitted on its own and ``a`` and the residual are arrays
    over the columns.  Two rungs interpolate: the residual is inf.  Raises
    ``InvalidArgument`` with fewer rungs than terms."""
    lams = np.asarray(lams, dtype=float)
    cols = [np.ones_like(lams), lams ** -0.5]
    if len(lams) >= 4:
        cols.append(lams ** -1.0)
    coef, resid = _fit(np.column_stack(cols), np.asarray(values, complex))
    return coef[0][()], resid[()]


def _calibration(bundle, Y, eps):
    """(2/pi)^{d/2} sqrt(c) and the anchor scale |det Y(tau0)| / eps^d."""
    d = bundle.chart.trans_dim - 1
    H = riccati_path(Y)
    c = H.constant()
    det0 = abs(np.linalg.det(Y.at(Y.tau0)))
    s = det0 / eps ** d
    return (2.0 / math.pi) ** (d / 2.0) * math.sqrt(c), s


# ---------------------------------------------------------------------------
# moment data
# ---------------------------------------------------------------------------

def _ladder(task, bundle, eps, field_fn, factor_sets, sigma, lams):
    """Rung values of ``factor_sets`` at ``eps`` over ``lams`` (one row per
    set, then the shape of ``sigma``), their calibrated limit, the fit
    residual and the anchor scale."""
    lams = task.lams if lams is None else lams
    Y, phase, amp = bundle.beam(eps, task.N, task.delta)
    vals = [tube_interaction(bundle, field_fn, phase, amp, factor_sets, lam,
                             sigma).T.reshape((-1,) + np.shape(sigma))
            for lam in lams]
    limit, resid = lambda_extrapolate(lams, vals)
    cal, s = _calibration(bundle, Y, eps)
    return vals, limit * cal, resid, s


def dn_moment_v3(task, bundle, eps, sigma, field_fn=None, lams=None):
    """Frequency-ladder interaction data for an (m >= 3)-fold family.

    Synthetic mode: evaluates the tube integral of ``field * (q+ q-)^2`` at
    each ladder rung for every ``sigma`` (a scalar or a 1-D array) and
    returns the calibrated transform datum of the extrapolated limit, one
    per sigma.
    """
    if field_fn is None:
        field_fn = task.V.coeff(task.m)
    vals, limit, resid, s = _ladder(task, bundle, eps, field_fn,
                                    [[(1.0, +1, 2), (1.0, -1, 2)]], sigma,
                                    lams)
    return limit[0] * s, {"ladder": [v[0] for v in vals],
                          "fit_residual": resid[0], "eps": eps,
                          "sigma": sigma}


def dn_moment_v2(task, bundle, eps, sigma, lams=None):
    """Two-fold interaction data at doubled frequency, both pairings, for
    every ``sigma`` (a scalar or a 1-D array).

    Returns the calibrated first-kind transform values (S1, S2), one per
    sigma: S1 pairs (f+, f+) against the doubled minus solution, S2 the
    conjugates.
    """
    pairings = [[(1.0, +1, 2), (2.0, -1, 1)], [(1.0, -1, 2), (2.0, +1, 1)]]
    _, (s1, s2), resid, _ = _ladder(task, bundle, eps, task.V.coeff(2),
                                    pairings, sigma, lams)
    return s1, s2, {"fit_residuals": tuple(resid), "eps": eps}


def stationary_phase_oracle(task, bundle, eps, xi, kind="second"):
    """The limiting line integral ``int e^{xi t} F[field](xi, gamma(t)) w(t)
    dt`` (no beams involved): F the product-variable transform by Simpson
    quadrature over the interval, the line integral ``j2_forward``
    (``kind="second"``, w = ``|det Y|^{-1}``) or ``j1_forward`` (w the branch
    of ``(det Y)^{-1/2}``) on the family at ``eps``."""
    x0 = np.linspace(*bundle.chart.interval, 201)
    wx0 = _simpson_weights(len(x0), x0[1] - x0[0]) * np.exp(-1j * xi * x0)
    fn, path = task.V.coeff(task.m), bundle.path
    f = GeodesicSample.from_time_function(path, lambda t: np.exp(xi * t) * (
        wx0 @ fn(x0[:, None], path.point(t)[None])))
    fwd = j2_forward if kind == "second" else j1_forward
    return fwd(f, bundle.family(eps))


# ---------------------------------------------------------------------------
# recovery drivers
# ---------------------------------------------------------------------------

@dataclass
class RecoveredPotential:
    """Recovered coefficient V_m over the product variable ``x0`` and the
    geodesic parameter ``t``; ``values`` has shape ``x0.shape + shape(t)``.

    The second-kind route (m >= 3) recovers V_m at the anchor, t = 0; the
    moment route (m = 2) along the geodesic, with ``interior`` masking the
    ``t`` away from the window ends and ``err_est`` nan (no per-xi bound).
    """
    m: int
    x0: np.ndarray
    values: np.ndarray
    xi: np.ndarray
    xi_data: np.ndarray
    err_est: np.ndarray
    truth: np.ndarray | None = None
    t: float | np.ndarray = 0.0
    interior: np.ndarray | None = None

    def rel_error(self, interior=False):
        """max |values - truth| / max |truth|, the max taken over the
        ``interior`` columns only if asked; the scale is the whole field's."""
        if self.truth is None:
            return None
        scale = np.max(np.abs(self.truth))
        err = np.abs(self.values - self.truth)
        if interior and self.interior is not None:
            err = err[..., self.interior]
        return float(np.max(err) / scale)

    def to_csv(self, fname):
        """One row per (t, x0), t-major; ``err_est`` is the mean over xi."""
        nx0, nt = len(self.x0), np.size(self.t)
        truth = (np.full(self.values.shape, complex(np.nan, np.nan))
                 if self.truth is None else self.truth)
        vals, truth = (np.reshape(a, (nx0, nt)).T.ravel()
                       for a in (self.values, truth))
        rows = np.column_stack([
            np.tile(self.x0, nt), np.repeat(np.ravel(self.t), nx0),
            np.full(nx0 * nt, self.m), vals.real, vals.imag,
            np.full(nx0 * nt, np.mean(self.err_est)),
            np.real(truth), np.imag(truth)])
        np.savetxt(fname, rows, delimiter=",", comments="", fmt="%.10g",
                   header="x0,t,m,Vm_re,Vm_im,err_est,truth_re,truth_im")


def fourier_synthesis(task, xi, data):
    """Least-squares trigonometric fit of the product-variable profile.

    The model spans the constant plus sin/cos at the registered frequencies;
    the design is the windowed transform of each basis function.  ``data``
    has one row per xi; trailing axes are columns sharing the fit's weights,
    and the profile's values are ``(97,)`` followed by the column shape.
    """
    a0, b0 = task.chart.interval
    x0g = np.linspace(a0, b0, 97)
    fine = np.linspace(a0, b0, 801)
    wq = _simpson_weights(len(fine), fine[1] - fine[0])

    def basis(x):
        # columns 1, cos(nu x), sin(nu x), one pair per frequency nu
        arg = np.outer(x, task.basis_freqs)
        trig = np.stack([np.cos(arg), np.sin(arg)], axis=-1)
        return np.column_stack([np.ones_like(x), trig.reshape(len(x), -1)])

    D = (wq * np.exp(-1j * np.outer(xi, fine))) @ basis(fine)
    lam = 1e-10 * np.trace(np.real(D.conj().T @ D)) / D.shape[1]
    lhs = D.conj().T @ D + lam * np.eye(D.shape[1])
    coef = _apply(np.linalg.solve(lhs, D.conj().T), data)
    return x0g, _apply(basis(x0g), coef), coef


def _check_order(task):
    """Raise unless the second-kind interaction of order ``task.m`` exists:
    m >= 3, and for m > 3 its m - 3 surplus factors are the normalizer
    u = 1, which solves the linearized equation only when V1 = 0."""
    if task.m < 3:
        raise ModeMismatch("the second-kind route needs m >= 3")
    if task.m > 3 and 1 in task.V.coeffs:
        raise ModeMismatch(
            f"m = {task.m} pairs the interaction with the normalizer u = 1, "
            "which solves the linearized equation only when V1 = 0; the "
            "series has a V1 term")


def _row_oracle(eps_grid, table):
    """The oracle ``eps_grid[i] -> table[i]`` of an (eps, ...) table, for
    the inversions, which ask for the rows by family parameter."""
    eps_grid = list(eps_grid)
    return lambda e: table[eps_grid.index(e)]


def recover_vm(task):
    """Pointwise recovery of the m-th coefficient at the bundle anchor
    (m >= 3), second-kind route; ``_check_order`` runs before any beam is
    built.  The (eps, xi) table goes through one limit and one synthesis."""
    _check_order(task)
    bundle = prepare_bundle(task, anchor="point")
    xi = task.xi_grid()
    table = np.stack([
        dn_moment_v3(task, bundle, eps, -xi / 4.0,
                     lams=tuple(l * max(1.0, task.lam_eps_ref / eps)
                                for l in task.lams))[0]
        for eps in task.eps_grid])
    rep = invert_j2_point(_row_oracle(task.eps_grid, table), task.eps_grid,
                          zeta=task.zeta, n=task.chart.n)
    x0g, vals, _ = fourier_synthesis(task, xi, rep.estimate)
    truth = None
    if task.truth is not None:
        p = np.zeros(task.chart.trans_dim) if task.point is None \
            else np.asarray(task.point, dtype=float)
        truth = np.asarray(task.truth(x0g, p[None, :]), dtype=complex)
    return RecoveredPotential(m=task.m, x0=x0g, values=vals, xi=xi,
                              xi_data=rep.estimate, err_est=rep.error_bound,
                              truth=truth)


def recover_v2(task):
    """Recovery of the quadratic coefficient along the geodesic (n = 3:
    moment route on the conjugate-split first-kind data), one column of
    ``values`` per geodesic parameter ``t``.  The (eps, xi, split) table
    goes through one moment inversion and one synthesis."""
    if task.chart.n != 3:
        raise ModeMismatch("the moment route runs on a scalar offset rank")
    bundle = prepare_bundle(task, anchor="entry")
    X, Z = bundle.pair
    window = (bundle.path.tau_minus, bundle.path.tau_plus)
    tt = np.linspace(window[0], window[1], 4001)
    Xt = (Z.at(tt)[:, 0, 0] / X.at(tt)[:, 0, 0]).real
    xt_max = float(np.max(Xt))
    K_max = 8
    eps_grid = np.linspace(0.08, 0.9, 3 * (K_max + 1)) / xt_max

    xi = task.xi_grid()
    # continuous scaling keeps lambda * eps constant, so the ladder bias
    # varies smoothly in eps and the moment fit absorbs it; (eps, pairing, xi)
    table = np.array([
        dn_moment_v2(task, bundle, float(eps), -xi / 4.0,
                     lams=tuple(l * (task.lam_eps_ref / eps)
                                for l in task.lams))[:2]
        for eps in eps_grid])
    s1, s2 = table[:, 0], np.conj(table[:, 1])
    split = np.stack([0.5 * (s1 + s2), (s1 - s2) / 2j], axis=-1)
    f, _ = invert_j1_moments(_row_oracle(eps_grid, split), X, Z, window,
                             K_max=K_max, eps_grid=eps_grid)
    t_out = f.t
    vals = ((f.values[..., 0] + 1j * f.values[..., 1]).T
            * np.exp(-np.outer(xi, t_out)))
    # real coefficients carry conjugate symmetry across the frequency grid
    vals = 0.5 * (vals + np.conj(vals[::-1]))
    x0g, field, _ = fourier_synthesis(task, xi, vals)
    truth = None
    if task.truth is not None:
        pts = bundle.path.point(t_out)
        truth = np.asarray(task.truth(x0g[:, None], pts[None]), dtype=complex)
    # t_out has a node on each half-window: a relative slack keeps both in
    # whatever the last bit of the exit times
    half = 0.5 * max(abs(window[0]), abs(window[1]))
    interior = np.abs(t_out) <= half * (1.0 + 1e-9)
    return RecoveredPotential(m=2, x0=x0g, values=field, xi=xi, xi_data=vals,
                              err_est=np.full(len(xi), np.nan), truth=truth,
                              t=t_out, interior=interior)


# ---------------------------------------------------------------------------
# boundary-data route and its cross-check
# ---------------------------------------------------------------------------

def _check_sampling(name, axis, h, k, lam):
    """Raise unless wavenumber ``k`` is sampled below Nyquist (k h < pi)."""
    if k * h >= math.pi:
        src = "" if k == lam else " (2 lambda, both +lambda factors)"
        raise ModeMismatch(
            f"lambda {lam:g} aliases on the {name} grid: wavenumber {k:g}"
            f"{src} times {axis} spacing {h:.4g} is {k * h:.3g}; the limit "
            f"k*h < pi needs spacing < {math.pi / k:.4g}")


def full_dn_moment_v3(task, bundle, eps, sigma, lam, grid, nx0=96, nr=32,
                      nphi=64):
    """Interaction datum through the discrete boundary map at one rung.

    Takes the beam pair completed on the cylinder ``grid`` (a
    ``make_cylinder_grid`` grid; the bundle completes each pair once per
    grid) and runs ``direct_hierarchy_solve`` on the disk grid: data
    ``[g+, g+, g-]`` on solvers at ``(lam, lam, -lam)``, so every field
    carries its exponential growth analytically, and for m > 3 the unit
    datum ``m - 3`` times (at lam = 0), the normalizer of ``recover_vm``,
    whose order checks it shares; its solution is the unit field, so it
    takes no solve.  Each coefficient field is evaluated once on the disk
    grid.  It pairs the cascade with the ``g-`` solution, subtracts the
    companion term and scales like the synthetic route.  Returns
    ``(value, synthetic)``, the boundary datum and the volume integral of
    the same discrete beams.

    Raises ``ModeMismatch`` before any beam is built when the series has a
    V1 term, which the cylinder beams do not solve with, or when a field
    would alias: the highest wavenumber k (lam, or 2 lam when a V_k with
    2 <= k < m is nonzero on the disk grid) must satisfy k h < pi with h the
    torus spacing on the cylinder and the radial spacing on the disk.
    """
    from .pde import (SchrodingerSolver, direct_hierarchy_solve,
                      disk_cylinder_domain, greens_pairing)

    _check_order(task)
    if 1 in task.V.coeffs:
        raise ModeMismatch("the boundary route's cylinder beams solve the "
                           "equation without V1; the series has a V1 term")
    chart = task.chart
    if not chart.metric.is_flat:
        raise ModeMismatch("the boundary route is implemented on flat charts")
    dom = disk_cylinder_domain(chart, nx0, nr, nphi)
    x0g, xpg = dom.points()
    # each field once on the disk grid: the sampling guard, the cascade and
    # the volume integral share it
    fields = {k: np.asarray(task.V.eval_k(k, x0g, xpg))
              for k in range(2, task.m + 1)
              if k in task.V.coeffs or k == task.m}
    # Nyquist: the beams carry wavenumber lam on both grids; a lower-order
    # source with both +lam factors feeds a 2 lam solve on the disk grid
    lower = any(np.any(f) for k, f in fields.items() if k < task.m)
    _check_sampling("disk", "radial", chart.radius / nr,
                    2 * lam if lower else lam, lam)
    _check_sampling("cylinder", "torus", grid.dtrans, lam, lam)
    d = chart.trans_dim - 1
    gp, gm = bundle.cgo_pair(eps, task.N, task.delta, lam, sigma, grid)

    sol_plus = SchrodingerSolver(dom, lam=+lam)
    L, H, w = direct_hierarchy_solve([sol_plus, sol_plus, sol_plus.mirror()],
                                     fields, [gp, gp, gm], units=task.m - 3)
    boundary, companion, _ = greens_pairing(dom, w[frozenset([2])], gm, L, H)
    value = lam ** (d / 2.0) * (boundary - companion)

    # volume route evaluated with the interpolated beam fields themselves,
    # so the comparison spans the whole discrete chain
    volume = complex(np.sum(dom.quad * fields[task.m]
                            * (gp(x0g, xpg) * gm(x0g, xpg)) ** 2))
    synthetic = lam ** (d / 2.0) * volume
    return value, synthetic

