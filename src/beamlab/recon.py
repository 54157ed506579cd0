"""End-to-end recovery of nonlinearity coefficients from beam interactions.

The driver reduces (real or synthesized) boundary measurements to weighted
ray-transform data: products of exponential solutions concentrate on a tube
around a geodesic, the large-frequency limit collapses the volume integral to
a line integral against ``|det Y|^{-1}`` (three-or-more-fold interactions) or
``(det Y)^{-1/2}`` (two-fold interactions at doubled frequency), and the
local transform inversions plus a trigonometric fit in the product variable
produce the coefficient.  Limits are taken in a fixed order: frequency ladder
first (fit a + b / sqrt(lambda)), then the family parameter, then the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .cgo import build_amplitude, build_phase, quasimode_eval, tube_grid
from .errors import ModeMismatch
from .geometry import FermiChart, trace_geodesic
from .jacobi import curvature_along, epsilon_family, real_pair, riccati_path
from .raytransform import _simpson_weights, invert_j1_moments, invert_j2_point

__all__ = [
    "ReconTask", "BeamBundle", "RecoveredPotential",
    "prepare_bundle", "dn_moment_v3", "dn_moment_v2", "lambda_extrapolate",
    "recover_vm", "recover_v2", "stationary_phase_oracle",
    "fourier_synthesis", "full_dn_moment_v3", "sensitivity_report",
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
    assume_real: bool = True         # enforce conjugate symmetry across xi
    truth: object = None             # optional callable for diagnostics

    def xi_grid(self):
        half = self.sigma0 / 4.0
        return np.linspace(-half, half, self.n_xi)


@dataclass
class BeamBundle:
    """Traced geodesic with curvature and family data for one target point."""

    chart: object
    path: object
    K: object
    pair: tuple
    anchor: str = "point"
    _beams: dict = field(default_factory=dict)

    @classmethod
    def build(cls, chart, point=None, theta=None, h=2e-3, margin=None,
              anchor="point"):
        d = chart.trans_dim
        point = np.zeros(d) if point is None else np.asarray(point, float)
        theta = (np.eye(d)[0] if theta is None
                 else np.asarray(theta, dtype=float))
        theta = theta / chart.metric.norm(point, theta)
        path = trace_geodesic(chart, point, theta, h=h, margin=margin)
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


def tube_interaction(bundle, field_fn, phases, amps, rhos, signs, powers,
                     lam_scale, nx0=49, ny1=161, ns=41):
    """lambda^{d/2} * integral of field * prod_k q_k^{p_k} over I x tube.

    ``q_k`` are beam factors (growth removed), evaluated from shared tube
    grids; the x0 integral runs over the interval with Simpson weights.  The
    tube grid is mapped to the chart and weighted by the Fermi chart of the
    bundle's geodesic.
    """
    chart = bundle.chart
    a0, b0 = chart.interval
    if nx0 % 2 == 0:
        nx0 += 1
    x0 = np.linspace(a0, b0, nx0)
    wx0 = _simpson_weights(nx0, x0[1] - x0[0])
    width = _beam_width(phases[0], amps[0], lam_scale, ny1)
    y1, T, ypp, wgt = tube_grid(phases[0], width, ny1, ns)
    fermi = FermiChart(bundle.path)
    pts = fermi.forward(T, ypp)
    dy1 = y1[1] - y1[0]

    prod = None
    for phase, amp, rho, sign, power in zip(phases, amps, rhos, signs, powers):
        q = quasimode_eval(phase, amp, rho, sign, x0[:, None, None],
                           T[None], ypp[None])
        term = q ** power
        prod = term if prod is None else prod * term
    fv = field_fn(x0[:, None, None], pts[None])
    # coefficients live on the manifold and extend by zero past the chart
    fv = fv * chart.inside(pts)[None]
    integrand = fv * prod
    val = np.einsum("i,ijk->jk", wx0, integrand)
    val = np.sum(val * (fermi.volume(T, ypp) * wgt[:, None])) * dy1
    d = bundle.chart.trans_dim - 1
    return complex(lam_scale ** (d / 2.0) * val)


def lambda_extrapolate(lams, values):
    """Fit a + b / sqrt(lambda) (+ c / lambda with four or more rungs)
    and return (a, residual).  The square-root term is the worst-case
    transversal-moment correction; the next order often dominates when the
    odd moments cancel."""
    lams = np.asarray(lams, dtype=float)
    vals = np.asarray(values, dtype=complex)
    cols = [np.ones_like(lams), lams ** -0.5]
    if len(lams) >= 4:
        cols.append(lams ** -1.0)
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    resid = float(np.max(np.abs(A @ coef - vals)))
    return complex(coef[0]), resid


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

def dn_moment_v3(task, bundle, eps, sigma, field_fn=None, lams=None):
    """Frequency-ladder interaction data for an (m >= 3)-fold family.

    Synthetic mode: evaluates the tube integral of
    ``field * (q+ q-)^2`` at each ladder rung and returns the extrapolated
    limit together with the calibrated transform datum.
    """
    lams = task.lams if lams is None else lams
    Y, phase, amp = bundle.beam(eps, task.N, task.delta)
    if field_fn is None:
        field_fn = task.V.coeff(task.m)
    vals = []
    for lam in lams:
        rho = complex(lam, sigma)
        vals.append(tube_interaction(
            bundle, field_fn, [phase, phase], [amp, amp], [rho, rho],
            [+1, -1], [2, 2], lam))
    limit, resid = lambda_extrapolate(lams, vals)
    cal, s = _calibration(bundle, Y, eps)
    datum = limit * cal * s
    return datum, {"ladder": vals, "fit_residual": resid, "eps": eps,
                   "sigma": sigma}


def dn_moment_v2(task, bundle, eps, sigma, lams=None):
    """Two-fold interaction data at doubled frequency, both pairings.

    Returns the calibrated first-kind transform values (S1, S2):
    S1 pairs (f+, f+) against the doubled minus solution, S2 the conjugates.
    """
    lams = task.lams if lams is None else lams
    Y, phase, amp = bundle.beam(eps, task.N, task.delta, 0, None)
    V2 = task.V.coeff(2)
    s1_vals, s2_vals = [], []
    for lam in lams:
        rho = complex(lam, sigma)
        s1_vals.append(tube_interaction(
            bundle, V2, [phase, phase], [amp, amp], [rho, 2 * rho],
            [+1, -1], [2, 1], lam))
        s2_vals.append(tube_interaction(
            bundle, V2, [phase, phase], [amp, amp], [rho, 2 * rho],
            [-1, +1], [2, 1], lam))
    lim1, r1 = lambda_extrapolate(lams, s1_vals)
    lim2, r2 = lambda_extrapolate(lams, s2_vals)
    cal, _ = _calibration(bundle, Y, eps)
    return lim1 * cal, lim2 * cal, {"fit_residuals": (r1, r2), "eps": eps}


def stationary_phase_oracle(task, bundle, eps, xi, kind="second", nq=2001):
    """Direct quadrature of the limiting line integral (no beams involved).

    Computes ``int e^{xi t} F[field](xi, gamma(t)) w(t) dt`` where w is
    ``|det Y|^{-1}`` or the branch root, and the product-variable transform
    is a Simpson quadrature over the interval.
    """
    from .jacobi import det_root_branch

    chart = bundle.chart
    a0, b0 = chart.interval
    path = bundle.path
    Y = bundle.family(eps)
    tt = np.linspace(path.tau_minus, path.tau_plus, nq)
    if nq % 2 == 0:
        tt = np.linspace(path.tau_minus, path.tau_plus, nq + 1)
    pts = path.point(tt)
    x0 = np.linspace(a0, b0, 201)
    wx0 = _simpson_weights(len(x0), x0[1] - x0[0])
    fn = task.V.coeff(task.m)
    fv = fn(x0[:, None], pts[None])
    fhat = np.einsum("i,ij->j", wx0 * np.exp(-1j * xi * x0), fv)
    if kind == "second":
        w = np.abs(Y.det(tt)) ** -1.0
    else:
        w = det_root_branch(Y, tt)
    wq = _simpson_weights(len(tt), tt[1] - tt[0])
    return complex(np.sum(wq * np.exp(xi * tt) * fhat * w))


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


def fourier_synthesis(task, xi, data, nx0=97):
    """Least-squares trigonometric fit of the product-variable profile.

    The model spans the constant plus sin/cos at the registered frequencies;
    the design is the windowed transform of each basis function.
    """
    a0, b0 = task.chart.interval
    x0g = np.linspace(a0, b0, nx0)
    fine = np.linspace(a0, b0, 801)
    wq = _simpson_weights(len(fine), fine[1] - fine[0])
    basis = [np.ones_like(fine)]
    basis_g = [np.ones_like(x0g)]
    for nu in task.basis_freqs:
        basis.append(np.cos(nu * fine))
        basis.append(np.sin(nu * fine))
        basis_g.append(np.cos(nu * x0g))
        basis_g.append(np.sin(nu * x0g))
    D = np.empty((len(xi), len(basis)), dtype=complex)
    for ik, k in enumerate(xi):
        for ib, b in enumerate(basis):
            D[ik, ib] = np.sum(wq * np.exp(-1j * k * fine) * b)
    lam = 1e-10 * np.trace(np.real(D.conj().T @ D)) / D.shape[1]
    lhs = D.conj().T @ D + lam * np.eye(D.shape[1])
    coef = np.linalg.solve(lhs, D.conj().T @ np.asarray(data, dtype=complex))
    vals = np.zeros(nx0, dtype=complex)
    for c, b in zip(coef, basis_g):
        vals = vals + c * b
    return x0g, vals, coef


def recover_vm(task, progress=None):
    """Pointwise recovery of the m-th coefficient at the bundle anchor
    (m >= 3), second-kind route.

    For m > 3 the m - 3 surplus factors of the interaction are the
    normalizer u = 1, so a series with a V1 term raises ``ModeMismatch``
    before any beam is built."""
    if task.m < 3:
        raise ModeMismatch("the second-kind route needs m >= 3")
    if task.m > 3 and 1 in task.V.coeffs:
        raise ModeMismatch(
            f"m = {task.m} pairs the interaction with the normalizer u = 1, "
            "which solves the linearized equation only when V1 = 0; the "
            "series has a V1 term")
    bundle = prepare_bundle(task, anchor="point")
    xi = task.xi_grid()
    n = task.chart.n
    data = np.empty(len(xi), dtype=complex)
    errs = np.empty(len(xi))
    for i, k in enumerate(xi):
        sigma = -k / 4.0
        cache = {}
        for eps in task.eps_grid:
            scale = max(1.0, task.lam_eps_ref / eps)
            lams = tuple(l * scale for l in task.lams)
            datum, _ = dn_moment_v3(task, bundle, eps, sigma, lams=lams)
            cache[eps] = datum
        rep = invert_j2_point(lambda e: cache[e], list(task.eps_grid),
                              zeta=task.zeta, n=n)
        data[i] = rep.estimate
        errs[i] = rep.error_bound
        if progress:
            progress(i, len(xi))
    x0g, vals, _ = fourier_synthesis(task, xi, data)
    truth = None
    if task.truth is not None:
        p = np.zeros(task.chart.trans_dim) if task.point is None \
            else np.asarray(task.point, dtype=float)
        truth = np.asarray(task.truth(x0g, p[None, :]), dtype=complex)
    return RecoveredPotential(m=task.m, x0=x0g, values=vals, xi=xi,
                              xi_data=data, err_est=errs, truth=truth)


def recover_v2(task):
    """Recovery of the quadratic coefficient along the geodesic (n = 3:
    moment route on the conjugate-split first-kind data), one column of
    ``values`` per geodesic parameter ``t``."""
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
    per_xi = []
    for k in xi:
        sigma = -k / 4.0
        s1_cache, s2_cache = {}, {}
        for eps in eps_grid:
            # continuous scaling keeps lambda * eps constant, so the ladder
            # bias varies smoothly in eps and the moment fit absorbs it
            scale = task.lam_eps_ref / eps
            lams = tuple(l * scale for l in task.lams)
            s1, s2, _ = dn_moment_v2(task, bundle, float(eps), sigma,
                                     lams=lams)
            s1_cache[float(eps)] = s1
            s2_cache[float(eps)] = s2
        re_or = lambda e: 0.5 * (s1_cache[float(e)]
                                 + np.conj(s2_cache[float(e)]))
        im_or = lambda e: (s1_cache[float(e)]
                           - np.conj(s2_cache[float(e)])) / 2j
        rec_re, _ = invert_j1_moments(re_or, X, Z, window, K_max=K_max,
                                      eps_grid=eps_grid)
        rec_im, _ = invert_j1_moments(im_or, X, Z, window, K_max=K_max,
                                      eps_grid=eps_grid)
        per_xi.append((rec_re, rec_im))
    t_out = per_xi[0][0].t
    # assemble the transformed coefficient along gamma, then synthesize per t
    vals = np.empty((len(xi), len(t_out)), dtype=complex)
    for i, k in enumerate(xi):
        fr, fi = per_xi[i]
        vals[i] = (fr.values + 1j * fi.values) * np.exp(-k * t_out)
    if task.assume_real:
        # real coefficients carry conjugate symmetry across the frequency grid
        vals = 0.5 * (vals + np.conj(vals[::-1]))
    fits = [fourier_synthesis(task, xi, vals[:, j]) for j in range(len(t_out))]
    x0g = fits[0][0]
    field = np.stack([v for _, v, _ in fits], axis=1)
    truth = None
    if task.truth is not None:
        pts = bundle.path.point(t_out)
        truth = np.asarray(task.truth(x0g[:, None], pts[None]), dtype=complex)
    interior = np.abs(t_out) <= 0.5 * max(abs(window[0]), abs(window[1]))
    return RecoveredPotential(m=2, x0=x0g, values=field, xi=xi, xi_data=vals,
                              err_est=np.full(len(xi), np.nan), truth=truth,
                              t=t_out, interior=interior)


# ---------------------------------------------------------------------------
# boundary-data route and its cross-check
# ---------------------------------------------------------------------------

def _check_sampling(name, axis, h, k, lam):
    """Raise unless wavenumber ``k`` is sampled below Nyquist (k h < pi)."""
    if k * h >= math.pi:
        src = "" if k == lam else " (2 lambda, quadratic source w1*w1)"
        raise ModeMismatch(
            f"lambda {lam:g} aliases on the {name} grid: wavenumber {k:g}"
            f"{src} times {axis} spacing {h:.4g} is {k * h:.3g}; the limit "
            f"k*h < pi needs spacing < {math.pi / k:.4g}")


def full_dn_moment_v3(task, bundle, eps, sigma, lam, nx0=96, nr=32, nphi=64,
                      grid=None, ntrans=None, return_parts=False):
    """Interaction datum through the discrete boundary map at one rung.

    Builds the beam pair with its remainder on the cylinder, solves the
    conjugated linearization cascade on the disk grid, forms the boundary
    pairing, subtracts the companion term, and scales like the synthetic
    route.  All fields carry their exponential growth analytically.

    Raises ``ModeMismatch`` before any beam is built when a field would alias:
    the highest wavenumber k (lam, or 2 lam with a quadratic coefficient on
    the disk grid) must satisfy k h < pi with h the torus spacing on the
    cylinder and the radial spacing on the disk.  Accuracy inside that limit
    is a matter of refinement.
    """
    from .cgo import assemble_cgo, quasimode_on_cylinder
    from .cylinder import make_cylinder_grid, torus_length
    from .pde import SchrodingerSolver, disk_cylinder_domain, greens_pairing

    chart = task.chart
    if not chart.metric.is_flat:
        raise ModeMismatch("the boundary route is implemented on flat charts")
    cyl = grid
    if cyl is None:
        if ntrans is None:
            # ~6 nodes per beam wavelength on the torus, in multiples of 32
            per_len = 6 * lam * torus_length(chart) / (2 * np.pi)
            ntrans = max(128, int(np.ceil(per_len / 32) * 32))
        cyl = make_cylinder_grid(chart, nx0=96, ntrans=ntrans)
    dom = disk_cylinder_domain(chart, nx0, nr, nphi)
    x0g, xpg = dom.points()
    V2f = task.V.eval_k(2, x0g, xpg) if 2 in task.V.coeffs else None
    if V2f is not None and not np.any(V2f):
        V2f = None
    # Nyquist: the beams carry wavenumber lam on both grids; w1 * w1 feeds
    # the 2 lam conjugated solve on the disk grid
    _check_sampling("disk", "radial", chart.radius / nr,
                    lam if V2f is None else 2 * lam, lam)
    _check_sampling("cylinder", "torus", cyl.dtrans, lam, lam)
    d = chart.trans_dim - 1
    _, phase, amp = bundle.beam(eps, task.N, task.delta, n_amp=1)
    rho = complex(lam, sigma)
    sol_p = assemble_cgo(bundle.path, phase, amp, lam, sigma, cyl, sign=+1)
    sol_m = assemble_cgo(bundle.path, phase, amp, lam, sigma, cyl, sign=-1)

    beams = {}
    for sgn, sol in ((+1, sol_p), (-1, sol_m)):
        Q = quasimode_on_cylinder(phase, amp, rho, sgn, cyl, bundle.path)
        beams[sgn] = RegularGridInterpolator(
            (cyl.x0, cyl.trans_axes[0], cyl.trans_axes[1]), Q + sol.remainder,
            bounds_error=False, fill_value=0.0)

    def g_field(sgn):
        def fn(x0, xp):
            xp = np.asarray(xp)
            x0b = np.broadcast_to(np.asarray(x0), xp[..., 0].shape)
            return beams[sgn](np.stack([x0b, xp[..., 0], xp[..., 1]], axis=-1))
        return fn

    V1f = task.V.eval_k(1, x0g, xpg) if 1 in task.V.coeffs else None
    sol_plus = SchrodingerSolver(dom, V1_field=V1f, lam=+lam)
    sol_minus = SchrodingerSolver(dom, V1_field=V1f, lam=-lam)

    gp = g_field(+1)
    gm = g_field(-1)
    w1 = sol_plus.solve(bdata=gp)            # conjugated first-order solves
    w3 = sol_minus.solve(bdata=gm)
    V3f = task.V.eval_k(task.m, x0g, xpg)
    parts = {}
    if V2f is not None:
        sol_2lam = SchrodingerSolver(dom, V1_field=V1f, lam=2 * lam)
        sol_zero = SchrodingerSolver(dom, V1_field=V1f, lam=0.0)
        w12 = sol_2lam.solve(F=-V2f * w1 * w1)
        w13 = sol_zero.solve(F=-V2f * w1 * w3)
        rhs_top = -(V3f * w1 * w1 * w3
                    + V2f * (2.0 * w1 * w13 + w3 * w12))
        H_tilde = V2f * (2.0 * w1 * w13 + w3 * w12)
        parts["H"] = H_tilde
    else:
        rhs_top = -V3f * w1 * w1 * w3
        H_tilde = np.zeros(dom.shape, dtype=complex)
    Lt = sol_plus.solve(F=rhs_top)           # L~ = e^{-lam x0} (-w_full)
    Lt = -Lt

    boundary, companion, _ = greens_pairing(dom, w3, gm, Lt, H_tilde)
    value = lam ** (d / 2.0) * (boundary - companion)

    # volume route evaluated with the interpolated beam fields themselves,
    # so the comparison spans the whole discrete chain
    gpv = gp(x0g, xpg)
    gmv = gm(x0g, xpg)
    volume = complex(np.sum(dom.quad * V3f * (gpv * gmv) ** 2))
    synthetic = lam ** (d / 2.0) * volume
    if return_parts:
        parts.update({"boundary": boundary, "companion": companion,
                      "w1": w1, "w3": w3, "domain": dom,
                      "pde_residuals": (sol_p.report.residual_l2,
                                        sol_m.report.residual_l2)})
        return value, synthetic, parts
    return value, synthetic


def sensitivity_report(task, bundle, eps, sigma, lam, corruption=0.10,
                       **grid_kw):
    """Shift of the boundary-route datum under a corrupted known coefficient.

    Runs the m = 3 pairing with the registered quadratic coefficient and with
    a scaled copy; reports both data and the induced relative shift, which a
    driver must surface rather than absorb.
    """
    base, _ = full_dn_moment_v3(task, bundle, eps, sigma, lam, **grid_kw)
    task_bad = ReconTask(**{**task.__dict__,
                            "V": task.V.scaled(2, 1.0 + corruption)})
    bad, _ = full_dn_moment_v3(task_bad, bundle, eps, sigma, lam, **grid_kw)
    shift = abs(bad - base) / max(abs(base), 1e-300)
    return {"base": base, "corrupted": bad, "relative_shift": float(shift),
            "corruption": corruption}
