"""Model manifolds, geodesics, parallel frames and tube coordinates.

The ambient manifold is a product ``I x Omega`` with metric
``c(x0,x') ((dx0)^2 + g(x'))``.  The transversal factor ``(Omega, g)`` is a
single chart with a conformally flat metric ``g = e^{2 phi} delta``; the three
shipped models (flat disk, constant-curvature cap in stereographic
coordinates, perturbed conformal disk) are all of this form and extend
analytically past the chart boundary, so the extension margin needed by the
beam constructions comes for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (ConfigInvalid, DegenerateBasis, NonUnitSpeed,
                     OutsideTube, TrappedGeodesic)

__all__ = [
    "ConformalMetric", "CtaChart", "GeodesicPath", "FermiChart",
    "make_chart", "chart_from_config", "trace_geodesic", "parallel_frame",
    "conformal_reduce", "product_laplacian", "rk4_step", "rk4_sweep",
]


# ---------------------------------------------------------------------------
# transversal metrics
# ---------------------------------------------------------------------------

class ConformalMetric:
    """Metric ``g = e^{2 phi} delta`` on a chart of dimension ``dim``.

    ``phi``, ``grad`` and ``hess`` are vectorized callables taking points of
    shape ``(..., dim)``.  The Hessian is needed for variation (Jacobi)
    integrations; everything else uses only ``phi`` and its gradient.
    """

    def __init__(self, dim, phi, grad, hess, name="conformal"):
        self.dim = dim
        self.name = name
        self._phi = phi
        self._grad = grad
        self._hess = hess
        # flat shortcut enables closed-form exponential maps downstream
        self.is_flat = name == "flat"

    def phi(self, x):
        return self._phi(np.asarray(x, dtype=float))

    def grad_phi(self, x):
        return self._grad(np.asarray(x, dtype=float))

    def hess_phi(self, x):
        return self._hess(np.asarray(x, dtype=float))

    def g(self, x):
        x = np.asarray(x, dtype=float)
        f = np.exp(2.0 * self.phi(x))
        eye = np.eye(self.dim)
        return f[..., None, None] * eye

    def ginv(self, x):
        x = np.asarray(x, dtype=float)
        f = np.exp(-2.0 * self.phi(x))
        return f[..., None, None] * np.eye(self.dim)

    def inner(self, x, u, v):
        """g_x(u, v) for batched vectors."""
        f = np.exp(2.0 * self.phi(x))
        return f * np.einsum("...i,...i->...", u, v)

    def norm(self, x, v):
        return np.sqrt(np.real(self.inner(x, v, v)))

    def christoffel(self, x):
        """Gamma[..., k, i, j] = dk phi terms of the conformal connection."""
        x = np.asarray(x, dtype=float)
        dphi = self.grad_phi(x)
        d = self.dim
        eye = np.eye(d)
        out = (np.einsum("ki,...j->...kij", eye, dphi)
               + np.einsum("kj,...i->...kij", eye, dphi)
               - np.einsum("ij,...k->...kij", eye, dphi))
        return out

    def dchristoffel(self, x):
        """dGamma[..., l, k, i, j] = partial_l Gamma^k_ij."""
        x = np.asarray(x, dtype=float)
        H = self.hess_phi(x)
        d = self.dim
        eye = np.eye(d)
        out = (np.einsum("ki,...jl->...lkij", eye, H)
               + np.einsum("kj,...il->...lkij", eye, H)
               - np.einsum("ij,...kl->...lkij", eye, H))
        return out


def _flat_metric(dim):
    zero = lambda x: np.zeros(np.shape(x)[:-1])
    zvec = lambda x: np.zeros(np.shape(x))
    zmat = lambda x: np.zeros(np.shape(x) + (dim,))
    return ConformalMetric(dim, zero, zvec, zmat, name="flat")


def _sphere_metric(dim, curvature):
    """Round metric of constant curvature in stereographic coordinates."""
    k = float(curvature)

    def phi(x):
        r2 = np.sum(x * x, axis=-1)
        return math.log(2.0) - np.log1p(k * r2)

    def grad(x):
        r2 = np.sum(x * x, axis=-1)
        return -2.0 * k * x / (1.0 + k * r2)[..., None]

    def hess(x):
        r2 = np.sum(x * x, axis=-1)
        den = (1.0 + k * r2)[..., None, None]
        eye = np.eye(dim)
        outer = np.einsum("...i,...j->...ij", x, x)
        return (-2.0 * k * eye * den + 4.0 * k * k * outer) / den ** 2

    return ConformalMetric(dim, phi, grad, hess, name="sphere")


def _bump_metric(dim, amp, width, center):
    """Small conformal perturbation of the flat disk."""
    a = float(amp)
    w2 = float(width) ** 2
    c = np.asarray(center, dtype=float)

    def phi(x):
        r2 = np.sum((x - c) ** 2, axis=-1)
        return a * np.exp(-r2 / w2)

    def grad(x):
        dx = x - c
        r2 = np.sum(dx * dx, axis=-1)
        return (-2.0 / w2) * a * np.exp(-r2 / w2)[..., None] * dx

    def hess(x):
        dx = x - c
        r2 = np.sum(dx * dx, axis=-1)
        e = a * np.exp(-r2 / w2)
        eye = np.eye(dim)
        outer = np.einsum("...i,...j->...ij", dx, dx)
        return (-2.0 / w2) * e[..., None, None] * (eye - (2.0 / w2) * outer)

    return ConformalMetric(dim, phi, grad, hess, name="conformal_bump")


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CtaChart:
    """Product chart ``I x Omega`` with its transversal metric.

    ``radius`` bounds the transversal chart (a coordinate disk); the metric is
    analytic on a strictly larger domain, which supplies the extension margin.
    """

    kind: str
    n: int
    interval: tuple
    metric: ConformalMetric
    radius: float
    extension_margin: float = 0.1
    tube_radius: float = 0.2
    params: dict = field(default_factory=dict)

    @property
    def trans_dim(self):
        return self.n - 1

    def inside(self, x):
        return np.sqrt(np.sum(np.asarray(x) ** 2, axis=-1)) < self.radius

    def boundary_defect(self, x):
        """Positive inside Omega, negative outside."""
        return self.radius - np.sqrt(np.sum(np.asarray(x) ** 2, axis=-1))


def make_chart(kind, n=3, interval=(0.0, 1.0), params=None):
    params = dict(params or {})
    if n not in (3, 4):
        raise ConfigInvalid("geometry.n", "dimension must be 3 or 4")
    d = n - 1
    margin = float(params.pop("margin", 0.1))
    delta_p = float(params.pop("tube_radius", 0.2))
    if kind == "flat_disk":
        radius = float(params.pop("radius", 1.0))
        metric = _flat_metric(d)
    elif kind == "sphere_cap":
        curv = float(params.pop("curvature", 1.0))
        cap = float(params.pop("cap_radius", 1.25))
        if cap * math.sqrt(curv) >= math.pi:
            raise ConfigInvalid("geometry.params.cap_radius",
                                "cap radius must stay below pi/sqrt(curvature)")
        radius = math.tan(0.5 * cap * math.sqrt(curv)) / math.sqrt(curv)
        metric = _sphere_metric(d, curv)
        params["curvature"] = curv
        params["cap_radius"] = cap
    elif kind == "conformal_disk":
        radius = float(params.pop("radius", 1.0))
        amp = float(params.pop("amp", 0.08))
        width = float(params.pop("width", 0.6))
        center = params.pop("center", [0.25] + [0.0] * (d - 1))
        metric = _bump_metric(d, amp, width, np.asarray(center, dtype=float))
        params.update({"amp": amp, "width": width, "center": list(center)})
    else:
        raise ConfigInvalid("geometry.kind", f"unknown kind {kind!r}")
    return CtaChart(kind=kind, n=n, interval=(float(interval[0]), float(interval[1])),
                    metric=metric, radius=radius, extension_margin=margin,
                    tube_radius=delta_p, params=params)


def chart_from_config(cfg):
    """Build a chart from the ``geometry`` block of an experiment config."""
    if not isinstance(cfg, dict):
        raise ConfigInvalid("geometry", "expected an object")
    kind = cfg.get("kind")
    if kind not in ("flat_disk", "sphere_cap", "conformal_disk"):
        raise ConfigInvalid("geometry.kind",
                            f"must be flat_disk|sphere_cap|conformal_disk, got {kind!r}")
    n = cfg.get("n", 3)
    interval = cfg.get("interval", [0.0, 1.0])
    if not (isinstance(interval, (list, tuple)) and len(interval) == 2
            and interval[0] < interval[1]):
        raise ConfigInvalid("geometry.interval", "expected [a0, b0] with a0 < b0")
    return make_chart(kind, n=n, interval=tuple(interval), params=cfg.get("params"))


# ---------------------------------------------------------------------------
# geodesic integration
# ---------------------------------------------------------------------------

def rk4_step(f, t, y, h):
    """One classical Runge-Kutta step of ``y' = f(t, y)`` from t to t + h.

    ``y`` is a tuple of arrays and ``f`` returns a tuple of the same shapes;
    every array may carry leading batch axes.
    """
    k1 = f(t, y)
    k2 = f(t + h / 2, tuple(a + h / 2 * k for a, k in zip(y, k1)))
    k3 = f(t + h / 2, tuple(a + h / 2 * k for a, k in zip(y, k2)))
    k4 = f(t + h, tuple(a + h * k for a, k in zip(y, k3)))
    return tuple(a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def rk4_sweep(f, t, y0, i0, t0=None):
    """RK4 over the nodes ``t``, node to node outward from node ``i0``.

    ``y0`` is the state tuple at ``t0`` (default ``t[i0]``); when ``t0`` is
    not that node, a partial step carries it there first.  Returns one array
    per state component with the node axis first.
    """
    y = tuple(np.asarray(a) for a in y0)
    if t0 is not None and t0 != t[i0]:
        y = rk4_step(f, t0, y, t[i0] - t0)
    out = tuple(np.empty((len(t),) + a.shape, dtype=a.dtype) for a in y)
    for o, a in zip(out, y):
        o[i0] = a
    for step in (1, -1):
        yy = y
        for i in range(i0 + step, len(t) if step > 0 else -1, step):
            yy = rk4_step(f, t[i - step], yy, t[i] - t[i - step])
            for o, a in zip(out, yy):
                o[i] = a
    return out


def _geodesic_rhs(metric):
    """Right-hand side of the geodesic equation for the state ``(x, v)`` or,
    with a third component ``e`` of shape (..., d, k), of the geodesic
    together with the parallel transport of the columns of ``e``."""
    def f(_, y):
        x, v = y[0], y[1]
        gam = metric.christoffel(x)
        acc = -np.einsum("...kij,...i,...j->...k", gam, v, v)
        if len(y) == 2:
            return v, acc
        return v, acc, -np.einsum("...kij,...i,...jm->...km", gam, v, y[2])
    return f


@dataclass
class GeodesicPath:
    """Unit-speed maximal geodesic with frame and extension margin.

    Samples cover ``[tau_minus - margin, tau_plus + margin]``; the anchor
    ``t = 0`` is always a sample node.
    """

    chart: CtaChart
    t: np.ndarray
    x: np.ndarray           # (N, d)
    v: np.ndarray           # (N, d)
    frame: np.ndarray       # (N, d, d-1)
    tau_minus: float
    tau_plus: float
    unit_speed_defect: float

    def __post_init__(self):
        self._xs = CubicSpline(self.t, self.x, axis=0)
        self._vs = CubicSpline(self.t, self.v, axis=0)
        self._es = CubicSpline(self.t, self.frame, axis=0)

    @property
    def tau_minus_ext(self):
        return float(self.t[0])

    @property
    def tau_plus_ext(self):
        return float(self.t[-1])

    def point(self, t):
        return self._xs(t)

    def velocity(self, t):
        return self._vs(t)

    def frame_at(self, t):
        return self._es(t)

    def to_csv(self, path):
        d = self.x.shape[1]
        header = "t," + ",".join(f"x{i+1}" for i in range(d)) \
                 + "," + ",".join(f"v{i+1}" for i in range(d))
        data = np.column_stack([self.t, self.x, self.v])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.12g")


def _orthonormal_complement(metric, x, theta):
    """Gram-Schmidt basis of theta-perp w.r.t. g(x)."""
    d = metric.dim
    cands = [theta] + [np.eye(d)[i] for i in range(d)]
    basis = []
    for w in cands:
        u = np.array(w, dtype=float)
        for b in basis:
            u = u - metric.inner(x, u, b) * b
        nrm = metric.norm(x, u)
        if nrm > 1e-8:
            basis.append(u / nrm)
        if len(basis) == d:
            break
    if len(basis) < d:
        raise DegenerateBasis("could not complete an orthonormal frame")
    return np.stack(basis[1:], axis=-1)    # (d, d-1), excludes theta


def _find_exit(chart, x0, v0, h, max_length):
    """Arc length to the boundary along (x0, v0), refined by bisection."""
    f = _geodesic_rhs(chart.metric)
    x, v = x0.copy(), v0.copy()
    t = 0.0
    while t < max_length:
        xn, vn = rk4_step(f, 0.0, (x, v), h)
        if chart.boundary_defect(xn) < 0.0:
            lo, hi = 0.0, h
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                xm, _ = rk4_step(f, 0.0, (x, v), mid)
                if chart.boundary_defect(xm) < 0.0:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < 1e-13:
                    break
            return t + 0.5 * (lo + hi)
        x, v, t = xn, vn, t + h
    raise TrappedGeodesic(f"no boundary exit within arc length {max_length}")


def trace_geodesic(chart, x, theta, h=1e-3, margin=None, max_length=50.0):
    """Trace the maximal unit-speed geodesic through ``x`` with direction ``theta``.

    Returns a :class:`GeodesicPath` sampled on a uniform-step grid (separate
    uniform steps backward/forward of the anchor), extended past the exit
    times by the chart margin.  Raises ``NonUnitSpeed`` / ``TrappedGeodesic``.
    """
    metric = chart.metric
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not chart.inside(x):
        raise ConfigInvalid("geodesic.x", "start point must be interior")
    if abs(metric.norm(x, theta) - 1.0) > 1e-12:
        raise NonUnitSpeed(f"|theta|_g = {metric.norm(x, theta)!r}")
    margin = chart.extension_margin if margin is None else float(margin)

    tau_plus = _find_exit(chart, x, theta, h, max_length)
    tau_minus = -_find_exit(chart, x, -theta, h, max_length)

    e0 = _orthonormal_complement(metric, x, theta)

    def nodes(t_end):
        return np.linspace(0.0, t_end, max(2, int(math.ceil(t_end / h)) + 1))

    tb = nodes(margin - tau_minus)
    t = np.concatenate([-tb[::-1], nodes(tau_plus + margin)[1:]])
    xs, vs, es = rk4_sweep(_geodesic_rhs(metric), t, (x, theta, e0),
                           len(tb) - 1)

    speeds = metric.norm(xs, vs)
    defect = float(np.max(np.abs(speeds - 1.0)))
    return GeodesicPath(chart=chart, t=t, x=xs, v=vs, frame=es,
                        tau_minus=tau_minus, tau_plus=tau_plus,
                        unit_speed_defect=defect)


def parallel_frame(path, basis):
    """Transport a user-supplied orthonormal basis of theta-perp along ``path``.

    ``basis`` has shape (d, m) with columns orthonormal and g-orthogonal to
    the initial velocity.  Returns samples aligned with ``path.t``.
    """
    metric = path.chart.metric
    basis = np.asarray(basis, dtype=float)
    x0 = path.point(0.0)
    v0 = path.velocity(0.0)
    cols = [basis[:, j] for j in range(basis.shape[1])]
    gram = np.array([[metric.inner(x0, a, b) for b in cols] for a in cols])
    if np.linalg.matrix_rank(gram, tol=1e-10) < basis.shape[1]:
        raise DegenerateBasis("frame vectors are linearly dependent")
    for c in cols:
        if abs(metric.inner(x0, c, v0)) > 1e-8:
            raise DegenerateBasis("frame vector not orthogonal to the velocity")

    i0 = int(np.argmin(np.abs(path.t)))
    y0 = (path.x[i0], path.v[i0], basis)
    return rk4_sweep(_geodesic_rhs(metric), path.t, y0, i0)[2]


# ---------------------------------------------------------------------------
# variational integration (differential of the exponential map)
# ---------------------------------------------------------------------------

# RK4 steps of the exponential map over its parameter interval [0, 1]
FERMI_STEPS = 32


def _variation_rhs(metric):
    """Geodesic ``(x, v)`` carrying variation fields ``(J, J')`` in chart
    coordinates, one column per varied parameter."""
    def f(_, y):
        x, v, J, Jd = y
        gam = metric.christoffel(x)
        dgam = metric.dchristoffel(x)
        acc = -np.einsum("...kij,...i,...j->...k", gam, v, v)
        dgam_vv = np.einsum("...lki,...i->...lk",
                            np.einsum("...lkij,...j->...lki", dgam, v), v)
        Jacc = (-np.einsum("...lk,...lm->...km", dgam_vv, J)
                - 2.0 * np.einsum("...kij,...i,...jm->...km", gam, v, Jd))
        return v, acc, Jd, Jacc
    return f


def _shoot(f, y0):
    """State at s = 1 of ``y' = f(s, y)`` started at s = 0."""
    h = 1.0 / FERMI_STEPS
    y = tuple(np.asarray(a) for a in y0)
    for i in range(FERMI_STEPS):
        y = rk4_step(f, i * h, y, h)
    return y


class FermiChart:
    """Tube coordinates (y1, y'') around a geodesic on the transversal chart:
    the one map from tube coordinates to chart points, with its volume
    element.

    Forward map: ``F(y1, y'') = exp_{gamma(y1)}(sum_a y''_a e_a(y1))``; on a
    flat chart the straight line through ``gamma(0)`` with the t = 0 frame.
    The x0 factor passes through unchanged and is omitted here.  Every method
    broadcasts over leading axes: ``y1`` of shape (...) against ``ypp`` of
    shape (..., m).
    """

    def __init__(self, path, delta_prime=None):
        self.path = path
        self.metric = path.chart.metric
        self.delta_prime = (path.chart.tube_radius if delta_prime is None
                            else float(delta_prime))

    def _axis(self, y1, ypp):
        """Axis point, velocity and frame at ``y1`` and the initial offset
        ``w = e(y1) y''``, broadcast to the common leading shape."""
        y1 = np.asarray(y1, dtype=float)
        ypp = np.asarray(ypp, dtype=float)
        shape = np.broadcast_shapes(y1.shape, ypp.shape[:-1])
        y1 = np.broadcast_to(y1, shape)
        ypp = np.broadcast_to(ypp, shape + ypp.shape[-1:])
        path = self.path
        t = 0.0 if self.metric.is_flat else y1
        base, vel, frame = path.point(t), path.velocity(t), path.frame_at(t)
        if self.metric.is_flat:
            base = base + y1[..., None] * vel
            vel = np.broadcast_to(vel, base.shape)
            frame = np.broadcast_to(frame, base.shape + frame.shape[-1:])
        return base, vel, frame, np.einsum("...m,...dm->...d", ypp, frame)

    def forward(self, y1, ypp):
        """Map Fermi coordinates to chart points."""
        base, _, _, w = self._axis(y1, ypp)
        if self.metric.is_flat:
            return base + w
        return _shoot(_geodesic_rhs(self.metric), (base, w))[0]

    def _point_and_jacobian(self, y1, ypp):
        """F and d F / d(y1, y''), the latter of shape (..., d, m + 1)."""
        base, vel, frame, w = self._axis(y1, ypp)
        if self.metric.is_flat:
            return base + w, np.concatenate([vel[..., None], frame], axis=-1)
        gam = self.metric.christoffel(base)
        J0 = np.concatenate([vel[..., None], np.zeros_like(frame)], axis=-1)
        # coordinate initial rate to make the covariant initial rate vanish
        rate = -np.einsum("...kij,...i,...j->...k", gam, w, vel)
        Jd0 = np.concatenate([rate[..., None], frame], axis=-1)
        x, _, J, _ = _shoot(_variation_rhs(self.metric), (base, w, J0, Jd0))
        return x, J

    def pullback_metric(self, y1, ypp):
        """Components of g in Fermi coordinates at (y1, y'')."""
        p, J = self._point_and_jacobian(y1, ypp)
        return np.swapaxes(J, -1, -2) @ self.metric.g(p) @ J

    def volume(self, y1, ypp):
        """Volume element ``sqrt(det g_F)`` at (y1, y''); exactly 1 on a flat
        chart."""
        if self.metric.is_flat:
            return np.ones(np.broadcast(np.asarray(y1),
                                        np.asarray(ypp)[..., 0]).shape)
        g = self.pullback_metric(y1, ypp)
        return np.sqrt(np.maximum(np.linalg.det(g), 0.0))

    # -- inverse ------------------------------------------------------------

    def inverse(self, p, tol=1e-10, maxiter=40):
        """Fermi coordinates of a chart point within the tube."""
        p = np.asarray(p, dtype=float)
        path = self.path
        if self.metric.is_flat:
            d2 = np.sum((path.x - p) ** 2, axis=1)
            i = int(np.argmin(d2))
            y1 = path.t[i]
            for _ in range(50):
                base, vel = path.point(y1), path.velocity(y1)
                dy = float(np.dot(p - base, vel))
                y1 += dy
                if abs(dy) < 1e-14:
                    break
            base = path.point(y1)
            ypp = path.frame_at(y1).T @ (p - base)
        else:
            d2 = np.sum((path.x - p) ** 2, axis=1)
            y = np.zeros(self.metric.dim)
            y[0] = path.t[int(np.argmin(d2))]
            for _ in range(maxiter):
                fwd, J = self._point_and_jacobian(y[0], y[1:])
                res = fwd - p
                if np.linalg.norm(res) < tol:
                    break
                step = np.linalg.solve(J, res)
                y = y - step
            else:
                raise OutsideTube("Fermi inversion did not converge")
            y1, ypp = y[0], y[1:]
        if np.linalg.norm(ypp) > self.delta_prime * (1 + 1e-9):
            raise OutsideTube(f"|y''| = {np.linalg.norm(ypp):.4g} "
                              f"exceeds tube radius {self.delta_prime}")
        if not (path.tau_minus_ext - 1e-9 <= y1 <= path.tau_plus_ext + 1e-9):
            raise OutsideTube("axis coordinate outside the traced range")
        return float(y1), np.asarray(ypp)


# ---------------------------------------------------------------------------
# conformal reduction
# ---------------------------------------------------------------------------

def product_laplacian(fn, chart, x0, xp, step=1e-2):
    """Laplace-Beltrami of ``fn(x0, x')`` w.r.t. (dx0)^2 + g(x'), pointwise.

    Fourth-order centered differences on the closed-form callable; for the
    conformally flat transversal factor
    ``Delta_g = e^{-2 phi} (Delta_flat + (d-2) grad phi . grad)``.
    """
    x0 = np.asarray(x0, dtype=float)
    xp = np.asarray(xp, dtype=float)
    d = chart.metric.dim

    def d2(axis_eval):
        f2m, f1m, f0, f1p, f2p = axis_eval
        return (-f2p + 16 * f1p - 30 * f0 + 16 * f1m - f2m) / (12 * step ** 2)

    def d1(axis_eval):
        f2m, f1m, _, f1p, f2p = axis_eval
        return (-f2p + 8 * f1p - 8 * f1m + f2m) / (12 * step)

    def stencil_x0():
        return [fn(x0 - 2 * step, xp), fn(x0 - step, xp), fn(x0, xp),
                fn(x0 + step, xp), fn(x0 + 2 * step, xp)]

    def stencil_xp(j):
        e = np.zeros(d)
        e[j] = 1.0
        return [fn(x0, xp - 2 * step * e), fn(x0, xp - step * e), fn(x0, xp),
                fn(x0, xp + step * e), fn(x0, xp + 2 * step * e)]

    lap = d2(stencil_x0())
    grad = np.zeros(np.shape(x0) + (d,), dtype=complex)
    flat = np.zeros_like(lap, dtype=complex)
    for j in range(d):
        s = stencil_xp(j)
        flat = flat + d2(s)
        grad[..., j] = d1(s)
    phi = chart.metric.phi(xp)
    dphi = chart.metric.grad_phi(xp)
    trans = np.exp(-2.0 * phi) * (flat + (d - 2)
                                  * np.einsum("...j,...j->...", dphi, grad))
    return lap + np.real_if_close(trans) if np.isrealobj(lap) else lap + trans


def conformal_reduce(series, c, chart, inverse=False):
    """Rescale a coefficient series so the conformal factor becomes 1.

    Given the factor ``c`` of the full metric, returns the series of the
    reduced problem on the product metric: with ``beta = (n-2)/4``,
    ``V_k -> c^{(n+2-k(n-2))/4} V_k`` plus a zeroth-order correction on the
    k = 1 coefficient.  The correction has two equivalent forms,
    ``+ c^{-beta} Delta_target(c^{beta})`` and
    ``- c^{beta+1} Delta_orig(c^{-beta})``; only one side of each reduction
    carries the product metric, so the forward direction uses the first form
    and ``inverse=True`` (factor 1/c, mapping a product-metric problem back
    under c) uses the second.  With this choice, reduction with ``c``
    followed by reduction with ``1/c`` is the identity.
    """
    from .potentials import PotentialSeries

    n = chart.n
    beta = (n - 2) / 4.0

    if inverse:
        cf = lambda x0, xp: 1.0 / c(x0, xp)
    else:
        cf = c

    def scaled(k, fn):
        expo = (n + 2 - k * (n - 2)) / 4.0
        return lambda x0, xp, fn=fn, expo=expo: cf(x0, xp) ** expo * fn(x0, xp)

    def correction(x0, xp):
        if inverse:
            cmbeta = lambda a, b: cf(a, b) ** (-beta)
            return -cf(x0, xp) ** (beta + 1.0) * product_laplacian(
                cmbeta, chart, x0, xp)
        cbeta = lambda a, b: cf(a, b) ** beta
        return cf(x0, xp) ** (-beta) * product_laplacian(cbeta, chart, x0, xp)

    coeffs = {}
    for k, fn in series.coeffs.items():
        coeffs[k] = scaled(k, fn)
    base1 = coeffs.get(1, lambda x0, xp: np.zeros(np.broadcast(x0, xp[..., 0]).shape))
    coeffs[1] = lambda x0, xp, base=base1: base(x0, xp) + correction(x0, xp)
    return PotentialSeries(coeffs, kmax=max(series.kmax, 1))
