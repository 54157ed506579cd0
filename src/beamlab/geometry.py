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
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (ConfigInvalid, DegenerateBasis, NonUnitSpeed,
                     OutsideTube, TrappedGeodesic)

__all__ = [
    "ConformalMetric", "CtaChart", "GeodesicPath", "FermiChart",
    "make_chart", "chart_from_config", "trace_geodesic",
    "rk4_step", "stage_times", "linear_sweep",
]


# ---------------------------------------------------------------------------
# transversal metrics
# ---------------------------------------------------------------------------

class ConformalMetric:
    """Metric ``g = e^{2 phi} delta`` on a chart of dimension ``dim``.

    ``phi``, ``grad`` and ``hess`` are vectorized callables taking points of
    shape ``(..., dim)``.  The connection is closed form in the gradient
    (``_conn``); the Hessian enters only variation integrations and the
    curvature.
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

    def inner(self, x, u, v):
        """g_x(u, v) for batched vectors."""
        f = np.exp(2.0 * self.phi(x))
        return f * np.einsum("...i,...i->...", u, v)

    def norm(self, x, v):
        return np.sqrt(np.real(self.inner(x, v, v)))


def _conn(a, v, w):
    """``(a.v) w + (a.w) v - (v.w) a`` for column stacks of shape (..., d, k)
    that broadcast in k.

    With ``a = grad phi`` this is the Levi-Civita connection of
    ``e^{2 phi} delta``, ``Gamma(v, w)``; with ``a = Hess phi . u`` it is the
    derivative ``partial_u Gamma(v, w)``.
    """
    return ((a * v).sum(-2, keepdims=True) * w
            + (a * w).sum(-2, keepdims=True) * v
            - (v * w).sum(-2, keepdims=True) * a)


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
        raise ConfigInvalid("geometry.kind", "must be flat_disk|sphere_cap|"
                            f"conformal_disk, got {kind!r}")
    return CtaChart(kind=kind, n=n, interval=(float(interval[0]), float(interval[1])),
                    metric=metric, radius=radius, extension_margin=margin,
                    tube_radius=delta_p, params=params)


def chart_from_config(cfg):
    """Build a chart from the ``geometry`` block of an experiment config."""
    if not isinstance(cfg, dict):
        raise ConfigInvalid("geometry", "expected an object")
    n = cfg.get("n", 3)
    interval = cfg.get("interval", [0.0, 1.0])
    if not (isinstance(interval, (list, tuple)) and len(interval) == 2
            and interval[0] < interval[1]):
        raise ConfigInvalid("geometry.interval", "expected [a0, b0] with a0 < b0")
    return make_chart(cfg.get("kind"), n=n, interval=tuple(interval),
                      params=cfg.get("params"))


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


def stage_times(t):
    """The nodes ``t`` and their midpoints interleaved, the times at which
    RK4 from node to node samples the right-hand side."""
    tt = np.empty(2 * len(t) - 1)
    tt[::2] = t
    tt[1::2] = 0.5 * (t[:-1] + t[1:])
    return tt


def linear_sweep(t, A, y0, i0):
    """RK4 for the linear system ``y' = A(t) y`` over the nodes ``t``, node
    to node outward from node ``i0``, where ``y = y0``.

    ``A`` holds the system matrix at ``stage_times(t)``, shape (2N-1, n, n),
    and ``y0`` has shape (n,) or (n, k).  RK4 on a linear system is a linear
    map ``y -> P y`` per step; the stage formula applied to the identity
    gives every step's ``P`` in one batched evaluation (stepping away from
    ``i0`` on each side), and the maps are then composed node to node.  An
    affine system ``y' = A y + s`` runs as the linear one on ``[y; 1]``.
    Returns the states with the node axis first.
    """
    An, Am = A[::2], A[1::2]
    fwd = (np.arange(len(t) - 1) >= i0)[:, None, None]
    A0 = np.where(fwd, An[:-1], An[1:])
    A1 = np.where(fwd, An[1:], An[:-1])
    h = np.where(fwd, 1.0, -1.0) * np.diff(t)[:, None, None]
    eye = np.eye(A.shape[-1])
    k2 = Am @ (eye + h / 2 * A0)
    k3 = Am @ (eye + h / 2 * k2)
    k4 = A1 @ (eye + h * k3)
    P = eye + h / 6 * (A0 + 2 * k2 + 2 * k3 + k4)
    out = np.empty((len(t),) + np.shape(y0), dtype=np.result_type(P, y0))
    out[i0] = y0
    for i in range(i0 + 1, len(t)):
        out[i] = P[i - 1] @ out[i - 1]
    for i in range(i0 - 1, -1, -1):
        out[i] = P[i] @ out[i + 1]
    return out


def _geodesic_rhs(metric):
    """Right-hand side of the geodesic equation, with the parallel
    transport of a frame, for the one-array state ``(y,)`` packed as
    ``[x | v | e]`` of shape (..., d, 2 + k); ``k = 0`` carries the bare
    geodesic ``[x | v]``."""
    def f(_, y):
        y, = y
        v = y[..., 1:2]
        rate = -_conn(metric.grad_phi(y[..., 0])[..., None], v, y[..., 1:])
        return (np.concatenate([v, rate], axis=-1),)
    return f


@dataclass
class GeodesicPath:
    """Unit-speed maximal geodesic with frame and extension margin.

    Samples sit at the nodes ``t = k h`` (the anchor ``t = 0`` is one) and
    reach at least the margin past ``tau_minus`` and ``tau_plus``; the
    splines through them are built on first evaluation.
    """

    chart: CtaChart
    t: np.ndarray
    x: np.ndarray           # (N, d)
    v: np.ndarray           # (N, d)
    frame: np.ndarray       # (N, d, d-1)
    tau_minus: float
    tau_plus: float
    unit_speed_defect: float

    _xs = cached_property(lambda self: CubicSpline(self.t, self.x, axis=0))
    _vs = cached_property(lambda self: CubicSpline(self.t, self.v, axis=0))
    _es = cached_property(lambda self: CubicSpline(self.t, self.frame, axis=0))

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


# longest arc length searched for a boundary exit
MAX_LENGTH = 50.0


def _walk(chart, y0, h, margin):
    """Frame-carrying RK4 from a batch of anchor states ``y0`` of shape
    (B, d, 2 + k) over the nodes ``t = k h``, ``h > 0``.  Each state walks to
    the first node at least ``margin`` past its exit, found by bisecting the
    step that leaves the chart on partial ``[x | v]`` steps, and then leaves
    the batch.  Returns the exit times and, per state, its node states.
    """
    f = _geodesic_rhs(chart.metric)
    ys = [[y] for y in y0]
    tau = [None] * len(y0)
    live, y, t = list(range(len(y0))), y0, 0.0
    while live:
        if t >= MAX_LENGTH and any(tau[i] is None for i in live):
            raise TrappedGeodesic(
                f"no boundary exit within arc length {MAX_LENGTH}")
        prev, (y,) = y, rk4_step(f, t, (y,), h)
        left = chart.boundary_defect(y[:, :, 0]) < 0.0
        for j, i in enumerate(live):
            ys[i].append(y[j])
            if tau[i] is None and left[j]:
                xv = prev[j, :, :2]
                lo, hi = 0.0, h
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    x_mid = rk4_step(f, 0.0, (xv,), mid)[0][:, 0]
                    if chart.boundary_defect(x_mid) < 0.0:
                        hi = mid
                    else:
                        lo = mid
                    if abs(hi - lo) < 1e-13:
                        break
                tau[i] = t + 0.5 * (lo + hi)
        t += h
        keep = [j for j, i in enumerate(live)
                if tau[i] is None or (len(ys[i]) - 1) * h < tau[i] + margin]
        if len(keep) < len(live):
            live, y = [live[j] for j in keep], y[keep]
    return tau, [np.stack(s) for s in ys]


def _straight_walk(chart, y0, h, margin):
    """``_walk`` on a flat chart in closed form, with the same stop rule and
    returns: the nodes of each state are ``x + (k h) u`` with ``v`` and the
    frame constant, and the exit time is the root of ``|x + tau u| = R``.
    """
    tau, ys = [], []
    for y in y0:
        x, u = y[:, 0], y[:, 1]
        b = x @ u
        t_exit = float(math.sqrt(b * b - x @ x + chart.radius ** 2) - b)
        if t_exit > MAX_LENGTH:
            raise TrappedGeodesic(
                f"no boundary exit within arc length {MAX_LENGTH}")
        # the first k with k h >= end, tested on k h as the walk tests it
        end = t_exit + margin
        k = math.ceil(end / h)
        if k * h < end:
            k += 1
        elif (k - 1) * h >= end:
            k -= 1
        nodes = np.repeat(y[None], k + 1, axis=0)
        nodes[:, :, 0] = x + h * np.arange(k + 1)[:, None] * u
        tau.append(t_exit)
        ys.append(nodes)
    return tau, ys


def trace_geodesic(chart, x, theta, h=1e-3, margin=None):
    """Trace the maximal unit-speed geodesic through ``x`` with direction ``theta``.

    Both halves are sampled, with the parallel frame, on the nodes
    ``t = k h``: in closed form on a flat chart (``_straight_walk``), else
    integrated once as one RK4 batch of two (``_walk``).  The backward half
    is the forward one from ``(x, -theta)``, which is bit for bit the walk
    with step ``-h`` with its velocity negated (the connection is bilinear,
    and rounding is symmetric under negation).  Each half stops at the
    first node at least the chart margin past its exit time.  Returns a
    :class:`GeodesicPath`.  Raises ``NonUnitSpeed`` / ``TrappedGeodesic``.
    """
    metric = chart.metric
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not chart.inside(x):
        raise ConfigInvalid("geodesic.x", "start point must be interior")
    if abs(metric.norm(x, theta) - 1.0) > 1e-12:
        raise NonUnitSpeed(f"|theta|_g = {metric.norm(x, theta)!r}")
    margin = chart.extension_margin if margin is None else float(margin)

    e = _orthonormal_complement(metric, x, theta)
    y0 = np.stack([np.column_stack([x, s * theta, e]) for s in (1.0, -1.0)])
    walk = _straight_walk if metric.is_flat else _walk
    (tau_plus, tau_back), (fwd, bwd) = walk(chart, y0, h, margin)
    ys = np.concatenate([bwd[:0:-1], fwd])
    ys[:len(bwd) - 1, :, 1] *= -1.0         # the backward half carries -v
    xs, vs, es = (np.ascontiguousarray(a)
                  for a in (ys[..., 0], ys[..., 1], ys[..., 2:]))
    t = h * np.arange(1 - len(bwd), len(fwd))

    speeds = metric.norm(xs, vs)
    defect = float(np.max(np.abs(speeds - 1.0)))
    return GeodesicPath(chart=chart, t=t, x=xs, v=vs, frame=es,
                        tau_minus=-tau_back, tau_plus=tau_plus,
                        unit_speed_defect=defect)


# ---------------------------------------------------------------------------
# variational integration (differential of the exponential map)
# ---------------------------------------------------------------------------

# RK4 steps of the exponential map over its parameter interval [0, 1]
FERMI_STEPS = 32
# Newton residual and iteration cap of the inverse map
INVERSE_TOL, INVERSE_MAXIT = 1e-10, 40


def _variation_rhs(metric):
    """Geodesic ``(x, v)`` carrying variation fields ``(J, J')`` in chart
    coordinates, one column per varied parameter."""
    def f(_, y):
        x, v, J, Jd = y
        vc = v[..., None]
        rate = _conn(metric.grad_phi(x)[..., None], vc,
                     np.concatenate([vc, Jd], axis=-1))
        Jacc = -_conn(metric.hess_phi(x) @ J, vc, vc) - 2.0 * rate[..., 1:]
        return v, -rate[..., 0], Jd, Jacc
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
        """Chart points of Fermi coordinates and the volume element
        ``sqrt(det g_F)`` there, exactly 1 on a flat chart."""
        if self.metric.is_flat:
            base, _, _, w = self._axis(y1, ypp)
            return base + w, np.ones(base.shape[:-1])
        p, J = self._point_and_jacobian(y1, ypp)
        return p, np.sqrt(np.maximum(np.linalg.det(self._pullback(p, J)), 0.0))

    def _point_and_jacobian(self, y1, ypp):
        """F and d F / d(y1, y''), the latter of shape (..., d, m + 1)."""
        base, vel, frame, w = self._axis(y1, ypp)
        if self.metric.is_flat:
            return base + w, np.concatenate([vel[..., None], frame], axis=-1)
        J0 = np.concatenate([vel[..., None], np.zeros_like(frame)], axis=-1)
        # coordinate initial rate to make the covariant initial rate vanish
        rate = -_conn(self.metric.grad_phi(base)[..., None], w[..., None],
                      vel[..., None])
        Jd0 = np.concatenate([rate, frame], axis=-1)
        x, _, J, _ = _shoot(_variation_rhs(self.metric), (base, w, J0, Jd0))
        return x, J

    def _pullback(self, p, J):
        """``J^T g(p) J`` for ``g = e^{2 phi} delta``."""
        f = np.exp(2.0 * self.metric.phi(p))[..., None, None]
        return f * (np.swapaxes(J, -1, -2) @ J)

    def pullback_metric(self, y1, ypp):
        """Components of g in Fermi coordinates at (y1, y'')."""
        return self._pullback(*self._point_and_jacobian(y1, ypp))

    # -- inverse ------------------------------------------------------------

    def inverse(self, p):
        """Fermi coordinates of a chart point within the tube, by Newton's
        method on the forward map from the nearest axis node (one step on a
        flat chart, where the map is affine)."""
        p = np.asarray(p, dtype=float)
        path = self.path
        y = np.zeros(self.metric.dim)
        y[0] = path.t[int(np.argmin(np.sum((path.x - p) ** 2, axis=1)))]
        for _ in range(INVERSE_MAXIT):
            fwd, J = self._point_and_jacobian(y[0], y[1:])
            res = fwd - p
            if np.linalg.norm(res) < INVERSE_TOL:
                break
            y = y - np.linalg.solve(J, res)
        else:
            raise OutsideTube("Fermi inversion did not converge")
        y1, ypp = y[0], y[1:]
        if np.linalg.norm(ypp) > self.delta_prime * (1 + 1e-9):
            raise OutsideTube(f"|y''| = {np.linalg.norm(ypp):.4g} "
                              f"exceeds tube radius {self.delta_prime}")
        if not (path.t[0] - 1e-9 <= y1 <= path.t[-1] + 1e-9):
            raise OutsideTube("axis coordinate outside the traced range")
        return float(y1), np.asarray(ypp)
