"""Weighted ray transforms along a single geodesic and their local inversion.

The forward maps integrate ``f (det Y)^{-1/2}`` (first kind) and
``f |det Y|^{-1}`` (second kind) over the maximal window of a geodesic, with a
continuous square-root branch fixed at the family anchor.  The inversion
drivers see only transform values on a family-parameter grid, never ``f``
itself: that mirrors what boundary data provides downstream.  Peaked weights
are handled by a sinh-stretched composite Simpson rule whose node density
follows the collapse scale of ``det Y``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (IllConditioned, InvalidArgument, NoConvergence,
                     NonMonotone, NonRealInput)
from .jacobi import det_root_branch

__all__ = [
    "GeodesicSample", "TransformCurve", "InversionReport",
    "j1_forward", "j2_forward", "normalization_integral",
    "forward_curve", "invert_j2_point", "invert_j1_point_split",
    "invert_j1_moments",
]


# ---------------------------------------------------------------------------
# sampled data containers
# ---------------------------------------------------------------------------

class GeodesicSample:
    """Values of a function restricted to a geodesic, with a dense evaluator."""

    def __init__(self, t, values, window=None):
        self.t = np.asarray(t, dtype=float)
        self.values = np.asarray(values)
        self.window = (float(self.t[0]), float(self.t[-1])) if window is None \
            else (float(window[0]), float(window[1]))
        self._spl = CubicSpline(self.t, self.values)

    @classmethod
    def from_time_function(cls, path, fn):
        return cls(path.t, fn(path.t), window=(path.tau_minus, path.tau_plus))

    def at(self, t):
        return self._spl(t)


@dataclass
class TransformCurve:
    """Transform values over a strictly decreasing positive parameter grid."""

    eps: np.ndarray
    values: np.ndarray
    kind: str                      # "first" | "second"
    zeta: float | None = None

    def __post_init__(self):
        self.eps = np.asarray(self.eps, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if np.any(self.eps <= 0) or np.any(np.diff(self.eps) >= 0):
            raise InvalidArgument("parameter grid must be positive, strictly decreasing")

    def to_csv(self, path):
        data = np.column_stack([self.eps, self.values.real, self.values.imag])
        np.savetxt(path, data, delimiter=",", header="eps,J_re,J_im",
                   comments="", fmt="%.12g")


@dataclass
class InversionReport:
    estimate: complex
    error_bound: float
    eps_grid: list
    zeta: object = None
    diagnostics: dict = field(default_factory=dict)

    def to_json(self, path=None):
        payload = {
            "estimate": [float(np.real(self.estimate)), float(np.imag(self.estimate))],
            "error_bound": float(self.error_bound),
            "eps_grid": [float(e) for e in self.eps_grid],
            "zeta": self.zeta,
        }
        payload.update({k: v for k, v in self.diagnostics.items()
                        if isinstance(v, (int, float, str, list))})
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _simpson_weights(n, h):
    """Composite Simpson weights on ``n`` (odd) uniform nodes of spacing h."""
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def _forward(f, Y, weight):
    """Integral of ``f * weight(Y, t)`` over the window of ``f``: composite
    Simpson in u on ``t = center + scale sinh(u)``, centred where ``|det Y|``
    is least with a quarter of its m-th root there as the scale."""
    a, b = f.window
    tt = np.linspace(a, b, 2001)
    d = np.abs(Y.det(tt))
    i = int(np.argmin(d))
    center = tt[i]
    scale = min(max(d[i] ** (1.0 / Y.m) / 4.0, 1e-9), b - a)
    u = np.linspace(math.asinh((a - center) / scale),
                    math.asinh((b - center) / scale), 4001)
    t = center + scale * np.sinh(u)
    t[0], t[-1] = a, b
    vals = f.at(t) * weight(Y, t) * (scale * np.cosh(u))
    return complex(np.sum(_simpson_weights(len(u), u[1] - u[0]) * vals))


def j1_forward(f, Y):
    """First-kind transform: integral of f (det Y)^{-1/2} over f.window."""
    return _forward(f, Y, det_root_branch)


def j2_forward(f, Y):
    """Second-kind transform: integral of f |det Y|^{-1} over f.window."""
    return _forward(f, Y, lambda Y, t: np.abs(Y.det(t)) ** (-1.0))


def forward_curve(f, family, eps_grid, kind="second"):
    """Evaluate a transform over a family parameter grid, on the window of
    ``f``.

    ``family`` maps eps to an admissible Jacobi field.
    """
    eps_grid = np.asarray(sorted(eps_grid, reverse=True), dtype=float)
    fwd = j1_forward if kind == "first" else j2_forward
    vals = [fwd(f, family(e)) for e in eps_grid]
    return TransformCurve(eps=eps_grid, values=np.asarray(vals), kind=kind)


def normalization_integral(zeta, eps, n):
    """Closed form of the model integral of |t - i eps|^{-(n-2)} on [-zeta, zeta]."""
    if n == 3:
        return 2.0 * math.asinh(zeta / eps)
    if n == 4:
        return 2.0 / eps * math.atan(zeta / eps)
    raise InvalidArgument("dimension must be 3 or 4")


# ---------------------------------------------------------------------------
# extrapolation helpers
# ---------------------------------------------------------------------------

def _apply(w, data):
    """``sum_i w[..., i] data[i]``, one row of ``data`` at a time, so each
    trailing column's result is bitwise that of its own call."""
    tail = (1,) * (np.ndim(data) - 1)
    return sum(wi.reshape(wi.shape + tail) * row
               for wi, row in zip(np.moveaxis(w, -1, 0), np.asarray(data)))


def _fit(design, data):
    """Least-squares parameters of ``design @ p = data`` and the largest
    residual per column, with the rows of ``pinv(design)`` as weights; a
    square design interpolates, so its residual is ``inf`` (unknown)."""
    rows, params = np.shape(design)
    if rows < params:
        raise InvalidArgument(f"fewer data rows ({rows}) than parameters ({params})")
    p = _apply(np.linalg.pinv(design), data)
    if rows == params:
        return p, np.full(np.shape(data)[1:], np.inf)
    return p, np.max(np.abs(_apply(design, p) - data), axis=0)


def _extrapolants(x, y):
    """Values at 0 of the polynomials through the last 1, 2, ... (at most
    J2_POINTS) nodes ``(x, y)``, each trailing column of ``y`` on its own."""
    x, y = x[::-1][:J2_POINTS], y[::-1][:J2_POINTS]
    return [_fit(np.vander(x[:k], k, increasing=True), y[:k])[0][0]
            for k in range(1, len(x) + 1)]


def _check_columns(value, bound, message):
    """Raise ``NoConvergence`` if ``value > bound`` in any column, with
    ``message`` formatted with the value of the column of largest
    ``value / bound``, which it names."""
    if np.any(value > bound):
        worst = np.unravel_index(np.argmax(value / bound), np.shape(value))
        where = f" (worst column {tuple(map(int, worst))})" if worst else ""
        raise NoConvergence(message.format(value[worst]) + where)


# accepted relative spread of the second-kind limit, extrapolation depth of
# both point limits; window sizes and accepted spread of the split route
J2_RTOL, J2_POINTS = 0.25, 5
SPLIT_ZETAS, SPLIT_RTOL = (0.4, 0.2, 0.1), 0.5


def invert_j2_point(oracle, eps_grid, zeta, n):
    """Point value of f at the family anchor from second-kind transform data.

    Divides the data by the model normalization and extrapolates to the
    singular limit in the variable x = 1/normalization, in which the residual
    of the limiting identity is analytic for smooth inputs.  Oracle values
    may carry trailing axes: ``estimate`` and ``error_bound`` are then arrays
    over those columns, and a check that fails in any column raises.
    """
    eps_grid = np.asarray(sorted(eps_grid, reverse=True), dtype=float)
    J = np.array([oracle(e) for e in eps_grid], dtype=complex)
    N = np.array([normalization_integral(zeta, e, n) for e in eps_grid])
    est = J / N.reshape((-1,) + (1,) * (J.ndim - 1))
    diag = _extrapolants(1.0 / N, est)
    value = diag[-1]
    incs = np.abs(np.diff(diag, axis=0))[-2:]
    err = incs.max(axis=0) if len(incs) else np.full(J.shape[1:], np.inf)
    floor = 1e-12 + 0.01 * np.max(np.abs(est), axis=0)
    trend = abs(est[-1] - est[-2]) if len(est) > 1 else np.zeros(J.shape[1:])
    _check_columns(trend, J2_RTOL * np.maximum(abs(est[-1]), floor),
                   "normalized data still trending; "
                   "parameter grid not in the asymptotic regime")
    _check_columns(err, J2_RTOL * np.maximum(abs(value), floor),
                   "extrapolants differ by {:.3g}")
    return InversionReport(estimate=value, error_bound=err[()],
                           eps_grid=list(eps_grid), zeta=float(zeta),
                           diagnostics={"raw_estimates":
                                        [repr(v) for v in est.ravel()]})


def invert_j1_point_split(oracle, eps_grid, f_check=None):
    """Point value of a real f from first-kind data (even transversal rank).

    Uses the conjugate split S_eps = J - conj(J) = 2i Im J; Im J / pi tends to
    f at the anchor.  The parameter limit runs per zeta over the sub-grid
    eps <= zeta / 2 and the small-window bias model a + C1 * zeta is fitted
    across the zeta loop; the intercept is returned with a fitted bound.
    """
    if f_check is not None and np.max(np.abs(np.imag(f_check))) > 1e-12:
        raise NonRealInput("split route requires a real-valued integrand")
    eps_grid = np.asarray(sorted(eps_grid, reverse=True), dtype=float)
    im = np.array([oracle(e) for e in eps_grid]).imag / math.pi
    zs, vs, spreads = [], [], []
    for z in SPLIT_ZETAS:
        sub = eps_grid <= 0.5 * z
        if np.sum(sub) < 2:
            continue
        diag = _extrapolants(eps_grid[sub], im[sub])
        zs.append(z)
        vs.append(float(diag[-1]))
        spreads.append(abs(diag[-1] - diag[-2]))
    if len(zs) < 2:
        raise NoConvergence("not enough (zeta, eps) resolution for the split route")
    zs, vs = np.array(zs), np.array(vs)
    (a, c1), resid = _fit(np.column_stack([np.ones_like(zs), zs]), vs)
    err = resid + float(np.mean(spreads)) + abs(c1) * float(np.min(zs)) * 0.5
    if np.mean(spreads) > SPLIT_RTOL * max(abs(a), 1e-12 + 0.01 * np.max(np.abs(vs))):
        raise NoConvergence("parameter-limit extrapolants failed to settle")
    return InversionReport(estimate=float(a), error_bound=err,
                           eps_grid=list(eps_grid), zeta=list(SPLIT_ZETAS),
                           diagnostics={"bias_slope": float(c1),
                                        "zeta_estimates": [float(v) for v in vs]})


# ---------------------------------------------------------------------------
# moment route (scalar transversal rank)
# ---------------------------------------------------------------------------

# moment route: relative ridges of the density and profile fits, the largest
# accepted design condition number, density basis size beyond K_max, samples
DENSITY_RIDGE, PROFILE_RIDGE, MOMENT_COND_CAP = 1e-10, 1e-8, 1e14
DENSITY_PAD, MOMENT_N_OUT = 3, 201


def invert_j1_moments(oracle, X, Z, window, K_max=8, eps_grid=None):
    """Reconstruct f along the geodesic from first-kind data (scalar rank).

    Pipeline: extract the weighted power moments of f by least-squares
    against the parameter family of weights (the expansion of
    ``(1 - i eps Z/X)^{-1/2}`` in the parameter, fitted with its exact sum
    for conditioning); change variables to the strictly decreasing ratio of
    the two real solutions; recover the transformed profile by regularized
    Legendre least squares; map back to f(gamma(t)).

    Oracle values may carry trailing axes, the columns of the returned
    sample and moments; every column shares the design and both ridge solves.

    Works best with the family anchor retracted well before the entry time:
    the ratio spread of Z/X over the window sets the conditioning of both
    fits.
    """
    from numpy.polynomial import legendre as L

    ta, tb = float(window[0]), float(window[1])
    tt = np.linspace(ta, tb, 4001)
    Xv = X.at(tt)[:, 0, 0].real
    Zv = Z.at(tt)[:, 0, 0].real
    if np.min(Xv) <= 0:
        raise NonMonotone("real solution X must stay positive on the window")
    Xt = Zv / Xv
    if np.max(np.diff(Xt)) >= 0:
        raise NonMonotone("ratio Z/X is not strictly decreasing")
    xt_max, xt_min = Xt[0], Xt[-1]

    if eps_grid is None:
        eps_grid = np.linspace(0.08, 0.9, 4 * (K_max + 1)) / xt_max
    eps_grid = np.asarray(sorted(eps_grid), dtype=float)
    J = np.array([oracle(e) for e in eps_grid], dtype=complex)
    data = np.concatenate([J.real, J.imag])

    # the reconstruction is linear in the data, so each stage below maps the
    # 2 n_eps real data coordinates; ``_apply`` meets the data last

    # stage (a): density rho = f X^{-1/2} in a Legendre basis fitted against
    # the exact weight family; moments are quadratures of the fit
    nq = 1601
    tq = np.linspace(ta, tb, nq)
    wq = _simpson_weights(nq, tq[1] - tq[0])
    Xtq = np.interp(tq, tt, Xt)
    nba = K_max + DENSITY_PAD
    P = L.legvander(2.0 * (tq - ta) / (tb - ta) - 1.0, nba - 1)
    Wgt = (1.0 - 1j * np.outer(eps_grid, Xtq)) ** (-0.5)
    G = (Wgt * wq) @ P
    design = np.vstack([G.real, G.imag])
    cond = np.linalg.cond(design)
    if cond > MOMENT_COND_CAP:
        raise IllConditioned(f"moment design condition number {cond:.3g}")
    lam_a = DENSITY_RIDGE * np.trace(design.T @ design) / nba
    coef = np.linalg.solve(design.T @ design + lam_a * np.eye(nba), design.T)
    k = np.arange(K_max + 1)[:, None]
    M = (wq * Xtq ** k) @ (P @ coef)

    # Legendre LS on the transformed interval against the raw moments
    lo, hi = xt_min, xt_max
    q_nodes, q_w = L.leggauss(64)
    t_tilde = 0.5 * (hi - lo) * (q_nodes + 1) + lo
    jacq = 0.5 * (hi - lo)
    nb = K_max + 1
    # A[k, q] = int t~^k P_q dt~
    A = (t_tilde ** k * q_w) @ L.legvander(q_nodes, K_max) * jacq
    row_scale = np.max(np.abs(A), axis=1)
    As = A / row_scale[:, None]
    Ms = M / row_scale[:, None]
    lam = PROFILE_RIDGE * np.trace(As.T @ As) / nb
    beta = np.linalg.solve(As.T @ As + lam * np.eye(nb), As.T @ Ms)

    # map back to the geodesic parameter
    t_out = np.linspace(ta, tb, MOMENT_N_OUT)
    Xo = X.at(t_out)[:, 0, 0].real
    Zo = Z.at(t_out)[:, 0, 0].real
    Xdo = X.deriv_at(t_out)[:, 0, 0].real
    Zdo = Z.deriv_at(t_out)[:, 0, 0].real
    Xto = Zo / Xo
    Xtd = (Zdo * Xo - Xdo * Zo) / Xo ** 2
    s_out = 2.0 * (Xto - lo) / (hi - lo) - 1.0
    g = L.legvander(np.clip(s_out, -1.0, 1.0), K_max) @ beta
    f_rec = _apply(g * (np.abs(Xtd) * np.sqrt(Xo))[:, None], data)
    return GeodesicSample(t_out, f_rec, window=(ta, tb)), {
        "moments": _apply(M, data).tolist(),
        "condition": float(cond), "basis_size": nb,
        "eps_grid": eps_grid.tolist(),
    }
