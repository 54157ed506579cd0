"""Complex Jacobi and Riccati fields along a geodesic.

Along a unit-speed geodesic with parallel frame ``e_2..e_{n-1}`` the geodesic
deviation operator is the frame-projected tidal matrix
``K_ab = g(R(e_a, v) v, e_b)`` (positive and equal to the sectional curvature
on round models).  Matrix fields solve ``Y'' + K(t) Y = 0``; admissible weight
families carry a non-degenerate anchor with symmetric Riccati matrix
``H = Y' Y^{-1}`` of positive imaginary part, and these properties propagate
along the whole interval together with the conserved quantity
``det(Im H) |det Y|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import (BranchAmbiguity, ConjugatePointHit, InvalidArgument,
                     SingularAnchor)
from .geometry import _conn, linear_sweep, rk4_step, stage_times

__all__ = [
    "CurvaturePath", "ComplexJacobiField", "RiccatiPath",
    "curvature_along", "solve_jacobi", "real_pair", "epsilon_family",
    "riccati_path", "conjugate_scan", "det_root_branch",
]


# The sampled paths below build their splines on first evaluation.

# ---------------------------------------------------------------------------
# curvature along the geodesic
# ---------------------------------------------------------------------------

@dataclass
class CurvaturePath:
    """Tidal curvature matrices in the parallel frame, sampled along t."""

    t: np.ndarray
    K: np.ndarray             # (N, m, m)

    _spl = cached_property(lambda self: CubicSpline(self.t, self.K, axis=0))

    @property
    def m(self):
        return self.K.shape[1]

    def at(self, t):
        return self._spl(t)


def curvature_along(path):
    """Frame-projected tidal operator ``K_ab(t)`` along a traced geodesic,
    in closed form from the gradient and Hessian of the conformal factor."""
    metric = path.chart.metric
    x, v, e = path.x, path.v[..., None], path.frame
    a, H = metric.grad_phi(x)[..., None], metric.hess_phi(x)
    # A(e) = R(e, v) v = d_e Gamma(v, v) - d_v Gamma(e, v)
    #                    + Gamma(e, Gamma(v, v)) - Gamma(v, Gamma(e, v))
    A = (_conn(H @ e, v, v) - _conn(H @ v, e, v)
         + _conn(a, e, _conn(a, v, v)) - _conn(a, v, _conn(a, e, v)))
    f = np.exp(2.0 * metric.phi(x))[..., None, None]
    return CurvaturePath(t=path.t.copy(), K=f * (np.swapaxes(A, -1, -2) @ e))


# ---------------------------------------------------------------------------
# jacobi / riccati fields
# ---------------------------------------------------------------------------

@dataclass
class ComplexJacobiField:
    """Matrix solution of ``Y'' + K Y = 0`` with its derivative."""

    t: np.ndarray
    Y: np.ndarray             # (N, m, m) complex
    Yd: np.ndarray
    tau0: float
    Y0: np.ndarray
    Y1: np.ndarray
    admissible: bool = False
    eps: float | None = None

    _sy = cached_property(lambda self: CubicSpline(self.t, self.Y, axis=0))
    _syd = cached_property(lambda self: CubicSpline(self.t, self.Yd, axis=0))

    @property
    def m(self):
        return self.Y.shape[1]

    def at(self, t):
        return self._sy(t)

    def deriv_at(self, t):
        return self._syd(t)

    def det(self, t):
        return np.linalg.det(self._sy(np.asarray(t)))

    def to_csv(self, path):
        m = self.m
        cols = [self.t]
        names = ["t"]
        for i in range(m):
            for j in range(m):
                cols.append(self.Y[:, i, j].real)
                names.append(f"ReY{i+1}{j+1}")
        for i in range(m):
            for j in range(m):
                cols.append(self.Y[:, i, j].imag)
                names.append(f"ImY{i+1}{j+1}")
        det = np.linalg.det(self.Y)
        cols += [det.real, det.imag]
        names += ["detY_re", "detY_im"]
        H = riccati_path(self)
        cols.append(H.c_cons)
        names.append("c_cons")
        np.savetxt(path, np.column_stack(cols), delimiter=",",
                   header=",".join(names), comments="", fmt="%.12g")


def _sweep(K, tau0, Y0, Y1):
    """RK4 for ``(Y, Y')`` over K's grid from (m, k) anchor data at ``tau0``,
    outward from the node nearest tau0.

    The state ``[Y; Y']`` solves the linear system with matrix
    ``[[0, I], [-K, 0]]``, sampled once at the nodes and half-nodes, and
    ``linear_sweep`` composes its RK4 step maps; an anchor off the node
    first takes one partial step there with K's spline at every stage.
    """
    m = K.m
    i0 = int(np.argmin(np.abs(K.t - tau0)))
    if tau0 != K.t[i0]:
        Y0, Y1 = rk4_step(lambda t, y: (y[1], -K.at(t) @ y[0]), tau0,
                          (Y0, Y1), K.t[i0] - tau0)
    Kt = K.at(stage_times(K.t))
    A = np.zeros((len(Kt), 2 * m, 2 * m))
    A[:, :m, m:] = np.eye(m)
    A[:, m:, :m] = -Kt
    out = linear_sweep(K.t, A, np.concatenate([Y0, Y1]), i0)
    return out[:, :m], out[:, m:]


def solve_jacobi(K, tau0, Y0, Y1, require_admissible=False):
    """Solve the matrix deviation equation with anchor data at ``tau0``."""
    m = K.m
    Y0m = np.asarray(Y0, dtype=complex).reshape(m, m)
    Y1m = np.asarray(Y1, dtype=complex).reshape(m, m)
    admissible = False
    if require_admissible:
        if abs(np.linalg.det(Y0m)) < 1e-14:
            raise SingularAnchor("anchor matrix is degenerate")
        H0 = Y1m @ np.linalg.inv(Y0m)
        sym = np.max(np.abs(H0 - H0.T))
        imH = (H0 - H0.conj().T) / 2j
        im_min = np.min(np.linalg.eigvalsh(imH))
        if sym > 1e-10 or im_min <= 0:
            raise SingularAnchor("anchor fails the admissibility condition")
        admissible = True
    Y, Yd = _sweep(K, tau0, Y0m, Y1m)
    return ComplexJacobiField(t=K.t, Y=Y, Yd=Yd, tau0=float(tau0),
                              Y0=Y0m, Y1=Y1m, admissible=admissible)


def real_pair(K, anchor="point", tau0=None):
    """Real solutions (X, Z): X vanishing at the anchor with unit rate,
    Z with identity value and zero rate.  ``anchor`` is "point" (tau0 = 0)
    or "entry" (tau0 = left end of the extended grid)."""
    m = K.m
    if tau0 is None:
        tau0 = 0.0 if anchor == "point" else float(K.t[0])
    eye = np.eye(m, dtype=complex)
    zero = np.zeros((m, m), dtype=complex)
    # one sweep of the stacked columns [X | Z]
    Y, Yd = _sweep(K, tau0, np.hstack([zero, eye]), np.hstack([eye, zero]))
    X = ComplexJacobiField(t=K.t, Y=Y[..., :m], Yd=Yd[..., :m],
                           tau0=float(tau0), Y0=zero, Y1=eye)
    Z = ComplexJacobiField(t=K.t, Y=Y[..., m:], Yd=Yd[..., m:],
                           tau0=float(tau0), Y0=eye, Y1=zero)
    return X, Z


def epsilon_family(K, eps, anchor="point", pair=None):
    """Admissible family ``Y = X - i eps Z`` anchored at the reconstruction
    point (``anchor="point"``) or at the extended entry time."""
    if eps <= 0:
        raise SingularAnchor("family parameter must be positive")
    X, Z = pair if pair is not None else real_pair(K, anchor)
    Y = ComplexJacobiField(
        t=X.t, Y=X.Y - 1j * eps * Z.Y, Yd=X.Yd - 1j * eps * Z.Yd,
        tau0=X.tau0, Y0=X.Y0 - 1j * eps * Z.Y0, Y1=X.Y1 - 1j * eps * Z.Y1,
        admissible=True, eps=float(eps))
    return Y


def wronskian(Z, X):
    """Scalar-case Wronskian ``Z' X - X' Z`` on the common grid."""
    if X.m != 1:
        raise InvalidArgument("wronskian is a scalar-case diagnostic")
    return (Z.Yd[:, 0, 0] * X.Y[:, 0, 0] - X.Yd[:, 0, 0] * Z.Y[:, 0, 0]).real


# ---------------------------------------------------------------------------
# riccati companion
# ---------------------------------------------------------------------------

@dataclass
class RiccatiPath:
    t: np.ndarray
    H: np.ndarray             # (N, m, m) complex symmetric
    c_cons: np.ndarray        # det(Im H) |det Y|^2 per sample

    _spl = cached_property(lambda self: CubicSpline(self.t, self.H, axis=0))

    def at(self, t):
        return self._spl(t)

    def min_im_eig(self):
        imH = (self.H - np.conj(np.swapaxes(self.H, 1, 2))) / 2j
        return float(np.min(np.linalg.eigvalsh(imH)))

    def conservation_drift(self):
        c = self.c_cons
        return float((np.max(c) - np.min(c)) / np.mean(c))

    def constant(self):
        return float(np.mean(self.c_cons))


def riccati_path(Y):
    """Riccati companion ``H = Y' Y^{-1}`` with the conserved quantity, on
    the whole sample grid of ``Y``.

    Raises ``ConjugatePointHit`` when |det Y| collapses on the grid.
    """
    det = np.linalg.det(Y.Y)
    scale = np.max(np.abs(det))
    if np.min(np.abs(det)) < 1e-12 * scale:
        raise ConjugatePointHit("det Y vanishes on the sample grid")
    H = np.einsum("nij,njk->nik", Y.Yd, np.linalg.inv(Y.Y))
    imH = (H - np.conj(np.swapaxes(H, 1, 2))) / 2j
    c = np.linalg.det(imH).real * np.abs(det) ** 2
    return RiccatiPath(t=Y.t.copy(), H=H, c_cons=c)


# ---------------------------------------------------------------------------
# conjugate points and the determinant branch
# ---------------------------------------------------------------------------

def conjugate_scan(K, anchor=0.0, window=None):
    """Zeros of det X away from the anchor, located by bisection on the
    spline of det X.  ``window`` defaults to the full sampled range."""
    m = K.m
    X = solve_jacobi(K, anchor, np.zeros((m, m)), np.eye(m))
    t = X.t
    detX = np.linalg.det(X.Y).real
    spl = CubicSpline(t, detX)
    lo = window[0] if window else t[0]
    hi = window[1] if window else t[-1]
    grid = np.linspace(lo, hi, 4 * len(t))
    vals = spl(grid)
    hits = []
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        if b <= anchor + 1e-8 and a >= anchor - 1e-8:
            continue
        if vals[i] == 0.0:
            hits.append(a)
        elif vals[i] * vals[i + 1] < 0.0:
            hits.append(brentq(spl, a, b, xtol=1e-12))
    # drop the structural zero at the anchor and deduplicate
    out = []
    for r in hits:
        if abs(r - anchor) < 1e-6:
            continue
        if not out or abs(r - out[-1]) > 1e-8:
            out.append(float(r))
    return out


def det_root_branch(Y, tgrid):
    """Continuous branch of ``(det Y)^{-1/2}`` along ``tgrid``.

    The global sign is fixed at the anchor time ``Y.tau0`` (the nearest node
    of ``tgrid``) through the principal matrix
    square root, ``w(tau0) = det(sqrtm(Y(tau0)))^{-1}``; for the standard
    families this reproduces the local model ``(t - i eps)^{-(m)}``-roots used
    by the inversion identities (e.g. ``+i/eps`` at the anchor when m = 2).
    """
    from scipy.linalg import sqrtm

    det = Y.det(tgrid)
    amin, amax = np.min(np.abs(det)), np.max(np.abs(det))
    if amin < 1e-12 * amax:
        raise BranchAmbiguity("det Y collapses; branch continuation undefined")
    theta = np.unwrap(np.angle(det))
    w = np.abs(det) ** (-0.5) * np.exp(-0.5j * theta)
    i0 = int(np.argmin(np.abs(np.asarray(tgrid) - Y.tau0)))
    target = 1.0 / complex(np.linalg.det(sqrtm(Y.at(tgrid[i0]))))
    ratio = target / w[i0]
    sign = 1.0 if ratio.real >= 0 else -1.0
    return sign * w
