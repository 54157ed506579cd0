"""Gaussian beam quasimodes along a geodesic and their exponential completion.

The phase is a polynomial jet in the tube offsets whose quadratic part is the
Riccati matrix of an admissible Jacobi family; orders three and four solve
linear transport systems that cancel the eikonal defect order by order.  The
principal amplitude is the inverse square root of det Y on the continuous
branch, higher principal orders solve axis transport, and the first
subprincipal correction solves a Cauchy-Riemann equation in the (x0, axis)
plane by convolution with the Cauchy kernel.  Assembly evaluates the analytic
defect of the truncated beam (cutoff commutators included) and feeds it to
the cylinder right inverse, which returns the remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, RegularGridInterpolator

from .cylinder import conjugated_solve
from .errors import UnsupportedOrder
from .geometry import rk4_sweep

__all__ = [
    "PhaseJet", "AmplitudeJet", "CgoSolution",
    "build_phase", "build_amplitude", "quasimode_eval", "assemble_cgo",
    "dbar_solve", "smooth_cutoff", "quasimode_lp_norm",
    "conjugated_defect_norm", "eikonal_defect_exact", "tube_grid",
]


# ---------------------------------------------------------------------------
# truncated polynomial jets in the tube offsets
# ---------------------------------------------------------------------------

def monomials(m, order):
    """Multi-indices in m offset variables with total degree <= order."""
    if m == 1:
        return [(k,) for k in range(order + 1)]
    out = []
    for total in range(order + 1):
        for i in range(total + 1):
            out.append((total - i, i))
    return out


class YJet:
    """Polynomial in the offsets with coefficient arrays over the axis grid."""

    def __init__(self, m, order, coeffs=None):
        self.m = m
        self.order = order
        self.coeffs = dict(coeffs or {})
        self._spl = None          # built on first evaluation; coefficients
                                  # are mutated only during construction

    def copy(self):
        return YJet(self.m, self.order,
                    {a: np.array(c) for a, c in self.coeffs.items()})

    def get(self, alpha, n):
        c = self.coeffs.get(alpha)
        return np.zeros(n, dtype=complex) if c is None else c

    def add(self, other):
        out = self.copy()
        for a, c in other.coeffs.items():
            out.coeffs[a] = out.coeffs[a] + c if a in out.coeffs else np.array(c)
        return out

    def scale(self, s):
        return YJet(self.m, self.order, {a: s * c for a, c in self.coeffs.items()})

    def conj(self):
        return YJet(self.m, self.order,
                    {a: np.conj(c) for a, c in self.coeffs.items()})

    def mul(self, other, order=None):
        order = self.order if order is None else order
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                tot = tuple(x + y for x, y in zip(a, b))
                if sum(tot) > order:
                    continue
                prev = out.get(tot)
                out[tot] = ca * cb if prev is None else prev + ca * cb
        return YJet(self.m, order, out)

    def dy(self, j):
        out = {}
        for a, c in self.coeffs.items():
            if a[j] == 0:
                continue
            b = list(a)
            b[j] -= 1
            out[tuple(b)] = a[j] * c
        return YJet(self.m, self.order, out)

    def dy1(self, t):
        return YJet(self.m, self.order,
                    {a: CubicSpline(t, c).derivative()(t)
                     for a, c in self.coeffs.items()})

    def order_part(self, k):
        return YJet(self.m, self.order,
                    {a: c for a, c in self.coeffs.items() if sum(a) == k})

    def eval_at(self, tgrid, t, ypp):
        """Evaluate at axis positions t and offsets ypp (..., m)."""
        t = np.asarray(t)
        ypp = np.asarray(ypp)
        if self._spl is None:
            self._spl = {a: CubicSpline(tgrid, c)
                         for a, c in self.coeffs.items()}
        out = np.zeros(np.broadcast(t, ypp[..., 0]).shape, dtype=complex)
        for a, spl in self._spl.items():
            mono = np.ones_like(out)
            for j, p in enumerate(a):
                if p:
                    mono = mono * ypp[..., j] ** p
            out = out + spl(t) * mono
        return out


def jet_const(m, order, n, value=1.0):
    return YJet(m, order, {(0,) * m: np.full(n, value, dtype=complex)})


def _mat_mul(A, B, order):
    d = len(A)
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            acc = None
            for k in range(d):
                term = A[i][k].mul(B[k][j], order)
                acc = term if acc is None else acc.add(term)
            out[i][j] = acc
    return out


def _mat_inverse_jet(G, order, n):
    """Neumann inverse of a metric jet G = I + P with P = O(|y''|)."""
    d = len(G)
    m = G[0][0].m
    eye = [[jet_const(m, order, n, 1.0 if i == j else 0.0)
            for j in range(d)] for i in range(d)]
    P = [[G[i][j].add(eye[i][j].scale(-1.0)) for j in range(d)] for i in range(d)]
    out = [[eye[i][j].copy() for j in range(d)] for i in range(d)]
    term = eye
    sign = -1.0
    for _ in range(order):
        term = _mat_mul(term, P, order)
        for i in range(d):
            for j in range(d):
                out[i][j] = out[i][j].add(term[i][j].scale(sign))
        sign *= -1.0
    return out


def _det_jet(G, order):
    d = len(G)
    if d == 1:
        return G[0][0]
    if d == 2:
        return G[0][0].mul(G[1][1], order).add(
            G[0][1].mul(G[1][0], order).scale(-1.0))
    det = None
    for j in range(3):
        minor = G[1][(j + 1) % 3].mul(G[2][(j + 2) % 3], order).add(
            G[1][(j + 2) % 3].mul(G[2][(j + 1) % 3], order).scale(-1.0))
        term = G[0][j].mul(minor, order)
        det = term if det is None else det.add(term)
    return det


def _power_series_jet(u, order, n, exponent):
    """(1 + u)^exponent for a jet u with vanishing constant part."""
    out = jet_const(u.m, order, n, 1.0)
    term = jet_const(u.m, order, n, 1.0)
    coef = 1.0
    for k in range(1, order + 1):
        coef *= (exponent - (k - 1)) / k
        term = term.mul(u, order)
        out = out.add(term.scale(coef))
    return out


def _normalized_series(u, order, n, exponent):
    """u^exponent for a jet with nonvanishing leading coefficient."""
    lead = u.coeffs[(0,) * u.m]
    rest = YJet(u.m, order, {a: c / lead for a, c in u.coeffs.items()
                             if sum(a) > 0})
    core = _power_series_jet(rest, order, n, exponent)
    return YJet(u.m, order, {a: lead ** exponent * c
                             for a, c in core.coeffs.items()})


# ---------------------------------------------------------------------------
# metric jets from the tube chart
# ---------------------------------------------------------------------------

def metric_jet(fermi, y1, order):
    """Offset Taylor polynomials of the pullback metric along the axis."""
    metric = fermi.metric
    d = metric.dim
    m = d - 1
    n = len(y1)
    if metric.is_flat:
        return [[jet_const(m, order, n, 1.0 if i == j else 0.0)
                 for j in range(d)] for i in range(d)]
    h_fit = min(0.05, fermi.delta_prime / 6.0)
    if m == 1:
        offs = h_fit * np.arange(-3, 4)[:, None]
    else:
        g1 = h_fit * np.arange(-2, 3)
        offs = np.stack(np.meshgrid(g1, g1, indexing="ij"),
                        axis=-1).reshape(-1, 2)
    monos = monomials(m, order)
    design = np.stack([np.prod(offs ** np.array(a), axis=1) for a in monos],
                      axis=1)
    G = fermi.pullback_metric(y1[:, None], offs[None])      # (n, k, d, d)
    coef = np.einsum("kb,nbij->nkij", np.linalg.pinv(design), G)
    return [[YJet(m, order, {a: coef[:, ia, i, j].astype(complex)
                             for ia, a in enumerate(monos)})
             for j in range(d)] for i in range(d)]


# ---------------------------------------------------------------------------
# phase hierarchy
# ---------------------------------------------------------------------------

@dataclass
class PhaseJet:
    """Phase polynomial with axis-sampled coefficients and geometry jets."""

    y1: np.ndarray
    jet: YJet
    H: np.ndarray
    N: int
    ginv: list
    gdet_sqrt: YJet

    @property
    def m(self):
        return self.jet.m

    def theta(self, t, ypp):
        return self.jet.eval_at(self.y1, t, ypp)

    def grad(self, t, ypp):
        parts = [self.jet.dy1(self.y1).eval_at(self.y1, t, ypp)]
        for j in range(self.m):
            parts.append(self.jet.dy(j).eval_at(self.y1, t, ypp))
        return np.stack(parts, axis=-1)

    def im_quadratic_min(self):
        imH = (self.H - np.conj(np.swapaxes(self.H, 1, 2))) / 2j
        return float(np.min(np.linalg.eigvalsh(imH)))


def _eikonal_defect_jet(theta_jet, ginv, y1, order):
    m = theta_jet.m
    n = len(y1)
    grads = [theta_jet.dy1(y1)] + [theta_jet.dy(j) for j in range(m)]
    acc = jet_const(m, order, n, 1.0)
    for a in range(m + 1):
        for b in range(m + 1):
            term = ginv[a][b].mul(grads[a], order).mul(grads[b], order)
            acc = acc.add(term.scale(-1.0))
    return acc


def _laplace_beltrami_jet(u, ginv, gdet_sqrt, gdet_sqrt_inv, y1, order):
    m = u.m
    grads = [u.dy1(y1)] + [u.dy(j) for j in range(m)]
    acc = None
    for a in range(m + 1):
        flux = None
        for b in range(m + 1):
            term = ginv[a][b].mul(grads[b], order)
            flux = term if flux is None else flux.add(term)
        flux = gdet_sqrt.mul(flux, order)
        dflux = flux.dy1(y1) if a == 0 else flux.dy(a - 1)
        acc = dflux if acc is None else acc.add(dflux)
    return gdet_sqrt_inv.mul(acc, order)


def _coupling_matrix(H, monos_k):
    """(H y . grad'') acting on degree-k monomial coefficient vectors."""
    m = H.shape[-1]
    nk = len(monos_k)
    n = H.shape[0]
    B = np.zeros((n, nk, nk), dtype=complex)
    index = {a: i for i, a in enumerate(monos_k)}
    for ia, a in enumerate(monos_k):
        for i in range(m):
            if a[i] == 0:
                continue
            for j in range(m):
                b = list(a)
                b[i] -= 1
                b[j] += 1
                B[:, index[tuple(b)], ia] += a[i] * H[:, i, j]
    return B


def _transport_sweep(y1, Bfun, Sfun, i0):
    """RK4 for v' = -B v + S with zero data at node i0."""
    v0 = np.zeros(np.atleast_1d(Sfun(y1[0])).shape[0], dtype=complex)
    return rk4_sweep(lambda t, y: (-Bfun(t) @ y[0] + Sfun(t),), y1, (v0,),
                     i0)[0]


def build_phase(path, Y, N=2, ny1=321):
    """Phase jet of order N from an admissible Jacobi family along ``path``."""
    if N < 2 or N > 4:
        raise UnsupportedOrder("phase order must be 2, 3 or 4")
    from .geometry import FermiChart
    from .jacobi import riccati_path

    m = Y.m
    fermi = FermiChart(path)
    y1 = np.linspace(path.t[0], path.t[-1], ny1)
    H = riccati_path(Y).at(y1)
    n = len(y1)
    order = N

    jet = YJet(m, order)
    jet.coeffs[(0,) * m] = y1.astype(complex)
    for i in range(m):
        for j in range(m):
            a = [0] * m
            a[i] += 1
            a[j] += 1
            key = tuple(a)
            prev = jet.coeffs.get(key)
            add = 0.5 * H[:, i, j]
            jet.coeffs[key] = add if prev is None else prev + add

    G = metric_jet(fermi, y1, order)
    ginv = _mat_inverse_jet(G, order, n)
    gdet_sqrt = _normalized_series(_det_jet(G, order), order, n, 0.5)

    i0 = int(np.argmin(np.abs(y1 - Y.tau0)))
    for k in range(3, N + 1):
        monos_k = [a for a in monomials(m, order) if sum(a) == k]
        defect = _eikonal_defect_jet(jet, ginv, y1, order).order_part(k)
        S = np.stack([defect.get(a, n) for a in monos_k], axis=1)
        B = _coupling_matrix(H, monos_k)
        Bs = CubicSpline(y1, B, axis=0)
        Ss = CubicSpline(y1, 0.5 * S, axis=0)
        theta_k = _transport_sweep(y1, Bs, Ss, i0)
        for ia, a in enumerate(monos_k):
            prev = jet.coeffs.get(a)
            jet.coeffs[a] = theta_k[:, ia] if prev is None \
                else prev + theta_k[:, ia]
    return PhaseJet(y1=y1, jet=jet, H=H, N=N, ginv=ginv, gdet_sqrt=gdet_sqrt)


def eikonal_defect_exact(fermi, phase, t, ypp):
    """1 - |d theta|_g^2 with the true pullback metric at one tube point."""
    g = fermi.pullback_metric(float(t), np.asarray(ypp, dtype=float))
    grad = phase.grad(np.asarray(t), np.asarray(ypp))
    return complex(1.0 - grad @ np.linalg.solve(g, grad))


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

def _bump_ratio(u):
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(u > 0, np.exp(-1.0 / np.clip(u, 1e-300, None)), 0.0)


def smooth_cutoff(s, deriv=0):
    """Profile equal to 1 for |s| < 1/2 and 0 for |s| > 1, smooth between.

    ``deriv`` in {0, 1, 2} returns the profile or its |s|-derivatives, in
    closed form.  With u = 2|s| - 1, a = e^{-1/(1-u)} and b = e^{-1/u} the
    profile is chi = a / (a + b); g = ab / (a + b)^2 = chi (1 - chi), which
    does not cancel near chi = 1, and q = (1-u)^{-2} + u^{-2} give
    chi' = -2 g q and chi'' = -4 ((1 - 2 chi)(-g q) q + g q')."""
    s = np.abs(np.asarray(s, dtype=float))
    out = np.ones_like(s) if deriv == 0 else np.zeros_like(s)
    out[s >= 1.0] = 0.0
    mid = (s > 0.5) & (s < 1.0)
    u = (s[mid] - 0.5) / 0.5
    a, b = _bump_ratio(1.0 - u), _bump_ratio(u)
    chi = a / (a + b)
    if deriv == 0:
        out[mid] = chi
        return out
    g = a * b / (a + b) ** 2
    q = (1.0 - u) ** -2 + u ** -2
    if deriv == 1:
        out[mid] = -2.0 * g * q
        return out
    dq = 2.0 * (1.0 - u) ** -3 - 2.0 * u ** -3
    out[mid] = -4.0 * ((1.0 - 2.0 * chi) * (-g * q) * q + g * dq)
    return out


# ---------------------------------------------------------------------------
# amplitude hierarchy
# ---------------------------------------------------------------------------

def _cell_averaged_cauchy(a0, a1, h0, h1):
    """Cell averages of 1/(2 pi z) over the lattice rectangles.

    Stokes gives the cell integral as (i/2) of the contour integral of
    log z dz-bar; with the primitive P(z) = z log(z/u) - z, where u points at
    the cell center so the rotated principal branch is single-valued on the
    cell, the contour collapses to corner differences.  Branch constants drop
    out around closed contours.  The origin cell averages to zero by symmetry.
    """
    X, Y = np.meshgrid(a0, a1, indexing="ij")
    Zc = X + 1j * Y
    absZ = np.abs(Zc)
    u = np.where(absZ > 0, Zc / np.where(absZ > 0, absZ, 1.0), 1.0)

    def prim(zx, zy):
        z = zx + 1j * zy
        w = z / u
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.where(np.abs(w) > 0, np.log(np.where(np.abs(w) > 0, w, 1.0)),
                          0.0)
        return z * lg - z

    xm, xp = X - h0 / 2, X + h0 / 2
    ym, yp = Y - h1 / 2, Y + h1 / 2
    contour = 2.0 * (prim(xp, ym) + prim(xm, yp) - prim(xp, yp) - prim(xm, ym))
    avg = (1j / (4.0 * np.pi)) * contour / (h0 * h1)
    i0 = int(np.argmin(np.abs(a0)))
    i1 = int(np.argmin(np.abs(a1)))
    avg[i0, i1] = 0.0
    return avg


def dbar_solve(F, y0, y1, pad_factor=4):
    """Particular solution of (d/dy0 + i d/dy1) r = F via the Cauchy kernel.

    The source is zero-padded to ``pad_factor`` times its extent and convolved
    with the cell-averaged kernel 1/(2 pi (y0 + i y1)).
    """
    F = np.asarray(F, dtype=complex)
    n0, n1 = F.shape
    h0 = y0[1] - y0[0]
    h1 = y1[1] - y1[0]
    N0, N1 = pad_factor * n0, pad_factor * n1
    buf = np.zeros((N0, N1), dtype=complex)
    buf[:n0, :n1] = F
    a0 = (np.arange(N0) - N0 // 2) * h0
    a1 = (np.arange(N1) - N1 // 2) * h1
    Gam = _cell_averaged_cauchy(a0, a1, h0, h1)
    Gam = np.roll(np.roll(Gam, -(N0 // 2), axis=0), -(N1 // 2), axis=1)
    conv = np.fft.ifft2(np.fft.fft2(buf) * np.fft.fft2(Gam)) * h0 * h1
    return conv[:n0, :n1]


@dataclass
class AmplitudeJet:
    """Principal amplitude jet plus first subprincipal axis corrections."""

    y1: np.ndarray
    v0: YJet
    v00: np.ndarray
    delta: float
    N: int
    transport_defect: float = 0.0
    x0: np.ndarray | None = None
    v1_plus: np.ndarray | None = None     # (nx0, ny1)
    v1_minus: np.ndarray | None = None
    pv0_axis: np.ndarray | None = None    # P v0 on the axis, (nx0, ny1)
    pv0_axis_bar: np.ndarray | None = None

    def v0_eval(self, t, ypp):
        return self.v0.eval_at(self.y1, t, ypp)

    def interp(self, data, x0, t):
        if data is None:
            return np.zeros(np.broadcast(np.asarray(x0), np.asarray(t)).shape,
                            dtype=complex)
        itp = RegularGridInterpolator((self.x0, self.y1), data,
                                      bounds_error=False, fill_value=0.0)
        pts = np.stack(np.broadcast_arrays(np.asarray(x0), np.asarray(t)),
                       axis=-1)
        return itp(pts)


def build_amplitude(path, phase, Y, V1=None, N_amp=1, delta=None):
    """Amplitude jets for both beam signs along ``path``.

    The principal part is y0-independent; with ``N_amp >= 1`` the axis
    subprincipal corrections are solved on an (x0, axis) grid.
    """
    from .jacobi import det_root_branch

    y1 = phase.y1
    n = len(y1)
    m = phase.m
    order = phase.N
    delta = path.chart.tube_radius if delta is None else float(delta)

    Ys = Y          # admissible family supplying both branch and Riccati data
    v00 = det_root_branch(Ys, y1)
    trH = np.trace(phase.H, axis1=1, axis2=2)

    v0 = YJet(m, order, {(0,) * m: v00.astype(complex)})
    ginv = phase.ginv
    gdet = phase.gdet_sqrt
    gdet_inv = _normalized_series(gdet, order, n, -1.0)
    lap_theta = _laplace_beltrami_jet(phase.jet, ginv, gdet, gdet_inv, y1, order)

    def transport_jet(u):
        grads = [u.dy1(y1)] + [u.dy(j) for j in range(m)]
        tgrads = [phase.jet.dy1(y1)] + [phase.jet.dy(j) for j in range(m)]
        acc = None
        for a in range(m + 1):
            for b in range(m + 1):
                term = ginv[a][b].mul(tgrads[a], order).mul(grads[b], order)
                acc = term if acc is None else acc.add(term)
        return acc.scale(2j).add(lap_theta.mul(u, order).scale(1j))

    for j in range(1, order + 1):
        monos_j = [a for a in monomials(m, order) if sum(a) == j]
        defect = transport_jet(v0).order_part(j)
        S = np.stack([defect.get(a, n) for a in monos_j], axis=1)
        B = _coupling_matrix(phase.H, monos_j) \
            + 0.5 * trH[:, None, None] * np.eye(len(monos_j))[None]
        Bs = CubicSpline(y1, B, axis=0)
        Ss = CubicSpline(y1, 0.5j * S, axis=0)
        vj = _transport_sweep(y1, Bs, Ss, 0)
        for ia, a in enumerate(monos_j):
            v0.coeffs[a] = vj[:, ia]

    tdef = transport_jet(v0)
    transport_defect = max((np.max(np.abs(c)) for c in tdef.coeffs.values()),
                           default=0.0)

    amp = AmplitudeJet(y1=y1, v0=v0, v00=v00, delta=delta, N=order,
                       transport_defect=float(transport_defect))

    if N_amp >= 1:
        a0, b0 = path.chart.interval
        pad = 0.5 * (b0 - a0)
        x0 = np.linspace(a0 - pad, b0 + pad, 96)
        amp.x0 = x0
        lap_v0_axis = _laplace_beltrami_jet(v0, ginv, gdet, gdet_inv,
                                            y1, order).get((0,) * m, n)
        axis_pts = path.point(y1)
        if V1 is not None:
            V1_axis = np.stack([np.atleast_1d(V1(x, axis_pts)) for x in x0],
                               axis=0)
        else:
            V1_axis = np.zeros((len(x0), n))
        Pv0 = -lap_v0_axis[None, :] + V1_axis * v00[None, :]
        Pv0b = -np.conj(lap_v0_axis)[None, :] + V1_axis * np.conj(v00)[None, :]
        root = 1.0 / v00                        # (det Y)^{1/2}, same branch
        up = dbar_solve(0.5 * root[None, :] * Pv0, x0, y1)
        um = dbar_solve(-0.5 * np.conj(root)[None, :] * Pv0b, x0, y1)
        amp.v1_plus = up * v00[None, :]
        amp.v1_minus = um * np.conj(v00)[None, :]
        amp.pv0_axis = Pv0
        amp.pv0_axis_bar = Pv0b
    return amp


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def quasimode_eval(phase, amp, rho, sign, x0, t, ypp):
    """e^{i sigma x0} V^{+/-} at tube points, sigma = Im rho (the growth
    factor is excluded)."""
    rho = complex(rho)
    x0 = np.asarray(x0)
    t = np.asarray(t)
    ypp = np.asarray(ypp)
    theta = phase.theta(t, ypp)
    v0 = amp.v0_eval(t, ypp)
    chi = smooth_cutoff(np.sqrt(np.sum(ypp ** 2, axis=-1)) / amp.delta)
    if sign > 0:
        ph = np.exp(1j * rho * theta)
        a = v0 + amp.interp(amp.v1_plus, x0, t) / rho
    else:
        rb = np.conj(rho)
        ph = np.exp(-1j * rb * np.conj(theta))
        a = np.conj(v0) + amp.interp(amp.v1_minus, x0, t) / rb
    return np.exp(1j * rho.imag * x0) * ph * a * chi


class TubeDefect:
    """Conjugated-operator defect of a truncated beam on a flat chart.

    Precomputes every axis/offset-dependent field once for a fixed set of
    tube points; evaluation per x0 slice only touches the (x0, axis) grids.
    """

    def __init__(self, phase, amp, sign, t, ypp):
        self.phase = phase
        self.amp = amp
        self.sign = sign
        self.t = np.asarray(t)
        self.ypp = np.asarray(ypp)
        m = phase.m
        y1 = phase.y1
        n = len(y1)
        # flat chart: identity metric, jets exact when doubled in order
        big = 2 * phase.N
        eye = [[jet_const(m, big, n, 1.0 if i == j else 0.0)
                for j in range(m + 1)] for i in range(m + 1)]
        jet_big = YJet(m, big, phase.jet.coeffs)
        v0_big = YJet(m, big, amp.v0.coeffs)

        s_jet = _eikonal_defect_jet(jet_big, eye, y1, big)
        gdet1 = jet_const(m, big, n, 1.0)
        lap_theta = _laplace_beltrami_jet(jet_big, eye, gdet1, gdet1, y1, big)
        grads_t = [jet_big.dy1(y1)] + [jet_big.dy(j) for j in range(m)]
        grads_v = [v0_big.dy1(y1)] + [v0_big.dy(j) for j in range(m)]
        tv = None
        for a in range(m + 1):
            term = grads_t[a].mul(grads_v[a], big)
            tv = term if tv is None else tv.add(term)
        transport_v0 = tv.scale(2j).add(lap_theta.mul(v0_big, big).scale(1j))
        lap_v0 = _laplace_beltrami_jet(v0_big, eye, gdet1, gdet1, y1, big)

        ev = lambda J: J.eval_at(y1, self.t, self.ypp)
        self.theta = ev(jet_big)
        self.Sv = ev(s_jet)
        self.v0v = ev(v0_big)
        self.Tv0 = ev(transport_v0)
        self.Lap_v0 = ev(lap_v0)
        self.d1_theta = ev(jet_big.dy1(y1))
        self.lap_theta = ev(lap_theta)
        self.grad_theta_off = np.stack([ev(jet_big.dy(j)) for j in range(m)],
                                       axis=-1)
        self.grad_v0_off = np.stack([ev(v0_big.dy(j)) for j in range(m)],
                                    axis=-1)
        r = np.sqrt(np.sum(self.ypp ** 2, axis=-1))
        s = r / amp.delta
        self.chi = smooth_cutoff(s)
        chi_p = smooth_cutoff(s, 1) / amp.delta
        chi_pp = smooth_cutoff(s, 2) / amp.delta ** 2
        rsafe = np.where(r > 1e-12, r, 1.0)
        self.grad_chi = chi_p[..., None] * self.ypp / rsafe[..., None]
        self.lap_chi = chi_pp + np.where(r > 1e-12, (m - 1) * chi_p / rsafe, 0.0)

        # subprincipal grids and their axis derivatives
        if amp.v1_plus is not None:
            x0g, y1g = amp.x0, amp.y1
            self._v1 = {}
            for sgn, data in ((+1, amp.v1_plus), (-1, amp.v1_minus)):
                d0 = np.gradient(data, x0g, axis=0)
                d1 = np.gradient(data, y1g, axis=1)
                d00 = np.gradient(d0, x0g, axis=0)
                d11 = np.gradient(d1, y1g, axis=1)
                self._v1[sgn] = (data, d0, d1, d00, d11)
        else:
            self._v1 = None

    def _interp_v1(self, which, x0):
        data = self._v1[self.sign][which]
        itp = RegularGridInterpolator((self.amp.x0, self.amp.y1), data,
                                      bounds_error=False, fill_value=0.0)
        pts = np.stack(np.broadcast_arrays(np.asarray(x0), self.t), axis=-1)
        return itp(pts)

    def eval(self, x0, rho):
        rho = complex(rho)
        sign = self.sign
        if sign > 0:
            rr = rho
            Sv, Tv0, Lap = self.Sv, self.Tv0, self.Lap_v0
            v0v = self.v0v
            theta = self.theta
            d1t, lapt = self.d1_theta, self.lap_theta
            gt_off, gv_off = self.grad_theta_off, self.grad_v0_off
            tsig = -1.0
        else:
            rr = np.conj(rho)
            Sv = np.conj(self.Sv)
            Tv0 = -np.conj(self.Tv0)
            Lap = np.conj(self.Lap_v0)
            v0v = np.conj(self.v0v)
            theta = np.conj(self.theta)
            d1t, lapt = np.conj(self.d1_theta), np.conj(self.lap_theta)
            gt_off = np.conj(self.grad_theta_off)
            gv_off = np.conj(self.grad_v0_off)
            tsig = +1.0

        x0 = np.asarray(x0)
        if self._v1 is not None:
            v1 = self._interp_v1(0, x0)
            v1_d0 = self._interp_v1(1, x0)
            v1_d1 = self._interp_v1(2, x0)
            v1_d00 = self._interp_v1(3, x0)
            v1_d11 = self._interp_v1(4, x0)
        else:
            v1 = v1_d0 = v1_d1 = v1_d00 = v1_d11 = 0.0

        a_core = v0v + v1 / rr
        T_v1 = 2.0 * v1_d0 + 2j * d1t * v1_d1 + 1j * lapt * v1
        P_v0 = -Lap
        P_v1 = -(v1_d00 + v1_d11)
        grad_pair = np.einsum("...j,...j->...", gt_off, self.grad_chi)
        gradv_pair = np.einsum("...j,...j->...", gv_off, self.grad_chi)

        D = (-rr ** 2 * Sv * a_core * self.chi
             + tsig * rr * (self.chi * Tv0 + v0v * 2j * grad_pair)
             + tsig * (self.chi * T_v1 + v1 * 2j * grad_pair)
             + self.chi * (P_v0 + P_v1 / rr)
             - 2.0 * gradv_pair - a_core * self.lap_chi)
        ph = np.exp(1j * rr * theta) if sign > 0 \
            else np.exp(-1j * rr * theta)
        return np.exp(1j * rho.imag * x0) * ph * D


def tube_grid(phase, width, ny1, ns):
    """Axis samples and offset grids over the tube around the phase's axis.

    ``width`` is the offset half-width, a scalar or one value per axis
    sample; each offset axis carries ``ns`` points on [-width, width].
    Returns ``(y1, T, ypp, wgt)``: the ``ny1`` axis samples, the axis
    coordinate (ny1, P) and offsets (ny1, P, m) of every grid point, and the
    offset cell volume per axis sample.
    """
    y1 = np.linspace(phase.y1[0], phase.y1[-1], ny1)
    width = np.broadcast_to(np.asarray(width, dtype=float), (ny1,))
    m = phase.m
    s = np.linspace(-1.0, 1.0, ns)
    if m == 1:
        sm = s[:, None]
    else:
        sm = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1).reshape(-1, 2)
    ypp = width[:, None, None] * sm[None]
    wgt = width ** m * (s[1] - s[0]) ** m
    T = np.broadcast_to(y1[:, None], ypp.shape[:2]).copy()
    return y1, T, ypp, wgt


def quasimode_lp_norm(phase, amp, rho, sign, chart, fermi=None, p=2,
                      ny1=200, nypp=121, nx0=33):
    """L^p norm over I x tube, with the volume element of ``fermi``
    (1 without it)."""
    a0, b0 = chart.interval
    y1, T, ypp, wgt = tube_grid(phase, amp.delta, ny1, nypp)
    x0 = np.linspace(a0, b0, nx0)
    vals = quasimode_eval(phase, amp, rho, sign,
                          x0[:, None, None], T[None], ypp[None])
    vol = np.ones(T.shape) if fermi is None else fermi.volume(T, ypp)
    dy1 = y1[1] - y1[0]
    dx0 = x0[1] - x0[0]
    return float((np.sum(np.abs(vals) ** p * (vol * wgt[:, None])[None])
                  * dx0 * dy1) ** (1.0 / p))


def conjugated_defect_norm(phase, amp, rho, sign, chart, ny1=200, nypp=121,
                           nx0=33):
    """L^2 norm of the beam defect over the tube (flat charts)."""
    if not chart.metric.is_flat:
        raise UnsupportedOrder("defect evaluation is exact on flat charts only")
    a0, b0 = chart.interval
    y1, T, ypp, wgt = tube_grid(phase, amp.delta, ny1, nypp)
    defect = TubeDefect(phase, amp, sign, T, ypp)
    x0 = np.linspace(a0, b0, nx0)
    total = 0.0
    for x in x0:
        vals = defect.eval(np.full(T.shape, x), rho)
        total += np.sum(np.abs(vals) ** 2 * wgt[:, None])
    dy1 = y1[1] - y1[0]
    dx0 = x0[1] - x0[0]
    return math.sqrt(total * dx0 * dy1)


# ---------------------------------------------------------------------------
# assembly on the cylinder (flat charts)
# ---------------------------------------------------------------------------

@dataclass
class CgoSolution:
    sign: int
    rho: complex
    phase: PhaseJet
    amp: AmplitudeJet
    remainder: np.ndarray | None = None
    grid: object = None
    report: object = None
    pde_residual: float | None = None


def _flat_tube_coords(path, XP):
    base = path.point(0.0)
    vel = path.velocity(0.0)
    frame = path.frame_at(0.0)
    diff = XP - base
    t = diff @ vel
    ypp = diff @ frame
    return t, ypp


def _axis_taper(path, phase, t):
    """Smooth in the axis coordinate: 1 over the chart, 0 before the traced
    window ends.  Keeps the gridded beam smooth on the torus without touching
    its values over the manifold."""
    lo = path.chart.radius + 0.02
    hi = min(phase.y1[-1], -phase.y1[0]) - 0.02
    if hi <= lo:
        return np.ones_like(t)
    s = 0.5 * (1.0 + np.clip((np.abs(t) - lo) / (hi - lo), 0.0, None))
    return smooth_cutoff(s)


def quasimode_on_cylinder(phase, amp, rho, sign, grid, path):
    mesh = grid.mesh()
    XP = np.stack(mesh[1:], axis=-1)
    t, ypp = _flat_tube_coords(path, XP[0])
    inside = (np.abs(t) <= phase.y1[-1] - 1e-9) \
        & (np.sum(ypp ** 2, axis=-1) <= amp.delta ** 2)
    out = np.zeros(grid.shape, dtype=complex)
    idx = np.where(inside)
    tv, pv = t[idx], ypp[idx]
    taper = _axis_taper(path, phase, tv)
    for i, x0v in enumerate(grid.x0):
        out[i][idx] = quasimode_eval(phase, amp, rho, sign,
                                     np.full(tv.shape, x0v), tv, pv) * taper
    return out


def assemble_cgo(path, phase, amp, lam, sigma, grid, sign=+1,
                 compute_pde_residual=False):
    """Complete the beam to an exponential solution on a flat chart.

    The analytic defect is evaluated on the cylinder grid, cut to a smooth
    collar just outside the chart (a compact extension of its restriction to
    the manifold), and handed to the cylinder right inverse.
    """
    chart = path.chart
    if not chart.metric.is_flat:
        raise UnsupportedOrder("assembly is implemented for flat charts")
    rho = complex(lam, sigma)
    mesh = grid.mesh()
    XP = np.stack(mesh[1:], axis=-1)
    t, ypp = _flat_tube_coords(path, XP[0])
    width = 0.5 * chart.extension_margin
    r = np.sqrt(np.sum(XP[0] ** 2, axis=-1))
    collar = smooth_cutoff(0.5 * (1.0 + np.clip((r - chart.radius) / width,
                                                0.0, None)))
    inside = (np.abs(t) <= phase.y1[-1] - 1e-9) \
        & (np.sum(ypp ** 2, axis=-1) <= amp.delta ** 2) & (collar > 0)
    idx = np.where(inside)
    tv, pv, cv = t[idx], ypp[idx], collar[idx]
    defect = TubeDefect(phase, amp, sign, tv, pv)
    source = np.zeros(grid.shape, dtype=complex)
    for i, x0v in enumerate(grid.x0):
        source[i][idx] = -defect.eval(np.full(tv.shape, x0v), rho) * cv
    lam_signed = lam if sign > 0 else -lam
    R, report = conjugated_solve(source, grid, lam_signed)
    sol = CgoSolution(sign=sign, rho=rho, phase=phase, amp=amp,
                      remainder=R, grid=grid, report=report)
    if compute_pde_residual:
        from .cylinder import apply_conjugated
        U = quasimode_on_cylinder(phase, amp, rho, sign, grid, path) + R
        res = apply_conjugated(U, grid, lam_signed)
        mask = grid.physical_mask()
        disk = r <= chart.radius
        sel = mask[:, None, None] & disk[None]
        sel[:3] = sel[-3:] = False
        num = np.linalg.norm(res[sel])
        den = np.linalg.norm(U[sel]) * abs(rho) ** 2
        sol.pde_residual = float(num / max(den, 1e-300))
    return sol
