"""Gaussian beam quasimodes along a geodesic and their exponential completion.

The phase is a polynomial jet in the tube offsets whose quadratic part is the
Riccati matrix of an admissible Jacobi family; orders three and four solve
linear transport systems that cancel the eikonal defect order by order.  The
principal amplitude is the inverse square root of det Y on the continuous
branch, higher principal orders solve axis transport, and the first
subprincipal correction solves a Cauchy-Riemann equation in the (x0, axis)
plane by convolution with the Cauchy kernel.  Assembly evaluates the analytic
defect of the truncated beam (cutoff commutators included) and feeds it to
the cylinder right inverse, which returns the remainder; beam plus remainder
is the exponential solution on the cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import next_fast_len
from scipy.interpolate import CubicSpline, RegularGridInterpolator

from .cylinder import apply_conjugated, conjugated_solve
from .errors import UnsupportedOrder
from .geometry import linear_sweep, stage_times

__all__ = [
    "PhaseJet", "AmplitudeJet", "TubeBeam", "CgoSolution",
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

    def _spline(self, t):
        """One cubic spline over ``t`` through every coefficient."""
        return CubicSpline(t, np.stack(list(self.coeffs.values()), axis=-1))

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
        d = self._spline(t).derivative()(t) if self.coeffs else None
        return YJet(self.m, self.order,
                    {a: d[:, i] for i, a in enumerate(self.coeffs)})

    def order_part(self, k):
        return YJet(self.m, self.order,
                    {a: c for a, c in self.coeffs.items() if sum(a) == k})

    def eval_at(self, tgrid, t, ypp):
        """Evaluate at axis positions t and offsets ypp (..., m)."""
        t = np.asarray(t)
        ypp = np.asarray(ypp)
        out = np.zeros(np.broadcast(t, ypp[..., 0]).shape, dtype=complex)
        if not self.coeffs:
            return out
        if self._spl is None:
            self._spl = self._spline(tgrid)
        vals = self._spl(t)
        for i, a in enumerate(self.coeffs):
            mono = np.ones_like(out)
            for j, p in enumerate(a):
                if p:
                    mono = mono * ypp[..., j] ** p
            out = out + vals[..., i] * mono
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
    """Determinant of a d x d metric jet, d = n - 1 in {2, 3}."""
    if len(G) == 2:
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
        return np.stack([g.eval_at(self.y1, t, ypp)
                         for g in _grads(self.jet, self.y1)], axis=-1)


def _grads(u, y1):
    """The tube-coordinate gradient of a jet: d/dy1, then each offset."""
    return [u.dy1(y1)] + [u.dy(j) for j in range(u.m)]


def _eikonal_defect_jet(theta_jet, ginv, y1, order):
    m = theta_jet.m
    n = len(y1)
    grads = _grads(theta_jet, y1)
    acc = jet_const(m, order, n, 1.0)
    for a in range(m + 1):
        for b in range(m + 1):
            term = ginv[a][b].mul(grads[a], order).mul(grads[b], order)
            acc = acc.add(term.scale(-1.0))
    return acc


def _laplace_beltrami_jet(u, ginv, gdet_sqrt, gdet_sqrt_inv, y1, order):
    m = u.m
    grads = _grads(u, y1)
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


def _transport_jet(u, theta_grads, lap_theta, ginv, y1, order):
    """2i <d theta, d u>_g + i (Delta_g theta) u: the transport operator of
    the phase with gradient ``theta_grads`` and Laplacian ``lap_theta``."""
    grads = _grads(u, y1)
    acc = None
    for a in range(u.m + 1):
        for b in range(u.m + 1):
            term = ginv[a][b].mul(theta_grads[a], order).mul(grads[b], order)
            acc = term if acc is None else acc.add(term)
    return acc.scale(2j).add(lap_theta.mul(u, order).scale(1j))


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


def _transport_sweep(y1, B, S, i0):
    """RK4 for v' = -B v + S with zero data at node i0.

    ``B`` and ``S`` are sampled at the nodes of the grid ``y1``; one cubic
    spline through ``[B | S]`` is evaluated once at the nodes and half-nodes,
    the only times RK4 visits.  The affine system runs as the linear one on
    ``[v; 1]`` through ``linear_sweep``, which composes the RK4 step maps.
    """
    tt = stage_times(y1)
    nk = S.shape[1]
    A = np.zeros((len(tt), nk + 1, nk + 1), dtype=complex)
    A[:, :nk] = CubicSpline(y1, np.concatenate([-B, S[..., None]], axis=-1),
                            axis=0)(tt)
    return linear_sweep(y1, A, np.eye(nk + 1)[nk], i0)[:, :nk]


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
        theta_k = _transport_sweep(y1, B, 0.5 * S, i0)
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

    ``a0``, ``a1`` are the cell centers, uniform with steps ``h0``, ``h1``,
    and both contain 0.  Stokes gives the cell integral as (i/2) of the
    contour integral of log z dz-bar; with the primitive P(z) = z Log z - z,
    evaluated once on the corner lattice, the contour collapses to signed
    corner differences.  Any branch constant c adds c z to P and cancels,
    since the signed corner sum of z is 0; only the cells of the center row
    left of the origin, which the principal cut (the negative real axis)
    crosses, need Log z + 2 pi i at their lower corners, which adds -1/h1
    to their average.  The origin cell averages to zero by symmetry.
    """
    c0 = np.append(a0 - h0 / 2, a0[-1] + h0 / 2)
    c1 = np.append(a1 - h1 / 2, a1[-1] + h1 / 2)
    Z = c0[:, None] + 1j * c1[None, :]
    # Log z = log|z| + i arg z with arg in (-pi, pi]; faster than complex log
    P = Z * (np.log(np.abs(Z)) - 1.0 + 1j * np.angle(Z))
    contour = 2.0 * (P[1:, :-1] + P[:-1, 1:] - P[1:, 1:] - P[:-1, :-1])
    avg = (1j / (4.0 * np.pi)) * contour / (h0 * h1)
    i0 = int(np.argmin(np.abs(a0)))
    i1 = int(np.argmin(np.abs(a1)))
    avg[:i0, i1] -= 1.0 / h1
    avg[i0, i1] = 0.0
    return avg


def dbar_solve(F, y0, y1):
    """Particular solution of (d/dy0 + i d/dy1) r = F via the Cauchy kernel.

    The source, of shape (..., len(y0), len(y1)) with any stacked leading
    axes, is convolved with the cell-averaged kernel 1/(2 pi (y0 + i y1)).
    Only kernel lags in (-n, n) reach the output window, so each axis is
    zero-padded to the fast FFT length ``next_fast_len(2 n)`` and the kernel
    is built once per call on the corner lattice of that padded grid.
    """
    F = np.asarray(F, dtype=complex)
    n0, n1 = F.shape[-2:]
    h0 = y0[1] - y0[0]
    h1 = y1[1] - y1[0]
    N0, N1 = next_fast_len(2 * n0), next_fast_len(2 * n1)
    a0 = (np.arange(N0) - N0 // 2) * h0
    a1 = (np.arange(N1) - N1 // 2) * h1
    Gam = np.fft.ifftshift(_cell_averaged_cauchy(a0, a1, h0, h1))
    conv = np.fft.ifft2(np.fft.fft2(F, s=(N0, N1)) * np.fft.fft2(Gam)) * h0 * h1
    return conv[..., :n0, :n1]


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

    def v0_eval(self, t, ypp):
        return self.v0.eval_at(self.y1, t, ypp)


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
    tgrads = _grads(phase.jet, y1)

    for j in range(1, order + 1):
        monos_j = [a for a in monomials(m, order) if sum(a) == j]
        defect = _transport_jet(v0, tgrads, lap_theta, ginv, y1,
                                order).order_part(j)
        S = np.stack([defect.get(a, n) for a in monos_j], axis=1)
        B = _coupling_matrix(phase.H, monos_j) \
            + 0.5 * trH[:, None, None] * np.eye(len(monos_j))[None]
        vj = _transport_sweep(y1, B, 0.5j * S, 0)
        for ia, a in enumerate(monos_j):
            v0.coeffs[a] = vj[:, ia]

    tdef = _transport_jet(v0, tgrads, lap_theta, ginv, y1, order)
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
            V1_axis = np.broadcast_to(V1(x0[:, None], axis_pts[None]),
                                      (len(x0), n))
        else:
            V1_axis = np.zeros((len(x0), n))
        Pv0 = -lap_v0_axis[None, :] + V1_axis * v00[None, :]
        Pv0b = -np.conj(lap_v0_axis)[None, :] + V1_axis * np.conj(v00)[None, :]
        root = 1.0 / v00                        # (det Y)^{1/2}, same branch
        up, um = dbar_solve(np.stack([0.5 * root[None, :] * Pv0,
                                      -0.5 * np.conj(root)[None, :] * Pv0b]),
                            x0, y1)
        amp.v1_plus = up * v00[None, :]
        amp.v1_minus = um * np.conj(v00)[None, :]
        amp.pv0_axis = Pv0
    return amp


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _linear_weights(grid, s):
    """Left node of the cell of ``s`` on an increasing grid, and the linear
    weights of that node and the next; 0 off the grid."""
    i = np.clip(np.searchsorted(grid, s) - 1, 0, len(grid) - 2)
    f = (s - grid[i]) / (grid[i + 1] - grid[i])
    inside = (s >= grid[0]) & (s <= grid[-1])
    return i, ((1.0 - f) * inside, f * inside)


class TubeBeam:
    """One beam sampled at a fixed set of tube points ``(t, ypp)``.

    The phase theta, the principal amplitude v0 and the cutoff chi are
    evaluated once, here; ``value`` and ``defect`` add only the x0 factor
    and the (x0, axis) subprincipal grids, for either sign and at x0 of any
    shape that broadcasts against the points (a column of x0 nodes gives
    every slice at once).  The defect's jets are built and sampled on the
    first ``defect`` call.
    """

    def __init__(self, phase, amp, t, ypp):
        self.phase = phase
        self.amp = amp
        self.t = np.asarray(t)
        self.ypp = np.asarray(ypp)
        self.theta = phase.theta(self.t, self.ypp)
        self.v0 = amp.v0_eval(self.t, self.ypp)
        self.r = np.sqrt(np.sum(self.ypp ** 2, axis=-1))
        self.chi = smooth_cutoff(self.r / amp.delta)

    def _signed(self, rho, sign):
        """The beam's frequency (rho, or its conjugate for sign -1), its
        phase factor and its principal amplitude."""
        if sign > 0:
            return rho, np.exp(1j * rho * self.theta), self.v0
        rb = np.conj(rho)
        return (rb, np.exp(-1j * rb * np.conj(self.theta)),
                np.conj(self.v0))

    def _interp(self, grids, x0):
        """(x0, axis) grids at (x0, t) by linear interpolation, one set of
        weights for all of them; 0 off the grid."""
        i, wx = _linear_weights(self.amp.x0, x0)
        j, wy = _linear_weights(self.amp.y1, self.t)
        corners = [(i + a, j + b, wx[a] * wy[b])
                   for a in (0, 1) for b in (0, 1)]
        return [sum(w * g[ia, jb] for ia, jb, w in corners) for g in grids]

    def value(self, x0, rho, sign):
        """e^{i sigma x0} V^{+/-}, sigma = Im rho (the growth factor is
        excluded)."""
        rho = complex(rho)
        x0 = np.asarray(x0)
        rs, ph, v0 = self._signed(rho, sign)
        grid = self.amp.v1_plus if sign > 0 else self.amp.v1_minus
        v1 = 0.0 if grid is None else self._interp([grid], x0)[0]
        return np.exp(1j * rho.imag * x0) * ph * (v0 + v1 / rs) * self.chi

    @cached_property
    def _defect_jets(self):
        """The defect's jets at the points, the cutoff's Laplacian and the
        subprincipal grids of each sign with their x0 and axis derivatives.
        On a flat chart the metric is the identity, and the jets are exact
        when doubled in order."""
        phase, amp = self.phase, self.amp
        m, y1 = phase.m, phase.y1
        n = len(y1)
        big = 2 * phase.N
        eye = [[jet_const(m, big, n, 1.0 if i == j else 0.0)
                for j in range(m + 1)] for i in range(m + 1)]
        one = jet_const(m, big, n, 1.0)
        theta = YJet(m, big, phase.jet.coeffs)
        v0 = YJet(m, big, amp.v0.coeffs)
        tgrads = _grads(theta, y1)
        lap_theta = _laplace_beltrami_jet(theta, eye, one, one, y1, big)

        def ev(jet):
            return jet.eval_at(y1, self.t, self.ypp)

        r, delta = self.r, amp.delta
        chi_p = smooth_cutoff(r / delta, 1) / delta
        rsafe = np.where(r > 1e-12, r, 1.0)
        grad_chi = chi_p[..., None] * self.ypp / rsafe[..., None]
        jets = np.stack([
            ev(_eikonal_defect_jet(theta, eye, y1, big)),
            ev(_transport_jet(v0, tgrads, lap_theta, eye, y1, big)),
            ev(_laplace_beltrami_jet(v0, eye, one, one, y1, big)),
            ev(tgrads[0]), ev(lap_theta),
            sum(ev(g) * grad_chi[..., j] for j, g in enumerate(tgrads[1:])),
            sum(ev(v0.dy(j)) * grad_chi[..., j] for j in range(m))])
        lap_chi = smooth_cutoff(r / delta, 2) / delta ** 2 \
            + np.where(r > 1e-12, (m - 1) * chi_p / rsafe, 0.0)
        v1_grids = {}
        if amp.v1_plus is not None:
            for sign, data in ((+1, amp.v1_plus), (-1, amp.v1_minus)):
                d0 = np.gradient(data, amp.x0, axis=0)
                d1 = np.gradient(data, amp.y1, axis=1)
                v1_grids[sign] = (data, d0, d1,
                                  np.gradient(d0, amp.x0, axis=0),
                                  np.gradient(d1, amp.y1, axis=1))
        return jets, lap_chi, v1_grids

    def defect(self, x0, rho, sign):
        """e^{i sigma x0} times the conjugated-operator defect of the
        truncated beam, on a flat chart."""
        rho = complex(rho)
        x0 = np.asarray(x0)
        jets, lap_chi, v1_grids = self._defect_jets
        rr, ph, v0 = self._signed(rho, sign)
        eik, T_v0, lap_v0, d1_theta, lap_theta, dtheta_dchi, dv0_dchi = (
            jets if sign > 0 else np.conj(jets))
        # the minus beam's transport term is minus the conjugate, and the
        # first-order terms enter the two signs' operators with opposite signs
        T_v0, tsig = (T_v0, -1.0) if sign > 0 else (-T_v0, 1.0)
        if v1_grids:
            v1, v1_d0, v1_d1, v1_d00, v1_d11 = self._interp(v1_grids[sign], x0)
        else:
            v1 = v1_d0 = v1_d1 = v1_d00 = v1_d11 = 0.0
        chi = self.chi
        a_core = v0 + v1 / rr
        T_v1 = 2.0 * v1_d0 + 2j * d1_theta * v1_d1 + 1j * lap_theta * v1
        D = (-rr ** 2 * eik * a_core * chi
             + tsig * rr * (chi * T_v0 + v0 * 2j * dtheta_dchi)
             + tsig * (chi * T_v1 + v1 * 2j * dtheta_dchi)
             - chi * (lap_v0 + (v1_d00 + v1_d11) / rr)
             - 2.0 * dv0_dchi - a_core * lap_chi)
        return np.exp(1j * rho.imag * x0) * ph * D


def quasimode_eval(phase, amp, rho, sign, x0, t, ypp):
    """e^{i sigma x0} V^{+/-} at tube points, sigma = Im rho (the growth
    factor is excluded)."""
    return TubeBeam(phase, amp, t, ypp).value(x0, rho, sign)


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


def _tube_norm(method, phase, amp, rho, sign, chart, p, ny1, nypp, nx0,
               fermi=None):
    """(int |f|^p vol dx0 dy1 dy'')^(1/p) over I x tube, f the ``TubeBeam``
    method on the tube grid at ``amp.delta`` and a column of x0 nodes, with
    the volume element of ``fermi`` (1 without it); trapezoid rule in x0
    and y1."""
    y1, T, ypp, wgt = tube_grid(phase, amp.delta, ny1, nypp)
    x0 = np.linspace(*chart.interval, nx0)
    vals = method(TubeBeam(phase, amp, T, ypp), x0[:, None, None], rho, sign)
    vol = np.ones(T.shape) if fermi is None else fermi.forward(T, ypp)[1]
    cross = np.sum(np.abs(vals) ** p * (vol * wgt[:, None])[None], axis=-1)
    return float(np.trapezoid(np.trapezoid(cross, x0, axis=0), y1)
                 ** (1.0 / p))


def quasimode_lp_norm(phase, amp, rho, sign, chart, fermi=None, p=2,
                      ny1=200, nypp=121, nx0=33):
    """L^p norm over I x tube, with the volume element of ``fermi``
    (1 without it)."""
    return _tube_norm(TubeBeam.value, phase, amp, rho, sign, chart, p, ny1,
                      nypp, nx0, fermi)


def conjugated_defect_norm(phase, amp, rho, sign, chart, ny1=200, nypp=121,
                           nx0=33):
    """L^2 norm of the beam defect over the tube (flat charts)."""
    if not chart.metric.is_flat:
        raise UnsupportedOrder("defect evaluation is exact on flat charts only")
    return _tube_norm(TubeBeam.defect, phase, amp, rho, sign, chart, 2, ny1,
                      nypp, nx0)


# ---------------------------------------------------------------------------
# assembly on the cylinder (flat charts)
# ---------------------------------------------------------------------------

@dataclass
class CgoSolution:
    """One beam completed to an exponential solution on the cylinder grid.

    ``field`` is U = Q + R with the growth factor removed: Q the beam,
    tapered along its axis, and R the remainder from the right inverse.
    ``report`` is the solve's ``SolveReport`` and ``pde_residual`` the
    relative residual of the conjugated equation for U over the chart.
    Calling the solution evaluates U at chart points ``(x0, x')`` by linear
    interpolation, 0 off the grid.
    """
    field: np.ndarray
    remainder: np.ndarray
    grid: object
    report: object
    pde_residual: float

    def __post_init__(self):
        self._interp = RegularGridInterpolator(
            (self.grid.x0,) + tuple(self.grid.trans_axes), self.field,
            bounds_error=False, fill_value=0.0)

    def __call__(self, x0, xp):
        xp = np.asarray(xp)
        x0b = np.broadcast_to(np.asarray(x0), xp[..., 0].shape)
        return self._interp(np.concatenate([x0b[..., None], xp], axis=-1))


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


def _collar(chart, r):
    """Smooth in the chart radius: 1 on the chart, 0 from half the extension
    margin beyond it.  Cuts the defect to a compact extension of its
    restriction to the manifold."""
    width = 0.5 * chart.extension_margin
    return smooth_cutoff(0.5 * (1.0 + np.clip((r - chart.radius) / width,
                                              0.0, None)))


def assemble_cgo(path, phase, amp, lam, sigma, grid, signs=(+1, -1)):
    """Complete the beam to exponential solutions on a flat chart, one per
    entry of ``signs`` (+1 for the +lambda beam, -1 for the -lambda one).

    One pass maps the grid to tube coordinates and samples the beam on the
    tube points and on the collar points, for every sign at once; per sign
    the beam Q is gridded with its axis taper, and the analytic defect, cut
    to a smooth collar just outside the chart (a compact extension of its
    restriction to the manifold), is handed to the cylinder right inverse
    for the remainder R.  Returns one ``CgoSolution`` of U = Q + R per sign.
    """
    chart = path.chart
    if not chart.metric.is_flat:
        raise UnsupportedOrder("assembly is implemented for flat charts")
    rho = complex(lam, sigma)
    XP = np.stack(np.meshgrid(*grid.trans_axes, indexing="ij"), axis=-1)
    # flat chart: tube coordinates along the line through gamma(0)
    diff = XP - path.point(0.0)
    t = diff @ path.velocity(0.0)
    ypp = diff @ path.frame_at(0.0)
    r = np.sqrt(np.sum(XP ** 2, axis=-1))
    collar = _collar(chart, r)
    tube = (np.abs(t) <= phase.y1[-1] - 1e-9) \
        & (np.sum(ypp ** 2, axis=-1) <= amp.delta ** 2)
    iq = np.where(tube)
    idx = np.where(tube & (collar > 0))
    x0 = grid.x0[:, None]
    all_x0 = (slice(None),)
    beam = TubeBeam(phase, amp, t[iq], ypp[iq])
    taper = _axis_taper(path, phase, t[iq])
    collar_beam = TubeBeam(phase, amp, t[idx], ypp[idx])
    sel = grid.physical_mask()[:, None, None] & (r <= chart.radius)[None]
    sel[:3] = sel[-3:] = False
    out = []
    for sign in signs:
        Q = np.zeros(grid.shape, dtype=complex)
        source = np.zeros(grid.shape, dtype=complex)
        Q[all_x0 + iq] = beam.value(x0, rho, sign) * taper
        source[all_x0 + idx] = (-collar_beam.defect(x0, rho, sign)
                                * collar[idx])
        lam_signed = lam if sign > 0 else -lam
        R, report = conjugated_solve(source, grid, lam_signed)
        U = Q + R
        num = np.linalg.norm(apply_conjugated(U, grid, lam_signed)[sel])
        den = np.linalg.norm(U[sel]) * abs(rho) ** 2
        out.append(CgoSolution(field=U, remainder=R, grid=grid, report=report,
                               pde_residual=float(num / max(den, 1e-300))))
    return tuple(out)
