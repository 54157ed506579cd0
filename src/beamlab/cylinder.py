"""Right inverse of the exponentially conjugated operator on a cylinder.

The transversal chart is embedded in a flat torus (closed extension); its
Laplacian eigenfunctions are explicit Fourier modes, so the conjugated solve
factors per mode into two first-order symbol inversions ``S_a`` on the line,
realized by padded FFTs.  A zeroth-order potential is absorbed by a fixed
point loop around the free solve, which contracts once the free inverse gains
its 1/lambda factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NeumannDivergence, ResonantLambda, ZeroSymbol

__all__ = [
    "CylinderGrid", "EigenBasis", "SolveReport",
    "torus_length", "make_cylinder_grid", "s_a_apply", "conjugated_solve",
    "apply_conjugated", "sobolev_norm",
]


# ---------------------------------------------------------------------------
# grid and eigenbasis
# ---------------------------------------------------------------------------

def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


@dataclass
class CylinderGrid:
    """Collocation grid on [a0-pad, b0+pad] x flat torus."""

    x0: np.ndarray
    interval: tuple
    lengths: tuple
    trans_axes: tuple          # 1D node arrays per transversal dim
    window: np.ndarray         # smooth cutoff, 1 on the interval

    @property
    def dx0(self):
        return self.x0[1] - self.x0[0]

    @property
    def dtrans(self):
        """Largest node spacing over the torus axes."""
        return max(L / len(ax) for L, ax in zip(self.lengths, self.trans_axes))

    @property
    def shape(self):
        return (len(self.x0),) + tuple(len(a) for a in self.trans_axes)

    def trans_mesh(self):
        return np.meshgrid(*self.trans_axes, indexing="ij")

    def mesh(self):
        return np.meshgrid(self.x0, *self.trans_axes, indexing="ij")

    def physical_mask(self):
        a0, b0 = self.interval
        return (self.x0 >= a0 - 1e-12) & (self.x0 <= b0 + 1e-12)


def torus_length(chart):
    """Side length of the flat torus that encloses the chart disk with a
    margin of 0.5 on every side."""
    return 2.0 * (chart.radius + 0.5)


def make_cylinder_grid(chart, nx0=128, ntrans=64):
    """Cylinder grid over the interval padded by half its length on each
    side, times the torus of ``torus_length``."""
    a0, b0 = chart.interval
    pad = 0.5 * (b0 - a0)
    x0 = np.linspace(a0 - pad, b0 + pad, nx0, endpoint=False)
    d = chart.trans_dim
    L = torus_length(chart)
    axes = tuple(np.linspace(-L / 2, L / 2, ntrans, endpoint=False)
                 for _ in range(d))
    # cutoff: 1 on [a0, b0], smooth roll-off inside the padding
    up = _smoothstep((x0 - (a0 - 0.9 * pad)) / (0.8 * pad))
    down = _smoothstep(((b0 + 0.9 * pad) - x0) / (0.8 * pad))
    window = up * down
    return CylinderGrid(x0=x0, interval=(a0, b0), lengths=(L,) * d,
                        trans_axes=axes, window=window)


class EigenBasis:
    """Explicit Laplace eigenpairs of the flat torus extension."""

    def __init__(self, grid):
        self.grid = grid
        self.lengths = grid.lengths
        ks = [2.0 * np.pi * np.fft.fftfreq(len(ax), ax[1] - ax[0])
              for ax in grid.trans_axes]
        mesh = np.meshgrid(*ks, indexing="ij")
        self.omega = np.stack(mesh, axis=-1)
        self.mu = np.sum(self.omega ** 2, axis=-1)

    @property
    def volume(self):
        return float(np.prod(self.lengths))

    def psi(self, index, points):
        """Orthonormal eigenfunction for a mode multi-index at chart points."""
        om = self.omega[tuple(index)]
        phase = np.einsum("...d,d->...", np.asarray(points), om)
        return np.exp(1j * phase) / np.sqrt(self.volume)

    def eigenvalue(self, index):
        return float(self.mu[tuple(index)])

    def index_near_sqrt(self, target):
        """Mode multi-index whose sqrt(eigenvalue) is closest to target."""
        flat = int(np.argmin(np.abs(np.sqrt(self.mu) - target)))
        return np.unravel_index(flat, self.mu.shape)


# ---------------------------------------------------------------------------
# one-dimensional symbol inverse
# ---------------------------------------------------------------------------

def s_a_apply(h, dx, a, pad_factor=4):
    """Inverse of (d/dx + a) on the line, restricted to the input window.

    For kernels that die out inside the padding this divides by the symbol
    (i xi + a) on a zero-padded grid.  Slowly decaying kernels (|a| small,
    e.g. near-resonant modes) would wrap under periodization, so they are
    convolved linearly instead, with exact cell integrals of the one-sided
    exponential kernel; that reproduces the decaying line solution on the
    window regardless of |a|.
    """
    if a == 0:
        raise ZeroSymbol("symbol parameter must be nonzero")
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    npad = pad_factor * n
    shape = (npad,) + (1,) * (h.ndim - 1)
    if abs(a) * (npad - n) * dx >= 40.0:
        lead = (npad - n) // 2
        buf = np.zeros((npad,) + h.shape[1:], dtype=complex)
        buf[lead:lead + n] = h
        xi = 2.0 * np.pi * np.fft.fftfreq(npad, dx)
        out = np.fft.ifft(np.fft.fft(buf, axis=0)
                          / (1j * xi + a).reshape(shape), axis=0)
        return out[lead:lead + n]
    # linear convolution with the causal/anticausal exponential kernel;
    # kernel support (npad - n cells) and signal (n cells) fit in the pad,
    # so the circular product realizes the non-circular convolution exactly
    buf = np.zeros((npad,) + h.shape[1:], dtype=complex)
    buf[:n] = h
    ker = np.zeros(npad, dtype=complex)
    mmax = npad - n - 1
    m = np.arange(1, mmax)
    if np.real(a) >= 0:
        # u(x) = int_0^inf e^{-a s} h(x - s) ds; cell integrals of the kernel
        ker[0] = (1.0 - np.exp(-a * dx / 2)) / (a * dx)
        ker[1:mmax] = (np.exp(-a * (m * dx - dx / 2))
                       - np.exp(-a * (m * dx + dx / 2))) / (a * dx)
    else:
        # u(x) = -int_0^inf e^{a s} h(x + s) ds; kernel at negative lags
        ker[0] = -(np.exp(a * dx / 2) - 1.0) / (a * dx)
        ker[npad - m] = -(np.exp(a * (m * dx + dx / 2))
                          - np.exp(a * (m * dx - dx / 2))) / (a * dx)
    out = np.fft.ifft(np.fft.fft(buf, axis=0)
                      * np.fft.fft(ker).reshape(shape) * dx, axis=0)
    return out[:n]


# ---------------------------------------------------------------------------
# conjugated solve
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    lam: float
    residual_l2: float
    norm_ratio: float
    modes: int
    iterations: int = 0
    discarded_energy: float = 0.0


def _free_solve(Fw, grid, lam, basis, margin, energy_cut, keep=None):
    """Per-mode solve of the conjugated free operator; returns (R, keep, lost)."""
    taxes = tuple(range(1, Fw.ndim))
    Fhat = np.fft.fftn(Fw, axes=taxes)
    energy = np.sum(np.abs(Fhat) ** 2, axis=0)
    total = float(np.sum(energy))
    if total == 0.0:
        return np.zeros_like(Fw), np.zeros(energy.shape, dtype=bool), 0.0
    if keep is None:
        flat = np.sort(energy.ravel())
        cum = np.cumsum(flat)
        cut_idx = int(np.searchsorted(cum, energy_cut * total))
        thresh = flat[cut_idx - 1] if cut_idx > 0 else -1.0
        keep = energy > thresh
    mu = basis.mu
    gap = np.abs(lam ** 2 - mu[keep])
    if gap.size and np.min(gap) < margin:
        raise ResonantLambda(
            f"lambda^2 within {margin} of a retained eigenvalue")
    Rhat = np.zeros_like(Fhat)
    sq = np.sqrt(mu)
    idxs = np.argwhere(keep)
    for idx in idxs:
        key = tuple(idx)
        root = sq[key]
        # short-range factor first: the intermediate stays supported near the
        # window, so the long-range pass remains exact on it
        a_big, a_small = sorted((lam + root, lam - root), key=abs,
                                reverse=True)
        h = s_a_apply(Fhat[(slice(None),) + key], grid.dx0, a_big)
        Rhat[(slice(None),) + key] = -s_a_apply(h, grid.dx0, a_small)
    R = np.fft.ifftn(Rhat, axes=taxes)
    lost = float(np.sum(energy[~keep]) / total)
    return R, keep, lost


def _fd_dx0(u, dx, order=1):
    """Sixth-order centered x0 derivatives (valid away from the ends)."""
    out = np.zeros_like(u)
    if order == 1:
        c = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * dx)
    else:
        c = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / (180.0 * dx ** 2)
    for k, ck in enumerate(c):
        if ck != 0.0:
            out[3:-3] += ck * np.roll(u, 3 - k, axis=0)[3:-3]
    return out


def apply_conjugated(R, grid, lam, V1_field=None):
    """Apply the conjugated operator with FD in x0 and spectral transversal
    derivatives; independent of the per-mode construction path."""
    taxes = tuple(range(1, R.ndim))
    basis = EigenBasis(grid)
    lap_t = np.fft.ifftn(-basis.mu[None] * np.fft.fftn(R, axes=taxes), axes=taxes)
    d1 = _fd_dx0(R, grid.dx0, 1)
    d2 = _fd_dx0(R, grid.dx0, 2)
    out = -(d2 + 2.0 * lam * d1 + lam ** 2 * R) - lap_t
    if V1_field is not None:
        out = out + V1_field * R
    return out


def conjugated_solve(F, grid, lam, V1_field=None, margin=1e-6,
                     energy_cut=1e-10, tol=1e-10, maxit=40):
    """Solve the conjugated equation on the cylinder for a gridded source.

    Returns ``(R, SolveReport)``.  The potential term is handled by the
    fixed-point loop ``R <- free_solve(F - V1 R)`` which contracts for
    lambda beyond a geometry- and potential-dependent threshold.
    """
    basis = EigenBasis(grid)
    wshape = (len(grid.x0),) + (1,) * (F.ndim - 1)
    Fw = F * grid.window.reshape(wshape)
    R, keep, lost = _free_solve(Fw, grid, lam, basis, margin, energy_cut)
    iters = 0
    if V1_field is not None and np.max(np.abs(V1_field)) > 0:
        ref = np.linalg.norm(R)
        prev_delta = np.inf
        growth = 0
        Rj = R
        for iters in range(1, maxit + 1):
            # mode set frozen across the loop so the map stays affine
            Rn, _, _ = _free_solve(Fw - V1_field * Rj, grid, lam,
                                   basis, margin, energy_cut, keep=keep)
            delta = np.linalg.norm(Rn - Rj)
            if delta <= tol * max(ref, 1e-300):
                Rj = Rn
                break
            if delta > prev_delta:
                growth += 1
                if growth >= 2:
                    raise NeumannDivergence(
                        "potential correction loop is not contracting")
            prev_delta = delta
            Rj = Rn
        else:
            raise NeumannDivergence("potential correction loop hit the "
                                    "iteration cap")
        R = Rj

    mask = grid.physical_mask()
    res_field = apply_conjugated(R, grid, lam, V1_field) - Fw
    inner = mask.copy()
    inner[:3] = inner[-3:] = False
    num = np.linalg.norm(res_field[inner])
    den = np.linalg.norm(Fw[inner])
    report = SolveReport(lam=float(lam),
                         residual_l2=float(num / max(den, 1e-300)),
                         norm_ratio=float(np.linalg.norm(R[mask])
                                          / max(np.linalg.norm(Fw[mask]), 1e-300)),
                         modes=int(np.sum(keep)), iterations=iters,
                         discarded_energy=lost)
    return R, report


def sobolev_norm(u, grid, k=0):
    """Discrete H^k norm on the physical window (FD in x0, spectral in x')."""
    mask = grid.physical_mask()
    taxes = tuple(range(1, u.ndim))
    basis = EigenBasis(grid)
    total = 0.0
    term = u
    for j in range(k + 1):
        total += float(np.sum(np.abs(term[mask]) ** 2))
        if j == k:
            break
        # one more derivative order: x0 by FD, transversal spectrally
        dx0 = _fd_dx0(term, grid.dx0, 1)
        tgrad = np.fft.ifftn(np.sqrt(basis.mu)[None]
                             * np.fft.fftn(term, axes=taxes), axes=taxes)
        term = dx0 + 1j * tgrad
    cell = grid.dx0 * np.prod([ax[1] - ax[0] for ax in grid.trans_axes])
    return np.sqrt(total * cell)
