"""Right inverse of the exponentially conjugated operator on a cylinder.

The transversal chart is embedded in a flat torus (closed extension); its
Laplacian eigenfunctions are explicit Fourier modes, so the conjugated solve
factors per mode into two first-order symbol inversions ``S_a`` on the line,
realized by padded FFTs.  Both inversions run in one pass over fixed-size
blocks of lines (about 1 MB of padded lines each), so the padded copies a
solve holds do not grow with the number of modes.  A zeroth-order potential
is absorbed by a fixed point loop around the free solve, which contracts
once the free inverse gains its 1/lambda factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NeumannDivergence, ResonantLambda, ZeroSymbol

__all__ = [
    "CylinderGrid", "EigenBasis", "SolveReport",
    "torus_length", "make_cylinder_grid", "s_a_apply", "conjugated_solve",
    "apply_conjugated",
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
    """Laplace eigenpairs of the flat torus extension, indexed as the
    transversal FFT's modes: mode ``index`` is ``exp(i omega[index] . x')``
    over the square root of the torus volume, with eigenvalue
    ``mu[index] = |omega[index]|^2``."""

    def __init__(self, grid):
        ks = [2.0 * np.pi * np.fft.fftfreq(len(ax), ax[1] - ax[0])
              for ax in grid.trans_axes]
        mesh = np.meshgrid(*ks, indexing="ij")
        self.omega = np.stack(mesh, axis=-1)
        self.mu = np.sum(self.omega ** 2, axis=-1)

    def eigenvalue(self, index):
        return float(self.mu[tuple(index)])

    def index_near_sqrt(self, target):
        """Mode multi-index whose sqrt(eigenvalue) is closest to target."""
        flat = int(np.argmin(np.abs(np.sqrt(self.mu) - target)))
        return np.unravel_index(flat, self.mu.shape)


# ---------------------------------------------------------------------------
# one-dimensional symbol inverse
# ---------------------------------------------------------------------------

# zero padding of the line, as a multiple of the window; bytes of padded
# lines that s_a_apply transforms at a time; smallest |lambda^2 - mu| on a
# retained mode; share of the source energy that the discarded modes may
# carry; relative step and cap of the potential loop
S_A_PAD, S_A_BLOCK_BYTES = 4, 2 ** 20
RESONANCE_MARGIN, ENERGY_CUT = 1e-6, 1e-10
SOLVE_TOL, SOLVE_MAXIT = 1e-10, 40


def _transfers(a, n, dx):
    """Transfer of (d/dx + a)^-1 on ``S_A_PAD n`` padded samples, one row
    per distinct parameter of ``a``, and the row of each entry of ``a``."""
    if np.any(a == 0):
        raise ZeroSymbol("symbol parameter must be nonzero")
    a, line = np.unique(a, return_inverse=True)
    npad = S_A_PAD * n
    xi = 2.0 * np.pi * np.fft.fftfreq(npad, dx)
    transfer = 1j * xi + a[:, None]
    np.divide(1.0, transfer, out=transfer)
    # u(x) = int_0^inf e^{-a s} h(x - s) ds for Re a >= 0 and
    # u(x) = -int_0^inf e^{a s} h(x + s) ds otherwise: cell integrals of the
    # kernel e^{-b s}, b = a sign(Re a), at the lags m sign(Re a)
    conv = np.abs(a) * (npad - n) * dx < 40.0
    sign = np.where(np.real(a[conv]) >= 0, 1, -1)[:, None]
    b = sign * a[conv][:, None]
    m = np.arange(npad - n - 1)
    ker = np.zeros((b.size, npad), dtype=complex)
    cells = np.where(m == 0, 1.0 - np.exp(-b * dx / 2),
                     np.exp(-b * (m * dx - dx / 2))
                     - np.exp(-b * (m * dx + dx / 2))) / (b * dx)
    np.put_along_axis(ker, (sign * m) % npad, sign * cells, axis=-1)
    transfer[conv] = np.fft.fft(ker) * dx
    return transfer, line.ravel()


def s_a_apply(h, dx, *a):
    """Inverses of (d/dx + a) on the line, applied in turn, each restricted
    to the input window.

    ``h`` holds line samples along axis 0, and each factor ``a`` broadcasts
    against ``h.shape[1:]``, one symbol parameter per line.  Each factor's
    transfer is built once per call and per distinct parameter (the torus
    modes are degenerate, so many lines share one) and gathered per line.
    For kernels that die out inside the padding the transfer is the inverse
    symbol 1/(i xi + a).  Slowly decaying kernels (|a| small, e.g.
    near-resonant modes) would wrap under periodization, so their transfer
    is the transform of exact cell integrals of the one-sided exponential
    kernel, a linear convolution that reproduces the decaying line solution
    on the window regardless of |a|.

    The lines run through one reusable buffer of ``S_A_BLOCK_BYTES`` of
    padded lines.  Per factor, a block zeroes its padding (the truncation to
    the window), is transformed in place, multiplied by its transfers and
    transformed back, and its window is then copied out.  Besides the result
    and the transfer tables, a call holds three such blocks (the lines,
    their gathered transfers and the FFT's working copy), whatever the
    number of lines; each line's result does not depend on the block it
    shares.  The result has the layout of ``h``.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    npad = S_A_PAD * n
    # the kernel support (npad - n cells) and the signal (n cells) fit in the
    # pad, so the circular product realizes the non-circular convolution
    tables = [_transfers(np.broadcast_to(ak, h.shape[1:]), n, dx) for ak in a]
    rows = np.moveaxis(h, 0, -1).reshape(-1, n)
    out = np.empty_like(rows)
    block = max(1, S_A_BLOCK_BYTES // (16 * npad))
    buf = np.empty((min(block, len(rows)), npad), dtype=complex)
    gathered = np.empty_like(buf)
    for start in range(0, len(rows), block):
        stop = min(start + block, len(rows))
        lines, t = buf[:stop - start], gathered[:stop - start]
        lines[:, :n] = rows[start:stop]
        for transfer, line in tables:
            lines[:, n:] = 0.0
            np.fft.fft(lines, out=lines)
            lines *= np.take(transfer, line[start:stop], axis=0, out=t)
            np.fft.ifft(lines, out=lines)
        out[start:stop] = lines[:, :n]
    return np.moveaxis(out.reshape(h.shape[1:] + (n,)), -1, 0)


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


def _free_solve(Fw, grid, lam, basis, keep=None):
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
        cut_idx = int(np.searchsorted(cum, ENERGY_CUT * total))
        thresh = flat[cut_idx - 1] if cut_idx > 0 else -1.0
        keep = energy > thresh
    mu = basis.mu
    gap = np.abs(lam ** 2 - mu[keep])
    if gap.size and np.min(gap) < RESONANCE_MARGIN:
        raise ResonantLambda(
            f"lambda^2 within {RESONANCE_MARGIN} of a retained eigenvalue")
    root = np.sqrt(mu[keep])
    # short-range factor first: the intermediate stays supported near the
    # window, so the long-range pass remains exact on it
    a_big, a_small = lam + root, lam - root
    swap = np.abs(a_small) > np.abs(a_big)
    a_big, a_small = np.where(swap, a_small, a_big), np.where(swap, a_big, a_small)
    # kept modes gathered once as contiguous (mode, x0) rows; s_a_apply
    # takes lines along axis 0, so it is handed their transpose.  Fhat's
    # storage then takes the solution's modes, zero where discarded
    rows = np.moveaxis(Fhat, 0, -1)[keep]
    Rhat = Fhat
    Rhat[:, ~keep] = 0.0
    R = s_a_apply(rows.T, grid.dx0, a_big, a_small)
    Rhat[:, keep] = np.negative(R, out=R)
    R = np.fft.ifftn(Rhat, axes=taxes)
    lost = float(np.sum(energy[~keep]) / total)
    return R, keep, lost


def _fd_weights(dx, order):
    """Sixth-order centered x0 difference weights on seven nodes."""
    if order == 1:
        return np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * dx)
    return (np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0])
            / (180.0 * dx ** 2))


def _add_x0_stencil(out, u, c):
    """Add the seven-point x0 stencil ``c`` of ``u`` to ``out`` away from
    the three end nodes on each side; returns ``out``.  Every term is
    multiplied into one reused buffer."""
    tmp = None
    for k, ck in enumerate(c):
        if ck != 0.0:
            tmp = np.multiply(ck, u[k:len(u) - 6 + k], out=tmp)
            out[3:-3] += tmp
    return out


def apply_conjugated(R, grid, lam, V1_field=None):
    """Apply the conjugated operator with FD in x0 and spectral transversal
    derivatives; independent of the per-mode construction path.

    The x0 part ``-(d^2/dx0^2 + 2 lam d/dx0)`` is one seven-point stencil
    with combined weights (0 at the three end nodes on each side)."""
    taxes = tuple(range(1, R.ndim))
    basis = EigenBasis(grid)
    out = np.fft.ifftn(basis.mu[None] * np.fft.fftn(R, axes=taxes), axes=taxes)
    out -= lam ** 2 * R
    c = -(_fd_weights(grid.dx0, 2) + 2.0 * lam * _fd_weights(grid.dx0, 1))
    _add_x0_stencil(out, R, c)
    if V1_field is not None:
        out += V1_field * R
    return out


def conjugated_solve(F, grid, lam, V1_field=None):
    """Solve the conjugated equation on the cylinder for a gridded source.

    Returns ``(R, SolveReport)``.  The potential term is handled by the
    fixed-point loop ``R <- free_solve(F - V1 R)`` which contracts for
    lambda beyond a geometry- and potential-dependent threshold.
    """
    basis = EigenBasis(grid)
    wshape = (len(grid.x0),) + (1,) * (F.ndim - 1)
    Fw = F * grid.window.reshape(wshape)
    R, keep, lost = _free_solve(Fw, grid, lam, basis)
    iters = 0
    if V1_field is not None and np.max(np.abs(V1_field)) > 0:
        ref = np.linalg.norm(R)
        prev_delta = np.inf
        growth = 0
        Rj = R
        for iters in range(1, SOLVE_MAXIT + 1):
            # mode set frozen across the loop so the map stays affine
            Rn, _, _ = _free_solve(Fw - V1_field * Rj, grid, lam, basis,
                                   keep=keep)
            delta = np.linalg.norm(Rn - Rj)
            if delta <= SOLVE_TOL * max(ref, 1e-300):
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

