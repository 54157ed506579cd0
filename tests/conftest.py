"""Shared test helpers."""

import numpy as np
import pytest

from beamlab.cylinder import (EigenBasis, _add_x0_stencil, _fd_weights,
                              apply_conjugated)


def _sobolev_norms(u, grid, k):
    """Discrete H^0 ... H^k norms of a cylinder field on the physical window,
    sixth-order differences in x0 and spectral in x'.

    Order j + 1 applies ``D_x0 + i sqrt(mu)`` to order j.  The x0 stencil
    acts on whole transversal slices, so it commutes with the transversal
    FFT: one forward FFT of the rows that the window and k stencil passes
    reach serves every order, and Parseval sums each order in mode space.
    The stencil gives the three end rows on each side no x0 term: at the
    ends of the grid that is the convention of ``apply_conjugated``, and at
    the ends of the slice those rows never reach the window.
    """
    rows = np.flatnonzero(grid.physical_mask())
    lo, hi = max(rows[0] - 3 * k, 0), min(rows[-1] + 3 * k + 1, len(grid.x0))
    term = np.fft.fftn(u[lo:hi], axes=tuple(range(1, u.ndim)))
    inside = slice(rows[0] - lo, rows[-1] + 1 - lo)
    grad = 1j * np.sqrt(EigenBasis(grid).mu)
    c = _fd_weights(grid.dx0, 1)
    squares = []
    for j in range(k + 1):
        squares.append(np.sum(np.abs(term[inside]) ** 2) / term[0].size)
        if j < k:
            term = _add_x0_stencil(grad * term, term, c)
    cell = grid.dx0 * np.prod([ax[1] - ax[0] for ax in grid.trans_axes])
    return np.sqrt(np.cumsum(squares) * cell)


@pytest.fixture(scope="session")
def sobolev_norms():
    return _sobolev_norms


def _solve_residual(R, F, grid, lam, V1_field=None):
    """Relative residual of a cylinder solve R of source F: the norm of
    ``apply_conjugated(R) - F window`` over that of ``F window``, on the
    physical rows less the three end rows of the grid on each side (where
    the x0 stencil does not reach)."""
    Fw = F * grid.window.reshape((-1,) + (1,) * (F.ndim - 1))
    inner = grid.physical_mask()
    inner[:3] = inner[-3:] = False
    res = apply_conjugated(R, grid, lam, V1_field) - Fw
    return np.linalg.norm(res[inner]) / np.linalg.norm(Fw[inner])


@pytest.fixture(scope="session")
def solve_residual():
    return _solve_residual
