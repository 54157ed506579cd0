"""Discretized direct problem on the product manifold.

Conservative second-order finite differences on tensor grids with diagonal
metrics.  The transversal disk uses a cell-centered polar radius (the pole
face carries zero flux, the rim is a Dirichlet face), so the boundary is
exact; boxes use node axes.  One stencil gives every sparse block of a
solver, evaluated on the grid rows the block needs, and each solver factors
once for every solve with the same zeroth-order coefficient.  On a disk whose
coefficients do not depend on the periodic angle, it builds only the rows at
angle 0 and factors one block per angular frequency; every other domain
builds and factors the whole interior operator.  The blocks are bitwise
slices of that operator, so both paths solve one discretization, and every
factorization uses one symmetric fill-reducing ordering.  Real coefficients
give real factors.

``direct_hierarchy_solve`` is the one multiple-fold linearization cascade,
plain on one solver or exponentially conjugated on one solver per datum
(the boundary route's ``(lam, lam, -lam)``).
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import (ContractionFailure, DirichletEigenvalue, InvalidArgument,
                     SmallDataViolated)

__all__ = [
    "Axis", "ProductDomain", "SchrodingerSolver", "DNRecord",
    "box_domain", "disk_cylinder_domain", "dirichlet_faces",
    "solve_semilinear", "dn_map", "linearize_divided_difference",
    "direct_hierarchy_solve", "greens_pairing",
]


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass
class Axis:
    name: str
    nodes: np.ndarray
    kind: str                  # "node" | "cell" | "periodic"
    dirichlet_lo: bool = False
    dirichlet_hi: bool = False

    @property
    def h(self):
        return float(self.nodes[1] - self.nodes[0])

    @property
    def n(self):
        return len(self.nodes)

    @property
    def weights(self):
        """Trapezoid weights: ``h`` at every node, halved at node-axis ends."""
        w = np.full(self.n, self.h)
        if self.kind == "node":
            w[0] *= 0.5
            w[-1] *= 0.5
        return w


class ProductDomain:
    """Tensor grid with a diagonal metric.

    ``gdiag(coords)`` returns the diagonal metric entries at coordinate
    arrays; ``chart_point`` maps grid coordinates to (x0, xp) pairs for
    evaluating registered fields.
    """

    def __init__(self, axes, gdiag=None, chart_point=None):
        self.axes = list(axes)
        self.gdiag = gdiag
        self._chart_point = chart_point
        self.shape = tuple(ax.n for ax in self.axes)
        self.mesh = np.meshgrid(*[ax.nodes for ax in self.axes], indexing="ij")
        diag = self.metric_at(self.mesh)
        self.W = np.sqrt(np.prod(diag, axis=0))
        self.A = [self.W / diag[j] for j in range(len(self.axes))]
        self._build_boundary()
        self._build_quadrature()

    def _chart(self, coords):
        if self._chart_point is not None:
            return self._chart_point(coords)
        if len(self.axes) == 1:
            return coords[0], coords[0][..., None] * 0.0
        return coords[0], np.stack(coords[1:], axis=-1)

    def points(self):
        return self._chart(self.mesh)

    def metric_at(self, coords):
        if self.gdiag is None:
            return np.ones((len(self.axes),) + np.shape(coords[0]))
        return np.asarray(self.gdiag(coords))

    def _build_boundary(self):
        # node axes drop their Dirichlet end nodes, so the interior is a box
        self.interior_box = [
            np.arange(int(ax.kind == "node" and ax.dirichlet_lo),
                      ax.n - int(ax.kind == "node" and ax.dirichlet_hi))
            for ax in self.axes]
        self.interior = np.zeros(self.shape, dtype=bool)
        self.interior[np.ix_(*self.interior_box)] = True
        # matrix numbers in grid order: interior nodes 0, 1, ... and
        # Dirichlet nodes -1, -2, ...
        inner = self.interior.ravel()
        self.number = np.where(inner, np.cumsum(inner) - 1,
                               -np.cumsum(~inner))

    def _build_quadrature(self):
        w = np.ones(self.shape)
        for j, ax in enumerate(self.axes):
            shape = [1] * len(self.axes)
            shape[j] = ax.n
            w = w * ax.weights.reshape(shape)
        self.quad = w * self.W

    def face_info(self, j, side):
        """Coordinates, surface measure and metric entry on a Dirichlet face."""
        ax = self.axes[j]
        if ax.kind == "node":
            coord = ax.nodes[0] if side == 0 else ax.nodes[-1]
        else:
            coord = (ax.nodes[0] - ax.h / 2 if side == 0
                     else ax.nodes[-1] + ax.h / 2)
        other = [self.axes[k].nodes for k in range(len(self.axes)) if k != j]
        mesh = np.meshgrid(*other, indexing="ij") if other else []
        base_shape = mesh[0].shape if mesh else ()
        coords = []
        it = iter(mesh)
        for k in range(len(self.axes)):
            coords.append(np.full(base_shape, coord) if k == j else next(it))
        diag = self.metric_at(coords)
        ds = np.sqrt(np.prod(diag, axis=0) / diag[j])
        for k in range(len(self.axes)):
            if k == j:
                continue
            shp = [1] * max(len(self.axes) - 1, 1)
            shp[k if k < j else k - 1] = self.axes[k].n
            ds = ds * self.axes[k].weights.reshape(shp)
        return coords, ds, diag[j]

    def face_points(self, j, side):
        return self._chart(self.face_info(j, side)[0])


def dirichlet_faces(domain):
    out = []
    for j, ax in enumerate(domain.axes):
        if ax.dirichlet_lo:
            out.append((j, 0))
        if ax.dirichlet_hi:
            out.append((j, 1))
    return out


def box_domain(lengths, shape):
    """Flat box with node axes, Dirichlet on every face."""
    names = ["x0", "x1", "x2", "x3"]
    axes = [Axis(names[i], np.linspace(0.0, L, n), "node",
                 dirichlet_lo=True, dirichlet_hi=True)
            for i, (L, n) in enumerate(zip(lengths, shape))]
    return ProductDomain(axes)


def disk_cylinder_domain(chart, nx0, nr, nphi):
    """I x disk for n = 3: node interval, cell-centered radius, periodic angle."""
    a0, b0 = chart.interval
    R = chart.radius
    hr = R / nr
    ax0 = Axis("x0", np.linspace(a0, b0, nx0), "node",
               dirichlet_lo=True, dirichlet_hi=True)
    axr = Axis("r", (np.arange(nr) + 0.5) * hr, "cell", dirichlet_hi=True)
    axp = Axis("phi", np.linspace(0.0, 2 * np.pi, nphi, endpoint=False),
               "periodic")
    phi_fn = chart.metric.phi

    def gdiag(coords):
        x0, r, phi = coords
        xp = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
        e2 = np.exp(2.0 * phi_fn(xp))
        return np.stack([np.ones_like(r + x0), e2 + 0 * x0,
                         (e2 * r ** 2) + 0 * x0], axis=0)

    def chart_point(coords):
        x0, r, phi = coords
        return x0, np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)

    return ProductDomain([ax0, axr, axp], gdiag=gdiag, chart_point=chart_point)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

class SchrodingerSolver:
    """Factorized discrete ``-Lap_g + V1`` with Dirichlet conditions.

    A nonzero ``lam`` builds the exponentially conjugated operator
    ``e^{-lam x0} P e^{lam x0}`` as an exact similarity transform of the
    discrete stencil (axis-0 couplings scaled by e^{+/- lam h}), so its
    spectrum and conditioning match the unconjugated solve at any lam; a
    centered first-order term would instead drift like (lam^2 h)^2.

    Every sparse block comes from one stencil (``_coo``) evaluated on the
    rows that block needs, so each is bitwise that block of the whole
    operator.  When the last axis is a periodic angle (at least three points)
    and no coefficient depends on it, the operator is block circulant: the
    per-frequency path builds the rows at angle 0 only, giving the angle-0
    block ``C0`` and the coupling ``C1`` to angle 1, and angular frequency
    ``k`` sees ``C0 + 2 cos(2 pi k / nphi) C1``.  Solves then run per
    frequency between FFTs over the angle, and frequencies ``k`` and
    ``nphi - k`` share one factorization.  Every other domain (the general
    path) builds and factors the whole interior operator ``_A_ii``; the
    per-frequency path builds it only on its first ``apply``.  Both paths
    build the interior-to-Dirichlet coupling ``_A_ib`` from the rows next to
    the Dirichlet nodes, and every factorization uses one symmetric
    fill-reducing ordering (the stencils are structurally symmetric).

    The conjugation factors e^{+/- lam h} are real, so the operator is real
    unless ``V1`` is complex.  A real operator is factored in real
    arithmetic, at half the storage of complex factors, and a solve takes
    the real and imaginary parts of its complex right-hand side as two real
    columns.  A complex ``V1`` (the paper's complex-valued potential) keeps
    complex factors.

    With ``W = sqrt(det g)`` on the diagonal, ``S(lam) = W A(lam)`` satisfies
    ``S(lam)^T = S(-lam)``: each x0 face couples ``i -> i+1`` by
    ``-a e^{lam h}`` and ``i+1 -> i`` by ``-a e^{-lam h}`` with one face
    coefficient ``a``, every other coupling is symmetric, and the diagonal
    (complex ``V1`` included) does not depend on ``lam``.  So the interior
    block obeys ``A(-lam) = W^-1 A(lam)^T W``, blockwise too on the fast path
    (``W`` is angle-free and ``C1`` diagonal), and ``mirror`` solves at
    ``-lam`` through the transposed factors of ``lam``.
    """

    def __init__(self, domain, V1_field=None, lam=0.0):
        self.domain = domain
        self.V1 = (np.zeros(domain.shape) if V1_field is None
                   else np.asarray(V1_field))
        self.lam = float(lam)
        self._trans = "N"           # "T" on factors of -lam (see mirror)
        self._nphi = domain.axes[-1].n if self._fast_angle_possible() else 0
        self._faces = self._cell_faces()
        self._A_ib = self._boundary_coupling()
        if self._nphi:
            C0, C1 = self._angular_blocks()
            cos = np.cos(2.0 * np.pi * np.arange(self._nphi // 2 + 1)
                         / self._nphi)
            self._lus = [_factor(C0 + 2.0 * c * C1) for c in cos]
        else:
            self._lus = [_factor(self._A_ii)]

    def _fast_angle_possible(self):
        """Whether the operator is block circulant in the last axis; below
        three angles the face and the wrap join the same two neighbours."""
        dom = self.domain
        if not dom.axes or dom.axes[-1].kind != "periodic" \
                or dom.axes[-1].n < 3:
            return False
        fields = [dom.W] + dom.A + [np.asarray(self.V1)]
        # absolute test scaled to each field: a relative tolerance would
        # pass a small angular part of a large field as angle-free
        return all(np.allclose(f, f[..., :1], rtol=0.0,
                               atol=1e-13 * np.max(np.abs(f)))
                   for f in fields)

    def mirror(self):
        """The solver at ``-lam`` on this solver's factors.

        It re-derives only its ``-lam`` coupling to the Dirichlet nodes
        (``solve`` reads it; on a disk these are the x0 couplings, the only
        ones that carry ``e^{+/-lam h}``) and factors nothing: a solve
        returns ``W^-1 A(lam)^-T (W b)`` through the transposed factors.  An
        interior operator this solver built for ``apply`` stays behind; the
        twin builds its own at ``-lam`` when it needs one.
        """
        twin = copy.copy(self)
        twin.lam = -self.lam
        twin._trans = "T" if self._trans == "N" else "N"
        twin.__dict__.pop("_A_ii", None)
        twin._A_ib = twin._boundary_coupling()
        return twin

    def _cell_faces(self):
        """(axis, cell index, face coupling, face points) per Dirichlet face
        of a cell-centred axis."""
        dom = self.domain
        faces = []
        for j, ax in enumerate(dom.axes):
            if ax.kind != "cell":
                continue
            for side, active in ((0, ax.dirichlet_lo), (1, ax.dirichlet_hi)):
                if not active:
                    continue
                coords, _, _ = dom.face_info(j, side)
                dm = dom.metric_at(coords)
                a_bnd = (np.sqrt(np.prod(dm, axis=0)) / dm[j]) \
                    / (0.5 * ax.h ** 2)
                faces.append((j, side * (ax.n - 1), a_bnd,
                              dom.face_points(j, side)))
        return faces

    def _coo(self, box):
        """The one stencil, on the rows ``np.ix_(*box)`` of the grid.

        Returns triplets (row ids, column ids, values): the rows' diagonal,
        then their couplings.  No value, nor the order in which a diagonal
        sums its faces, depends on the box.  The values are real unless
        ``V1`` is complex: the conjugation factors e^{+/-lam h} are real.
        """
        dom = self.domain
        ix = np.ix_(*box)
        gid = np.ravel_multi_index(ix, dom.shape)
        W = dom.W[ix]
        diag = np.zeros(W.shape)
        parts = []
        for j, ax in enumerate(dom.axes):
            A = dom.A[j]
            A_row = A[ix]
            # conjugation: the row at x_i sees its neighbour times
            # e^{lam (x_j - x_i)}; only the x0 axis carries the factor
            conj = j == 0 and self.lam != 0.0
            # faces inside the axis first, then the periodic wrap
            for step, wrap in ((1, False), (-1, False), (1, True),
                               (-1, True)):
                nb = ix[j] + step
                beyond = ((nb < 0) | (nb >= ax.n)).ravel()
                ok = beyond if wrap else ~beyond
                if (wrap and ax.kind != "periodic") or not ok.any():
                    continue
                sel = (slice(None),) * j + (ok,)
                nix = ix[:j] + (nb[sel] % ax.n,) + ix[j + 1:]
                a = 0.5 * (A_row[sel] + A[nix]) / ax.h ** 2
                diag[sel] += a
                scale = np.exp(step * self.lam * ax.h) if conj else 1.0
                parts.append((gid[sel],
                              np.ravel_multi_index(nix, dom.shape),
                              -a * scale / W[sel]))
            for jf, k, a_bnd, _ in self._faces:
                on = box[j] == k
                if jf == j and on.any():
                    other = np.ix_(*(box[:j] + box[j + 1:]))
                    diag[(slice(None),) * j + (on,)] += \
                        np.expand_dims(a_bnd[other], j)
        parts.insert(0, (gid, gid, diag / W + self.V1[ix]))
        return tuple(np.concatenate([np.ravel(p[i]) for p in parts])
                     for i in range(3))

    @functools.cached_property
    def _A_ii(self):
        """The interior operator: the general path factors it, the
        per-frequency path builds it only for ``apply``."""
        num = self.domain.number
        rows, cols, vals = self._coo(self.domain.interior_box)
        rows, cols = num[rows], num[cols]
        keep = cols >= 0
        n = int(np.count_nonzero(self.domain.interior))
        return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                             shape=(n, n)).tocsc()

    def _angular_blocks(self):
        """``C0`` and ``C1`` from the interior rows at angle 0, numbered by
        their (x0, r) ray: interior number ``// nphi``."""
        dom, nphi = self.domain, self._nphi
        box = dom.interior_box[:-1] + [np.zeros(1, dtype=int)]
        rows, cols, vals = self._coo(box)
        ray, col = dom.number[rows] // nphi, dom.number[cols]
        n = int(np.prod([len(b) for b in box]))

        def block(angle):
            keep = (cols % nphi == angle) & (col >= 0)
            return sp.coo_matrix((vals[keep], (ray[keep], col[keep] // nphi)),
                                 shape=(n, n)).tocsc()

        return block(0), block(1)

    def _boundary_coupling(self):
        """``_A_ib``: the couplings of the interior rows next to each
        Dirichlet node face to the nodes on it."""
        dom = self.domain
        rows, cols, vals = [], [], []
        for j, ax in enumerate(dom.axes):
            if ax.kind != "node":
                continue
            stride = int(np.prod(dom.shape[j + 1:]))
            for end, active in ((0, ax.dirichlet_lo),
                                (ax.n - 1, ax.dirichlet_hi)):
                if not active:
                    continue
                box = list(dom.interior_box)
                box[j] = np.array([1 if end == 0 else ax.n - 2])
                r, c, v = self._coo(box)
                face = c // stride % ax.n == end
                rows.append(r[face])
                cols.append(c[face])
                vals.append(v[face])
        num = dom.number
        ni = int(np.count_nonzero(dom.interior))
        rows, cols = num[np.concatenate(rows)], -num[np.concatenate(cols)] - 1
        return sp.coo_matrix((np.concatenate(vals), (rows, cols)),
                             shape=(ni, num.size - ni)).tocsr()

    def _face_term(self, bdata):
        """Interior rows of the operator's part on the cell-centred faces,
        for the Dirichlet datum ``bdata``."""
        dom = self.domain
        out = np.zeros(dom.shape, dtype=complex)
        for j, k, a_bnd, (x0f, xpf) in self._faces:
            fv = np.asarray(bdata(x0f, xpf), dtype=complex)
            cell = (slice(None),) * j + (k,)
            out[cell] -= a_bnd * fv / dom.W[cell]
        return out[dom.interior]

    def _lu_solve(self, rhs):
        """Interior unknowns for the interior right-hand side ``rhs``."""
        trans = self._trans
        if trans == "T":
            w = self.domain.W[self.domain.interior]
            rhs = w * rhs
        real = not np.iscomplexobj(self.V1)
        if not self._nphi:
            u = _lu_apply(self._lus[0], rhs, trans, real)
        else:
            nphi = self._nphi
            rk = np.fft.fft(rhs.reshape(-1, nphi), axis=-1)
            for b, lu in enumerate(self._lus):
                ks = [b] if b in (0, nphi - b) else [b, nphi - b]
                rk[:, ks] = _lu_apply(lu, rk[:, ks], trans, real)
            u = np.fft.ifft(rk, axis=-1).ravel()
        return u / w if trans == "T" else u

    # -- solving ------------------------------------------------------------

    def solve(self, F=None, bdata=None):
        """Solve with interior source ``F`` and Dirichlet datum ``bdata``
        (a callable of (x0, xp), evaluated on the Dirichlet nodes and the
        cell-centred faces); returns the full-grid solution."""
        dom = self.domain
        rhs = np.zeros(dom.shape, dtype=complex)
        if F is not None:
            rhs += F
        rhs = rhs[dom.interior]
        u = np.zeros(dom.shape, dtype=complex)
        if bdata is not None:
            x0, xp = dom._chart([c[~dom.interior] for c in dom.mesh])
            ub = np.broadcast_to(np.asarray(bdata(x0, xp), dtype=complex),
                                 np.shape(x0))
            u[~dom.interior] = ub
            rhs = rhs - self._A_ib @ ub - self._face_term(bdata)
        u[dom.interior] = self._lu_solve(rhs)
        return u

    def apply(self, u_full, bdata=None):
        """Discrete operator applied to a full-grid field (interior rows)."""
        dom = self.domain
        u = np.asarray(u_full, dtype=complex)
        out = np.zeros(dom.shape, dtype=complex)
        out[dom.interior] = (self._A_ii @ u[dom.interior]
                             + self._A_ib @ u[~dom.interior])
        if bdata is not None:
            out[dom.interior] += self._face_term(bdata)
        return out


def _factor(M):
    """Sparse LU of ``M`` under a symmetric fill-reducing ordering (minimum
    degree on ``M^T + M``), in the arithmetic of ``M``; a zero Dirichlet
    eigenvalue raises."""
    try:
        lu = splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise DirichletEigenvalue(str(exc))
    du = np.abs(lu.U.diagonal())
    if du.min() < 1e-12 * du.max():
        raise DirichletEigenvalue("pivot collapse: zero is a Dirichlet "
                                  "eigenvalue within resolution")
    return lu


def _lu_apply(lu, b, trans, real):
    """``lu.solve(b, trans)`` for a complex ``b`` (a vector or columns); on
    real factors its real and imaginary parts are solved as real columns."""
    if not real:
        return lu.solve(b, trans=trans)
    parts = np.stack([b.real, b.imag], axis=-1)
    x = lu.solve(parts.reshape(len(b), -1), trans=trans).reshape(parts.shape)
    return x[..., 0] + 1j * x[..., 1]


# ---------------------------------------------------------------------------
# DN records
# ---------------------------------------------------------------------------

@dataclass
class DNRecord:
    face: tuple
    f: np.ndarray
    dn: np.ndarray
    measure: np.ndarray
    iterations: int = 0

    def to_csv_rows(self):
        fr, dr = np.ravel(self.f), np.ravel(self.dn)
        return [(str(self.face[0]), int(self.face[1]), i,
                 fr[i].real, fr[i].imag, dr[i].real, dr[i].imag)
                for i in range(fr.size)]


def normal_derivative(domain, u_full, j, side, bvals=None):
    """Outward normal derivative on a Dirichlet face (3-point one-sided)."""
    ax = domain.axes[j]
    _, ds, gjj = domain.face_info(j, side)
    scale = 1.0 / np.sqrt(gjj)
    take = lambda k: np.take(u_full, k, axis=j)
    h = ax.h
    if ax.kind == "node":
        if side == 0:
            d = -(-3 * take(0) + 4 * take(1) - take(2)) / (2 * h)
        else:
            d = (3 * take(-1) - 4 * take(-2) + take(-3)) / (2 * h)
    else:
        ub = 0.0 if bvals is None else bvals
        if side == 1:
            d = (8.0 * ub - 9.0 * take(-1) + take(-2)) / (3.0 * h)
        else:
            d = -(8.0 * ub - 9.0 * take(0) + take(1)) / (3.0 * h)
    return d * scale, ds


def dn_map(solver, V, f, r0=0.5):
    """DN records of the semilinear solution for a boundary datum."""
    u, info = solve_semilinear(solver, V, f, r0=r0)
    dom = solver.domain
    records = []
    for (j, side) in dirichlet_faces(dom):
        x0f, xpf = dom.face_points(j, side)
        fv = np.asarray(f(x0f, xpf), dtype=complex)
        d, ds = normal_derivative(dom, u, j, side, bvals=fv)
        records.append(DNRecord(face=(dom.axes[j].name, side), f=fv, dn=d,
                                measure=ds, iterations=info["iterations"]))
    return u, records


# ---------------------------------------------------------------------------
# semilinear fixed point
# ---------------------------------------------------------------------------

# relative step and iteration cap of the semilinear fixed point
PICARD_TOL, PICARD_MAXIT = 1e-12, 80


def solve_semilinear(solver, V, f, r0=0.5):
    """Picard iteration around the linear solve for small Dirichlet data,
    a callable ``f(x0, xp)``.

    Returns (u_full, info) with the contraction history recorded.
    """
    dom = solver.domain
    x0, xp = dom.points()
    fmax = float(np.max(np.abs(f(x0, xp))))
    if fmax > r0:
        raise SmallDataViolated(f"datum sup-norm {fmax:.3g} exceeds r0 = {r0}")
    base = solver.solve(bdata=f)
    scale = max(float(np.max(np.abs(base))), 1e-300)
    u_t = np.zeros_like(base)
    history = []
    prev = np.inf
    it = 0
    for it in range(1, PICARD_MAXIT + 1):
        src = -np.asarray(V.tilde_value(x0, xp, base + u_t))
        new = solver.solve(F=src)
        delta = float(np.max(np.abs(new - u_t)))
        history.append(delta)
        u_t = new
        if delta <= PICARD_TOL * scale:
            break
        if it > 3 and delta > 1.5 * prev:
            raise ContractionFailure("fixed point iterates diverge")
        prev = delta
    else:
        raise ContractionFailure("fixed point did not reach tolerance")
    ratios = [history[i + 1] / history[i]
              for i in range(len(history) - 1) if history[i] > 0]
    info = {"iterations": it, "deltas": history,
            "contraction": float(max(ratios)) if ratios else 0.0,
            "sup_ratio": float(np.max(np.abs(base + u_t)) / max(fmax, 1e-300))}
    return base + u_t, info


# ---------------------------------------------------------------------------
# linearization cascade
# ---------------------------------------------------------------------------

def linearize_divided_difference(solver, V, fs, beta, h=1e-3):
    """Mixed centered divided differences of the solution map at zero data."""
    beta = tuple(int(b) for b in beta)
    if sum(beta) < 1 or max(beta) > 3:
        raise InvalidArgument("multi-index entries must be between 0 and 3")

    def solve_at(eps):
        def fcomb(x0, xp):
            out = None
            for e, fk in zip(eps, fs):
                if e == 0.0:
                    continue
                term = e * np.asarray(fk(x0, xp))
                out = term if out is None else out + term
            if out is None:
                x0a = np.asarray(x0)
                return np.zeros(np.broadcast(x0a,
                                             np.asarray(xp)[..., 0]).shape)
            return out
        u, _ = solve_semilinear(solver, V, fcomb)
        return u

    def stencil(b):
        if b == 0:
            return [(0.0, 1.0)]
        if b == 1:
            return [(h, 0.5 / h), (-h, -0.5 / h)]
        if b == 2:
            return [(h, 1.0 / h ** 2), (0.0, -2.0 / h ** 2),
                    (-h, 1.0 / h ** 2)]
        return [(2 * h, 0.5 / h ** 3), (h, -1.0 / h ** 3),
                (-h, 1.0 / h ** 3), (-2 * h, -0.5 / h ** 3)]

    total = None
    for combo in itertools.product(*[stencil(b) for b in beta]):
        eps = [c[0] for c in combo]
        wgt = float(np.prod([c[1] for c in combo]))
        term = wgt * solve_at(eps)
        total = term if total is None else total + term
    return total


def _set_partitions(items, nblocks):
    items = list(items)
    if nblocks == 1:
        yield [items]
        return
    if len(items) < nblocks:
        return
    if len(items) == nblocks:
        yield [[x] for x in items]
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest, nblocks - 1):
        yield [[first]] + part
    for part in _set_partitions(rest, nblocks):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def _partition_sum(Vk, w, slots):
    """``sum_k V_k sum_{partitions of slots into k blocks} prod w[block]``
    over the fields ``Vk``; None when no term is present (a zero block,
    stored as None, drops its terms)."""
    acc = None
    for k, field in Vk.items():
        for part in _set_partitions(slots, k):
            blocks = [w[frozenset(b)] for b in part]
            if all(u is not None for u in blocks):
                term = functools.reduce(np.multiply, blocks, field)
                acc = term if acc is None else acc + term
    return acc


def direct_hierarchy_solve(solver, V, fs, units=0):
    """Top multilinear interaction term and its lower-order companion.

    Returns (L, H, w): ``P L = V_m prod_k (G f_k) + H`` with zero trace,
    ``w`` maps frozensets of datum slots to cascade solutions.  For two data
    the companion vanishes identically.

    ``V`` is the series, or its coefficient fields on the grid as a mapping
    ``{k: V_k}``.  ``solver`` is one solver or one per datum (one domain and
    ``V1``).  A set of data is solved at the sum of its solvers' ``lam``,
    since conjugations multiply: solvers at ``lam_i`` give
    ``e^{-lam_S x0}`` times the plain cascade on the data
    ``e^{lam_i x0} f_i``.  A ``-lam`` solver mirrors a ``+lam`` one and any
    other ``lam`` is built once, on first need.  Slots with one datum object
    and solver share their solutions; a set with no source (coefficients
    vanishing on the grid count as absent) is zero.

    ``units`` more slots hold the unit datum at ``lam = 0``.  With ``V1 = 0``
    the unit field solves it, so it needs no solve and no solver.
    """
    m = len(fs) + units
    solvers = list(solver) if isinstance(solver, (list, tuple)) \
        else [solver] * len(fs)
    base = solvers[0]
    if units and np.any(base.V1):
        raise InvalidArgument("the unit field solves the unit datum only "
                              "when V1 = 0")
    lams = [s.lam for s in solvers] + [0.0] * units
    if not isinstance(V, dict):
        x0, xp = base.domain.points()
        V = {k: V.eval_k(k, x0, xp) for k in range(2, m + 1)
             if k in V.coeffs}
    Vk = {k: f for k in range(2, m + 1)
          if k in V and np.any(f := np.asarray(V[k]))}
    by_lam = {s.lam: s for s in reversed(solvers)}

    def solve_set(subset):
        if len(subset) == 1:
            i = subset[0]
            return (solvers[i].solve(bdata=fs[i]) if i < len(fs) else
                    np.ones(base.domain.shape, dtype=complex))
        acc = _partition_sum(Vk, w, subset)
        lam = sum(lams[i] for i in subset)
        if acc is not None and lam not in by_lam:
            by_lam[lam] = (by_lam[-lam].mirror() if -lam in by_lam else
                           SchrodingerSolver(base.domain, V1_field=base.V1,
                                             lam=lam))
        return None if acc is None else by_lam[lam].solve(F=-acc)

    # unit slots form one class: the first of them
    cls = [next(j for j in range(len(fs)) if fs[j] is fs[i]
                and solvers[j] is solvers[i]) if i < len(fs) else len(fs)
           for i in range(m)]
    shared, w = {}, {}
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            key = tuple(sorted(cls[i] for i in subset))
            if key not in shared:
                shared[key] = solve_set(subset)
            w[frozenset(subset)] = shared[key]

    H = _partition_sum({k: f for k, f in Vk.items() if k < m}, w, range(m))
    zero = np.zeros(base.domain.shape, dtype=complex)
    w = {s: zero if u is None else u for s, u in w.items()}
    return -w[frozenset(range(m))], zero.copy() if H is None else H, w


# ---------------------------------------------------------------------------
# pairings and auxiliary solutions
# ---------------------------------------------------------------------------

def greens_pairing(domain, w_full, w_bdata, L_full, rhs):
    """Boundary and volume forms of the pairing of a homogeneous solution
    with a zero-trace solution, and their discrepancy.

    boundary = -sum_faces w dnu(L) dS (+ terms with L's trace, which vanish);
    volume   = integral of w * rhs.
    """
    boundary = 0.0 + 0.0j
    for (j, side) in dirichlet_faces(domain):
        dL, ds = normal_derivative(domain, L_full, j, side, bvals=0.0)
        x0f, xpf = domain.face_points(j, side)
        wb = np.asarray(w_bdata(x0f, xpf), dtype=complex)
        boundary += -np.sum(wb * dL * ds)
    volume = complex(np.sum(domain.quad * w_full * rhs))
    return boundary, volume, abs(boundary - volume)
