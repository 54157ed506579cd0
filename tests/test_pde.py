import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_bvp

from beamlab import pde
from beamlab.errors import (ContractionFailure, DirichletEigenvalue,
                            InvalidArgument, SmallDataViolated)
from beamlab.geometry import make_chart
from beamlab.pde import (Axis, ProductDomain, SchrodingerSolver, box_domain,
                         direct_hierarchy_solve, disk_cylinder_domain,
                         dn_map, greens_pairing, linearize_divided_difference,
                         normal_derivative, solve_semilinear)
from beamlab.potentials import PotentialSeries, make_field


def edge_datum(x0, xp):
    # sin(pi x) on the far y edge of the unit square, zero elsewhere
    xp = np.asarray(xp)
    return np.where(np.isclose(xp[..., 0], 1.0),
                    np.sin(np.pi * np.asarray(x0)), 0.0)


V_NONE = PotentialSeries({})


def interval_domain(length, n):
    """[0, length] on n nodes, Dirichlet at both ends."""
    ax = Axis("x", np.linspace(0.0, length, n), "node",
              dirichlet_lo=True, dirichlet_hi=True)
    return ProductDomain([ax])


class FullFactorization(SchrodingerSolver):
    """The solver with its per-frequency blocks switched off."""

    def _fast_angle_possible(self):
        return False


def disk_datum(x0, xp):
    xp = np.asarray(xp)
    return np.cos(2 * np.asarray(x0)) + xp[..., 0] + 0.5 * xp[..., 1] ** 2


def rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestGreenOperators:
    def test_separable_dirichlet(self):
        dom = box_domain((1.0, 1.0), (65, 65))
        s = SchrodingerSolver(dom)
        u = s.solve(bdata=edge_datum)
        X, Y = dom.mesh
        exact = np.sin(np.pi * X) * np.sinh(np.pi * Y) / np.sinh(np.pi)
        assert np.max(np.abs(u - exact)) <= 2e-4

    def test_source_inverts_apply(self):
        # manufactured interior field with zero trace, on a box and on a disk
        # whose angular modes run through the per-frequency blocks
        box = box_domain((1.0, 1.0), (41, 41))
        X, Y = box.mesh
        w_box = np.sin(np.pi * X) * np.sin(2 * np.pi * Y) * (1 + 0.3 * X)
        disk = disk_cylinder_domain(
            make_chart("flat_disk", n=3, params={"radius": 0.5}), 17, 12, 16)
        X0, R, PHI = disk.mesh
        w_disk = np.sin(np.pi * X0) * (1 + 0.3 * X0) * np.cos(R) \
            * (1 + 0.2 * np.cos(PHI) + 0.1 * np.sin(3 * PHI))
        for dom, w in ((box, w_box), (disk, w_disk)):
            s = SchrodingerSolver(dom, V1_field=0.4 * np.ones(dom.shape))
            F = s.apply(w)
            u = s.solve(F=F)
            assert np.max(np.abs(u - w)[dom.interior]) <= 1e-11

        # the disk solver again, with a datum on the rim's cell face
        def rim(x0, xp):
            xp = np.asarray(xp)
            return 1.5 + np.cos(2 * np.asarray(x0)) * xp[..., 0] \
                + 0.5 * xp[..., 1] ** 2
        assert np.min(np.abs(rim(*disk.face_points(1, 1)))) >= 1.0
        u = s.solve(F=F, bdata=rim)
        res = s.apply(u, bdata=rim) - F
        assert np.max(np.abs(res[disk.interior])) \
            <= 1e-11 * np.max(np.abs(F))

    def test_linearity(self):
        dom = box_domain((1.0, 1.0), (33, 33))
        s = SchrodingerSolver(dom)
        f2 = lambda x0, xp: 2.5 * edge_datum(x0, xp)
        u1 = s.solve(bdata=edge_datum)
        u2 = s.solve(bdata=f2)
        assert np.max(np.abs(u2 - 2.5 * u1)) <= 1e-12
        X, Y = dom.mesh
        F = np.sin(np.pi * X) * Y
        v1 = s.solve(F=F)
        v2 = s.solve(F=3.0 * F)
        assert np.max(np.abs(v2 - 3.0 * v1)) <= 1e-12

    def test_convergence_order(self):
        errs = []
        for n in (17, 33, 65):
            dom = box_domain((1.0, 1.0), (n, n))
            s = SchrodingerSolver(dom)
            u = s.solve(bdata=edge_datum)
            X, Y = dom.mesh
            exact = np.sin(np.pi * X) * np.sinh(np.pi * Y) / np.sinh(np.pi)
            errs.append(np.max(np.abs(u - exact)))
        for i in range(2):
            order = np.log2(errs[i] / errs[i + 1])
            assert order == pytest.approx(2.0, abs=0.2)

    def test_polar_domain_manufactured(self):
        for radius in (1.0, 0.5):
            ch = make_chart("flat_disk", n=3, params={"radius": radius})
            errs = []
            for nx, nr, nphi in ((25, 16, 16), (49, 32, 32)):
                dom = disk_cylinder_domain(ch, nx, nr, nphi)
                s = SchrodingerSolver(dom)
                X0, R, PHI = dom.mesh
                w = np.sin(np.pi * X0) * (radius ** 2 - R ** 2)
                F = np.pi ** 2 * w + 4.0 * np.sin(np.pi * X0)
                u = s.solve(F=F)
                errs.append(np.max(np.abs(u - w)))
            assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.2)

    def test_angular_blocks_match_full_factorization(self):
        for kind, params in (("sphere_cap", {"cap_radius": 1.25}),
                             ("flat_disk", {"radius": 0.5})):
            dom = disk_cylinder_domain(make_chart(kind, n=3, params=params),
                                       17, 12, 16)
            X0, R, PHI = dom.mesh
            F = np.sin(np.pi * X0) * (1 + R * np.cos(PHI)
                                      + 0.3 * np.sin(3 * PHI))
            V1 = 0.4 * np.ones(dom.shape)
            for lam in (0.0, 3.0):
                blk = SchrodingerSolver(dom, V1_field=V1, lam=lam)
                ful = FullFactorization(dom, V1_field=V1, lam=lam)
                assert rel_diff(blk.solve(F=F), ful.solve(F=F)) <= 1e-12
                assert rel_diff(blk.solve(bdata=disk_datum),
                                ful.solve(bdata=disk_datum)) <= 1e-12
                u = ful.solve(F=F, bdata=disk_datum)
                assert rel_diff(blk.apply(u, bdata=disk_datum),
                                ful.apply(u, bdata=disk_datum)) <= 1e-12
                assert blk._nphi == 16 and ful._nphi == 0

    def test_small_angular_part_is_not_angle_free(self):
        # a 1e-6 relative angular part of a large coefficient: the blocks
        # would solve its angle-0 ray everywhere
        dom = disk_cylinder_domain(make_chart("flat_disk", n=3,
                                              params={"radius": 0.5}),
                                   17, 12, 16)
        X0, R, PHI = dom.mesh
        V1 = 40.0 * (1.0 + 1e-6 * np.cos(PHI))
        F = np.sin(np.pi * X0) * (1 + R * np.cos(PHI))
        s = SchrodingerSolver(dom, V1_field=V1, lam=3.0)
        ful = FullFactorization(dom, V1_field=V1, lam=3.0)
        assert rel_diff(s.solve(F=F), ful.solve(F=F)) <= 1e-12

    def test_mirror_matches_fresh_factorization(self):
        # the -lam solve through the transposed +lam factors
        def disk(kind, params):
            return disk_cylinder_domain(make_chart(kind, n=3, params=params),
                                        17, 12, 16)

        flat = disk("flat_disk", {"radius": 0.5})
        cases = [(flat, 0.4, 16),
                 (disk("sphere_cap", {"cap_radius": 1.25}), 0.4, 16),
                 (disk("conformal_disk", {"radius": 0.5}), 0.4, 0),
                 (box_domain((1.0, 1.0, 1.0), (13, 11, 9)), 0.4, 0),
                 (flat, 0.4 + 0.3j, 16)]
        _, R, PHI = flat.mesh
        cases.append((flat, (0.4 + 0.3j) * (1 + R * np.cos(PHI)), 0))
        for dom, V1, nphi in cases:
            X0, Y1, Y2 = dom.mesh
            F = np.sin(np.pi * X0) * (1 + Y1 * np.cos(Y2))
            V1 = V1 * np.ones(dom.shape)
            for lam in (3.0, -2.0):
                fwd = SchrodingerSolver(dom, V1_field=V1, lam=lam)
                mir = fwd.mirror()
                ref = SchrodingerSolver(dom, V1_field=V1, lam=-lam)
                assert mir.lam == ref.lam and mir._nphi == ref._nphi == nphi
                assert rel_diff(mir.solve(F=F), ref.solve(F=F)) <= 1e-12
                assert rel_diff(mir.solve(bdata=disk_datum),
                                ref.solve(bdata=disk_datum)) <= 1e-12
                u = ref.solve(F=F, bdata=disk_datum)
                assert rel_diff(mir.apply(u, bdata=disk_datum),
                                ref.apply(u, bdata=disk_datum)) <= 1e-12
                # an operator built for apply at lam stays with lam
                fwd.apply(u)
                assert rel_diff(fwd.mirror().apply(u, bdata=disk_datum),
                                ref.apply(u, bdata=disk_datum)) <= 1e-12
                # mirroring twice solves at lam again on the same factors
                back = mir.mirror()
                assert back.lam == lam and back._lus is mir._lus
                assert rel_diff(back.solve(F=F),
                                SchrodingerSolver(dom, V1_field=V1,
                                                  lam=lam).solve(F=F)) \
                    <= 1e-12

    def test_real_coefficients_give_real_factors(self):
        # real or absent V1: real factors; complex V1: complex ones.  The
        # real factors solve, and solve mirrored, as a complex factorization
        # of the same matrix (V1 with a zero imaginary part) does
        disk = disk_cylinder_domain(make_chart("flat_disk", n=3,
                                               params={"radius": 0.5}),
                                    17, 12, 16)
        box = box_domain((1.0, 1.0, 1.0), (13, 11, 9))
        for dom in (disk, box):
            X0, Y1, Y2 = dom.mesh
            F = np.sin(np.pi * X0) * (1 + Y1 * np.cos(Y2)) * (1 + 0.5j * X0)
            V1 = 0.4 * np.ones(dom.shape)
            for lam in (0.0, 3.0):
                assert not np.iscomplexobj(
                    SchrodingerSolver(dom, lam=lam)._lus[0].U.data)
                assert np.iscomplexobj(SchrodingerSolver(
                    dom, V1_field=V1 + 0.3j, lam=lam)._lus[0].U.data)
                real = SchrodingerSolver(dom, V1_field=V1, lam=lam)
                cplx = SchrodingerSolver(dom, V1_field=V1.astype(complex),
                                         lam=lam)
                assert not np.iscomplexobj(real._lus[0].U.data)
                assert np.iscomplexobj(cplx._lus[0].U.data)
                for a, b in ((real, cplx), (real.mirror(), cplx.mirror())):
                    assert rel_diff(a.solve(F=F, bdata=disk_datum),
                                    b.solve(F=F, bdata=disk_datum)) <= 1e-12

    def test_dirichlet_eigenvalue_guard(self):
        # V1 = -mu with mu a Dirichlet eigenvalue: of the whole operator on a
        # box, of the frequency-0 block on a disk
        from scipy.sparse.linalg import eigsh
        dom = box_domain((1.0, 1.0), (21, 21))
        s0 = SchrodingerSolver(dom)
        lam0 = eigsh(s0._A_ii.real, k=1, which="SM",
                     return_eigenvectors=False)[0]
        with pytest.raises(DirichletEigenvalue):
            SchrodingerSolver(dom, V1_field=-lam0 * np.ones(dom.shape))
        disk = disk_cylinder_domain(make_chart("flat_disk", n=3,
                                               params={"radius": 0.5}),
                                    9, 6, 8)
        C0, C1 = SchrodingerSolver(disk)._angular_blocks()
        mu = np.linalg.eigvals((C0 + 2.0 * C1).toarray()).real.min()
        with pytest.raises(DirichletEigenvalue):
            SchrodingerSolver(disk, V1_field=-mu * np.ones(disk.shape))

    def test_blocks_are_slices_of_the_whole_operator(self):
        # C0, C1 and _A_ib come from the rows they need; the same stencil on
        # every grid row gives the whole operator they must be cut from
        flat = disk_cylinder_domain(make_chart("flat_disk", n=3,
                                               params={"radius": 0.5}),
                                    9, 6, 8)
        cap = disk_cylinder_domain(make_chart("sphere_cap", n=3,
                                              params={"cap_radius": 1.25}),
                                   9, 6, 8)
        for dom, V1 in ((flat, 0.4), (cap, 0.4), (flat, 0.4 + 0.3j)):
            inner = dom.interior.ravel()
            ray = np.flatnonzero(inner)[::8]
            for lam in (0.0, 3.0, -2.0):
                s = SchrodingerSolver(dom, V1_field=V1 * np.ones(dom.shape),
                                      lam=lam)
                rows, cols, vals = s._coo([np.arange(n) for n in dom.shape])
                full = sp.coo_matrix((vals, (rows, cols)),
                                     shape=(inner.size,) * 2).tocsr()
                C0, C1 = s._angular_blocks()
                for block, ref in ((C0, full[ray][:, ray]),
                                   (C1, full[ray][:, ray + 1]),
                                   (s._A_ib, full[inner][:, ~inner]),
                                   (s._A_ii, full[inner][:, inner])):
                    assert block.shape == ref.shape
                    assert (block != ref).nnz == 0

    def test_angular_path_builds_no_whole_operator(self):
        dom = disk_cylinder_domain(make_chart("flat_disk", n=3,
                                              params={"radius": 0.5}),
                                   17, 12, 16)
        X0, R, PHI = dom.mesh
        F = np.sin(np.pi * X0) * (1 + R * np.cos(PHI))
        V1 = 0.4 * np.ones(dom.shape)
        sizes = []

        def datum(x0, xp):
            sizes.append(np.size(x0))
            return disk_datum(x0, xp)

        s = SchrodingerSolver(dom, V1_field=V1, lam=3.0)
        mir = s.mirror()
        u = s.solve(F=F, bdata=datum)
        mir.solve(F=F, bdata=datum)
        assert "_A_ii" not in s.__dict__ and "_A_ii" not in mir.__dict__
        # the datum is read on the Dirichlet nodes and the rim faces only
        rim = dom.face_points(1, 1)[0].size
        assert sizes == [np.count_nonzero(~dom.interior), rim] * 2
        ful = FullFactorization(dom, V1_field=V1, lam=3.0)
        assert rel_diff(s.apply(u, bdata=disk_datum),
                        ful.apply(u, bdata=disk_datum)) <= 1e-12


class TestSemilinear:
    def test_linear_single_iteration(self):
        dom = box_domain((1.0, 1.0), (33, 33))
        s = SchrodingerSolver(dom)
        V = PotentialSeries({1: make_field("constant", value=0.0)})
        f = lambda x0, xp: 0.3 * edge_datum(x0, xp)
        u, info = solve_semilinear(s, V, f)
        assert info["iterations"] == 1
        np.testing.assert_allclose(u, s.solve(bdata=f), atol=1e-14)

    def test_zero_datum(self):
        dom = box_domain((1.0, 1.0), (33, 33))
        s = SchrodingerSolver(dom)
        V = PotentialSeries({2: make_field("constant", value=2.0)})
        f = lambda x0, xp: 0.0 * np.asarray(x0)
        u, _ = solve_semilinear(s, V, f)
        assert np.max(np.abs(u)) == 0.0

    def test_small_data_guard(self):
        dom = box_domain((1.0, 1.0), (17, 17))
        s = SchrodingerSolver(dom)
        V = PotentialSeries({2: make_field("constant", value=2.0)})
        with pytest.raises(SmallDataViolated):
            solve_semilinear(s, V, lambda x0, xp: 2.0 + 0.0 * np.asarray(x0),
                             r0=0.5)

    def test_contraction_failures(self, monkeypatch):
        # at the largest small datum a strong quadratic term diverges; a
        # weaker one contracts (factor 0.26) in 19 steps, so a cap of 18
        # stops it short of the tolerance
        dom = box_domain((1.0, 1.0), (17, 17))
        s = SchrodingerSolver(dom)
        f = lambda x0, xp: 0.5 + 0.0 * np.asarray(x0)
        strong = PotentialSeries({2: make_field("constant", value=100.0)})
        with pytest.raises(ContractionFailure, match="diverge"):
            solve_semilinear(s, strong, f)
        weak = PotentialSeries({2: make_field("constant", value=10.0)})
        assert solve_semilinear(s, weak, f)[1]["iterations"] == 19
        monkeypatch.setattr(pde, "PICARD_MAXIT", 18)
        with pytest.raises(ContractionFailure, match="did not reach"):
            solve_semilinear(s, weak, f)

    def test_quadratic_1d_vs_bvp_oracle(self):
        # -u'' + u^2 = 0 on [0,1] with small boundary values
        dom = interval_domain(1.0, 16001)
        s = SchrodingerSolver(dom)
        V = PotentialSeries({2: make_field("constant", value=2.0)})
        a, b = 0.12, -0.08
        f = lambda x0, xp: np.where(np.asarray(x0) < 0.5, a, b)
        u, info = solve_semilinear(s, V, f)

        def rhs(x, y):
            return np.vstack([y[1], y[0] ** 2])

        def bc(ya, yb):
            return np.array([ya[0] - a, yb[0] - b])

        xs = np.linspace(0, 1, 201)
        sol = solve_bvp(rhs, bc, xs, np.vstack([np.linspace(a, b, 201),
                                                np.zeros(201)]), tol=1e-12)
        ref = sol.sol(dom.mesh[0])[0]
        assert np.max(np.abs(u.real - ref)) <= 1e-8
        assert info["contraction"] < 1.0

    def test_contraction_recorded_and_stable(self):
        V = PotentialSeries({2: make_field("constant", value=2.0),
                             3: make_field("constant", value=1.5)})
        sups = []
        for n in (21, 41):
            dom = box_domain((1.0, 1.0), (n, n))
            s = SchrodingerSolver(dom)
            f = lambda x0, xp: 0.25 * edge_datum(x0, xp)
            u, info = solve_semilinear(s, V, f)
            assert info["contraction"] < 1.0
            sups.append(info["sup_ratio"])
        assert abs(sups[0] - sups[1]) <= 0.1 * max(sups)


class TestDNMap:
    def test_far_edge_closed_form(self):
        dom = box_domain((1.0, 1.0), (129, 129))
        s = SchrodingerSolver(dom)
        u, recs = dn_map(s, V_NONE, edge_datum, r0=2.0)
        rec = next(r for r in recs if r.face == ("x1", 0))
        xs = dom.axes[0].nodes
        # outward normal at y=0: -du/dy = -pi sin(pi x)/sinh(pi)
        expect = -np.pi * np.sin(np.pi * xs) / np.sinh(np.pi)
        assert np.max(np.abs(rec.dn - expect)) <= 2e-3

    def test_zero_datum_maps_to_zero(self):
        dom = box_domain((1.0, 1.0), (33, 33))
        s = SchrodingerSolver(dom)
        f0 = lambda x0, xp: 0.0 * np.asarray(x0)
        _, recs = dn_map(s, V_NONE, f0)
        for r in recs:
            assert np.max(np.abs(r.dn)) == 0.0

    def test_green_identity_symmetry(self):
        # <f, Lambda g> = <Lambda f, g> for the linear map, to grid order
        dom = box_domain((1.0, 1.0), (65, 65))
        s = SchrodingerSolver(dom, V1_field=0.3 * np.ones(dom.shape))
        fa = lambda x0, xp: 0.2 * edge_datum(x0, xp)
        fb = lambda x0, xp: 0.2 * np.where(
            np.isclose(np.asarray(xp)[..., 0], 0.0),
            np.sin(2 * np.pi * np.asarray(x0)), 0.0)
        V = PotentialSeries({1: make_field("constant", value=0.3)})
        _, ra = dn_map(s, V, fa, r0=2.0)
        _, rb = dn_map(s, V, fb, r0=2.0)
        pair_ab, pair_ba = 0.0, 0.0
        for qa, qb in zip(ra, rb):
            x0f, xpf = s.domain.face_points(
                dict(x0=0, x1=1)[qa.face[0]], qa.face[1])
            fav = fa(x0f, xpf)
            fbv = fb(x0f, xpf)
            pair_ab += np.sum(fav * qb.dn * qa.measure)
            pair_ba += np.sum(fbv * qa.dn * qa.measure)
        assert abs(pair_ab - pair_ba) <= 2e-3 * max(abs(pair_ab), 1e-12)


class TestLinearization:
    def setup_method(self):
        self.dom = box_domain((1.0, 1.0), (41, 41))
        self.V = PotentialSeries({
            1: make_field("constant", value=0.2),
            2: make_field("gaussian", amp=1.4, center=(0.5, 0.5), width=0.6),
            3: make_field("constant", value=0.9),
        })
        V1 = self.V.eval_k(1, *self.dom.points())
        self.s = SchrodingerSolver(self.dom, V1_field=V1)
        self.f1 = lambda x0, xp: edge_datum(x0, xp)
        self.f2 = lambda x0, xp: np.where(
            np.isclose(np.asarray(xp)[..., 0], 0.0),
            np.sin(2 * np.pi * np.asarray(x0)), 0.0)
        self.f3 = lambda x0, xp: np.where(
            np.isclose(np.asarray(x0), 0.0),
            np.sin(np.pi * np.asarray(xp)[..., 0]), 0.0)

    def test_first_order_is_green(self):
        dd = linearize_divided_difference(self.s, self.V, [self.f1], (1,),
                                          h=1e-3)
        assert np.max(np.abs(dd - self.s.solve(bdata=self.f1))) <= 1e-5

    def test_complex_step_matches(self):
        # the first derivative of the solution map by an imaginary datum step
        h = 1e-8
        u, _ = solve_semilinear(self.s, self.V,
                                lambda x0, xp: 1j * h * self.f1(x0, xp),
                                r0=0.5)
        cs = np.imag(u) / h
        ref = self.s.solve(bdata=self.f1).real
        assert np.max(np.abs(cs - ref)) <= 1e-6

    def test_second_order_cross_validation(self):
        L, H, _ = direct_hierarchy_solve(self.s, self.V, [self.f1, self.f2])
        assert np.max(np.abs(H)) == 0.0
        errs = []
        for h in (2e-2, 1e-2):
            dd = linearize_divided_difference(self.s, self.V,
                                              [self.f1, self.f2], (1, 1), h=h)
            errs.append(np.max(np.abs(dd - (-L))))
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(4.0, abs=0.8)

    def test_third_order_cross_validation(self):
        L, H, _ = direct_hierarchy_solve(self.s, self.V,
                                         [self.f1, self.f2, self.f3])
        errs = []
        for h in (4e-2, 2e-2):
            dd = linearize_divided_difference(
                self.s, self.V, [self.f1, self.f2, self.f3], (1, 1, 1), h=h)
            errs.append(np.max(np.abs(dd - (-L))))
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(4.0, abs=0.8)

    def test_second_interactions_feed_third_order(self):
        # top coefficient absent: the full interaction is companion-driven
        V = PotentialSeries({
            1: make_field("constant", value=0.2),
            2: make_field("gaussian", amp=1.4, center=(0.5, 0.5), width=0.6),
        })
        L, H, _ = direct_hierarchy_solve(self.s, V, [self.f1, self.f2, self.f3])
        assert np.max(np.abs(H)) > 0.0
        dd = linearize_divided_difference(self.s, V,
                                          [self.f1, self.f2, self.f3],
                                          (1, 1, 1), h=2e-2)
        assert np.max(np.abs(dd - (-L))) <= 5e-3 * max(np.max(np.abs(L)), 1e-9)
        check = self.s.apply(L) - H
        prods = np.ones(self.dom.shape, dtype=complex)
        for fk in (self.f1, self.f2, self.f3):
            prods = prods * self.s.solve(bdata=fk)
        # with V3 = 0 the product term is absent: P L = H exactly
        assert np.max(np.abs(check)[self.dom.interior]) <= 1e-10

    def test_zero_data(self):
        f0 = lambda x0, xp: 0.0 * np.asarray(x0)
        L, H, _ = direct_hierarchy_solve(self.s, self.V, [f0, f0, f0])
        assert np.max(np.abs(L)) == 0.0

    def test_dn_of_linearization_matches(self):
        # DN divided differences determine the normal trace of L
        L, _, _ = direct_hierarchy_solve(self.s, self.V, [self.f1, self.f2])
        dL, _ = normal_derivative(self.dom, -L, 1, 0, bvals=0.0)
        h = 1e-2
        acc = None
        for s1 in (+1, -1):
            for s2 in (+1, -1):
                f = lambda x0, xp, s1=s1, s2=s2: (
                    s1 * h * self.f1(x0, xp) + s2 * h * self.f2(x0, xp))
                _, recs = dn_map(self.s, self.V, f)
                rec = next(r for r in recs if r.face == ("x1", 0))
                term = s1 * s2 * rec.dn / (4 * h * h)
                acc = term if acc is None else acc + term
        assert np.max(np.abs(acc - dL)) <= 5e-3 * max(np.max(np.abs(dL)), 1e-9)


class TestConjugatedCascade:
    @pytest.mark.parametrize("kind", ["box", "disk"])
    @pytest.mark.parametrize("repeat", [False, True])
    def test_conjugation_similarity(self, kind, repeat):
        # solvers at (lam, lam, -lam) on the data g_i return e^{-lam_S x0}
        # times the plain cascade on the data e^{lam_i x0} g_i, set by set;
        # the disk runs the per-frequency blocks, the box the full matrix
        if kind == "box":
            dom = box_domain((1.0, 1.0, 1.0), (13, 11, 9))
            center = (0.5, 0.5, 0.5)
        else:
            dom = disk_cylinder_domain(
                make_chart("flat_disk", n=3, params={"radius": 0.5}),
                17, 12, 16)
            center = (0.5, 0.1, 0.0)
        V = PotentialSeries({
            1: make_field("constant", value=0.3),
            2: make_field("gaussian", amp=1.4, center=center, width=0.6),
            3: make_field("poly_x0", coeffs=[0.9, 0.3]),
        })
        V1 = V.eval_k(1, *dom.points())
        g2 = lambda x0, xp: np.sin(np.asarray(x0)) + np.asarray(xp)[..., 1]
        g3 = lambda x0, xp: 1.0 + np.asarray(x0) * np.asarray(xp)[..., 0]
        fs = [disk_datum, disk_datum if repeat else g2, g3]
        lam = 1.5
        lams = (lam, lam, -lam)
        s = SchrodingerSolver(dom, V1_field=V1, lam=lam)
        assert s._nphi == (16 if kind == "disk" else 0)
        L, H, w = direct_hierarchy_solve([s, s, s.mirror()], V, fs)
        plain = [lambda x0, xp, f=f, l=l:
                 np.exp(l * np.asarray(x0)) * f(x0, xp)
                 for f, l in zip(fs, lams)]
        L0, H0, w0 = direct_hierarchy_solve(
            SchrodingerSolver(dom, V1_field=V1), V, plain)
        X0 = dom.mesh[0]
        assert set(w) == set(w0)
        for subset, u in w.items():
            lam_s = sum(lams[i] for i in subset)
            assert rel_diff(u, np.exp(-lam_s * X0) * w0[subset]) <= 1e-12
        assert rel_diff(L, np.exp(-lam * X0) * L0) <= 1e-12
        assert rel_diff(H, np.exp(-lam * X0) * H0) <= 1e-12
        # one datum object on one solver: its sets share one solution
        assert (w[frozenset([0, 2])] is w[frozenset([1, 2])]) == repeat
        # the unit field solves the unit datum only without V1
        with pytest.raises(InvalidArgument, match="V1 = 0"):
            direct_hierarchy_solve([s, s, s.mirror()], V, fs, units=1)


class TestPairingAndW:
    def test_pairing_manufactured(self):
        dom = box_domain((1.0, 1.0), (65, 65))
        s = SchrodingerSolver(dom)
        wb = lambda x0, xp: 1.0 + 0.2 * np.asarray(x0)
        w = s.solve(bdata=wb)
        X, Y = dom.mesh
        Lf = np.sin(np.pi * X) * np.sin(np.pi * Y)
        rhs = 2 * np.pi ** 2 * Lf
        b, v, gap = greens_pairing(dom, w, wb, Lf, rhs)
        assert gap <= 5e-3 * abs(v)

    def test_pairing_zero_w(self):
        dom = box_domain((1.0, 1.0), (33, 33))
        s = SchrodingerSolver(dom)
        zb = lambda x0, xp: 0.0 * np.asarray(x0)
        w = s.solve(bdata=zb)
        X, Y = dom.mesh
        Lf = np.sin(np.pi * X) * np.sin(np.pi * Y)
        b, v, gap = greens_pairing(dom, w, zb, Lf, 2 * np.pi ** 2 * Lf)
        assert abs(b) == 0.0 and abs(v) == 0.0

    def test_unit_datum_extends_to_unit_field(self):
        dom = box_domain((1.0, 1.0), (33, 33))
        s = SchrodingerSolver(dom)
        # harmonic extension of the unit datum is the unit field
        ones = lambda x0, xp: np.ones(np.broadcast(
            np.asarray(x0), np.asarray(xp)[..., 0]).shape)
        np.testing.assert_allclose(s.solve(bdata=ones).real, 1.0, atol=1e-10)
