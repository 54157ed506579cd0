import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.interpolate import CubicSpline, RegularGridInterpolator

from beamlab.cgo import (TubeBeam, YJet, _cell_averaged_cauchy,
                         _transport_sweep, assemble_cgo,
                         build_amplitude, build_phase,
                         conjugated_defect_norm, dbar_solve,
                         eikonal_defect_exact, quasimode_eval,
                         quasimode_lp_norm, smooth_cutoff, tube_grid)
from beamlab.cylinder import make_cylinder_grid
from beamlab.errors import UnsupportedOrder
from beamlab.geometry import (FermiChart, linear_sweep, make_chart, rk4_step,
                              stage_times, trace_geodesic)
from beamlab.jacobi import curvature_along, riccati_path, solve_jacobi
from beamlab.potentials import make_field


@pytest.fixture(scope="module")
def flat_beam():
    ch = make_chart("flat_disk", n=3, params={"tube_radius": 1.0})
    p = trace_geodesic(ch, [0.0, 0.0], [1.0, 0.0])
    K = curvature_along(p)
    Y = solve_jacobi(K, 0.0, [[1.0]], [[1j]], require_admissible=True)
    return ch, p, K, Y


class TestCutoff:
    def test_plateau_and_support(self):
        s = np.array([0.0, 0.3, 0.49, 0.6, 0.8, 0.95, 1.01, 2.0])
        chi = smooth_cutoff(s)
        assert np.all(chi[:3] == 1.0)
        assert np.all(chi[-2:] == 0.0)
        assert np.all((chi[3:6] > 0) & (chi[3:6] < 1))
        assert np.all(np.diff(chi) <= 1e-12)

    def test_derivatives_match_mpmath(self):
        import mpmath

        def chi(s):
            u = 2 * s - 1
            a, b = mpmath.exp(-1 / (1 - u)), mpmath.exp(-1 / u)
            return a / (a + b)

        s = np.linspace(0.5, 1.0, 82)[1:-1]
        with mpmath.workdps(40):
            for k in (1, 2):
                ref = np.array([float(mpmath.diff(chi, mpmath.mpf(v), k))
                                for v in s])
                err = np.max(np.abs(smooth_cutoff(s, k) - ref))
                assert err <= 1e-12 * np.max(np.abs(ref))
                assert np.all(smooth_cutoff([0.2, 0.5, 1.0, 1.3], k) == 0.0)


class TestJets:
    @pytest.mark.parametrize("m,order,ncoef", [(1, 3, 4), (2, 4, 15),
                                               (2, 2, 1)])
    def test_one_spline_matches_per_coefficient_splines(self, m, order,
                                                        ncoef):
        # oracle: one CubicSpline per monomial coefficient
        rng = np.random.default_rng(3)
        tgrid = np.linspace(-1.2, 1.3, 57)
        keys = [(k,) for k in range(order + 1)] if m == 1 else \
            [(a - b, b) for a in range(order + 1) for b in range(a + 1)]
        coeffs = {a: np.cos((i + 1) * tgrid) + 1j * rng.standard_normal(57)
                  for i, a in enumerate(keys[:ncoef])}
        jet = YJet(m, order, coeffs)
        t = rng.uniform(-1.2, 1.3, (7, 5))
        ypp = rng.uniform(-0.3, 0.3, (7, 5, m))
        ref = np.zeros(t.shape, dtype=complex)
        for a, c in coeffs.items():
            mono = np.ones_like(ref)
            for j, p in enumerate(a):
                if p:
                    mono = mono * ypp[..., j] ** p
            ref = ref + CubicSpline(tgrid, c)(t) * mono
        assert np.array_equal(jet.eval_at(tgrid, t, ypp), ref)
        d1 = jet.dy1(tgrid)
        assert list(d1.coeffs) == list(coeffs)
        for a, c in coeffs.items():
            assert np.array_equal(d1.coeffs[a],
                                  CubicSpline(tgrid, c).derivative()(tgrid))


class TestPhase:
    def test_flat_quadratic_structure(self, flat_beam):
        ch, p, K, Y = flat_beam
        ph = build_phase(p, Y, N=2)
        H = riccati_path(Y)
        t0, y2 = 0.3, 0.12
        got = ph.theta(np.array(t0), np.array([y2]))
        expect = t0 + 0.5 * H.at(t0)[0, 0] * y2 ** 2
        assert abs(got - expect) <= 1e-8
        # flat N=2 defect equals the closed form -(1/4) Hdot^2 y^4
        fermi = FermiChart(p, delta_prime=1.2)
        Hv = H.at(t0)[0, 0]
        Sd = eikonal_defect_exact(fermi, ph, t0, [y2])
        assert abs(Sd - (-0.25 * Hv ** 4 * y2 ** 4)) <= 1e-8

    def test_defect_order_flat(self, flat_beam):
        ch, p, K, Y = flat_beam
        fermi = FermiChart(p, delta_prime=1.2)
        for N, min_slope in ((2, 3.7), (4, 5.7)):
            ph = build_phase(p, Y, N=N)
            ys = np.array([0.05, 0.1, 0.2, 0.4])
            ds = [abs(eikonal_defect_exact(fermi, ph, 0.25, [y])) for y in ys]
            slope = np.polyfit(np.log(ys), np.log(ds), 1)[0]
            assert slope >= min_slope

    def test_defect_order_sphere(self):
        ch = make_chart("sphere_cap", n=3, params={"cap_radius": 1.1})
        p = trace_geodesic(ch, [0.0, 0.0], [0.5, 0.0])
        K = curvature_along(p)
        Y = solve_jacobi(K, 0.0, [[1.0]], [[1j]], require_admissible=True)
        fermi = FermiChart(p)
        ph = build_phase(p, Y, N=3)
        ys = np.array([0.02, 0.04, 0.08, 0.16])
        ds = [abs(eikonal_defect_exact(fermi, ph, 0.2, [y])) for y in ys]
        slope = np.polyfit(np.log(ys), np.log(ds), 1)[0]
        assert slope >= ph.N + 1 - 0.3

    def test_gaussian_decay_bound(self, flat_beam):
        # Im Theta >= c0 |y''|^2 inside the tube, c0 the least eigenvalue of
        # Im H along the axis
        ch, p, K, Y = flat_beam
        ph = build_phase(p, Y, N=2)
        imH = (ph.H - np.conj(np.swapaxes(ph.H, 1, 2))) / 2j
        c0 = float(np.min(np.linalg.eigvalsh(imH)))
        assert c0 > 0
        lam = 40.0
        for t0 in (-0.5, 0.2, 0.9):
            for y2 in (0.05, 0.2, 0.4):
                th = ph.theta(np.array(t0), np.array([y2]))
                bound = np.exp(-0.5 * lam * c0 * y2 ** 2)
                assert abs(np.exp(1j * lam * th)) <= bound * 1.0000001

    def test_unsupported_order(self, flat_beam):
        ch, p, K, Y = flat_beam
        with pytest.raises(UnsupportedOrder):
            build_phase(p, Y, N=5)

    def test_n4_matrix_phase(self):
        ch = make_chart("flat_disk", n=4, params={"tube_radius": 0.8})
        p = trace_geodesic(ch, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        K = curvature_along(p)
        Y = solve_jacobi(K, 0.0, np.eye(2), 1j * np.eye(2),
                         require_admissible=True)
        ph = build_phase(p, Y, N=2)
        fermi = FermiChart(p, delta_prime=1.0)
        d = abs(eikonal_defect_exact(fermi, ph, 0.1, [0.1, 0.05]))
        assert d <= 1e-3    # flat matrix case: defect is quartic in offsets


class TestAmplitude:
    def test_transport_sweep_matches_stagewise_splines(self):
        # reference: the splines of B and S evaluated at every RK4 stage
        y1 = np.linspace(-1.1, 1.4, 101)
        c = np.cos(2.0 * y1)[:, None, None]
        B = np.array([[1.0, 0.5j], [0.5j, 2.0]]) * (1.0 + c) + 1j * c
        S = np.stack([np.exp(-y1 ** 2), np.sin(3.0 * y1) + 1j], axis=1)
        Bs, Ss = CubicSpline(y1, B, axis=0), CubicSpline(y1, S, axis=0)
        f = lambda t, y: (-Bs(t) @ y[0] + Ss(t),)
        ref = np.zeros((len(y1), 2), dtype=complex)
        for i in range(41, len(y1)):
            ref[i], = rk4_step(f, y1[i - 1], (ref[i - 1],), y1[i] - y1[i - 1])
        for i in range(39, -1, -1):
            ref[i], = rk4_step(f, y1[i + 1], (ref[i + 1],), y1[i] - y1[i + 1])
        got = _transport_sweep(y1, B, S, 40)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_transport_sweep_one_spline_matches_two(self):
        # the [B | S] spline against separate splines of B and S
        y1 = np.linspace(-1.1, 1.4, 101)
        c = np.cos(2.0 * y1)[:, None, None]
        B = np.array([[1.0, 0.5j], [0.5j, 2.0]]) * (1.0 + c) + 1j * c
        S = np.stack([np.exp(-y1 ** 2), np.sin(3.0 * y1) + 1j], axis=1)
        tt = stage_times(y1)
        A = np.zeros((len(tt), 3, 3), dtype=complex)
        A[:, :2, :2] = -CubicSpline(y1, B, axis=0)(tt)
        A[:, :2, 2] = CubicSpline(y1, S, axis=0)(tt)
        ref = linear_sweep(y1, A, np.eye(3)[2], 40)[:, :2]
        assert np.array_equal(_transport_sweep(y1, B, S, 40), ref)

    def test_v00_branch(self, flat_beam):
        ch, p, K, Y = flat_beam
        ph = build_phase(p, Y, N=2)
        amp = build_amplitude(p, ph, Y, N_amp=0)
        ts = np.linspace(-0.9, 0.9, 9)
        det = Y.det(ts)
        np.testing.assert_allclose(np.abs(amp.v0_eval(ts, np.zeros((9, 1)))),
                                   np.abs(det) ** -0.5, rtol=1e-7)

    def test_transport_defect_small(self, flat_beam):
        ch, p, K, Y = flat_beam
        ph = build_phase(p, Y, N=2, ny1=481)
        amp = build_amplitude(p, ph, Y, N_amp=0)
        assert amp.transport_defect <= 1e-5

    def test_subprincipal_equation(self, flat_beam):
        # (d0 + i d1)(detY^(1/2) v1) reproduces the axis source
        ch, p, K, Y = flat_beam
        V1 = make_field("gaussian", amp=0.6, center=(0.5, 0.1, 0.0), width=0.5)
        ph = build_phase(p, Y, N=2)
        amp = build_amplitude(p, ph, Y, V1=V1, N_amp=1)
        root = 1.0 / amp.v00
        u = amp.v1_plus * root[None, :]
        d0 = np.gradient(u, amp.x0, axis=0)
        d1 = np.gradient(u, amp.y1, axis=1)
        lhs = d0 + 1j * d1
        rhs = 0.5 * root[None, :] * amp.pv0_axis
        inner = (slice(6, -6), slice(6, -6))
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs((lhs - rhs)[inner])) <= 2e-3 * scale


class TestDbar:
    def test_stacked_sources_match_single_calls(self):
        # one call with sources stacked on leading axes equals one call per
        # source, to the last bit
        y0 = np.linspace(-1.0, 1.0, 24)
        y1 = np.linspace(-1.5, 1.5, 40)
        Y0, Y1 = np.meshgrid(y0, y1, indexing="ij")
        F = np.stack([np.exp(-(Y0 - c) ** 2 - Y1 ** 2) * (1.0 + c * 1j)
                      for c in (-0.3, 0.0, 0.2, 0.5)]).reshape(2, 2, 24, 40)
        r = dbar_solve(F, y0, y1)
        assert r.shape == F.shape
        for idx in np.ndindex(2, 2):
            assert np.array_equal(r[idx], dbar_solve(F[idx], y0, y1))

    def test_matches_pad4_circular_convolution(self):
        # reference: the convolution on a grid padded to 4 n per axis, whose
        # circular wrap cannot reach the output window either; n1 = 321
        # gives the padded length 1284 = 4 * 3 * 107 of the boundary route
        y0 = np.linspace(-1.0, 1.0, 24)
        y1 = np.linspace(-1.6, 1.6, 321)
        Y0, Y1 = np.meshgrid(y0, y1, indexing="ij")
        F = np.exp(-(Y0 - 0.2) ** 2 / 0.2 - Y1 ** 2 / 0.5) * (1.0 + 0.4j)
        h0, h1 = y0[1] - y0[0], y1[1] - y1[0]
        N0, N1 = 4 * 24, 4 * 321
        gam = np.fft.ifftshift(_cell_averaged_cauchy(
            (np.arange(N0) - N0 // 2) * h0, (np.arange(N1) - N1 // 2) * h1,
            h0, h1))
        ref = (np.fft.ifft2(np.fft.fft2(F, s=(N0, N1)) * np.fft.fft2(gam))
               * h0 * h1)[:24, :321]
        r = dbar_solve(F, y0, y1)
        assert np.max(np.abs(r - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_cell_kernel_matches_rotated_branch(self):
        # reference: each cell's primitive P(z) = z log(z/u) - z on the
        # principal branch rotated by u, the unit vector to the cell center,
        # which is single-valued on every cell but the origin one.  Row 32
        # (a1 = 0) holds the cells left of the origin that the principal
        # cut of Log crosses.
        h0, h1 = 0.05, 0.03
        a0 = (np.arange(40) - 20) * h0
        a1 = (np.arange(64) - 32) * h1
        X, Y = np.meshgrid(a0, a1, indexing="ij")
        Zc = X + 1j * Y
        absZ = np.abs(Zc)
        u = np.where(absZ > 0, Zc / np.where(absZ > 0, absZ, 1.0), 1.0)

        def prim(zx, zy):
            z = zx + 1j * zy
            return z * np.log(z / u) - z

        contour = 2.0 * (prim(X + h0 / 2, Y - h1 / 2)
                         + prim(X - h0 / 2, Y + h1 / 2)
                         - prim(X + h0 / 2, Y + h1 / 2)
                         - prim(X - h0 / 2, Y - h1 / 2))
        ref = (1j / (4.0 * np.pi)) * contour / (h0 * h1)
        ref[20, 32] = 0.0
        gam = _cell_averaged_cauchy(a0, a1, h0, h1)
        assert gam[20, 32] == 0.0
        assert np.max(np.abs(gam - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_residual_bump(self):
        n = 256
        y = np.linspace(-2.0, 2.0, n)
        Y0, Y1 = np.meshgrid(y, y, indexing="ij")
        r2 = Y0 ** 2 + Y1 ** 2
        F = np.zeros_like(r2, dtype=complex)
        m = r2 < 2.6
        F[m] = np.exp(1.0 - 1.0 / (1.0 - r2[m] / 2.6)) ** 2 * (1.0 + 0.5j)
        r = dbar_solve(F, y, y)
        h = y[1] - y[0]
        c1 = np.array([-1., 9., -45., 0., 45., -9., 1.]) / (60 * h)

        def d6(u, axis):
            out = np.zeros_like(u)
            for k, ck in enumerate(c1):
                if ck:
                    out += ck * np.roll(u, 3 - k, axis=axis)
            return out

        res = d6(r, 0) + 1j * d6(r, 1) - F
        inner = (slice(10, -10),) * 2
        assert np.max(np.abs(res[inner])) <= 1e-4 * np.max(np.abs(F))

    def test_pointwise_quadrature_oracle(self):
        # polar-coordinate adaptive quadrature of the same decaying solution
        n = 256
        y = np.linspace(-2.0, 2.0, n)
        Y0, Y1 = np.meshgrid(y, y, indexing="ij")
        F = np.exp(-(Y0 ** 2 + Y1 ** 2) / 0.5) * (1.0 + 0.5j)
        r = dbar_solve(F, y, y)

        def oracle(px, py):
            R = 4.5

            def fn(rho, phi, part):
                sx = px - rho * np.cos(phi)
                sy = py - rho * np.sin(phi)
                val = (np.exp(-(sx ** 2 + sy ** 2) / 0.5) * (1.0 + 0.5j)
                       * np.exp(-1j * phi) / (2 * np.pi))
                return val.real if part == "re" else val.imag

            re = dblquad(lambda rho, phi: fn(rho, phi, "re"),
                         0, 2 * np.pi, 0, R, epsabs=1e-11)[0]
            im = dblquad(lambda rho, phi: fn(rho, phi, "im"),
                         0, 2 * np.pi, 0, R, epsabs=1e-11)[0]
            return re + 1j * im

        for i, j in ((128, 128), (150, 120), (100, 160)):
            assert abs(r[i, j] - oracle(y[i], y[j])) <= 5e-5


class TestRates:
    sigma = 1.0
    lams = [20.0, 40.0, 80.0, 160.0]

    def test_lp_scaling(self, flat_beam):
        # ||V||_Lp ~ lambda^{-(n-2)/(2p)}: -(1/2) for p=1, -(1/4) for p=2
        ch, p, K, Y = flat_beam
        ph = build_phase(p, Y, N=2)
        amp = build_amplitude(p, ph, Y, N_amp=0)
        for pp, expect in ((1, -0.5), (2, -0.25)):
            norms = [quasimode_lp_norm(ph, amp, complex(l, self.sigma), +1,
                                       ch, p=pp) for l in self.lams]
            slope = np.polyfit(np.log(self.lams), np.log(norms), 1)[0]
            assert slope == pytest.approx(expect, abs=0.15)

    def test_l2_scaling_sphere(self):
        ch = make_chart("sphere_cap", n=3, params={"cap_radius": 1.1,
                                                   "tube_radius": 0.35})
        p = trace_geodesic(ch, [0.0, 0.0], [0.5, 0.0])
        K = curvature_along(p)
        Y = solve_jacobi(K, 0.0, [[1.0]], [[1j]], require_admissible=True)
        ph = build_phase(p, Y, N=2)
        amp = build_amplitude(p, ph, Y, N_amp=0)
        fermi = FermiChart(p)
        lams = [40.0, 80.0, 160.0, 320.0]
        norms = [quasimode_lp_norm(ph, amp, complex(l, self.sigma), +1, ch,
                                   fermi=fermi, ny1=80, nypp=41, nx0=9)
                 for l in lams]
        slope = np.polyfit(np.log(lams), np.log(norms), 1)[0]
        assert slope == pytest.approx(-0.25, abs=0.15)

    def test_defect_slopes(self, flat_beam):
        ch, p, K, Y = flat_beam
        for N in (2, 4):
            ph = build_phase(p, Y, N=N, ny1=401)
            amp = build_amplitude(p, ph, Y, N_amp=1)
            dn = [conjugated_defect_norm(ph, amp, complex(l, self.sigma), +1, ch)
                  for l in self.lams]
            slope = np.polyfit(np.log(self.lams), np.log(dn), 1)[0]
            assert slope <= 2 - N / 2 - 0.25 + 0.3

    def test_defect_norm_matches_per_node_sum(self, flat_beam):
        # every x0 node in one batched defect call equals the sum over the
        # nodes one at a time, for both signs
        ch, p, K, Y = flat_beam
        ph = build_phase(p, Y, N=2, ny1=201)
        amp = build_amplitude(p, ph, Y, N_amp=1)
        rho = complex(30.0, self.sigma)
        y1, T, ypp, wgt = tube_grid(ph, amp.delta, 41, 21)
        x0 = np.linspace(*ch.interval, 9)
        # trapezoid weights in x0 and y1
        wx0 = np.full(9, x0[1] - x0[0])
        wy1 = np.full(41, y1[1] - y1[0])
        wx0[[0, -1]] /= 2.0
        wy1[[0, -1]] /= 2.0
        beam = TubeBeam(ph, amp, T, ypp)
        for sign in (+1, -1):
            total = sum(w * np.sum(np.abs(beam.defect(np.full(T.shape, x),
                                                      rho, sign)) ** 2
                                   * (wgt * wy1)[:, None])
                        for w, x in zip(wx0, x0))
            ref = np.sqrt(total)
            got = conjugated_defect_norm(ph, amp, rho, sign, ch, ny1=41,
                                         nypp=21, nx0=9)
            assert abs(got - ref) <= 1e-13 * ref

    def test_norm_independent_of_x0_nodes(self, flat_beam):
        # the principal beam's modulus does not depend on x0, so the norm
        # must not depend on the x0 node count; summing every node at full
        # weight read 1.380 at nx0 = 3 and 1.131 at nx0 = 129
        ch, p, K, Y = flat_beam
        ph = build_phase(p, Y, N=2)
        amp = build_amplitude(p, ph, Y, N_amp=0)
        norms = [quasimode_lp_norm(ph, amp, complex(40.0, self.sigma), +1, ch,
                                   nx0=nx0) for nx0 in (3, 5, 33, 129)]
        np.testing.assert_allclose(norms, norms[0], rtol=1e-12)

    def test_minus_beam_pairing(self, flat_beam):
        # conjugate-phase beam from the same jets at sampled points
        ch, p, K, Y = flat_beam
        ph = build_phase(p, Y, N=2)
        amp = build_amplitude(p, ph, Y, N_amp=0)
        rho = complex(30.0, 1.0)
        t = np.array([0.2, -0.4])
        ypp = np.array([[0.1], [0.2]])
        x0 = np.array([0.3, 0.6])
        plus = quasimode_eval(ph, amp, rho, +1, x0, t, ypp)
        minus = quasimode_eval(ph, amp, rho, -1, x0, t, ypp)
        theta = ph.theta(t, ypp)
        v0 = amp.v0_eval(t, ypp)
        chi = smooth_cutoff(np.abs(ypp[:, 0]) / amp.delta)
        expect_minus = (np.exp(1j * rho.imag * x0)
                        * np.exp(-1j * np.conj(rho) * np.conj(theta))
                        * np.conj(v0) * chi)
        np.testing.assert_allclose(minus, expect_minus, rtol=1e-12)
        # |V^+- | share the same Gaussian envelope
        np.testing.assert_allclose(np.abs(plus), np.abs(minus), rtol=1e-10)

    def test_subprincipal_grids_interpolated_linearly(self, flat_beam):
        # v1 enters the beam by linear interpolation on its (x0, axis) grid,
        # 0 off the grid: the last two x0 lie outside it
        ch, p, K, Y = flat_beam
        V1 = make_field("gaussian", amp=0.6, center=(0.5, 0.1, 0.0),
                        width=0.5)
        ph = build_phase(p, Y, N=2)
        amp = build_amplitude(p, ph, Y, V1=V1, N_amp=1)
        rho = complex(30.0, 1.0)
        t = np.array([0.2, -0.4, 0.7, 0.1, -0.3])
        ypp = np.array([[0.1], [0.2], [-0.3], [0.0], [0.1]])
        x0 = np.array([0.3, 0.61, -0.45, amp.x0[-1] + 0.1, amp.x0[0] - 0.1])
        theta = ph.theta(t, ypp)
        v0 = amp.v0_eval(t, ypp)
        chi = smooth_cutoff(np.abs(ypp[:, 0]) / amp.delta)
        for sign, grid, ph_s, v0_s, rs in (
                (+1, amp.v1_plus, np.exp(1j * rho * theta), v0, rho),
                (-1, amp.v1_minus, np.exp(-1j * np.conj(rho)
                                          * np.conj(theta)),
                 np.conj(v0), np.conj(rho))):
            v1 = RegularGridInterpolator((amp.x0, amp.y1), grid,
                                         bounds_error=False, fill_value=0.0)(
                np.stack([x0, t], axis=-1))
            assert np.all(v1[:3] != 0) and np.all(v1[3:] == 0)
            expect = (np.exp(1j * rho.imag * x0) * ph_s * (v0_s + v1 / rs)
                      * chi)
            np.testing.assert_allclose(quasimode_eval(ph, amp, rho, sign,
                                                      x0, t, ypp),
                                       expect, rtol=1e-13)


@pytest.fixture(scope="module")
def small_assembly():
    ch = make_chart("flat_disk", n=3, params={"tube_radius": 1.0,
                                              "margin": 0.3})
    p = trace_geodesic(ch, [0.0, 0.0], [1.0, 0.0])
    K = curvature_along(p)
    Y = solve_jacobi(K, 0.0, [[1.0]], [[1j]], require_admissible=True)
    ph = build_phase(p, Y, N=2, ny1=201)
    amp = build_amplitude(p, ph, Y, N_amp=1)
    return p, ph, amp, make_cylinder_grid(ch, nx0=24, ntrans=48)


class TestAssembly:
    def test_remainder_and_pde_residual(self, monkeypatch, solve_residual):
        import beamlab.cgo as cgo

        # generous trace margin so the axis taper stays spectrally gentle
        ch = make_chart("flat_disk", n=3, params={"tube_radius": 1.0,
                                                  "margin": 0.3})
        p = trace_geodesic(ch, [0.0, 0.0], [1.0, 0.0])
        K = curvature_along(p)
        Y = solve_jacobi(K, 0.0, [[1.0]], [[1j]], require_admissible=True)
        ph = build_phase(p, Y, N=2, ny1=401)
        amp = build_amplitude(p, ph, Y, N_amp=1)
        grid = make_cylinder_grid(ch, nx0=96, ntrans=192)
        # the source and lambda handed to the right inverse, recorded
        solves, solve = [], cgo.conjugated_solve

        def recording(F, grid, lam, V1_field=None):
            solves.append((F, lam))
            return solve(F, grid, lam, V1_field)

        monkeypatch.setattr(cgo, "conjugated_solve", recording)
        (sol,) = assemble_cgo(p, ph, amp, 40.0, 1.0, grid, signs=(+1,))
        ((F, lam),) = solves
        assert lam == 40.0
        assert solve_residual(sol.remainder, F, grid, lam) <= 1e-3
        assert sol.pde_residual <= 2e-3
        # remainder much smaller than the beam on the physical window
        mask = grid.physical_mask()
        Q = sol.field - sol.remainder
        assert (np.linalg.norm(sol.remainder[mask])
                <= 0.05 * np.linalg.norm(Q[mask]))
        # evaluation at chart points: the field at nodes, 0 off the grid
        ax1, ax2 = grid.trans_axes
        i = np.array([0, 20, 47, 95])
        j = np.array([0, 96, 100, 191])
        k = np.array([191, 90, 101, 0])
        xp = np.stack([ax1[j], ax2[k]], axis=-1)
        np.testing.assert_array_equal(sol(grid.x0[i], xp),
                                      sol.field[i, j, k])
        assert np.any(sol.field[i, j, k] != 0)
        off = np.array([[ax1[-1] + 0.5 * (ax1[1] - ax1[0]), 0.0],
                        [0.0, ax2[0] - 1e-3], [0.0, 0.0]])
        x0_off = np.array([0.5, 0.5, grid.x0[-1] + 0.5 * grid.dx0])
        np.testing.assert_array_equal(sol(x0_off, off), 0.0)

    def test_batched_nodes_match_per_node_loop(self, small_assembly,
                                               monkeypatch):
        # reference: the beam and its defect evaluated at one x0 node at a
        # time on the tube points, walking the grid's nodes itself
        import beamlab.cgo as cgo

        p, ph, amp, grid = small_assembly
        batched = assemble_cgo(p, ph, amp, 20.0, 1.0, grid)

        def per_node(method):
            def loop(beam, x0, rho, sign):
                return np.stack([method(beam, np.full(beam.t.shape, x), rho,
                                        sign) for x in grid.x0])
            return loop

        for name in ("value", "defect"):
            monkeypatch.setattr(cgo.TubeBeam, name,
                                per_node(getattr(cgo.TubeBeam, name)))
        refs = assemble_cgo(p, ph, amp, 20.0, 1.0, grid)
        for new, ref in zip(batched, refs):
            for a, b in ((new.field, ref.field),
                         (new.remainder, ref.remainder)):
                assert np.max(np.abs(b)) > 0
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    def test_pair_matches_single_sign_calls(self, small_assembly):
        # the shared tube map and samplers change no bit of either solution
        p, ph, amp, grid = small_assembly
        pair = assemble_cgo(p, ph, amp, 20.0, 1.0, grid, signs=(+1, -1))
        assert len(pair) == 2
        for s, sol in zip((+1, -1), pair):
            (ref,) = assemble_cgo(p, ph, amp, 20.0, 1.0, grid, signs=(s,))
            assert np.array_equal(sol.field, ref.field)
            assert np.array_equal(sol.remainder, ref.remainder)
            assert sol.report == ref.report
            assert sol.pde_residual == ref.pde_residual
        # the two signs are different solutions
        assert not np.array_equal(pair[0].field, pair[1].field)

    def test_one_operator_pass_per_sign(self, small_assembly, monkeypatch):
        # the solve does not re-apply the operator; only the PDE residual
        # of U does, once per sign
        import beamlab.cgo as cgo
        import beamlab.cylinder as cylinder

        calls = []

        def counting(apply):
            def wrapper(*args, **kwargs):
                calls.append(args[2])
                return apply(*args, **kwargs)
            return wrapper

        for module in (cylinder, cgo):
            monkeypatch.setattr(module, "apply_conjugated",
                                counting(module.apply_conjugated))
        p, ph, amp, grid = small_assembly
        assemble_cgo(p, ph, amp, 20.0, 1.0, grid, signs=(+1, -1))
        assert calls == [20.0, -20.0]

    def test_off_centre_anchor_keeps_its_beam(self):
        # the axis coordinate of an off-centre anchor is not centred on the
        # chart; the tube and the axis taper must still cover all of it
        ch = make_chart("flat_disk", n=3, interval=(0.0, 0.25),
                        params={"tube_radius": 0.7, "margin": 0.3})
        grid = make_cylinder_grid(ch, nx0=48, ntrans=80)
        res = {}
        for anchor in ((0.0, 0.0), (0.3, 0.0), (-0.2, 0.0)):
            p = trace_geodesic(ch, anchor, [1.0, 0.0])
            K = curvature_along(p)
            Y = solve_jacobi(K, 0.0, [[1.0]], [[1j]], require_admissible=True)
            ph = build_phase(p, Y, N=2)
            amp = build_amplitude(p, ph, Y, N_amp=1, delta=0.7)
            (sol,) = assemble_cgo(p, ph, amp, 20.0, 0.25, grid, signs=(+1,))
            res[anchor] = sol.pde_residual
        centred = res.pop((0.0, 0.0))
        for anchor, value in res.items():
            assert value <= 2.0 * centred, anchor

    def test_curved_assembly_rejected(self):
        ch = make_chart("sphere_cap", n=3, params={"cap_radius": 1.1})
        p = trace_geodesic(ch, [0.0, 0.0], [0.5, 0.0])
        K = curvature_along(p)
        Y = solve_jacobi(K, 0.0, [[1.0]], [[1j]], require_admissible=True)
        # assembly rejects the chart before it reads the jets
        ph = build_phase(p, Y, N=2, ny1=11)
        amp = build_amplitude(p, ph, Y, N_amp=0)
        grid = make_cylinder_grid(ch, nx0=32, ntrans=32)
        with pytest.raises(UnsupportedOrder):
            assemble_cgo(p, ph, amp, 20.0, 1.0, grid)
