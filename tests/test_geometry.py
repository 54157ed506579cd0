import numpy as np
import pytest
from scipy.integrate import solve_ivp

from beamlab.errors import NonUnitSpeed, OutsideTube
from beamlab.geometry import (FermiChart, conformal_reduce, make_chart,
                              parallel_frame, trace_geodesic)
from beamlab.potentials import PotentialSeries, make_field


def reference_exit_time(chart, x, theta):
    """Independent dense integrator with event-based boundary detection."""
    metric = chart.metric

    def rhs(_, s):
        x, v = s[:metric.dim], s[metric.dim:]
        gam = metric.christoffel(x)
        acc = -np.einsum("kij,i,j->k", gam, v, v)
        return np.concatenate([v, acc])

    def hit(_, s):
        return chart.radius - np.linalg.norm(s[:metric.dim])
    hit.terminal = True
    hit.direction = -1

    sol = solve_ivp(rhs, (0.0, 50.0), np.concatenate([x, theta]),
                    rtol=1e-12, atol=1e-12, events=hit, dense_output=True)
    return sol.t_events[0][0]


class TestTraceGeodesic:
    def test_flat_center_chord(self):
        ch = make_chart("flat_disk", n=3)
        p = trace_geodesic(ch, [0.0, 0.0], [1.0, 0.0])
        assert p.tau_minus == pytest.approx(-1.0, abs=1e-9)
        assert p.tau_plus == pytest.approx(1.0, abs=1e-9)
        ts = np.linspace(p.tau_minus, p.tau_plus, 17)
        np.testing.assert_allclose(p.point(ts)[:, 0], ts, atol=1e-10)
        np.testing.assert_allclose(p.point(ts)[:, 1], 0.0, atol=1e-12)

    def test_flat_offset_chord(self):
        ch = make_chart("flat_disk", n=3)
        p = trace_geodesic(ch, [0.5, 0.0], [0.0, 1.0])
        assert p.tau_plus == pytest.approx(np.sqrt(0.75), abs=1e-9)

    def test_sphere_exit_vs_reference(self):
        # hemisphere chart, start away from the pole
        ch = make_chart("sphere_cap", n=3, params={"cap_radius": np.pi / 2 - 0.2})
        x = np.array([0.25, 0.1])
        th = np.array([0.3, 1.0])
        th = th / ch.metric.norm(x, th)
        p = trace_geodesic(ch, x, th)
        ref = reference_exit_time(ch, x, th)
        assert p.tau_plus == pytest.approx(ref, abs=1e-8)

    def test_exit_time_symmetry(self):
        ch = make_chart("flat_disk", n=3)
        x = np.array([0.3, -0.2])
        th = np.array([0.6, 0.8])
        fwd = trace_geodesic(ch, x, th)
        bwd = trace_geodesic(ch, x, -th)
        assert fwd.tau_plus == pytest.approx(-bwd.tau_minus, abs=1e-10)
        assert fwd.tau_minus == pytest.approx(-bwd.tau_plus, abs=1e-10)

    def test_non_unit_speed_rejected(self):
        ch = make_chart("flat_disk", n=3)
        with pytest.raises(NonUnitSpeed):
            trace_geodesic(ch, [0.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("kind,params", [
        ("flat_disk", {}),
        ("sphere_cap", {"cap_radius": 1.25}),
        ("conformal_disk", {}),
    ])
    def test_unit_speed_preserved(self, kind, params):
        ch = make_chart(kind, n=3, params=params)
        x = np.array([0.2, 0.1])
        th = np.array([1.0, 0.4])
        th = th / ch.metric.norm(x, th)
        p = trace_geodesic(ch, x, th, h=1e-3)
        assert p.unit_speed_defect <= 1e-6

    def test_n4_ball(self):
        ch = make_chart("flat_disk", n=4)
        p = trace_geodesic(ch, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert p.tau_plus == pytest.approx(1.0, abs=1e-9)
        assert p.frame.shape[2] == 2


class TestParallelFrame:
    def test_flat_constant(self):
        ch = make_chart("flat_disk", n=3)
        p = trace_geodesic(ch, [0.0, 0.0], [1.0, 0.0])
        assert np.max(np.abs(p.frame - p.frame[0])) <= 1e-12

    def test_orthonormality_and_reference(self):
        ch = make_chart("conformal_disk", n=3)
        m = ch.metric
        x = np.array([0.1, -0.1])
        th = np.array([0.8, 0.6])
        th = th / m.norm(x, th)
        p = trace_geodesic(ch, x, th)
        ips = m.inner(p.x, p.frame[:, :, 0], p.frame[:, :, 0])
        np.testing.assert_allclose(ips, 1.0, atol=1e-8)
        mixed = m.inner(p.x, p.frame[:, :, 0], p.v)
        np.testing.assert_allclose(mixed, 0.0, atol=1e-8)

        # fine-resolution transport oracle along the sampled path
        def rhs(t, e):
            xx = p.point(t)
            vv = p.velocity(t)
            gam = m.christoffel(xx)
            return -np.einsum("kij,i,j->k", gam, vv, e)

        sol = solve_ivp(rhs, (0.0, p.tau_plus), p.frame_at(0.0)[:, 0],
                        rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(p.frame_at(p.tau_plus)[:, 0], sol.y[:, -1],
                                   atol=1e-8)

    def test_round_trip(self):
        ch = make_chart("sphere_cap", n=3, params={"cap_radius": 1.0})
        x = np.array([0.1, 0.05])
        th = np.array([1.0, 0.0])
        th = th / ch.metric.norm(x, th)
        p = trace_geodesic(ch, x, th)
        e = parallel_frame(p, p.frame_at(0.0))
        # transport out and back: compare against the stored forward frame
        np.testing.assert_allclose(e[0], p.frame[0], atol=1e-9)
        np.testing.assert_allclose(e[-1], p.frame[-1], atol=1e-9)

    def test_degenerate_basis_rejected(self):
        from beamlab.errors import DegenerateBasis
        ch = make_chart("flat_disk", n=4)
        p = trace_geodesic(ch, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        bad = np.zeros((3, 2))
        bad[:, 0] = [0.0, 1.0, 0.0]
        bad[:, 1] = [0.0, 1.0, 0.0]
        with pytest.raises(DegenerateBasis):
            parallel_frame(p, bad)


class TestFermi:
    def setup_method(self):
        self.ch = make_chart("sphere_cap", n=3, params={"cap_radius": 1.2})
        x = np.array([0.0, 0.0])
        self.path = trace_geodesic(self.ch, x, np.array([0.5, 0.0]))
        self.fc = FermiChart(self.path)

    def test_flat_identity(self):
        ch = make_chart("flat_disk", n=3)
        p = trace_geodesic(ch, [0.0, 0.0], [1.0, 0.0])
        fc = FermiChart(p)
        pt = fc.forward(np.array(0.3), np.array([0.1]))
        np.testing.assert_allclose(pt, [0.3, 0.1], atol=1e-12)
        y1, ypp = fc.inverse(np.array([0.25, -0.05]))
        assert y1 == pytest.approx(0.25, abs=1e-10)
        assert ypp[0] == pytest.approx(-0.05, abs=1e-10)

    def test_on_axis_exact(self):
        for t in (-0.5, 0.0, 0.7):
            y1, ypp = self.fc.inverse(self.path.point(t))
            assert y1 == pytest.approx(t, abs=1e-8)
            np.testing.assert_allclose(ypp, 0.0, atol=1e-8)

    def test_round_trip(self):
        y1, ypp = self.fc.inverse(self.fc.forward(np.array(0.4), np.array([0.12])))
        assert y1 == pytest.approx(0.4, abs=1e-8)
        assert ypp[0] == pytest.approx(0.12, abs=1e-8)

    def test_axis_normalization(self):
        for t in (-0.4, 0.2, 0.8):
            g = self.fc.pullback_metric(t, np.array([0.0]))
            np.testing.assert_allclose(g, np.eye(2), atol=1e-6)
            h = 1e-4
            d2 = (self.fc.pullback_metric(t, np.array([h]))
                  - self.fc.pullback_metric(t, np.array([-h]))) / (2 * h)
            assert np.max(np.abs(d2)) <= 1e-4

    @staticmethod
    def tube_points():
        """A (k, P) grid of axis coordinates and offsets, as ``tube_grid``
        builds it: the offsets vary from one axis sample to the next."""
        y1 = np.array([-0.4, 0.0, 0.25, 0.5])
        s = np.linspace(-1.0, 1.0, 5)
        T = np.broadcast_to(y1[:, None], (4, 5))
        ypp = (0.05 + 0.1 * np.abs(y1))[:, None, None] * s[None, :, None]
        return T, ypp

    @pytest.mark.parametrize("kind, params", [
        ("flat_disk", {}), ("sphere_cap", {"cap_radius": 1.2}),
        ("conformal_disk", {})])
    def test_batched_map_matches_single_points(self, kind, params):
        ch = make_chart(kind, n=3, params=params)
        x = np.array([0.1, -0.05])
        theta = np.array([0.6, 0.8])
        theta = theta / ch.metric.norm(x, theta)
        fc = FermiChart(trace_geodesic(ch, x, theta))
        T, ypp = self.tube_points()
        pts = fc.forward(T, ypp)
        g = fc.pullback_metric(T, ypp)
        vol = fc.volume(T, ypp)
        assert pts.shape == (4, 5, 2)
        assert g.shape == (4, 5, 2, 2)
        assert vol.shape == (4, 5)
        for i, j in np.ndindex(T.shape):
            pij = fc.forward(T[i, j], ypp[i, j])
            gij = fc.pullback_metric(T[i, j], ypp[i, j])
            assert np.max(np.abs(pts[i, j] - pij)) <= 1e-13
            assert np.max(np.abs(g[i, j] - gij)) <= 1e-13
            assert abs(vol[i, j] - np.sqrt(np.linalg.det(gij))) <= 1e-13
        if kind == "flat_disk":
            assert np.all(vol == 1.0)

    def test_flat_forward_is_affine(self):
        # a straight geodesic off the coordinate axes: the map is the line
        # through gamma(0) with the t = 0 frame, to the last bit
        ch = make_chart("flat_disk", n=3)
        p = trace_geodesic(ch, [0.25, 0.15], [0.6, 0.8])
        T, ypp = self.tube_points()
        expect = (p.point(0.0) + T[..., None] * p.velocity(0.0)
                  + np.einsum("...m,dm->...d", ypp, p.frame_at(0.0)))
        assert np.array_equal(FermiChart(p).forward(T, ypp), expect)

    def test_outside_tube(self):
        with pytest.raises(OutsideTube):
            self.fc.inverse(self.fc.forward(np.array(0.0),
                                            np.array([self.fc.delta_prime * 2.5])))


# ---------------------------------------------------------------------------
# conformal reduction
# ---------------------------------------------------------------------------

def fd_full_metric_laplacian(chart, c, psi, x0, xp, h=1e-3):
    """Independent Laplace-Beltrami oracle for the full metric c((dx0)^2+g)."""
    n = chart.n
    d = chart.metric.dim

    def G_entries(a, b):
        cc = c(a, b)
        ephi2 = np.exp(2.0 * chart.metric.phi(b))
        diag = np.array([cc] + [cc * ephi2] * d)
        return diag

    def flux(a, b, j):
        diag = G_entries(a, b)
        sqrtG = np.sqrt(np.prod(diag))
        # centered first derivative of psi along coordinate j
        if j == 0:
            dpsi = (psi(a + h, b) - psi(a - h, b)) / (2 * h)
        else:
            e = np.zeros(d)
            e[j - 1] = 1.0
            dpsi = (psi(a, b + h * e) - psi(a, b - h * e)) / (2 * h)
        return sqrtG / diag[j] * dpsi

    diag0 = G_entries(x0, xp)
    sqrtG0 = np.sqrt(np.prod(diag0))
    total = 0.0
    for j in range(n):
        if j == 0:
            df = (flux(x0 + h, xp, 0) - flux(x0 - h, xp, 0)) / (2 * h)
        else:
            e = np.zeros(d)
            e[j - 1] = 1.0
            df = (flux(x0, xp + h * e, j) - flux(x0, xp - h * e, j)) / (2 * h)
        total += df
    return total / sqrtG0


class TestConformalReduce:
    def setup_method(self):
        self.ch = make_chart("flat_disk", n=3)
        self.V = PotentialSeries({2: make_field("constant", value=2.0)})

    def test_identity_factor(self):
        c = lambda x0, xp: np.ones(np.broadcast(np.asarray(x0),
                                                np.asarray(xp)[..., 0]).shape)
        out = conformal_reduce(self.V, c, self.ch)
        xp = np.array([0.2, 0.1])
        assert out.eval_k(2, 0.3, xp) == pytest.approx(2.0, abs=1e-12)
        assert abs(out.eval_k(1, 0.3, xp)) <= 1e-10

    def test_constant_factor(self):
        c0 = 1.7
        c = lambda x0, xp: c0 * np.ones(np.broadcast(np.asarray(x0),
                                                     np.asarray(xp)[..., 0]).shape)
        n = self.ch.n
        out = conformal_reduce(self.V, c, self.ch)
        xp = np.array([0.2, 0.1])
        expect = c0 ** ((n + 2) / 4) * c0 ** (-2 * (n - 2) / 4) * 2.0
        assert out.eval_k(2, 0.3, xp) == pytest.approx(expect, rel=1e-10)
        assert abs(out.eval_k(1, 0.3, xp)) <= 1e-8

    def test_radial_factor_vs_fd_oracle(self):
        def c(x0, xp):
            xp = np.asarray(xp)
            r2 = np.sum(xp * xp, axis=-1) + (np.asarray(x0) - 0.5) ** 2
            return 1.0 + 0.2 * np.exp(-r2 / 0.8 ** 2)

        n = self.ch.n
        beta = (n - 2) / 4.0
        out = conformal_reduce(self.V, c, self.ch)
        xp = np.array([0.25, -0.1])
        x0 = 0.4
        # k = 2 coefficient is a pointwise rescale
        assert out.eval_k(2, x0, xp) == pytest.approx(
            c(x0, xp) ** ((n + 2 - 2 * (n - 2)) / 4) * 2.0, rel=1e-12)
        # k = 1 correction against the independent full-metric FD Laplacian
        psi = lambda a, b: c(a, b) ** (-beta)
        oracle = -c(x0, xp) ** (beta + 1.0) * fd_full_metric_laplacian(
            self.ch, c, psi, x0, xp)
        assert out.eval_k(1, x0, xp) == pytest.approx(oracle, abs=5e-5)

    def test_round_trip(self):
        def c(x0, xp):
            xp = np.asarray(xp)
            r2 = np.sum(xp * xp, axis=-1) + (np.asarray(x0) - 0.5) ** 2
            return 1.0 + 0.2 * np.exp(-r2 / 0.8 ** 2)

        V = PotentialSeries({
            1: make_field("gaussian", amp=0.7, center=(0.5, 0.0, 0.0), width=0.9),
            2: make_field("constant", value=2.0),
            3: make_field("gaussian", amp=1.1, center=(0.4, 0.1, 0.0), width=0.8),
        })
        once = conformal_reduce(V, c, self.ch)
        back = conformal_reduce(once, c, self.ch, inverse=True)
        xp = np.array([0.3, 0.2])
        for k in (1, 2, 3):
            a = V.eval_k(k, 0.45, xp)
            b = back.eval_k(k, 0.45, xp)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))
