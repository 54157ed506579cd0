import numpy as np
import pytest
from scipy.integrate import solve_ivp

from beamlab import geometry
from beamlab.errors import (ConfigInvalid, NonUnitSpeed, OutsideTube,
                            TrappedGeodesic)
from beamlab.geometry import (FermiChart, _conn, _geodesic_rhs,
                              _variation_rhs, make_chart, trace_geodesic)


def christoffel(metric, x):
    """Gamma[k, i, j] of ``e^{2 phi} delta`` from the gradient of phi, as a
    rank-3 array (the library contracts the closed form instead)."""
    dphi = metric.grad_phi(x)
    eye = np.eye(metric.dim)
    return (np.einsum("ki,j->kij", eye, dphi)
            + np.einsum("kj,i->kij", eye, dphi)
            - np.einsum("ij,k->kij", eye, dphi))


def reference_exit_time(chart, x, theta):
    """Independent dense integrator with event-based boundary detection."""
    metric = chart.metric

    def rhs(_, s):
        x, v = s[:metric.dim], s[metric.dim:]
        gam = christoffel(metric, x)
        acc = -np.einsum("kij,i,j->k", gam, v, v)
        return np.concatenate([v, acc])

    def hit(_, s):
        return chart.radius - np.linalg.norm(s[:metric.dim])
    hit.terminal = True
    hit.direction = -1

    sol = solve_ivp(rhs, (0.0, 50.0), np.concatenate([x, theta]),
                    rtol=1e-12, atol=1e-12, events=hit, dense_output=True)
    return sol.t_events[0][0]


CHARTS = [("flat_disk", {}), ("sphere_cap", {"cap_radius": 1.25}),
          ("conformal_disk", {})]


class TestConnection:
    @staticmethod
    def sample(kind, params, n):
        rng = np.random.default_rng(7)
        m = make_chart(kind, n=n, params=params).metric
        x = np.array([0.2, -0.1, 0.15][:m.dim])
        return m, x, rng.standard_normal((3, m.dim, 2))

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind,params", CHARTS)
    def test_gamma_vs_metric_differences(self, kind, params, n):
        # Gamma^k_ij = g^kl (d_i g_lj + d_j g_li - d_l g_ij) / 2 with
        # g = e^{2 phi} delta, from central differences of e^{2 phi}
        m, x, (v, w, _) = self.sample(kind, params, n)
        d, h = m.dim, 1e-5
        f = lambda q: np.exp(2.0 * m.phi(q))
        df = np.array([(f(x + h * e) - f(x - h * e)) / (2 * h)
                       for e in np.eye(d)])
        eye = np.eye(d)
        gam = (np.einsum("i,kj->kij", df, eye) + np.einsum("j,ki->kij", df, eye)
               - np.einsum("k,ij->kij", df, eye)) / (2.0 * f(x))
        expect = np.einsum("kij,im,jm->km", gam, v, w)
        got = _conn(m.grad_phi(x)[:, None], v, w)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind,params", CHARTS)
    def test_hessian_form_vs_gamma_differences(self, kind, params, n):
        m, x, (v, w, u) = self.sample(kind, params, n)
        h = 1e-5
        gam = lambda q: _conn(m.grad_phi(q)[:, None], v, w)
        expect = np.stack([(gam(x + h * uc) - gam(x - h * uc))[:, j]
                           for j, uc in enumerate(u.T)], axis=1) / (2 * h)
        got = _conn(m.hess_phi(x) @ u, v, w)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-9)


def geodesic_rhs_conn_form(metric):
    """``_geodesic_rhs`` written with one ``_conn`` call (three reductions)."""
    def f(_, y):
        y, = y
        v = y[..., 1:2]
        rate = -_conn(metric.grad_phi(y[..., 0])[..., None], v, y[..., 1:])
        return (np.concatenate([v, rate], axis=-1),)
    return f


def variation_rhs_conn_form(metric):
    """``_variation_rhs`` written with two ``_conn`` calls (six reductions)."""
    def f(_, y):
        x, v, J, Jd = y
        vc = v[..., None]
        rate = _conn(metric.grad_phi(x)[..., None], vc,
                     np.concatenate([vc, Jd], axis=-1))
        Jacc = -_conn(metric.hess_phi(x) @ J, vc, vc) - 2.0 * rate[..., 1:]
        return v, -rate[..., 0], Jd, Jacc
    return f


class TestRightHandSides:
    # the shared reductions sum the same products in the same order as the
    # _conn form, so the right-hand sides must agree bit for bit
    @pytest.mark.parametrize("batch", [(), (7,), (5, 3)])
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind,params", CHARTS[1:])
    def test_shared_reductions_bitwise(self, kind, params, n, batch):
        rng = np.random.default_rng(11)
        m = make_chart(kind, n=n, params=params).metric
        d = m.dim
        x = 0.4 * rng.standard_normal(batch + (d,))
        y = np.concatenate([x[..., None],
                            rng.standard_normal(batch + (d, d))], axis=-1)
        for got, ref in zip(_geodesic_rhs(m)(0.0, (y,)),
                            geodesic_rhs_conn_form(m)(0.0, (y,))):
            assert np.array_equal(got, ref)
        state = (x, rng.standard_normal(batch + (d,)),
                 rng.standard_normal(batch + (d, d)),
                 rng.standard_normal(batch + (d, d)))
        for got, ref in zip(_variation_rhs(m)(0.0, state),
                            variation_rhs_conn_form(m)(0.0, state)):
            assert np.array_equal(got, ref)


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

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("x,theta", [
        ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.3, -0.2, 0.1], [0.6, 0.8, 0.0]),
        ([0.5, 0.4, -0.3], [-0.2, 0.5, 0.7])])
    @pytest.mark.parametrize("h", [1e-3, 2e-3])
    def test_flat_closed_form_matches_walk(self, n, x, theta, h,
                                           monkeypatch):
        # reference: the RK4 walk run on the flat chart itself
        ch = make_chart("flat_disk", n=n)
        x = np.array(x[:n - 1])
        theta = np.array(theta[:n - 1]) / np.linalg.norm(theta[:n - 1])
        got = trace_geodesic(ch, x, theta, h=h)
        monkeypatch.setattr(geometry, "_straight_walk", geometry._walk)
        ref = trace_geodesic(ch, x, theta, h=h)
        assert np.array_equal(got.t, ref.t)
        assert np.array_equal(got.v, ref.v)
        assert np.array_equal(got.frame, ref.frame)
        # the walk sums RK4 increments and bisects its exits to 1e-13
        assert np.max(np.abs(got.x - ref.x)) <= 1e-13
        assert abs(got.tau_minus - ref.tau_minus) <= 1e-13
        assert abs(got.tau_plus - ref.tau_plus) <= 1e-13

    @pytest.mark.parametrize("kind,params", [
        ("flat_disk", {}), ("sphere_cap", {"cap_radius": 1.25})])
    def test_integrates_once(self, kind, params, monkeypatch):
        # a flat chart takes no RK4 step; a curved one walks both halves as
        # one batch: one RK4 step per sample interval of the longer half,
        # plus at most 60 bisection steps for each exit
        calls = []
        step = geometry.rk4_step

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(geometry, "rk4_step", counted)
        ch = make_chart(kind, n=3, params=params)
        x = np.array([0.2, 0.1])
        th = np.array([1.0, 0.4])
        p = trace_geodesic(ch, x, th / ch.metric.norm(x, th))
        if ch.metric.is_flat:
            assert calls == []
        else:
            assert 0 < len(calls) <= max(np.sum(p.t > 0),
                                         np.sum(p.t < 0)) + 120
        # the samples reach at least the margin past each exit
        margin = ch.extension_margin
        assert p.t[0] <= p.tau_minus - margin < p.t[1]
        assert p.t[-2] < p.tau_plus + margin <= p.t[-1]

    @pytest.mark.parametrize("kind,params", [
        ("flat_disk", {}), ("sphere_cap", {"cap_radius": 1.25})])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_trapped_half_raises(self, kind, params, sign, monkeypatch):
        # an arc-length cap between the two exit lengths traps the longer
        # half only: the backward one for sign +1, the forward one for -1
        ch = make_chart(kind, n=3, params=params)
        x = np.array([0.4, 0.0])
        th = sign * np.array([1.0, 0.0]) / ch.metric.norm(x, [1.0, 0.0])
        p = trace_geodesic(ch, x, th)
        assert (-p.tau_minus > p.tau_plus) == (sign > 0)
        monkeypatch.setattr(geometry, "MAX_LENGTH",
                            0.5 * (p.tau_plus - p.tau_minus))
        with pytest.raises(TrappedGeodesic):
            trace_geodesic(ch, x, th)

    @pytest.mark.parametrize("n", [3, 4])
    def test_default_step_through_pole(self, n):
        # on the K = 1 cap a geodesic through the pole along an axis is
        # x1 = tan(sqrt(K) t / 2) / sqrt(K) and leaves the chart disk of
        # radius R at t = 2 arctan(sqrt(K) R) / sqrt(K)
        K = 1.0
        ch = make_chart("sphere_cap", n=n, params={"curvature": K})
        d = n - 1
        x = np.zeros(d)
        th = np.eye(d)[0] / ch.metric.norm(x, np.eye(d)[0])
        p = trace_geodesic(ch, x, th)
        sk = np.sqrt(K)
        exact = np.zeros_like(p.x)
        exact[:, 0] = np.tan(sk * p.t / 2) / sk
        assert np.max(np.abs(p.x - exact)) <= 1e-12
        tau = 2 * np.arctan(sk * ch.radius) / sk
        assert abs(p.tau_plus - tau) <= 1e-12
        assert abs(p.tau_minus + tau) <= 1e-12

    @pytest.mark.parametrize("h", [0.0, -1e-3, np.nan, np.inf])
    @pytest.mark.parametrize("kind,params", CHARTS[:2])
    def test_invalid_step_raises(self, kind, params, h):
        ch = make_chart(kind, n=3, params=params)
        x = np.zeros(2)
        th = np.array([1.0, 0.0]) / ch.metric.norm(x, [1.0, 0.0])
        with pytest.raises(ConfigInvalid) as err:
            trace_geodesic(ch, x, th, h=h)
        assert err.value.field == "geodesic.h"

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
            gam = christoffel(m, xx)
            return -np.einsum("kij,i,j->k", gam, vv, e)

        sol = solve_ivp(rhs, (0.0, p.tau_plus), p.frame_at(0.0)[:, 0],
                        rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(p.frame_at(p.tau_plus)[:, 0], sol.y[:, -1],
                                   atol=1e-8)

    def test_rotated_basis_vs_reference(self):
        # transport is linear: the traced frame times a rotation is the
        # transport of the rotated initial basis
        ch = make_chart("sphere_cap", n=4, params={"cap_radius": 1.2})
        m = ch.metric
        x = np.array([0.1, -0.05, 0.05])
        th = np.array([0.6, 0.8, 0.3])
        p = trace_geodesic(ch, x, th / m.norm(x, th))
        c, s = np.cos(0.7), np.sin(0.7)
        rot = np.array([[c, -s], [s, c]])
        assert p.frame.shape == (len(p.t), 3, 2)

        def rhs(t, y):
            gam = christoffel(m, p.point(t))
            return -np.einsum("kij,i,jm->km", gam, p.velocity(t),
                              y.reshape(3, 2)).ravel()

        for i in (0, -1):
            sol = solve_ivp(rhs, (0.0, p.t[i]),
                            (p.frame_at(0.0) @ rot).ravel(),
                            rtol=1e-11, atol=1e-12)
            np.testing.assert_allclose(p.frame[i] @ rot,
                                       sol.y[:, -1].reshape(3, 2),
                                       atol=1e-8)


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
        pt, _ = fc.forward(np.array(0.3), np.array([0.1]))
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
        y1, ypp = self.fc.inverse(
            self.fc.forward(np.array(0.4), np.array([0.12]))[0])
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
        pts, vol = fc.forward(T, ypp)
        g = fc.pullback_metric(T, ypp)
        assert pts.shape == (4, 5, 2)
        assert g.shape == (4, 5, 2, 2)
        assert vol.shape == (4, 5)
        for i, j in np.ndindex(T.shape):
            pij, _ = fc.forward(T[i, j], ypp[i, j])
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
        assert np.array_equal(FermiChart(p).forward(T, ypp)[0], expect)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind,params", [
        ("sphere_cap", {"cap_radius": 1.2}), ("conformal_disk", {})])
    def test_jacobian_vs_forward_differences(self, kind, params, n):
        ch = make_chart(kind, n=n, params=params)
        x = np.array([0.1, -0.05, 0.05][:n - 1])
        theta = np.array([0.6, 0.8, 0.3][:n - 1])
        fc = FermiChart(trace_geodesic(ch, x, theta / ch.metric.norm(x, theta)))
        y = np.array([0.3, 0.08, -0.05][:n - 1])
        _, J = fc._point_and_jacobian(y[0], y[1:])
        h = 1e-5
        fd = []
        for e in np.eye(n - 1):
            yp, ym = y + h * e, y - h * e
            fd.append((fc.forward(yp[0], yp[1:])[0]
                       - fc.forward(ym[0], ym[1:])[0]) / (2 * h))
        assert np.max(np.abs(J - np.stack(fd, axis=-1))) <= 1e-8

    def test_outside_tube(self):
        with pytest.raises(OutsideTube):
            self.fc.inverse(self.fc.forward(
                np.array(0.0), np.array([self.fc.delta_prime * 2.5]))[0])
