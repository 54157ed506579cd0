import numpy as np
import pytest
from scipy.integrate import solve_ivp

from beamlab import jacobi
from beamlab.errors import ConjugatePointHit, SingularAnchor
from beamlab.geometry import make_chart, rk4_step, trace_geodesic
from beamlab.jacobi import (ComplexJacobiField, CurvaturePath, conjugate_scan,
                            curvature_along, det_root_branch, epsilon_family,
                            real_pair, riccati_path, solve_jacobi, wronskian)


def flat_path(n=3):
    ch = make_chart("flat_disk", n=n)
    start = [0.0] * (n - 1)
    theta = [1.0] + [0.0] * (n - 2)
    return trace_geodesic(ch, start, theta)


def cap_path(cap_radius=1.25, n=3):
    ch = make_chart("sphere_cap", n=n, params={"cap_radius": cap_radius})
    start = [0.0] * (n - 1)
    theta = [0.5] + [0.0] * (n - 2)
    return trace_geodesic(ch, start, theta)


class TestCurvature:
    def test_flat_zero(self):
        K = curvature_along(flat_path())
        assert np.max(np.abs(K.K)) <= 1e-12

    def test_sphere_unit(self):
        K = curvature_along(cap_path())
        assert np.max(np.abs(K.K - 1.0)) <= 1e-5

    def test_sphere_n4_identity(self):
        K = curvature_along(cap_path(cap_radius=1.2, n=4))
        assert np.max(np.abs(K.K - np.eye(2))) <= 1e-5
        assert np.max(np.abs(K.K - np.swapaxes(K.K, 1, 2))) <= 1e-8

    def test_conformal_vs_metric_fd_oracle(self):
        # Gauss curvature of e^{2 phi} delta from second differences of g
        ch = make_chart("conformal_disk", n=3)
        x = np.array([0.15, -0.05])
        th = np.array([0.7, 0.7])
        th = th / ch.metric.norm(x, th)
        p = trace_geodesic(ch, x, th)
        K = curvature_along(p)

        def gauss_from_g(pt, h=1e-4):
            def logE(q):
                return np.log(np.exp(2.0 * ch.metric.phi(q)))
            lap = 0.0
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                lap += (logE(pt + e) - 2 * logE(pt) + logE(pt - e)) / h ** 2
            E = np.exp(2.0 * ch.metric.phi(pt))
            return -0.5 * lap / E

        for i in range(0, len(p.t), 400):
            assert K.K[i, 0, 0] == pytest.approx(gauss_from_g(p.x[i]), abs=2e-6)

    @pytest.mark.parametrize("n", [3, 4])
    def test_sphere_exact(self, n):
        K = curvature_along(cap_path(n=n))
        assert np.max(np.abs(K.K - np.eye(n - 2))) <= 1e-12

    def test_conformal_exact(self):
        # Gauss curvature of e^{2 phi} delta is -e^{-2 phi} (Laplacian phi)
        ch = make_chart("conformal_disk", n=3)
        x = np.array([0.15, -0.05])
        th = np.array([0.7, 0.7])
        p = trace_geodesic(ch, x, th / ch.metric.norm(x, th))
        K = curvature_along(p)
        gauss = (-np.exp(-2.0 * ch.metric.phi(p.x))
                 * np.trace(ch.metric.hess_phi(p.x), axis1=1, axis2=2))
        assert np.max(np.abs(K.K[:, 0, 0] - gauss)) <= 1e-12


class TestSolveJacobi:
    def test_flat_linear(self):
        K = curvature_along(flat_path())
        eps = 0.3
        Y = solve_jacobi(K, 0.0, [[-1j * eps]], [[1.0]])
        ts = np.linspace(-0.9, 0.9, 11)
        np.testing.assert_allclose(Y.det(ts), ts - 1j * eps, atol=1e-10)

    def test_unit_curvature_sine(self):
        t = np.linspace(-1.5, 1.5, 3001)
        K = CurvaturePath(t=t, K=np.ones((len(t), 1, 1)))
        X = solve_jacobi(K, 0.0, [[0.0]], [[1.0]])
        ts = np.linspace(-1.4, 1.4, 15)
        np.testing.assert_allclose(X.at(ts)[:, 0, 0], np.sin(ts), atol=1e-8)

    def test_order_four_convergence(self):
        ch = make_chart("conformal_disk", n=3)
        x = np.array([0.0, 0.0])
        th = np.array([1.0, 0.0]) / ch.metric.norm(np.zeros(2), np.array([1.0, 0.0]))
        path = trace_geodesic(ch, x, th, h=1e-3)
        Kf = curvature_along(path)

        def subsample(K, step):
            return CurvaturePath(t=K.t[::step], K=K.K[::step])

        def rhs(t, y):
            return [y[1], -Kf.at(t)[0, 0] * y[0]]

        ref = solve_ivp(rhs, (0.0, 0.9), [0.0, 1.0], rtol=1e-12, atol=1e-13)
        truth = ref.y[0, -1]
        errs = []
        for step in (8, 4):
            X = solve_jacobi(subsample(Kf, step), 0.0, [[0.0]], [[1.0]])
            errs.append(abs(X.at(0.9)[0, 0] - truth))
        order = np.log2(errs[0] / errs[1])
        assert order == pytest.approx(4.0, abs=1.2)

    @pytest.mark.parametrize("kind,params,n", [
        ("sphere_cap", {"cap_radius": 1.25}, 3), ("conformal_disk", {}, 4)])
    @pytest.mark.parametrize("at_entry", [False, True])
    def test_linear_sweep_matches_stagewise_splines(self, kind, params, n,
                                                    at_entry):
        # reference: plain RK4 steps with K's spline evaluated at every stage
        ch = make_chart(kind, n=n, params=params)
        x = np.array([0.1, -0.05, 0.05][:n - 1])
        th = np.array([0.6, 0.8, 0.3][:n - 1])
        path = trace_geodesic(ch, x, th / ch.metric.norm(x, th))
        K = curvature_along(path)
        # the anchor 0 is a node, tau_minus is not
        tau0 = path.tau_minus if at_entry else 0.0
        m = n - 2
        Y0, Y1 = np.eye(m) + 0.2, 1j * np.eye(m)
        got = solve_jacobi(K, tau0, Y0, Y1)

        def f(t, y):
            return y[1], -K.at(t) @ y[0]

        t = K.t
        i0 = int(np.argmin(np.abs(t - tau0)))
        ref = [None] * len(t)
        ref[i0] = rk4_step(f, tau0, (Y0 + 0j, Y1), t[i0] - tau0)
        for i in range(i0 + 1, len(t)):
            ref[i] = rk4_step(f, t[i - 1], ref[i - 1], t[i] - t[i - 1])
        for i in range(i0 - 1, -1, -1):
            ref[i] = rk4_step(f, t[i + 1], ref[i + 1], t[i] - t[i + 1])
        for a, b in zip((got.Y, got.Yd), (np.stack(c) for c in zip(*ref))):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_singular_anchor(self):
        K = curvature_along(flat_path())
        with pytest.raises(SingularAnchor):
            solve_jacobi(K, 0.0, [[0.0]], [[1.0]], require_admissible=True)


class TestRealPair:
    @pytest.mark.parametrize("kind,params,n", [
        ("sphere_cap", {"cap_radius": 1.25}, 3), ("conformal_disk", {}, 4)])
    @pytest.mark.parametrize("at_entry", [False, True])
    def test_one_sweep_matches_two_solves(self, kind, params, n, at_entry,
                                          monkeypatch):
        ch = make_chart(kind, n=n, params=params)
        x = np.array([0.1, -0.05, 0.05][:n - 1])
        th = np.array([0.6, 0.8, 0.3][:n - 1])
        path = trace_geodesic(ch, x, th / ch.metric.norm(x, th))
        K = curvature_along(path)
        # the anchor 0 is a node, tau_minus is not
        tau0 = path.tau_minus if at_entry else 0.0
        calls = []
        sweep = jacobi.linear_sweep

        def counted(*args, **kwargs):
            calls.append(1)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(jacobi, "linear_sweep", counted)
        X, Z = real_pair(K, tau0=tau0)
        assert len(calls) == 1
        monkeypatch.undo()
        eye, zero = np.eye(n - 2), np.zeros((n - 2, n - 2))
        for got, Y0, Y1 in ((X, zero, eye), (Z, eye, zero)):
            ref = solve_jacobi(K, tau0, Y0, Y1)
            assert got.tau0 == ref.tau0
            assert np.array_equal(got.Y0, ref.Y0)
            assert np.array_equal(got.Y1, ref.Y1)
            np.testing.assert_allclose(got.Y, ref.Y, rtol=0, atol=1e-14)
            np.testing.assert_allclose(got.Yd, ref.Yd, rtol=0, atol=1e-14)


class TestEpsilonFamily:
    def test_flat_det(self):
        K = curvature_along(flat_path())
        Y = epsilon_family(K, 0.1)
        ts = np.linspace(-0.9, 0.9, 21)
        np.testing.assert_allclose(Y.det(ts), ts - 0.1j, atol=1e-10)

    def test_flat_det_n4(self):
        K = curvature_along(flat_path(n=4))
        Y = epsilon_family(K, 0.05)
        ts = np.linspace(-0.8, 0.8, 11)
        np.testing.assert_allclose(Y.det(ts), (ts - 0.05j) ** 2, atol=1e-9)

    def test_entry_anchor_wronskian(self):
        K = curvature_along(cap_path())
        X, Z = real_pair(K, anchor="entry")
        W = wronskian(Z, X)
        np.testing.assert_allclose(W, -1.0, atol=1e-8)

    def test_sphere_closed_form(self):
        K = curvature_along(cap_path())
        Y = epsilon_family(K, 0.2)
        ts = np.linspace(-1.2, 1.2, 17)
        np.testing.assert_allclose(Y.at(ts)[:, 0, 0],
                                   np.sin(ts) - 0.2j * np.cos(ts), atol=1e-8)

    def test_small_t_quadratic_law(self):
        # |det Y^eps - (t - i eps)^{n-2}| <= C |t|^{n-1} with C stable in h
        path = cap_path()
        consts = []
        for step in (2, 1):
            K = CurvaturePath(t=path.t[::step],
                              K=curvature_along(path).K[::step])
            Y = epsilon_family(K, 1e-2)
            ts = np.linspace(-0.3, 0.3, 101)
            err = np.abs(Y.det(ts) - (ts - 1e-2j))
            consts.append(np.max(err / np.maximum(np.abs(ts), 1e-3) ** 2))
        assert consts[1] <= consts[0] * 1.5 + 1e-9


class TestRiccati:
    def test_flat_scalar(self):
        K = curvature_along(flat_path())
        tau0 = -0.2
        Y = solve_jacobi(K, tau0, [[1.0]], [[1j]], require_admissible=True)
        H = riccati_path(Y)
        ts = np.linspace(-0.9, 0.9, 13)
        np.testing.assert_allclose(H.at(ts)[:, 0, 0], 1.0 / (ts - tau0 - 1j),
                                   atol=1e-9)

    def test_flat_family_conserved(self):
        K = curvature_along(flat_path())
        for eps in (1e-1, 1e-2, 1e-3):
            H = riccati_path(epsilon_family(K, eps))
            assert H.constant() == pytest.approx(eps, rel=1e-8)
            assert H.conservation_drift() <= 1e-6

    @pytest.mark.parametrize("kind,params", [
        ("flat_disk", {}),
        ("sphere_cap", {"cap_radius": 1.25}),
        ("conformal_disk", {}),
    ])
    def test_lemma_invariants(self, kind, params):
        ch = make_chart(kind, n=3, params=params)
        x = np.array([0.1, 0.0])
        th = np.array([1.0, 0.2])
        th = th / ch.metric.norm(x, th)
        K = curvature_along(trace_geodesic(ch, x, th))
        for eps in (1e-1, 1e-2, 1e-3):
            H = riccati_path(epsilon_family(K, eps))
            assert H.min_im_eig() > 0.0
            assert np.max(np.abs(H.H - np.swapaxes(H.H, 1, 2))) <= 1e-8
            assert H.conservation_drift() <= 1e-6

    def test_conjugate_point_rejected(self):
        path = cap_path(cap_radius=1.75)
        K = curvature_along(path)
        X, Z = real_pair(K, anchor="entry", tau0=path.tau_minus)
        Y = ComplexJacobiField(t=X.t, Y=X.Y, Yd=X.Yd, tau0=X.tau0,
                               Y0=X.Y0, Y1=X.Y1)
        with pytest.raises(ConjugatePointHit):
            riccati_path(Y)


class TestConjugateScan:
    def test_flat_empty(self):
        K = curvature_along(flat_path())
        assert conjugate_scan(K) == []

    def test_sphere_pi(self):
        path = cap_path(cap_radius=1.75)
        K = curvature_along(path)
        hits = conjugate_scan(K, anchor=path.tau_minus,
                              window=(path.tau_minus, path.tau_plus))
        assert len(hits) == 1
        assert hits[0] - path.tau_minus == pytest.approx(np.pi, abs=1e-6)

    def test_short_cap_empty(self):
        path = cap_path(cap_radius=1.25)
        K = curvature_along(path)
        hits = conjugate_scan(K, anchor=path.tau_minus,
                              window=(path.tau_minus, path.tau_plus))
        assert hits == []


class TestBranch:
    def test_collapse_rejected(self):
        from beamlab.errors import BranchAmbiguity
        path = cap_path(cap_radius=1.75)
        K = curvature_along(path)
        X, _ = real_pair(K, "entry", tau0=path.tau_minus)
        ts = np.linspace(path.tau_minus, path.tau_plus, 801)
        with pytest.raises(BranchAmbiguity):
            det_root_branch(X, ts)   # det X vanishes at the conjugate time

    def test_flat_branch_continuous(self):
        K = curvature_along(flat_path(n=4))
        Y = epsilon_family(K, 0.05)
        ts = np.linspace(-0.9, 0.9, 2001)
        w = det_root_branch(Y, ts)
        # matches 1/(t - i eps) (principal at the left end, continued)
        np.testing.assert_allclose(w, 1.0 / (ts - 0.05j), atol=1e-8)
        # no branch flips: increments bounded by the smooth-model slope
        assert np.max(np.abs(np.diff(w))) < 1.0
