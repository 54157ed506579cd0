import numpy as np
import pytest
from scipy.integrate import quad

from beamlab.errors import (BeamlabError, IllConditioned, InvalidArgument,
                            NoConvergence, NonMonotone, NonRealInput)
from beamlab.geometry import make_chart, trace_geodesic
from beamlab.jacobi import (ComplexJacobiField, curvature_along,
                            det_root_branch, epsilon_family, real_pair,
                            wronskian)
from beamlab.pde import linearize_divided_difference
from beamlab.raytransform import (J2_POINTS, GeodesicSample, TransformCurve,
                                  _extrapolants, invert_j1_moments,
                                  invert_j1_point_split, invert_j2_point,
                                  j1_forward, j2_forward,
                                  normalization_integral)


def binom_half(kmax):
    """Coefficients a_k of ``(1 - w)^{-1/2} = sum a_k w^k``, k <= kmax."""
    a = np.empty(kmax + 1)
    a[0] = 1.0
    for k in range(1, kmax + 1):
        a[k] = a[k - 1] * (2 * k - 1) / (2.0 * k)
    return a


@pytest.fixture(scope="module")
def flat3():
    ch = make_chart("flat_disk", n=3)
    p = trace_geodesic(ch, [0.0, 0.0], [1.0, 0.0], margin=1.0)
    K = curvature_along(p)
    return p, K


@pytest.fixture(scope="module")
def flat4():
    ch = make_chart("flat_disk", n=4)
    p = trace_geodesic(ch, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    K = curvature_along(p)
    return p, K


@pytest.fixture(scope="module")
def cap3():
    ch = make_chart("sphere_cap", n=3, params={"cap_radius": 1.25})
    p = trace_geodesic(ch, [0.0, 0.0], [0.5, 0.0])
    K = curvature_along(p)
    return p, K


def neville_at_zero(x, y):
    """Reference: the diagonal of the Neville table at 0 along the leading
    axis of ``y``, each trailing column on its own."""
    x = np.asarray(x, dtype=float).reshape((-1,) + (1,) * (np.ndim(y) - 1))
    p = np.array(y, dtype=complex)
    diag = [p[0].copy()]
    for level in range(1, len(x)):
        lo, hi = x[:-level], x[level:]
        p[:-level] = (hi * p[:-level] - lo * p[1:len(x) - level + 1]) / (hi - lo)
        diag.append(p[0].copy())
    return diag


def quad_oracle(fn, a, b):
    re = quad(lambda t: fn(t).real, a, b, epsrel=1e-13, limit=400)[0]
    im = quad(lambda t: fn(t).imag, a, b, epsrel=1e-13, limit=400)[0]
    return re + 1j * im


class TestForward:
    def test_zero_function(self, flat4):
        p, K = flat4
        f = GeodesicSample.from_time_function(p, lambda t: 0.0 * t)
        Y = epsilon_family(K, 0.3)
        assert j1_forward(f, Y) == 0
        assert j2_forward(f, Y) == 0

    def test_j1_flat_vs_adaptive_quadrature(self, flat4):
        p, K = flat4
        f = GeodesicSample.from_time_function(p, lambda t: np.ones_like(t))
        Y = epsilon_family(K, 1.0)
        ref = quad_oracle(lambda t: 1.0 / (t - 1j), -1.0, 1.0)
        assert abs(j1_forward(f, Y) - ref) <= 1e-10

    def test_j2_flat_closed_form(self, flat4):
        p, K = flat4
        f = GeodesicSample.from_time_function(p, lambda t: np.ones_like(t))
        val = j2_forward(f, epsilon_family(K, 0.1))
        assert val.real == pytest.approx(2.0 / 0.1 * np.arctan(10.0), rel=1e-10)
        assert abs(val.imag) <= 1e-12

    def test_j2_sphere_vs_adaptive_quadrature(self, cap3):
        p, K = cap3
        f = GeodesicSample.from_time_function(p, lambda t: np.cos(0.7 * t) + 0.2)
        eps = 0.05
        Y = epsilon_family(K, eps)
        ref = quad_oracle(lambda t: (np.cos(0.7 * t) + 0.2)
                          / abs(np.sin(t) - 1j * eps * np.cos(t)),
                          p.tau_minus, p.tau_plus)
        assert abs(j2_forward(f, Y) - ref) <= 1e-9 * abs(ref)

    def test_linearity(self, flat4):
        p, K = flat4
        Y = epsilon_family(K, 0.07)
        fa = GeodesicSample.from_time_function(p, lambda t: np.sin(t))
        fb = GeodesicSample.from_time_function(p, lambda t: np.exp(-t * t))
        fab = GeodesicSample.from_time_function(
            p, lambda t: 2.0 * np.sin(t) - 0.5 * np.exp(-t * t))
        for fwd in (j1_forward, j2_forward):
            lhs = fwd(fab, Y)
            rhs = 2.0 * fwd(fa, Y) - 0.5 * fwd(fb, Y)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_window_split_consistency(self, flat4):
        # full-window transform = model window term + explicit tails
        p, K = flat4
        f = GeodesicSample.from_time_function(p, lambda t: np.ones_like(t))
        eps, zeta = 0.05, 0.4
        val = j2_forward(f, epsilon_family(K, eps)).real
        inner = normalization_integral(zeta, eps, 4)
        tail = 2.0 / eps * (np.arctan(1.0 / eps) - np.arctan(zeta / eps))
        assert val == pytest.approx(inner + tail, rel=1e-10)


class TestNormalization:
    def test_closed_forms(self):
        assert normalization_integral(1.0, 0.1, 4) == pytest.approx(
            2.0 / 0.1 * np.arctan(10.0), rel=1e-13)
        assert normalization_integral(1.0, 1e-3, 3) == pytest.approx(
            2.0 * np.arcsinh(1000.0), rel=1e-13)
        assert normalization_integral(1.0, 1e-3, 3) == pytest.approx(15.2018, abs=1e-3)

    def test_growth_law(self):
        # n=4 divergence rate eps^(3-n): N * eps -> pi
        for eps in (1e-2, 1e-3, 1e-4):
            val = normalization_integral(0.5, eps, 4) * eps
            assert val == pytest.approx(np.pi, rel=5e-2 * eps / 1e-2 + 1e-2)


def test_invalid_arguments_are_named():
    assert issubclass(InvalidArgument, BeamlabError)
    t = np.linspace(0.0, 1.0, 5)
    Y = ComplexJacobiField(t=t, Y=np.zeros((5, 2, 2)), Yd=np.zeros((5, 2, 2)),
                           tau0=0.0, Y0=np.zeros((2, 2)), Y1=np.eye(2))
    with pytest.raises(InvalidArgument, match="scalar-case"):
        wronskian(Y, Y)
    with pytest.raises(InvalidArgument, match="between 0 and 3"):
        linearize_divided_difference(None, None, [], (4,))
    with pytest.raises(InvalidArgument, match="3 or 4"):
        normalization_integral(1.0, 0.1, 5)
    with pytest.raises(InvalidArgument, match="strictly decreasing"):
        TransformCurve(eps=[0.1, 0.2], values=[1, 2], kind="second")


class TestTransformCurve:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TransformCurve(eps=[0.1, 0.2], values=[1, 2], kind="second")
        with pytest.raises(ValueError):
            TransformCurve(eps=[0.1, -0.2], values=[1, 2], kind="second")

    def test_csv(self, tmp_path, flat4):
        p, K = flat4
        f = GeodesicSample.from_time_function(p, lambda t: np.cos(t))
        eps = [0.3, 0.1, 0.03]
        curve = TransformCurve(
            eps=eps, values=[j2_forward(f, epsilon_family(K, e)) for e in eps],
            kind="second")
        out = tmp_path / "curve.csv"
        curve.to_csv(out)
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (3, 3)


class TestInvertJ2:
    def test_constant(self, flat4):
        p, K = flat4
        f = GeodesicSample.from_time_function(p, lambda t: 3.0 * np.ones_like(t))
        orc = lambda e: j2_forward(f, epsilon_family(K, e))
        rep = invert_j2_point(orc, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], zeta=0.4, n=4)
        assert rep.estimate.real == pytest.approx(3.0, rel=1e-4)

    def test_flat_cos(self, flat4):
        p, K = flat4
        f = GeodesicSample.from_time_function(p, lambda t: np.cos(t))
        orc = lambda e: j2_forward(f, epsilon_family(K, e))
        rep = invert_j2_point(orc, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], zeta=0.4, n=4)
        assert abs(rep.estimate - 1.0) <= 0.02

    def test_sphere(self, cap3):
        p, K = cap3
        truth = 1.0 + 0.4 * np.sin(0.4)
        f = GeodesicSample.from_time_function(
            p, lambda t: 1.0 + 0.4 * np.sin(1.3 * t + 0.4))
        pair = real_pair(K, "point")
        orc = lambda e: j2_forward(f, epsilon_family(K, e, pair=pair))
        rep = invert_j2_point(orc, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], zeta=0.4, n=3)
        assert abs(rep.estimate - truth) <= 0.03 * truth
        assert rep.error_bound <= 0.05 * truth

    def test_no_convergence_guard(self):
        # data outgrowing the model normalization: extrapolants diverge
        bad = lambda e: normalization_integral(0.4, e, 4) ** 2
        with pytest.raises(NoConvergence):
            invert_j2_point(bad, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], zeta=0.4, n=4)


    def test_columns_match_scalar_calls(self, cap3):
        # a 3-column oracle extrapolates each column exactly as a scalar call
        p, K = cap3
        pair = real_pair(K, "point")
        fs = [GeodesicSample.from_time_function(p, fn) for fn in (
            lambda t: 3.0 * np.ones_like(t), np.cos,
            lambda t: 1.0 + 0.4 * np.sin(1.3 * t + 0.4))]
        eps = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        data = {e: np.array([j2_forward(f, epsilon_family(K, e, pair=pair))
                             for f in fs]) for e in eps}
        rep = invert_j2_point(lambda e: data[e], eps, zeta=0.4, n=3)
        assert rep.estimate.shape == rep.error_bound.shape == (3,)
        for i in range(3):
            one = invert_j2_point(lambda e: data[e][i], eps, zeta=0.4, n=3)
            assert rep.estimate[i] == one.estimate
            assert rep.error_bound[i] == one.error_bound

    def test_extrapolants_match_neville(self, cap3):
        # the pinv weights of the square Vandermonde designs give the Neville
        # table's diagonal: estimate and bound of the 3-column cap3 data
        p, K = cap3
        pair = real_pair(K, "point")
        fs = [GeodesicSample.from_time_function(p, fn) for fn in (
            lambda t: 3.0 * np.ones_like(t), np.cos,
            lambda t: 1.0 + 0.4 * np.sin(1.3 * t + 0.4))]
        eps = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        J = np.array([[j2_forward(f, epsilon_family(K, e, pair=pair))
                       for f in fs] for e in eps])
        N = np.array([normalization_integral(0.4, e, 3) for e in eps])
        rep = invert_j2_point(lambda e: J[eps.index(e)], eps, zeta=0.4, n=3)
        diag = neville_at_zero((1.0 / N)[::-1], (J / N[:, None])[::-1])
        scale = np.abs(diag[-1])
        assert np.all(np.abs(rep.estimate - diag[-1]) <= 1e-12 * scale)
        bound = np.max(np.abs(np.diff(diag, axis=0))[-2:], axis=0)
        assert np.all(np.abs(rep.error_bound - bound) <= 1e-12 * scale)

    def test_extrapolants_reproduce_polynomials(self):
        # through k distinct nodes, data of a polynomial p of degree below k
        # extrapolate to p(0) exactly, in every column
        rng = np.random.default_rng(5)
        x = rng.uniform(0.05, 0.5, J2_POINTS)
        coef = rng.normal(size=(J2_POINTS, 3))
        for deg in range(J2_POINTS):
            y = np.vander(x, deg + 1, increasing=True) @ coef[:deg + 1]
            diag = _extrapolants(x, y)
            assert len(diag) == J2_POINTS
            for k in range(deg + 1, J2_POINTS + 1):
                assert np.all(np.abs(diag[k - 1] - coef[0])
                              <= 1e-12 * np.max(np.abs(coef)))

    def test_unconverged_column_named(self):
        # one column outgrowing the normalization fails the whole table and
        # the message names it
        eps = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        good = lambda e: normalization_integral(0.4, e, 4)
        table = lambda e: np.array([[good(e), 2.0 * good(e)],
                                    [good(e), good(e) ** 2]])
        with pytest.raises(NoConvergence, match=r"worst column \(1, 1\)"):
            invert_j2_point(table, eps, zeta=0.4, n=4)


class TestInvertJ1Split:
    eps = [0.18, 0.12, 0.08, 0.05, 0.03, 0.02, 0.012, 0.008, 0.005,
           0.003, 0.002, 0.001]

    def test_oscillatory_model_integral(self):
        # int_{-z}^{z} Im (t - i eps)^{-1} dt = 2 atan(z/eps) -> pi
        for zeta, eps in ((0.5, 0.05), (0.3, 1e-3)):
            val = quad(lambda t: (1.0 / (t - 1j * eps)).imag, -zeta, zeta,
                       epsrel=1e-13)[0]
            assert val == pytest.approx(2.0 * np.arctan(zeta / eps), rel=1e-12)
        assert 2.0 * np.arctan(0.3 / 1e-4) == pytest.approx(np.pi, abs=1e-3)

    def test_constant(self, flat4):
        p, K = flat4
        f = GeodesicSample.from_time_function(p, lambda t: 2.0 * np.ones_like(t))
        orc = lambda e: j1_forward(f, epsilon_family(K, e))
        rep = invert_j1_point_split(orc, self.eps)
        assert rep.estimate == pytest.approx(2.0, abs=0.02)

    def test_flat_quadratic(self, flat4):
        p, K = flat4
        f = GeodesicSample.from_time_function(p, lambda t: 1.0 + t * t)
        orc = lambda e: j1_forward(f, epsilon_family(K, e))
        rep = invert_j1_point_split(orc, self.eps, f_check=f.values)
        assert abs(rep.estimate - 1.0) <= 0.03

    def test_tail_linear_decay(self, flat4):
        # imaginary part of the branch outside the window shrinks like eps
        p, K = flat4
        zeta = 0.4
        eps_grid = np.array([0.04, 0.02, 0.01, 0.005])
        tails = []
        for e in eps_grid:
            Y = epsilon_family(K, e)
            tt = np.concatenate([np.linspace(-1.0, -zeta, 400),
                                 np.linspace(zeta, 1.0, 400)])
            w = det_root_branch(Y, tt)
            tails.append(np.max(np.abs(w - np.conj(w))))
        slope = np.polyfit(np.log(eps_grid), np.log(tails), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_complex_input_rejected(self, flat4):
        p, K = flat4
        f = GeodesicSample.from_time_function(p, lambda t: t + 1j * t)
        orc = lambda e: j1_forward(f, epsilon_family(K, e))
        with pytest.raises(NonRealInput):
            invert_j1_point_split(orc, self.eps, f_check=f.values)


class TestInvertJ1Moments:
    def make_route(self, profile, margin=1.0):
        ch = make_chart("flat_disk", n=3)
        p = trace_geodesic(ch, [0.0, 0.0], [1.0, 0.0], margin=margin)
        K = curvature_along(p)
        X, Z = real_pair(K, "entry")
        f = GeodesicSample.from_time_function(p, profile)
        fam = lambda e: epsilon_family(K, e, anchor="entry", pair=(X, Z))
        orc = lambda e: j1_forward(f, fam(e))
        return p, X, Z, orc

    def test_zero(self):
        p, X, Z, orc = self.make_route(lambda t: 0.0 * t)
        rec, diag = invert_j1_moments(orc, X, Z, (p.tau_minus, p.tau_plus))
        assert np.max(np.abs(rec.values)) <= 1e-10
        assert np.max(np.abs(diag["moments"])) <= 1e-10

    def test_condition_cap_raises(self):
        # criterion 5's data one moment past its K_max = 8: the density
        # design's condition number, 1.75e15, is past MOMENT_COND_CAP
        p, X, Z, orc = self.make_route(lambda t: np.exp(-t * t))
        with pytest.raises(IllConditioned, match="condition number 1.7"):
            invert_j1_moments(orc, X, Z, (p.tau_minus, p.tau_plus), K_max=9)

    def test_flat_ratio_decreasing(self):
        p, X, Z, _ = self.make_route(lambda t: 0.0 * t)
        ts = np.linspace(p.tau_minus, p.tau_plus, 50)
        ratio = Z.at(ts)[:, 0, 0].real / X.at(ts)[:, 0, 0].real
        expect = 1.0 / (ts - X.tau0)
        np.testing.assert_allclose(ratio, expect, rtol=1e-8)
        assert np.all(np.diff(ratio) < 0)

    def test_flat_gaussian(self):
        p, X, Z, orc = self.make_route(lambda t: np.exp(-t * t))
        rec, diag = invert_j1_moments(orc, X, Z, (p.tau_minus, p.tau_plus),
                                      K_max=8)
        truth = np.exp(-rec.t ** 2)
        rel = np.linalg.norm(rec.values - truth) / np.linalg.norm(truth)
        assert rel <= 0.05

    def test_sphere_profile(self):
        ch = make_chart("sphere_cap", n=3, params={"cap_radius": 1.0})
        p = trace_geodesic(ch, [0.0, 0.0], [0.5, 0.0], margin=0.6)
        K = curvature_along(p)
        X, Z = real_pair(K, "entry")
        f = GeodesicSample.from_time_function(p, lambda t: 1.0 / (1.0 + t * t))
        fam = lambda e: epsilon_family(K, e, anchor="entry", pair=(X, Z))
        orc = lambda e: j1_forward(f, fam(e))
        rec, _ = invert_j1_moments(orc, X, Z, (p.tau_minus, p.tau_plus), K_max=8)
        truth = 1.0 / (1.0 + rec.t ** 2)
        rel = np.linalg.norm(rec.values - truth) / np.linalg.norm(truth)
        assert rel <= 0.05

    def test_moment_idempotence(self):
        # moments of the reconstruction reproduce the fitted moments
        p, X, Z, orc = self.make_route(lambda t: np.exp(-t * t))
        rec, diag = invert_j1_moments(orc, X, Z, (p.tau_minus, p.tau_plus),
                                      K_max=8)
        tt = rec.t
        Xv = X.at(tt)[:, 0, 0].real
        Xt = Z.at(tt)[:, 0, 0].real / Xv
        M = diag["moments"]
        for k in (0, 2, 5, 8):
            mk = np.trapezoid(rec.values * Xv ** (-0.5) * Xt ** k, tt)
            assert mk == pytest.approx(M[k], rel=0.02, abs=1e-8)

    def test_series_structure(self):
        # forward data matches the truncated parameter expansion of the weight
        p, X, Z, orc = self.make_route(lambda t: np.exp(-t * t))
        _, diag = invert_j1_moments(orc, X, Z, (p.tau_minus, p.tau_plus), K_max=8)
        M = np.asarray(diag["moments"])
        a = binom_half(8)
        eps = 0.02
        series = sum(a[k] * (1j * eps) ** k * M[k] for k in range(9))
        assert abs(orc(eps) - series) <= 1e-6

    def test_columns_match_per_column_calls(self):
        # stacked columns share the design and both ridge solves; the
        # operator meets the data one row at a time, so each column equals
        # its own call bitwise
        p, X, Z, _ = self.make_route(lambda t: 0.0 * t)
        window = (p.tau_minus, p.tau_plus)
        fs = [GeodesicSample.from_time_function(p, fn) for fn in (
            lambda t: np.exp(-t * t), lambda t: 1.0 / (1.0 + t * t),
            lambda t: 0.5 + 0.3 * t)]
        K = curvature_along(p)
        data = {}

        def stacked(e):
            Y = epsilon_family(K, e, anchor="entry", pair=(X, Z))
            data[e] = np.array([j1_forward(f, Y) for f in fs])
            return data[e]

        rec, diag = invert_j1_moments(stacked, X, Z, window, K_max=8)
        assert rec.values.shape == (len(rec.t), 3)
        M = np.asarray(diag["moments"])
        for i in range(3):
            one, d1 = invert_j1_moments(lambda e: data[e][i], X, Z, window,
                                        K_max=8)
            np.testing.assert_array_equal(rec.values[:, i], one.values)
            np.testing.assert_array_equal(M[:, i], np.asarray(d1["moments"]))
            assert diag["condition"] == d1["condition"]

    def test_non_monotone_guard(self):
        p, X, Z, orc = self.make_route(lambda t: np.exp(-t * t))
        with pytest.raises(NonMonotone):
            invert_j1_moments(orc, X, X, (p.tau_minus, p.tau_plus))
