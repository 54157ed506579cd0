import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import splu

from beamlab import cgo, geometry, jacobi, recon
from beamlab.cgo import (PhaseJet, assemble_cgo, build_amplitude,
                         build_phase, quasimode_eval, tube_grid)
from beamlab.cylinder import make_cylinder_grid
from beamlab.errors import InvalidArgument, ModeMismatch
from beamlab.geometry import FermiChart, make_chart
from beamlab.jacobi import ComplexJacobiField
from beamlab.potentials import PotentialSeries, make_field
from beamlab.recon import (ReconTask, dn_moment_v2, dn_moment_v3,
                           fourier_synthesis, full_dn_moment_v3,
                           lambda_extrapolate, prepare_bundle, recover_v2,
                           recover_vm, stationary_phase_oracle, tube_interaction,
                           _calibration, _simpson_weights)


@pytest.fixture(scope="module")
def v3_setup():
    ch = make_chart("flat_disk", n=3, params={"tube_radius": 0.7})
    prof = make_field("trig_gaussian", amp=1.0, freq=1.5, c0=0.4, c1=1.0,
                      width=0.5, support=0.9, center=(0.1, 0.0))
    V = PotentialSeries({3: prof})
    task = ReconTask(chart=ch, V=V, m=3, truth=prof,
                     lams=(160.0, 320.0, 640.0, 1280.0))
    return task, prepare_bundle(task, anchor="point")


class TestMoments:
    def test_v3_matches_line_integral(self, v3_setup):
        task, bundle = v3_setup
        datum, diag = dn_moment_v3(task, bundle, 0.2, -0.2)
        oracle = stationary_phase_oracle(task, bundle, 0.2, 0.8, kind="second")
        assert abs(datum - oracle) <= 0.05 * abs(oracle)
        assert diag["fit_residual"] <= 0.1 * abs(datum)

    def test_v3_zero_coefficient(self, v3_setup):
        task, bundle = v3_setup
        zero = lambda x0, xp: np.zeros(np.broadcast(
            np.asarray(x0), np.asarray(xp)[..., 0]).shape)
        datum, _ = dn_moment_v3(task, bundle, 0.2, -0.2, field_fn=zero)
        assert datum == 0

    def test_sigma_zero_consistency(self, v3_setup):
        # the zero-frequency member equals an independent sigma = 0 run
        task, bundle = v3_setup
        d1, _ = dn_moment_v3(task, bundle, 0.15, 0.0)
        d2, _ = dn_moment_v3(task, bundle, 0.15, 0.0)
        assert d1 == d2
        oracle = stationary_phase_oracle(task, bundle, 0.15, 0.0, kind="second")
        assert abs(d1 - oracle) <= 0.05 * abs(oracle)
        assert abs(np.imag(d1)) <= 0.02 * abs(d1)

    @pytest.mark.parametrize("point, theta", [
        (None, None), ((0.25, 0.15), (0.6, 0.8))])
    def test_v3_matches_line_integral_on_cap(self, v3_setup, point, theta):
        # on a curved chart the tube integral runs in Fermi coordinates with
        # the Fermi volume element; a straight chart line with volume 1
        # misses the oracle by 4.8% (origin) and 2.0% (off-centre anchor)
        task, _ = v3_setup
        ch = make_chart("sphere_cap", n=3,
                        params={"cap_radius": 1.25, "tube_radius": 0.7})
        task = ReconTask(**{**task.__dict__, "chart": ch, "point": point,
                            "theta": theta})
        bundle = prepare_bundle(task, anchor="point")
        datum, _ = dn_moment_v3(task, bundle, 0.2, -0.2)
        oracle = stationary_phase_oracle(task, bundle, 0.2, 0.8, kind="second")
        assert abs(datum - oracle) <= 0.01 * abs(oracle)

    def test_v2_pairings(self):
        ch = make_chart("flat_disk", n=3, params={"tube_radius": 1.0})
        V2fn = make_field("trig_gaussian", amp=1.0, freq=1.5, c0=0.4, c1=1.0,
                          s1=0.3, width=0.8, support=0.95)
        task = ReconTask(chart=ch, V=PotentialSeries({2: V2fn}), m=2,
                         margin=1.0, delta=1.0,
                         lams=(160.0, 320.0, 640.0, 1280.0))
        bundle = prepare_bundle(task, anchor="entry")
        xi = 0.8
        s1, s2, _ = dn_moment_v2(task, bundle, 0.2, -xi / 4.0)
        oracle = stationary_phase_oracle(task, bundle, 0.2, xi, kind="first")
        assert abs(s1 - oracle) <= 0.05 * abs(oracle)
        # combination identity: (S1 + conj(S2))/2 = transform of Re(f~)
        window = (bundle.path.tau_minus, bundle.path.tau_plus)
        tt = np.linspace(window[0], window[1], 3001)
        pts = bundle.path.point(tt)
        x0f = np.linspace(*ch.interval, 801)
        wq = _simpson_weights(801, x0f[1] - x0f[0])
        fv = V2fn(x0f[:, None], pts[None])
        fhat = np.einsum("i,ij->j", wq * np.exp(-1j * xi * x0f), fv)
        from beamlab.jacobi import det_root_branch
        Y = bundle.family(0.2)
        w = det_root_branch(Y, tt)
        wtq = _simpson_weights(len(tt), tt[1] - tt[0])
        expect = np.sum(wtq * np.real(np.exp(xi * tt) * fhat) * w)
        got = 0.5 * (s1 + np.conj(s2))
        assert abs(got - expect) <= 0.05 * abs(expect)

    def test_lambda_extrapolate(self):
        lams = np.array([100.0, 200.0, 400.0, 800.0])
        truth = 2.5 - 1.2j
        vals = truth + 3.0 / np.sqrt(lams) + 7.0 / lams
        a, resid = lambda_extrapolate(lams, vals)
        assert abs(a - truth) <= 1e-10
        assert resid <= 1e-10
        # one rung cannot fix the two terms a + b / sqrt(lambda): raise, naming
        # both counts, rather than return a minimum-norm guess
        with pytest.raises(InvalidArgument, match=r"rows \(1\).*\(2\)"):
            lambda_extrapolate([80.0], [1.0])
        # two rungs determine a + b / sqrt(lambda) exactly: the residual of
        # an interpolating fit is unknown, not zero
        a, resid = lambda_extrapolate([80.0, 160.0], [1.0, 2.0])
        assert np.isfinite(a) and resid == np.inf

    def test_lambda_extrapolate_columns_match_per_column_calls(self):
        # trailing axes are columns sharing the fit's weights; each equals
        # its own call bitwise, for square (two rungs) and least-squares fits
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5):
            lams = 80.0 * 2.0 ** np.arange(n)
            vals = (rng.normal(size=(n, 2, 3))
                    + 1j * rng.normal(size=(n, 2, 3)))
            a, resid = lambda_extrapolate(lams, vals)
            assert a.shape == resid.shape == (2, 3)
            for i in range(2):
                for j in range(3):
                    a1, r1 = lambda_extrapolate(lams, vals[:, i, j])
                    assert a[i, j] == a1 and resid[i, j] == r1

    def test_anchor_gauge_invariance(self, v3_setup):
        # rescaling the family anchor leaves the calibrated datum unchanged
        task, bundle = v3_setup
        eps, sigma, lam = 0.2, -0.2, 320.0
        Y, phase, amp = bundle.beam(eps, task.N, task.delta, 0, None)
        Y2 = ComplexJacobiField(t=Y.t, Y=2.0 * Y.Y, Yd=2.0 * Y.Yd,
                                tau0=Y.tau0, Y0=2.0 * Y.Y0, Y1=2.0 * Y.Y1,
                                admissible=True, eps=Y.eps)
        phase2 = build_phase(bundle.path, Y2, N=task.N)
        amp2 = build_amplitude(bundle.path, phase2, Y2, N_amp=0,
                               delta=task.delta)
        fld = task.V.coeff(3)
        vals = []
        for ph, am, yy in ((phase, amp, Y), (phase2, amp2, Y2)):
            D = tube_interaction(bundle, fld, ph, am,
                                 [[(1.0, +1, 2), (1.0, -1, 2)]], lam, sigma)
            cal, s = _calibration(bundle, yy, eps)
            vals.append(D[0, 0] * cal * s)
        assert abs(vals[0] - vals[1]) <= 2e-3 * abs(vals[0])


def interaction_with_x0_axis(bundle, field_fn, phase, amp, factor_sets, lam):
    """The tube integral of ``tube_interaction`` with the x0 axis kept, one
    value per factor set: every beam factor is evaluated at every Simpson
    node of the interval."""
    chart = bundle.chart
    x0 = np.linspace(*chart.interval, recon.TUBE_NX0)
    wx0 = _simpson_weights(len(x0), x0[1] - x0[0])
    width = recon._beam_width(phase, amp, lam, recon.TUBE_NY1)
    y1, T, ypp, wgt = tube_grid(phase, width, recon.TUBE_NY1, recon.TUBE_NS)
    pts, vol = FermiChart(bundle.path).forward(T, ypp)
    fv = field_fn(x0[:, None, None], pts[None]) * chart.inside(pts)[None]
    out = []
    for factors in factor_sets:
        prod = 1.0
        for rho, sign, power in factors:
            prod = prod * quasimode_eval(phase, amp, rho, sign,
                                         x0[:, None, None], T[None],
                                         ypp[None]) ** power
        val = np.einsum("i,ijk->jk", wx0, fv * prod)
        val = np.sum(val * vol * wgt[:, None]) * (y1[1] - y1[0])
        out.append(lam ** ((chart.trans_dim - 1) / 2.0) * val)
    return out


# the v3 factor set and both v2 pairings
FACTOR_SETS = ([(1.0, +1, 2), (1.0, -1, 2)],
               [(1.0, +1, 2), (2.0, -1, 1)],
               [(1.0, -1, 2), (2.0, +1, 1)])


class TestTubeInteraction:
    @pytest.mark.parametrize("kind, params", [
        ("flat_disk", {"tube_radius": 0.7}),
        ("sphere_cap", {"cap_radius": 1.25, "tube_radius": 0.7})])
    def test_matches_x0_axis_reference(self, v3_setup, kind, params):
        # one tube pass for every sigma and factor set: the field's x0
        # transform at s sigma times the beam product at real frequencies
        # and x0 = 0, times exp(sigma B), equals the integral over every x0
        # node of the beams at complex rho, sigma by sigma
        task, _ = v3_setup
        task = ReconTask(**{**task.__dict__,
                            "chart": make_chart(kind, n=3, params=params)})
        bundle = prepare_bundle(task, anchor="point")
        _, phase, amp = bundle.beam(0.2, task.N, task.delta)
        fld = task.V.coeff(3)
        lam = 320.0
        # the ends of criterion 10's sigma grid, zero and an interior value
        sigmas = np.array([-0.5, -0.2, 0.0, 0.5])
        got = tube_interaction(bundle, fld, phase, amp, FACTOR_SETS, lam,
                               sigmas)
        assert got.shape == (len(sigmas), len(FACTOR_SETS))
        for i, sigma in enumerate(sigmas):
            rho = complex(lam, sigma)
            refs = interaction_with_x0_axis(
                bundle, fld, phase, amp,
                [[(c * rho, sign, p) for c, sign, p in fs]
                 for fs in FACTOR_SETS], lam)
            for j, ref in enumerate(refs):
                assert abs(got[i, j] - ref) <= 1e-12 * abs(ref)

    def test_phase_sampled_once(self, v3_setup, monkeypatch):
        # one beam sampler per call serves theta and every factor
        task, bundle = v3_setup
        _, phase, amp = bundle.beam(0.2, task.N, task.delta)
        theta, calls = PhaseJet.theta, []

        def counted(self, t, ypp):
            calls.append(t.shape)
            return theta(self, t, ypp)

        monkeypatch.setattr(PhaseJet, "theta", counted)
        tube_interaction(bundle, task.V.coeff(3), phase, amp, FACTOR_SETS,
                         320.0, [-0.5, 0.0])
        assert len(calls) == 1

    def test_subprincipal_amplitude_rejected(self, v3_setup):
        # the (x0, axis) grids of an n_amp = 1 amplitude depend on x0, which
        # the transform of the field alone would drop
        task, bundle = v3_setup
        _, phase, amp = bundle.beam(0.2, task.N, task.delta, n_amp=1)
        with pytest.raises(ModeMismatch, match="subprincipal"):
            tube_interaction(bundle, task.V.coeff(3), phase, amp,
                             [[(1.0, +1, 2), (1.0, -1, 2)]], 320.0, -0.2)


class TestBeamMemo:
    def test_key_keeps_v1_alive(self, v3_setup):
        import gc
        import weakref

        _, bundle = v3_setup
        f = make_field("constant", value=0.5)
        ref = weakref.ref(f)
        beam = bundle.beam(0.3, 2, V1=f)
        assert bundle.beam(0.3, 2, V1=f) is beam
        del f
        gc.collect()
        # the entry holds V1, so its id cannot pass to a new object
        assert ref() is not None

    def test_spline_builds_per_beam(self, v3_setup, monkeypatch):
        # one spline per jet derivative or evaluation, and the path, Jacobi
        # and Riccati splines only when evaluated
        builds = []

        class Counted(CubicSpline):
            def __init__(self, *args, **kw):
                builds.append(1)
                super().__init__(*args, **kw)

        task, _ = v3_setup
        bundle = prepare_bundle(task, anchor="point")
        for mod in (cgo, geometry, jacobi):
            monkeypatch.setattr(mod, "CubicSpline", Counted)
        bundle.beam(0.2, task.N, task.delta)
        assert len(builds) == 10


class TestRecoverVm:
    def test_m3_coarse(self, v3_setup):
        task, _ = v3_setup
        small = ReconTask(**{**task.__dict__, "n_xi": 9,
                             "eps_grid": (0.2, 0.1, 0.05, 0.025, 0.012)})
        rec = recover_vm(small)
        assert rec.rel_error() <= 0.10

    @pytest.mark.parametrize("n_xi", [3, 9])
    def test_one_tube_pass_per_rung(self, v3_setup, monkeypatch, n_xi):
        # every (eps, lambda) tube serves the whole xi grid
        task, _ = v3_setup
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return tube_interaction(*args, **kwargs)

        monkeypatch.setattr(recon, "tube_interaction", counted)
        small = ReconTask(**{**task.__dict__, "n_xi": n_xi,
                             "eps_grid": (0.2, 0.1, 0.05)})
        recover_vm(small)
        assert len(calls) == len(small.eps_grid) * len(small.lams)

    def test_m3_conformal_disk(self, v3_setup):
        # criterion 10's cubic configuration and bound on a curved chart
        task, _ = v3_setup
        ch = make_chart("conformal_disk", n=3, params={"tube_radius": 0.7})
        rec = recover_vm(ReconTask(**{**task.__dict__, "chart": ch}))
        assert rec.rel_error() <= 0.10

    def test_m4_zero_noise_floor(self):
        ch = make_chart("flat_disk", n=3, params={"tube_radius": 0.7})
        zero = lambda x0, xp: np.zeros(np.broadcast(
            np.asarray(x0), np.asarray(xp)[..., 0]).shape)
        V = PotentialSeries({4: zero})
        task = ReconTask(chart=ch, V=V, m=4, n_xi=5,
                         lams=(160.0, 320.0, 640.0),
                         eps_grid=(0.2, 0.1, 0.05))
        rec = recover_vm(task)
        assert np.max(np.abs(rec.values)) <= 1e-6

    def test_csv_export(self, v3_setup, tmp_path):
        task, _ = v3_setup
        small = ReconTask(**{**task.__dict__, "n_xi": 3,
                             "eps_grid": (0.2, 0.1, 0.05)})
        rec = recover_vm(small)
        out = tmp_path / "recovered.csv"
        rec.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "x0,t,m,Vm_re,Vm_im,err_est,truth_re,truth_im"

    def test_m4_with_v1_rejected(self, monkeypatch):
        import beamlab.recon
        from beamlab.errors import ModeMismatch

        def no_beam(*args, **kwargs):
            raise AssertionError("a geodesic was traced")

        monkeypatch.setattr(beamlab.recon, "trace_geodesic", no_beam)
        ch = make_chart("flat_disk", n=3, params={"tube_radius": 0.7})
        prof = make_field("trig_gaussian", amp=1.0, freq=1.5, c0=0.4, c1=1.0,
                          width=0.5, support=0.9, center=(0.1, 0.0))
        V = PotentialSeries({1: make_field("constant", value=0.5), 4: prof})
        task = ReconTask(chart=ch, V=V, m=4)
        with pytest.raises(ModeMismatch, match="V1"):
            recover_vm(task)


class TestRecoveredPotential:
    def test_csv_two_dimensional(self, tmp_path):
        from beamlab.recon import RecoveredPotential

        t = np.array([-0.5, 0.0, 0.5])
        x0 = np.array([0.0, 1.0])
        values = np.arange(6.0).reshape(2, 3) + 0.5j
        rec = RecoveredPotential(m=2, x0=x0, values=values, xi=np.zeros(2),
                                 xi_data=np.zeros((2, 3)),
                                 err_est=np.full(2, np.nan), t=t)
        out = tmp_path / "recovered.csv"
        rec.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "x0,t,m,Vm_re,Vm_im,err_est,truth_re,truth_im"
        data = np.loadtxt(lines[1:], delimiter=",")
        assert data.shape == (6, 8)
        # t-major: every x0 at the first t, then every x0 at the next
        np.testing.assert_array_equal(data[:, 0], np.tile(x0, 3))
        np.testing.assert_array_equal(data[:, 1], np.repeat(t, 2))
        np.testing.assert_array_equal(data[:, 2], 2.0)
        np.testing.assert_array_equal(data[:, 3], values.real.T.ravel())
        np.testing.assert_array_equal(data[:, 4], 0.5)
        assert np.all(np.isnan(data[:, 5]))
        assert np.all(np.isnan(data[:, 6:]))


class TestSynthesis:
    def test_exact_round_trip(self):
        ch = make_chart("flat_disk", n=3, interval=(0.0, 4.0))
        task = ReconTask(chart=ch, V=PotentialSeries({}), m=3, sigma0=4.0,
                         basis_freqs=(1.5,))
        xi = task.xi_grid()
        fine = np.linspace(0.0, 4.0, 801)
        wq = _simpson_weights(801, fine[1] - fine[0])
        truth = 0.7 - 0.3 * np.cos(1.5 * fine) + 0.2 * np.sin(1.5 * fine)
        data = np.array([np.sum(wq * np.exp(-1j * k * fine) * truth)
                         for k in xi])
        x0g, vals, _ = fourier_synthesis(task, xi, data)
        expect = 0.7 - 0.3 * np.cos(1.5 * x0g) + 0.2 * np.sin(1.5 * x0g)
        np.testing.assert_allclose(vals.real, expect, atol=1e-8)
        np.testing.assert_allclose(vals.imag, 0.0, atol=1e-8)


    def test_columns_match_per_column_calls(self):
        # trailing data axes are columns sharing the fit's weights, applied
        # one data row at a time: each column is bitwise its own call
        ch = make_chart("flat_disk", n=3, interval=(0.0, 4.0))
        task = ReconTask(chart=ch, V=PotentialSeries({}), m=3, sigma0=4.0,
                         basis_freqs=(1.5, 2.5))
        xi = task.xi_grid()
        rng = np.random.default_rng(7)
        data = (rng.normal(size=(len(xi), 2, 3))
                + 1j * rng.normal(size=(len(xi), 2, 3)))
        x0g, vals, coef = fourier_synthesis(task, xi, data)
        assert vals.shape == (len(x0g), 2, 3)
        assert coef.shape == (5, 2, 3)
        for i in range(2):
            for j in range(3):
                _, v1, c1 = fourier_synthesis(task, xi, data[:, i, j])
                np.testing.assert_array_equal(vals[:, i, j], v1)
                np.testing.assert_array_equal(coef[:, i, j], c1)


class TestPipeline:
    """Each stage of a recovery runs once over the whole (eps, xi) table,
    not once per xi column or per geodesic sample."""

    @staticmethod
    def count(monkeypatch, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _fn=getattr(recon, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(recon, name, counted)
        return calls

    def test_recover_vm_stage_calls(self, v3_setup, monkeypatch):
        # criterion 10's cubic configuration, 17 xi
        task, _ = v3_setup
        calls = self.count(monkeypatch, "invert_j2_point", "fourier_synthesis")
        recover_vm(task)
        assert calls == {"invert_j2_point": 1, "fourier_synthesis": 1}

    def test_recover_v2_stage_calls(self, monkeypatch):
        # criterion 10's quadratic configuration: 17 xi, two splits each,
        # and 201 geodesic samples
        ch = make_chart("flat_disk", n=3, interval=(0.0, 4.0),
                        params={"tube_radius": 1.0})
        V2fn = make_field("trig_gaussian", amp=1.0, freq=1.5, c0=0.4, c1=1.0,
                          s1=0.3, width=0.8, support=0.95)
        task = ReconTask(chart=ch, V=PotentialSeries({2: V2fn}), m=2,
                         truth=V2fn, margin=1.0, delta=1.0, sigma0=4.0,
                         lams=(10240.0, 20480.0, 40960.0, 81920.0), n_xi=17)
        calls = self.count(monkeypatch, "invert_j1_moments",
                           "fourier_synthesis")
        rec = recover_v2(task)
        assert calls == {"invert_j1_moments": 1, "fourier_synthesis": 1}
        assert rec.values.shape == (97, 201)


class TestBoundaryRoute:
    def make_task(self):
        ch = make_chart("flat_disk", n=3, interval=(0.0, 0.5),
                        params={"tube_radius": 0.7, "margin": 0.3})
        V3fn = make_field("trig_gaussian", amp=1.0, freq=3.0, c0=0.4, c1=1.0,
                          width=0.5, support=0.9, center=(0.1, 0.0))
        V = PotentialSeries({3: V3fn})
        return ReconTask(chart=ch, V=V, m=3, delta=0.7)

    def test_dual_path_refinement(self, monkeypatch):
        import beamlab.pde as pde
        import beamlab.recon as recon

        calls = []
        factors = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("signs", (+1, -1)))
            return assemble_cgo(*args, **kwargs)

        def counted_splu(*args, **kwargs):
            factors.append(None)
            return splu(*args, **kwargs)

        monkeypatch.setattr(recon, "assemble_cgo", counted)
        monkeypatch.setattr(pde, "splu", counted_splu)
        task = self.make_task()
        bundle = prepare_bundle(task, anchor="point")
        cyl = make_cylinder_grid(task.chart, nx0=96, ntrans=128)
        val_c, syn_c = full_dn_moment_v3(task, bundle, 0.2, 0.25, 20.0,
                                         grid=cyl, nx0=24, nr=16, nphi=16)
        # the -lam disk solves share the +lam factors: one block per
        # angular frequency pair, nphi // 2 + 1 per disk grid
        assert len(factors) == 16 // 2 + 1
        val_f, syn_f = full_dn_moment_v3(task, bundle, 0.2, 0.25, 20.0,
                                         grid=cyl, nx0=48, nr=32, nphi=32)
        assert len(factors) == 16 // 2 + 1 + 32 // 2 + 1
        tol = abs(val_f - val_c) / 3.0 * 1.6 + 0.02 * abs(syn_f)
        assert abs(val_f - syn_f) <= tol
        # both routes approach each other under refinement
        assert abs(val_f - syn_f) <= 0.5 * abs(val_c - syn_c)
        # the +/- lambda pair is completed in one call for both disk grids
        assert calls == [(+1, -1)]

    def test_grid_budget_guard(self):
        from beamlab.errors import ModeMismatch
        task = self.make_task()
        bundle = prepare_bundle(task, anchor="point")
        with pytest.raises(ModeMismatch):
            full_dn_moment_v3(task, bundle, 0.2, 0.25, 400.0,
                              make_cylinder_grid(task.chart, nx0=96,
                                                 ntrans=128),
                              nx0=24, nr=16, nphi=16)

    def test_cylinder_sampling_guard(self):
        # the disk grid resolves lambda = 40 (k h = 0.625) but the torus
        # spacing 3/32 does not (k h = 3.75 > pi)
        from beamlab.errors import ModeMismatch
        task = self.make_task()
        bundle = prepare_bundle(task, anchor="point")
        with pytest.raises(ModeMismatch, match="cylinder grid"):
            full_dn_moment_v3(task, bundle, 0.2, 0.25, 40.0,
                              make_cylinder_grid(task.chart, nx0=96,
                                                 ntrans=32),
                              nx0=24, nr=64, nphi=16)

    def test_quadratic_sampling_guard(self):
        # lambda = 30 on nr = 16 resolves the beams (k h = 1.875), but a
        # quadratic coefficient puts 2 lambda on the disk (k h = 3.75 > pi)
        from beamlab.errors import ModeMismatch
        task = self.make_task()
        V2fn = make_field("trig_gaussian", amp=0.8, freq=2.0, c0=1.0,
                          width=0.5, support=0.9)
        task = ReconTask(**{**task.__dict__,
                            "V": PotentialSeries({**task.V.coeffs, 2: V2fn})})
        bundle = prepare_bundle(task, anchor="point")
        with pytest.raises(ModeMismatch, match="disk grid.*2 lambda"):
            full_dn_moment_v3(task, bundle, 0.2, 0.25, 30.0,
                              make_cylinder_grid(task.chart, nx0=96,
                                                 ntrans=128),
                              nx0=24, nr=16, nphi=16)

    def test_lower_order_sampling_guard(self, monkeypatch):
        # at m = 4 a cubic coefficient feeds the 2 lambda solve too: with
        # lambda = 30 on nr = 16 that is k h = 3.75 > pi, refused before
        # any beam is built
        def no_beams(*args, **kwargs):
            raise AssertionError("a beam was built")

        monkeypatch.setattr(recon, "assemble_cgo", no_beams)
        task = self.make_task()
        V3fn = make_field("trig_gaussian", amp=0.8, freq=2.0, c0=1.0,
                          width=0.5, support=0.9)
        task = ReconTask(**{**task.__dict__, "m": 4,
                            "V": PotentialSeries({3: V3fn,
                                                  4: task.V.coeff(3)})})
        bundle = prepare_bundle(task, anchor="point")
        with pytest.raises(ModeMismatch, match="disk grid.*2 lambda"):
            full_dn_moment_v3(task, bundle, 0.2, 0.25, 30.0,
                              make_cylinder_grid(task.chart, nx0=96,
                                                 ntrans=128),
                              nx0=24, nr=16, nphi=16)

    @pytest.fixture(scope="class")
    def coarse_route(self):
        """The top coefficient P, the sensitivity test's quadratic
        coefficient and a runner of the 24x16^2 disk grid at order m, all
        runs on one bundle and cylinder grid."""
        task = self.make_task()
        V2fn = make_field("trig_gaussian", amp=0.8, freq=2.0, c0=1.0,
                          width=0.5, support=0.9)
        bundle = prepare_bundle(task, anchor="point")
        cyl = make_cylinder_grid(task.chart, nx0=96, ntrans=128)

        def run(coeffs, m):
            t = ReconTask(**{**task.__dict__, "m": m,
                             "V": PotentialSeries(coeffs)})
            return full_dn_moment_v3(t, bundle, 0.2, 0.25, 20.0, cyl,
                                     nx0=24, nr=16, nphi=16)
        return task.V.coeff(3), V2fn, run

    def test_m4_pairs_the_unit_datum(self, coarse_route):
        # m = 4 runs the four-fold cascade on [g+, g+, g-, 1]: with V4 = P
        # alone it is the m = 3 datum of V3 = P, and the lower-order
        # companion cancels V2 up to the pairing's discretization error
        P, V2fn, run = coarse_route
        val3, syn3 = run({3: P}, 3)
        val4, syn4 = run({4: P}, 4)
        assert abs(val4 - val3) <= 1e-12 * abs(val3)
        assert syn4 == syn3
        val4q, _ = run({2: V2fn, 4: P}, 4)
        assert abs(val4q - val4) <= 0.01 * abs(val4)
        with pytest.raises(ModeMismatch, match="normalizer"):
            run({1: make_field("constant", value=0.3), 4: P}, 4)

    def test_v1_refused_before_any_beam(self, coarse_route, monkeypatch):
        # the cylinder beams solve the equation without V1, so the boundary
        # datum moved with V1 while the volume value stayed put
        def no_beams(*args, **kwargs):
            raise AssertionError("a beam was built")

        monkeypatch.setattr(recon, "assemble_cgo", no_beams)
        P, _, run = coarse_route
        with pytest.raises(ModeMismatch, match="V1"):
            run({1: make_field("constant", value=0.3), 3: P}, 3)

    def test_cascade_traffic(self, coarse_route, monkeypatch):
        # one cascade per call; -lambda solves on the mirrored +lambda
        # factors, each other frequency built once, equal slots solved once
        import beamlab.pde as pde

        counts = {"solve": 0, "build": 0, "cascade": 0}
        solver = pde.SchrodingerSolver
        solve, init = solver.solve, solver.__init__
        cascade = pde.direct_hierarchy_solve

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver, "solve", counted("solve", solve))
        monkeypatch.setattr(solver, "__init__", counted("build", init))
        monkeypatch.setattr(pde, "direct_hierarchy_solve",
                            counted("cascade", cascade))
        P, V2fn, run = coarse_route
        # (coefficients, m, solves, solver builds)
        for coeffs, m, n_solve, n_build in [({3: P}, 3, 3, 1),
                                            ({2: V2fn, 3: P}, 3, 5, 3),
                                            ({4: P}, 4, 3, 1)]:
            counts.update(solve=0, build=0, cascade=0)
            run(coeffs, m)
            assert counts == {"solve": n_solve, "build": n_build,
                              "cascade": 1}

    def test_sensitivity_to_corrupted_lower_order(self):
        task = self.make_task()
        V2fn = make_field("trig_gaussian", amp=0.8, freq=2.0, c0=1.0,
                          width=0.5, support=0.9)
        task = ReconTask(**{**task.__dict__,
                            "V": PotentialSeries({**task.V.coeffs, 2: V2fn})})
        bundle = prepare_bundle(task, anchor="point")
        grid_kw = dict(nx0=36, nr=24, nphi=24,
                       grid=make_cylinder_grid(task.chart, nx0=96, ntrans=128))
        base, _ = full_dn_moment_v3(task, bundle, 0.2, 0.25, 20.0, **grid_kw)
        # the same pairing with the known quadratic coefficient 10% off
        bad_V = PotentialSeries({**task.V.coeffs,
                                 2: lambda x0, xp: 1.1 * V2fn(x0, xp)})
        bad, _ = full_dn_moment_v3(ReconTask(**{**task.__dict__, "V": bad_V}),
                                   bundle, 0.2, 0.25, 20.0, **grid_kw)
        relative_shift = abs(bad - base) / abs(base)
        # the datum moves with the corruption instead of absorbing it; the
        # size is a frozen regression value (companion term is sub-percent)
        assert relative_shift > 1e-4
        assert 5e-4 <= relative_shift <= 3e-3
