import numpy as np
import pytest

from beamlab.cgo import build_amplitude, build_phase
from beamlab.geometry import make_chart
from beamlab.jacobi import ComplexJacobiField
from beamlab.potentials import PotentialSeries, make_field
from beamlab.recon import (ReconTask, dn_moment_v2, dn_moment_v3,
                           fourier_synthesis, full_dn_moment_v3,
                           lambda_extrapolate, prepare_bundle, recover_vm,
                           sensitivity_report, stationary_phase_oracle,
                           tube_interaction, _calibration, _simpson_weights)


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
        rho = complex(lam, sigma)
        vals = []
        for ph, am, yy in ((phase, amp, Y), (phase2, amp2, Y2)):
            D = tube_interaction(bundle, fld, [ph, ph], [am, am], [rho, rho],
                                 [+1, -1], [2, 2], lam)
            cal, s = _calibration(bundle, yy, eps)
            vals.append(D * cal * s)
        assert abs(vals[0] - vals[1]) <= 2e-3 * abs(vals[0])


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


class TestRecoverVm:
    def test_m3_coarse(self, v3_setup):
        task, _ = v3_setup
        small = ReconTask(**{**task.__dict__, "n_xi": 9,
                             "eps_grid": (0.2, 0.1, 0.05, 0.025, 0.012)})
        rec = recover_vm(small)
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


class TestBoundaryRoute:
    def make_task(self):
        ch = make_chart("flat_disk", n=3, interval=(0.0, 0.5),
                        params={"tube_radius": 0.7, "margin": 0.3})
        V3fn = make_field("trig_gaussian", amp=1.0, freq=3.0, c0=0.4, c1=1.0,
                          width=0.5, support=0.9, center=(0.1, 0.0))
        V = PotentialSeries({3: V3fn})
        return ReconTask(chart=ch, V=V, m=3, delta=0.7)

    def test_dual_path_refinement(self):
        task = self.make_task()
        bundle = prepare_bundle(task, anchor="point")
        val_c, syn_c = full_dn_moment_v3(task, bundle, 0.2, 0.25, 20.0,
                                         nx0=24, nr=16, nphi=16, ntrans=128)
        val_f, syn_f = full_dn_moment_v3(task, bundle, 0.2, 0.25, 20.0,
                                         nx0=48, nr=32, nphi=32, ntrans=128)
        tol = abs(val_f - val_c) / 3.0 * 1.6 + 0.02 * abs(syn_f)
        assert abs(val_f - syn_f) <= tol
        # both routes approach each other under refinement
        assert abs(val_f - syn_f) <= 0.5 * abs(val_c - syn_c)

    def test_grid_budget_guard(self):
        from beamlab.errors import ModeMismatch
        task = self.make_task()
        bundle = prepare_bundle(task, anchor="point")
        with pytest.raises(ModeMismatch):
            full_dn_moment_v3(task, bundle, 0.2, 0.25, 400.0,
                              nx0=24, nr=16, nphi=16, ntrans=128)

    def test_cylinder_sampling_guard(self):
        # the disk grid resolves lambda = 40 (k h = 0.625) but the torus
        # spacing 3/32 does not (k h = 3.75 > pi)
        from beamlab.errors import ModeMismatch
        task = self.make_task()
        bundle = prepare_bundle(task, anchor="point")
        with pytest.raises(ModeMismatch, match="cylinder grid"):
            full_dn_moment_v3(task, bundle, 0.2, 0.25, 40.0,
                              nx0=24, nr=64, nphi=16, ntrans=32)

    def test_quadratic_sampling_guard(self):
        # lambda = 30 on nr = 16 resolves the beams (k h = 1.875), but a
        # quadratic coefficient puts 2 lambda on the disk (k h = 3.75 > pi)
        from beamlab.errors import ModeMismatch
        task = self.make_task()
        V2fn = make_field("trig_gaussian", amp=0.8, freq=2.0, c0=1.0,
                          width=0.5, support=0.9)
        task = ReconTask(**{**task.__dict__,
                            "V": task.V.replace(2, V2fn)})
        bundle = prepare_bundle(task, anchor="point")
        with pytest.raises(ModeMismatch, match="disk grid.*2 lambda"):
            full_dn_moment_v3(task, bundle, 0.2, 0.25, 30.0,
                              nx0=24, nr=16, nphi=16, ntrans=128)

    def test_sensitivity_to_corrupted_lower_order(self):
        task = self.make_task()
        V2fn = make_field("trig_gaussian", amp=0.8, freq=2.0, c0=1.0,
                          width=0.5, support=0.9)
        task = ReconTask(**{**task.__dict__,
                            "V": task.V.replace(2, V2fn)})
        bundle = prepare_bundle(task, anchor="point")
        rep = sensitivity_report(task, bundle, 0.2, 0.25, 20.0,
                                 corruption=0.10, nx0=36, nr=24, nphi=24,
                                 ntrans=128)
        # the driver surfaces the shift instead of absorbing it; the size is
        # a frozen regression value (companion term is sub-percent here)
        assert rep["relative_shift"] > 1e-4
        assert 5e-4 <= rep["relative_shift"] <= 3e-3
        assert rep["corruption"] == 0.10
