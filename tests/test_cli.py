import hashlib
import json

import numpy as np
import pytest

from beamlab.cli import main, run_task, validate_config
from beamlab.errors import ConfigInvalid


def base_config():
    return {
        "geometry": {"kind": "flat_disk", "n": 3, "interval": [0.0, 1.0]},
        "potentials": {"2": {"kind": "constant", "value": 2.0}},
        "geodesic": {"x": [0.0, 0.0], "theta": [1.0, 0.0]},
        "jacobi": {"eps": [0.1, 0.01]},
        "transform": {"kind": "second", "eps_grid": [0.1, 0.03, 0.01],
                      "f": {"kind": "gaussian", "amp": 1.0,
                            "center": [0.5, 0.0, 0.0], "width": 0.5}},
        "invert": {"route": "j2",
                   "f": {"kind": "gaussian", "amp": 1.0,
                         "center": [0.5, 0.0, 0.0], "width": 0.5}},
        "solve": {"f": {"kind": "constant", "value": 0.2},
                  "grid": [33, 16, 16]},
    }


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestValidation:
    def test_ok(self):
        validate_config(base_config())

    def test_bad_kind_names_field(self):
        cfg = base_config()
        cfg["geometry"]["kind"] = "moebius"
        with pytest.raises(ConfigInvalid) as err:
            validate_config(cfg)
        assert "geometry.kind" in str(err.value)

    def test_bad_interval(self):
        cfg = base_config()
        cfg["geometry"]["interval"] = [1.0, 0.0]
        with pytest.raises(ConfigInvalid) as err:
            validate_config(cfg)
        assert "geometry.interval" in str(err.value)

    def test_bad_potential_key(self):
        cfg = base_config()
        cfg["potentials"] = {"zero": {"kind": "constant"}}
        with pytest.raises(ConfigInvalid):
            validate_config(cfg)

    def test_cli_exit_codes(self, tmp_path):
        cfg = base_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 0
        cfg["geometry"]["kind"] = "nope"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2


class TestTasks:
    def test_geodesic_csv(self, tmp_path):
        out = tmp_path / "run"
        res = run_task("geodesic", base_config(), str(out))
        assert res["tau_plus"] == pytest.approx(1.0, abs=1e-8)
        data = np.loadtxt(out / "geodesic.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 5
        assert (out / "manifest.json").exists()

    def test_manifest_only(self, tmp_path):
        out = tmp_path / "m"
        res = run_task("manifest", base_config(), str(out))
        assert res == {}
        assert (out / "manifest.json").exists()

    def test_invert_report(self, tmp_path):
        out = tmp_path / "run"
        res = run_task("invert", base_config(), str(out))
        assert abs(res["estimate"][0] - 1.0) <= 0.02
        rep = json.loads((out / "invert_j2.json").read_text())
        assert "eps_grid" in rep and "error_bound" in rep

    def test_solve_report(self, tmp_path):
        out = tmp_path / "run"
        res = run_task("solve", base_config(), str(out))
        assert res["contraction"] < 1.0

    def test_determinism(self, tmp_path):
        cfg = base_config()
        h1, h2 = [], []
        for sub, acc in (("a", h1), ("b", h2)):
            out = tmp_path / sub
            run_task("jacobi", cfg, str(out))
            run_task("geodesic", cfg, str(out))
            for name in sorted(p.name for p in out.iterdir()):
                acc.append((name, sha(out / name)))
        assert h1 == h2

    def test_cgo_rates_fermi_volume(self, tmp_path, monkeypatch):
        # on the K = 1 cap the Fermi volume element is cos(y''), so the
        # quasimode norm lies within [sqrt(cos(delta)), 1) of the norm of
        # the same beam with volume element 1
        import beamlab.cgo

        lp_norm = beamlab.cgo.quasimode_lp_norm
        norms = []

        def with_flat(phase, amp, rho, sign, chart, **kwargs):
            norm = lp_norm(phase, amp, rho, sign, chart, **kwargs)
            norms.append((norm, lp_norm(phase, amp, rho, sign, chart),
                          amp.delta))
            return norm

        monkeypatch.setattr(beamlab.cgo, "quasimode_lp_norm", with_flat)
        cfg = base_config()
        cfg["geometry"] = {"kind": "sphere_cap", "n": 3,
                           "interval": [0.0, 1.0],
                           "params": {"curvature": 1.0, "cap_radius": 1.1,
                                      "tube_radius": 0.35}}
        cfg["cgo_rates"] = {"lams": [40.0]}
        out = tmp_path / "run"
        run_task("cgo-rates", cfg, str(out))
        (norm, norm_flat, delta), = norms
        lines = (out / "rates.csv").read_text().splitlines()
        assert lines[1].startswith("40,quasimode_l2,")
        assert float(lines[1].split(",")[2]) == pytest.approx(norm, rel=1e-11)
        assert np.sqrt(np.cos(delta)) <= norm / norm_flat < 1.0

    def test_recover_quadratic_reports(self, tmp_path, monkeypatch):
        # canned recover_v2 result: 2 x0 samples, 3 geodesic parameters
        import beamlab.recon
        from beamlab.recon import RecoveredPotential

        t = np.array([-0.5, 0.0, 0.5])
        x0 = np.array([0.0, 1.0])
        field = np.arange(6.0).reshape(2, 3) + 0.5j
        truth = field.real + 0j
        truth[0, 0] += 2.0           # the largest error sits at a window end
        canned = RecoveredPotential(
            m=2, x0=x0, values=field, xi=np.zeros(1), xi_data=np.zeros((1, 3)),
            err_est=np.full(1, np.nan), truth=truth, t=t,
            interior=np.array([False, True, False]))
        monkeypatch.setattr(beamlab.recon, "recover_v2", lambda task: canned)
        cfg = base_config()
        cfg["recover"] = {"m": 2}
        out = tmp_path / "run"
        res = run_task("recover", cfg, str(out))
        rel, rel_int = canned.rel_error(), canned.rel_error(interior=True)
        assert rel != rel_int
        assert res["rel_error"] == rel
        assert res["rel_error_interior"] == rel_int
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["result"]["rel_error"] == rel
        assert manifest["result"]["rel_error_interior"] == rel_int
        lines = (out / "recovered.csv").read_text().splitlines()
        assert lines[0] == "x0,t,m,Vm_re,Vm_im,err_est,truth_re,truth_im"
        data = np.loadtxt(lines[1:], delimiter=",")
        np.testing.assert_array_equal(data[:, 1], np.repeat(t, 2))
        np.testing.assert_array_equal(data[:, 0], np.tile(x0, 3))
        np.testing.assert_array_equal(data[:, 3], field.real.T.ravel())
