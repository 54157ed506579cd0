"""Batch experiment driver.

Every run takes a JSON config and an output directory, validates the config,
emits a canonical manifest and per-task CSV/JSON artifacts.  Outputs are
deterministic functions of the config: no timestamps, no unseeded randomness
(nothing here is randomized; the seed is recorded for provenance only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import BeamlabError, ConfigInvalid
from .geometry import FermiChart, chart_from_config, trace_geodesic
from .jacobi import curvature_along, epsilon_family, real_pair, riccati_path
from .potentials import field_from_config, series_from_config
from .raytransform import (GeodesicSample, forward_curve, invert_j1_moments,
                           invert_j1_point_split, invert_j2_point, j1_forward,
                           j2_forward)

__all__ = ["main", "run_task", "validate_config"]


def _require(cfg, key, types, where):
    if key not in cfg:
        raise ConfigInvalid(f"{where}.{key}", "missing required field")
    if types is not None and not isinstance(cfg[key], types):
        raise ConfigInvalid(f"{where}.{key}",
                            f"expected {types}, got {type(cfg[key]).__name__}")
    return cfg[key]


def validate_config(cfg):
    """Schema checks with field-level diagnostics; returns the chart."""
    if not isinstance(cfg, dict):
        raise ConfigInvalid("<root>", "config must be a JSON object")
    geom = _require(cfg, "geometry", dict, "<root>")
    chart = chart_from_config(geom)
    if "potentials" in cfg:
        series_from_config(_require(cfg, "potentials", dict, "<root>"))
    for key in ("geodesic", "jacobi", "transform", "invert", "solve", "dn",
                "cgo_rates", "recover"):
        if key in cfg and not isinstance(cfg[key], dict):
            raise ConfigInvalid(key, "task block must be an object")
    return chart


def _traced_path(cfg, chart):
    """The geodesic of the config's ``geodesic`` block: start ``x``,
    direction ``theta`` (unit in the metric) and ``margin``, and the step
    ``h`` if the block gives one (else ``trace_geodesic``'s default)."""
    block = cfg.get("geodesic", {})
    d = chart.trans_dim
    x = np.asarray(block.get("x", [0.0] * d), dtype=float)
    theta = np.asarray(block.get("theta", [1.0] + [0.0] * (d - 1)),
                       dtype=float)
    theta = theta / chart.metric.norm(x, theta)
    step = {"h": block["h"]} if "h" in block else {}
    return trace_geodesic(chart, x, theta, margin=block.get("margin"), **step)


def _field_on_path(cfg, path, where):
    fld = cfg.get("f")
    if fld is None:
        raise ConfigInvalid(f"{where}.f", "missing sampled-function block")
    fn = field_from_config(fld)
    # restrict a cylinder field to the geodesic at the interval midpoint
    x0_mid = 0.5 * (path.chart.interval[0] + path.chart.interval[1])
    return GeodesicSample(path.t, fn(np.full(len(path.t), x0_mid), path.x),
                          window=(path.tau_minus, path.tau_plus))


def task_geodesic(cfg, chart, outdir):
    path = _traced_path(cfg, chart)
    out = os.path.join(outdir, "geodesic.csv")
    path.to_csv(out)
    return {"tau_minus": path.tau_minus, "tau_plus": path.tau_plus,
            "unit_speed_defect": path.unit_speed_defect, "files": [out]}


def task_jacobi(cfg, chart, outdir):
    path = _traced_path(cfg, chart)
    K = curvature_along(path)
    block = cfg.get("jacobi", {})
    eps_list = block.get("eps", [0.1])
    anchor = block.get("anchor", "point")
    pair = real_pair(K, anchor)
    files = []
    info = {}
    for eps in eps_list:
        Y = epsilon_family(K, float(eps), anchor=anchor, pair=pair)
        out = os.path.join(outdir, f"jacobi_eps{eps}.csv")
        Y.to_csv(out)
        H = riccati_path(Y)
        info[str(eps)] = {"c_cons": H.constant(),
                          "drift": H.conservation_drift(),
                          "min_im_eig": H.min_im_eig()}
        files.append(out)
    info["files"] = files
    return info


def task_transform(cfg, chart, outdir):
    block = cfg.get("transform", {})
    path = _traced_path(cfg, chart)
    K = curvature_along(path)
    anchor = block.get("anchor", "point")
    pair = real_pair(K, anchor)
    f = _field_on_path(block, path, "transform")
    eps_grid = block.get("eps_grid", [0.1, 0.03, 0.01])
    kind = block.get("kind", "second")
    curve = forward_curve(f, lambda e: epsilon_family(K, e, anchor=anchor,
                                                      pair=pair),
                          eps_grid, kind=kind)
    out = os.path.join(outdir, f"transform_{kind}.csv")
    curve.to_csv(out)
    return {"kind": kind, "files": [out]}


def task_invert(cfg, chart, outdir):
    block = cfg.get("invert", {})
    route = block.get("route", "j2")
    path = _traced_path(cfg, chart)
    K = curvature_along(path)
    f = _field_on_path(block, path, "invert")
    eps_grid = block.get("eps_grid", [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    zeta = float(block.get("zeta", 0.4))
    out = os.path.join(outdir, f"invert_{route}.json")
    if route == "j2":
        pair = real_pair(K, "point")
        orc = lambda e: j2_forward(f, epsilon_family(K, e, pair=pair))
        rep = invert_j2_point(orc, eps_grid, zeta=zeta, n=chart.n)
        rep.to_json(out)
        return {"estimate": [rep.estimate.real, rep.estimate.imag],
                "files": [out]}
    if route == "j1_split":
        pair = real_pair(K, "point")
        orc = lambda e: j1_forward(f, epsilon_family(K, e, pair=pair))
        rep = invert_j1_point_split(orc, eps_grid)
        rep.to_json(out)
        return {"estimate": [float(np.real(rep.estimate)), 0.0],
                "files": [out]}
    if route == "j1_moments":
        X, Z = real_pair(K, "entry")
        orc = lambda e: j1_forward(f, epsilon_family(K, e, anchor="entry",
                                                     pair=(X, Z)))
        rec, diag = invert_j1_moments(orc, X, Z, f.window,
                                      K_max=int(block.get("K_max", 8)))
        data = np.column_stack([rec.t, rec.values.real])
        csv = os.path.join(outdir, "invert_moments.csv")
        np.savetxt(csv, data, delimiter=",", header="t,f_est", comments="",
                   fmt="%.12g")
        return {"condition": diag["condition"], "files": [csv]}
    raise ConfigInvalid("invert.route", f"unknown route {route!r}")


def _grid_problem(cfg, chart, where):
    """Solver, series, datum and ``r0`` of the grid tasks ``solve`` and
    ``dn``, read from the config block ``where``."""
    from .pde import SchrodingerSolver, disk_cylinder_domain
    block = cfg.get(where, {})
    if chart.n != 3:
        raise ConfigInvalid(where, "grid solves ship for n = 3 charts")
    nx0, nr, nphi = block.get("grid", [49, 24, 24])
    dom = disk_cylinder_domain(chart, int(nx0), int(nr), int(nphi))
    V = series_from_config(cfg.get("potentials", {}))
    x0, xp = dom.points()
    V1f = V.eval_k(1, x0, xp) if 1 in V.coeffs else None
    solver = SchrodingerSolver(dom, V1_field=V1f)
    f = field_from_config(_require(block, "f", dict, where))
    return solver, V, f, float(block.get("r0", 0.5))


def task_solve(cfg, chart, outdir):
    from .pde import solve_semilinear
    solver, V, f, r0 = _grid_problem(cfg, chart, "solve")
    u, info = solve_semilinear(solver, V, f, r0=r0)
    rep = {"iterations": info["iterations"],
           "contraction": info["contraction"],
           "sup_ratio": info["sup_ratio"],
           "residual": info["deltas"][-1]}
    out = os.path.join(outdir, "solve_report.json")
    with open(out, "w") as fh:
        json.dump(rep, fh, indent=2, sort_keys=True)
    rep["files"] = [out]
    return rep


def task_dn(cfg, chart, outdir):
    from .pde import dn_map
    solver, V, f, r0 = _grid_problem(cfg, chart, "dn")
    _, records = dn_map(solver, V, f, r0=r0)
    out = os.path.join(outdir, "dn_records.csv")
    with open(out, "w") as fh:
        fh.write("face,side,index,f_re,f_im,dn_re,dn_im\n")
        for rec in records:
            for row in rec.to_csv_rows():
                fh.write(",".join(str(v) for v in row) + "\n")
    return {"faces": len(records), "files": [out]}


def task_cgo_rates(cfg, chart, outdir):
    from .cgo import (build_amplitude, build_phase, conjugated_defect_norm,
                      quasimode_lp_norm)
    from .jacobi import solve_jacobi
    block = cfg.get("cgo_rates", {})
    path = _traced_path(cfg, chart)
    K = curvature_along(path)
    m = chart.trans_dim - 1
    Y = solve_jacobi(K, 0.0, np.eye(m), 1j * np.eye(m),
                     require_admissible=True)
    N = int(block.get("N", 2))
    sigma = float(block.get("sigma", 1.0))
    lams = [float(v) for v in block.get("lams", [20.0, 40.0, 80.0, 160.0])]
    phase = build_phase(path, Y, N=N)
    amp = build_amplitude(path, phase, Y, N_amp=1)
    fermi = FermiChart(path)
    rows = []
    for lam in lams:
        rho = complex(lam, sigma)
        rows.append((lam, "quasimode_l2",
                     quasimode_lp_norm(phase, amp, rho, +1, chart,
                                       fermi=fermi)))
        if chart.metric.is_flat:
            rows.append((lam, "defect_l2",
                         conjugated_defect_norm(phase, amp, rho, +1, chart)))
    out = os.path.join(outdir, "rates.csv")
    with open(out, "w") as fh:
        fh.write("lambda,norm_name,value\n")
        for lam, name, val in rows:
            fh.write(f"{lam:.10g},{name},{val:.12g}\n")
    slopes = {}
    for name in {r[1] for r in rows}:
        pts = [(np.log(r[0]), np.log(r[2])) for r in rows if r[1] == name]
        if len(pts) >= 2:
            xs, ys = zip(*pts)
            slopes[name] = float(np.polyfit(xs, ys, 1)[0])
    return {"slopes": slopes, "files": [out]}


def task_recover(cfg, chart, outdir):
    from .recon import ReconTask, recover_v2, recover_vm
    block = cfg.get("recover", {})
    V = series_from_config(cfg.get("potentials", {}))
    m = int(block.get("m", 3))
    kwargs = {}
    for key in ("lams", "eps_grid", "basis_freqs"):
        if key in block:
            kwargs[key] = tuple(float(v) for v in block[key])
    for key in ("sigma0", "zeta", "delta", "margin", "lam_eps_ref"):
        if key in block:
            kwargs[key] = float(block[key])
    if "n_xi" in block:
        kwargs["n_xi"] = int(block["n_xi"])
    truth = None
    if "truth" in block:
        truth = field_from_config(block["truth"])
    task = ReconTask(chart=chart, V=V, m=m, truth=truth,
                     N=int(block.get("N", 2)), **kwargs)
    rec = recover_v2(task) if m == 2 else recover_vm(task)
    out = os.path.join(outdir, "recovered.csv")
    rec.to_csv(out)
    # criterion 10 judges the interior error for m = 2; the whole-window
    # error also counts the ends of the window, where it is largest
    return {"rel_error": rec.rel_error(),
            "rel_error_interior": rec.rel_error(interior=True),
            "files": [out]}


TASKS = {
    "geodesic": task_geodesic,
    "jacobi": task_jacobi,
    "transform": task_transform,
    "invert": task_invert,
    "solve": task_solve,
    "dn": task_dn,
    "cgo-rates": task_cgo_rates,
    "recover": task_recover,
    "manifest": lambda cfg, chart, outdir: {},
}


def run_task(name, cfg, outdir):
    chart = validate_config(cfg)
    os.makedirs(outdir, exist_ok=True)
    result = TASKS[name](cfg, chart, outdir)
    manifest = {
        "version": __version__,
        "task": name,
        "config": cfg,
        "seed": cfg.get("seed", 0),
        "result": {k: v for k, v in result.items() if k != "files"},
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
    }
    mpath = os.path.join(outdir, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=float)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="beamlab",
        description="geodesic beam transforms and boundary-data inversion")
    parser.add_argument("task", choices=sorted(TASKS) + ["validate"],
                        help="task to run")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the manifest; no task is randomized")
    args = parser.parse_args(argv)

    with open(args.config) as fh:
        cfg = json.load(fh)
    cfg.setdefault("seed", args.seed)
    try:
        if args.task == "validate":
            validate_config(cfg)
            print("config ok")
            return 0
        result = run_task(args.task, cfg, args.out)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BeamlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    summary = {k: v for k, v in result.items() if k != "files"}
    print(json.dumps(summary, sort_keys=True, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
