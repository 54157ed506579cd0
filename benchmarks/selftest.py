#!/usr/bin/env python3
"""Feed each workload check a right result and deliberately wrong ones.

    python3 benchmarks/selftest.py

Results are built from the closed forms (and, for the boundary pair, from
the values criterion 11 reads today), so no driver runs and this takes well
under a second.  Exits non-zero unless every right result passes and every
wrong one fails.
"""

from __future__ import annotations

import sys

import numpy as np

from run import load_workloads


def cases(wl):
    yield from cubic_cases(wl)
    yield from boundary_cases(wl)
    yield from curved_cases(wl)


def cubic_cases(wl):
    x0 = np.linspace(0.0, 1.0, 97)
    ref = wl.trig_gaussian(x0, np.zeros(2), **wl.CUBIC_PROFILE)
    yield "cubic: closed form", wl.check_cubic, {"x0": x0, "values": ref}, True
    yield ("cubic: 5% high", wl.check_cubic,
           {"x0": x0, "values": 1.05 * ref}, True)
    yield ("cubic: scaled by 1.2", wl.check_cubic,
           {"x0": x0, "values": 1.2 * ref}, False)
    off = wl.trig_gaussian(x0, np.array([0.3, 0.0]), **wl.CUBIC_PROFILE)
    yield ("cubic: profile at (0.3, 0) instead of the anchor", wl.check_cubic,
           {"x0": x0, "values": off}, False)


def boundary_cases(wl):
    # coarse 24x16^2, fine 48x32^2 and volume values as the workload reads
    today = {"coarse": 2.55, "fine": 1.79, "volume": 1.61}
    yield "boundary: today's values", wl.check_boundary, today, True
    yield ("boundary: all three scaled by 1.2 (the identity is linear)",
           wl.check_boundary, {k: 1.2 * v for k, v in today.items()}, True)
    yield ("boundary: fine value scaled by 1.2", wl.check_boundary,
           {**today, "fine": 1.2 * today["fine"]}, False)
    yield ("boundary: coarse and fine scaled by 1.2", wl.check_boundary,
           {**today, "coarse": 1.2 * today["coarse"],
            "fine": 1.2 * today["fine"]}, False)
    yield ("boundary: fine value equal to the coarse one",
           wl.check_boundary, {**today, "fine": today["coarse"]}, False)
    yield ("boundary: fine value scaled by 1.5", wl.check_boundary,
           {**today, "fine": 1.5 * today["fine"]}, False)
    yield ("boundary: volume value of the wrong sign", wl.check_boundary,
           {**today, "volume": -today["volume"]}, False)


def curved_cases(wl):
    K = wl.CURVATURE
    bias = wl.fit_bias(min(0.05, wl.CAP["tube_radius"] / 6.0), K)
    ypp = np.array([s[1] for s in wl.FERMI_SAMPLES])
    metric = np.zeros((len(ypp), 2, 2))
    metric[:, 0, 0] = np.cos(np.sqrt(K) * ypp) ** 2
    metric[:, 1, 1] = 1.0
    right = {"ginv_yy": np.full(81, K * (1.0 - bias)),
             "gdet_yy": np.full(81, -0.5 * K * (1.0 - bias)),
             "metric": metric, "norm": 0.99, "norm_flat": 1.0,
             "delta": wl.CAP["tube_radius"]}
    yield "curved: fit with its leading bias", wl.check_curved, right, True
    yield ("curved: reference K off by 10%",
           lambda r: wl.check_curved(r, curvature=1.1 * K), right, False)
    yield ("curved: g^11 jet off by 3 fit biases", wl.check_curved,
           {**right, "ginv_yy": np.full(81, K * (1.0 - 3.0 * bias))}, False)
    yield ("curved: sampled metric off by 1e-6", wl.check_curved,
           {**right, "metric": metric + 1e-6}, False)
    yield ("curved: Fermi norm above the flat one", wl.check_curved,
           {**right, "norm": 1.02}, False)


def main():
    wl = load_workloads()
    bad = 0
    for label, check, result, expect in cases(wl):
        ok, dev = check(result)
        verdict = "pass" if ok else "FAIL"
        flag = "" if ok == expect else "   <-- unexpected"
        bad += ok != expect
        print(f"{verdict}  deviation {dev:9.4g}  {label}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
