"""Property tests of the geodesic and Jacobi integration on the three model
charts: random start points (|x| <= radius / 2), directions and family
parameters, with the tolerances of the fixed-input tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamlab.geometry import make_chart, trace_geodesic
from beamlab.jacobi import (curvature_along, epsilon_family, real_pair,
                            riccati_path, wronskian)

CHARTS = [("flat_disk", {}), ("sphere_cap", {"cap_radius": 1.25}),
          ("conformal_disk", {})]

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)


def start(chart, r, phi, psi):
    x = 0.5 * chart.radius * r * np.array([math.cos(phi), math.sin(phi)])
    theta = np.array([math.cos(psi), math.sin(psi)])
    return x, theta / chart.metric.norm(x, theta)


def trace_pair(chart, x, theta):
    path = trace_geodesic(chart, x, theta)
    K = curvature_along(path)
    return path, K, real_pair(K)


@pytest.mark.parametrize("kind,params", CHARTS)
@settings(max_examples=8, derandomize=True, deadline=None)
@given(r=st.floats(min_value=0.0, max_value=1.0), phi=angles, psi=angles,
       eps=st.floats(min_value=1e-3, max_value=1e-1))
def test_geodesic_and_jacobi_invariants(kind, params, r, phi, psi, eps):
    chart = make_chart(kind, n=3, params=params)
    x, theta = start(chart, r, phi, psi)
    path, K, (X, Z) = trace_pair(chart, x, theta)
    assert path.unit_speed_defect <= 1e-6
    W = wronskian(Z, X)
    assert np.max(np.abs(W + 1.0)) <= 1e-8
    H = riccati_path(epsilon_family(K, eps, pair=(X, Z)))
    assert H.min_im_eig() > 0.0
    assert np.max(np.abs(H.H - np.swapaxes(H.H, 1, 2))) <= 1e-8
    assert H.conservation_drift() <= 1e-6

    # a second identical call reproduces every sample bit for bit
    path2, _, (X2, Z2) = trace_pair(chart, x, theta)
    for a, b in ((path.t, path2.t), (path.x, path2.x), (path.v, path2.v),
                 (path.frame, path2.frame), (X.Y, X2.Y), (X.Yd, X2.Yd),
                 (Z.Y, Z2.Y), (Z.Yd, Z2.Yd)):
        np.testing.assert_array_equal(a, b)
