import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from beamlab.cylinder import (S_A_BLOCK_BYTES, S_A_PAD, EigenBasis,
                              _add_x0_stencil, _fd_weights, apply_conjugated,
                              conjugated_solve, make_cylinder_grid, s_a_apply)
from beamlab.errors import NeumannDivergence, ResonantLambda, ZeroSymbol
from beamlab.geometry import make_chart


@pytest.fixture(scope="module")
def grid3():
    ch = make_chart("flat_disk", n=3)
    return make_cylinder_grid(ch, nx0=96, ntrans=96)


class TestSA:
    def setup_method(self):
        self.n = 256
        self.dx = 0.02
        self.x = (np.arange(self.n) - self.n / 2) * self.dx
        self.h = np.exp(-self.x ** 2 / 0.1)

    def test_zero_symbol(self):
        with pytest.raises(ZeroSymbol):
            s_a_apply(self.h, self.dx, 0.0)

    def test_batched_matches_columns(self):
        # |a| (npad - n) dx >= 40 picks the FFT branch: |a| >= 40 / 15.36
        a = np.array([[5.0, -5.0, 0.3 + 2.0j],
                      [-0.3 - 1.0j, 40.0, -12.0 + 1.0j]])
        rng = np.random.default_rng(5)
        h = self.h[:, None, None] * rng.standard_normal((1,) + a.shape)
        out = s_a_apply(h, self.dx, a)
        assert out.shape == h.shape
        for idx in np.ndindex(a.shape):
            col = s_a_apply(h[(slice(None),) + idx], self.dx, a[idx])
            np.testing.assert_allclose(out[(slice(None),) + idx], col,
                                       rtol=0, atol=1e-14)
        # a scalar broadcasts against every column
        np.testing.assert_allclose(
            s_a_apply(h, self.dx, 5.0)[:, 0, 0],
            s_a_apply(h[:, 0, 0], self.dx, 5.0), rtol=0, atol=1e-14)
        with pytest.raises(ZeroSymbol):
            s_a_apply(h, self.dx, np.where(a == 40.0, 0.0, a))

    def test_shared_transfers_match_per_line_calls(self):
        # repeated, negated and near-zero parameters (both transfer
        # branches): one transfer per distinct parameter, gathered per line,
        # gives every line to the last bit of its own call.  The lines span
        # two full blocks and a partial third, and two factors in one call
        # give the nested single-factor calls to the last bit
        block = S_A_BLOCK_BYTES // (16 * S_A_PAD * self.n)
        lines = 2 * block + block // 2 + 1
        a = np.resize([5.0, -5.0, 5.0, 0.01, -0.01, 0.01, 40.0, 5.0,
                       0.3 + 2.0j, 0.3 + 2.0j, -0.01, 40.0], lines)
        a2 = np.resize([-3.0, 0.02, 7.5, -0.02, 12.0 - 1.0j], lines)
        rng = np.random.default_rng(7)
        h = self.h[:, None] * (rng.standard_normal(a.shape)
                               + 1j * rng.standard_normal(a.shape))
        out = s_a_apply(h, self.dx, a)
        both = s_a_apply(h, self.dx, a, a2)
        assert np.array_equal(both, s_a_apply(out, self.dx, a2))
        for j in range(a.size):
            assert np.array_equal(out[:, j], s_a_apply(h[:, j], self.dx, a[j]))
            assert np.array_equal(both[:, j],
                                  s_a_apply(h[:, j], self.dx, a[j], a2[j]))

    def test_memory_is_blocked(self):
        # one call over 6,000 lines of 48 samples holds its result (4.6 MB),
        # the transfer tables (a few distinct parameters here) and a few
        # blocks of padded lines (1 MB each), not padded copies of every
        # line (18 MB each)
        rng = np.random.default_rng(11)
        h = rng.standard_normal((48, 6000)) + 0j
        a = rng.choice([25.0 + r for r in np.sqrt(np.arange(1.0, 50.0))],
                       6000)
        for factors in ((a,), (a, 2.0 - a)):
            tracemalloc.start()
            try:
                out = s_a_apply(h, 0.01, *factors)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.shape == h.shape
            assert peak <= h.nbytes + 6 * S_A_BLOCK_BYTES

    def test_single_mode_gain(self):
        # a pure oscillation is scaled by 1/|i xi0 + a|
        xi0 = 2.0 * np.pi * 10 / (self.n * self.dx)
        mode = np.exp(1j * xi0 * self.x) * np.exp(-self.x ** 2 / 2.0)
        out = s_a_apply(mode, self.dx, 3.0)
        gain = np.max(np.abs(out)) / np.max(np.abs(mode))
        assert gain == pytest.approx(1.0 / abs(1j * xi0 + 3.0), rel=2e-2)

    def test_kernel_oracle(self):
        # causal exponential kernel for a > 0
        a = 5.0
        out = s_a_apply(self.h, self.dx, a)

        def oracle(xx):
            return quad(lambda s: np.exp(-a * s) * np.exp(-(xx - s) ** 2 / 0.1),
                        0.0, 30.0, epsrel=1e-12, limit=400)[0]

        for i in range(40, 216, 25):
            assert out[i].real == pytest.approx(oracle(self.x[i]), abs=1e-8)
            assert abs(out[i].imag) <= 1e-12

    @pytest.mark.parametrize("a", [1.5 + 0.5j, -2.0 + 1.0j])
    def test_convolution_branch_oracle(self, a):
        # |a| (npad - n) dx < 40 picks the convolution branch; Re a < 0 takes
        # the anti-causal kernel u(x) = -int_0^inf e^{a s} h(x + s) ds
        npad = S_A_PAD * self.n
        assert abs(a) * (npad - self.n) * self.dx < 40.0
        out = s_a_apply(self.h, self.dx, a)
        sign = 1.0 if a.real >= 0 else -1.0
        b = sign * a

        def oracle(xx):
            return sign * quad(
                lambda s: np.exp(-b * s) * np.exp(-(xx - sign * s) ** 2 / 0.1),
                0.0, 30.0, epsrel=1e-12, limit=400, complex_func=True)[0]

        # The branch multiplies each sample h(x - m dx) by the exact cell
        # integral of the kernel k(s) = e^{-b s} (|k| <= 1) over the lag cell
        # [m dx - dx/2, m dx + dx/2] (only [0, dx/2] for m = 0).  Expanding h
        # across a cell, the half cell at the jump of k costs |h'| dx^2 / 8,
        # and every other cell costs dx^3 (|b h'| / 12 + |h''| / 24), which
        # sums to dx^2 (|b| ||h'||_1 / 12 + ||h''||_1 / 24).  For
        # h = exp(-x^2 / 0.1): max|h'| = sqrt(20) e^{-1/2}, ||h'||_1 = 2 (h
        # rises to 1 and falls back), ||h''||_1 = 4 max|h'| (h' swings up,
        # down and back).
        dh = np.sqrt(20.0) * np.exp(-0.5)
        tol = self.dx ** 2 * (dh / 8 + abs(b) * 2.0 / 12 + 4.0 * dh / 24)
        for i in range(40, 216, 25):
            assert abs(out[i] - oracle(self.x[i])) <= tol

    def test_operator_bound_halving(self):
        # spectrally narrow input: gain tracks 1/|a|, halving per doubling
        n, dx = 512, 0.04
        x = (np.arange(n) - n / 2) * dx
        h = np.exp(-x ** 2 / 4.0)
        norms = []
        for a in (2.0, 4.0, 8.0, 16.0):
            norms.append(np.linalg.norm(s_a_apply(h, dx, a)))
        for i in range(len(norms) - 1):
            assert norms[i + 1] / norms[i] == pytest.approx(0.5, abs=0.05)


class TestEigenBasis:
    def test_orthonormality(self, grid3):
        # mode index -> exp(i omega . x') over the square root of the volume
        basis = EigenBasis(grid3)
        mesh = np.stack(np.meshgrid(*grid3.trans_axes, indexing="ij"), axis=-1)
        cell = np.prod([ax[1] - ax[0] for ax in grid3.trans_axes])
        volume = np.prod(grid3.lengths)
        psi = lambda index: (np.exp(1j * mesh @ basis.omega[index])
                             / np.sqrt(volume))
        pairs = [((0, 0), (0, 0)), ((3, 0), (3, 0)), ((3, 0), (0, 2)),
                 ((5, 1), (5, 1)), ((5, 1), (4, 1))]
        for ia, ib in pairs:
            ip = np.sum(psi(ia) * np.conj(psi(ib))) * cell
            expect = 1.0 if ia == ib else 0.0
            assert ip == pytest.approx(expect, abs=1e-10)

    def test_mode_round_trip(self, grid3):
        rng = np.random.default_rng(3)
        shape = grid3.shape
        u = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        axes = tuple(range(1, u.ndim))
        back = np.fft.ifftn(np.fft.fftn(u, axes=axes), axes=axes)
        assert np.max(np.abs(back - u)) <= 1e-10


class TestConjugatedSolve:
    def test_single_mode_is_sa_composition(self, grid3):
        # one transversal eigenfunction: solve reduces to two S_a passes
        basis = EigenBasis(grid3)
        idx = (4, 0)
        om = np.sqrt(basis.eigenvalue(idx))
        X0, X1, X2 = grid3.mesh()
        h = np.exp(-((X0[:, 0, 0] - 0.5) ** 2) / 0.04)
        F = h[:, None, None] * np.exp(1j * basis.omega[idx][0] * X1)
        lam = 25.0
        R, rep = conjugated_solve(F, grid3, lam)
        hw = h * grid3.window
        ref = -s_a_apply(s_a_apply(hw, grid3.dx0, lam + om), grid3.dx0, lam - om)
        got = R[:, 0, 0] * np.exp(-1j * basis.omega[idx][0] * X1[:, 0, 0])
        # compare on the physical window against the 1D composition
        m = grid3.physical_mask()
        assert np.max(np.abs(got[m] - ref[m])) <= 1e-10 * np.max(np.abs(ref))

    def test_modes_match_per_mode_composition(self, grid3):
        # several transversal modes, each with its own x0 profile; at this
        # lambda, (5, 2) is near resonance and (5, 2), (3, -1) and (0, 7)
        # take the convolution branch of the short-range pass ((0, 7) its
        # anti-causal kernel), the others the spectral one
        basis = EigenBasis(grid3)
        X0, X1, X2 = grid3.mesh()
        lam = 11.5
        modes = [((5, 2), 0.5, 0.04, 1.0), ((3, -1), 0.3, 0.02, 0.5 - 1.0j),
                 ((0, 7), 0.7, 0.03, 2.0j), ((-9, 4), 0.45, 0.05, -0.8),
                 ((1, 0), 0.6, 0.01, 0.3 + 0.3j)]
        F = sum(c * np.exp(-(X0 - x) ** 2 / w)
                * np.exp(1j * (basis.omega[idx][0] * X1
                               + basis.omega[idx][1] * X2))
                for idx, x, w, c in modes)
        R, rep = conjugated_solve(F, grid3, lam)
        assert rep.modes == len(modes)
        Fhat = np.fft.fftn(F * grid3.window[:, None, None], axes=(1, 2))
        Rhat = np.fft.fftn(R, axes=(1, 2))
        for idx, *_ in modes:
            root = np.sqrt(basis.eigenvalue(idx))
            line = (slice(None),) + idx
            ref = -s_a_apply(s_a_apply(Fhat[line], grid3.dx0, lam + root),
                             grid3.dx0, lam - root)
            err = np.max(np.abs(Rhat[line] - ref))
            assert err <= 1e-12 * np.max(np.abs(ref))

    def test_residual_small(self, grid3):
        X0, X1, X2 = grid3.mesh()
        F = (np.exp(-((X0 - 0.5) ** 2) / 0.06)
             * np.exp(-(X1 ** 2 + X2 ** 2) / 0.3) * np.exp(1j * 3.0 * X1))
        R, rep = conjugated_solve(F, grid3, 40.0)
        assert rep.residual_l2 <= 1e-4

    def test_linearity(self, grid3):
        X0, X1, X2 = grid3.mesh()
        F = np.exp(-((X0 - 0.5) ** 2) / 0.06) * np.exp(-(X1 ** 2 + X2 ** 2) / 0.3)
        R1, _ = conjugated_solve(F, grid3, 30.0)
        R2, _ = conjugated_solve(3.5 * F, grid3, 30.0)
        assert np.max(np.abs(R2 - 3.5 * R1)) <= 1e-12 * np.max(np.abs(R2))

    def test_decay_ladder(self, grid3, sobolev_norms):
        basis = EigenBasis(grid3)
        X0, X1, X2 = grid3.mesh()
        bump = np.exp(-((X0 - 0.5) ** 2) / 0.05)
        lams, r0, r1, r2 = [], [], [], []
        for nominal in (10.0, 20.0, 40.0, 80.0):
            idx = basis.index_near_sqrt(nominal - 1.0)
            om_vec = basis.omega[idx]
            lam = np.sqrt(basis.eigenvalue(idx)) + 1.0
            F = bump * np.exp(1j * (om_vec[0] * X1 + om_vec[1] * X2))
            R, rep = conjugated_solve(F, grid3, lam)
            Fw = F * grid3.window[:, None, None]
            lams.append(lam)
            r0.append(rep.norm_ratio)
            _, h1, h2 = sobolev_norms(R, grid3, 2) / sobolev_norms(Fw, grid3, 2)
            r1.append(h1)
            r2.append(h2)
        assert np.polyfit(np.log(lams), np.log(r0), 1)[0] == pytest.approx(-1.0, abs=0.15)
        assert np.polyfit(np.log(lams), np.log(r1), 1)[0] == pytest.approx(-1.0, abs=0.2)
        assert np.polyfit(np.log(lams), np.log(r2), 1)[0] == pytest.approx(-1.0, abs=0.2)

    def test_apply_conjugated_matches_separate_derivatives(self, grid3):
        # the combined seven-point x0 stencil against -(d2 + 2 lam d1 +
        # lam^2) R from two separate difference passes, with a potential
        rng = np.random.default_rng(11)
        R = rng.standard_normal(grid3.shape) + 1j * rng.standard_normal(grid3.shape)
        V1 = rng.standard_normal(grid3.shape)
        lam = 23.0
        taxes = (1, 2)
        mu = EigenBasis(grid3).mu
        lap_t = np.fft.ifftn(-mu[None] * np.fft.fftn(R, axes=taxes), axes=taxes)
        d1, d2 = (_add_x0_stencil(np.zeros_like(R), R, _fd_weights(grid3.dx0, k))
                  for k in (1, 2))
        ref = -(d2 + 2.0 * lam * d1 + lam ** 2 * R) - lap_t + V1 * R
        out = apply_conjugated(R, grid3, lam, V1_field=V1)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_resonance_rejected(self, grid3):
        basis = EigenBasis(grid3)
        idx = basis.index_near_sqrt(25.0)
        om_vec = basis.omega[idx]
        lam = np.sqrt(basis.eigenvalue(idx))
        X0, X1, X2 = grid3.mesh()
        F = np.exp(-((X0 - 0.5) ** 2) / 0.05) * np.exp(1j * (om_vec[0] * X1
                                                             + om_vec[1] * X2))
        with pytest.raises(ResonantLambda):
            conjugated_solve(F, grid3, lam)

    def test_potential_loop(self, grid3):
        X0, X1, X2 = grid3.mesh()
        V1 = 0.8 * np.exp(-((X0 - 0.5) ** 2 + X1 ** 2 + X2 ** 2) / 0.3)
        F = np.exp(-((X0 - 0.5) ** 2) / 0.06) * np.exp(-(X1 ** 2 + X2 ** 2) / 0.3)
        R, rep = conjugated_solve(F, grid3, 30.0, V1_field=V1)
        assert rep.residual_l2 <= 1e-4
        assert rep.iterations >= 1

    def test_potential_divergence_guard(self, grid3):
        # enormous zeroth-order term at small lambda cannot contract
        X0, X1, X2 = grid3.mesh()
        V1 = 5e3 * np.ones_like(X0)
        F = np.exp(-((X0 - 0.5) ** 2) / 0.06) * np.exp(-(X1 ** 2 + X2 ** 2) / 0.3)
        with pytest.raises(NeumannDivergence):
            conjugated_solve(F, grid3, 12.0, V1_field=V1)

    def test_n4_smoke(self):
        ch = make_chart("flat_disk", n=4)
        grid = make_cylinder_grid(ch, nx0=48, ntrans=24)
        mesh = grid.mesh()
        X0 = mesh[0]
        r2 = sum(m ** 2 for m in mesh[1:])
        F = np.exp(-((X0 - 0.5) ** 2) / 0.06) * np.exp(-r2 / 0.3)
        R, rep = conjugated_solve(F, grid, 25.0)
        assert rep.residual_l2 <= 1e-4
