import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from bsweyl import quantize

from bsweyl.density import ComplexWindow, action_map_integrable, omega_density
from bsweyl.experiments import BSExactnessConfig, run_bs_exactness
from bsweyl.flow import Deformation, DeformedSymbol, deformed_quadratic
from bsweyl.quantize import (ORDER_TOL, BasisSpec, BSLattice, EigensolveError,
                             OperatorMatrix, QuantizationError, bs_predict,
                             count_and_compare, gaussian_perturbation,
                             parity_blocks, perturb, quantize_quadratic,
                             quantize_torus, spectrum)
from bsweyl.symbols import SymbolExpr, cho, coupling_xx, torus_coupled, torus_linear

from oracles import (column_order_reference, csv_reference, eig2x2,
                     gaussian_perturbation_reference, hamilton_matrix, harmonic_lattice,
                     ladder_ops, quadratic_exact_spectrum, quantize_quadratic_dense,
                     quantize_quadratic_kron)


def osc_1d_in_2d():
    return (SymbolExpr.monomial(0.5, (2, 0), (0, 0))
            + SymbolExpr.monomial(0.5, (0, 0), (2, 0)))


def p_t_symbol(t=0.2):
    """cho(1, 0) deformed by the x1 x2 generator to t."""
    return deformed_quadratic(DeformedSymbol(cho(1.0, 0.0), Deformation((coupling_xx(),)), t))


def p_t_operator(N, h=0.05, t=0.2):
    """p_t quantized at N per axis."""
    return quantize_quadratic(p_t_symbol(t), BasisSpec("hermite-tensor", N, h))


def dense_in_window(M, win):
    """The window's eigenvalues from a full dense solve, sorted lexicographically."""
    ev = np.linalg.eigvals(M)
    lo_r, hi_r, lo_i, hi_i = win
    ev = ev[(ev.real > lo_r) & (ev.real < hi_r) & (ev.imag > lo_i) & (ev.imag < hi_i)]
    return ev[np.lexsort((ev.imag, ev.real))]


def hausdorff(a, b):
    return max(np.abs(a[:, None] - b[None, :]).min(axis=1).max(),
               np.abs(b[:, None] - a[None, :]).min(axis=1).max())


COUNT_WINDOW = (0.2, 0.5, 0.25, 0.45)  # C5's count window: 24 perturbed eigenvalues


class TestQuantizeQuadratic:
    def test_harmonic_oscillator_diagonal_ladder(self):
        h, N = 0.1, 10
        basis = BasisSpec("hermite-tensor", N, h, n=1)
        M = quantize_quadratic(
            SymbolExpr.monomial(0.5, (2,), (0,), n=1)
            + SymbolExpr.monomial(0.5, (0,), (2,), n=1), basis)
        # exactly diagonal with h(k+1/2), except the truncated top state
        off = M.toarray() - np.diag(np.diag(M.toarray()))
        assert np.max(np.abs(off)) == 0.0
        want = h * (np.arange(N) + 0.5)
        got = np.diag(M.toarray()).real
        assert np.allclose(got[:-1], want[:-1], atol=1e-14)

    def test_cho_separable_lattice(self):
        h, N = 0.05, 12
        basis = BasisSpec("hermite-tensor", N, h)
        s = spectrum(quantize_quadratic(cho(1.0, 0.0), basis))
        lat = harmonic_lattice(h, N)
        # compare away from the corrupted top slices k = N-1
        safe = (lat.real < h * (N - 1)) & (lat.imag < h * (N - 1))
        lat_safe = np.sort_complex(lat[safe])
        dist = np.abs(lat_safe[:, None] - s.eigenvalues[None, :]).min(axis=1)
        assert np.max(dist) <= 1e-10

    def test_weyl_symmetrization_of_cross_term(self):
        h, N = 0.1, 8
        basis = BasisSpec("hermite-tensor", N, h, n=1)
        q = SymbolExpr.monomial(1.0, (1,), (1,), n=1)
        M = quantize_quadratic(q, basis).toarray()
        X, P = ladder_ops(N, h)
        want = 0.5 * (X @ P + P @ X)
        assert np.max(np.abs(M - want)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_embedding_oracle(self, n):
        # every monomial of degree <= 2 in (x, xi), complex coefficients
        h, N = 0.1, 5
        rng = np.random.default_rng(n)
        basis = BasisSpec("hermite-tensor", N, h, n=n)
        exps = [e for e in itertools.product(range(3), repeat=2 * n) if sum(e) <= 2]
        assert len(exps) == (2 * n + 1) * (2 * n + 2) // 2
        for e in exps:
            coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = SymbolExpr.monomial(coeff, e[:n], e[n:], n=n)
            got = quantize_quadratic(q, basis).toarray()
            assert np.max(np.abs(got - quantize_quadratic_dense(q, N, h))) <= 1e-14, e
        q = sum((SymbolExpr.monomial(complex(*rng.uniform(-2, 2, 2)), e[:n], e[n:], n=n)
                 for e in exps), SymbolExpr.zero(n))
        got = quantize_quadratic(q, basis).toarray()
        assert np.max(np.abs(got - quantize_quadratic_dense(q, N, h))) <= 1e-14

    @pytest.mark.parametrize("N, n", [*itertools.product([1, 5, 12], [1, 2, 3]), (40, 2)])
    def test_sparse_kron_sum_is_bitwise_the_dense_kron_sum(self, N, n):
        # random subsets of the degree <= 2 monomials, random complex coefficients
        rng = np.random.default_rng(10 * N + n)
        exps = [e for e in itertools.product(range(3), repeat=2 * n) if sum(e) <= 2]
        for _ in range(3):
            picked = [e for e in exps if rng.random() < 0.6]
            q = sum((SymbolExpr.monomial(complex(*rng.uniform(-2, 2, 2)), e[:n], e[n:], n=n)
                     for e in picked), SymbolExpr.zero(n))
            got = quantize_quadratic(q, BasisSpec("hermite-tensor", N, 0.05, n=n)).toarray()
            want = quantize_quadratic_kron(q, N, 0.05)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_degree_cap(self):
        basis = BasisSpec("hermite-tensor", 6, 0.1)
        cubic = SymbolExpr.monomial(1.0, (3, 0), (0, 0))
        with pytest.raises(QuantizationError):
            quantize_quadratic(cubic, basis)

    def test_hermitian_branch(self):
        # real-on-reals symbol quantizes to a Hermitian matrix with real
        # eigenvalues at solver accuracy
        q = (osc_1d_in_2d()
             + SymbolExpr.monomial(0.5, (0, 2), (0, 0))
             + SymbolExpr.monomial(0.5, (0, 0), (0, 2))
             + SymbolExpr.monomial(0.3, (1, 1), (0, 0)))
        assert q.is_real_on_reals()
        basis = BasisSpec("hermite-tensor", 10, 0.1)
        M = quantize_quadratic(q, basis)
        m = M.toarray()
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12 * max(np.max(np.abs(m)), 1.0)
        s = spectrum(M)
        assert np.max(np.abs(s.eigenvalues.imag)) <= 1e-10


class TestQuantizeTorus:
    def test_linear_lattice(self):
        basis = BasisSpec("torus-fourier", 3, 0.1)
        M = quantize_torus(torus_linear(), basis)
        ks = np.arange(-3, 4)
        want = (0.1 * ks[:, None] + 0.1j * ks[None, :]).ravel()
        got = np.sort_complex(np.diag(M.toarray()))
        assert np.allclose(got, np.sort_complex(want), atol=1e-15)

    def test_constant_symbol_scalar_matrix(self):
        basis = BasisSpec("torus-fourier", 2, 0.1)
        M = quantize_torus(SymbolExpr.constant(2.0 + 1.0j), basis)
        assert np.allclose(M.toarray(), (2.0 + 1.0j) * np.eye(25))

    def test_rejects_angle_dependence(self):
        basis = BasisSpec("torus-fourier", 2, 0.1)
        with pytest.raises(QuantizationError):
            quantize_torus(SymbolExpr.monomial(1.0, (1, 0), (0, 0)), basis)

    def test_bs_consistency_exact(self):
        # spectrum(quantize_torus) and bs_predict are both ptilde(h k)
        h, K = 0.1, 3
        ptilde = torus_coupled(0.3)
        s = spectrum(quantize_torus(ptilde, BasisSpec("torus-fourier", K, h)))
        win = ComplexWindow.from_bounds(-0.33, 0.33, -0.33, 0.33, (8, 8))
        lat = BSLattice(action_map_integrable(ptilde), h, win, theta0=(0.0, 0.0))
        preds, unresolved = bs_predict(lat)
        assert not unresolved
        sw = s.in_window(win)
        sw = sw[np.lexsort((sw.imag, sw.real))]
        assert preds.size == sw.size
        assert np.max(np.abs(preds - sw)) <= 1e-10


class TestPerturb:
    def test_delta_zero_identity(self):
        basis = BasisSpec("hermite-tensor", 6, 0.1)
        P = quantize_quadratic(cho(1.0, 0.0), basis)
        assert perturb(P, 0.0, 3) is P

    def test_deterministic_given_seed(self):
        basis = BasisSpec("hermite-tensor", 6, 0.1)
        P = quantize_quadratic(cho(1.0, 0.0), basis)
        a = perturb(P, 1e-3, 42).toarray()
        b = perturb(P, 1e-3, 42).toarray()
        assert np.array_equal(a, b)
        c = perturb(P, 1e-3, 43).toarray()
        assert not np.array_equal(a, c)

    def test_frobenius_concentration(self):
        # ||Q/sqrt(dim)||_F concentrates near 1 for dim >= 400
        dim = 400
        vals = []
        for seed in range(10):
            Q = gaussian_perturbation(dim, seed)
            vals.append(np.linalg.norm(Q, "fro") / np.sqrt(dim))
        vals = np.array(vals)
        assert np.all(np.abs(vals - 1.0) <= 0.05)

    def test_jordan_block_splitting_scale(self):
        # 2x2 nilpotent block: eigenvalues split like sqrt(delta)
        delta = 1e-6
        basis = BasisSpec("hermite-tensor", 2, 0.1, n=1)
        J = OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex), basis)
        Pd = perturb(J, delta, 7)
        ev = np.linalg.eigvals(Pd.toarray())
        a, b, c, d = Pd.toarray()[0, 0], Pd.toarray()[0, 1], Pd.toarray()[1, 0], Pd.toarray()[1, 1]
        want = eig2x2(a, b, c, d)
        assert np.max(np.abs(np.sort_complex(ev)
                             - np.sort_complex(np.array(want)))) <= 1e-12
        split = np.max(np.abs(ev))
        assert 0.05 * np.sqrt(delta) <= split <= 20 * np.sqrt(delta)


    @pytest.mark.parametrize("dim,seed", [(36, 0), (576, 7)])
    def test_in_place_matches_reference_bitwise(self, dim, seed):
        ref = gaussian_perturbation_reference(dim, seed)
        Q = gaussian_perturbation(dim, seed)
        assert np.array_equal(Q.view(np.uint64), ref.view(np.uint64))
        N = int(round(np.sqrt(dim)))
        P = quantize_quadratic(cho(1.0, 0.0), BasisSpec("hermite-tensor", N, 0.1))
        got = perturb(P, 1e-4, seed).toarray()
        assert np.array_equal(got.view(np.uint64), (P.toarray() + 1e-4 * ref).view(np.uint64))


    def test_nested_and_dense_based_draws_match_the_reference_bitwise(self):
        # a draw on an operator given as a dense array (the Jordan block's case)
        # holds bitwise what adding it to the dense P gives, in either order;
        # every build is a new writeable array, drawn again.  A second draw is
        # refused: it has the law of one draw at the hypot of the two deltas
        P = p_t_operator(24)
        Q = {seed: gaussian_perturbation_reference(P.dim, seed) for seed in (2, 3)}
        drawn = perturb(P, 1e-4, 3)
        assert drawn.draw == (1e-4, 3)
        assert np.shares_memory(drawn.matrix.data, P.matrix.data)  # P's nonzeros, not a copy
        with pytest.raises(ValueError, match="hypot"):
            perturb(drawn, 1e-3, 5)
        want = P.toarray() + 1e-4 * Q[3]
        F = drawn.toarray("F")
        assert F.flags.f_contiguous and F.flags.writeable
        for got in (drawn.toarray(), np.ascontiguousarray(F)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        D = OperatorMatrix(P.toarray(), P.basis)
        got = perturb(D, 1e-3, 2).toarray()
        assert np.array_equal(got.view(np.uint64), (D.toarray() + 1e-3 * Q[2]).view(np.uint64))
        J = np.array([[0, 1], [0, 0]], dtype=complex)
        got = perturb(OperatorMatrix(J, BasisSpec("hermite-tensor", 2, 0.1, n=1)), 1e-6,
                      7).toarray()
        want = J + 1e-6 * gaussian_perturbation_reference(2, 7)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        a, b = drawn.toarray(), drawn.toarray()
        assert a is not b and a.flags.writeable and np.array_equal(a, b)

    def test_perturbed_operator_holds_no_dense_matrix(self, p_t_1600):
        Pd = perturb(p_t_1600, 1e-4, 0)
        held = [v for o in (Pd, Pd.matrix) for v in getattr(o, "__dict__", {}).values()
                if isinstance(v, np.ndarray)]
        assert held and max(a.size for a in held) < Pd.dim ** 2

    @pytest.mark.parametrize("delta,seed,match", [(np.inf, 0, "finite"), (np.nan, 0, "finite"),
                                                  (-1e-4, 0, ">= 0"), (1e-4, -1, "seed")])
    def test_bad_draw_rejected_before_any_solve(self, delta, seed, match):
        P = p_t_operator(6)
        with pytest.raises(ValueError, match=match):
            perturb(P, delta, seed)


class TestSpectrum:
    def test_diagonal_matrix(self):
        basis = BasisSpec("torus-fourier", 1, 0.1)
        d = np.array([1 + 1j, 2 - 1j, 0.5, -3j, 0, 1, 2, 3, 4], dtype=complex)
        M = OperatorMatrix(np.diag(d), basis)
        s = spectrum(M)
        assert np.allclose(np.sort_complex(s.eigenvalues), np.sort_complex(d),
                           atol=1e-12)

    def test_sorted_by_column(self):
        basis = BasisSpec("hermite-tensor", 4, 0.1)
        s = spectrum(quantize_quadratic(cho(1.0, 0.0), basis))
        ev = s.eigenvalues
        assert np.array_equal(ev, column_order_reference(ev, ORDER_TOL))

    def test_last_bit_noise_keeps_the_lattice_order(self):
        # a 21 x 21 lattice in its (column, imag) order, each point moved by
        # about 1e-13, on a shuffled diagonal: both the full spectrum and a
        # shift-invert window come back in the lattice's order
        rng = np.random.default_rng(3)
        lat = harmonic_lattice(0.05, 21)
        lat = lat[np.lexsort((lat.imag, lat.real))]
        noisy = lat + 1e-13 * (rng.standard_normal(441) + 1j * rng.standard_normal(441))
        shuffle = rng.permutation(441)
        M = OperatorMatrix(sparse.diags(noisy[shuffle], format="csr"),
                           BasisSpec("torus-fourier", 10, 0.05))
        s = spectrum(M)
        win = (0.2, 0.45, 0.2, 0.45)
        got = s.in_window(win)
        assert s.solves[0]["method"] == "shift-invert"
        want = noisy[(noisy.real > 0.2) & (noisy.real < 0.45)
                     & (noisy.imag > 0.2) & (noisy.imag < 0.45)]
        assert got.size == want.size == 25
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(spectrum(M).eigenvalues, noisy)

    def test_dimension_cap(self):
        basis = BasisSpec("hermite-tensor", 70, 0.05)
        P = OperatorMatrix(np.eye(70 ** 2, dtype=complex), basis)
        with pytest.raises(EigensolveError, match="exceeds cap 4096"):
            spectrum(P)

    def test_perturbation_continuity(self):
        # eigenvalues of P_delta approach those of P as delta -> 0
        h, N = 0.1, 20
        basis = BasisSpec("hermite-tensor", N, h)
        P = quantize_quadratic(cho(1.0, 0.0), basis)
        s0 = spectrum(P)
        sd = spectrum(perturb(P, 1e-12, 5), delta=1e-12, seed=5)
        d1 = np.abs(s0.eigenvalues[:, None] - sd.eigenvalues[None, :]).min(axis=1).max()
        d2 = np.abs(sd.eigenvalues[:, None] - s0.eigenvalues[None, :]).min(axis=1).max()
        assert max(d1, d2) <= s0.residual_bound


class TestExactSpectrumOracle:
    def test_cho_hamilton_eigenvalues(self):
        mus_spec = quadratic_exact_spectrum(cho(1.0, 0.0), 0.1, 6)
        want = harmonic_lattice(0.1, 6)
        want = want[np.lexsort((want.imag, want.real))]
        assert np.max(np.abs(mus_spec - want)) <= 1e-12

    def test_invariance_under_linear_canonical_map(self):
        # q and q o kappa_t have similar Hamilton matrices: same spectrum
        q = cho(1.0, 0.0)
        qt = deformed_quadratic(
            DeformedSymbol(q, Deformation((coupling_xx(),)), 0.25))
        a = quadratic_exact_spectrum(q, 0.05, 8)
        b = quadratic_exact_spectrum(qt, 0.05, 8)
        hausdorff = max(np.abs(a[:, None] - b[None, :]).min(axis=1).max(),
                        np.abs(b[:, None] - a[None, :]).min(axis=1).max())
        assert hausdorff <= 1e-10

    def test_scaling_homogeneity(self):
        a = quadratic_exact_spectrum(cho(1.0, 0.0), 0.1, 5)
        b = quadratic_exact_spectrum(2.5 * cho(1.0, 0.0), 0.1, 5)
        assert np.max(np.abs(2.5 * a - b)) <= 1e-12

    def test_nonelliptic_rejected(self):
        q = SymbolExpr.monomial(1.0, (1, 0), (0, 0)) * \
            SymbolExpr.monomial(1.0, (0, 0), (1, 0))  # x1 xi1, vanishes widely
        with pytest.raises(QuantizationError):
            quadratic_exact_spectrum(q, 0.1, 4)

    def test_hamilton_matrix_oscillator(self):
        F = hamilton_matrix(osc_1d_in_2d())
        lam = np.sort_complex(np.linalg.eigvals(F))
        # factor-1 oscillator gives +-i; factor 2 is absent (zero block)
        assert np.allclose(sorted(lam, key=abs)[:2], [0, 0], atol=1e-12)


class TestBSPredict:
    def test_torus_linear_lattice(self):
        am = action_map_integrable(torus_linear())
        win = ComplexWindow.from_bounds(-0.26, 0.26, -0.26, 0.26, (8, 8))
        lat = BSLattice(am, 0.1, win, theta0=(0.0, 0.0))
        pts, unresolved = bs_predict(lat)
        assert not unresolved
        ks = np.arange(-2, 3)
        want = np.array([0.1 * a + 0.1j * b for a in ks for b in ks])
        want = want[np.lexsort((want.imag, want.real))]
        assert pts.size == want.size
        assert np.max(np.abs(pts - want)) <= 1e-12

    def test_cho_predictions_match_exact_spectrum(self):
        # theta0 = (1/2, 1/2) places predictions on h(k+1/2) + i h(k'+1/2)
        h = 0.05
        am = action_map_integrable(torus_linear())
        win = ComplexWindow.from_bounds(0.01, 0.51, 0.01, 0.51, (8, 8))
        lat = BSLattice(am, h, win, theta0=(0.5, 0.5))
        pts, unresolved = bs_predict(lat)
        assert not unresolved
        want = harmonic_lattice(h, 10)
        want = want[(want.real > 0.01) & (want.real < 0.51)
                    & (want.imag > 0.01) & (want.imag < 0.51)]
        want = want[np.lexsort((want.imag, want.real))]
        assert pts.size == want.size
        assert np.max(np.abs(pts - want)) <= 1e-10

    def test_points_are_ptilde_at_the_action_lattice(self):
        # I(z) = 2 pi h (k - theta) holds at z = ptilde(h (k - theta) - I0 / 2 pi)
        h, theta, I0 = 0.05, np.array([0.3, 0.7]), np.array([0.1, -0.2])
        am = action_map_integrable(torus_coupled(0.3), I0=tuple(I0))
        win = ComplexWindow.from_bounds(-0.5, 0.5, -0.5, 0.5, (8, 8))
        pts, unresolved = bs_predict(BSLattice(am, h, win, theta0=tuple(theta)))
        assert not unresolved
        ks = np.stack(np.meshgrid(np.arange(-40, 41), np.arange(-40, 41)), -1).reshape(-1, 2)
        eta = h * (ks - theta) - I0 / (2 * np.pi)
        want = am.ptilde.evaluate(np.zeros_like(eta), eta)
        want = want[win.contains(want)]
        want = want[np.lexsort((want.imag, want.real))]
        assert pts.size == want.size > 300
        assert np.array_equal(pts, want)

    def test_half_h_quadruples_count(self):
        # boundary cells bias small windows; at this size the lattice
        # area term dominates and the ratio sits within 10% of 4
        am = action_map_integrable(torus_coupled(0.3))
        win = ComplexWindow.from_bounds(-0.7, 0.7, -0.7, 0.7, (8, 8))
        n_counts = {}
        for h in (0.1, 0.05):
            pts, _ = bs_predict(BSLattice(am, h, win, theta0=(0.0, 0.0)))
            n_counts[h] = pts.size
        ratio = n_counts[0.05] / n_counts[0.1]
        assert abs(ratio - 4.0) <= 0.4

    def test_lattice_invariant(self):
        # predicted points satisfy I(z)/(2 pi h) + theta in Z^2
        am = action_map_integrable(torus_coupled(0.3))
        win = ComplexWindow.from_bounds(-0.3, 0.3, -0.3, 0.3, (8, 8))
        lat = BSLattice(am, 0.07, win, theta0=(0.5, 0.5))
        pts, _ = bs_predict(lat)
        I, _ = am.actions_and_jacobian(pts)
        frac = I / (2 * np.pi * 0.07) + lat.theta()
        assert np.max(np.abs(frac - np.round(frac))) <= 1e-10


class TestCountAndCompare:
    def test_unperturbed_cho_count_matches_omega_exactly(self):
        # N = 24 keeps the corrupted top Hermite slice (at h(N-1)/2 =
        # 0.575) outside the count window
        h, N = 0.05, 24
        basis = BasisSpec("hermite-tensor", N, h)
        s = spectrum(quantize_quadratic(cho(1.0, 0.0), basis))
        # rectangle with edges on h-integers avoids the lattice and makes
        # the rounded omega integral exact
        win = ComplexWindow.from_bounds(0.2, 0.5, 0.25, 0.45, (4, 4))
        am = action_map_integrable(torus_linear())
        rep = count_and_compare(s, win, omega_grid=omega_density(am, win))
        assert rep.count == int(round(rep.omega_prediction))
        assert rep.count == 6 * 4
        assert not rep.flagged_unsafe

    def test_integrable_predictions_agree(self):
        h, K = 0.1, 4
        ptilde = torus_coupled(0.3)
        s = spectrum(quantize_torus(ptilde, BasisSpec("torus-fourier", K, h)))
        win = ComplexWindow.from_bounds(-0.3, 0.3, -0.3, 0.3, (16, 16))
        am = action_map_integrable(ptilde)
        o_grid = omega_density(am, win)
        from bsweyl.density import weyl_density_torus
        w_grid = weyl_density_torus(ptilde, win, ((-0.5, 0.5), (-0.5, 0.5)),
                                    samples=2_000_000, seed=8)
        rep = count_and_compare(s, win, omega_grid=o_grid, weyl_volume=w_grid.total_mass)
        assert rep.omega_prediction == pytest.approx(rep.weyl_prediction, rel=0.02)

    def test_unsafe_window_flagged(self):
        h, N = 0.1, 10
        basis = BasisSpec("hermite-tensor", N, h)
        s = spectrum(quantize_quadratic(cho(1.0, 0.0), basis))
        win = ComplexWindow.from_bounds(0.0, 2.0, 0.0, 2.0, (4, 4))
        rep = count_and_compare(s, win)
        assert rep.flagged_unsafe

    def test_weyl_scaling_improves_with_h(self):
        # N(W;h) (2 pi h)^2 / int omega -> 1 through h = 0.1, 0.07, 0.05
        ptilde = torus_coupled(0.3)
        am = action_map_integrable(ptilde)
        win = ComplexWindow.from_bounds(-0.285, 0.285, -0.285, 0.285, (8, 8))
        o_grid = omega_density(am, win)
        devs = []
        for h in (0.1, 0.07, 0.05):
            K = int(np.ceil(0.45 / h))
            s = spectrum(quantize_torus(ptilde, BasisSpec("torus-fourier", K, h)))
            rep = count_and_compare(s, win, omega_grid=o_grid)
            devs.append(abs(rep.count * (2 * np.pi * h) ** 2
                            / o_grid.total_mass - 1.0))
        assert devs[0] >= devs[1] >= devs[2]


class TestSpectrumInvarianceUnderDeformation:
    def test_deformed_spectrum_matches_base_in_safe_region(self):
        h, N, t = 0.05, 40, 0.2
        basis = BasisSpec("hermite-tensor", N, h)
        p_t = deformed_quadratic(
            DeformedSymbol(cho(1.0, 0.0), Deformation((coupling_xx(),)), t))
        s_t = spectrum(quantize_quadratic(p_t, basis))
        region = (0.0, 0.85, 0.0, 0.85)
        ev = s_t.in_window(region)
        lat = harmonic_lattice(h, N)
        lat = lat[(lat.real < 0.85) & (lat.imag < 0.85)]
        assert ev.size == lat.size
        dist = np.abs(ev[:, None] - lat[None, :]).min(axis=1)
        assert np.max(dist) <= 1e-6


class TestParityBlocks:
    def test_split_equals_full_solve_and_exact_spectrum(self):
        h, N = 0.05, 24
        P = p_t_operator(N, h)
        s = spectrum(P)
        ev = s.eigenvalues
        assert [r["method"] for r in s.solves] == ["dense-blocks"]
        assert s.solves[0]["blocks"] == [N * N // 2] * 2
        # compare inside the truncation-clean region 0.42 N h
        win = (0.0, 0.42 * N * h, 0.0, 0.42 * N * h)
        full = dense_in_window(P.toarray(), win)
        inside = s.in_window(win)
        q = deformed_quadratic(
            DeformedSymbol(cho(1.0, 0.0), Deformation((coupling_xx(),)), 0.2))
        exact = quadratic_exact_spectrum(q, h, N)
        exact = exact[(exact.real > 0) & (exact.real < win[1])
                      & (exact.imag > 0) & (exact.imag < win[3])]
        assert inside.size == full.size == exact.size == 100
        assert hausdorff(inside, full) <= 1e-10
        assert hausdorff(inside, exact) <= 1e-9
        assert ev.size == P.dim
        assert np.array_equal(ev, column_order_reference(ev, ORDER_TOL))

    def test_linear_term_is_not_split(self):
        q = deformed_quadratic(
            DeformedSymbol(cho(1.0, 0.0), Deformation((coupling_xx(),)), 0.2))
        P = quantize_quadratic(q + SymbolExpr.monomial(1.0, (1, 0), (0, 0)),
                               BasisSpec("hermite-tensor", 12, 0.05))
        assert parity_blocks(P) == [None]
        s = spectrum(P)
        s.eigenvalues
        assert s.solves[0]["method"] == "dense" and s.solves[0]["blocks"] == [144]

    def test_perturbed_and_torus_operators_are_one_block(self):
        P = p_t_operator(12)
        assert len(parity_blocks(P)) == 2
        assert parity_blocks(perturb(P, 1e-12, 0)) == [None]
        assert parity_blocks(quantize_torus(torus_linear(),
                                            BasisSpec("torus-fourier", 3, 0.1))) == [None]


def odd_symbol():
    """p_t plus every monomial of degree <= 1 with a small random complex coefficient."""
    rng = np.random.default_rng(4)
    exps = [e for e in itertools.product(range(2), repeat=4) if sum(e) <= 1]
    return sum((SymbolExpr.monomial(complex(*rng.uniform(-0.05, 0.05, 2)), e[:2], e[2:])
                for e in exps), p_t_symbol())


class TestSparseOperators:
    def test_c7_operator_is_held_sparse(self):
        # p_t at C7's N = 60 (dim 3600): a dense copy alone would be 207 MB
        q, basis = p_t_symbol(), BasisSpec("hermite-tensor", 60, 0.05)
        tracemalloc.start()
        try:
            P = quantize_quadratic(q, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sparse.issparse(P.matrix) and P.matrix.format == "csr"
        assert 8.5 <= P.matrix.nnz / P.dim <= 9.0
        assert peak < 30e6
        assert len(parity_blocks(P)) == 2

    def test_sparse_matrix_is_checked_canonical_and_frozen(self):
        basis = BasisSpec("hermite-tensor", 2, 0.1, n=1)
        with pytest.raises(ValueError, match="non-finite"):
            OperatorMatrix(sparse.csr_matrix(np.array([[np.nan, 0], [0, 1]])), basis)
        # a duplicate (0, 0) entry is summed; an explicit zero off the parity
        # blocks does not couple them
        M = sparse.csr_matrix(([1.0, 2.0, 0.0, 3.0], ([0, 0, 0, 1], [0, 0, 1, 1])), shape=(2, 2))
        P = OperatorMatrix(M, basis)
        assert P.matrix.has_canonical_format and P.matrix.dtype == complex
        assert np.array_equal(P.toarray(), np.diag([3.0, 3.0]))
        assert not any(a.flags.writeable for a in (P.matrix.data, P.matrix.indices,
                                                    P.matrix.indptr))
        assert len(parity_blocks(P)) == 2

    def test_dense_input_is_stored_as_csr(self):
        # a dense array is converted once: canonical, frozen CSR of its nonzeros,
        # read back bitwise; it is checked square and finite as it is converted
        basis = BasisSpec("hermite-tensor", 24, 0.05)
        want = quantize_quadratic(odd_symbol(), basis).toarray()
        D = OperatorMatrix(want, basis)
        assert D.matrix.format == "csr" and D.matrix.has_canonical_format
        assert D.matrix.nnz == np.count_nonzero(want)
        assert not any(a.flags.writeable for a in (D.matrix.data, D.matrix.indices,
                                                    D.matrix.indptr))
        assert np.array_equal(D.toarray().view(np.uint64), want.view(np.uint64))
        assert parity_blocks(D) == [None]
        with pytest.raises(ValueError, match="square"):
            OperatorMatrix(want[:, :-1], basis)
        with pytest.raises(ValueError, match="non-finite"):
            OperatorMatrix(np.where(want == want[0, 0], np.inf, want), basis)


@pytest.fixture(scope="module")
def p_t_1600():
    return p_t_operator(40)


class TestWindowedSpectrum:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_at_dim_1600(self, p_t_1600, seed):
        Pd = perturb(p_t_1600, 1e-4, seed)
        s = spectrum(Pd, delta=1e-4, seed=seed)
        got = s.in_window(COUNT_WINDOW)
        (rec,) = s.solves
        assert rec["method"] == "shift-invert" and rec["blocks"] == [1600]
        assert rec["fallback"] is None and rec["passes"] == [1]
        want = dense_in_window(Pd.toarray(), COUNT_WINDOW)
        assert got.size == want.size == 24
        assert hausdorff(got, want) <= 1e-10
        assert np.array_equal(got, column_order_reference(got, ORDER_TOL))

    def test_perturbed_count_holds_one_dense_matrix(self, p_t_1600):
        # the draw goes into the array that the shift-invert solve factors in
        # place: the count's traced peak stays below 1.3 dense copies
        tracemalloc.start()
        try:
            got = spectrum(perturb(p_t_1600, 1e-4, 0)).in_window(COUNT_WINDOW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.size == 24
        assert peak < 1.3 * 16 * p_t_1600.dim ** 2

    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    def test_k_is_sized_from_the_unperturbed_diagonal(self, p_t_1600, seed):
        # spectral-lattice's perturbed counts: k comes from P's diagonal before
        # anything is drawn, and is the k that the drawn diagonal gives; the
        # count and its record are the ones of P + delta Q held as its matrix
        Pd = perturb(p_t_1600, 1e-4, seed)
        drawn, held = spectrum(Pd), spectrum(OperatorMatrix(Pd.toarray(), Pd.basis))
        a, b = drawn.in_window(COUNT_WINDOW), held.in_window(COUNT_WINDOW)
        assert a.size == 24 and np.array_equal(a.view(np.uint64), b.view(np.uint64))
        keys = ("method", "blocks", "k", "passes", "fallback")
        assert [[r[k] for k in keys] for r in drawn.solves] == [[r[k] for k in keys]
                                                                for r in held.solves]
        assert [r["k"] for r in drawn.solves] == [[49]]

    def test_large_window_takes_dense_fallback(self):
        Pd = perturb(p_t_operator(24), 1e-4, 3)
        win = (0.0, 0.85, 0.0, 0.85)
        s = spectrum(Pd)
        got = s.in_window(win)
        (rec,) = s.solves
        assert rec["method"] == "dense" and rec["k"] == [None]
        assert rec["fallback"].startswith("k ") and "dim/8 = 72" in rec["fallback"]
        want = spectrum(Pd).eigenvalues
        assert np.array_equal(got, want[(want.real > 0) & (want.real < 0.85)
                                        & (want.imag > 0) & (want.imag < 0.85)])
        # the fallback solve is the cached full spectrum: no second solve
        assert np.array_equal(s.eigenvalues, want)
        assert np.array_equal(s.in_window(COUNT_WINDOW), got[
            (got.real > 0.2) & (got.real < 0.5) & (got.imag > 0.25) & (got.imag < 0.45)])
        assert len(s.solves) == 1

    def test_two_calls_bitwise_equal(self):
        Pd = perturb(p_t_operator(24), 1e-4, 5)
        s = spectrum(Pd)
        a = s.in_window(COUNT_WINDOW)
        b = s.in_window(COUNT_WINDOW)
        c = spectrum(Pd).in_window(COUNT_WINDOW)
        assert [r["method"] for r in s.solves] == ["shift-invert"] * 2
        assert a.size > 0
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert np.array_equal(a.view(np.uint64), c.view(np.uint64))
        assert hausdorff(a, dense_in_window(Pd.toarray(), COUNT_WINDOW)) <= 1e-10

    def test_parity_blocks_solved_by_shift_invert(self, p_t_1600):
        s = spectrum(p_t_1600)
        got = s.in_window(COUNT_WINDOW)
        (rec,) = s.solves
        assert rec["method"] == "shift-invert" and rec["blocks"] == [800, 800]
        lat = harmonic_lattice(0.05, 40)
        lat = lat[(lat.real > 0.2) & (lat.real < 0.5) & (lat.imag > 0.25) & (lat.imag < 0.45)]
        assert got.size == lat.size == 24
        assert hausdorff(got, lat) <= 1e-10

    def test_guard_grows_k_until_the_disc_is_covered(self):
        # a normal U D U^H with D a 20 x 20 lattice: its diagonal crowds near
        # the lattice's mean, so the first k misses the corner window's 25
        rng = np.random.default_rng(0)
        U, R = np.linalg.qr(rng.standard_normal((400, 400))
                            + 1j * rng.standard_normal((400, 400)))
        U = U * (np.diagonal(R) / np.abs(np.diagonal(R)))
        d = harmonic_lattice(0.05, 20) - 0.025 * (1 + 1j)
        win = (-0.025, 0.225, -0.025, 0.225)
        s = spectrum(OperatorMatrix((U * d) @ U.conj().T, BasisSpec("hermite-tensor", 20, 0.05)))
        got = s.in_window(win)
        (rec,) = s.solves
        assert rec["method"] == "shift-invert" and rec["fallback"] is None
        assert rec["passes"][0] >= 2
        want = d[(d.real > -0.025) & (d.real < 0.225) & (d.imag > -0.025) & (d.imag < 0.225)]
        assert got.size == want.size == 25
        assert hausdorff(got, want) <= 1e-10

    def test_c5_and_c6_windows_take_no_rejected_pass(self, p_t_1600):
        # each parity block's diagonal holds more than dim/8 of the window's
        # eigenvalues, so it goes to its dense solve without a pass
        c5 = spectrum(quantize_quadratic(cho(1.0, 0.0), BasisSpec("hermite-tensor", 60, 0.05)))
        c6 = spectrum(p_t_1600)
        c5.in_window((0.0, 1.5, 0.0, 1.5))
        assert c6.in_window((0.0, 0.85, 0.0, 0.85)).size == 289
        for s in (c5, c6):
            (rec,) = s.solves
            assert rec["method"] == "dense-blocks" and rec["passes"] == [0, 0]

    def test_dense_fallback_makes_each_block_dense_once(self, p_t_1600, monkeypatch):
        # the first k comes from the sparse operator's diagonal, so a block that
        # goes straight to its dense solve is made dense for that solve only
        sizes = []
        block = quantize.SpectrumResult._block

        def recording(self, idx):
            sizes.append(idx.size)
            return block(self, idx)

        monkeypatch.setattr(quantize.SpectrumResult, "_block", recording)
        win = (0.0, 0.85, 0.0, 0.85)
        s = spectrum(p_t_1600)
        got = s.in_window(win)
        assert sizes == [800, 800]
        (rec,) = s.solves
        assert (rec["method"], rec["k"], rec["passes"]) == ("dense-blocks", [None, None], [0, 0])
        assert rec["fallback"] == "k 249 > dim/8 = 100; k 248 > dim/8 = 100"
        full = s.eigenvalues
        assert len(s.solves) == 1 and sizes == [800, 800]
        assert np.array_equal(got, full[(full.real > 0) & (full.real < 0.85)
                                        & (full.imag > 0) & (full.imag < 0.85)])

    def test_c5_report_shows_the_region_count_against_the_lattice(self):
        # at N = 40 the region (0, 1.5)^2 holds 961 eigenvalues against 900
        # lattice points: the truncated top Hermite level adds eigenvalues
        # that sit on lattice points, so the lattice gate still passes
        rep = run_bs_exactness(BSExactnessConfig(h=0.05, basis_size=40))
        assert (rep["region_count"], rep["region_lattice_points"]) == (961, 900)
        assert rep["max_lattice_distance"] <= 1e-6 and rep["pass"]

    def test_singular_shift_takes_dense_fallback(self):
        d = 0.1 * np.arange(441) + 0j
        M = OperatorMatrix(np.diag(d), BasisSpec("torus-fourier", 10, 0.1))
        win = ComplexWindow.from_bounds(19.55, 20.45, -0.5, 0.5, (4, 4))
        assert win.center == d[200]
        s = spectrum(M)
        got = s.in_window(win)
        assert s.solves[0]["fallback"] == "singular LU"
        assert np.array_equal(got, d[196:205])

    def test_arpack_failure_takes_dense_fallback(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.array([]), np.array([]))

        monkeypatch.setattr("scipy.sparse.linalg.eigs", fail)  # where _shift_invert looks it up
        Pd = perturb(p_t_operator(24), 1e-4, 1)
        s = spectrum(Pd)
        got = s.in_window(COUNT_WINDOW)
        assert s.solves[0]["method"] == "dense"
        assert s.solves[0]["fallback"].startswith("ARPACK:")
        assert np.array_equal(got, spectrum(Pd).in_window((0.2, 0.5, 0.25, 0.45)))

    def test_csv_is_the_csv_module_file(self, tmp_path):
        s = spectrum(perturb(p_t_operator(6), 1e-4, 0))
        s.write_csv(tmp_path / "got.csv")
        csv_reference(tmp_path / "want.csv", ["re", "im"], [(z.real, z.imag) for z in s.eigenvalues])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_meta_carries_solver_records(self, tmp_path):
        s = spectrum(p_t_operator(12))
        s.write_csv(tmp_path / "s.csv")
        s.write_meta(tmp_path / "m.json")
        meta = json.loads((tmp_path / "m.json").read_text())
        assert meta["count"] == 144
        assert meta["solves"][0]["method"] == "dense-blocks"
        assert meta["solves"][0]["blocks"] == [72, 72]
        assert meta["solves"][0]["blas_threads"] == (1 if quantize._openblas_threads() else None)
        assert meta["solves"][0]["seconds"] >= 0
        one = spectrum(perturb(p_t_operator(12), 1e-4, 0))
        one.eigenvalues
        one.in_window(COUNT_WINDOW)
        assert [r["blas_threads"] for r in one.solves] == [None]


@pytest.fixture
def pinnable():
    """numpy's OpenBLAS thread control at 2 threads for one test, or a skip.

    The count is set to 2 and restored afterwards, so a solve that forgot
    to restore its one-thread pin shows as 1.
    """
    control = quantize._openblas_threads()
    if control is None or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs numpy's bundled OpenBLAS and two CPUs")
    get, set_ = control
    before = get()
    set_(2)
    yield get
    set_(before)


# Rebuilds p_t_operator(40) and prints its full spectrum's bytes as hex.
_SPECTRUM_BYTES = """
from bsweyl import quantize
from bsweyl.flow import Deformation, DeformedSymbol, deformed_quadratic
from bsweyl.symbols import cho, coupling_xx
assert quantize._openblas_threads.cache_info().currsize == 0  # no lookup at import
q = deformed_quadratic(DeformedSymbol(cho(1.0, 0.0), Deformation((coupling_xx(),)), 0.2))
P = quantize.quantize_quadratic(q, quantize.BasisSpec("hermite-tensor", 40, 0.05))
print(quantize.spectrum(P).eigenvalues.tobytes().hex())
"""


class TestPinnedBlockSolves:
    def test_dense_blocks_bitwise_equal_across_blas_thread_settings(self):
        if quantize._openblas_threads() is None:
            pytest.skip("numpy has no bundled OpenBLAS: multi-block solves run serially")
        parent = os.path.dirname(os.path.dirname(os.path.abspath(quantize.__file__)))
        path = os.pathsep.join(p for p in (parent, os.environ.get("PYTHONPATH")) if p)
        out = [subprocess.run([sys.executable, "-c", _SPECTRUM_BYTES], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=t))
               .stdout.strip() for t in ("1", "2")]
        assert len(out[0]) == 2 * 1600 * 16
        assert out[0] == out[1]

    def test_failed_worker_block_propagates_and_caches_nothing(self, pinnable, monkeypatch):
        caller = threading.get_ident()
        solve = quantize._dense_eigvals

        def fail_off_caller(A):
            if threading.get_ident() != caller:
                raise EigensolveError("worker block failed")
            return solve(A)

        monkeypatch.setattr(quantize, "_dense_eigvals", fail_off_caller)
        P = p_t_operator(12)
        for ask in (lambda s: s.eigenvalues, lambda s: s.in_window((0.0, 0.85, 0.0, 0.85))):
            s = spectrum(P)
            with pytest.raises(EigensolveError, match="worker block failed"):
                ask(s)
            assert s._dense == {} and s.solves == []
            assert pinnable() == 2
        monkeypatch.setattr(quantize, "_dense_eigvals", solve)
        s = spectrum(P)
        assert s.in_window((0.0, 0.85, 0.0, 0.85)).size > 0
        assert s.solves[0]["blas_threads"] == 1 and s.solves[0]["passes"] == [0, 0]
        assert pinnable() == 2

    def test_without_thread_control_blocks_solve_serially(self, monkeypatch):
        P = p_t_operator(24)
        pinned = spectrum(P).eigenvalues
        caller = threading.get_ident()
        threads = []
        solve = quantize._dense_eigvals

        def record_thread(A):
            threads.append(threading.get_ident())
            return solve(A)

        monkeypatch.setattr(quantize, "_openblas_threads", lambda: None)
        monkeypatch.setattr(quantize, "_dense_eigvals", record_thread)
        s = spectrum(P)
        serial = s.eigenvalues
        assert threads == [caller, caller]
        (rec,) = s.solves
        assert rec["method"] == "dense-blocks" and rec["blas_threads"] is None
        assert serial.size == pinned.size == P.dim
        assert hausdorff(serial, pinned) <= 1e-10
