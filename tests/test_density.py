import os
import sys
import threading
import warnings

import numpy as np
import pytest

from bsweyl import density, flow
from bsweyl.audit import audit
from bsweyl.cli import main
from bsweyl.density import (ActionMap, ComplexWindow,
                            EmptyGridError, SingularActionMapError,
                            action_map_integrable, ellipticity_margin_check,
                            omega_density, preimage_volume, weyl_density,
                            weyl_density_torus)
from bsweyl.flow import Deformation, DeformedSymbol, StepSizeUnderflowError
from bsweyl.symbols import (DimensionMismatchError, SymbolExpr, cho,
                            coupling_xx, sin_x1_cos_xi2, torus_coupled,
                            torus_linear)
from bsweyl.variation import TestFunction

from oracles import (bisection_invert_2d, histogram2d_bin, sampled_counts_reference,
                     torus_counts_reference, torus_quadrature_density,
                     unfiltered_sobol_values, unit_shards)

TWO_PI_SQ = (2 * np.pi) ** 2


def sin_x1(tube_radius=8.0):
    """The flow generator sin(x1) = (e^{i x1} - e^{-i x1}) / 2i."""
    return (SymbolExpr.monomial(-0.5j, (0, 0), (0, 0), tube_radius=tube_radius, xfreq=(1, 0))
            + SymbolExpr.monomial(0.5j, (0, 0), (0, 0), tube_radius=tube_radius,
                                  xfreq=(-1, 0)))


class TestWindow:
    def test_geometry(self):
        win = ComplexWindow.from_bounds(0.0, 1.0, -0.5, 0.5, (10, 20))
        assert win.center == pytest.approx(0.5 + 0j)
        assert win.area == pytest.approx(1.0)
        assert win.cell_area == pytest.approx(0.1 * 0.05)
        z = win.centers_complex()
        assert z.shape == (10, 20)
        assert np.all(win.contains(z))

    def test_distance_to_closed_rectangle(self):
        win = ComplexWindow.from_bounds(0.0, 1.0, 0.0, 2.0, (4, 4))
        z = np.array([0.5 + 1j, 1.0 + 2j, -3.0 + 1j, 1.5 - 1j, 4.0 + 6j, np.nan])
        d = win.distance(z)
        assert d[:5].tolist() == [0.0, 0.0, 3.0, np.hypot(0.5, 1.0), 5.0]
        assert np.isnan(d[5])

    def test_edges_built_once_and_read_only(self):
        win = ComplexWindow.from_bounds(0.0, 1.0, -0.5, 0.5, (10, 20))
        assert win.re_edges is win.re_edges and win.im_edges is win.im_edges
        assert win.re_edges.tolist() == np.linspace(0.0, 1.0, 11).tolist()
        assert win.im_edges.tolist() == np.linspace(-0.5, 0.5, 21).tolist()
        with pytest.raises(ValueError):
            win.re_edges[0] = 2.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ComplexWindow(0j, (0.0, 1.0))
        with pytest.raises(ValueError):
            ComplexWindow(0j, (1.0, 1.0), (1, 8))


class TestWeylDensity:
    def test_cho_pushforward_is_flat_two_pi_squared(self):
        # pushforward of dx dxi under the two harmonic actions is
        # (2 pi)^2 dr1 dr2, so w = (2 pi)^2 inside the image quadrant
        p = cho(1.0, complex(0.5, 0.5))
        win = ComplexWindow.from_bounds(0.0, 1.0, 0.0, 1.0, (16, 16))
        grid = weyl_density(p, win, box_radius=2.5, samples=4_000_000, seed=7)
        dev = np.abs(grid.values - TWO_PI_SQ)
        assert np.all(dev <= 3 * grid.stderr)
        assert grid.values.mean() == pytest.approx(TWO_PI_SQ, rel=0.01)

    def test_torus_linear_constant(self):
        win = ComplexWindow.from_bounds(-0.4, 0.4, -0.4, 0.4, (16, 16))
        grid = weyl_density_torus(torus_linear(), win,
                                  ((-0.6, 0.6), (-0.6, 0.6)),
                                  samples=2_000_000, seed=3)
        assert np.all(np.abs(grid.values - TWO_PI_SQ) <= 3 * grid.stderr)

    def test_identity_map_dimension_one(self):
        # p = xi + i x in one dimension pushes Lebesgue to Lebesgue: w = 1
        p = (SymbolExpr.monomial(1.0, (0,), (1,), n=1)
             + SymbolExpr.monomial(1j, (1,), (0,), n=1))
        win = ComplexWindow.from_bounds(-1.0, 1.0, -1.0, 1.0, (8, 8))
        grid = weyl_density(p, win, box_radius=2.0, samples=500_000, seed=1)
        assert np.all(np.abs(grid.values - 1.0) <= 3 * grid.stderr)

    def test_deformed_density_changes_near_image_edge(self):
        base = cho(1.0, 0.0)
        ps = DeformedSymbol(base, Deformation((coupling_xx(),)), 0.2)
        win = ComplexWindow.from_bounds(-0.15, 0.15, 0.6, 1.2, (6, 6))
        g0 = weyl_density(base, win, box_radius=3.0, samples=4_000_000, seed=4)
        gt = weyl_density(ps, win, box_radius=3.0, samples=4_000_000, seed=5)
        z = np.abs(gt.values - g0.values) / np.hypot(gt.stderr, g0.stderr)
        assert np.max(z) > 5.0

    def test_empty_window_raises(self):
        p = cho(1.0, 0.0)
        win = ComplexWindow.from_bounds(-9.0, -8.0, -9.0, -8.0, (4, 4))
        with pytest.raises(EmptyGridError):
            weyl_density(p, win, box_radius=2.0, samples=10_000, seed=0)

    def test_deterministic_given_seed(self):
        p = cho(1.0, complex(0.5, 0.5))
        win = ComplexWindow.from_bounds(0.0, 1.0, 0.0, 1.0, (8, 8))
        a = weyl_density(p, win, box_radius=2.5, samples=200_000, seed=11)
        b = weyl_density(p, win, box_radius=2.5, samples=200_000, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_mass_bookkeeping(self):
        # integrating the grid approximates the preimage volume of the window
        p = cho(1.0, complex(0.5, 0.5))
        win = ComplexWindow.from_bounds(0.0, 0.5, 0.0, 0.5, (8, 8))
        grid = weyl_density(p, win, box_radius=2.5, samples=2_000_000, seed=2)
        vol, err = preimage_volume(p, win, box_radius=2.5, samples=2_000_000,
                                   seed=12)
        assert grid.total_mass == pytest.approx(vol, abs=6 * err + 1e-9)


class TestBinning:
    WIN = ComplexWindow.from_bounds(-0.4, 0.4, -0.37, 0.41, (16, 12))

    def _points(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-0.5, 0.5, 200_000) + 1j * rng.uniform(-0.5, 0.5, 200_000)
        re, im = self.WIN.re_edges, self.WIN.im_edges
        on_edges = rng.choice(re, 1000) + 1j * rng.choice(im, 1000)  # interior and both ends
        closing = re[-1] + 1j * im[[0, 5, -1]]  # the closing right edge
        return np.concatenate([z, on_edges, closing, [np.nan + 0j]])

    def test_counts_equal_histogram2d(self):
        z = self._points()
        got = density._bin(z, self.WIN)
        assert got.dtype == np.int64
        assert np.array_equal(got, histogram2d_bin(z, self.WIN))
        assert got[-1, 0] >= 1 and got[-1, -1] >= 1

    @pytest.mark.parametrize("p, win, box", [
        (SymbolExpr.monomial(1.0, (0,), (1,), n=1) + SymbolExpr.monomial(1j, (1,), (0,), n=1)
         + SymbolExpr.monomial(0.3, (2,), (0,), n=1),
         ComplexWindow.from_bounds(-1.0, 1.0, -1.0, 1.0, (16, 16)), 2.0),
        (cho(1.0, complex(0.5, 0.5)), ComplexWindow.from_bounds(0.0, 1.0, 0.0, 1.0, (16, 16)),
         2.5),
    ], ids=["2d", "4d"])
    def test_iid_grid_unchanged_by_binning(self, p, win, box, monkeypatch):
        # iid samples do not depend on the binning: the grids must equal
        # the histogram2d ones bit for bit
        monkeypatch.setattr(density, "DEFAULT_SHARD", 1 << 19)
        got = weyl_density(p, win, box_radius=box, samples=1_500_000, seed=1,
                           sampler="random")
        monkeypatch.setattr(density, "_bin", histogram2d_bin)
        want = weyl_density(p, win, box_radius=box, samples=1_500_000, seed=1,
                            sampler="random")
        assert got.method == "monte-carlo"
        assert got.values.tobytes() == want.values.tobytes()
        assert got.stderr.tobytes() == want.stderr.tobytes()



class TestTorusQuadratureRoute:
    def test_mass_matches_jacobian_route(self):
        ptilde = torus_coupled(0.3)
        win = ComplexWindow.from_bounds(-0.3, 0.3, -0.3, 0.3, (8, 8))
        wq = torus_quadrature_density(ptilde, win, ((-0.5, 0.5), (-0.5, 0.5)), 1024)
        am = action_map_integrable(ptilde)
        go = omega_density(am, win)
        assert wq.sum() * win.cell_area == pytest.approx(go.total_mass, rel=2e-3)

    def test_rejects_angle_dependence(self):
        bad = SymbolExpr.monomial(1.0, (1, 0), (0, 0))
        win = ComplexWindow.from_bounds(-0.3, 0.3, -0.3, 0.3, (8, 8))
        with pytest.raises(ValueError):
            weyl_density_torus(bad, win, ((-0.5, 0.5), (-0.5, 0.5)),
                               samples=1000)

    def test_sheared_model_matches_jacobian_formula(self):
        # ptilde = (eta1 + 0.1 eta2^2) + i eta2 is a shear: the Jacobian
        # determinant is 1, so w = (2 pi)^2 pointwise
        ptilde = (SymbolExpr.monomial(1.0, (0, 0), (1, 0))
                  + SymbolExpr.monomial(0.1, (0, 0), (0, 2))
                  + SymbolExpr.monomial(1j, (0, 0), (0, 1)))
        win = ComplexWindow.from_bounds(-0.3, 0.3, -0.3, 0.3, (8, 8))
        grid = weyl_density_torus(ptilde, win, ((-0.5, 0.5), (-0.5, 0.5)),
                                  samples=4_000_000, seed=6)
        am = action_map_integrable(ptilde)
        want = omega_density(am, win).values
        assert np.allclose(want, TWO_PI_SQ, rtol=1e-12)
        assert np.max(np.abs(grid.values - want) / want) <= 0.02


class TestActionMap:
    def test_linear_model_closed_form(self):
        am = action_map_integrable(torus_linear(), I0=(0.0, 0.0))
        z = np.array([0.3 - 0.2j, -0.1 + 0.05j])
        I, dI = am.actions_and_jacobian(z)
        assert np.allclose(I, 2 * np.pi * np.stack([z.real, z.imag], axis=-1))
        assert np.allclose(dI, 2 * np.pi * np.eye(2))

    def test_coupled_model_matches_bisection_oracle(self):
        c = 0.3
        ptilde = torus_coupled(c)
        am = action_map_integrable(ptilde)
        z = 0.1 + 0.05j

        def fn(e1, e2):
            return complex(e1 + 1j * e2 + c * e1 * e2)

        eta_oracle = bisection_invert_2d(fn, z)
        eta, ok = am.eta_of_z(np.array([z]))
        assert ok.all()
        assert np.max(np.abs(eta[0] - eta_oracle)) <= 1e-8

    def test_harmonic_action_map_reproduces_lattice(self):
        # cho(1,0) torus normal form is the linear model with I0=0; the
        # BS route built on it is checked against the exact spectrum in
        # the quantize tests -- here just the action values
        am = action_map_integrable(torus_linear())
        I, _ = am.actions_and_jacobian(np.array([0.35 + 0.15j]))
        assert I[0] == pytest.approx([2 * np.pi * 0.35, 2 * np.pi * 0.15])

    def test_constant_sign_check(self):
        am = action_map_integrable(torus_coupled(0.3))
        win = ComplexWindow.from_bounds(-0.4, 0.4, -0.4, 0.4, (8, 8))
        assert am.constant_sign_at(*am.eta_of_z(win.centers_complex().ravel()))
        # fold model: eta1^2 changes orientation across eta1 = 0
        fold = (SymbolExpr.monomial(1.0, (0, 0), (2, 0))
                + SymbolExpr.monomial(1j, (0, 0), (0, 1)))
        am2 = action_map_integrable(fold)
        win2 = ComplexWindow.from_bounds(0.2, 0.6, -0.2, 0.2, (4, 4))
        # Newton from eta = (Re z, Im z) lands on the positive branch:
        # sign is constant there
        assert am2.constant_sign_at(*am2.eta_of_z(win2.centers_complex().ravel()))

    def test_singular_map_raises(self):
        # ptilde = eta1^2 + i eta2 has a fold at eta1 = 0: Newton from
        # points across the fold cannot converge for Re z < 0
        ptilde = (SymbolExpr.monomial(1.0, (0, 0), (2, 0))
                  + SymbolExpr.monomial(1j, (0, 0), (0, 1)))
        am = action_map_integrable(ptilde)
        with pytest.raises(SingularActionMapError):
            am.actions_and_jacobian(np.array([-0.5 + 0.1j]))


class TestNewton:
    def test_underdetermined_linear_system_one_step(self):
        # two equations in four unknowns: from u = 0 one step lands on the
        # minimum-norm solution A^+ b, and the next residual stops the loop
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 4))
        b = rng.standard_normal(2)
        calls = []

        def residual(u):
            calls.append(1)
            return u @ A.T - b, np.broadcast_to(A, u.shape[:-1] + A.shape)

        u, ok = density.newton_2xm(residual, np.zeros((1, 4)), 1e-12)
        assert ok.all() and len(calls) == 2
        assert np.max(np.abs(u[0] - np.linalg.pinv(A) @ b)) <= 1e-14


class TestOmegaDensity:
    def test_linear_model_flat(self):
        am = action_map_integrable(torus_linear())
        win = ComplexWindow.from_bounds(-0.4, 0.4, -0.4, 0.4, (16, 16))
        grid = omega_density(am, win)
        assert grid.method == "jacobian-formula"
        assert np.allclose(grid.values, TWO_PI_SQ, rtol=1e-12)
        assert np.all(grid.stderr == 0)

    def test_coupled_model_closed_form(self):
        c = 0.3
        am = action_map_integrable(torus_coupled(c))
        win = ComplexWindow.from_bounds(-0.4, 0.4, -0.4, 0.4, (8, 8))
        grid = omega_density(am, win)
        z = win.centers_complex()
        want = TWO_PI_SQ / np.abs(1 + c * z.imag)
        assert np.allclose(grid.values, want, rtol=1e-10)

    def test_positive_on_window(self):
        am = action_map_integrable(torus_coupled(0.3))
        win = ComplexWindow.from_bounds(-0.4, 0.4, -0.4, 0.4, (8, 8))
        assert np.all(omega_density(am, win).values > 0)

    def test_integrable_equality_cellwise(self):
        # the w = omega identity for the coupled model, at modest size
        ptilde = torus_coupled(0.3)
        win = ComplexWindow.from_bounds(-0.4, 0.4, -0.4, 0.4, (32, 32))
        w = weyl_density_torus(ptilde, win, ((-0.6, 0.6), (-0.6, 0.6)),
                               samples=2_000_000, seed=5)
        o = omega_density(action_map_integrable(ptilde), win)
        dev = np.abs(w.values - o.values)
        allow = np.maximum(3 * w.stderr, 0.03 * o.values)
        assert np.all(dev <= allow)


class TestPreimageVolume:
    def test_cho_rectangle_volume(self):
        # vol(p^{-1}([0,a]x[0,b])) = (2 pi)^2 a b in shifted coordinates
        p = cho(1.0, complex(0.5, 0.5))
        a, b = 0.6, 0.4
        win = ComplexWindow.from_bounds(0.0, a, 0.0, b)
        vol, err = preimage_volume(p, win, box_radius=2.5, samples=2_000_000, seed=3)
        assert abs(vol - TWO_PI_SQ * a * b) <= 3 * err

    def test_empty_window(self):
        p = cho(1.0, 0.0)
        win = ComplexWindow.from_bounds(-5.0, -4.0, -5.0, -4.0)
        vol, _ = preimage_volume(p, win, box_radius=2.0, samples=100_000, seed=0)
        assert vol == 0.0

    def test_additivity(self):
        p = cho(1.0, complex(0.5, 0.5))
        kw = dict(box_radius=2.5, samples=1_000_000)
        win = ComplexWindow.from_bounds
        v1, e1 = preimage_volume(p, win(0.0, 0.3, 0.0, 0.5), seed=21, **kw)
        v2, e2 = preimage_volume(p, win(0.3, 0.6, 0.0, 0.5), seed=22, **kw)
        v12, e12 = preimage_volume(p, win(0.0, 0.6, 0.0, 0.5), seed=23, **kw)
        assert abs(v12 - (v1 + v2)) <= 3 * np.hypot(e12, np.hypot(e1, e2))


class TestDimensionHandling:
    def test_weyl_density_any_dimension(self):
        # n = 1 works (checked above); n = 3 separable oscillator too
        terms = []
        for j in range(3):
            xp = [0, 0, 0]
            xip = [0, 0, 0]
            xp[j] = 2
            xip[j] = 2
            coeff = [1.0, 1j, 0.5 + 0.5j][j]
            terms.append(SymbolExpr.monomial(0.5 * coeff, xp, (0, 0, 0), n=3)
                         + SymbolExpr.monomial(0.5 * coeff, (0, 0, 0), xip, n=3))
        p3 = terms[0] + terms[1] + terms[2]
        win = ComplexWindow.from_bounds(0.5, 1.5, 0.5, 1.5, (4, 4))
        grid = weyl_density(p3, win, box_radius=2.0, samples=200_000, seed=9)
        assert grid.meta["n"] == 3
        assert grid.values.shape == (4, 4)

    def test_omega_side_requires_n_2(self):
        p1 = SymbolExpr.monomial(1.0, (0,), (1,), n=1)
        with pytest.raises(DimensionMismatchError):
            action_map_integrable(p1)


class TestEllipticityMargin:
    def test_oscillator_box_is_clean(self):
        p = cho(1.0, complex(0.5, 0.5))
        win = ComplexWindow.from_bounds(0.0, 1.0, 0.0, 1.0, (8, 8))
        ok, margin = ellipticity_margin_check(p, win, box_radius=2.5)
        assert ok and margin > 0.2 * win.diameter

    def test_too_small_box_flagged(self):
        p = cho(1.0, complex(0.5, 0.5))
        win = ComplexWindow.from_bounds(0.0, 2.0, 0.0, 2.0, (8, 8))
        ok, _ = ellipticity_margin_check(p, win, box_radius=1.5)
        assert not ok


class TestPushforwardConsistency:
    def test_smooth_functional_agreement(self):
        # sum_cells f(z) w area  vs  MC average of f(p(rho)) * boxvol,
        # independent seeds, within 3 combined standard errors
        p = cho(1.0, complex(0.5, 0.5))
        win = ComplexWindow.from_bounds(0.0, 1.0, 0.0, 1.0, (32, 32))
        f = TestFunction(0.5 + 0.5j, 0.3)
        grid = weyl_density(p, win, box_radius=2.5, samples=2_000_000, seed=31)
        side_a = grid.integral(f.value)
        err_a = float(np.sqrt(np.sum((f.value(win.centers_complex())
                                      * grid.stderr * win.cell_area) ** 2)))
        rng = np.random.default_rng(32)
        m = 2_000_000
        pts = rng.uniform(-2.5, 2.5, (m, 4))
        vals = f.value(p.evaluate(pts[:, :2], pts[:, 2:]))
        boxvol = 5.0 ** 4
        side_b = boxvol * float(np.mean(vals))
        err_b = boxvol * float(np.std(vals)) / np.sqrt(m)
        assert abs(side_a - side_b) <= 3 * np.hypot(err_a, err_b)


PREFILTER_CASES = {
    # the flow-trig density: sin x1 cos xi2 shears cho(1, 0) at t = 0.2
    "flow_trig": lambda: (
        DeformedSymbol(cho(1.0, 0.0), Deformation((sin_x1_cos_xi2(tube_radius=8.0),)), 0.2),
        ComplexWindow.from_bounds(-0.15, 0.15, 0.6, 1.2, (6, 6)), 3.0, 5),
    # sin x1 moves xi1 by -i t cos x1: the bound is within 20% of the largest move
    "tight": lambda: (
        DeformedSymbol(cho(1.0, 0.0), Deformation((sin_x1(),)), 0.3),
        ComplexWindow.from_bounds(0.2, 0.8, 0.2, 0.8, (4, 4)), 2.0, 3),
}


class TestFlowPreFilter:
    """Samples that provably land outside the window skip the flow."""

    SAMPLES = 1 << 16

    @pytest.mark.parametrize("case", sorted(PREFILTER_CASES))
    def test_counts_equal_unfiltered_run(self, case):
        ps, win, box, seed = PREFILTER_CASES[case]()
        x, xi, vals = unfiltered_sobol_values(ps, box, self.SAMPLES, seed)
        want = histogram2d_bin(vals, win)
        grid = weyl_density(ps, win, box_radius=box, samples=self.SAMPLES, seed=seed)
        got = np.rint(grid.values * self.SAMPLES * win.cell_area / (2 * box) ** 4)
        assert np.array_equal(got.astype(np.int64), want) and want.sum() > 150
        assert want.sum() <= grid.meta["flowed"] < self.SAMPLES // 4
        vol, _ = preimage_volume(ps, win, box_radius=box, samples=self.SAMPLES, seed=seed)
        assert vol == (2 * box) ** 4 * (np.count_nonzero(win.contains(vals)) / self.SAMPLES)
        bound = ps.displacement_bound(x, xi)
        moved = np.abs(vals - ps.base.evaluate(x, xi))
        assert np.all(moved <= bound)
        if case == "tight":
            assert np.max(moved) >= 0.5 * np.max(bound)

    def test_uncertified_samples_are_flowed(self, monkeypatch):
        # a cubic generator's speed grows with |rho|: far out, no box traps the path
        G = SymbolExpr.monomial(0.3, (2, 0), (0, 1))
        ps = DeformedSymbol(cho(1.0, 0.0), Deformation((G,)), 0.2)
        win = ComplexWindow.from_bounds(0.2, 0.8, 0.2, 0.8, (4, 4))
        m = 1 << 12
        x, xi, _ = unfiltered_sobol_values(ps, 2.5, m, 3)
        uncertified = ~np.isfinite(ps.displacement_bound(x, xi))
        assert 0 < uncertified.sum() < m
        flowed = []
        evaluate = DeformedSymbol.evaluate

        def recording(self, x, xi):
            flowed.append(np.concatenate([x, xi], axis=1))
            return evaluate(self, x, xi)

        monkeypatch.setattr(DeformedSymbol, "evaluate", recording)
        grid = weyl_density(ps, win, box_radius=2.5, samples=m, seed=3)
        seen = {tuple(row) for row in np.concatenate(flowed)}
        q = np.concatenate([x, xi], axis=1)
        assert all(tuple(row) in seen for row in q[uncertified])
        assert grid.meta["flowed"] == len(seen) < m

    def test_path_beyond_the_tube_is_flowed_and_warns(self):
        # the trapping radius (about 0.21) exceeds the generator's tube radius
        ps = DeformedSymbol(cho(1.0, 0.0), Deformation((sin_x1_cos_xi2(tube_radius=0.1),)), 0.2)
        win = ComplexWindow.from_bounds(-0.15, 0.15, 0.6, 1.2, (6, 6))
        with pytest.warns(RuntimeWarning, match="left the declared tube"):
            grid = weyl_density(ps, win, box_radius=3.0, samples=1 << 12, seed=5)
        assert grid.meta["flowed"] == 1 << 12

    def test_plain_and_closed_form_symbols_flow_nothing(self):
        win = ComplexWindow.from_bounds(-0.15, 0.15, 0.6, 1.2, (6, 6))
        # I1 + i I2 + 0.3 I1 I2 with I_j = (x_j^2 + xi_j^2)/2: a quartic base composes too
        I1, I2 = (SymbolExpr.monomial(0.5, e, (0, 0)) + SymbolExpr.monomial(0.5, (0, 0), e)
                  for e in ((2, 0), (0, 2)))
        d = Deformation((coupling_xx(),))
        for p in (cho(1.0, 0.0), DeformedSymbol(cho(1.0, 0.0), d, 0.2),
                  DeformedSymbol(I1 + 1j * I2 + 0.3 * I1 * I2, d, 0.2)):
            grid = weyl_density(p, win, box_radius=3.0, samples=1 << 12, seed=5)
            assert grid.meta["flowed"] == 0


BLOCKED_CASES = {
    "n1": lambda: (SymbolExpr.monomial(1.0, (0,), (1,), n=1)
                   + SymbolExpr.monomial(1j, (1,), (0,), n=1)
                   + SymbolExpr.monomial(0.3, (2,), (0,), n=1),
                   ComplexWindow.from_bounds(-1.0, 1.0, -1.0, 1.0, (16, 16)), 2.0),
    "n2": lambda: (cho(1.0, complex(0.5, 0.5)),
                   ComplexWindow.from_bounds(0.0, 1.0, 0.0, 1.0, (16, 16)), 2.5),
    # a quadratic deformation has a closed form and flows nothing
    "quadratic": lambda: (DeformedSymbol(cho(1.0, 0.0), Deformation((coupling_xx(),)), 0.2),
                          ComplexWindow.from_bounds(-0.15, 0.15, 0.6, 1.2, (6, 6)), 3.0),
    # a wide window keeps more than a block of each shard for the flow
    "flowing": lambda: (DeformedSymbol(cho(1.0, 0.0), Deformation((sin_x1(),)), 0.3),
                        ComplexWindow.from_bounds(-1.0, 3.0, -1.0, 3.0, (8, 8)), 2.0),
}


def per_shard(batches, n, box_radius, samples, seed, sampler, shard_size):
    """{shard index: [bytes of each batch of flowed rows, in flow order]}.

    Each batch is the real (x, xi) rows handed to the flow; a row's shard
    is found among the run's unit-cube shards scaled to the box.
    """
    owner = {}
    for s, shard in enumerate(unit_shards(2 * n, samples, seed, sampler, shard_size)):
        owner.update((row.tobytes(), s) for row in -box_radius + 2 * box_radius * shard)
    out = {}
    for batch in batches:
        (s,) = {owner[row.tobytes()] for row in batch}
        out.setdefault(s, []).append(batch.tobytes())
    return out


def binomial_stderr(counts, samples, scale):
    """The per-cell binomial standard error of a histogram density."""
    return scale * np.sqrt(np.maximum(counts, 1) * (1 - counts / samples))


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol' points")
class TestBlockedSampling:
    """Blocked evaluation gives the unblocked loop's grids bit for bit."""

    # neither is a multiple of density.BLOCK = 2^14, so shards and blocks end ragged
    SAMPLES, SHARD = 3 * (1 << 14) + 7, (1 << 15) + 3

    @pytest.mark.parametrize("sampler", ["sobol", "random"])
    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
    def test_density_and_volume_equal_unblocked_loop(self, case, sampler, monkeypatch):
        p, win, box = BLOCKED_CASES[case]()
        batches = []
        flow_points = flow.flow_points

        def recording(d, t, x0, xi0):
            batches.append(np.concatenate([x0, xi0], axis=-1).real)
            return flow_points(d, t, x0, xi0)

        monkeypatch.setattr(flow, "flow_points", recording)
        monkeypatch.setattr(density, "DEFAULT_SHARD", self.SHARD)
        args = (box, self.SAMPLES, 4, sampler, self.SHARD)
        counts, flowed, hits = sampled_counts_reference(p, win, *args)
        want_batches, batches[:] = per_shard(batches, p.n, *args), []
        grid = weyl_density(p, win, box_radius=box, samples=self.SAMPLES, seed=4,
                            sampler=sampler)
        boxvol = (2 * box) ** (2 * p.n)
        scale = boxvol / (self.SAMPLES * win.cell_area)
        assert grid.values.tobytes() == (counts * scale).tobytes()
        assert grid.stderr.tobytes() == binomial_stderr(counts, self.SAMPLES, scale).tobytes()
        assert grid.meta["flowed"] == flowed
        # shards may flow in any order, each shard's batches in the reference's
        got_batches = per_shard(batches, p.n, *args)
        assert got_batches == want_batches
        if case == "flowing":
            sizes = [len(b) // (16 * p.n) for shard in got_batches.values() for b in shard]
            assert density.BLOCK in sizes and len(sizes) > 2
        vol, _ = preimage_volume(p, win, box, self.SAMPLES, 4, sampler)
        assert vol == boxvol * (hits / self.SAMPLES)

    def test_closed_form_is_built_once_per_call(self, monkeypatch):
        # building it integrates the variational flow once per DeformedSymbol, which
        # then serves every block of both estimators and any later evaluate
        p, win, box = BLOCKED_CASES["quadratic"]()
        calls = []
        integrate_flow = flow.integrate_flow

        def recording(*args):
            calls.append(1)
            return integrate_flow(*args)

        monkeypatch.setattr(flow, "integrate_flow", recording)
        monkeypatch.setattr(density, "DEFAULT_SHARD", self.SHARD)
        weyl_density(p, win, box_radius=box, samples=self.SAMPLES, seed=4)
        preimage_volume(p, win, box, self.SAMPLES, 4, "sobol")
        p.evaluate(np.zeros((1, 2)), np.zeros((1, 2)))
        assert len(calls) == 1

    @pytest.mark.parametrize("sampler", ["sobol", "random"])
    def test_torus_equal_unblocked_loop(self, sampler, monkeypatch):
        win = ComplexWindow.from_bounds(-0.3, 0.3, -0.3, 0.3, (8, 8))
        eta_box = ((-0.5, 0.5), (-0.4, 0.6))
        area = (0.5 - -0.5) * (0.6 - -0.4)
        counts = torus_counts_reference(torus_coupled(0.3), win, eta_box, self.SAMPLES, 5,
                                        sampler, self.SHARD)
        monkeypatch.setattr(density, "DEFAULT_SHARD", self.SHARD)
        grid = weyl_density_torus(torus_coupled(0.3), win, eta_box, samples=self.SAMPLES,
                                  seed=5, sampler=sampler)
        scale = TWO_PI_SQ * area / (self.SAMPLES * win.cell_area)
        assert grid.values.tobytes() == (counts * scale).tobytes()
        assert grid.stderr.tobytes() == binomial_stderr(counts, self.SAMPLES, scale).tobytes()

    def test_no_draw_exceeds_a_block(self, monkeypatch):
        # every Sobol' span and every iid draw, through a flowing density over
        # several shards, a volume and an audit, is at most BLOCK rows
        spans, sizes = [], []
        sobol_rows, default_rng = density._Sobol.rows, np.random.default_rng

        def recording_rows(eng, start, stop):
            spans.append(stop - start)
            return sobol_rows(eng, start, stop)

        class RecordingGenerator:
            def __init__(self, seed=None):
                self.rng = default_rng(seed)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def random(self, size):
                sizes.append(size[0])
                return self.rng.random(size)

        monkeypatch.setattr(density._Sobol, "rows", recording_rows)
        monkeypatch.setattr(np.random, "default_rng", RecordingGenerator)
        monkeypatch.setattr(density, "DEFAULT_SHARD", self.SHARD)
        p, win, box = BLOCKED_CASES["flowing"]()
        q, qwin, qbox = BLOCKED_CASES["quadratic"]()
        for sampler in ("sobol", "random"):
            weyl_density(p, win, box_radius=box, samples=self.SAMPLES, seed=4, sampler=sampler)
            preimage_volume(q, qwin, qbox, self.SAMPLES, 4, sampler)
        audit(cho(1.0, complex(0.5, 0.5)), sample_budget=2 * density.BLOCK, seed=0)
        assert sum(spans) == 2 * self.SAMPLES + 2 * (2 * density.BLOCK)
        assert sum(sizes) == 2 * self.SAMPLES
        assert max(spans + sizes) == density.BLOCK


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol' points")
class TestConcurrentShards:
    """Shards run on several threads give the one-thread outputs bit for bit."""

    # four shards, each a full block and a ragged one; the last shard is shorter
    SAMPLES, SHARD = 3 * ((1 << 14) + 5) + 4001, (1 << 14) + 5

    @pytest.fixture
    def threads(self, monkeypatch):
        """The threads that drew a shard, with a small DEFAULT_SHARD."""
        seen = set()
        shards = density._shards

        def recording(*args):
            def tagged(blocks):
                seen.add(threading.get_ident())
                yield from blocks
            return [tagged(b) for b in shards(*args)]

        monkeypatch.setattr(density, "_shards", recording)
        monkeypatch.setattr(density, "DEFAULT_SHARD", self.SHARD)
        return seen

    def run(self, monkeypatch, cpus, case, sampler):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        p, win, box = BLOCKED_CASES[case]()
        grid = weyl_density(p, win, box_radius=box, samples=self.SAMPLES, seed=4,
                            sampler=sampler)
        vol = preimage_volume(p, win, box, self.SAMPLES, 4, sampler)
        return grid.values.tobytes(), grid.stderr.tobytes(), grid.meta, vol

    @pytest.mark.parametrize("sampler", ["sobol", "random"])
    @pytest.mark.parametrize("case", ["n2", "quadratic", "flowing"])
    def test_outputs_do_not_depend_on_the_cpu_count(self, case, sampler, threads, monkeypatch):
        one = self.run(monkeypatch, 1, case, sampler)
        assert threads == {threading.get_ident()}
        threads.clear()
        assert self.run(monkeypatch, 3, case, sampler) == one
        assert len(threads) > 1
        if case == "flowing":
            assert one[2]["flowed"] > 2 * density.BLOCK

    def test_torus_does_not_depend_on_the_cpu_count(self, threads, monkeypatch):
        win = ComplexWindow.from_bounds(-0.3, 0.3, -0.3, 0.3, (8, 8))
        grids = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            g = weyl_density_torus(torus_coupled(0.3), win, ((-0.5, 0.5), (-0.4, 0.6)),
                                   samples=self.SAMPLES, seed=5)
            grids.append((g.values.tobytes(), g.stderr.tobytes()))
        assert grids[0] == grids[1] and len(threads) > 1

    def test_checks_and_warning_come_first_in_the_caller(self, threads, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        events = []
        warn, shards = warnings.warn, density._shards

        def recording_warn(message, *args, **kwargs):
            events.append(("warn", threading.get_ident()))
            warn(message, *args, **kwargs)

        def recording_shards(*args):
            out = shards(*args)
            events.append(("shards", threading.get_ident()))
            return out

        monkeypatch.setattr(warnings, "warn", recording_warn)
        monkeypatch.setattr(density, "_shards", recording_shards)
        p, win, box = BLOCKED_CASES["n2"]()
        with pytest.warns(UserWarning, match="balance properties"):
            weyl_density(p, win, box_radius=box, samples=self.SAMPLES, seed=4)
        caller = threading.get_ident()
        assert events == [("warn", caller), ("shards", caller)] and len(threads) > 1
        monkeypatch.setattr(density, "map_on_cpus", None)  # no shard may start
        with pytest.raises(ValueError, match="unknown sampler"):
            weyl_density(p, win, box_radius=box, samples=self.SAMPLES, sampler="halton")
        with pytest.raises(ValueError, match="at most 2\\*\\*30"):
            preimage_volume(p, win, box, (1 << 30) + 1, 4)

    def test_every_item_runs_once_under_contention(self, monkeypatch):
        # more threads than cores and a short switch interval: an item lost or
        # taken twice would show in the calls or the results
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = density.map_on_cpus(lambda i: calls.append(i) or i * i, range(3000))
        finally:
            sys.setswitchinterval(interval)
        assert out == [i * i for i in range(3000)]
        assert sorted(calls) == list(range(3000))

    @pytest.mark.parametrize("case", ["quadratic", "flowing"])
    def test_worker_exception_reaches_the_caller(self, case, threads, monkeypatch, tmp_path,
                                                 capsys):
        # a flow that underflows on a worker thread raises its own error in the
        # caller, which the CLI maps to exit 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        caller = threading.get_ident()
        target, name = (flow, "flow_points") if case == "flowing" else (density, "_bin")
        original = getattr(target, name)

        def fail_off_caller(*args):
            if threading.get_ident() != caller:
                raise StepSizeUnderflowError("step size underflow on a worker")
            return original(*args)

        monkeypatch.setattr(target, name, fail_off_caller)
        p, win, box = BLOCKED_CASES[case]()
        with pytest.raises(StepSizeUnderflowError, match="on a worker"):
            weyl_density(p, win, box_radius=box, samples=self.SAMPLES, seed=4)
        assert len(threads) > 1
        if case == "flowing":
            win = '{"center": [0.0, 0.9], "half_widths": [0.15, 0.3], "resolution": [6, 6]}'
            assert main(["deform-density", "--symbol", "cho(1,0)", "--G", "sin-x1-cos-xi2",
                         "--t", "0.2", "--samples", str(self.SAMPLES), "--box-radius", "3",
                         "--window", win, "--outdir", str(tmp_path)]) == 2
            assert capsys.readouterr().err == "config error: step size underflow on a worker\n"


class TestSobol:
    """The in-repo Sobol' engine draws the rows of scipy's qmc.Sobol bit for bit."""

    TOTALS = (1, 1000, (1 << 20) + 3, 3 * (1 << 20) + 12345)

    @pytest.mark.filterwarnings("ignore:The balance properties of Sobol' points")
    @pytest.mark.parametrize("shard", [1 << 20, (1 << 15) + 3], ids=["aligned", "unaligned"])
    @pytest.mark.parametrize("seed", [0, 5, 123, 2**31 - 1])
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_shards_equal_scipy(self, dim, seed, shard, monkeypatch):
        # scipy's engine drawn len(shard) rows per call; the blocks of each shard,
        # concatenated, are those rows and end where the shard ends
        monkeypatch.setattr(density, "DEFAULT_SHARD", shard)
        for total in self.TOTALS:
            got = density._unit_blocks(dim, total, seed, "sobol")
            drawn = 0
            for want in unit_shards(dim, total, seed, "sobol", shard):
                blocks = [next(got)]
                while sum(map(len, blocks)) < len(want):
                    blocks.append(next(got))
                rows = np.concatenate(blocks)
                assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
                drawn += len(rows)
            assert drawn == total and next(got, None) is None

    @pytest.mark.parametrize("total, warns", [
        (0, False), (1, False), (3, True), (1000, True), (1024, False),
        ((1 << 15) + 3, True), ((1 << 20) + 3, False)])
    @pytest.mark.parametrize("draw", ["_unit_blocks"])
    def test_warns_when_scipy_warns(self, draw, total, warns):
        # scipy warns when its first draw, here the first shard, is no power of two
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            list(unit_shards(2, total, 0, "sobol", density.DEFAULT_SHARD))
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            list(getattr(density, draw)(2, total, 0, "sobol"))
        assert len(want) == warns
        assert [(w.category, str(w.message)) for w in got] == \
               [(w.category, str(w.message)) for w in want]

    @pytest.mark.filterwarnings("ignore:The balance properties of Sobol' points")
    @pytest.mark.parametrize("sampler", ["sobol", "random"])
    def test_blocks_are_the_rows_of_the_shards(self, sampler, monkeypatch):
        shard = (1 << 15) + 3
        monkeypatch.setattr(density, "DEFAULT_SHARD", shard)
        total = 5 * density.BLOCK + 7
        blocks = list(density._unit_blocks(4, total, 3, sampler))
        shards = list(unit_shards(4, total, 3, sampler, shard))
        assert max(len(b) for b in blocks) == density.BLOCK
        block_ends = set(np.cumsum([len(b) for b in blocks]).tolist())
        assert set(np.cumsum([len(s) for s in shards]).tolist()) <= block_ends
        assert np.concatenate(blocks).tobytes() == np.concatenate(shards).tobytes()

    def test_at_most_2_to_the_30_points(self):
        with pytest.raises(ValueError, match="at most 2\\*\\*30"):
            next(density._unit_blocks(2, (1 << 30) + 1, 0, "sobol"))
