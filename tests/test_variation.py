import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsweyl import flow
from bsweyl.density import ComplexWindow
from bsweyl.experiments import DeformationSplitsConfig
from bsweyl.flow import Deformation, DeformedSymbol, deformed_quadratic
from bsweyl.symbols import (SymbolExpr, cho, coupling_xx, poisson_bracket,
                            sin_x1_cos_xi2, torus_coupled)
from bsweyl.variation import (ACTION_FAMILY, CERT_CENTERS, CERT_RADII, ERROR_FLOOR, REACH_PAD,
                              SupportLeakWarning, TestFunction, _SecondVariationGrid,
                              _slabs, _warn_if_support_leaks, first_variation_rhs, moment,
                              moment_derivative_fd, nonequality_certificate,
                              second_variation_rhs, tensor_quadrature)

from oracles import (bump_dz, bump_reference, integration_by_parts_gap,
                     polar_moment_oracle, separable_polar_quadrature)


def make_deformed(t, shift=0j):
    base = cho(1.0, shift)
    d = Deformation((coupling_xx(),))
    return DeformedSymbol(base, d, t)


class TestBump:
    def test_support_and_positivity(self):
        f = TestFunction(0.2 + 0.3j, 0.4)
        assert f.value(np.array([0.2 + 0.3j]))[0] == pytest.approx(1.0)
        assert f.value(np.array([0.7 + 0.3j]))[0] == 0.0
        assert f.value(np.array([0.2 + 0.71j]))[0] == 0.0

    def test_laplacian_matches_five_point_stencil(self):
        f = TestFunction(0.1 + 0.2j, 0.35)
        rng = np.random.default_rng(2)
        h = 1e-4
        for _ in range(12):
            z = complex(rng.uniform(-0.15, 0.35), rng.uniform(-0.05, 0.45))
            stencil = (f.value(np.array([z + h])) + f.value(np.array([z - h]))
                       + f.value(np.array([z + 1j * h]))
                       + f.value(np.array([z - 1j * h]))
                       - 4 * f.value(np.array([z])))[0] / h ** 2
            exact = f.laplacian(np.array([z]))[0]
            assert exact == pytest.approx(stencil, rel=1e-6, abs=1e-4)

    def test_dz_is_half_gradient(self):
        f = TestFunction(0.0, 0.5)
        h = 1e-6
        z = 0.1 + 0.07j
        d_re = (f.value(np.array([z + h])) - f.value(np.array([z - h])))[0] / (2 * h)
        d_im = (f.value(np.array([z + 1j * h])) - f.value(np.array([z - 1j * h])))[0] / (2 * h)
        want = 0.5 * (d_re - 1j * d_im)
        assert bump_dz(f, np.array([z]))[0] == pytest.approx(want, rel=1e-6)

    def test_matches_per_axis_reference_bitwise(self):
        # c = 0.25 + 0.5i, r = 0.5: Re z in {-0.25, 0.75} and Im z in
        # {0, 1} put u or v exactly at -1 or 1
        f = TestFunction(0.25 + 0.5j, 0.5)
        rng = np.random.default_rng(5)
        edge = np.array([-0.25, 0.75, 0.25, 0.6])[:, None] + 1j * np.array([0.0, 1.0, 0.5, 0.2])
        z = np.concatenate([
            rng.uniform(-0.5, 1.0, 400) + 1j * rng.uniform(-0.25, 1.25, 400),  # in and out
            edge.ravel(),
            rng.uniform(2.0, 3.0, 50) + 1j * rng.uniform(-3.0, -2.0, 50),  # far outside
        ]).reshape(2, -1)
        value, lap = bump_reference(f, z)
        assert np.array_equal(f.value(z), value)
        assert np.array_equal(f.laplacian(z), lap)
        assert f.value(z).shape == z.shape
        assert np.count_nonzero(value) > 100

    @pytest.mark.parametrize("center, radius, exact", [
        (0.5 + 0.75j, 0.25, True), (1.5 + 3.0j, 0.75, True), (0.1 + 0.2j, 0.35, False)])
    def test_one_ulp_inside_and_on_each_edge_bitwise(self, center, radius, exact):
        # fl(a/r) < 1 exactly when |a| < r, so the one-pass support test
        # keeps and drops the same edge points as |u| < 1 and |v| < 1.  With
        # c/2 <= c -+ r <= 2c on both axes, z - c is exact (Sterbenz), so the
        # points one ulp inside have |u| or |v| one rounding below 1
        f = TestFunction(center, radius)
        c, r = f.center, f.radius
        re_edges = np.array([c.real - r, c.real + r])
        im_edges = np.array([c.imag - r, c.imag + r])
        inside = np.concatenate([np.nextafter(re_edges, c.real) + 1j * c.imag,
                                 c.real + 1j * np.nextafter(im_edges, c.imag)])
        on = np.concatenate([re_edges + 1j * c.imag, c.real + 1j * im_edges])
        for z in (inside, on):
            value, lap = bump_reference(f, z)
            assert np.array_equal(f.value(z), value)
            assert np.array_equal(f.laplacian(z), lap)
        if exact:
            assert np.all(f.laplacian(inside) != 0) and np.all(f.value(inside) > 0)
            assert not np.any(f.laplacian(on)) and not np.any(f.value(on))

    @pytest.mark.parametrize("z", [np.complex128(0.3 + 0.4j), np.array(0.3 + 0.4j),
                                   np.linspace(-0.2, 0.6, 7), np.array([[0.3, 0.9]]),
                                   (0.3 + 0.4j) + np.linspace(-0.4, 0.4, 12).reshape(3, 4)])
    def test_keeps_the_input_shape(self, z):
        f = TestFunction(0.3 + 0.3j, 0.4)
        value, lap = bump_reference(f, z)
        for got, want in ((f.value(z), value), (f.laplacian(z), lap)):
            assert got.shape == np.shape(z) and got.dtype == np.float64
            assert np.array_equal(got, want)


class TestMoment:
    def test_zero_when_support_misses_image(self):
        # the oscillator image is the closed quadrant; a bump strictly in
        # the opposite quadrant pairs to zero
        p = cho(1.0, 0.0)
        f = TestFunction(-1.0 - 1.0j, 0.3)
        assert moment(f, p, box_radius=2.0, order=24,
                      check_support=False) == 0.0

    def test_polar_oracle_for_oscillator(self):
        p = cho(1.0, 0.0)
        f = TestFunction(0.5 + 0.5j, 0.3)
        got = moment(f, p, box_radius=1.9, order=48)
        want = polar_moment_oracle(f.value)
        assert got == pytest.approx(want, rel=1e-4)

    def test_planar_exact_value_dimension_one(self):
        # p = xi + i x pushes dx dxi to Lebesgue: the moment is the plain
        # integral of the bump, (32/35)^2 r^2
        p = (SymbolExpr.monomial(1.0, (0,), (1,), n=1)
             + SymbolExpr.monomial(1j, (1,), (0,), n=1))
        r = 0.4
        f = TestFunction(0.0, r)
        got = moment(f, p, box_radius=1.0, order=48)
        # GL on the kinked bump converges algebraically; 48 points per
        # axis leave a ~1e-4 relative discretization error
        assert got == pytest.approx((32 / 35) ** 2 * r ** 2, rel=5e-4)

    def test_deformed_t0_equals_base(self):
        f = TestFunction(0.5 + 0.5j, 0.3)
        m_base = moment(f, cho(1.0, 0.0), box_radius=1.9, order=32)
        m_def = moment(f, make_deformed(0.0), box_radius=1.9, order=32)
        assert abs(m_base - m_def) <= 1e-12

    def test_low_order_rejected(self):
        f = TestFunction(0.5 + 0.5j, 0.3)
        with pytest.raises(ValueError):
            moment(f, cho(1.0, 0.0), box_radius=2.0, order=4)

    def test_support_leak_warns(self):
        f = TestFunction(0.5 + 0.5j, 0.4)
        with pytest.warns(RuntimeWarning):
            moment(f, cho(1.0, 0.0), box_radius=0.8, order=16)

    def test_two_calls_agree_bitwise(self):
        f = TestFunction(0.05 + 0.55j, 0.35)
        first = moment(f, deformed_quadratic(make_deformed(0.2)), 2.6, 32)
        assert moment(f, deformed_quadratic(make_deformed(0.2)), 2.6, 32) == first
        assert first > 0


class TestSupportCheck:
    """Every entry point with a box warns when f o p_t reaches its faces."""

    F = TestFunction(0.05 + 0.55j, 0.35)

    def test_first_variation_warns(self):
        with pytest.warns(SupportLeakWarning):
            first_variation_rhs(self.F, deformed_quadratic(make_deformed(0.2)),
                                coupling_xx(), 1.0, 8)

    def test_finite_difference_warns_at_the_widest_steps(self):
        checked = []

        def make_pt(t):
            checked.append(t)
            return deformed_quadratic(make_deformed(t))

        with pytest.warns(SupportLeakWarning):
            moment_derivative_fd(make_pt, 0.2, 1, f=self.F, box_radius=1.0, quad_order=8)
        assert checked[:2] == [0.2 - 1e-2, 0.2 + 1e-2]

    @pytest.mark.parametrize("t, box_radius", [(0.19, 2.6), (0.2, 2.6), (0.21, 2.6),
                                               (-0.02, 2.0), (0.0, 2.0), (0.02, 2.0)])
    def test_silent_on_the_c3_c4_configurations(self, t, box_radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SupportLeakWarning)
            _warn_if_support_leaks(self.F, make_deformed(t), box_radius)


class TestFirstVariation:
    def test_integrable_branch_exactly_zero(self):
        f = TestFunction(0.3 + 0.3j, 0.25)
        for p in (cho(1.0, 0.0), torus_coupled(0.3)):
            assert first_variation_rhs(f, p, coupling_xx(), 2.0, 16) == 0.0

    def test_imaginary_generator_gives_zero(self):
        # Re G = 0 kills the integrand
        f = TestFunction(0.05 + 0.55j, 0.35)
        p_t = deformed_quadratic(make_deformed(0.2))
        G_im = 1j * coupling_xx()
        assert first_variation_rhs(f, p_t, G_im, 2.6, 24) == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_difference_in_t(self):
        t = 0.2
        f = TestFunction(0.05 + 0.55j, 0.35)
        p_t = deformed_quadratic(make_deformed(t))
        rhs = first_variation_rhs(f, p_t, coupling_xx(), 2.6, 48)
        lhs = moment_derivative_fd(lambda s: deformed_quadratic(make_deformed(s)),
                                   t, 1, f=f, box_radius=2.6, quad_order=48)
        assert abs(lhs - rhs) / abs(rhs) <= 0.02


class TestFlowingSymbolRejected:
    """A p_t with no closed form is a ValueError before any flow step."""

    F = TestFunction(0.05 + 0.55j, 0.35)

    @staticmethod
    def make_trig(t):
        return DeformedSymbol(cho(1.0, 0.0), Deformation((sin_x1_cos_xi2(tube_radius=8.0),)), t)

    @pytest.fixture(autouse=True)
    def no_flow(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a flowing p_t was flowed")

        monkeypatch.setattr(flow, "flow_points", fail)
        monkeypatch.setattr(flow, "_rk45", fail)

    def test_first_variation(self):
        p_t = self.make_trig(0.2)
        assert p_t.flows
        with pytest.raises(ValueError, match="closed form"):
            first_variation_rhs(self.F, p_t, coupling_xx(), 2.6, 16)

    def test_moment_derivative(self):
        with pytest.raises(ValueError, match="closed form"):
            moment_derivative_fd(self.make_trig, 0.2, 1, f=self.F, box_radius=2.6,
                                 quad_order=16)


# I_1 and I_2, (x_j^2 + xi_j^2)/2
ACTIONS = tuple(SymbolExpr.monomial(0.5, e, (0, 0)) + SymbolExpr.monomial(0.5, (0, 0), e)
                for e in ((2, 0), (0, 2)))


def boundary_form(f):
    """8 pi^2 [int_0^inf y f(iy) dy + int_0^inf x f(x) dx]: C4's pairing by
    Green's identity, as mu = 8 pi^2 xy is harmonic and vanishes on both axes."""
    from scipy.integrate import quad
    lo_r, hi_r, lo_i, hi_i = f.support_bounds()
    on_axis = [quad(lambda s: s * float(f.value(np.array([unit * s]))[0]), max(lo, 0.0), hi,
                    epsabs=0, epsrel=1e-13)[0] if hi > 0 else 0.0
               for unit, lo, hi in ((1j, lo_i, hi_i), (1.0, lo_r, hi_r))]
    return 8 * np.pi ** 2 * sum(on_axis)


def action_space_midpoint(f, alpha, shift, G, top=1.5, n=300, angles=8):
    """(2 pi)^2 int (Delta f)(F(I)) <|H_p G|^2>(I) dI for p = cho(alpha, shift),
    by the midpoint rule on I in [0, top]^2 and the trapezoid rule in each angle
    (exact here: |H_p G|^2 has angular frequencies up to 4 < angles), with no
    torus_average and no clipping."""
    hpg = poisson_bracket(cho(alpha, shift), G)
    I = (np.arange(n) + 0.5) * top / n
    I1, I2 = np.meshgrid(I, I, indexing="ij")
    avg = 0.0
    for t1 in 2 * np.pi * np.arange(angles) / angles:
        for t2 in 2 * np.pi * np.arange(angles) / angles:
            r1, r2 = np.sqrt(2 * I1), np.sqrt(2 * I2)
            x = np.stack([r1 * np.cos(t1), r2 * np.cos(t2)], axis=-1)
            xi = np.stack([r1 * np.sin(t1), r2 * np.sin(t2)], axis=-1)
            avg = avg + np.abs(hpg.evaluate(x, xi)) ** 2 / angles ** 2
    lap = f.laplacian(I1 + 1j * alpha * I2 - shift)
    return (2 * np.pi) ** 2 * float(np.sum(lap * avg)) * (top / n) ** 2


class TestSecondVariation:
    def test_constant_generator_zero(self):
        f = TestFunction(0.1 + 0.5j, 0.3)
        G0 = SymbolExpr.constant(2.0)
        assert second_variation_rhs(f, cho(1.0, 0.0), G0) == (0.0, ERROR_FLOOR)

    def test_rejects_non_integrable_base(self):
        f = TestFunction(0.1 + 0.5j, 0.3)
        p_t = deformed_quadratic(make_deformed(0.2))
        with pytest.raises(ValueError):
            second_variation_rhs(f, p_t, coupling_xx())

    def test_rejects_complex_generator(self):
        f = TestFunction(0.1 + 0.5j, 0.3)
        with pytest.raises(ValueError):
            second_variation_rhs(f, cho(1.0, 0.0), 1j * coupling_xx())

    @pytest.mark.parametrize("p", [
        cho(1.0, 0.0) + 0.3 * ACTIONS[0] * ACTIONS[1],  # the quartic I1 + i I2 + 0.3 I1 I2
        cho(1.0, 0.0) + 0.5j * ACTIONS[0],  # a_1 = 1 + 0.5i: the image is no quadrant
        cho(1.0, 0.0) - 1j * ACTIONS[1],  # alpha = 0: no action map
    ], ids=["quartic", "complex-a1", "alpha-0"])
    def test_rejects_bases_outside_the_family(self, p):
        f = TestFunction(0.05 + 0.55j, 0.35)
        with pytest.raises(ValueError) as exc:
            second_variation_rhs(f, p, coupling_xx())
        assert str(exc.value) == ACTION_FAMILY

    def test_boundary_formula_oracle(self):
        # C4's bump and bumps that reach both axes, one or none; the pairing is
        # exact up to rounding, well inside its rhs_error
        for f in (TestFunction(0.05 + 0.55j, 0.35), TestFunction(0.1 + 0.15j, 0.3),
                  TestFunction(0.6 - 0.1j, 0.25), TestFunction(-0.2 - 0.2j, 0.3)):
            value, err = second_variation_rhs(f, cho(1.0, 0.0), coupling_xx())
            assert err <= 1e-10
            assert abs(value - boundary_form(f)) <= 1e-12 * max(abs(value), 1.0)

    def test_c4_value(self):
        cfg = DeformationSplitsConfig()
        f = TestFunction(cfg.f_center, cfg.f_radius)
        value, err = second_variation_rhs(f, cho(1.0, 0.0), coupling_xx())
        assert value == pytest.approx(13.062847964834285, rel=1e-12)
        assert err <= 1e-10

    def test_matches_second_central_difference(self):
        f = TestFunction(0.05 + 0.55j, 0.35)
        rhs, _ = second_variation_rhs(f, cho(1.0, 0.0), coupling_xx())
        lhs = moment_derivative_fd(lambda s: deformed_quadratic(make_deformed(s)),
                                   0.0, 2, f=f, box_radius=2.0, quad_order=48)
        assert abs(lhs - rhs) / abs(rhs) <= 0.03

    def test_within_the_grid_pairings_error(self):
        # the tensor-grid pairing is the independent reference: for cho(alpha,
        # shift) the exact value lies within the grid's own estimate |I_48 - I_24|
        for alpha, shift, f in ((0.7, 0.1 + 0.2j, TestFunction(-0.05 + 0.3j, 0.3)),
                                (0.5, -0.1 + 0.2j, TestFunction(0.2 - 0.15j, 0.3)),
                                (-2.0, 0.1 - 0.1j, TestFunction(0.0, 0.35))):
            p, G = cho(alpha, shift), coupling_xx()
            hpg = poisson_bracket(p, G)
            grid, coarse = (_SecondVariationGrid(p, hpg, 2.0, o, f.support_bounds()).pair(f)
                            for o in (48, 24))
            assert abs(second_variation_rhs(f, p, G)[0] - grid) <= abs(grid - coarse)

    @pytest.mark.parametrize("alpha, shift, f", [
        (-1.5, -0.2 + 0.1j, TestFunction(0.3 - 0.05j, 0.3)),
        (0.7, 0.1 + 0.2j, TestFunction(-0.05 + 0.3j, 0.3))])
    def test_matches_the_action_space_midpoint_rule(self, alpha, shift, f):
        # the same integral with the angle average taken numerically and the
        # image's edges left to the midpoint rule in I
        got, _ = second_variation_rhs(f, cho(alpha, shift), coupling_xx())
        want = action_space_midpoint(f, alpha, shift, coupling_xx())
        assert got == pytest.approx(want, rel=2e-3)  # the midpoint rule is off by about 5e-4

    def test_interior_bump_pairs_to_near_zero(self):
        # the angle average of |H_p G|^2 is 2 I1 I2, harmonic in z = I1 + i I2,
        # so bumps strictly inside the image quadrant cannot sense the
        # deformation at second order: the exact rule leaves rounding only,
        # which the error covers at every scale, so none can be a witness
        p, G = cho(1.0, 0.0), coupling_xx()
        value, err = second_variation_rhs(TestFunction(0.55 + 0.55j, 0.25), p, G)
        assert abs(value) <= 1e-12 and err <= 1e-10
        rng = np.random.default_rng(7)
        for r in 10 ** rng.uniform(-2, 3, 200):
            f = TestFunction(complex(*(r * (1 + rng.uniform(0.001, 5, 2)))), r)
            value, err = second_variation_rhs(f, p, G)
            assert abs(value) <= err


class TestCertificate:
    WINDOW = ComplexWindow.from_bounds(-0.3, 0.9, -0.3, 0.9, (8, 8))

    def test_zero_generator_no_certificate(self):
        assert nonequality_certificate(cho(1.0, 0.0), SymbolExpr.zero(2), self.WINDOW) is None

    def test_constant_generator_no_certificate(self):
        assert nonequality_certificate(cho(1.0, 0.0), SymbolExpr.constant(3.0),
                                       self.WINDOW) is None

    def test_witness_found_for_coupling(self):
        cert = nonequality_certificate(cho(1.0, 0.0), coupling_xx(), self.WINDOW)
        assert cert is not None
        f, value, err = cert
        assert value > 5 * err
        # C4's witness: its pairing is the boundary form on the imaginary axis
        assert (f.center, f.radius) == (pytest.approx(-0.06 + 0.66j), pytest.approx(0.24))
        assert value == pytest.approx(9.4219473, rel=1e-7)
        assert abs(value - boundary_form(f)) <= 1e-12 * value

    def test_witness_value_is_second_variation(self):
        # the certificate and second_variation_rhs share one action-space pairing
        f, value, err = nonequality_certificate(cho(1.0, 0.0), coupling_xx(), self.WINDOW)
        assert (value, err) == second_variation_rhs(f, cho(1.0, 0.0), coupling_xx())

    def test_rejects_bases_outside_the_family(self):
        quartic = cho(1.0, 0.0) + 0.3 * ACTIONS[0] * ACTIONS[1]
        with pytest.raises(ValueError) as exc:
            nonequality_certificate(quartic, coupling_xx(), self.WINDOW)
        assert str(exc.value) == ACTION_FAMILY


class TestCertificateGrid:
    # cho's image is the closed first quadrant; the reach also covers a
    # stretch of the third quadrant, where no node lands
    REACH = (-0.8, 0.9, -0.8, 0.9)
    BUMPS = (TestFunction(0.05 + 0.55j, 0.35), TestFunction(0.3 + 0.3j, 0.25),
             TestFunction(0.6 + 0.1j, 0.3), TestFunction(-0.5 - 0.5j, 0.25))

    @staticmethod
    def full_grid_pairing(f, p, G, box_radius, order):
        """The pairing with the bump's Laplacian at every node of every slab."""
        return float(sum(
            np.dot(bump_reference(f, vals.ravel())[1],
                   (np.multiply.outer(w_rows, w_cols) * np.abs(h) ** 2).ravel())
            for w_rows, (vals, h), w_cols
            in _slabs((p, poisson_bracket(p, G)), p.n, box_radius, order)))

    @staticmethod
    def check_grid(p, G, box_radius, order, reach, bumps):
        """The grid keeps, bit for bit, the slab values and weights in the padded
        reach; no bump drops a nonzero term; each pairing is the dot product over
        the kept nodes in slab order, bit for bit, and the full-grid pairing to
        1e-13 relative."""
        hpg = poisson_bracket(p, G)
        grid = _SecondVariationGrid(p, hpg, box_radius, order, reach)
        vals, weights = (np.concatenate(a) for a in zip(*(
            (v.ravel(), (np.multiply.outer(w_rows, w_cols) * np.abs(h) ** 2).ravel())
            for w_rows, (v, h), w_cols in _slabs((p, hpg), p.n, box_radius, order))))
        pad = REACH_PAD * max(map(abs, reach))
        lo_r, hi_r, lo_i, hi_i = np.add(reach, (-pad, pad, -pad, pad))
        kept = (lo_r < vals.real) & (vals.real < hi_r) & (lo_i < vals.imag) & (vals.imag < hi_i)
        assert np.array_equal(grid.vals, vals[kept])
        assert np.array_equal(grid.weights, weights[kept])
        for f in bumps:
            lap = bump_reference(f, vals)[1]
            assert not np.any(lap[~kept])
            assert grid.pair(f) == np.dot(lap[kept], weights[kept])
            full = TestCertificateGrid.full_grid_pairing(f, p, G, box_radius, order)
            assert abs(grid.pair(f) - full) <= 1e-13 * abs(full)
        return grid

    def test_pairing_is_the_kept_nodes_dot_product(self):
        grid = self.check_grid(cho(1.0, 0.0), coupling_xx(), 2.0, 16, self.REACH, self.BUMPS)
        assert 0 < grid.vals.size < 16 ** 4
        assert grid.pair(self.BUMPS[-1]) == 0.0
        assert grid.pair(self.BUMPS[0]) != 0.0

    def test_reach_equal_to_the_support_keeps_every_node(self):
        # the last bump puts a node's value 1e-9 r inside its right edge,
        # where the Laplacian is small but not zero
        p, G = cho(1.0, 0.0), coupling_xx()
        vals = np.concatenate([v.ravel() for _, (v,), _ in _slabs((p,), 2, 2.0, 16)])
        z0 = vals[np.argmin(np.abs(vals - (0.5 + 0.5j)))]
        edge = TestFunction(z0 - 0.3 * (1 - 1e-9), 0.3)
        assert edge.laplacian(z0) != 0
        for f in self.BUMPS[:3] + (edge,):
            self.check_grid(p, G, 2.0, 16, f.support_bounds(), (f,))

    def test_one_laplacian_call_per_pairing(self, monkeypatch):
        grid = self.check_grid(cho(1.0, 0.0), coupling_xx(), 2.0, 16, self.REACH, ())
        calls = []
        laplacian = TestFunction.laplacian

        def counted(f, z):
            calls.append(np.shape(z))
            return laplacian(f, z)

        monkeypatch.setattr(TestFunction, "laplacian", counted)
        for f in self.BUMPS:
            calls.clear()
            assert grid.pair(f) == np.dot(laplacian(f, grid.vals), grid.weights)
            assert calls == [grid.vals.shape]

    @staticmethod
    def certificate_reach(window):
        """The box holding every bump the certificate tries in window."""
        cs = np.linspace(window.bounds[0], window.bounds[1], CERT_CENTERS + 2)[1:-1]
        ci = np.linspace(window.bounds[2], window.bounds[3], CERT_CENTERS + 2)[1:-1]
        r_max = max(CERT_RADII) * min(window.half_widths)
        return (cs[0] - r_max, cs[-1] + r_max, ci[0] - r_max, ci[-1] + r_max)

    def test_certificate_value_is_full_grid_pairing(self):
        # a grid over the certificate's reach at order 32 keeps, bit for bit,
        # the slab nodes in reach and sums them in slab order, and agrees with
        # the full-grid pairing to 1e-13 relative (see check_grid); the
        # certificate's exact value lies within that grid's |I_32 - I_16|
        win = ComplexWindow.from_bounds(-0.3, 0.9, -0.3, 0.9, (8, 8))
        p, G = cho(1.0, 0.0), coupling_xx()
        f, value, _ = nonequality_certificate(p, G, win)
        reach = self.certificate_reach(win)
        grid = self.check_grid(p, G, 2.0, 32, reach, (f,))
        coarse = _SecondVariationGrid(p, poisson_bracket(p, G), 2.0, 16, reach)
        assert abs(value - grid.pair(f)) <= abs(grid.pair(f) - coarse.pair(f))

    def test_c4_grid_holds_only_the_kept_nodes(self):
        # over C4's certificate reach at order 48, 147,456 of the 48^4 nodes are kept
        cfg = DeformationSplitsConfig()
        win = ComplexWindow.from_bounds(*cfg.certificate_window, resolution=(8, 8))
        p = cho(1.0, 0.0)
        grid = _SecondVariationGrid(p, poisson_bracket(p, coupling_xx()), cfg.box_radius_second,
                                    cfg.quadrature_order, self.certificate_reach(win))
        arrays = {k: v.shape for k, v in vars(grid).items() if isinstance(v, np.ndarray)}
        assert arrays == {"vals": (147_456,), "weights": (147_456,)}

    def test_support_leaving_reach_rejected(self):
        p = cho(1.0, 0.0)
        grid = _SecondVariationGrid(p, poisson_bracket(p, coupling_xx()), 2.0, 8, self.REACH)
        for f in (TestFunction(0.7 + 0.3j, 0.25), TestFunction(0.3 - 0.7j, 0.2),
                  TestFunction(0.0, 1.0)):
            with pytest.raises(ValueError):
                grid.pair(f)


@st.composite
def grid_symbols(draw, n, real_coeffs, trig):
    """0 to 4 random terms, so the zero symbol is drawn too."""
    coeffs = (st.floats(-2.0, 2.0) if real_coeffs
              else st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                      allow_infinity=False))
    pows = st.tuples(*[st.integers(0, 3)] * n)
    freqs = st.tuples(*[st.sampled_from([-1.5, 0.0, 1.0] if trig else [0.0])] * n)
    sym = SymbolExpr.zero(n)
    for _ in range(draw(st.integers(0, 4))):
        sym = sym + SymbolExpr.monomial(draw(coeffs), draw(pows), draw(pows), n,
                                        xfreq=draw(freqs), xifreq=draw(freqs))
    return sym


class TestSlabs:
    """Sum-factorized slab values against evaluate at the slab's own points."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.booleans(), st.booleans(), st.data())
    def test_matches_evaluate_at_the_slab_points(self, n, real_coeffs, trig, data):
        sym = data.draw(grid_symbols(n, real_coeffs, trig))
        order = data.draw(st.integers(8, 12 if n < 3 else 8))

        def gross(x, xi):  # sum over terms of |term|
            return sum((np.abs(SymbolExpr((t,), n).evaluate(x, xi)) for t in sym.terms),
                       np.zeros(len(x)))

        # Where a term is subnormal, each rounding is off by up to half a
        # subnormal step, an absolute error that 1e-13 * scale underflows
        # below; a term takes a few roundings, scaled by at most its x
        # factors' largest value on the box, 1.3^deg_x.
        floor = sum(8 * 1.3 ** sum(t.xpow) for t in sym.terms) * \
            np.finfo(float).smallest_subnormal
        for w_rows, (got, want, scale), w_cols in _slabs(
                (sym, sym.evaluate, gross), n, 1.3, order):
            assert got.shape == want.shape == (order ** (n - 1), order ** n)
            assert w_rows.shape == got.shape[:1] and w_cols.shape == got.shape[1:]
            assert np.all(np.abs(got - want) <= 1e-13 * scale + floor)

    def test_zero_symbol_gives_zeros(self):
        zero = (1j * coupling_xx()).real_part_symbol()
        assert zero.terms == ()
        slabs = list(_slabs((zero,), 2, 1.0, 8))
        assert len(slabs) == 8
        assert all(v.shape == (8, 64) and not np.any(v) for _, (v,), _ in slabs)


class TestTracerContract:
    # bench/spans.py binds these arguments by name to count quadrature nodes
    @pytest.mark.parametrize("fn, names", [(_SecondVariationGrid.__init__, ("p", "order")),
                                           (tensor_quadrature, ("n", "order"))])
    def test_node_count_arguments(self, fn, names):
        assert set(names) <= set(inspect.signature(fn).parameters)


class TestIntegrationByParts:
    def test_identity_to_1e6_with_kink_aligned_quadrature(self):
        # integrable branch: rhs carries the bracket {p, conj p}, which
        # is the zero symbol for the oscillator, so the identity says
        # the lhs quadrature must vanish.  Polar panels split exactly at
        # the bump's action-circle kinks, leaving only the identity gap.
        f = TestFunction(0.5 + 0.5j, 0.3)
        breaks = (0.2, 0.8)  # support edges of both actions

        def quad(fn):
            return separable_polar_quadrature(fn, breaks, 1.6,
                                              order_r=24, order_theta=32)

        lhs, rhs = integration_by_parts_gap(f, cho(1.0, 0.0), coupling_xx(),
                                            None, quadrature=quad)
        assert rhs == 0
        # scale against the gross (unsigned) integrand
        p = cho(1.0, 0.0)
        hpg = poisson_bracket(p, coupling_xx())
        gross = quad(lambda x, xi: np.abs(bump_dz(f, p.evaluate(x, xi))
                                          * hpg.evaluate(x, xi)))
        assert abs(lhs) <= 1e-6 * max(gross, 1e-12)

    def test_identity_for_deformed_quadratic_box_rule(self):
        # nonzero-bracket branch: both sides are nonzero; the box rule
        # cannot align with the deformed kink surfaces so the comparison
        # is quadrature limited at the percent scale
        f = TestFunction(0.05 + 0.55j, 0.35)
        p_t = deformed_quadratic(make_deformed(0.2))
        lhs, rhs = integration_by_parts_gap(f, p_t, coupling_xx(), 2.6, 48)
        assert abs(rhs) > 0
        assert abs(lhs - rhs) <= 2e-2 * max(abs(rhs), 1e-6)


class TestTensorQuadrature:
    def test_separable_gaussianish(self):
        # product of (1 - u^2)^3 restricted to axes: exact 1-d values
        def fn(u):
            out = np.zeros_like(u)
            m = np.abs(u) < 1
            out[m] = (1 - u[m] ** 2) ** 3
            return out

        # integral of the 1-d bump times the xi-axis length; the kink at
        # |u| = 1 sits exactly on the panel edge so GL is exact here
        x1 = SymbolExpr.monomial(1.0, (1,), (0,), n=1)
        val = tensor_quadrature((x1,), fn, 1, 1.0, 48)
        assert val == pytest.approx((32 / 35) * 2.0, rel=1e-12)

    def test_too_large_grid_rejected(self):
        with pytest.raises(ValueError):
            tensor_quadrature((lambda x, xi: x[:, 0],), lambda v: v, 3, 1.0, 64)
