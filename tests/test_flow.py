import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsweyl import flow
from bsweyl.flow import (Deformation, DeformedSymbol, deformed_quadratic,
                         flow_points, integrate_flow, load_deformation,
                         symplectic_matrix)
from bsweyl.symbols import (PhasePoint, SymbolExpr, cho, coupling_xx,
                            eval_symbol, sin_x1_cos_xi2)

from oracles import (affine_flow_oracle, fd_gradient, quadratic_generator_matrix,
                     symbol_to_quadratic)


def rand_point(rng, scale=1.0):
    return PhasePoint.real(rng.uniform(-scale, scale, 2),
                           rng.uniform(-scale, scale, 2))


class TestIntegrateFlow:
    def test_zero_generator_is_identity(self):
        d = Deformation((SymbolExpr.zero(2),))
        rho = PhasePoint.real([0.3, -0.2], [0.1, 0.7])
        res = integrate_flow(d, 0.4, rho)
        assert np.allclose(res.endpoint.x, rho.x, atol=1e-14)
        assert np.allclose(res.endpoint.xi, rho.xi, atol=1e-14)
        assert np.allclose(res.jacobian, np.eye(4), atol=1e-14)
        assert res.canonical_defect <= 1e-12

    def test_linear_generator_closed_form(self):
        # G = a.x: x stays, xi(t) = xi - i t a
        a = np.array([0.8, -0.45])
        G = (SymbolExpr.monomial(a[0], (1, 0), (0, 0))
             + SymbolExpr.monomial(a[1], (0, 1), (0, 0)))
        d = Deformation((G,))
        rng = np.random.default_rng(5)
        for t in (0.17, -0.3):
            rho = rand_point(rng)
            res = integrate_flow(d, t, rho)
            assert np.max(np.abs(res.endpoint.x - rho.x)) <= 1e-10
            assert np.max(np.abs(res.endpoint.xi - (rho.xi - 1j * t * a))) <= 1e-10

    def test_quadratic_generator_matches_matrix_exponential(self):
        G = coupling_xx()
        d = Deformation((G,))
        A, b = quadratic_generator_matrix(G)
        rng = np.random.default_rng(6)
        rho = rand_point(rng)
        t = 0.25
        res = integrate_flow(d, t, rho)
        L, c = affine_flow_oracle(A, b, t)
        want = L @ np.concatenate([rho.x, rho.xi]) + c
        got = np.concatenate([res.endpoint.x, res.endpoint.xi])
        assert np.max(np.abs(got - want)) <= 1e-8
        assert np.max(np.abs(res.jacobian - L)) <= 1e-8

    @pytest.mark.parametrize("t", [1e-15, 0.3682478300748469])
    def test_tiny_last_step_is_no_underflow(self, t):
        # 0.1 + (t - 0.1) falls one ulp short of t = 0.36824..., so the run
        # ends with a step of about 5e-17; t = 1e-15 is one such step
        d = Deformation((sin_x1_cos_xi2(tube_radius=8.0),))
        rho = PhasePoint.real([0.3, -0.2], [0.1, 0.7])
        res = integrate_flow(d, t, rho)
        back = integrate_flow(d, -t, res.endpoint).endpoint
        assert np.max(np.abs(np.concatenate([back.x - rho.x, back.xi - rho.xi]))) <= 1e-8

    def test_clipped_last_step_lands_on_t1(self):
        # 0.1 + (t - 0.1) falls one ulp short of t = 0.36824...; the clipped
        # step still ends the run, as at t = 0.37, with no ~5e-17 sliver step
        d = Deformation((sin_x1_cos_xi2(),))
        rho = PhasePoint.real([0.3, -0.2], [0.1, 0.7])
        assert integrate_flow(d, 0.3682478300748469, rho).n_steps == 2
        assert integrate_flow(d, 0.37, rho).n_steps == 2

    def test_t_max_enforced(self):
        d = Deformation((coupling_xx(),), t_max=0.1)
        with pytest.raises(ValueError):
            integrate_flow(d, 0.2, PhasePoint.zero(2))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_rejected(self, t):
        # abs(nan) > t_max is False, and a NaN span takes no RK45 step: unchecked,
        # t = NaN would give the base symbol and a certified zero-step flow
        d = Deformation((coupling_xx(),))
        with pytest.raises(ValueError, match="t_max"):
            integrate_flow(d, t, PhasePoint.zero(2))
        with pytest.raises(ValueError, match="t_max"):
            DeformedSymbol(cho(1.0, 0.0), d, t)


class TestFlowInvariants:
    def test_group_property(self):
        d = Deformation((coupling_xx(),))
        rng = np.random.default_rng(8)
        rho = rand_point(rng)
        t1, t2 = 0.15, 0.2
        mid = integrate_flow(d, t1, rho).endpoint
        two_leg = integrate_flow(d, t2, mid).endpoint
        direct = integrate_flow(d, t1 + t2, rho).endpoint
        dist = np.max(np.abs(np.concatenate([two_leg.x - direct.x,
                                             two_leg.xi - direct.xi])))
        assert dist <= 1e-8

    def test_reversibility(self):
        for G in (coupling_xx(), sin_x1_cos_xi2(tube_radius=8.0)):
            d = Deformation((G,))
            rng = np.random.default_rng(9)
            rho = rand_point(rng)
            fwd = integrate_flow(d, 0.3, rho).endpoint
            back = integrate_flow(d, -0.3, PhasePoint(fwd.x, fwd.xi)).endpoint
            dist = np.max(np.abs(np.concatenate([back.x - rho.x,
                                                 back.xi - rho.xi])))
            assert dist <= 1e-8

    def test_canonicality_at_random_points(self):
        rng = np.random.default_rng(10)
        for G in (coupling_xx(), sin_x1_cos_xi2(tube_radius=8.0)):
            d = Deformation((G,))
            for _ in range(10):
                rho = rand_point(rng)
                t = rng.uniform(-0.3, 0.3)
                res = integrate_flow(d, t, rho)
                assert res.canonical_defect <= 1e-8

    def test_canonicality_nonshear_generator(self):
        # the built-in generators produce shear flows whose Jacobians are
        # exactly symplectic; a quartic generator, and sin x1 cos xi1, which
        # moves x1 and xi1 together, give genuinely nonlinear variational
        # equations, so this bounds integrator error
        quartic = (SymbolExpr.monomial(0.3, (2, 0), (2, 0))
                   + SymbolExpr.monomial(0.2, (0, 2), (0, 1)))
        rng = np.random.default_rng(20)
        for G in (quartic, _sin_x1_cos_xi1()):
            d = Deformation((G,), tol=1e-10)
            for _ in range(5):
                rho = rand_point(rng)
                res = integrate_flow(d, rng.uniform(-0.3, 0.3), rho)
                assert 0 < res.canonical_defect <= 100 * d.tol

    def test_symplectic_form_preserved_exactly_for_quadratic(self):
        d = Deformation((coupling_xx(),))
        res = integrate_flow(d, 0.3, PhasePoint.real([0.5, -0.1], [0.2, 0.4]))
        Om = symplectic_matrix(2)
        gap = np.linalg.norm(res.jacobian.T @ Om @ res.jacobian - Om, 2)
        assert gap <= 100 * d.tol

    def test_tube_excursion_warns(self):
        G = coupling_xx(tube_radius=0.05)
        d = Deformation((G,))
        with pytest.warns(RuntimeWarning):
            res = integrate_flow(d, 0.4, PhasePoint.real([2.0, 2.0], [0.0, 0.0]))
        assert not res.certified


def _sin_x1_cos_xi1():
    sin_x1 = (SymbolExpr.monomial(-0.5j, (0, 0), (0, 0), tube_radius=8.0, xfreq=(1, 0))
              + SymbolExpr.monomial(0.5j, (0, 0), (0, 0), tube_radius=8.0, xfreq=(-1, 0)))
    cos_xi1 = (SymbolExpr.monomial(0.5, (0, 0), (0, 0), tube_radius=8.0, xifreq=(1, 0))
               + SymbolExpr.monomial(0.5, (0, 0), (0, 0), tube_radius=8.0, xifreq=(-1, 0)))
    return sin_x1 * cos_xi1


def _t_family():
    g = sin_x1_cos_xi2(tube_radius=8.0)
    return load_deformation({"G": [g, g], "t_poly_degree": 1})


VELOCITY_CASES = {
    "coupling_xx": lambda: Deformation((coupling_xx(),)),
    "sin_x1_cos_xi2": lambda: Deformation((sin_x1_cos_xi2(tube_radius=8.0),)),
    "t_family": _t_family,
}


def _complex_points(seed, m=5):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1, 1, (m, 2)) + 0.2j * rng.uniform(-1, 1, (m, 2)),
            rng.uniform(-1, 1, (m, 2)) + 0.2j * rng.uniform(-1, 1, (m, 2)))


class TestVelocity:
    T = 0.3

    @pytest.mark.parametrize("case", sorted(VELOCITY_CASES))
    def test_velocity_is_i_hamilton_field(self, case):
        # V = (i dG_t/dxi, -i dG_t/dx) with G_t = sum_m t^m G_m
        d = VELOCITY_CASES[case]()
        x, xi = _complex_points(1)
        vx, vxi = d.velocity(self.T, x, xi)
        for i in range(len(x)):
            gx = gxi = 0
            for m, g in enumerate(d.generators):
                ox, oxi = fd_gradient(g, x[i], xi[i])
                gx, gxi = gx + self.T ** m * ox, gxi + self.T ** m * oxi
            assert np.max(np.abs(vx[i] - 1j * gxi)) <= 1e-8
            assert np.max(np.abs(vxi[i] + 1j * gx)) <= 1e-8

    @pytest.mark.parametrize("case", sorted(VELOCITY_CASES))
    def test_jacobian_matches_central_differences(self, case):
        d = VELOCITY_CASES[case]()
        x, xi = _complex_points(2)
        A = d.velocity_jacobian(self.T, x, xi)
        assert A.shape == (len(x), 4, 4)
        h = 1e-5
        for k in range(4):
            e = np.zeros((1, 4))
            e[0, k] = h

            def v(s):
                return np.concatenate(d.velocity(self.T, x + s * e[:, :2],
                                                 xi + s * e[:, 2:]), axis=-1)

            fd = (v(1) - v(-1)) / (2 * h)
            assert np.max(np.abs(A[..., k] - fd)) <= 1e-8

    def test_zero_derivatives_are_not_evaluated(self, monkeypatch):
        # dG/dx2 and dG/dxi1 of sin x1 cos xi2 are the zero symbol
        d = VELOCITY_CASES["sin_x1_cos_xi2"]()
        assert sum(not g.terms for g in d.generators[0].grad_symbols) == 2
        seen = []
        evaluate = SymbolExpr.evaluate

        def recording(self, x, xi):
            seen.append(self)
            return evaluate(self, x, xi)

        monkeypatch.setattr(SymbolExpr, "evaluate", recording)
        d.velocity(self.T, *_complex_points(3))
        assert len(seen) == 2 and all(sym.terms for sym in seen)

    def test_repeat_flow_builds_no_symbols(self, monkeypatch):
        G = sin_x1_cos_xi2(tube_radius=8.0)
        rho = PhasePoint.real([0.3, -0.2], [0.1, 0.7])
        integrate_flow(Deformation((G,)), 0.2, rho)  # builds G's derivative symbols
        calls = []
        simplified = SymbolExpr.simplified

        def counting(self):
            calls.append(self)
            return simplified(self)

        monkeypatch.setattr(SymbolExpr, "simplified", counting)
        integrate_flow(Deformation((G,)), 0.2, rho)
        assert not calls


class TestDeformedSymbol:
    def test_t_zero_equals_base(self):
        base = cho(1.0, complex(0.5, 0.5))
        ps = DeformedSymbol(base, Deformation((coupling_xx(),)), 0.0)
        rng = np.random.default_rng(12)
        for _ in range(5):
            rho = rand_point(rng)
            assert complex(ps.evaluate(rho.x, rho.xi)) == pytest.approx(
                eval_symbol(base, rho), rel=1e-12, abs=1e-12)

    def test_quadratic_closed_form_matches_ode_path(self):
        base = cho(1.0, complex(0.5, 0.5))
        d = Deformation((coupling_xx(),))
        ps = DeformedSymbol(base, d, 0.2)
        pq = deformed_quadratic(ps)
        rng = np.random.default_rng(13)
        x = rng.uniform(-1.5, 1.5, (100, 2)).astype(complex)
        xi = rng.uniform(-1.5, 1.5, (100, 2)).astype(complex)
        xe, xie, _ = flow_points(d, 0.2, x, xi)
        want = base.evaluate(xe, xie)
        got = pq.evaluate(x, xi)
        scale = np.maximum(np.abs(want), 1.0)
        assert np.max(np.abs(got - want) / scale) <= 1e-8

    def test_deformed_quadratic_identity_cases(self):
        base = cho(1.0, 0.0)
        dzero = Deformation((SymbolExpr.zero(2),))
        assert deformed_quadratic(DeformedSymbol(base, dzero, 0.3)).terms == \
            base.simplified().terms
        d = Deformation((coupling_xx(),))
        assert deformed_quadratic(DeformedSymbol(base, d, 0.0)).terms == \
            base.simplified().terms

    def test_deformed_quadratic_rejects_trig(self):
        base = cho(1.0, 0.0)
        d = Deformation((sin_x1_cos_xi2(tube_radius=8.0),))
        with pytest.raises(ValueError):
            deformed_quadratic(DeformedSymbol(base, d, 0.1))

    def test_nonquadratic_generator_ode_route(self):
        # trig generator: evaluation goes through the flow; t = 0 stays exact
        base = cho(1.0, 0.0)
        d = Deformation((sin_x1_cos_xi2(tube_radius=8.0),))
        ps = DeformedSymbol(base, d, 0.1)
        rho = PhasePoint.real([0.4, -0.2], [0.3, 0.1])
        v0 = eval_symbol(base, rho)
        vt = complex(ps.evaluate(rho.x, rho.xi))
        assert vt != pytest.approx(v0, rel=1e-6)  # the flow actually moves


BOUND_CASES = {
    "sin_x1_cos_xi2": lambda: Deformation((sin_x1_cos_xi2(tube_radius=8.0),)),
    "t_family": _t_family,
    "cubic": lambda: Deformation((SymbolExpr.monomial(0.3, (2, 0), (0, 1))
                                  + SymbolExpr.monomial(0.2, (0, 1), (1, 1)),)),
}


class TestDisplacementBound:
    """B(rho) bounds |p_t(rho) - p(rho)| wherever it is finite."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(BOUND_CASES)),
           st.floats(0.01, 0.4) | st.floats(-0.4, -0.01), st.integers(0, 2 ** 32 - 1))
    def test_bounds_the_deformation(self, case, t, seed):
        base = cho(1.0, 0.5 + 0.5j) + sin_x1_cos_xi2(tube_radius=8.0) * 0.3
        ps = DeformedSymbol(base, BOUND_CASES[case](), t)
        q = np.random.default_rng(seed).uniform(-2.0, 2.0, (8, 4))
        x, xi = q[:, :2], q[:, 2:]
        bound = ps.displacement_bound(x, xi)
        moved = np.abs(ps.evaluate(x, xi) - base.evaluate(x, xi))
        assert bound.shape == (8,)
        # the integrator's error (tolerance 1e-10) is the only slack allowed
        assert np.all(moved <= bound + 1e-8)

    def test_trig_speed_traps_every_path(self):
        # sin x1 cos xi2 has speed at most cosh^2 r on K_r wherever rho is, so
        # r = 0.2 cosh^2 r (about 0.21) certifies far-out points too
        ps = DeformedSymbol(cho(1.0, 0.0), BOUND_CASES["sin_x1_cos_xi2"](), 0.2)
        x = np.array([[0.0, 0.0], [50.0, -50.0]])
        bound = ps.displacement_bound(x, x)
        assert np.all(np.isfinite(bound)) and bound[0] < 0.13


class TestQuadraticConversion:
    def test_round_trip(self):
        # every monomial of degree <= 2, split into (Q, l, c) and evaluated back
        rng = np.random.default_rng(14)
        sym = SymbolExpr.zero(2)
        for e in itertools.product(range(3), repeat=4):
            if sum(e) <= 2:
                sym = sym + SymbolExpr.monomial(
                    complex(*rng.standard_normal(2)), e[:2], e[2:])
        Q, l, c = symbol_to_quadratic(sym)
        assert np.array_equal(Q, Q.T)
        rho = rng.uniform(-1, 1, (20, 4)) + 1j * rng.uniform(-1, 1, (20, 4))
        want = 0.5 * np.einsum("mi,ij,mj->m", rho, Q, rho) + rho @ l + c
        got = sym.evaluate(rho[:, :2], rho[:, 2:])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _quartic():
    """The curved-lattice base I1 + i I2 + 0.3 I1 I2, with I_j = (x_j^2 + xi_j^2)/2."""
    I1 = (SymbolExpr.monomial(0.5, (2, 0), (0, 0))
          + SymbolExpr.monomial(0.5, (0, 0), (2, 0)))
    I2 = (SymbolExpr.monomial(0.5, (0, 2), (0, 0))
          + SymbolExpr.monomial(0.5, (0, 0), (0, 2)))
    return I1 + 1j * I2 + 0.3 * I1 * I2


def _quadratic_t_family():
    """G_t = x1 x2 + t (xi1 xi2 / 2 + x1 - 0.3 xi2): affine flow with b != 0."""
    g1 = (SymbolExpr.monomial(0.5, (0, 0), (1, 1)) + SymbolExpr.monomial(1.0, (1, 0), (0, 0))
          + SymbolExpr.monomial(-0.3, (0, 0), (0, 1)))
    return Deformation((coupling_xx(), g1))


FLOWS_CASES = {
    # (base, deformation, t) -> whether DeformedSymbol.flows
    "trig base": (lambda: (cho(1.0, 0.0) + 0.3 * sin_x1_cos_xi2(tube_radius=8.0),
                           Deformation((coupling_xx(),)), 0.2), True),
    "cubic G": (lambda: (cho(1.0, 0.0), Deformation((SymbolExpr.monomial(0.3, (2, 0), (0, 1)),)),
                         0.2), True),
    "trig t-family": (lambda: (cho(1.0, 0.0), Deformation(
        (coupling_xx(), sin_x1_cos_xi2(tube_radius=8.0))), 0.2), True),
    "quadratic t-family": (lambda: (cho(1.0, 0.0), _quadratic_t_family(), 0.2), False),
    "quartic base": (lambda: (_quartic(), Deformation((coupling_xx(),)), 0.2), False),
    "t = 0": (lambda: (cho(1.0, 0.0) + 0.3 * sin_x1_cos_xi2(tube_radius=8.0),
                       Deformation((sin_x1_cos_xi2(tube_radius=8.0),)), 0.0), False),
}


class TestClosedForm:
    """p_t = p o (L rho + b) wherever the generator family has degree <= 2."""

    @pytest.mark.parametrize("case", sorted(FLOWS_CASES))
    def test_flows_truth_table(self, case):
        build, flows = FLOWS_CASES[case]
        ps = DeformedSymbol(*build())
        assert ps.flows is flows
        if flows:
            with pytest.raises(ValueError):
                ps.closed

    @pytest.mark.parametrize("case, tol", [("quartic base", 1e-12),
                                           ("quadratic t-family", 1e-10)])
    def test_closed_matches_flowed_base(self, case, tol):
        # the t-family's flow is not polynomial in t, so RK45's tolerance shows
        base, d, t = FLOWS_CASES[case][0]()
        closed = DeformedSymbol(base, d, t).closed
        rng = np.random.default_rng(15)
        x = rng.uniform(-1.5, 1.5, (200, 2)) + 0.3j * rng.uniform(-1, 1, (200, 2))
        xi = rng.uniform(-1.5, 1.5, (200, 2)) + 0.3j * rng.uniform(-1, 1, (200, 2))
        want = base.evaluate(*flow_points(d, t, x, xi)[:2])
        got = closed.evaluate(x, xi)
        assert np.max(np.abs(got - want) / np.abs(want)) <= tol

    def test_closed_is_built_once(self, monkeypatch):
        # one RK45 run from the origin, and none per evaluation
        base, d, t = FLOWS_CASES["quartic base"][0]()
        ps = DeformedSymbol(base, d, t)
        calls = []
        rk45 = flow._rk45

        def counting(*args):
            calls.append(1)
            return rk45(*args)

        monkeypatch.setattr(flow, "_rk45", counting)
        x, xi = np.random.default_rng(16).uniform(-1, 1, (2, 1000, 2))
        for _ in range(3):
            ps.evaluate(x, xi)
        assert ps.closed is deformed_quadratic(ps)
        assert len(calls) == 1


class TestDeformationJSON:
    def test_load_single_generator(self):
        d = load_deformation({"G": "coupling-xx", "tol": 1e-9})
        assert d.tol == 1e-9
        assert len(d.generators) == 1

    def test_load_t_family(self):
        g = coupling_xx().to_json_dict()
        d = load_deformation({"G": [g, g], "t_poly_degree": 1})
        assert len(d.generators) == 2

    def test_degree_mismatch_rejected(self):
        g = coupling_xx().to_json_dict()
        with pytest.raises(ValueError):
            load_deformation({"G": [g], "t_poly_degree": 2})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            load_deformation({"G": "coupling-xx", "speed": 3})
