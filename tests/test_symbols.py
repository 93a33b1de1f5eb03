import gc
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsweyl.symbols import (DimensionMismatchError, PhasePoint, SymbolExpr,
                            SymbolJSONError, cho, coupling_xx, eval_symbol,
                            gradient, load_symbol, poisson_bracket,
                            real_bracket, sin_x1_cos_xi2, symbol_from_name,
                            torus_coupled, torus_linear)
from bsweyl.symbols import _parse_scalar

from oracles import (eval_term_by_term, evaluate_reference, fd_gradient,
                     real_bracket_from_gradient, symbol_to_quadratic)
from test_properties import symbols


def random_symbol(rng, n=2, n_terms=3, with_trig=True):
    terms = []
    for _ in range(n_terms):
        coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        xpow = tuple(int(rng.integers(0, 3)) for _ in range(n))
        xipow = tuple(int(rng.integers(0, 3)) for _ in range(n))
        if with_trig:
            xfreq = tuple(float(rng.integers(-1, 2)) for _ in range(n))
            xifreq = tuple(float(rng.integers(-1, 2)) for _ in range(n))
        else:
            xfreq = xifreq = (0.0,) * n
        terms.append(SymbolExpr.monomial(coeff, xpow, xipow, n,
                                         xfreq=xfreq, xifreq=xifreq))
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


class TestEval:
    def test_cho_direct_substitution(self):
        p = cho(1.0, complex(0.5, 0.5))
        rho = PhasePoint.real([1.0, 0.0], [0.0, 1.0])
        # ((1+0)/2 + i(0+1)/2) - (1+i)/2 = 0; without the shift it is .5+.5i
        assert eval_symbol(p, rho) == pytest.approx(0.0)
        p0 = cho(1.0, 0.0)
        assert eval_symbol(p0, rho) == pytest.approx(0.5 + 0.5j)

    def test_zero_point(self):
        p = cho(1.0, 0.0)
        assert eval_symbol(p, PhasePoint.zero(2)) == 0.0

    def test_matches_term_by_term_oracle_at_complex_points(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            sym = random_symbol(rng)
            x = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
            xi = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
            got = complex(sym.evaluate(x, xi))
            want = eval_term_by_term(sym, x, xi)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14)

    def test_dimension_mismatch_rejected(self):
        p = cho(1.0, 0.0)
        rho = PhasePoint.real([1.0], [0.0])
        with pytest.raises(DimensionMismatchError):
            eval_symbol(p, rho)

    def test_outside_tube_warns_not_fails(self):
        p = SymbolExpr.monomial(1.0, (1, 0), (0, 0), tube_radius=0.5)
        rho = PhasePoint([1.0 + 1.0j, 0.0], [0.0, 0.0])
        with pytest.warns(RuntimeWarning):
            val = eval_symbol(p, rho)
        assert val == pytest.approx(1.0 + 1.0j)


class TestEvaluationPlan:
    """The compiled evaluate against the term-by-term oracles."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.sampled_from(["real", "complex", "mixed"]), st.data())
    def test_matches_oracles(self, n, kind, data):
        sym = data.draw(symbols(n=n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # a broadcast pair: x varies along the first axis, xi along the second
        x = rng.uniform(-1.5, 1.5, (5, 1, n))
        xi = rng.uniform(-1.5, 1.5, (1, 4, n))
        if kind != "real":
            xi = xi + 1j * rng.uniform(-0.5, 0.5, xi.shape)
        if kind == "complex":
            x = x + 1j * rng.uniform(-0.5, 0.5, x.shape)
        got = sym.evaluate(x, xi)
        assert got.dtype == complex and got.shape == (5, 4)
        scale = sum(np.abs(evaluate_reference(SymbolExpr((t,), n), x, xi))
                    for t in sym.terms)
        assert np.all(np.abs(got - evaluate_reference(sym, x, xi)) <= 1e-14 * scale)
        for i in range(5):
            for j in range(4):
                want = eval_term_by_term(sym, x[i, 0], xi[0, j])
                assert abs(got[i, j] - want) <= 1e-14 * scale[i, j]

    @pytest.mark.parametrize("shape", [(2,), (3, 2)])
    def test_real_points_give_complex_broadcast_result(self, shape):
        x = np.ones(shape)
        vals = coupling_xx().evaluate(x, 2 * x)
        assert vals.dtype == complex and vals.shape == shape[:-1]
        assert np.all(vals == 1.0)

    def test_zero_symbol_gives_zeros(self):
        vals = SymbolExpr.zero(2).evaluate(np.ones((5, 1, 2)), np.ones((1, 4, 2)) + 1j)
        assert vals.dtype == complex and vals.shape == (5, 4)
        assert not np.any(vals)

    @pytest.mark.parametrize("path", ["real", "phase", "complex"])
    def test_out_takes_the_result_bitwise(self, path):
        # real points with no phase sum into out's parts; a phase, or complex
        # points, sum into out itself, with the real terms' sums added last
        p = cho(1.0, 0.5j) + 0.3 * coupling_xx()
        if path == "phase":
            p = p + sin_x1_cos_xi2()
        rng = np.random.default_rng(7)
        x, xi = rng.uniform(-1.5, 1.5, (2, 1000, 2))
        if path == "complex":
            xi = xi + 1j * rng.uniform(-0.5, 0.5, xi.shape)
        buf = np.full(1200, complex(np.nan, np.nan))  # not zeroed
        out = buf[:1000]  # a view, as a shard's ragged last block is
        assert p.evaluate(x, xi, out=out) is out
        assert out.tobytes() == p.evaluate(x, xi).tobytes()
        with pytest.raises(ValueError, match="shape"):
            p.evaluate(x, xi, out=buf[:999])

    def test_leaves_no_reference_cycle(self):
        # tables kept alive by a cycle would outlive the call until the cyclic GC runs
        p = torus_coupled(0.3) * cho(1.0, 0.5j) + sin_x1_cos_xi2()
        rng = np.random.default_rng(5)
        x, xi = rng.uniform(-1, 1, (2, 100_000, 2))
        gc.collect()
        gc.disable()
        try:
            p.evaluate(x, xi)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBoxSup:
    """box_sup bounds |sym| on K_r(rho) = {|Re z - rho| <= r, |Im z| <= r}."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.booleans(), st.data())
    def test_bounds_every_point_of_the_box(self, n, per_point_r, data):
        sym = data.draw(symbols(n=n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x, xi = rng.uniform(-1.5, 1.5, (2, 6, 1, n))
        r = rng.uniform(0, 1, (6, 1)) if per_point_r else rng.uniform(0, 1)
        bound = np.broadcast_to(sym.box_sup(x, xi, r), (6, 1))
        # 40 points of each box, the first 8 on its corners
        u, v = rng.uniform(-1, 1, (2, 2, 40, 2 * n))
        u[:, :8], v[:, :8] = np.sign(u[:, :8]), np.sign(v[:, :8])
        r = np.asarray(r)[..., None]
        vals = sym.evaluate(x + r * (u[0, :, :n] + 1j * v[0, :, :n]),
                            xi + r * (u[1, :, n:] + 1j * v[1, :, n:]))
        assert vals.shape == (6, 40)
        assert np.all(np.abs(vals) <= bound * (1 + 1e-12))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_one_term_bound_is_reached_at_a_corner(self, n, data):
        term = data.draw(symbols(max_terms=1, n=n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x, xi = rng.uniform(-1.5, 1.5, (2, n))
        r = rng.uniform(0, 1)
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=4 * n)))
        shift = r * (corners[:, :2 * n] + 1j * corners[:, 2 * n:])
        vals = term.evaluate(x + np.sign(x) * shift[:, :n], xi + np.sign(xi) * shift[:, n:])
        assert np.max(np.abs(vals)) == pytest.approx(float(term.box_sup(x, xi, r)), rel=1e-12)

    def test_trig_generator_gives_cosh_squared(self):
        # the vertex maximum keeps sin x1 cos xi2 at cosh^2 r, where bounding
        # each term by e^{|f| r} would give e^{2r}
        for r in (0.0, 0.2, 1.5):
            sup = sin_x1_cos_xi2().box_sup(np.zeros(2), np.zeros(2), r)
            assert sup.shape == () and sup == pytest.approx(np.cosh(r) ** 2, rel=1e-15)


class TestGradient:
    def test_product_rule_example(self):
        p = SymbolExpr.monomial(1.0, (1, 0), (0, 0)) * \
            SymbolExpr.monomial(1.0, (0, 0), (1, 0))
        rho = PhasePoint.real([2.0, 0.0], [3.0, 0.0])
        gx, gxi = gradient(p, rho)
        assert gx == pytest.approx([3.0, 0.0])
        assert gxi == pytest.approx([2.0, 0.0])

    def test_constant_symbol(self):
        p = SymbolExpr.constant(2.5 - 1j)
        gx, gxi = gradient(p, PhasePoint.real([0.3, 0.1], [0.0, -0.2]))
        assert np.all(gx == 0) and np.all(gxi == 0)

    def test_trig_term_matches_central_difference(self):
        rng = np.random.default_rng(3)
        sym = SymbolExpr.monomial(1.0, (0, 0), (0, 0),
                                  xfreq=(1.0, 0.0), xifreq=(0.0, 1.0))
        x = rng.uniform(-1, 1, 2)
        xi = rng.uniform(-1, 1, 2)
        gx, gxi = gradient(sym, PhasePoint.real(x, xi))
        ox, oxi = fd_gradient(sym, x, xi)
        assert np.max(np.abs(gx - ox)) <= 1e-6 * max(1.0, np.max(np.abs(ox)))
        assert np.max(np.abs(gxi - oxi)) <= 1e-6 * max(1.0, np.max(np.abs(oxi)))

    def test_random_symbols_match_fd(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            sym = random_symbol(rng)
            x = rng.uniform(-1, 1, 2)
            xi = rng.uniform(-1, 1, 2)
            gx, gxi = gradient(sym, PhasePoint.real(x, xi))
            ox, oxi = fd_gradient(sym, x, xi)
            scale = max(1.0, np.max(np.abs(ox)), np.max(np.abs(oxi)))
            assert np.max(np.abs(gx - ox)) <= 1e-6 * scale
            assert np.max(np.abs(gxi - oxi)) <= 1e-6 * scale


    def test_batched_grad_matches_fd(self):
        rng = np.random.default_rng(12)
        sym = random_symbol(rng)
        x = rng.uniform(-1, 1, (3, 2)) + 0.1j * rng.uniform(-1, 1, (3, 2))
        xi = rng.uniform(-1, 1, (3, 2))
        g = sym.grad(x, xi)
        assert g.shape == (3, 4)
        assert sym.grad_symbols is sym.grad_symbols
        for i in range(3):
            ox, oxi = fd_gradient(sym, x[i], xi[i])
            scale = max(1.0, np.max(np.abs(ox)), np.max(np.abs(oxi)))
            assert np.max(np.abs(g[i] - np.concatenate([ox, oxi]))) <= 1e-6 * scale


class TestBracket:
    def test_canonical_pair(self):
        xi1 = SymbolExpr.monomial(1.0, (0, 0), (1, 0))
        x1 = SymbolExpr.monomial(1.0, (1, 0), (0, 0))
        b = poisson_bracket(xi1, x1)
        assert len(b.terms) == 1
        assert complex(b.evaluate(np.zeros((1, 2)), np.zeros((1, 2)))[0]) == 1.0

    def test_cho_real_bracket_identically_zero(self):
        assert real_bracket(cho(1.0, complex(0.5, 0.5))).is_zero

    def test_real_bracket_linear_model(self):
        # p = xi1 + i x1 in one dimension: {Re p, Im p} = {xi1, x1} = 1
        p = (SymbolExpr.monomial(1.0, (0,), (1,), n=1)
             + SymbolExpr.monomial(1j, (1,), (0,), n=1))
        b = real_bracket(p)
        val = complex(b.evaluate(np.zeros((1, 1)), np.zeros((1, 1)))[0])
        assert val == pytest.approx(1.0)

    def test_deformed_bracket_matches_gradient_formula(self):
        # (i/2){p_t, conj p_t} against the direct real-gradient formula
        from bsweyl.flow import Deformation, DeformedSymbol, deformed_quadratic
        p_t = deformed_quadratic(
            DeformedSymbol(cho(1.0, 0.0), Deformation((coupling_xx(),)), 0.2))
        br = real_bracket(p_t)
        assert not br.is_zero
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, 2)
            xi = rng.uniform(-1.5, 1.5, 2)
            got = complex(br.evaluate(x[None, :].astype(complex),
                                      xi[None, :].astype(complex))[0])
            want = real_bracket_from_gradient(p_t, x, xi)
            assert got.real == pytest.approx(want, rel=1e-10, abs=1e-12)
            assert abs(got.imag) <= 1e-12

    def test_integrable_torus_bracket_zero(self):
        assert real_bracket(torus_coupled(0.3)).is_zero

    def test_real_bracket_nonzero_after_deformation(self):
        from bsweyl.flow import Deformation, DeformedSymbol, deformed_quadratic
        p_t = deformed_quadratic(
            DeformedSymbol(cho(1.0, 0.0), Deformation((coupling_xx(),)), 0.2))
        vals = real_bracket(p_t).evaluate(np.array([[1.0, 1.0]], dtype=complex),
                                          np.array([[0.5, -0.5]], dtype=complex))
        assert np.abs(vals[0].real) > 0


class TestComposeAffine:
    """p o (L rho + b) at random complex L, b and points, against the definitions."""

    @staticmethod
    def _case(seed):
        rng = np.random.default_rng(seed)
        L = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = rng.uniform(-1, 1, (30, 4)) + 1j * rng.uniform(-1, 1, (30, 4))
        return rng, L, b, rho, rho @ L.T + b

    def test_quadratic_matches_quadratic_form(self):
        rng, L, b, rho, y = self._case(31)
        p = SymbolExpr.zero(2)
        for e in itertools.product(range(3), repeat=4):
            if sum(e) <= 2:
                p = p + SymbolExpr.monomial(complex(*rng.standard_normal(2)), e[:2], e[2:])
        Q, l, c = symbol_to_quadratic(p)
        want = 0.5 * np.einsum("mi,ij,mj->m", y, Q, y) + y @ l + c
        got = p.compose_affine(L, b).evaluate(rho[:, :2], rho[:, 2:])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("xpow, xipow", [((2, 0), (0, 1)), ((0, 3), (0, 0)),
                                             ((1, 1), (1, 1)), ((4, 0), (0, 0)),
                                             ((0, 1), (0, 3))],
                             ids=["x1^2 xi2", "x2^3", "x1 x2 xi1 xi2", "x1^4", "x2 xi2^3"])
    def test_monomial_matches_mapped_points(self, xpow, xipow):
        _, L, b, rho, y = self._case(32)
        p = SymbolExpr.monomial(0.7 - 0.2j, xpow, xipow)
        q = p.compose_affine(L, b)
        want = p.evaluate(y[:, :2], y[:, 2:])
        got = q.evaluate(rho[:, :2], rho[:, 2:])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # numpy scalars in Terms slow every later product and evaluation
        assert all(type(t.coeff) is complex and all(type(e) is int for e in t.xpow + t.xipow)
                   for t in q.terms)

    def test_trig_symbol_raises(self):
        with pytest.raises(ValueError, match="polynomial"):
            sin_x1_cos_xi2().compose_affine(np.eye(4), np.zeros(4))


class TestConjugation:
    def test_holomorphy_identity_random_points(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            sym = random_symbol(rng)
            x = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
            xi = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
            lhs = complex(sym.conjugate_symbol().evaluate(x.conj(), xi.conj()))
            rhs = np.conj(complex(sym.evaluate(x, xi)))
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_real_on_reals_detection(self):
        assert coupling_xx().is_real_on_reals()
        assert sin_x1_cos_xi2().is_real_on_reals()
        assert not cho(1.0, 0.0).is_real_on_reals()


class TestJSON:
    def test_round_trip(self):
        p = torus_coupled(0.3)
        q = load_symbol(p.to_json_dict())
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (5, 2))
        xi = rng.uniform(-1, 1, (5, 2))
        assert np.allclose(p.evaluate(x, xi), q.evaluate(x, xi), rtol=0, atol=0)

    def test_builtin_names(self):
        p = symbol_from_name("cho(1,(1+i)/2)")
        rho = PhasePoint.real([1.0, 0.0], [0.0, 1.0])
        assert eval_symbol(p, rho) == pytest.approx(0.0)
        assert symbol_from_name("torus-linear").n == 2
        assert real_bracket(symbol_from_name("torus-coupled(0.3)")).is_zero

    def test_validation_reports_all_errors(self):
        bad = {"n": 2, "bogus": 1,
               "terms": [{"re": 1.0, "xpow": [1], "mystery": 2}],
               "tube_radius": -1}
        with pytest.raises(SymbolJSONError) as exc:
            load_symbol(bad)
        msgs = exc.value.errors
        assert any("bogus" in m for m in msgs)
        assert any("tube_radius" in m for m in msgs)
        assert any("mystery" in m for m in msgs)
        assert any("xpow" in m for m in msgs)

    def test_malformed_json_text(self):
        with pytest.raises(SymbolJSONError) as exc:
            load_symbol('{"n": 2,,}')
        assert any("line" in m for m in exc.value.errors)


class TestScalarParser:
    @pytest.mark.parametrize("spec, want", [
        ("cho(1,(1+i)/2)", cho(1.0, 0.5 + 0.5j)),
        ("cho(1,0)", cho(1.0, 0.0)),
        ("cho(2,0)", cho(2.0, 0.0)),
        ("torus-linear", torus_linear()),
        ("torus-coupled(0.3)", torus_coupled(0.3)),
        ("coupling-xx", coupling_xx()),
        ("sin-x1-cos-xi2", sin_x1_cos_xi2()),
    ])
    def test_builtin_specs_unchanged(self, spec, want):
        assert symbol_from_name(spec) == want

    @pytest.mark.parametrize("expr, want", [
        ("(1+i)/2", 0.5 + 0.5j), ("-0.5i", -0.5j), ("1e-3", 1e-3),
        ("2*i + 1", 1 + 2j), ("-(1 - 2i)", -1 + 2j), ("+3", 3),
    ])
    def test_arithmetic(self, expr, want):
        assert _parse_scalar(expr) == want

    def test_power_rejected(self):
        with pytest.raises(SymbolJSONError):
            symbol_from_name("cho(2**3)")

    @pytest.mark.parametrize("expr", [
        # the walker rejects the power node before computing either side
        "9**9**9", "abs(1)", "__import__('os')", "x", "[1]", "1,2", "", "1/0",
    ])
    def test_non_arithmetic_rejected(self, expr):
        with pytest.raises(SymbolJSONError):
            _parse_scalar(expr)


class TestPhasePoint:
    def test_real_detection(self):
        assert PhasePoint.real([1, 2], [3, 4]).max_imag == 0.0
        assert PhasePoint([1 + 5e-15j, 2], [3, 4]).max_imag <= 1e-14
        assert PhasePoint([1 + 1e-10j, 2], [3, 4]).max_imag == 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PhasePoint([np.inf, 0], [0, 0])
