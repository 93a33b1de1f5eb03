"""Property suites for the bracket calculus, via hypothesis."""

import numpy as np
from hypothesis import given, settings, strategies as st

from bsweyl.symbols import SymbolExpr, poisson_bracket, real_bracket

coeffs = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                            allow_nan=False, allow_infinity=False)
powers = st.integers(0, 2)
freqs = st.sampled_from([-1.0, 0.0, 1.0])


@st.composite
def symbols(draw, max_terms=3, n=2):
    n_terms = draw(st.integers(1, max_terms))
    pows, fs = st.tuples(*[powers] * n), st.tuples(*[freqs] * n)
    out = SymbolExpr.zero(n)
    for _ in range(n_terms):
        out = out + SymbolExpr.monomial(draw(coeffs), draw(pows), draw(pows), n,
                                        xfreq=draw(fs), xifreq=draw(fs))
    return out


@st.composite
def real_points(draw):
    vals = draw(st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4))
    return np.array(vals[:2])[None, :].astype(complex), \
        np.array(vals[2:])[None, :].astype(complex)


def _ev(sym, pt):
    return complex(sym.evaluate(pt[0], pt[1])[0])


@settings(max_examples=40, deadline=None)
@given(symbols(), symbols(), real_points())
def test_bracket_antisymmetry(f, g, pt):
    fg = _ev(poisson_bracket(f, g), pt)
    gf = _ev(poisson_bracket(g, f), pt)
    scale = max(abs(fg), abs(gf), 1.0)
    assert abs(fg + gf) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(symbols(2), symbols(2), symbols(2), real_points())
def test_jacobi_identity(f, g, h, pt):
    s = (_ev(poisson_bracket(f, poisson_bracket(g, h)), pt)
         + _ev(poisson_bracket(g, poisson_bracket(h, f)), pt)
         + _ev(poisson_bracket(h, poisson_bracket(f, g)), pt))
    # the strategies bound coefficients, frequencies and points, so the
    # iterated-bracket cancellation noise stays far below 1e-9 absolute
    assert abs(s) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(symbols(2), symbols(2), symbols(2), real_points())
def test_leibniz_rule(f, g, h, pt):
    lhs = _ev(poisson_bracket(f, g * h), pt)
    rhs = (_ev(poisson_bracket(f, g), pt) * _ev(h, pt)
           + _ev(g, pt) * _ev(poisson_bracket(f, h), pt))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(symbols(), real_points())
def test_real_bracket_is_real_on_reals(p, pt):
    val = _ev(real_bracket(p), pt)
    assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))


@settings(max_examples=40, deadline=None)
@given(symbols(), real_points())
def test_holomorphic_conjugation(p, pt):
    # conj symbol evaluated at the conjugated point == conj of the value
    x, xi = pt
    lhs = complex(p.conjugate_symbol().evaluate(x.conj(), xi.conj())[0])
    rhs = np.conj(complex(p.evaluate(x, xi)[0]))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
