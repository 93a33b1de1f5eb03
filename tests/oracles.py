"""Independent reference implementations used as test oracles.

Everything in here is intentionally written against the mathematical
definitions, in plain loops or via scipy, without touching the package's
own evaluation/differentiation/integration paths; a quadratic symbol's
(Q, l, c) form is read off its terms by `symbol_to_quadratic`.  The
exception is the integration-by-parts identity at the end, a test-only
check that integrates the package's symbols and bumps with a given
quadrature (kink-aligned polar panels, or the package's tensor grid by
default).
"""

import cmath
import csv

import numpy as np
from scipy.linalg import expm

from bsweyl.quantize import QuantizationError
from bsweyl.symbols import poisson_bracket
from bsweyl.variation import tensor_quadrature


def symbol_to_quadratic(sym):
    """Split a degree<=2 polynomial symbol as (Q, l, c) with p = rho'Q rho/2 + l.rho + c."""
    if sym.has_trig or sym.total_degree > 2:
        raise ValueError("symbol is not a polynomial of degree <= 2")
    dim = 2 * sym.n
    Q = np.zeros((dim, dim), dtype=complex)
    l = np.zeros(dim, dtype=complex)
    c = 0j
    for t in sym.simplified().terms:
        idx = [i for i, p in enumerate(t.xpow + t.xipow) for _ in range(p)]
        if not idx:
            c += t.coeff
        elif len(idx) == 1:
            l[idx[0]] += t.coeff
        else:
            i, j = idx
            if i == j:
                Q[i, i] += 2 * t.coeff
            else:
                Q[i, j] += t.coeff
                Q[j, i] += t.coeff
    return Q, l, c


def eval_term_by_term(sym, x, xi):
    """Plain-Python evaluation of a SymbolExpr at one point."""
    x = list(x)
    xi = list(xi)
    total = 0j
    for t in sym.terms:
        val = complex(t.coeff)
        for j in range(sym.n):
            for _ in range(t.xpow[j]):
                val *= x[j]
            for _ in range(t.xipow[j]):
                val *= xi[j]
        phase = 0j
        for j in range(sym.n):
            phase += t.xfreq[j] * x[j] + t.xifreq[j] * xi[j]
        val *= cmath.exp(1j * phase)
        total += val
    return total


def evaluate_reference(sym, x, xi):
    """The term-by-term array evaluation: complex points, one phase per term."""
    x = np.asarray(x, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
    out = np.zeros(shape, dtype=complex)
    for t in sym.terms:
        val = np.full(shape, t.coeff, dtype=complex)
        for j in range(sym.n):
            if t.xpow[j]:
                val = val * x[..., j] ** t.xpow[j]
            if t.xipow[j]:
                val = val * xi[..., j] ** t.xipow[j]
        if any(f != 0 for f in t.xfreq) or any(f != 0 for f in t.xifreq):
            phase = np.zeros(shape, dtype=complex)
            for j in range(sym.n):
                if t.xfreq[j]:
                    phase = phase + t.xfreq[j] * x[..., j]
                if t.xifreq[j]:
                    phase = phase + t.xifreq[j] * xi[..., j]
            val = val * np.exp(1j * phase)
        out += val
    return out


def fd_gradient(sym, x, xi, h=1e-6):
    """Central finite differences of the evaluation along real directions."""
    n = sym.n
    gx = np.zeros(n, dtype=complex)
    gxi = np.zeros(n, dtype=complex)
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        gx[j] = (eval_term_by_term(sym, np.add(x, e), xi)
                 - eval_term_by_term(sym, np.subtract(x, e), xi)) / (2 * h)
        gxi[j] = (eval_term_by_term(sym, x, np.add(xi, e))
                  - eval_term_by_term(sym, x, np.subtract(xi, e))) / (2 * h)
    return gx, gxi


def fd_poisson_bracket(f, g, x, xi, h=1e-6):
    """{f, g} = sum f_xi g_x - f_x g_xi from finite-difference gradients."""
    fx, fxi = fd_gradient(f, x, xi, h)
    gx, gxi = fd_gradient(g, x, xi, h)
    return complex(np.sum(fxi * gx - fx * gxi))


def real_bracket_from_gradient(p, x, xi):
    """{Re p, Im p} at a real point from the exact complex gradient of p.

    On real points d(Re p)/dx_j = Re(dp/dx_j) etc., so the bracket is
    sum Re(p_xi) Im(p_x) - Re(p_x) Im(p_xi).
    """
    xa = np.asarray(x, complex)
    xia = np.asarray(xi, complex)
    gx = np.array([complex(p.dx(j).evaluate(xa, xia)) for j in range(p.n)])
    gxi = np.array([complex(p.dxi(j).evaluate(xa, xia)) for j in range(p.n)])
    return float(np.sum(gxi.real * gx.imag - gx.real * gxi.imag))


def affine_flow_oracle(A, b, t):
    """Endpoint map and Jacobian of dy/dt = A y + b via an augmented expm."""
    dim = A.shape[0]
    aug = np.zeros((dim + 1, dim + 1), dtype=complex)
    aug[:dim, :dim] = A
    aug[:dim, dim] = b
    E = expm(t * aug)
    return E[:dim, :dim], E[:dim, dim]


def quadratic_generator_matrix(G):
    """Constant A, b with flow velocity V(rho) = A rho + b for quadratic G.

    V = (i dG/dxi, -i dG/dx) read off from the quadratic form of G.
    """
    Q, l, _ = symbol_to_quadratic(G)
    n = G.n
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    # dG/dxi_j = sum_k Q[n+j, k] rho_k + l[n+j]; dG/dx_j analogous
    A[:n, :] = 1j * Q[n:, :]
    A[n:, :] = -1j * Q[:n, :]
    b = np.concatenate([1j * l[n:], -1j * l[:n]])
    return A, b


def bisection_invert_2d(fn, z, lo=-2.0, hi=2.0, iters=60):
    """Invert eta -> fn(eta) = z by nested 1-d bisections.

    Requires Re fn increasing in eta1 (for fixed eta2) and Im fn
    increasing in eta2, which holds for the near-identity torus models.
    """

    def solve_eta1(eta2):
        a, b = lo, hi
        for _ in range(iters):
            m = 0.5 * (a + b)
            if fn(m, eta2).real < z.real:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    a, b = lo, hi
    for _ in range(iters):
        m = 0.5 * (a + b)
        e1 = solve_eta1(m)
        if fn(e1, m).imag < z.imag:
            a = m
        else:
            b = m
    eta2 = 0.5 * (a + b)
    return np.array([solve_eta1(eta2), eta2])


def polar_moment_oracle(f_of_z, shift=0j, r_max=3.0, order=400):
    """iint f(p(x, xi)) dx dxi for p = r1 + i r2 - shift on the quadrant.

    The pushforward of dx dxi under the two harmonic actions is
    (2 pi)^2 dr1 dr2, so the moment is a 2-d quadrature over r >= 0.
    """
    xg, wg = np.polynomial.legendre.leggauss(order)
    r = r_max * (xg + 1) / 2
    w = wg * r_max / 2
    R1, R2 = np.meshgrid(r, r, indexing="ij")
    W = np.outer(w, w)
    vals = f_of_z(R1 - shift.real + 1j * (R2 - shift.imag))
    return (2 * np.pi) ** 2 * float(np.sum(vals * W))


def eig2x2(a, b, c, d):
    """Closed-form eigenvalues of [[a, b], [c, d]]."""
    tr = a + d
    disc = cmath.sqrt(tr * tr - 4 * (a * d - b * c))
    return (tr + disc) / 2, (tr - disc) / 2


def harmonic_lattice(h, N, alpha=1.0, shift=0j):
    """Exact spectrum of the 2-d complex harmonic oscillator model."""
    k1, k2 = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    return (h * (k1 + 0.5) + 1j * alpha * h * (k2 + 0.5) - shift).ravel()


def ladder_ops(N, h):
    """x and hD on one axis of the h-scaled Hermite basis, as dense N x N matrices."""
    A = np.diag(np.sqrt(np.arange(1, N)), 1).astype(complex)
    return np.sqrt(h / 2) * (A + A.conj().T), 1j * np.sqrt(h / 2) * (A.conj().T - A)


def quantize_quadratic_dense(q, N, h):
    """Weyl quantization of a degree <= 2 symbol by dense embedded products.

    Every x_j and hD_j is embedded in the full N^n x N^n tensor space and
    each term is the matrix product of its factors, with same-index
    x_j xi_j symmetrized as (X_j P_j + P_j X_j)/2.
    """
    n = q.n
    X1, P1 = ladder_ops(N, h)

    def embed(op, axis):
        out = np.array([[1.0 + 0j]])
        for j in range(n):
            out = np.kron(out, op if j == axis else np.eye(N, dtype=complex))
        return out

    Xs = [embed(X1, j) for j in range(n)]
    Ps = [embed(P1, j) for j in range(n)]
    M = np.zeros((N ** n, N ** n), dtype=complex)
    for t in q.terms:
        op = np.eye(N ** n, dtype=complex)
        for j in range(n):
            xp, pp = t.xpow[j], t.xipow[j]
            if (xp, pp) == (1, 1):
                op = op @ (0.5 * (Xs[j] @ Ps[j] + Ps[j] @ Xs[j]))
            else:
                for _ in range(xp):
                    op = op @ Xs[j]
                for _ in range(pp):
                    op = op @ Ps[j]
        M += t.coeff * op
    return M


def quantize_quadratic_kron(q, N, h):
    """Weyl quantization of a degree <= 2 symbol as a sum of dense Kronecker products.

    Each simplified term, in order, is the np.kron of its per-axis
    factors (I, X, P, X^2, P^2 or (XP + PX)/2, looked up by the axis'
    (x-power, xi-power)), scaled by its coefficient and added into a
    dense zero matrix.
    """
    X, P = ladder_ops(N, h)
    factor = {(0, 0): np.eye(N, dtype=complex), (1, 0): X, (0, 1): P,
              (2, 0): X @ X, (0, 2): P @ P, (1, 1): 0.5 * (X @ P + P @ X)}
    M = np.zeros((N ** q.n,) * 2, dtype=complex)
    for t in q.simplified().terms:
        term_op = np.ones((1, 1), dtype=complex)
        for xp, pp in zip(t.xpow, t.xipow):
            term_op = np.kron(term_op, factor[xp, pp])
        M += t.coeff * term_op
    return M


def gaussian_perturbation_reference(dim, seed):
    """The perturbation matrix as first written: (a + i b) / sqrt(2 dim), out of place."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), dim)))
    Q = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return Q / (np.sqrt(2) * np.sqrt(dim))


def csv_reference(path, header, rows):
    """The file csv.writer's excel dialect writes: the header, then each row's
    values as %.17g, one line per row."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([f"{v:.17g}" for v in row])


def column_order_reference(ev, tol):
    """ev in column order, by a loop: stably sorted by real part, a new column
    at each gap above tol, then stably sorted by (column, imaginary part)."""
    by_re = sorted(range(len(ev)), key=lambda i: ev[i].real)
    column, c = {}, 0
    for prev, i in zip([None] + by_re, by_re):
        if prev is not None and ev[i].real - ev[prev].real > tol:
            c += 1
        column[i] = c
    return ev[sorted(by_re, key=lambda i: (column[i], ev[i].imag))]


def hamilton_matrix(q):
    """Linearization of the Hamilton field of a homogeneous quadratic symbol."""
    Q, l, _ = symbol_to_quadratic(q)
    if np.max(np.abs(l)) > 0:
        raise QuantizationError("exact spectrum path needs no linear part")
    n = q.n
    Qxx = Q[:n, :n]
    Qxxi = Q[:n, n:]
    Qxix = Q[n:, :n]
    Qxixi = Q[n:, n:]
    return np.block([[Qxix, Qxixi], [-Qxx, -Qxxi]])


def quadratic_exact_spectrum(q, h, k_max, ellipticity_samples=200000, seed=0):
    """Exact spectrum {sum_j (k_j + 1/2) mu_j h} of an elliptic quadratic symbol.

    The mu_j are Hamilton-matrix eigenvalues divided by i, one per +/-
    pair, selected to lie in the closed right half plane (positive
    imaginary part on the boundary), which matches the value cone of the
    built-in models.  Rejects symbols that vanish on the real unit
    sphere (non-elliptic) or whose Hamilton matrix is defective.
    """
    F = hamilton_matrix(q)
    n = q.n
    Q, _, c = symbol_to_quadratic(q)
    rng = np.random.default_rng(seed)
    sph = rng.standard_normal((ellipticity_samples, 2 * n))
    sph /= np.linalg.norm(sph, axis=1, keepdims=True)
    qvals = 0.5 * np.einsum("mi,ij,mj->m", sph, Q, sph)
    if np.min(np.abs(qvals)) < 1e-8:
        raise QuantizationError("symbol is not elliptic on the real sphere")
    lam = np.linalg.eigvals(F)
    if np.min(np.abs(lam)) < 1e-10:
        raise QuantizationError("Hamilton matrix is singular")
    mus = []
    used = np.zeros(2 * n, dtype=bool)
    for i in range(2 * n):
        if used[i]:
            continue
        partner = None
        for j in range(i + 1, 2 * n):
            if not used[j] and abs(lam[i] + lam[j]) < 1e-8 * max(abs(lam[i]), 1.0):
                partner = j
                break
        if partner is None:
            raise QuantizationError("Hamilton eigenvalues do not pair as +/- lambda")
        used[i] = used[partner] = True
        cand = lam[i] / 1j
        if cand.real > 1e-12 or (abs(cand.real) <= 1e-12 and cand.imag > 0):
            mus.append(cand)
        else:
            mus.append(-cand)
    mus = np.array(mus)
    grids = np.meshgrid(*([np.arange(k_max)] * n), indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=-1)
    spec = (ks + 0.5) @ mus * h + c
    order = np.lexsort((spec.imag, spec.real))
    return spec[order]


def histogram2d_bin(vals, win, weights=None):
    """Window-cell counts (or weight sums) of complex values via np.histogram2d."""
    h, _, _ = np.histogram2d(vals.real, vals.imag, bins=[win.re_edges, win.im_edges],
                             weights=weights)
    return h if weights is not None else h.astype(np.int64)


def unit_shards(dim, total, seed, sampler, shard_size):
    """The unit-cube draws of a density run, one whole shard_size shard at a time.

    One scrambled Sobol' sequence of scipy's engine continued across
    shards, or iid rows seeded by (seed, shard index).  The blocks that
    ``density._shards`` yields for one shard concatenate to it.
    """
    from scipy.stats import qmc
    done, shard = 0, 0
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    while done < total:
        m = min(shard_size, total - done)
        if sampler == "sobol":
            yield eng.random(m)
        else:
            yield np.random.default_rng(np.random.SeedSequence((seed, shard))).random((m, dim))
        done, shard = done + m, shard + 1


def sampled_counts_reference(p, win, box_radius, samples, seed, sampler, shard_size):
    """(histogram2d counts, samples flowed, open-window hits) of a density run.

    The unblocked sampling loop: each whole shard of ``unit_shards`` is
    scaled to the box and evaluated in one call.  A flowing
    DeformedSymbol keeps the samples that pass the displacement pre-filter
    and flows them 2^14 at a time in shard order.
    """
    from bsweyl.flow import DeformedSymbol
    n = p.n
    flows = isinstance(p, DeformedSymbol) and p.flows
    counts, flowed, hits = np.zeros(tuple(win.resolution), dtype=np.int64), 0, 0
    for shard in unit_shards(2 * n, samples, seed, sampler, shard_size):
        q = -box_radius + 2 * box_radius * shard
        x, xi = q[:, :n], q[:, n:]
        if flows:
            keep = np.flatnonzero(win.distance(p.base.evaluate(x, xi))
                                  <= p.displacement_bound(x, xi))
            vals = np.full(len(q), np.nan, dtype=complex)
            for start in range(0, keep.size, 1 << 14):
                k = keep[start:start + (1 << 14)]
                vals[k] = p.evaluate(x[k], xi[k])
            flowed += keep.size
        else:
            vals = p.evaluate(x, xi)
        counts += histogram2d_bin(vals, win)
        hits += int(np.count_nonzero(win.contains(vals)))
    return counts, flowed, hits


def torus_counts_reference(ptilde, win, eta_box, samples, seed, sampler, shard_size):
    """histogram2d counts of ptilde at the actions of whole shards (x = 0)."""
    (lo1, hi1), (lo2, hi2) = eta_box
    counts = np.zeros(tuple(win.resolution), dtype=np.int64)
    for shard in unit_shards(2, samples, seed, sampler, shard_size):
        eta = np.stack([lo1 + (hi1 - lo1) * shard[:, 0],
                        lo2 + (hi2 - lo2) * shard[:, 1]], axis=-1)
        counts += histogram2d_bin(ptilde.evaluate(np.zeros_like(eta), eta), win)
    return counts


def torus_quadrature_density(ptilde, win, eta_box, order):
    """Weyl density of an eta-only torus symbol by tensor Gauss-Legendre quadrature.

    The pushforward of (2 pi)^2 d eta on eta_box under ptilde, per unit
    area of each window cell: the order^2 nodes are binned with their
    weights by np.histogram2d.  Exact up to cell-boundary binning error.
    """
    (lo1, hi1), (lo2, hi2) = eta_box
    xg, wg = np.polynomial.legendre.leggauss(order)
    e1, e2 = lo1 + (hi1 - lo1) * (xg + 1) / 2, lo2 + (hi2 - lo2) * (xg + 1) / 2
    E1, E2 = np.meshgrid(e1, e2, indexing="ij")
    eta = np.stack([E1.ravel(), E2.ravel()], axis=-1)
    W = np.outer(wg * (hi1 - lo1) / 2, wg * (hi2 - lo2) / 2).ravel()
    h = histogram2d_bin(ptilde.evaluate(np.zeros_like(eta), eta), win, W)
    return (2 * np.pi) ** 2 * h / win.cell_area


def unfiltered_sobol_values(p, box_radius, samples, seed):
    """(x, xi, p(x, xi)) at the scrambled Sobol' points of a one-shard density run.

    Every sample goes through ``p.evaluate`` in one batch, with no pre-filter.
    """
    from scipy.stats import qmc
    n = p.n
    q = -box_radius + 2 * box_radius * qmc.Sobol(d=2 * n, scramble=True, seed=seed).random(samples)
    return q[:, :n], q[:, n:], p.evaluate(q[:, :n], q[:, n:])


# ------------------------------------------------------------- bump profile


def _bump_axes(f, z):
    z = np.asarray(z)
    return ((z.real - f.center.real) / f.radius,
            (z.imag - f.center.imag) / f.radius)


def _g(u):
    out = np.zeros_like(u, dtype=float)
    m = np.abs(u) < 1
    w = 1 - u[m] ** 2
    out[m] = w ** 3
    return out


def _gp(u):
    out = np.zeros_like(u, dtype=float)
    m = np.abs(u) < 1
    w = 1 - u[m] ** 2
    out[m] = -6 * u[m] * w ** 2
    return out


def _gpp(u):
    out = np.zeros_like(u, dtype=float)
    m = np.abs(u) < 1
    w = 1 - u[m] ** 2
    out[m] = w * (30 * u[m] ** 2 - 6)
    return out


def bump_reference(f, z):
    """(value, Laplacian) of the bump f = g(u) g(v), each axis masked on its own."""
    u, v = _bump_axes(f, z)
    return (_g(u) * _g(v),
            (_gpp(u) * _g(v) + _g(u) * _gpp(v)) / f.radius ** 2)


def bump_dz(f, z):
    """d f / d z = (d_Re - i d_Im) f / 2 of the bump f."""
    u, v = _bump_axes(f, z)
    return (_gp(u) * _g(v) - 1j * _g(u) * _gp(v)) / (2 * f.radius)


# ----------------------------------------------------- test-only quadratures


def separable_polar_quadrature(fn, r_breaks, r_max, order_r=32, order_theta=64):
    """Integrate fn(x, xi) over R^4 in harmonic action-angle variables.

    Uses x_j = sqrt(2 r_j) cos(theta_j), xi_j = -sqrt(2 r_j) sin(theta_j),
    dx_j dxi_j = dr_j dtheta_j.  The radial axes are split into
    Gauss-Legendre panels at the given breakpoints, so integrands whose
    only non-smoothness sits on action circles (bump supports composed
    with action-separable symbols) are integrated to near machine
    accuracy.  Angles use the trapezoid rule, spectrally accurate for
    the trigonometric-polynomial factors that arise here.
    """
    breaks = sorted({0.0, float(r_max), *(float(b) for b in r_breaks
                                          if 0.0 < b < r_max)})
    xg, wg = np.polynomial.legendre.leggauss(order_r)
    r_nodes = []
    r_weights = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        r_nodes.append(a + (b - a) * (xg + 1) / 2)
        r_weights.append(wg * (b - a) / 2)
    r_nodes = np.concatenate(r_nodes)
    r_weights = np.concatenate(r_weights)
    theta = 2 * np.pi * np.arange(order_theta) / order_theta
    w_theta = 2 * np.pi / order_theta

    R1, T1 = np.meshgrid(r_nodes, theta, indexing="ij")
    x1 = (np.sqrt(2 * R1) * np.cos(T1)).ravel()
    xi1 = (-np.sqrt(2 * R1) * np.sin(T1)).ravel()
    w1 = (r_weights[:, None] * np.full(order_theta, w_theta)[None, :]).ravel()
    total = 0.0
    m = x1.size
    block = max(1, (1 << 19) // m)
    for start in range(0, m, block):  # shard over the first factor's nodes
        stop = min(start + block, m)
        b = stop - start
        x = np.empty((b, m, 2))
        xi = np.empty((b, m, 2))
        x[..., 0] = x1[start:stop, None]
        x[..., 1] = x1[None, :]
        xi[..., 0] = xi1[start:stop, None]
        xi[..., 1] = xi1[None, :]
        vals = np.asarray(fn(x, xi), dtype=float)
        total += float(np.einsum("i,ij,j->", w1[start:stop], vals, w1))
    return total


def integration_by_parts_gap(f, p, G, box_radius, order=48, quadrature=None):
    """Both sides of the Hamilton-field integration-by-parts identity.

    lhs = iint (df/dz)(p) H_p(G) dx dxi
    rhs = -iint H_p[(df/dz)(p)] G dx dxi
        = -iint (1/4)(Delta f)(p) {p, conj p} G dx dxi

    using H_p p = 0, for a closed-form symbol p.  Returns (lhs, rhs) as
    complex numbers.  With the default box rule the comparison is
    limited by the bump profile's curved kink surfaces (percent-scale);
    a kink-aligned ``quadrature`` callable (fn -> value), e.g. built
    from separable_polar_quadrature, verifies it to 1e-6 and below for
    action-separable bases.
    """
    hpg = poisson_bracket(p, G)
    brc = poisson_bracket(p, p.conjugate_symbol())
    if quadrature is None:
        def quadrature(fn):
            return tensor_quadrature((fn,), lambda v: v, p.n, box_radius, order)

    def integrate(fn):
        return complex(quadrature(lambda x, xi: fn(x, xi).real),
                       quadrature(lambda x, xi: fn(x, xi).imag))

    def lhs(x, xi):
        return bump_dz(f, p.evaluate(x, xi)) * hpg.evaluate(x, xi)

    def rhs(x, xi):
        return (-(0.25 * f.laplacian(p.evaluate(x, xi)))
                * brc.evaluate(x, xi) * G.evaluate(x, xi))

    return integrate(lhs), integrate(rhs)
