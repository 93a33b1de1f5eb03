"""Complex canonical flows and deformed symbols.

The deformation flow solves, in complex coordinates rho = (x, xi),

    dx/dt  =  i dG_t/dxi (x, xi)
    dxi/dt = -i dG_t/dx  (x, xi)

which is the real 4n-dimensional flow of the field i H_{G_t} plus its
conjugate.  The right-hand side is holomorphic, so the flow map is
holomorphic in the initial point and its complex 2n x 2n Jacobian is
integrated in tandem (variational equation).  The Jacobian of a
canonical map satisfies J^T Omega J = Omega with Omega the standard
complex symplectic matrix for sigma = sum dxi_j ^ dx_j; the deviation
from that is reported as the canonical defect.

A generator family of degree <= 2 has an affine flow, so a polynomial
base deforms in closed form, p_t = p o (L rho + b); only a trig base, or
a trig or higher-degree generator, is flowed point by point.

Each RK45 stage makes one ``Deformation.velocity`` call: the velocity
and, for the variational equation, its Jacobian come from one
``SymbolGroup`` of the generators' nonzero first and second derivatives,
built once per deformation, whose shared table of powers and phases
leaves every value bit for bit that of the symbol's own ``evaluate``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .symbols import (DimensionMismatchError, PhasePoint, SymbolExpr, SymbolGroup,
                      _batch_shape, load_symbol)


# shrink steps of the trapping radius in DeformedSymbol.displacement_bound
TRAP_STEPS = 2


class StepSizeUnderflowError(RuntimeError):
    """Adaptive integrator drove the step below the resolvable scale."""


def symplectic_matrix(n: int) -> np.ndarray:
    """Omega with sigma(U, V) = U^T Omega V for sigma = sum dxi_j ^ dx_j."""
    Z = np.zeros((n, n))
    I = np.eye(n)
    return np.block([[Z, -I], [I, Z]])


@dataclass(frozen=True)
class Deformation:
    """A flow generator G_t, polynomial in t with symbol coefficients.

    ``generators[m]`` is the coefficient of t^m; the common case is a
    single t-independent generator.  Tolerance applies to both the
    absolute and relative error control of the adaptive integrator.
    """

    generators: tuple
    t_max: float = 0.5
    tol: float = 1e-10
    step_hint: float = 0.1

    def __post_init__(self):
        gens = self.generators
        if isinstance(gens, SymbolExpr):
            gens = (gens,)
        gens = tuple(gens)
        if not gens:
            raise ValueError("deformation needs at least one generator")
        n = gens[0].n
        for g in gens:
            if g.n != n:
                raise DimensionMismatchError("generator family mixes dimensions")
        object.__setattr__(self, "generators", gens)
        for name, floor in (("tol", False), ("step_hint", False), ("t_max", True)):
            v = getattr(self, name)  # NaN fails both tests
            if not (np.isfinite(v) and (v > 0 or (floor and v == 0))):
                raise ValueError(f"deformation '{name}' must be finite and "
                                 f"{'>=' if floor else '>'} 0, got {v}")

    @property
    def n(self) -> int:
        return self.generators[0].n

    @property
    def tube_radius(self) -> float:
        return min(g.tube_radius for g in self.generators)

    @functools.cached_property
    def _stage_plan(self) -> tuple:
        """(group, slots, lead): the SymbolGroup of ``velocity``, the slots
        (m, j, k) each value is added to, and how many symbols the velocity
        alone needs: by generator m, the nonzero dG_m/dxi_j, dG_m/dx_j of
        row j (k = -1) lead and the second derivatives of entry (j, k)
        follow.  Equal symbols of one block are evaluated once."""
        n, blocks = self.n, []
        for m, g in enumerate(self.generators):
            rows = g.grad_symbols[n:] + g.grad_symbols[:n]
            blocks.append([(row, (m, j, -1)) for j, row in enumerate(rows)])
            blocks.append([(sym, (m, j, k)) for j, row in enumerate(rows)
                           for k, sym in enumerate(row.grad_symbols)])
        plan = []  # (symbol, its slots)
        for block in blocks[::2] + blocks[1::2]:
            same = {}  # repr(terms) -> (symbol, slots); repr tells -0.0 from 0.0
            for sym, slot in block:
                if sym.terms:
                    same.setdefault(repr(sym.terms), (sym, []))[1].append(slot)
            plan += same.values()
        slots = [sl for _, sl in plan]
        return SymbolGroup([s for s, _ in plan], n), slots, sum(sl[0][2] < 0 for sl in slots)

    def velocity(self, t, x, xi, jacobian=False):
        """(dx/dt, dxi/dt) at points of shape (..., n), and with ``jacobian``
        also the complex Jacobian A = dV/d(x, xi), shape (..., 2n, 2n).

        Row j of A is the gradient of the j-th velocity component's symbol,
        dG/dxi_j for the x-rows and dG/dx_j for the xi-rows.
        """
        n = self.n
        group, slots, lead = self._stage_plan
        shape = _batch_shape(x, xi)
        v = np.zeros(shape + (2 * n,), dtype=complex)
        A = np.zeros(shape + (2 * n, 2 * n), dtype=complex) if jacobian else None
        for targets, val in zip(slots if jacobian else slots[:lead], group.evaluate(x, xi)):
            for m, j, k in targets:  # added in place: flow_points passes whole shards
                if k < 0:
                    v[..., j] += t ** m * val
                else:
                    A[..., j, k] += (1j if j < n else -1j) * t ** m * val
        vx, vxi = 1j * v[..., :n], -1j * v[..., n:]
        return (vx, vxi, A) if jacobian else (vx, vxi)

    def speed_bound(self, t, x, xi, r):
        """{k: bound of |V_k|} over K_r(rho) and every time s with |s| <= |t|.

        k runs over the components of (x, xi) whose velocity is not zero
        identically: V_k = i dG_s/dxi_k for the x-components and -i dG_s/dx_k
        for the xi-components, and with G_s = sum_m s^m G_m the bound is
        sum_m |t|^m sup_{K_r} |dG_m| (``SymbolExpr.box_sup``).
        """
        n = self.n
        out = {}
        for m, g in enumerate(self.generators):
            for k, sym in enumerate(g.grad_symbols[n:] + g.grad_symbols[:n]):
                if sym.terms:
                    out[k] = out.get(k, 0.0) + abs(t) ** m * sym.box_sup(x, xi, r)
        return out

    def velocity_jacobian(self, t, x, xi):
        """Complex Jacobian A = dV/d(x,xi), shape (..., 2n, 2n); see ``velocity``."""
        return self.velocity(t, x, xi, jacobian=True)[2]


@dataclass(frozen=True)
class FlowResult:
    endpoint: PhasePoint
    jacobian: np.ndarray
    canonical_defect: float
    certified: bool
    max_imag_excursion: float
    n_steps: int


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _rk45(rhs, t0, t1, y0, rtol, atol, h0):
    """Adaptive Dormand-Prince on a complex state array; deterministic."""
    span = t1 - t0
    if span == 0:
        return y0.copy(), 0
    direction = 1.0 if span > 0 else -1.0
    h = direction * min(abs(h0), abs(span))
    t, y = t0, y0.copy()
    n_steps = 0
    min_h = 1e-14 * max(abs(span), 1.0)
    while (t1 - t) * direction > 0:
        last = abs(h) >= abs(t1 - t)
        if last:
            h = t1 - t
        ks = []
        for i in range(7):
            yi = y
            for a, k in zip(_DP_A[i], ks):
                yi = yi + (h * a) * k
            ks.append(rhs(t + _DP_C[i] * h, yi))
        y5 = y
        for b, k in zip(_DP_B5, ks):
            if b:
                y5 = y5 + (h * b) * k
        err = np.zeros_like(y)
        for b5, b4, k in zip(_DP_B5, _DP_B4, ks):
            err = err + (h * (b5 - b4)) * k
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        enorm = float(np.max(np.abs(err) / scale))
        if enorm <= 1.0:
            t = t1 if last else t + h  # t + (t1 - t) may fall an ulp short of t1
            y = y5
            n_steps += 1
        factor = 0.9 * (enorm + 1e-300) ** -0.2
        h = h * min(5.0, max(0.2, factor))
        if abs(h) < min_h and (t1 - t) * direction > 0:  # a last sliver step may be tiny
            raise StepSizeUnderflowError(
                f"step size underflow at t={t:.6g} (stiff or escaping trajectory)")
    return y, n_steps


def flow_points(d: Deformation, t: float, x0, xi0):
    """Flow a batch of points (no Jacobian); x0, xi0 shaped (..., n)."""
    n = d.n
    x0 = np.asarray(x0, dtype=complex)
    xi0 = np.asarray(xi0, dtype=complex)
    shape = x0.shape[:-1]
    y0 = np.concatenate([x0.reshape(-1, n), xi0.reshape(-1, n)], axis=1)

    def rhs(tt, y):
        vx, vxi = d.velocity(tt, y[:, :n], y[:, n:])
        return np.concatenate([vx, vxi], axis=1)

    y, _ = _rk45(rhs, 0.0, t, y0, d.tol, d.tol, d.step_hint)
    exc = float(np.max(np.abs(y.imag))) if y.size else 0.0
    return (y[:, :n].reshape(shape + (n,)), y[:, n:].reshape(shape + (n,)), exc)


def integrate_flow(d: Deformation, t: float, rho: PhasePoint) -> FlowResult:
    """Integrate the deformation flow from rho to time t.

    The complex variational equation dJ/dt = A(kappa_t) J rides along so
    the canonical defect ||J^T Omega J - Omega|| is available at the
    integrator's accuracy.  Leaving the declared tube warns and marks
    the result non-certified instead of aborting.
    """
    if not abs(t) <= d.t_max:  # NaN fails too
        raise ValueError(f"|t| = {abs(t)} is not within t_max = {d.t_max}")
    n = d.n
    if rho.n != n:
        raise DimensionMismatchError(f"point dim {rho.n} != generator dim {n}")
    dim = 2 * n
    y0 = np.concatenate([rho.x, rho.xi, np.eye(dim, dtype=complex).ravel()])[None, :]

    def rhs(tt, y):
        pt = y[:, :dim]
        x = pt[:, :n]
        xi = pt[:, n:]
        J = y[:, dim:].reshape(-1, dim, dim)
        vx, vxi, A = d.velocity(tt, x, xi, jacobian=True)
        dJ = A @ J
        return np.concatenate([vx, vxi, dJ.reshape(-1, dim * dim)], axis=1)

    y, n_steps = _rk45(rhs, 0.0, t, y0, d.tol, d.tol, d.step_hint)
    x_end, xi_end = y[0, :n], y[0, n:dim]
    J = y[0, dim:].reshape(dim, dim)
    Om = symplectic_matrix(n)
    defect = float(np.linalg.norm(J.T @ Om @ J - Om, 2))
    exc = float(np.max(np.abs(y[0, :dim].imag)))
    certified = exc <= d.tube_radius
    if not certified:
        warnings.warn("flow left the declared tube; result not certified",
                      RuntimeWarning, stacklevel=2)
    return FlowResult(PhasePoint(x_end, xi_end), J, defect, certified, exc, n_steps)


@dataclass(frozen=True)
class DeformedSymbol:
    """p_t = p o kappa_t, in closed form or through the flow on demand."""

    base: SymbolExpr
    deformation: Deformation
    t: float

    def __post_init__(self):
        if self.base.n != self.deformation.n:
            raise DimensionMismatchError("base symbol and generator dimensions differ")
        if not abs(self.t) <= self.deformation.t_max:  # NaN fails too
            raise ValueError(
                f"|t| = {abs(self.t)} is not within t_max = {self.deformation.t_max}")

    @property
    def n(self) -> int:
        return self.base.n

    def evaluate(self, x, xi):
        """Evaluate p_t on arrays of points shaped (..., n)."""
        if not self.flows:
            return self.closed.evaluate(x, xi)
        xe, xie, exc = flow_points(self.deformation, self.t,
                                   np.asarray(x, dtype=complex),
                                   np.asarray(xi, dtype=complex))
        if exc > min(self.base.tube_radius, self.deformation.tube_radius):
            warnings.warn("deformed evaluation left the declared tube",
                          RuntimeWarning, stacklevel=2)
        return self.base.evaluate(xe, xie)

    @property
    def flows(self) -> bool:
        """Whether ``evaluate`` integrates the flow (no closed form applies)."""
        return bool(self.t) and (self.base.has_trig or any(
            g.has_trig or g.total_degree > 2 for g in self.deformation.generators))

    @functools.cached_property
    def closed(self) -> SymbolExpr:
        """p_t as a symbol, built once; ValueError where it ``flows``.

        A generator family of degree <= 2 has an affine flow,
        kappa_t(rho) = L rho + b, so p_t = p o (L rho + b) is a polynomial
        whenever p is.  L and b come from one variational integration
        from the origin.  At t = 0, p_t is the base itself.
        """
        if self.flows:
            raise ValueError("no closed form: it needs a polynomial base and G of degree <= 2")
        if not self.t:
            return self.base
        res = integrate_flow(self.deformation, self.t, PhasePoint.zero(self.n))
        return self.base.compose_affine(
            res.jacobian, np.concatenate([res.endpoint.x, res.endpoint.xi]))

    def displacement_bound(self, x, xi):
        """B(rho) >= |p_t(rho) - p(rho)| at real points rho; inf where not certified.

        While the path s -> kappa_s(rho) stays in a box K_r(rho) (see
        ``SymbolExpr.box_sup``), |d p(kappa_s rho)/ds| <= sum_k sup_K |d_k p|
        sup_K |V_k|, so B = |t| sum_k sup_K |d_k p| sup_K |V_k|.  The path
        cannot leave K_r when |t| sup_{K_r} |V_k| <= r for every k, since each
        coordinate then moves by at most r.  r starts at 2 |t| sup_{K_0} |V|,
        twice the move at the speed at rho; TRAP_STEPS steps
        r <- min(r, |t| sup_{K_r} |V|) shrink it, and the condition is
        checked at the final r.  Where it fails, or where r exceeds a tube
        radius, B is inf, so such a sample is always flowed and the tube
        check still runs.
        """
        t, d = abs(self.t), self.deformation
        x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)

        def reach(speeds):
            return t * functools.reduce(np.maximum, speeds.values(), 0.0)

        with np.errstate(over="ignore"):  # an overflowing sup is inf: not certified
            r = 2 * reach(d.speed_bound(self.t, x, xi, 0.0))
            for _ in range(TRAP_STEPS):
                r = np.minimum(r, reach(d.speed_bound(self.t, x, xi, r)))
            speeds = d.speed_bound(self.t, x, xi, r)
            trapped = (reach(speeds) <= r) & (r <= min(self.base.tube_radius, d.tube_radius))
            dp = self.base.grad_symbols
            drift = sum((dp[k].box_sup(x, xi, r) * v for k, v in speeds.items()
                         if dp[k].terms), 0.0)
        shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
        return np.broadcast_to(np.where(trapped, t * drift, np.inf), shape)


# ------------------------------------------------------------ closed form


def closed_form(p):
    """Closed-form symbol for p when available.

    A SymbolExpr is its own closed form; a DeformedSymbol that does not
    flow has p o (L rho + b) (``DeformedSymbol.closed``); a
    DeformedSymbol that flows, or any other object, has none (None).
    """
    if isinstance(p, SymbolExpr):
        return p
    if isinstance(p, DeformedSymbol) and not p.flows:
        return p.closed
    return None


def deformed_quadratic(ps: DeformedSymbol) -> SymbolExpr:
    """p_t in closed form (``ps.closed``); ValueError where ``ps`` flows."""
    return ps.closed


def load_deformation(spec) -> Deformation:
    """Build a Deformation from JSON dict {"G": ..., "t_poly_degree", "tol", ...}.

    "G" is a symbol JSON (or builtin name), or a list of them when
    t_poly_degree > 0; optional "t_max" and "step_hint" are honored.
    """
    if isinstance(spec, Deformation):
        return spec
    if isinstance(spec, SymbolExpr):
        return Deformation((spec,))
    if not isinstance(spec, dict):
        raise ValueError("deformation spec must be a JSON object")
    known = {"G", "t_poly_degree", "tol", "t_max", "step_hint"}
    unknown = set(spec) - known
    if unknown:
        raise ValueError(f"unknown deformation fields: {sorted(unknown)}")
    raw = spec.get("G")
    if raw is None:
        raise ValueError("deformation needs a generator 'G'")
    gens = raw if isinstance(raw, list) else [raw]
    gens = tuple(load_symbol(g) for g in gens)
    deg = spec.get("t_poly_degree", len(gens) - 1)
    if deg != len(gens) - 1:
        raise ValueError(
            f"t_poly_degree = {deg} but {len(gens)} generator(s) were given")
    nums = {}
    for name, default in (("t_max", 0.5), ("tol", 1e-10), ("step_hint", 0.1)):
        try:
            if isinstance(spec.get(name), bool):  # JSON true is no number
                raise TypeError
            nums[name] = float(spec.get(name, default))
        except (TypeError, ValueError):
            raise ValueError(f"deformation '{name}' must be a number, got {spec[name]!r}") from None
    return Deformation(gens, **nums)
