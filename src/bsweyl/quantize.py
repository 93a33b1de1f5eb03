"""Truncated quantizations, non-Hermitian spectra and lattice predictions.

Two exact discretizations are supported:

* quadratic symbols in a tensor Hermite basis scaled with h, where x_j
  and hD_j act through ladder operators and same-index cross terms are
  symmetrically (Weyl) ordered;
* eta-only torus symbols in a Fourier basis, where the operator is the
  diagonal matrix ptilde(h k), k in Z^2 cap [-K, K]^2.

These two cases have assumption-free matrix elements and are enough to
exercise the Bohr-Sommerfeld lattice, the eigenvalue counting laws and
the deformation experiments (a quadratic generator keeps the deformed
symbol quadratic).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .density import ActionMap, ComplexWindow, DensityGrid, newton_2x2
from .flow import symbol_to_quadratic
from .symbols import SymbolExpr

DEFAULT_DIM_CAP = 4096
SAFE_FACTOR = 0.6  # fraction of the basis size whose quantum numbers are trusted


class QuantizationError(ValueError):
    pass


class EigensolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class BasisSpec:
    """Discretization basis: hermite-tensor (size N per axis) or torus-fourier
    (modes -K..K per axis), with the semiclassical parameter h."""

    kind: str
    size: int
    h: float
    n: int = 2

    def __post_init__(self):
        if self.kind not in ("hermite-tensor", "torus-fourier"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("basis size must be >= 1")
        if not (0 < self.h <= 1):
            raise ValueError("h must lie in (0, 1]")

    @property
    def axis_dim(self) -> int:
        return self.size if self.kind == "hermite-tensor" else 2 * self.size + 1

    @property
    def total_dim(self) -> int:
        return self.axis_dim ** self.n

    def safe_bound(self, factor=SAFE_FACTOR) -> float:
        """Trusted |Re z|, |Im z| extent for eigenvalues of this basis."""
        return factor * self.size * self.h


@dataclass(frozen=True)
class OperatorMatrix:
    matrix: np.ndarray
    basis: BasisSpec
    provenance: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix has non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_hermitian(self) -> bool:
        m = self.matrix
        scale = max(float(np.max(np.abs(m))), 1.0)
        return float(np.max(np.abs(m - m.conj().T))) <= 1e-12 * scale


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    residual_bound: float
    delta: float
    seed: int | None
    basis: BasisSpec

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=complex)
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)

    def in_window(self, win) -> np.ndarray:
        if isinstance(win, ComplexWindow):
            return self.eigenvalues[win.contains(self.eigenvalues)]
        lo_r, hi_r, lo_i, hi_i = win
        ev = self.eigenvalues
        return ev[(ev.real > lo_r) & (ev.real < hi_r)
                  & (ev.imag > lo_i) & (ev.imag < hi_i)]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["re", "im"])
            for z in self.eigenvalues:
                wr.writerow([f"{z.real:.17g}", f"{z.imag:.17g}"])

    def write_meta(self, path):
        with open(path, "w") as fh:
            json.dump({"h": self.basis.h, "basis_kind": self.basis.kind,
                       "basis_size": self.basis.size, "delta": self.delta,
                       "seed": self.seed, "residual_bound": self.residual_bound,
                       "count": int(self.eigenvalues.size)}, fh, indent=2)


# ------------------------------------------------------------- quantization


def _axis_ops(N, h):
    A = np.diag(np.sqrt(np.arange(1, N)), 1).astype(complex)  # lowering
    Ad = A.conj().T
    X = np.sqrt(h / 2) * (A + Ad)
    P = 1j * np.sqrt(h / 2) * (Ad - A)  # hD in the h-scaled Hermite basis
    return X, P


def quantize_quadratic(q: SymbolExpr, basis: BasisSpec) -> OperatorMatrix:
    """Weyl quantization of a degree <= 2 polynomial symbol in Hermite basis.

    Each term is a Kronecker product of N x N per-axis factors, looked up
    by the term's (x-power, xi-power) on that axis.  Same-index x_j xi_j
    factors are symmetrized, (X P + P X)/2; operators on distinct tensor
    factors commute so no further ordering enters.
    """
    if basis.kind != "hermite-tensor":
        raise QuantizationError("quadratic quantization needs a hermite-tensor basis")
    if q.has_trig or q.total_degree > 2:
        raise QuantizationError("symbol must be polynomial of total degree <= 2")
    if q.n != basis.n:
        raise QuantizationError(f"symbol dim {q.n} != basis dim {basis.n}")
    X, P = _axis_ops(basis.size, basis.h)
    factor = {(0, 0): np.eye(basis.size, dtype=complex), (1, 0): X, (0, 1): P,
              (2, 0): X @ X, (0, 2): P @ P, (1, 1): 0.5 * (X @ P + P @ X)}
    M = np.zeros((basis.total_dim,) * 2, dtype=complex)
    for t in q.simplified().terms:
        term_op = np.ones((1, 1), dtype=complex)
        for xp, pp in zip(t.xpow, t.xipow):
            term_op = np.kron(term_op, factor[xp, pp])
        M += t.coeff * term_op
    return OperatorMatrix(M, basis, provenance="quadratic-weyl")


def quantize_torus(ptilde: SymbolExpr, basis: BasisSpec) -> OperatorMatrix:
    """Diagonal Fourier quantization of an eta-only torus symbol."""
    if basis.kind != "torus-fourier":
        raise QuantizationError("torus quantization needs a torus-fourier basis")
    for t in ptilde.terms:
        if any(t.xpow) or any(f != 0 for f in t.xfreq):
            raise QuantizationError("torus symbol must not depend on the angles")
    K, h, n = basis.size, basis.h, basis.n
    ks = np.arange(-K, K + 1)
    grids = np.meshgrid(*([ks] * n), indexing="ij")
    eta = h * np.stack([g.ravel() for g in grids], axis=-1).astype(float)
    vals = ptilde.evaluate(np.zeros_like(eta), eta)
    return OperatorMatrix(np.diag(vals), basis, provenance="torus-fourier")


def perturb(P: OperatorMatrix, delta: float, seed: int) -> OperatorMatrix:
    """P + delta * Q with Q an iid complex Gaussian matrix scaled by 1/sqrt(dim).

    Entries of the unscaled matrix are CN(0, 1); after the 1/sqrt(dim)
    scaling the expected operator norm of Q is O(1).  Deterministic for
    fixed seed.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta == 0:
        return P
    Q = gaussian_perturbation(P.dim, seed)
    return OperatorMatrix(P.matrix + delta * Q, P.basis,
                          provenance=P.provenance + f"+delta={delta:g}")


def gaussian_perturbation(dim: int, seed: int) -> np.ndarray:
    """The scaled random matrix used by perturb, for direct inspection."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), dim)))
    Q = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return Q / (np.sqrt(2) * np.sqrt(dim))


def spectrum(P: OperatorMatrix, delta=0.0, seed=None,
             dim_cap=DEFAULT_DIM_CAP) -> SpectrumResult:
    """All eigenvalues by a dense backward-stable solve, sorted lexicographically."""
    if P.dim > dim_cap:
        raise EigensolveError(f"dimension {P.dim} exceeds cap {dim_cap}")
    try:
        ev = np.linalg.eigvals(P.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"eigenvalue solve failed: {exc}") from exc
    if ev.shape[0] != P.dim:
        raise EigensolveError("solver returned a partial spectrum")
    order = np.lexsort((ev.imag, ev.real))
    ev = ev[order]
    resid = P.dim * np.finfo(float).eps * float(np.linalg.norm(P.matrix, "fro"))
    return SpectrumResult(ev, resid, delta, seed, P.basis)


# -------------------------------------------------- quadratic exact spectrum


def hamilton_matrix(q: SymbolExpr) -> np.ndarray:
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


def quadratic_exact_spectrum(q: SymbolExpr, h: float, k_max: int,
                             ellipticity_samples=200000, seed=0):
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


# ------------------------------------------------------------ Bohr-Sommerfeld


@dataclass(frozen=True)
class BSLattice:
    """Bohr-Sommerfeld predictor: I(z)/(2 pi h) = k - theta, k in Z^2."""

    action_map: ActionMap
    h: float
    window: ComplexWindow
    theta0: tuple = (0.5, 0.5)
    newton_tol: float = 1e-10
    max_iter: int = 50

    def theta(self) -> np.ndarray:
        return np.asarray(self.theta0, dtype=float)


def bs_predict(lat: BSLattice):
    """Solve I(z) = 2 pi h (k - theta) for every admissible k in the window.

    Returns (points, unresolved) where unresolved lists the k whose
    Newton solve failed.  Uses the action-map Jacobian for the Newton
    steps; k candidates come from the bounding box of I over the window.
    """
    am = lat.action_map
    h = lat.h
    th = lat.theta()
    if not am.constant_sign_on(lat.window):
        warnings.warn("action map is not a diffeomorphism on the window; "
                      "lattice predictions are unreliable", RuntimeWarning,
                      stacklevel=2)
    z_grid = lat.window.centers_complex().ravel()
    I_grid, _ = am.actions_and_jacobian(z_grid)
    lo = I_grid.min(axis=0) / (2 * np.pi * h) + th
    hi = I_grid.max(axis=0) / (2 * np.pi * h) + th
    k1 = np.arange(np.floor(lo[0]) - 1, np.ceil(hi[0]) + 2, dtype=int)
    k2 = np.arange(np.floor(lo[1]) - 1, np.ceil(hi[1]) + 2, dtype=int)
    K1, K2 = np.meshgrid(k1, k2, indexing="ij")
    ks = np.stack([K1.ravel(), K2.ravel()], axis=-1)
    targets = 2 * np.pi * h * (ks - th)

    def residual(u):  # Newton in u = (Re z, Im z), all targets at once
        I, dI = am.actions_and_jacobian(u[:, 0] + 1j * u[:, 1])
        return I - targets, dI

    c = lat.window.center
    u, ok = newton_2x2(residual, np.tile([c.real, c.imag], (len(ks), 1)),
                       lat.newton_tol, lat.max_iter)
    z = u[:, 0] + 1j * u[:, 1]
    I, _ = am.actions_and_jacobian(z)
    solved = ok & (np.max(np.abs(I - targets), axis=-1) <= 10 * lat.newton_tol)
    inside = solved & lat.window.contains(z)
    unresolved = [tuple(k) for k in ks[~solved]]
    pts = z[inside]
    order = np.lexsort((pts.imag, pts.real))
    return pts[order], unresolved


# ------------------------------------------------------------------ counting


@dataclass
class ComparisonReport:
    count: int
    omega_prediction: float
    weyl_prediction: float
    omega_deviation: float
    weyl_deviation: float
    h: float
    window: dict
    flagged_unsafe: bool

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)


def count_and_compare(s: SpectrumResult, win: ComplexWindow,
                      omega_grid: DensityGrid = None,
                      weyl_volume: float = None,
                      weyl_grid: DensityGrid = None,
                      safe_factor=SAFE_FACTOR) -> ComparisonReport:
    """Eigenvalue count in the window against both density predictions.

    omega prediction: (2 pi h)^{-2} * integral of omega over the window;
    Weyl prediction: (2 pi h)^{-n} * vol(p^{-1}(W)) (volume passed in, or
    integrated from a Weyl density grid).  Windows leaving the basis'
    trusted region are flagged, not rejected.
    """
    h = s.basis.h
    n_dim = s.basis.n
    count = int(s.in_window(win).size)
    omega_pred = float("nan")
    if omega_grid is not None:
        omega_pred = omega_grid.total_mass / (2 * np.pi * h) ** 2
    if weyl_volume is None and weyl_grid is not None:
        weyl_volume = weyl_grid.total_mass
    weyl_pred = float("nan")
    if weyl_volume is not None:
        weyl_pred = weyl_volume / (2 * np.pi * h) ** n_dim
    bound = s.basis.safe_bound(safe_factor)
    lo_r, hi_r, lo_i, hi_i = win.bounds
    flagged = max(abs(lo_r), abs(hi_r), abs(lo_i), abs(hi_i)) > bound

    def dev(pred):
        return (count - pred) / max(abs(pred), 1.0)

    return ComparisonReport(count, omega_pred, weyl_pred,
                            dev(omega_pred), dev(weyl_pred), h,
                            win.to_json_dict(), flagged)
