"""Truncated quantizations, non-Hermitian spectra and lattice predictions.

Two exact discretizations are supported:

* quadratic symbols in a tensor Hermite basis scaled with h, where x_j
  and hD_j act through ladder operators and same-index cross terms are
  symmetrically (Weyl) ordered;
* eta-only torus symbols in a Fourier basis, where the operator is the
  diagonal matrix ptilde(h k), k in Z^2 cap [-K, K]^2.

These two cases have assumption-free matrix elements and are enough to
exercise the Bohr-Sommerfeld lattice, the eigenvalue counting laws and
the deformation experiments: a quadratic generator's flow is affine,
and a quadratic base composed with it (``DeformedSymbol.closed``) stays
quadratic.

Both quantizers return a sparse (CSR) operator: p_t at N = 60 stores
about 8.7 nonzeros per row of its 3600, 0.6 MB against 207 MB dense.
`perturb` keeps that matrix and its draw (delta, seed), not P + delta Q;
a solve makes dense only the block it reads, and draws Q into it (see
`OperatorMatrix.toarray` and `SpectrumResult`).

scipy's sparse and linear-algebra modules are imported by the functions
that build or solve a matrix, not by this module: importing them costs
0.14-0.19 s and about 21 MB, which a run that builds no matrix never pays.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import time
import warnings
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np
import numpy.random

from .density import (ActionMap, ComplexWindow, DensityGrid, SingularActionMapError,
                      map_on_cpus)
from .symbols import SymbolExpr

DIM_CAP = 4096  # largest dimension spectrum() accepts
ORDER_TOL = 1e-9  # real parts this close in a sorted run are one column of a spectrum's order
DRAW_BLOCK = 1 << 16  # normal draws per chunk of gaussian_perturbation
SAFE_FACTOR = 0.6  # fraction of the basis size whose quantum numbers are trusted
SHIFT_INVERT_GROWTH = 1.25  # margin on each estimate of the eigenvalues a disc holds
BS_NEWTON_TOL = 1e-10  # round trip |I(z_k) - 2 pi h (k - theta)| accepted by bs_predict


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

    def safe_bound(self) -> float:
        """Trusted |Re z|, |Im z| extent for eigenvalues of this basis."""
        return SAFE_FACTOR * self.size * self.h


@dataclass(frozen=True)
class OperatorMatrix:
    """An operator in a basis: a stored matrix, CSR or a dense ndarray, plus
    the Gaussian draws that `perturb` added to it.

    A sparse matrix is kept in canonical form (sorted indices, no
    duplicate entries); its stored values, or the dense array, are
    checked finite and frozen.  `draws` holds (delta, seed) pairs, in
    the order they were added; no draw is held as a matrix (see
    `toarray`).
    """

    matrix: scipy.sparse.csr_matrix | np.ndarray
    basis: BasisSpec
    draws: tuple = ()

    def __post_init__(self):
        from scipy import sparse

        if sparse.issparse(self.matrix):
            m = sparse.csr_matrix(self.matrix, dtype=complex)
            m.sum_duplicates()
            stored = (m.data, m.indices, m.indptr)
        else:
            m = np.asarray(self.matrix, dtype=complex)
            stored = (m,)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if not np.all(np.isfinite(stored[0])):
            raise ValueError("operator matrix has non-finite entries")
        for a in stored:
            a.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def toarray(self, order="C") -> np.ndarray:
        """The operator as a dense ndarray.

        A stored dense matrix with no draws is returned as it is; else the
        array is new, writeable and in `order` ("F" is what a solve
        factors in place).  Each draw is `gaussian_perturbation` into
        that array, scaled by delta, to which the stored matrix (the
        previous draw's sum, after the first) is added: bitwise what a
        dense P + delta Q built in that order holds.
        """
        A = self.matrix
        for delta, seed in self.draws:
            Q = gaussian_perturbation(self.dim, seed, order)
            Q *= delta
            if isinstance(A, np.ndarray):
                Q += A
            else:
                C = A.tocoo()  # canonical: no index pair twice
                Q[C.row, C.col] += C.data
            A = Q
        return A if isinstance(A, np.ndarray) else A.toarray(order=order)


class SpectrumResult:
    """The spectrum of one operator, solved only as far as it is asked for.

    `eigenvalues` is the full spectrum in column order (see `_ordered`):
    a dense backward-stable solve, cached, of each parity block of the
    operator (see `parity_blocks`); a block of a sparse operator is made
    dense only for its solve, and a perturbed operator's draws are drawn
    into that array (see `OperatorMatrix.toarray`), once per solve that
    reads it.  `in_window` filters that spectrum once it is
    cached; before, it solves each block near the window only (see
    `_shift_invert`) and falls back to the block's dense solve, which it
    caches.  Every solve appends a record to `solves`: its method
    (`dense`, `dense-blocks` or `shift-invert`), block dims, final
    Arnoldi k and ARPACK `passes` per block (None and 0 where dense;
    passes > 1 means rejected passes), fallback reason, `blas_threads`
    (1 where two or more blocks were solved densely at one pinned BLAS
    thread, see `_pinned_eigvals`; None where the process setting held)
    and seconds.
    """

    def __init__(self, operator: OperatorMatrix, delta=0.0, seed=None):
        self.operator = operator
        self.delta = delta
        self.seed = seed
        self.solves = []
        self._dense = {}  # block number -> its eigenvalues

    @property
    def basis(self) -> BasisSpec:
        return self.operator.basis

    @cached_property
    def residual_bound(self) -> float:
        """dim eps ||A||_F; a perturbed operator is drawn for it once, in C order."""
        op = self.operator
        M = op.toarray() if op.draws else op.matrix
        stored = M if isinstance(M, np.ndarray) else M.data  # a sparse matrix's nonzeros
        return M.shape[0] * np.finfo(float).eps * float(np.linalg.norm(stored))

    @cached_property
    def _blocks(self):
        return parity_blocks(self.operator)

    def _block(self, idx) -> np.ndarray:
        """Block idx (None: all), dense: a new Fortran-ordered array unless
        the operator is a stored dense matrix with no draws."""
        if idx is None:
            return self.operator.toarray(order="F")
        M = self.operator.matrix  # an operator with draws is one block
        if isinstance(M, np.ndarray):
            return M[np.ix_(idx, idx)]
        return M[idx][:, idx].toarray(order="F")

    def _diagonal(self, idx) -> np.ndarray:
        """The stored matrix's diagonal in block idx (None: all), read without
        making the block dense or drawing (see `_shift_invert`)."""
        d = self.operator.matrix.diagonal()
        return d if idx is None else d[idx]

    def _solve_dense(self, todo):
        """Dense-solve the blocks numbered in todo into `_dense`, all or none.

        Two or more blocks are solved concurrently at one pinned BLAS
        thread (see `_pinned_eigvals`), so their bits do not depend on
        the process's thread setting.  One block keeps the process
        setting (one thread makes a dim-1600 solve a third slower), as
        do blocks in a process whose OpenBLAS thread control is not
        found; those are solved in series.  Returns the record's
        `blas_threads`.
        """
        control = _openblas_threads() if len(todo) > 1 else None
        if control is None:
            evs = [_dense_eigvals(self._block(self._blocks[i])) for i in todo]
        else:
            evs = _pinned_eigvals([self._block(self._blocks[i]) for i in todo], control)
        self._dense.update(zip(todo, evs))
        return None if control is None else 1

    def _record(self, start, ks, passes, reasons, blas_threads):
        dense = all(k is None for k in ks)
        method = ("dense" if len(ks) == 1 else "dense-blocks") if dense else "shift-invert"
        self.solves.append({
            "method": method,
            "blocks": [self.operator.dim if idx is None else int(idx.size)
                       for idx in self._blocks],
            "k": ks,
            "passes": passes,
            "fallback": "; ".join(dict.fromkeys(r for r in reasons if r)) or None,
            "blas_threads": blas_threads,
            "seconds": time.perf_counter() - start})

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        start = time.perf_counter()
        n = len(self._blocks)
        todo = [i for i in range(n) if i not in self._dense]
        if todo:
            self._record(start, [None] * n, [0] * n, [], self._solve_dense(todo))
        ev = _ordered(np.concatenate([self._dense[i] for i in range(n)]))
        ev.setflags(write=False)
        return ev

    def in_window(self, win) -> np.ndarray:
        """Eigenvalues strictly inside win (a ComplexWindow or re/im bounds), in column order."""
        if "eigenvalues" in self.__dict__ or len(self._dense) == len(self._blocks):
            return _inside(win, self.eigenvalues)
        lo_r, hi_r, lo_i, hi_i = win.bounds if isinstance(win, ComplexWindow) else win
        center = complex((lo_r + hi_r) / 2, (lo_i + hi_i) / 2)
        radius = float(np.hypot(hi_r - lo_r, hi_i - lo_i)) / 2
        start = time.perf_counter()
        found, ks, passes, reasons = {}, [], [], []
        for i, idx in enumerate(self._blocks):
            ev, k, n_pass, reason = None, None, 0, None
            if i not in self._dense:
                ev, k, n_pass, reason = _shift_invert(
                    lambda: self._block(idx), self._diagonal(idx), center, radius)
            if ev is not None:
                found[i] = ev
            ks.append(None if ev is None else k)
            passes.append(n_pass)
            reasons.append(reason)
        todo = [i for i in range(len(self._blocks)) if i not in found and i not in self._dense]
        self._record(start, ks, passes, reasons, self._solve_dense(todo))
        return _ordered(np.concatenate([_inside(win, found[i] if i in found else self._dense[i])
                                        for i in range(len(self._blocks))]))

    def write_csv(self, path):
        """re,im rows of `eigenvalues`, each ending in CRLF as csv's excel
        dialect writes them; written line by line, as `DensityGrid.write_csv`."""
        ev = self.eigenvalues
        with open(path, "w", newline="") as fh:
            fh.write("re,im\r\n")
            fh.writelines(f"{re:.17g},{im:.17g}\r\n"
                          for re, im in zip(ev.real.tolist(), ev.imag.tolist()))

    def write_meta(self, path):
        with open(path, "w") as fh:
            json.dump({"h": self.basis.h, "basis_kind": self.basis.kind,
                       "basis_size": self.basis.size, "delta": self.delta,
                       "seed": self.seed, "residual_bound": self.residual_bound,
                       "count": self.operator.dim, "solves": self.solves}, fh, indent=2)


def _ordered(ev) -> np.ndarray:
    """ev sorted by column, then by imaginary part.

    A column is a run of the sorted real parts whose consecutive gaps
    are at most ORDER_TOL, so eigenvalues whose real parts agree in
    exact arithmetic (a lattice column h(k + 1/2)) keep one order when
    a solve moves them in their last bits.
    """
    by_re = np.argsort(ev.real, kind="stable")
    re = ev.real[by_re]
    column = np.cumsum(np.diff(re, prepend=re[:1]) > ORDER_TOL)
    return ev[by_re[np.lexsort((ev.imag[by_re], column))]]


def _inside(win, ev) -> np.ndarray:
    if isinstance(win, ComplexWindow):
        return ev[win.contains(ev)]
    lo_r, hi_r, lo_i, hi_i = win
    return ev[(ev.real > lo_r) & (ev.real < hi_r) & (ev.imag > lo_i) & (ev.imag < hi_i)]


# ------------------------------------------------------------- quantization


def quantize_quadratic(q: SymbolExpr, basis: BasisSpec) -> OperatorMatrix:
    """Weyl quantization of a degree <= 2 polynomial symbol in Hermite basis.

    Each term is a Kronecker product of N x N per-axis factors, looked up
    by the term's (x-power, xi-power) on that axis; the banded factors
    make each product sparse, and the operator holds their sum as a CSR
    matrix, never dense.  Same-index x_j xi_j factors are symmetrized,
    (X P + P X)/2; operators on distinct tensor factors commute so no
    further ordering enters.
    """
    from scipy import sparse

    if basis.kind != "hermite-tensor":
        raise QuantizationError("quadratic quantization needs a hermite-tensor basis")
    if q.has_trig or q.total_degree > 2:
        raise QuantizationError("symbol must be polynomial of total degree <= 2")
    if q.n != basis.n:
        raise QuantizationError(f"symbol dim {q.n} != basis dim {basis.n}")
    A = np.diag(np.sqrt(np.arange(1, basis.size)), 1).astype(complex)  # lowering
    X = np.sqrt(basis.h / 2) * (A + A.conj().T)
    P = 1j * np.sqrt(basis.h / 2) * (A.conj().T - A)  # hD in the h-scaled Hermite basis
    factor = {(0, 0): np.eye(basis.size, dtype=complex), (1, 0): X, (0, 1): P,
              (2, 0): X @ X, (0, 2): P @ P, (1, 1): 0.5 * (X @ P + P @ X)}
    factor = {f: sparse.csr_matrix(op) for f, op in factor.items()}  # dense products, same bits
    M = sparse.csr_matrix((basis.total_dim,) * 2, dtype=complex)
    for t in q.simplified().terms:
        M = M + t.coeff * reduce(sparse.kron, [factor[f] for f in zip(t.xpow, t.xipow)])
    return OperatorMatrix(M, basis)


def quantize_torus(ptilde: SymbolExpr, basis: BasisSpec) -> OperatorMatrix:
    """Diagonal Fourier quantization of an eta-only torus symbol, held sparse."""
    from scipy import sparse

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
    return OperatorMatrix(sparse.diags(vals, format="csr"), basis)


def perturb(P: OperatorMatrix, delta: float, seed: int) -> OperatorMatrix:
    """P + delta * Q with Q an iid complex Gaussian matrix scaled by 1/sqrt(dim).

    Entries of the unscaled matrix are CN(0, 1); after the 1/sqrt(dim)
    scaling the expected operator norm of Q is O(1).  Deterministic for
    fixed seed.  Nothing is drawn here: the result keeps P's stored
    matrix and its draws, plus (delta, seed), and Q is drawn each time
    the dense operator is built (see `OperatorMatrix.toarray`), bitwise
    delta Q + P.toarray().
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if not np.isfinite(delta):
        raise ValueError("delta must be finite")
    if delta == 0:
        return P
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return OperatorMatrix(P.matrix, P.basis, P.draws + ((delta, seed),))


def gaussian_perturbation(dim: int, seed: int, order="C") -> np.ndarray:
    """The scaled random matrix that perturb adds, as a new array in `order`.

    Q is allocated once; its real parts, then its imaginary parts, are
    drawn DRAW_BLOCK normals at a time in row order, which is the
    whole-matrix draw's stream, then divided by sqrt(2) sqrt(dim).  The
    memory order moves where the values land, not what they are.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), dim)))
    Q = np.empty((dim, dim), dtype=complex, order=order)
    rows = max(1, DRAW_BLOCK // dim)
    for part in (Q.real, Q.imag):
        for i in range(0, dim, rows):
            part[i:i + rows] = rng.standard_normal((min(rows, dim - i), dim))
    Q /= np.sqrt(2) * np.sqrt(dim)
    return Q


def spectrum(P: OperatorMatrix, delta=0.0, seed=None) -> SpectrumResult:
    """The spectrum of P, solved on demand (see SpectrumResult).

    `.eigenvalues` is the full spectrum by a dense solve of each parity
    block; `.in_window(win)` solves near the window only, unless the full
    spectrum is already known.  Rejects P above DIM_CAP.
    """
    if P.dim > DIM_CAP:
        raise EigensolveError(f"dimension {P.dim} exceeds cap {DIM_CAP}")
    return SpectrumResult(P, delta, seed)


def parity_blocks(P: OperatorMatrix) -> list:
    """Index sets of P's parity blocks, or [None] when P is one block.

    In a hermite-tensor basis a term of even total degree maps the
    parity of k1 + ... + kn to itself; when both off-parity blocks of
    the matrix are exactly zero, the spectrum is that of the even and
    the odd block.  Odd-degree terms and perturbations couple them: an
    operator with draws is one block, and is not read.  A sparse matrix
    is read by its nonzero pattern (explicit zeros do not couple).
    """
    if P.basis.kind != "hermite-tensor" or P.draws:
        return [None]
    parity = np.indices((P.basis.size,) * P.basis.n).sum(axis=0).ravel() % 2
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    M = P.matrix
    if isinstance(M, np.ndarray):
        coupled = M[np.ix_(even, odd)].any() or M[np.ix_(odd, even)].any()
    else:
        rows, cols = M.nonzero()
        coupled = np.any(parity[rows] != parity[cols])
    if not odd.size or coupled:
        return [None]
    return [even, odd]


def _dense_eigvals(A: np.ndarray) -> np.ndarray:
    try:
        ev = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"eigenvalue solve failed: {exc}") from exc
    if ev.shape[0] != A.shape[0]:
        raise EigensolveError("solver returned a partial spectrum")
    return ev


@cache
def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None.

    Looked up by ctypes in the OpenBLAS that numpy's wheels ship in
    `numpy.libs` (the library `np.linalg` calls) at the first multi-block
    dense solve, never at import.  None where numpy has no such library
    or it lacks the two symbols; multi-block solves are then serial.
    """
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if len(libs) != 1:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


def _pinned_eigvals(blocks, control) -> list:
    """`_dense_eigvals` of each block at one OpenBLAS thread, one block per CPU at once.

    The blocks are spread by `density.map_on_cpus`: the first on the
    calling thread, the others on worker threads, one thread per CPU at
    most.  The pin is process-wide: it is set before the first solve and
    the previous count is restored once every worker is done, also when
    a solve fails.
    """
    get, set_ = control
    before = get()
    set_(1)
    try:
        return map_on_cpus(_dense_eigvals, blocks)
    finally:
        set_(before)


def _shift_invert(block, diag, center: complex, radius: float):
    """Every eigenvalue of a block within radius of center: (eigenvalues, k, passes, None).

    ``block()`` makes the block dense, and ``diag`` is its diagonal.  The
    first k is SHIFT_INVERT_GROWTH times the count of the diagonal in the
    disc, which in the Hermite basis follows the lattice; only when k is
    at most dim/8 is the block made dense.  A perturbed operator's diag
    is its stored P's (see `SpectrumResult._diagonal`), so k is sized
    before anything is drawn: at delta = 1e-4 and dim 1600, |delta Q_ii|
    is 2.2e-6 on average (at most 7.9e-6 over seeds 0-11), while the
    diagonal entry nearest the disc's edge lies 3.1e-4 from it in C5's
    count window (2.6e-4 in C7's at dim 3600), so the count is the same
    with or without delta Q (k = 49 at seeds 0-11; 62 at C7's seeds 0-4).
    Then A - center I is factored once (in A itself when A is a
    writeable Fortran-ordered array, as `_block` makes from a sparse or
    perturbed operator, else in a copy) and ARPACK runs for the k
    largest eigenvalues mu of its inverse (a fixed start vector keeps
    the result bitwise reproducible, and a Krylov space of max(20, 3k)
    vectors, scipy's default for k < 7, lets one pass converge without
    implicit restarts); lambda = center
    + 1/mu are the k eigenvalues nearest the center.  The k hold the disc
    only when the farthest lies beyond radius; otherwise k grows by the
    ratio of the disc's area to the area they cover, times
    SHIFT_INVERT_GROWTH.  Returns (None, k, passes, reason) when k
    exceeds dim/8, where a dense solve is cheaper, when the factor is
    singular or when ARPACK fails.
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

    n = len(diag)
    limit = n / 8
    inside = np.count_nonzero(np.abs(diag - center) <= radius)
    k = int(np.ceil(SHIFT_INVERT_GROWTH * max(1, inside)))
    passes = 0
    if k <= limit:
        A = block()
        F = A if A.flags.writeable and A.flags.f_contiguous else np.array(A, order="F")
        F[np.diag_indices(n)] -= center
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            lu = lu_factor(F, overwrite_a=True, check_finite=False)
        if not np.all(np.diagonal(lu[0])):
            return None, k, passes, "singular LU"
        op = LinearOperator((n, n), dtype=complex,
                            matvec=lambda x: lu_solve(lu, x, check_finite=False))
        v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
    while k <= limit:
        passes += 1
        try:
            mu = eigs(op, k=k, ncv=min(n, max(20, 3 * k)), which="LM", v0=v0,
                      return_eigenvectors=False)
        except ArpackError as exc:
            return None, k, passes, f"ARPACK: {exc}"
        ev = center + 1 / mu
        far = float(np.max(np.abs(ev - center)))
        if far > radius:
            return ev, k, passes, None
        k = int(np.ceil(SHIFT_INVERT_GROWTH * k * (radius / far) ** 2)) if far > 0 else n
    return None, k, passes, f"k {k} > dim/8 = {limit:g}"


# ------------------------------------------------------------ Bohr-Sommerfeld


@dataclass(frozen=True)
class BSLattice:
    """Bohr-Sommerfeld predictor: I(z)/(2 pi h) = k - theta, k in Z^2."""

    action_map: ActionMap
    h: float
    window: ComplexWindow
    theta0: tuple = (0.5, 0.5)

    def theta(self) -> np.ndarray:
        return np.asarray(self.theta0, dtype=float)


def bs_predict(lat: BSLattice):
    """The Bohr-Sommerfeld points z_k = ptilde(h (k - theta) - I0 / 2 pi) in the window.

    I(z) = 2 pi eta(z) + I0 equals 2 pi h (k - theta) exactly at z_k, so
    nothing is solved; k candidates come from the bounding box of I over
    the window.  Returns (points, unresolved) where unresolved lists the
    k whose round trip I(z_k) misses 2 pi h (k - theta) by more than
    10 BS_NEWTON_TOL, or where eta_of_z(z_k) fails.
    """
    am = lat.action_map
    h = lat.h
    th = lat.theta()
    I0 = np.asarray(am.I0)
    eta_grid, ok = am.eta_of_z(lat.window.centers_complex().ravel())
    if not am.constant_sign_at(eta_grid, ok):
        warnings.warn("action map is not a diffeomorphism on the window; "
                      "lattice predictions are unreliable", RuntimeWarning,
                      stacklevel=2)
    if not np.all(ok):
        raise SingularActionMapError(f"Newton inversion failed at {int((~ok).sum())} point(s)")
    I_grid = 2 * np.pi * eta_grid + I0
    lo = I_grid.min(axis=0) / (2 * np.pi * h) + th
    hi = I_grid.max(axis=0) / (2 * np.pi * h) + th
    k1 = np.arange(np.floor(lo[0]) - 1, np.ceil(hi[0]) + 2, dtype=int)
    k2 = np.arange(np.floor(lo[1]) - 1, np.ceil(hi[1]) + 2, dtype=int)
    K1, K2 = np.meshgrid(k1, k2, indexing="ij")
    ks = np.stack([K1.ravel(), K2.ravel()], axis=-1)
    eta = h * (ks - th) - I0 / (2 * np.pi)
    z = am.ptilde.evaluate(np.zeros_like(eta), eta)
    eta_z, ok = am.eta_of_z(z)
    targets = 2 * np.pi * h * (ks - th)
    solved = ok & (np.max(np.abs(2 * np.pi * eta_z + I0 - targets), axis=-1)
                   <= 10 * BS_NEWTON_TOL)
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
                      weyl_volume: float = None) -> ComparisonReport:
    """Eigenvalue count in the window against both density predictions.

    omega prediction: (2 pi h)^{-2} * integral of omega over the window;
    Weyl prediction: (2 pi h)^{-n} * vol(p^{-1}(W)), the volume passed
    in (``density.preimage_volume``).  Windows leaving the basis'
    trusted region are flagged, not rejected.
    """
    h = s.basis.h
    n_dim = s.basis.n
    count = int(s.in_window(win).size)
    omega_pred = float("nan")
    if omega_grid is not None:
        omega_pred = omega_grid.total_mass / (2 * np.pi * h) ** 2
    weyl_pred = float("nan")
    if weyl_volume is not None:
        weyl_pred = weyl_volume / (2 * np.pi * h) ** n_dim
    bound = s.basis.safe_bound()
    lo_r, hi_r, lo_i, hi_i = win.bounds
    flagged = max(abs(lo_r), abs(hi_r), abs(lo_i), abs(hi_i)) > bound

    def dev(pred):
        return (count - pred) / max(abs(pred), 1.0)

    return ComparisonReport(count, omega_pred, weyl_pred,
                            dev(omega_pred), dev(weyl_pred), h,
                            win.to_json_dict(), flagged)
