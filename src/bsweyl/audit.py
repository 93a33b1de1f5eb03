"""Numerical audit of the standing assumptions on a symbol.

Everything here is sampled evidence, not proof: ellipticity outside a
ball, independence of d Re p and d Im p on the real zero set, smallness
of {Re p, Im p} there, and a single-cluster heuristic for connectivity
of the zero set.  Flags are tri-state: "pass" / "fail" / "not-checked".
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, asdict

import numpy as np

from .density import _shards, newton_2xm
from .symbols import SymbolExpr, real_bracket

ZERO_TOL = 1e-10  # |p| at which a point counts as on the zero set
INDEPENDENCE_MIN = 1e-6  # |d Re p ^ d Im p| on the zero set below which independence fails
CLUSTER_PAIRS = 1 << 18  # neighbour pairs read at once by _components


@dataclass
class AuditReport:
    ellipticity_min_abs: float
    ellipticity_threshold: float
    ellipticity_flag: str
    n_zero_points: int
    independence_min: float | None
    independence_flag: str
    bracket_max: float | None
    bracket_threshold: float
    bracket_flag: str
    connectivity_flag: str
    action_jacobian_cond: float | None
    sample_budget: int
    ball_radius: float
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _zero_set_sample(p: SymbolExpr, budget, seed, box):
    """Gauss-Newton from quasi-random seeds onto {Re p = Im p = 0} in R^{2n}.

    Runs one block of `density._shards` at a time, so Newton's arrays
    follow BLOCK, not the budget; each block is mapped to the box into a
    new array, as the next block refills its buffer.  Keeps the points
    where |p| <= ZERO_TOL inside the box of radius 2 box.
    """
    n = p.n

    def residual(u):  # (Re p, Im p) and its real Jacobian on real points
        vals, grads = p.evaluate(u[:, :n], u[:, n:]), p.grad(u[:, :n], u[:, n:])
        return (np.stack([vals.real, vals.imag], axis=-1),
                np.stack([grads.real, grads.imag], axis=-2))

    kept = []
    for block in itertools.chain.from_iterable(_shards(2 * n, budget, seed, "sobol")):
        pts, _ = newton_2xm(residual, -box + 2 * box * block, ZERO_TOL)
        ok = np.abs(p.evaluate(pts[:, :n], pts[:, n:])) <= ZERO_TOL
        ok &= np.max(np.abs(pts), axis=1) <= 2 * box
        kept.append(pts[ok])
    return np.concatenate(kept)


def _independence_measure(p: SymbolExpr, pts):
    """|d Re p ^ d Im p| = Gram-determinant area of the two real gradients."""
    n = p.n
    grads = p.grad(pts[:, :n], pts[:, n:])
    ga, gb = grads.real, grads.imag
    aa = np.sum(ga * ga, axis=-1)
    bb = np.sum(gb * gb, axis=-1)
    ab = np.sum(ga * gb, axis=-1)
    return np.sqrt(np.maximum(aa * bb - ab * ab, 0.0))


def _components(pts, radius=0.2) -> int:
    """Connected components of the graph that joins points at distance <= radius.

    Neighbour lists are read for about CLUSTER_PAIRS pairs at a time (at
    least one point's) and merged into a union-find forest, so memory is
    bounded by the pairs of one chunk, not by every pair of the cloud.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree  # imported here: it alone costs about 0.1 s

    m = len(pts)
    tree = cKDTree(pts)
    chunk = np.cumsum(tree.query_ball_point(pts, radius, return_length=True)) // CLUSTER_PAIRS
    starts = np.flatnonzero(np.diff(chunk, prepend=-1))
    parent = np.arange(m)  # a root is its own parent; a root is its tree's smallest point

    def find(x):
        r = parent[x]
        while not np.array_equal(up := parent[r], r):
            r = up
        parent[x] = r
        return r

    for lo, hi in zip(starts, [*starts[1:], m]):
        nbrs = tree.query_ball_point(pts[lo:hi], radius)
        i = np.repeat(np.arange(lo, hi), [len(js) for js in nbrs])
        a, b = find(i), find(np.fromiter(itertools.chain.from_iterable(nbrs), np.intp, i.size))
        keep = a != b
        a, b = a[keep], b[keep]
        if a.size:  # merge the trees the chunk's edges join, each under its smallest root
            roots, at = np.unique(np.concatenate([a, b]), return_inverse=True)
            graph = coo_matrix((np.ones(a.size, dtype=np.int8), (at[:a.size], at[a.size:])),
                               shape=(roots.size, roots.size))
            n, label = connected_components(graph, directed=False)
            smallest = np.full(n, m)
            np.minimum.at(smallest, label, roots)
            parent[roots] = smallest[label]
    return int(np.count_nonzero(parent == np.arange(m)))


def audit(p: SymbolExpr, sample_budget=4096, ball_radius=4.0,
          bracket_threshold=0.1, seed=0, action_map=None,
          window=None) -> AuditReport:
    """Measure the standing assumptions on quasi-random samples.

    Reports minima/maxima over samples; deterministic for fixed seed.
    If the Newton search finds no zero point within budget, the
    connectivity and bracket checks come back "not-checked".
    """
    n = p.n
    # ellipticity: min |p| over a quasi-random shell C <= |rho|_inf <= 2C, a block at a time
    mins = []
    for block in itertools.chain.from_iterable(_shards(2 * n, sample_budget, seed + 1, "sobol")):
        shell = -2 * ball_radius + 4 * ball_radius * block
        shell = shell[np.max(np.abs(shell), axis=1) >= ball_radius]
        if len(shell):
            mins.append(np.min(np.abs(p.evaluate(shell[:, :n], shell[:, n:]))))
    ell_min = float(np.min(mins)) if mins else float("nan")
    ell_thresh = 1.0 / ball_radius
    ell_flag = "not-checked" if not mins else (
        "pass" if ell_min >= ell_thresh else "fail")

    zero_pts = _zero_set_sample(p, sample_budget, seed, box=ball_radius / 2)
    indep_min = br_max = None
    indep_flag = br_flag = conn = "not-checked"
    if len(zero_pts):
        indep_min = float(np.min(_independence_measure(p, zero_pts)))
        indep_flag = "pass" if indep_min >= INDEPENDENCE_MIN else "fail"
        br = real_bracket(p)
        if br.is_zero:
            br_max = 0.0
        else:
            bvals = br.evaluate(zero_pts[:, :n], zero_pts[:, n:])
            br_max = float(np.max(np.abs(bvals.real)))
        br_flag = "pass" if br_max < bracket_threshold else "fail"
        conn = "pass" if _components(zero_pts) == 1 else "fail"

    return AuditReport(
        ellipticity_min_abs=ell_min, ellipticity_threshold=ell_thresh,
        ellipticity_flag=ell_flag, n_zero_points=int(len(zero_pts)),
        independence_min=indep_min, independence_flag=indep_flag, bracket_max=br_max,
        bracket_threshold=bracket_threshold, bracket_flag=br_flag,
        connectivity_flag=conn,
        action_jacobian_cond=_action_cond(action_map, window),
        sample_budget=sample_budget, ball_radius=ball_radius, seed=seed)


def _action_cond(action_map, window):
    """Max condition number of DI over the window grid, when both given."""
    if action_map is None or window is None:
        return None
    z = window.centers_complex().ravel()
    _, dI = action_map.actions_and_jacobian(z)
    conds = np.linalg.cond(dI)
    return float(np.max(conds))
