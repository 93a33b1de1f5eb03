import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from bsweyl.audit import _components, audit
from bsweyl.density import ComplexWindow, action_map_integrable
from bsweyl.symbols import SymbolExpr, cho, torus_linear

audit_module = importlib.import_module("bsweyl.audit")  # the package exports the function


class TestAudit:
    def test_shifted_oscillator_torus(self):
        # zero set of cho(1,(1+i)/2) is the product of two unit circles;
        # the independence 2-form has magnitude 1 there
        p = cho(1.0, complex(0.5, 0.5))
        # the default budget gives a 0.2-net of the torus; smaller budgets
        # can leave gaps and the heuristic then reports multiple clusters
        rep = audit(p, sample_budget=4096, ball_radius=4.0, seed=0)
        assert rep.n_zero_points > 200
        assert rep.independence_min > 0.5
        assert rep.bracket_max == 0.0
        assert rep.bracket_flag == "pass"
        assert rep.connectivity_flag == "pass"

    def test_zero_points_on_known_torus(self):
        # dense-sampling oracle: every Newton point satisfies both circle
        # equations of the known torus
        p = cho(1.0, complex(0.5, 0.5))
        from bsweyl.audit import _zero_set_sample
        pts = _zero_set_sample(p, 2048, seed=0, box=2.0)
        r1 = 0.5 * (pts[:, 0] ** 2 + pts[:, 2] ** 2)
        r2 = 0.5 * (pts[:, 1] ** 2 + pts[:, 3] ** 2)
        assert np.max(np.abs(r1 - 0.5)) <= 1e-9
        assert np.max(np.abs(r2 - 0.5)) <= 1e-9

    def test_independence_flag(self):
        # cho(1,0) vanishes only at the origin, where both gradients vanish;
        # on the default symbol's torus the 2-form has magnitude 1
        degenerate = audit(cho(1.0, 0.0), sample_budget=4096, ball_radius=4.0, seed=0)
        assert degenerate.independence_min < 1e-12
        assert degenerate.independence_flag == "fail"
        torus = audit(cho(1.0, complex(0.5, 0.5)), sample_budget=4096, ball_radius=4.0, seed=0)
        assert torus.independence_min > 0.5
        assert torus.independence_flag == "pass"

    def test_elliptic_at_infinity_pass(self):
        p = cho(1.0, complex(0.5, 0.5))
        rep = audit(p, sample_budget=1024, ball_radius=4.0, seed=1)
        assert rep.ellipticity_flag == "pass"
        assert rep.ellipticity_min_abs >= 1.0 / 4.0

    def test_one_dimensional_model_bracket_one(self):
        # p = xi + i x: {Re p, Im p} = 1 everywhere on the zero set
        p = (SymbolExpr.monomial(1.0, (0,), (1,), n=1)
             + SymbolExpr.monomial(1j, (1,), (0,), n=1))
        rep = audit(p, sample_budget=512, ball_radius=2.0,
                    bracket_threshold=1.5, seed=2)
        assert rep.n_zero_points > 0
        assert rep.bracket_max == pytest.approx(1.0, abs=1e-8)
        assert rep.bracket_flag == "pass"  # threshold 1.5 is advisory

    def test_bracket_threshold_advisory_fail(self):
        p = (SymbolExpr.monomial(1.0, (0,), (1,), n=1)
             + SymbolExpr.monomial(1j, (1,), (0,), n=1))
        rep = audit(p, sample_budget=512, ball_radius=2.0,
                    bracket_threshold=0.1, seed=2)
        assert rep.bracket_flag == "fail"

    def test_empty_zero_set_not_checked(self):
        p = cho(1.0, complex(-3.0, -3.0))  # zero set off the real domain
        rep = audit(p, sample_budget=256, ball_radius=3.0, seed=3)
        assert rep.n_zero_points == 0
        assert rep.independence_flag == "not-checked"
        assert rep.connectivity_flag == "not-checked"
        assert rep.bracket_flag == "not-checked"

    def test_action_jacobian_condition(self):
        p = cho(1.0, complex(0.5, 0.5))
        am = action_map_integrable(torus_linear())
        win = ComplexWindow.from_bounds(-0.2, 0.2, -0.2, 0.2, (4, 4))
        rep = audit(p, sample_budget=256, ball_radius=4.0, seed=0,
                    action_map=am, window=win)
        assert rep.action_jacobian_cond == pytest.approx(1.0, rel=1e-9)

    def test_deterministic_given_seed(self):
        p = cho(1.0, complex(0.5, 0.5))
        a = audit(p, sample_budget=512, ball_radius=4.0, seed=9)
        b = audit(p, sample_budget=512, ball_radius=4.0, seed=9)
        assert a.independence_min == b.independence_min
        assert a.ellipticity_min_abs == b.ellipticity_min_abs

    def test_json_serialization(self):
        import json
        p = cho(1.0, complex(0.5, 0.5))
        rep = audit(p, sample_budget=256, ball_radius=4.0, seed=0)
        d = json.loads(rep.to_json())
        assert d["connectivity_flag"] in ("pass", "fail", "not-checked")
        assert d["bracket_max"] >= 0.0


def pair_graph_components(pts, radius):
    """Components of the graph of every pair at distance <= radius, all pairs at once."""
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
                       shape=(len(pts), len(pts)))
    return connected_components(graph, directed=False)[0]


class TestSingleCluster:
    def test_coincident_points_are_one_cluster(self):
        # every pair is at distance zero, and still an edge of the graph
        assert _components(np.zeros((4096, 4))) == 1

    def test_far_apart_clouds_are_two_clusters(self):
        rng = np.random.default_rng(0)
        cloud = 0.01 * rng.standard_normal((200, 4))
        assert _components(cloud) == 1
        assert _components(np.concatenate([cloud, cloud + 5.0])) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 120), st.integers(1, 4), st.floats(0.05, 0.6),
           st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_chunked_components_equal_the_pair_graph(self, m, dim, radius, pairs, seed):
        # clumps of near-duplicates and isolated points, read a few pairs at a time
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, (m, dim))
        if k := m // 2:
            pts[k:] = pts[rng.integers(0, k, m - k)] + 1e-3 * rng.standard_normal((m - k, dim))
        with mock.patch.object(audit_module, "CLUSTER_PAIRS", pairs):
            assert _components(pts, radius) == pair_graph_components(pts, radius)
