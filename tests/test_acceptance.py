"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here, not configurable.  The expensive spectral criteria share nothing:
each builds exactly the configuration it asserts.  C7's run also serves
a check of its eigensolver records.
"""

import numpy as np
import pytest

from bsweyl.density import ComplexWindow, weyl_density
from bsweyl.experiments import (BSExactnessConfig, DeformationSplitsConfig,
                                IntegrableEqualityConfig,
                                RandomWeylMigrationConfig, run_bs_exactness,
                                run_deformation_splits,
                                run_integrable_equality,
                                run_random_weyl_migration)
from bsweyl.flow import Deformation, DeformedSymbol, deformed_quadratic, integrate_flow
from bsweyl.quantize import BasisSpec, quantize_quadratic, spectrum
from bsweyl.symbols import (PhasePoint, SymbolExpr, cho, coupling_xx,
                            poisson_bracket, sin_x1_cos_xi2, torus_coupled)
from bsweyl.variation import CERT_THRESHOLD, TestFunction, first_variation_rhs

from oracles import harmonic_lattice


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# Each gate of a named experiment is a class constant of its config: the
# value asserted here, with no constructor argument to loosen it.
PINNED = [
    (IntegrableEqualityConfig, "rel_floor", 0.03),
    (IntegrableEqualityConfig, "sigma_factor", 3.0),
    (DeformationSplitsConfig, "first_tol", 0.02),
    (DeformationSplitsConfig, "second_tol", 0.03),
    (RandomWeylMigrationConfig, "required_closer", 4),
]


@pytest.mark.parametrize("cls, name, value", PINNED, ids=[p[1] for p in PINNED])
def test_gates_are_pinned_class_constants(cls, name, value):
    assert getattr(cls, name) == getattr(cls(), name) == value
    with pytest.raises(TypeError):
        cls(**{name: value})


def test_c4_c7_gate_counts_are_pinned():
    """C4's witness ratio > 5; C7's 4 closer seeds are out of its 5."""
    assert CERT_THRESHOLD == 5.0
    with pytest.raises(TypeError):
        DeformationSplitsConfig(certificate_threshold=CERT_THRESHOLD)
    assert len(RandomWeylMigrationConfig().seeds) == 5


def test_c1_integrable_equality():
    """w = omega for the coupled torus model: sup-cell <= max(3 sigma, 3%)."""
    cfg = IntegrableEqualityConfig(coupling=0.3,
                                   window=(-0.4, 0.4, -0.4, 0.4),
                                   resolution=(64, 64),
                                   samples=10_000_000, seed=5)
    report, w_grid, o_grid = run_integrable_equality(cfg)
    _report("C1 integrable equality", report["pass"],
            f"sup-cell |w-omega|/omega = {report['sup_cell_relative_deviation']:.4f} "
            f"(floor 3%), worst cell {report['worst_cell_sigma']:.2f} sigma")


def test_c2_flow_canonicality():
    """Canonical defect <= 1e-8 at 100 random points, |t| <= 0.3, tol 1e-10."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for G in (coupling_xx(), sin_x1_cos_xi2(tube_radius=8.0)):
        d = Deformation((G,), tol=1e-10)
        for _ in range(50):
            rho = PhasePoint.real(rng.uniform(-1.2, 1.2, 2),
                                  rng.uniform(-1.2, 1.2, 2))
            t = rng.uniform(-0.3, 0.3)
            res = integrate_flow(d, t, rho)
            worst = max(worst, res.canonical_defect)
    _report("C2 flow canonicality", worst <= 1e-8,
            f"max canonical defect {worst:.2e} over 100 points, two generators")


@pytest.fixture(scope="module")
def deformation_splits_report():
    return run_deformation_splits(DeformationSplitsConfig(
        t=0.2, quadrature_order=48))


def test_c3_first_variational_identity(deformation_splits_report):
    """FD dM/dt vs bracket integral <= 2%; integrable branch exactly 0."""
    rep = deformation_splits_report["first_order"]
    f = TestFunction(0.05 + 0.55j, 0.35)
    zero_branch = first_variation_rhs(f, cho(1.0, 0.0), coupling_xx(), 2.0, 48)
    zero_branch_torus = first_variation_rhs(f, torus_coupled(0.3),
                                            coupling_xx(), 2.0, 48)
    ok = (rep["discrepancy"] <= 0.02 and zero_branch == 0.0
          and zero_branch_torus == 0.0)
    _report("C3 first variational identity", ok,
            f"|FD - RHS|/|RHS| = {rep['discrepancy']:.4f} "
            f"(lhs {rep['lhs']:.6g}, rhs {rep['rhs']:.6g}); "
            f"integrable branch RHS == 0.0 exactly")


def test_c4_second_variational_identity(deformation_splits_report):
    """Second identity <= 3%; certificate witness > 5x its error estimate."""
    rep = deformation_splits_report["second_order"]
    cert = deformation_splits_report["certificate"]
    ok = rep["discrepancy"] <= 0.03 and cert is not None and cert["ratio"] > 5
    detail = (f"|FD - RHS|/|RHS| = {rep['discrepancy']:.4f}; ")
    if cert is not None:
        detail += (f"witness at {cert['f_center'][0]:.2f}+"
                   f"{cert['f_center'][1]:.2f}i value {cert['value']:.4g} "
                   f"= {cert['ratio']:.1f}x error")
    else:
        detail += "no witness found"
    _report("C4 second variational identity + certificate", ok, detail)


def test_c5_bs_lattice_exactness():
    """cho(1,0), h = 0.05, N = 60: spectrum, BS predictor and count laws."""
    cfg = BSExactnessConfig(h=0.05, basis_size=60)
    assert (cfg.region, cfg.match_tol, cfg.bs_tol, cfg.count_window) == (
        (0.0, 1.5, 0.0, 1.5), 1e-6, 1e-10, (0.2, 0.5, 0.25, 0.45))
    rep = run_bs_exactness(cfg)
    _report("C5 BS lattice exactness", rep["pass"],
            f"max |eig - lattice| = {rep['max_lattice_distance']:.2e} (<=1e-6), "
            f"BS match {rep['bs_match_distance']:.2e} (<=1e-10), "
            f"count {rep['count']} == rounded omega integral "
            f"{rep['rounded_omega_prediction']}")


def test_c6_spectrum_invariance_vs_density_change():
    """Deformation preserves the spectrum but moves the Weyl density."""
    h, N, t = 0.05, 40, 0.2
    p_t = deformed_quadratic(
        DeformedSymbol(cho(1.0, 0.0), Deformation((coupling_xx(),)), t))
    s_t = spectrum(quantize_quadratic(p_t, BasisSpec("hermite-tensor", N, h)))
    ev = s_t.in_window((0.0, 0.85, 0.0, 0.85))
    lat = harmonic_lattice(h, N)
    lat = lat[(lat.real < 0.85) & (lat.imag < 0.85)]
    dist = np.abs(ev[:, None] - lat[None, :]).min(axis=1)
    spec_ok = ev.size == lat.size and float(np.max(dist)) <= 1e-6

    win = ComplexWindow.from_bounds(-0.15, 0.15, 0.6, 1.2, (6, 6))
    g0 = weyl_density(cho(1.0, 0.0), win, box_radius=3.0,
                      samples=4_000_000, seed=4)
    gt = weyl_density(p_t, win, box_radius=3.0, samples=4_000_000, seed=5)
    zscores = np.abs(gt.values - g0.values) / np.hypot(gt.stderr, g0.stderr)
    dens_ok = float(np.max(zscores)) > 5.0
    _report("C6 spectrum invariance vs density change", spec_ok and dens_ok,
            f"max |eig(p_t) - lattice| = {float(np.max(dist)):.2e} over "
            f"{ev.size} eigenvalues (<=1e-6); max density z-score "
            f"{float(np.max(zscores)):.1f} (>5)")


@pytest.fixture(scope="module")
def random_weyl_migration_report():
    return run_random_weyl_migration(RandomWeylMigrationConfig(
        t=0.2, h=0.05, delta=1e-4, seeds=(0, 1, 2, 3, 4), basis_size=60))


def test_c7_random_weyl_migration(random_weyl_migration_report):
    """Perturbed counts strictly closer to vol(p_t^{-1}(W))/(2 pi h)^2 in >=4/5 seeds."""
    rep = random_weyl_migration_report
    counts = [r["count"] for r in rep["per_seed"]]
    _report("C7 random Weyl migration", rep["pass"],
            f"unperturbed {rep['unperturbed_count']}, perturbed {counts}, "
            f"Weyl prediction {rep['weyl_prediction']:.2f}, "
            f"closer in {rep['seeds_closer']}/{rep['seeds_total']} seeds")


def test_c7_solves_take_no_rejected_pass(random_weyl_migration_report):
    """Every eigensolve of C7's strip accepts its first shift-invert pass, or runs none."""
    rep = random_weyl_migration_report
    records = rep["unperturbed_solves"] + [r for row in rep["per_seed"] for r in row["solves"]]
    assert len(records) == 6
    assert all(set(r["passes"]) <= {0, 1} for r in records), records


def test_c8_property_suites():
    """Bracket algebra (1e-9), reversibility (1e-8), pushforward (3 sigma),
    Hermitian realness (1e-10)."""
    rng = np.random.default_rng(99)

    def rand_sym():
        out = SymbolExpr.zero(2)
        for _ in range(2):
            coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            out = out + SymbolExpr.monomial(
                coeff, tuple(rng.integers(0, 3, 2)), tuple(rng.integers(0, 3, 2)),
                xfreq=tuple(rng.integers(-1, 2, 2).astype(float)),
                xifreq=tuple(rng.integers(-1, 2, 2).astype(float)))
        return out

    worst_alg = 0.0
    for _ in range(100):
        f, g, k = rand_sym(), rand_sym(), rand_sym()
        x = rng.uniform(-1.5, 1.5, (1, 2)).astype(complex)
        xi = rng.uniform(-1.5, 1.5, (1, 2)).astype(complex)

        def ev(s):
            return complex(s.evaluate(x, xi)[0])

        anti = abs(ev(poisson_bracket(f, g)) + ev(poisson_bracket(g, f)))
        jac = abs(ev(poisson_bracket(f, poisson_bracket(g, k)))
                  + ev(poisson_bracket(g, poisson_bracket(k, f)))
                  + ev(poisson_bracket(k, poisson_bracket(f, g))))
        leib = abs(ev(poisson_bracket(f, g * k))
                   - ev(poisson_bracket(f, g)) * ev(k)
                   - ev(g) * ev(poisson_bracket(f, k)))
        scale = max(1.0, abs(ev(f)), abs(ev(g)), abs(ev(k))) ** 3
        worst_alg = max(worst_alg, anti / scale, jac / (100 * scale),
                        leib / scale)
    alg_ok = worst_alg <= 1e-9

    d = Deformation((coupling_xx(),), tol=1e-10)
    rho = PhasePoint.real([0.7, -0.4], [0.2, 0.5])
    fwd = integrate_flow(d, 0.3, rho).endpoint
    back = integrate_flow(d, -0.3, fwd).endpoint
    rev = float(np.max(np.abs(np.concatenate([back.x - rho.x,
                                              back.xi - rho.xi]))))
    rev_ok = rev <= 1e-8

    p = cho(1.0, complex(0.5, 0.5))
    win = ComplexWindow.from_bounds(0.0, 1.0, 0.0, 1.0, (16, 16))
    f_test = TestFunction(0.5 + 0.5j, 0.3)
    grid = weyl_density(p, win, box_radius=2.5, samples=1_000_000, seed=61)
    side_a = grid.integral(f_test.value)
    err_a = float(np.sqrt(np.sum((f_test.value(win.centers_complex())
                                  * grid.stderr * win.cell_area) ** 2)))
    rng2 = np.random.default_rng(62)
    pts = rng2.uniform(-2.5, 2.5, (1_000_000, 4))
    vals = f_test.value(p.evaluate(pts[:, :2], pts[:, 2:]))
    side_b = 5.0 ** 4 * float(np.mean(vals))
    err_b = 5.0 ** 4 * float(np.std(vals)) / 1000.0
    push_ok = abs(side_a - side_b) <= 3 * np.hypot(err_a, err_b)

    q = (SymbolExpr.monomial(0.5, (2, 0), (0, 0))
         + SymbolExpr.monomial(0.5, (0, 0), (2, 0))
         + SymbolExpr.monomial(0.5, (0, 2), (0, 0))
         + SymbolExpr.monomial(0.5, (0, 0), (0, 2))
         + SymbolExpr.monomial(0.25, (1, 1), (0, 0)))
    s = spectrum(quantize_quadratic(q, BasisSpec("hermite-tensor", 12, 0.1)))
    herm = float(np.max(np.abs(s.eigenvalues.imag)))
    herm_ok = herm <= 1e-10

    ok = alg_ok and rev_ok and push_ok and herm_ok
    _report("C8 property suites", ok,
            f"bracket algebra worst {worst_alg:.2e} (<=1e-9), reversibility "
            f"{rev:.2e} (<=1e-8), pushforward gap "
            f"{abs(side_a - side_b):.3g} vs 3 sigma "
            f"{3 * np.hypot(err_a, err_b):.3g}, Hermitian imag {herm:.2e} "
            f"(<=1e-10)")
