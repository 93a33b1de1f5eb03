import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import bsweyl
from bsweyl import cli, experiments
from bsweyl.cli import (ENV_OUTDIR, EXPERIMENTS, ConfigError, ExperimentConfig,
                        _args_to_config, _parser, main)
from bsweyl.experiments import (BSExactnessConfig, DeformationSplitsConfig,
                                IntegrableEqualityConfig, RandomWeylMigrationConfig,
                                run_bs_exactness)
from bsweyl.symbols import action_symbol, cho, torus_linear
from bsweyl.variation import ACTION_FAMILY

# The CLI subprocess runs in a temporary working directory, where a relative
# PYTHONPATH such as `src` does not resolve. Prepend the absolute directory
# holding the imported `bsweyl` (`src/` or site-packages), so the CLI runs
# the same package that the in-process tests check.
_PKG_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(bsweyl.__file__)))
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (_PKG_PARENT, os.environ.get("PYTHONPATH")) if p))


def run_cli(args, cwd, env=CLI_ENV):
    return subprocess.run([sys.executable, "-m", "bsweyl", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


# Prints, after each step, the public scipy subpackages loaded so far (scipy.version
# is a module that `import scipy` loads, not a subpackage).
FOOTPRINT_SCRIPT = """
import sys
def show(step):
    print(step, *sorted(m[6:] for m, mod in list(sys.modules.items())
                        if m.startswith("scipy.") and m.count(".") == 1
                        and not m[6:].startswith("_") and hasattr(mod, "__path__")))
import bsweyl
show("import")
import bsweyl.cli
show("cli")
from bsweyl import density, flow, quantize, symbols, variation
p, win = symbols.cho(1.0, 0.5), density.ComplexWindow.from_bounds(0.2, 1.2, 0.0, 1.0, (4, 4))
density.weyl_density(p, win, 3.0, 4096)
density.preimage_volume(p, win, 3.0, 4096)
variation.moment(variation.TestFunction(0.7 + 0.5j, 0.3), p, 3.0, order=8, check_support=False)
flow.integrate_flow(flow.Deformation((symbols.coupling_xx(),)), 0.1,
                    symbols.PhasePoint([0.3, 0.1], [0.2, -0.4]))
show("passes")
quantize.quantize_quadratic(p, quantize.BasisSpec("hermite-tensor", 4, 0.5))
show("quantize")
"""


def test_import_leaves_scipy_stats_and_spatial_unloaded():
    # scipy.stats alone costs about 0.4 s of start-up; the Sobol' engine reads
    # its direction numbers from scipy's table file instead.  No public scipy
    # subpackage loads before a matrix is built: scipy.sparse and scipy.linalg
    # cost about 0.16 s and 25 MB, imported where quantize builds or solves one
    out = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT],
                         capture_output=True, text=True, env=CLI_ENV, check=True)
    loaded = {step: rest for step, *rest in map(str.split, out.stdout.splitlines())}
    assert loaded["import"] == loaded["cli"] == loaded["passes"] == []
    assert "sparse" in loaded["quantize"]  # deferred, not missing
    assert not {"stats", "spatial"} & set(loaded["quantize"])


def test_import_loads_no_scipy():
    # the Sobol' table is found through importlib's find_spec, and scipy's
    # subpackages are imported where a matrix is built or solved
    code = "import sys, bsweyl; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=CLI_ENV, check=True)
    assert out.stdout.split() == ["False"]


class TestConfigValidation:
    def test_unknown_fields_rejected_all_at_once(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({
                "experiment": "nope", "bogus": 1, "wild": 2, "h": 3.0})
        msgs = "\n".join(exc.value.errors)
        assert "bogus" in msgs and "wild" in msgs
        assert "experiment" in msgs
        assert "h" in msgs  # out of range too

    def test_valid_minimal(self):
        cfg = ExperimentConfig.from_dict({"experiment": "audit"})
        assert cfg.experiment == "audit"

    def test_seed_list_type(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "audit",
                                        "seeds": ["a"]})


class TestCLIRuns:
    def test_audit_subcommand(self, tmp_path):
        r = run_cli(["audit", "--symbol", "cho(1,(1+i)/2)", "--samples", "512",
                     "--outdir", str(tmp_path / "out")], cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert rep["bracket_max"] == pytest.approx(0.0, abs=1e-12)
        assert rep["independence_flag"] == "pass"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["experiment"] == "audit"
        assert "versions" in manifest

    def test_malformed_json_config_exit_2(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"experiment": "audit",,}')
        r = run_cli(["run", "--config", str(bad)], cwd=str(tmp_path))
        assert r.returncode == 2
        assert "line" in r.stderr and "col" in r.stderr

    def test_unknown_config_field_exit_2(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"experiment": "audit", "bogus": 1}))
        r = run_cli(["run", "--config", str(bad)], cwd=str(tmp_path))
        assert r.returncode == 2
        assert "bogus" in r.stderr

    def test_density_reproducible_csv(self, tmp_path):
        win = json.dumps({"center": [0.5, 0.5], "half_widths": [0.4, 0.4],
                          "resolution": [8, 8]})
        args = ["density", "--symbol", "cho(1,(1+i)/2)", "--samples", "200000",
                "--box-radius", "2.5", "--seed", "3", "--window", win]
        r1 = run_cli(args + ["--outdir", str(tmp_path / "a")], cwd=str(tmp_path))
        r2 = run_cli(args + ["--outdir", str(tmp_path / "b")], cwd=str(tmp_path))
        assert r1.returncode == 0, r1.stderr
        assert r2.returncode == 0
        csv_a = (tmp_path / "a" / "density.csv").read_bytes()
        csv_b = (tmp_path / "b" / "density.csv").read_bytes()
        assert csv_a == csv_b

    def test_rerun_from_manifest(self, tmp_path):
        r1 = run_cli(["audit", "--symbol", "cho(1,(1+i)/2)", "--samples", "512",
                      "--outdir", str(tmp_path / "out1")], cwd=str(tmp_path))
        assert r1.returncode == 0, r1.stderr
        manifest = tmp_path / "out1" / "manifest.json"
        # point the re-run at a new outdir via env var default override
        data = json.loads(manifest.read_text())
        data["config"]["outdir"] = str(tmp_path / "out2")
        manifest.write_text(json.dumps(data))
        r2 = run_cli(["run", "--config", str(manifest)], cwd=str(tmp_path))
        assert r2.returncode == 0, r2.stderr
        a = json.loads((tmp_path / "out1" / "audit.json").read_text())
        b = json.loads((tmp_path / "out2" / "audit.json").read_text())
        assert a == b

    def test_spectrum_subcommand(self, tmp_path):
        r = run_cli(["spectrum", "--symbol", "cho(1,0)", "--basis-size", "8",
                     "--h", "0.1", "--outdir", str(tmp_path / "s")],
                    cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "s" / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 1 + 64

    def test_variation_subcommand(self, tmp_path):
        # the order-16 left-hand side leaves a discrepancy of about 0.23 against
        # the exact right-hand side, far above the 0.03 bound
        r = run_cli(["variation", "--order", "2", "--symbol", "cho(1,0)",
                     "--G", "coupling-xx", "--quadrature-order", "16",
                     "--box-radius", "2.0",
                     "--outdir", str(tmp_path / "v")], cwd=str(tmp_path))
        assert r.returncode == 1, r.stderr
        rep = json.loads((tmp_path / "v" / "variation.json").read_text())
        assert rep["order"] == "second"
        out = json.loads(r.stdout)
        assert out["support_ok"] is True
        assert out["discrepancy_ok"] is False and out["pass"] is False
        assert out["discrepancy"] > out["discrepancy_tol"] == 0.03

    def test_variation_resolved_quadrature_passes(self, tmp_path):
        r = run_cli(["variation", "--order", "2", "--symbol", "cho(1,0)",
                     "--G", "coupling-xx", "--quadrature-order", "32",
                     "--box-radius", "2.0",
                     "--outdir", str(tmp_path / "v")], cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)
        assert out["support_ok"] is True and out["discrepancy_ok"] is True
        assert out["discrepancy"] <= 0.03

    @pytest.mark.parametrize("argv", [["--G", "coupling-xx", "--t", "0.2"],
                                      ["--order", "2", "--symbol", "cho(1,0)",
                                       "--G", "coupling-xx"]])
    def test_variation_default_box_passes(self, argv, tmp_path, capsys):
        # without --box-radius, variation takes deformation-splits' box for its order
        assert main(["variation", *argv, "--outdir", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        cfg = DeformationSplitsConfig
        assert out["box_radius"] == (cfg.box_radius_first if "--t" in argv
                                     else cfg.box_radius_second)
        assert out["discrepancy_ok"] is True and out["pass"] is True

    def test_variation_truncated_box_fails(self, tmp_path):
        r = run_cli(["variation", "--G", "coupling-xx", "--t", "0.2",
                     "--quadrature-order", "16", "--box-radius", "1.0",
                     "--outdir", str(tmp_path / "v")], cwd=str(tmp_path))
        assert r.returncode == 1, r.stderr
        rep = json.loads(r.stdout)
        assert rep["support_ok"] is False and rep["pass"] is False
        assert "SupportLeakWarning" in r.stderr

    def test_deform_density_subcommand(self, tmp_path):
        win = json.dumps({"center": [0.5, 0.5], "half_widths": [0.4, 0.4],
                          "resolution": [8, 8]})
        r = run_cli(["deform-density", "--symbol", "cho(1,0)",
                     "--G", "coupling-xx", "--t", "0.2",
                     "--samples", "200000", "--box-radius", "2.5",
                     "--window", win, "--outdir", str(tmp_path / "dd")],
                    cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "dd" / "density.csv").exists()

    def test_seeds_count_semantics(self):
        import argparse
        from bsweyl.cli import _args_to_config
        ns = argparse.Namespace(symbol=None, G=None, window=None, t=0.0,
                                h=0.1, delta=0.0, seeds=5, seed=None,
                                seed_list=None, samples=1000, order=1,
                                quadrature_order=16, box_radius=2.0,
                                basis_size=8, basis_kind="hermite-tensor",
                                sampler="sobol", f_center=[0.0, 0.0],
                                f_radius=0.3, coupling=0.3, outdir=None)
        cfg = _args_to_config("audit", ns)
        assert cfg.seeds == [0, 1, 2, 3, 4]

    def test_experiment_alias(self, tmp_path):
        r = run_cli(["experiment", "audit", "--symbol", "cho(1,(1+i)/2)",
                     "--samples", "256", "--outdir", str(tmp_path / "e")],
                    cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr

    def test_env_var_outdir(self, tmp_path):
        env = dict(CLI_ENV, BSWEYL_OUTDIR=str(tmp_path / "envout"))
        r = run_cli(["audit", "--symbol", "cho(1,(1+i)/2)", "--samples", "256"],
                    cwd=str(tmp_path), env=env)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "envout" / "audit.json").exists()

    def test_integrable_equality_exit_zero(self, tmp_path):
        # reduced sample count; the estimator is low-discrepancy, so the
        # 3% floor still holds comfortably
        r = run_cli(["integrable-equality", "--samples", "2000000",
                     "--seed", "5", "--outdir", str(tmp_path / "ie")],
                    cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr + r.stdout
        rep = json.loads((tmp_path / "ie" / "report.json").read_text())
        assert rep["pass"]
        assert (tmp_path / "ie" / "weyl_density.csv").exists()
        assert (tmp_path / "ie" / "omega_density.csv").exists()

    def test_floats_serialized_17_digits_csv(self, tmp_path):
        win = json.dumps({"center": [0.5, 0.5], "half_widths": [0.4, 0.4],
                          "resolution": [4, 4]})
        r = run_cli(["density", "--symbol", "cho(1,(1+i)/2)", "--samples",
                     "100000", "--box-radius", "2.5", "--window", win,
                     "--outdir", str(tmp_path / "d")], cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        row = (tmp_path / "d" / "density.csv").read_text().splitlines()[1]
        val = row.split(",")[2]
        # %.17g round-trips doubles exactly
        assert float(val) == float(f"{float(val):.17g}")


WIN = '{"center": [0.35, 0.35], "half_widths": [0.15, 0.1], "resolution": [8, 8]}'


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--symbol", "sin-x1-cos-xi2"],
        ["deform-density", "--G", "coupling-xx", "--t", "0.9",
         "--window", '{"center":[0.5,0.5],"half_widths":[0.4,0.4]}'],
        ["density", "--window",
         '{"center":[0.5,0.5],"half_widths":[0.4,0.4],"resolution":["a",4]}'],
        ["count", "--symbol", "coupling-xx", "--window", WIN],
        ["bs", "--symbol", "cho(i,0)", "--window", WIN],
        ["spectrum", "--basis-size", "70"],
        ["deform-density", "--G", "coupling-xx", "--t", "0.2", "--samples", "4096",
         "--window", '{"center":[0.35,0.35],"half_widths":[0.15,0.1]}'],
    ])
    def test_domain_errors_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    @pytest.mark.parametrize("field, value, why", [
        ("step_hint", "NaN", "finite and > 0, got nan"),  # looped forever
        ("tol", "-1", "finite and > 0, got -1.0"),  # ran with no step control
        ("tol", "0", "finite and > 0, got 0.0"),  # read "step size underflow"
        ("t_max", "Infinity", "finite and >= 0, got inf"),
    ])
    def test_bad_deformation_number_exit_2(self, field, value, why, tmp_path):
        # a subprocess under a timeout: a regression fails instead of hanging
        (tmp_path / "cfg.json").write_text(
            '{"experiment": "spectrum", "symbol": "cho(1,0)", "t": 0.2, "basis_size": 8, '
            f'"deformation": {{"G": "coupling-xx", "{field}": {value}}}}}')
        r = subprocess.run([sys.executable, "-m", "bsweyl", "run", "--config", "cfg.json"],
                           capture_output=True, text=True, cwd=tmp_path, env=CLI_ENV,
                           timeout=60)
        assert r.returncode == 2
        assert r.stderr.splitlines() == [
            f"config error: deformation '{field}' must be {why}"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    SINGLE_SEED = ("audit", "density", "deform-density", "spectrum", "count",
                   "integrable-equality")

    def test_single_seed_experiments(self):
        # every experiment that takes seeds runs one, except C7's migration
        assert {name for name, (_, takes) in cli.RUNNERS.items() if "seeds" in takes} == {
            *self.SINGLE_SEED, "random-weyl-migration"}

    @pytest.mark.parametrize("name", SINGLE_SEED)
    def test_more_than_one_seed_exit_2(self, name, tmp_path, monkeypatch, capsys):
        # the extra seeds would be dropped, yet the manifest would record them
        monkeypatch.chdir(tmp_path)
        cfg = {"experiment": name, "seeds": [0, 1, 2],
               **({"window": json.loads(WIN)} if name in ("density", "deform-density", "count")
                  else {}),
               **({"deformation": {"G": "coupling-xx"}} if name == "deform-density" else {})}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", "cfg.json"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: {name} runs one seed, got 3"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_seeds_flag_on_single_seed_experiment_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["audit", "--seeds", "3", "--samples", "64"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: audit runs one seed, got 3"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("route", ["config", "flag"])
    def test_empty_seed_list_exit_2(self, route, tmp_path, monkeypatch, capsys):
        # zero seeds would run no perturbed spectrum and fail C7 as a check
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"experiment": "random-weyl-migration", "seeds": []}))
        argv = {"config": ["run", "--config", "cfg.json"],
                "flag": ["random-weyl-migration", "--seeds", "0"]}[route]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: 'seeds' must be a non-empty list of integers"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_renamed_sampler_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "density", "sampler": "halton"}))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: 'sampler' must be 'sobol' or 'random'"]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_invalid_config_field_exit_2(self, data, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        real = st.floats(allow_nan=False, allow_infinity=False)
        nonfinite = st.sampled_from([math.nan, math.inf, -math.inf])
        wrong = st.one_of(st.text(max_size=4), st.booleans(),
                          st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
        junk = st.one_of(wrong, st.lists(st.integers(), max_size=3), nonfinite)  # for scalars
        two = st.lists(st.one_of(real, nonfinite), min_size=2, max_size=2).filter(
            lambda v: not all(map(math.isfinite, v)))  # a pair with a NaN or an inf
        pair = st.one_of(wrong, st.none(), real, two)  # for number pairs
        bad = {
            "experiment": st.text(max_size=8).filter(lambda v: v not in EXPERIMENTS),
            "t": junk, "coupling": junk,
            "h": st.one_of(junk, real.filter(lambda v: not 0 < v <= 1)),
            "delta": st.one_of(junk, st.floats(max_value=-1e-9)),
            "box_radius": st.one_of(junk, st.floats(max_value=0)),
            "f_radius": st.one_of(junk, st.floats(max_value=0)),
            "samples": st.one_of(junk, real, st.integers(max_value=0)),
            "quadrature_order": st.one_of(junk, real, st.integers(max_value=7)),
            "basis_size": st.one_of(junk, real, st.integers(max_value=0)),
            "order": st.one_of(junk, real, st.integers().filter(lambda v: v not in (1, 2))),
            "seeds": st.one_of(st.integers(), st.lists(
                st.one_of(st.booleans(), st.text(max_size=2)), min_size=1, max_size=3)),
            "sampler": junk, "basis_kind": junk,
            "f_center": st.one_of(pair, st.lists(real, min_size=3, max_size=3)),
            "theta0": st.one_of(pair, st.lists(real, max_size=1)),
            "I0": st.one_of(pair, st.lists(st.text(max_size=2), min_size=2, max_size=2)),
            "eta_box": st.one_of(pair, st.lists(st.lists(real, min_size=2, max_size=2),
                                                min_size=1, max_size=1),
                                 st.lists(two, min_size=2, max_size=2)),
            "outdir": st.one_of(st.integers(), st.booleans(), st.lists(st.text(max_size=2))),
        }
        field = data.draw(st.sampled_from(sorted(bad)))
        cfg = {"experiment": data.draw(st.sampled_from(EXPERIMENTS)),
               field: data.draw(bad[field])}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2, cfg
        assert capsys.readouterr().err.startswith("config error: ")


def test_density_tagged_quasi_monte_carlo(tmp_path, capsys):
    win = '{"center": [0.5, 0.5], "half_widths": [0.4, 0.4], "resolution": [4, 4]}'
    assert main(["density", "--symbol", "cho(1,(1+i)/2)", "--samples", "1024",
                 "--box-radius", "2.5", "--window", win, "--outdir", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "quasi-monte-carlo"
    meta = json.loads((tmp_path / "density_meta.json").read_text())
    assert meta["method"] == "quasi-monte-carlo" and meta["sampler"] == "sobol"


def test_deform_density_meta_counts_flowed_samples(tmp_path, capsys):
    win = '{"center": [0.0, 0.9], "half_widths": [0.15, 0.3], "resolution": [6, 6]}'
    assert main(["deform-density", "--symbol", "cho(1,0)", "--G", "sin-x1-cos-xi2",
                 "--t", "0.2", "--samples", "4096", "--box-radius", "3",
                 "--window", win, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "density_meta.json").read_text())
    assert meta["samples"] == 4096 and 0 < meta["flowed"] < 4096 // 10


class TestTruncatedBox:
    """A box whose faces map into the window cuts the preimage: the run fails."""

    DENSITY_WIN = '{"center": [0.5, 0.5], "half_widths": [0.4, 0.4], "resolution": [4, 4]}'
    COUNT_WIN = '{"center": [0.35, 0.35], "half_widths": [0.15, 0.1], "resolution": [4, 4]}'

    @pytest.mark.parametrize("argv", [["density"],
                                      ["deform-density", "--G", "coupling-xx", "--t", "0.2"]])
    @pytest.mark.parametrize("box, code", [(["--box-radius", "1.0"], 1), ([], 0)])
    def test_density_exit_code(self, argv, box, code, tmp_path, capsys):
        assert main(argv + box + ["--samples", "65536", "--window", self.DENSITY_WIN,
                                  "--outdir", str(tmp_path)]) == code
        rep = json.loads(capsys.readouterr().out)
        assert rep["pass"] is rep["boundary_margin_ok"] is (code == 0)
        assert (rep["boundary_margin"] == 0.0) is (code == 1)

    @pytest.mark.parametrize("box, code", [(["--box-radius", "0.7"], 1), ([], 0)])
    def test_count_exit_code(self, box, code, tmp_path, capsys):
        assert main(["count", "--samples", "262144", "--h", "0.05", "--basis-size", "40",
                     "--window", self.COUNT_WIN, "--outdir", str(tmp_path)] + box) == code
        rep = json.loads(capsys.readouterr().out)
        assert rep["pass"] is rep["boundary_margin_ok"] is (code == 0)
        assert rep["count"] == 24
        # the truncated box sees only part of the preimage volume
        assert (abs(rep["weyl_prediction"] - rep["count"]) < 3) is (code == 0)


def test_bs_builds_no_operator(tmp_path, capsys, monkeypatch):
    args = ["bs", "--h", "0.1", "--window", WIN]
    assert main(args + ["--outdir", str(tmp_path / "a")]) == 0

    def fail(*a, **k):
        raise AssertionError("bs must not build or perturb an operator")

    monkeypatch.setattr(cli, "quantize_quadratic", fail)
    monkeypatch.setattr(cli, "perturb", fail)
    # a deformation leaves the action map, so the lattice, unchanged
    assert main(args + ["--G", "coupling-xx", "--t", "0.2",
                        "--outdir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    lattice = (tmp_path / "a" / "bs_lattice.csv").read_text()
    assert len(lattice.splitlines()) > 1

    assert (tmp_path / "b" / "bs_lattice.csv").read_text() == lattice
    # the operator's size and perturbation are not bs inputs
    for flag, value in (("--basis-size", "60"), ("--delta", "1e-4")):
        assert main(args + [flag, value, "--outdir", str(tmp_path / "c")]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: bs does not take a {flag[2:].replace('-', '_')!r}"]
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--basis-size", "65"],
    ["spectrum", "--basis-kind", "torus-fourier", "--basis-size", "32"],
    ["count", "--basis-size", "65", "--window", WIN],
    ["random-weyl-migration", "--basis-size", "65"],
    ["bs-exactness", "--basis-size", "65"],
])
def test_capped_basis_builds_no_operator(argv, tmp_path, capsys, monkeypatch):
    # a basis above DIM_CAP is a config error before any operator is assembled
    def fail(*a, **k):
        raise AssertionError("a basis above the cap must not be assembled")

    for module in (cli, experiments):
        monkeypatch.setattr(module, "quantize_quadratic", fail)
    monkeypatch.setattr(cli, "quantize_torus", fail)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: 'basis_size' ")
    assert not any(tmp_path.iterdir())
    assert ExperimentConfig.from_dict({"experiment": "spectrum", "basis_size": 64}).basis_size == 64


def _json_symbol(*terms, n=2):
    """A symbol JSON from (re, im, xpow, xipow[, xfreq]) terms."""
    out = []
    for re, im, xpow, xipow, *xfreq in terms:
        out.append({"re": re, "im": im, "xpow": xpow, "xipow": xipow,
                    **({"xfreq": xfreq[0]} if xfreq else {})})
    return json.dumps({"n": n, "terms": out})


# (re, im, xpow, xipow) terms of cho(1, 0) = (x1^2 + xi1^2)/2 + i (x2^2 + xi2^2)/2
CHO = ((0.5, 0, [2, 0], [0, 0]), (0.5, 0, [0, 0], [2, 0]),
       (0, 0.5, [0, 2], [0, 0]), (0, 0.5, [0, 0], [0, 2]))
NOT_QUADRATIC = "symbol is not a polynomial of degree <= 2"
NOT_ACTIONS = "the action map needs a symbol sum_j a_j (x_j^2 + xi_j^2)/2 + c in n = 2"


class TestActionSymbolFromSymbol:
    def test_default_is_torus_linear(self):
        assert action_symbol(cho(1.0, 0.0)) == torus_linear()

    @pytest.mark.parametrize("symbol, reason", [
        ("sin-x1-cos-xi2", NOT_QUADRATIC),
        (_json_symbol(*CHO, (0.1, 0, [4, 0], [0, 0])), NOT_QUADRATIC),
        (_json_symbol((0.5, 0, [2], [0]), (0.5, 0, [0], [2]), n=1), NOT_ACTIONS),
        (_json_symbol(*CHO, (0.2, 0, [1, 0], [0, 0])), NOT_ACTIONS),
        (_json_symbol(*CHO, (0.1, 0, [2, 0], [0, 0])), NOT_ACTIONS),
        (_json_symbol(*CHO, (0.1, 0, [0, 0], [0, 0], [1.0, 0.0])), NOT_QUADRATIC),
        (_json_symbol(*CHO[:2], (1.0, 0, [0, 2], [0, 0]), (1.0, 0, [0, 0], [0, 2])),
         "no action map: a_1 and a_2 are linearly dependent over R"),
    ], ids=["trig", "quartic", "n1", "linear", "unequal-squares", "cho-plus-trig",
            "dependent"])
    def test_symbol_without_action_map_exit_2(self, symbol, reason, tmp_path):
        res = run_cli(["bs", "--symbol", symbol, "--window", WIN, "--outdir",
                       str(tmp_path / "out")], tmp_path)
        assert res.returncode == 2
        assert res.stderr.splitlines() == [f"config error: {reason}"]

    def _run(self, argv, tmp_path, capsys):
        if argv[0] == "count":  # bs builds no operator and draws no samples
            argv = argv + ["--basis-size", "6", "--samples", "1000"]
        assert main(argv + ["--h", "0.1", "--window", WIN,
                            "--outdir", str(tmp_path)]) == 0
        return json.loads(capsys.readouterr().out)

    def test_count_omega_follows_symbol(self, tmp_path, capsys):
        one = self._run(["count", "--symbol", "cho(1,0)"], tmp_path / "a", capsys)
        two = self._run(["count", "--symbol", "cho(2,0)"], tmp_path / "b", capsys)
        assert one["omega_prediction"] == pytest.approx(6.0, rel=1e-12)
        assert two["omega_prediction"] == pytest.approx(one["omega_prediction"] / 2,
                                                        rel=1e-12)

    def test_bs_lattice_follows_symbol(self, tmp_path, capsys):
        rep = self._run(["bs", "--symbol", "cho(2,0)"], tmp_path, capsys)
        lines = (tmp_path / "bs_lattice.csv").read_text().splitlines()[1:]
        pts = [complex(*map(float, line.split(","))) for line in lines]
        # h (k + 1/2) + 2 i h (k' + 1/2) inside [0.2, 0.5] x [0.25, 0.45]
        assert rep["n_points"] == len(pts) == 3
        assert all(abs(z.imag - 0.3) < 1e-12 for z in pts)


def test_bs_lattice_csv_ends_lines_in_crlf(tmp_path, capsys):
    # as DensityGrid.write_csv and SpectrumResult.write_csv write theirs
    assert main(["bs", "--h", "0.1", "--window", WIN, "--outdir", str(tmp_path)]) == 0
    raw = (tmp_path / "bs_lattice.csv").read_bytes()
    assert raw.startswith(b"re,im\r\n") and raw.endswith(b"\r\n")
    rows = 1 + json.loads(capsys.readouterr().out)["n_points"]
    assert raw.count(b"\n") == raw.count(b"\r\n") == rows > 1


@pytest.mark.parametrize("terms", [
    CHO + tuple((0.075, 0, xp, xip) for xp, xip in (([2, 2], [0, 0]), ([2, 0], [0, 2]),
                                                  ([0, 2], [2, 0]), ([0, 0], [2, 2]))),
    ((0.5, 0.25, [2, 0], [0, 0]), (0.5, 0.25, [0, 0], [2, 0])) + CHO[2:],
], ids=["quartic", "complex-a1"])
def test_variation_base_outside_the_family_exit_2(terms, tmp_path):
    # the quartic I1 + i I2 + 0.3 I1 I2, and (1 + 0.5i) I1 + i I2: both
    # integrable, neither with a quadrant for its image
    r = run_cli(["variation", "--order", "2", "--symbol", _json_symbol(*terms),
                 "--G", "coupling-xx", "--outdir", str(tmp_path / "v")], cwd=str(tmp_path))
    assert r.returncode == 2
    assert r.stderr.splitlines() == [f"config error: {ACTION_FAMILY}"]
    assert not (tmp_path / "v").exists()


class TestRunnerTable:
    # the named experiments and the dataclass each one hands its run_* function
    NAMED = {"integrable-equality": ("run_integrable_equality", IntegrableEqualityConfig),
             "deformation-splits": ("run_deformation_splits", DeformationSplitsConfig),
             "random-weyl-migration": ("run_random_weyl_migration",
                                       RandomWeylMigrationConfig),
             "bs-exactness": ("run_bs_exactness", BSExactnessConfig)}

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_experiment_runs_its_defaults(self, name, tmp_path, monkeypatch, capsys):
        fn, config_cls = self.NAMED[name]
        calls = []

        def fake(cfg, outdir):
            calls.append((cfg, outdir))
            report = {"experiment": name, "pass": True}
            return (report, None, None) if name == "integrable-equality" else report

        monkeypatch.setattr(cli, fn, fake)
        monkeypatch.delenv(ENV_OUTDIR, raising=False)
        monkeypatch.chdir(tmp_path)
        assert main([name]) == 0
        capsys.readouterr()
        assert calls == [(config_cls(), f"out-{name}")]

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_flag_defaults_are_the_config_defaults(self, name):
        args = _parser().parse_args([name])
        assert _args_to_config(name, args) == ExperimentConfig(experiment=name)

    @pytest.mark.parametrize("route", ["subcommand", "experiment", "run"])
    def test_bs_exactness_reachable(self, route, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        outdir = str(tmp_path / "cli")
        argv = {"subcommand": ["bs-exactness", "--h", "0.1", "--basis-size", "16",
                               "--outdir", outdir],
                "experiment": ["experiment", "bs-exactness", "--h", "0.1",
                               "--basis-size", "16", "--outdir", outdir],
                "run": ["run", "--config", "cfg.json"]}[route]
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"experiment": "bs-exactness", "h": 0.1, "basis_size": 16, "outdir": outdir}))
        # at h = 0.1 lattice points sit on the count window's edges, so the
        # count check fails and the run exits 1; a small basis keeps it fast
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["h"] == 0.1
        run_bs_exactness(BSExactnessConfig(h=0.1, basis_size=16), str(tmp_path / "direct"))
        assert ((tmp_path / "cli" / "report.json").read_bytes()
                == (tmp_path / "direct" / "report.json").read_bytes())

    @pytest.mark.parametrize("argv", [
        [name, flag, value]
        for name in ("integrable-equality", "deformation-splits",
                     "random-weyl-migration", "bs-exactness")
        for flag, value in (("--symbol", "cho(2,0)"), ("--G", "coupling-xx"))
    ] + [
        ["audit", "--G", "coupling-xx"],
        ["density", "--G", "coupling-xx", "--window", WIN],
        ["integrable-equality", "--window", "no-such-window.json"],
        # bs checks the deformation it takes; audit rejects what it would cap
        ["bs", "--G", "no-such-generator", "--window", WIN],
        ["bs", "--G", "coupling-xx", "--t", "7", "--window", WIN],
        ["audit", "--samples", "10000"],
        # the second variation is taken at t = 0
        ["variation", "--order", "2", "--G", "coupling-xx", "--t", "0.3"],
    ])
    def test_ignored_input_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not list(tmp_path.iterdir())

    # a valid value, other than the default, for every field an experiment may take
    FIELD_VALUES = {
        "symbol": "cho(2,0)", "deformation": {"G": "coupling-xx"}, "t": 0.1,
        "window": json.loads(WIN), "h": 0.2, "delta": 1e-3, "seeds": [1],
        "samples": 64, "quadrature_order": 16, "box_radius": 2.0, "basis_size": 8,
        "basis_kind": "torus-fourier", "sampler": "random", "order": 2,
        "f_center": [0.0, 0.0], "f_radius": 0.2, "theta0": [0.0, 0.0],
        "I0": [0.1, 0.1], "eta_box": [[-0.5, 0.5], [-0.5, 0.5]], "coupling": 0.1,
    }

    def test_field_values_cover_the_config(self):
        fields = set(ExperimentConfig.__dataclass_fields__) - {"experiment", "outdir"}
        assert set(self.FIELD_VALUES) == fields
        for name in EXPERIMENTS:
            assert set(cli.RUNNERS[name][1]) <= fields

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_fields_not_taken_exit_2(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        extra = sorted(set(self.FIELD_VALUES) - set(cli.RUNNERS[name][1]))
        assert extra
        cfg = {"experiment": name, **{k: self.FIELD_VALUES[k] for k in extra}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert sorted(err) == sorted(f"config error: {name} does not take a {k!r}"
                                     for k in extra)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
