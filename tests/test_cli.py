"""End-to-end command-line tests on a small synthetic world."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lgcpthin
from lgcpthin import cli, geo
from lgcpthin.cli import _model_spec, _parse_args, build_parser, main, read_config
from lgcpthin.errors import ParseError
from lgcpthin.geo import Grid, RasterGrid, RoadNetwork
from lgcpthin.grf import SAMPLE_EXTENSION_FACTOR
from lgcpthin.inference import ModelSpec
from lgcpthin.simstudy import ScenarioConfig


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A 10 km square with one covariate raster and a small road network."""
    root = tmp_path_factory.mktemp("world")
    grid = Grid(0.0, 0.0, 1.0, 10, 10)
    centers = grid.cell_centers()
    vals = np.sin(0.7 * centers[:, 0]) + 0.4 * np.cos(0.5 * centers[:, 1])
    vals = (vals - vals.mean()) / vals.std()
    cov = RasterGrid(grid, vals.reshape(10, 10))
    cov_path = root / "x1.asc"
    geo.write_esri_ascii(cov, cov_path)
    roads = RoadNetwork((
        np.array([[0.0, 3.0], [10.0, 3.2]]),
        np.array([[6.0, 0.0], [6.2, 10.0]]),
    ))
    roads_path = root / "roads.geojson"
    geo.write_roads_geojson(roads, roads_path)
    return {"root": root, "cov": str(cov_path), "roads": str(roads_path)}


def test_import_loads_no_scipy_stats():
    """Every command pays for the package import before it does any work.
    The coefficient marginals' normal CDF is ``scipy.special.ndtr``, so no
    module loads scipy.stats, nor the scipy.integrate and scipy.ndimage that
    it pulls in."""
    code = ("import lgcpthin, lgcpthin.cli, sys; print(sorted({m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'], ['scipy', 'ndimage'])}))")
    src = str(Path(lgcpthin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def simulate_args(world, outdir, seed=7):
    return ["simulate", "--covariate", f"x1={world['cov']}", "--beta0", "1.1",
            "--coef", "0.8", "--rho", "2.5", "--sigma", "0.8",
            "--seed", str(seed), "--out", str(outdir)]


@pytest.fixture(scope="module")
def simulated(world):
    out = world["root"] / "sim"
    assert main(simulate_args(world, out)) == 0
    return out


@pytest.fixture(scope="module")
def thinned(world, simulated):
    out = world["root"] / "thin"
    code = main(["thin", "--points", str(simulated / "points.csv"),
                 "--roads", world["roads"], "--zeta", "1.5",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


def fit_args(world, points, outdir, model):
    return ["fit", "--points", str(points), "--covariate", f"x1={world['cov']}",
            "--roads", world["roads"], "--model", model, "--pc-rho0", "2.0",
            "--assess-draws", "150", "--seed", "1", "--out", str(outdir)]


@pytest.fixture(scope="module")
def fit_dirs(world, thinned):
    points = thinned / "thinned.csv"
    dirs = {}
    for model in ("naive", "vse"):
        out = world["root"] / f"fit_{model}"
        assert main(fit_args(world, points, out, model)) == 0
        dirs[model] = out
    return dirs


class TestSimulate:
    def test_byte_identical_under_fixed_seed(self, world):
        out1 = world["root"] / "sim_a"
        out2 = world["root"] / "sim_b"
        assert main(simulate_args(world, out1)) == 0
        assert main(simulate_args(world, out2)) == 0
        assert (out1 / "points.csv").read_bytes() == (out2 / "points.csv").read_bytes()

    def test_manifest_records_run(self, simulated):
        manifest = json.loads((simulated / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert "points.csv" in manifest["artifacts"]
        assert "numpy" in manifest["versions"]
        assert manifest["wall_time_s"] >= 0

    def test_writes_surface_raster(self, simulated):
        surface = geo.read_esri_ascii(simulated / "log_intensity.asc")
        assert surface.values.shape == (10, 10)


class TestThin:
    def test_removes_points_and_reports_fraction(self, simulated, thinned):
        before = geo.read_points_csv(simulated / "points.csv")
        after = geo.read_points_csv(thinned / "thinned.csv")
        assert 0 < len(after) < len(before)
        manifest = json.loads((thinned / "manifest.json").read_text())
        assert manifest["n_after"] == len(after)
        assert manifest["removed_fraction"] == pytest.approx(
            1 - len(after) / len(before))

    def test_zero_zeta_keeps_everything(self, world, simulated):
        out = world["root"] / "thin0"
        assert main(["thin", "--points", str(simulated / "points.csv"),
                     "--roads", world["roads"], "--zeta", "0",
                     "--seed", "3", "--out", str(out)]) == 0
        before = geo.read_points_csv(simulated / "points.csv")
        after = geo.read_points_csv(out / "thinned.csv")
        np.testing.assert_array_equal(after.points, before.points)


class TestFitPredictReport:
    def test_fit_outputs(self, fit_dirs):
        doc = json.loads((fit_dirs["naive"] / "fit.json").read_text())
        assert doc["model"] == "naive"
        names = {row["parameter"] for row in doc["parameters"]}
        assert names == {"beta0", "x1", "rho", "sigma"}
        assert set(doc["scores"]) >= {"dic", "waic", "lpml"}
        doc_vse = json.loads((fit_dirs["vse"] / "fit.json").read_text())
        assert {row["parameter"] for row in doc_vse["parameters"]} >= {"zeta"}

    def test_predict_from_saved_fit(self, world, fit_dirs):
        out = world["root"] / "pred"
        code = main(["predict", "--fit", str(fit_dirs["naive"]),
                     "--draws", "300", "--seed", "2", "--out", str(out)])
        assert code == 0
        med = geo.read_esri_ascii(out / "log_intensity_median.asc")
        sd = geo.read_esri_ascii(out / "log_intensity_sd.asc")
        assert med.values.shape == (10, 10)
        assert np.all(sd.values >= 0)

    @pytest.mark.parametrize("flag", [["--model", "vse"], ["--zeta-fixed", "3"], ["--pc-rho0", "9"]])
    def test_predict_rejects_model_and_prior_flags(self, tmp_path, flag):
        # predict takes its model and priors from the fit's manifest
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--fit", str(tmp_path), *flag, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_report_collects_criteria(self, world, fit_dirs):
        out = world["root"] / "report"
        code = main(["report", "--fits", str(fit_dirs["naive"]),
                     str(fit_dirs["vse"]), "--out", str(out)])
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "model,dic,waic,lpml"
        assert len(lines) == 3
        models = {line.split(",")[0] for line in lines[1:]}
        assert models == {"naive", "vse"}
        for line in lines[1:]:
            assert all(np.isfinite(float(v)) for v in line.split(",")[1:])


class TestExplore:
    def test_summary_and_ecdf(self, world, simulated):
        out = world["root"] / "explore"
        code = main(["explore", "--points", str(simulated / "points.csv"),
                     "--roads", world["roads"], "--grid-res", "40",
                     "--covariate", f"x1={world['cov']}", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "explore.json").read_text())
        assert 0 <= doc["ks_p_value"] <= 1
        assert doc["ks_statistic"] >= 0
        assert "0.5" in doc["fraction_within"]
        assert "x1" in doc["covariate_distance_correlation"]
        lines = (out / "ecdf.csv").read_text().splitlines()
        assert lines[0] == "distance,ecdf_points,ecdf_reference"
        assert len(lines) > 10

    def test_csv_bytes_equal_numpy_scalar_formatting(self, tmp_path):
        # explore passes its columns as lists of floats; they must print as
        # the numpy scalars that it once passed row by row.  The point and
        # raster writers pass their arrays' rows as lists; they must print as
        # the f-string reprs that those writers once wrote
        rng = np.random.default_rng(3)
        edge = [1e-05, 1e+16, -0.0, 5e-324, float("inf"), 0.1, 1 / 3, 2.0 ** -1074 * 3]
        cols = [np.concatenate([edge, rng.normal(size=500) * 10.0 ** rng.integers(-20, 20, 500)]),
                rng.uniform(size=508), np.arange(508) / 508]
        path = tmp_path / "cols.csv"
        geo.write_csv(path, ["a", "b", "c"], zip(*(c.tolist() for c in cols)))
        old = "a,b,c\n" + "".join(",".join(str(v) for v in row) + "\n" for row in zip(*cols))
        assert path.read_bytes() == old.encode()

        finite = cols[0][np.isfinite(cols[0])]
        pts = np.column_stack([finite, finite[::-1]])
        big = 2.0 * np.abs(pts).max()
        geo.write_points_csv(geo.PointPattern(pts, (-big, -big, big, big)), path)
        old = "x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in pts)
        assert path.read_bytes() == old.encode()

        raster = RasterGrid(Grid(-1e+16, 5e-324, 1 / 3, 127, 4), cols[0].reshape(4, 127))
        geo.write_raster_csv(raster, path)
        old = "x,y,value\n" + "".join(
            f"{float(x)!r},{float(y)!r},{float(v)!r}\n"
            for (x, y), v in zip(raster.grid.cell_centers(), raster.values.ravel()))
        assert path.read_bytes() == old.encode()


class TestExploreOnRoadPoints:
    def test_points_on_roads_saturate_thresholds(self, world, tmp_path):
        # every observation exactly on the network: all distance fractions hit
        # 1 and the distance distributions are nearly disjoint
        xs = np.linspace(0.5, 9.5, 60)
        pts = tmp_path / "onroad.csv"
        with open(pts, "w") as fh:
            fh.write("x,y\n")
            for x in xs:
                fh.write(f"{x},{3.0 + 0.02 * x}\n")
        out = tmp_path / "explore_onroad"
        code = main(["explore", "--points", str(pts), "--roads", world["roads"],
                     "--grid-res", "50", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "explore.json").read_text())
        assert all(v == 1.0 for v in doc["fraction_within"].values())
        assert doc["ks_statistic"] > 0.9


class TestSimstudyCommand:
    def test_self_test_mode_zero_bias(self, world):
        out = world["root"] / "study"
        code = main(["simstudy", "--replicates", "1", "--zeta-levels", "0", "16",
                     "--grid-n", "10", "--domain-size", "80", "--self-test",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        bias_col = header.index("bias")
        assert all(float(line.split(",")[bias_col]) == 0.0 for line in lines[1:])
        manifest = json.loads((out / "manifest.json").read_text())
        assert "zeta_scale" in manifest
        assert (out / "summary.md").exists()
        assert (out / "coverage.csv").exists()


class TestDefaults:
    """A flag left out gives the library's default."""

    def test_fit_builds_the_default_spec(self):
        args = build_parser().parse_args(["fit", "--points", "p", "--covariate", "x1=a",
                                          "--out", "o"])
        assert _model_spec(args, ["x1"]) == ModelSpec(("x1",))

    def test_simulate_draws_the_study_field(self):
        args = build_parser().parse_args(["simulate", "--covariate", "x1=a", "--beta0", "-4.25",
                                          "--coef", "0.82", "--out", "o"])
        assert (args.rho, args.sigma) == (ScenarioConfig.true_rho, ScenarioConfig.true_sigma)
        assert args.extension == SAMPLE_EXTENSION_FACTOR

    def test_simstudy_builds_the_default_config(self, tmp_path, monkeypatch):
        class Built(Exception):
            pass

        def capture(config):
            raise Built(config)

        monkeypatch.setattr(cli, "run_scenarios", capture)
        args = build_parser().parse_args(["simstudy", "--out", str(tmp_path)])
        with pytest.raises(Built) as exc:
            args.func(args)
        assert exc.value.args[0] == ScenarioConfig()


class TestConfigFile:
    def test_values_fill_defaults_and_flags_win(self, world, simulated, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed = 11\nzeta = 2.5\n")
        parsed = read_config(cfg)
        assert parsed == {"seed": "11", "zeta": "2.5"}  # text, for each option's type
        out = tmp_path / "thin_cfg"
        sim = world["root"] / "sim"
        code = main(["thin", "--points", str(sim / "points.csv"),
                     "--roads", world["roads"], "--zeta", "2.5",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11  # from config
        explicit = tmp_path / "thin_flag"
        code = main(["thin", "--points", str(sim / "points.csv"),
                     "--roads", world["roads"], "--zeta", "2.5",
                     "--seed", "99", "--config", str(cfg), "--out", str(explicit)])
        assert code == 0
        manifest = json.loads((explicit / "manifest.json").read_text())
        assert manifest["seed"] == 99  # explicit flag wins

    def test_explicit_flag_at_its_default_wins(self, world, simulated, tmp_path):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = 11\n")
        out = tmp_path / "thin_seed0"
        code = main(["thin", "--points", str(simulated / "points.csv"),
                     "--roads", world["roads"], "--zeta", "2.5",
                     "--seed", "0", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 0

    @pytest.mark.parametrize("command, text, words", [
        ("thin", "zetta = 5\n", ["'zetta'", "'thin'"]),  # misspelt key
        ("fit", "model = vsee\n", ["model", "'vsee'"]),   # value outside the choices
        ("thin", "seed = 1, 2\n", ["seed", "'thin'", "list"]),  # list for a scalar
        ("thin", "seed = 1.5\n", ["seed"]),  # a value the option's type rejects
    ])
    def test_bad_config_rejected(self, world, simulated, tmp_path, capsys,
                                 command, text, words):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        extra = {"thin": ["--roads", world["roads"], "--zeta", "2.5"],
                 "fit": ["--covariate", f"x1={world['cov']}"]}[command]
        code = main([command, "--points", str(simulated / "points.csv"), *extra,
                     "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and all(w in err for w in words)

    def test_repeatable_flag_replaces_config_list(self, world, simulated, tmp_path):
        # a single config value still counts as a list; a flag replaces it
        cfg = tmp_path / "cov.cfg"
        cfg.write_text(f"covariate = x2={world['cov']}\ngrid_res = 20\n")
        base = ["explore", "--points", str(simulated / "points.csv"),
                "--roads", world["roads"], "--config", str(cfg)]
        assert main(base + ["--out", str(tmp_path / "from_cfg")]) == 0
        assert main(base + ["--covariate", f"x1={world['cov']}",
                            "--out", str(tmp_path / "from_flag")]) == 0
        for name, want in (("from_cfg", {"x2"}), ("from_flag", {"x1"})):
            doc = json.loads((tmp_path / name / "explore.json").read_text())
            assert set(doc["covariate_distance_correlation"]) == want

    @pytest.mark.parametrize("text, key, want", [
        ('roads = "road#1.geojson"\n', "roads", "road#1.geojson"),
        ('points = "a, b.csv"\n', "points", "a, b.csv"),
    ], ids=["hash", "comma"])
    def test_quoted_value_is_one_value_verbatim(self, tmp_path, text, key, want):
        # quotes keep a '#' from starting a comment and a ',' from making a list
        cfg = tmp_path / "quoted.cfg"
        cfg.write_text(text)
        assert read_config(cfg) == {key: want}
        args = _parse_args(build_parser(), ["predict", "--fit", "f", "--config", str(cfg),
                                            "--out", "o"])
        assert getattr(args, key) == want

    def test_values_take_their_option_type(self, tmp_path):
        # as the same values given as flags would: a number-like path stays a string
        cfg = tmp_path / "types.cfg"
        predict = ["predict", "--fit", "f", "--config", str(cfg), "--out", "o"]
        cfg.write_text("roads = 2019\ncovariate = x1=a.asc, x2=b.asc\n")
        args = _parse_args(build_parser(), predict)
        assert args.roads == "2019"
        assert args.covariate == ["x1=a.asc", "x2=b.asc"]
        cfg.write_text("roads = 007\npoints = 1.50\n")
        args = _parse_args(build_parser(), predict)
        assert (args.roads, args.points) == ("007", "1.50")
        cfg.write_text("roads = TRUE\n")
        assert _parse_args(build_parser(), predict).roads == "TRUE"
        cfg.write_text("domain_size = 90\nzeta_levels = 0, 16\nself_test = true\n")
        args = _parse_args(build_parser(), ["simstudy", "--config", str(cfg), "--out", "o"])
        assert [type(v) for v in (args.domain_size, *args.zeta_levels)] == [float] * 3
        assert args.self_test is True

    @pytest.mark.parametrize("text", ["self_test = no\n", "self_test = 1\n"])
    def test_switch_takes_only_true_or_false(self, tmp_path, text):
        cfg = tmp_path / "switch.cfg"
        cfg.write_text(text)
        with pytest.raises(ParseError, match="self_test .* is not true or false"):
            _parse_args(build_parser(), ["simstudy", "--config", str(cfg), "--out", "o"])

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = 1\noops\n")
        with pytest.raises(ParseError, match="line 2"):
            read_config(bad)

    def test_scenario_definitions_from_config(self, tmp_path):
        # thinning levels and replicate counts can come from a config file
        cfg = tmp_path / "study.cfg"
        cfg.write_text("zeta_levels = 0, 16\nreplicates = 2\nself_test = true\n")
        out = tmp_path / "study_out"
        code = main(["simstudy", "--grid-n", "10", "--domain-size", "80",
                     "--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"]["replicates"] == 2
        assert manifest["options"]["zeta_levels"] == [0, 16]
        assert len(manifest["scenario_zetas"]) == 2


class TestErrorHandling:
    def test_malformed_points_file(self, world, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,zork\n")
        code = main(["thin", "--points", str(bad), "--roads", world["roads"],
                     "--zeta", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fit_rejects_nan_point(self, world, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("x,y\n2.5,3.5\nnan,4.0\n")
        code = main(fit_args(world, bad, tmp_path / "o", "naive"))
        assert code == 1
        assert "line 3: non-finite coordinate" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # made only when the first file is written

    @pytest.mark.parametrize("res", ["0", "-3"])
    def test_explore_grid_res_below_one(self, world, simulated, tmp_path, capsys, res):
        code = main(["explore", "--points", str(simulated / "points.csv"),
                     "--roads", world["roads"], "--grid-res", res,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--grid-res must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        (["--zeta-fixed", "-1"], "zeta_fixed must be nonnegative and finite"),
        (["--beta-precision", "0"], "prior precision must be positive and finite"),
        (["--theta-mean", "nan"], "prior mean must be finite"),
        (["--theta-precision", "0"], "prior precision must be positive and finite"),
        (["--pc-rho0", "nan"], "rho0 must be positive and finite, got nan"),
        (["--pc-sigma0", "inf"], "sigma0 must be positive and finite, got inf"),
        (["--pc-sigma0", "0"], "sigma0 must be positive and finite, got 0.0"),
    ])
    def test_fit_rejects_bad_model_values(self, world, thinned, tmp_path, capsys, flag, message):
        code = main(fit_args(world, thinned / "thinned.csv", tmp_path / "o", "vse") + flag)
        assert code == 1
        assert f"{flag[0]}: {message}" in capsys.readouterr().err

    def test_fit_rejects_zeta_fixed_for_naive_model(self, world, thinned, tmp_path, capsys):
        code = main(fit_args(world, thinned / "thinned.csv", tmp_path / "o", "naive")
                    + ["--zeta-fixed", "2"])
        assert code == 1
        assert "--zeta-fixed: zeta_fixed is read only by the VSE model" in capsys.readouterr().err

    def test_simstudy_rejects_informative_mean_with_default_prior(self, tmp_path, capsys):
        code = main(["simstudy", "--informative-mean", "2", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--informative-mean: informative_mean is read only by the 'informative'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        (["--grid-n", "0"], "grid_n must be at least 2, got 0"),
        (["--domain-size", "nan"], "domain_size must be positive and finite, got nan"),
    ])
    def test_simstudy_rejects_bad_geometry(self, tmp_path, capsys, flag, message):
        code = main(["simstudy", "--self-test", *flag, "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{flag[0]}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("draws", ["50", "-5"])
    def test_fit_assess_draws_checked_before_fitting(self, world, thinned, tmp_path, capsys,
                                                     draws):
        out = tmp_path / "o"
        code = main(fit_args(world, thinned / "thinned.csv", out, "naive")
                    + ["--assess-draws", draws])
        assert code == 1
        assert f"--assess-draws must be 0 (no scoring) or at least 100, got {draws}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["-0.5", "nan"])
    def test_simulate_rejects_bad_sigma(self, world, tmp_path, capsys, sigma):
        out = tmp_path / "o"
        code = main(simulate_args(world, out) + ["--sigma", sigma])
        assert code == 1
        assert "--sigma must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, world, tmp_path, capsys):
        code = main(["explore", "--points", str(tmp_path / "nope.csv"),
                     "--roads", world["roads"], "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
