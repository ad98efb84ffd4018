import argparse
import contextlib
import csv
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from resokit import expansion, scenarios
from resokit.cli import main
from resokit.errors import SchemaError
from resokit.gamow import GamowKet
from resokit.quadrature import LAPLACE_RULE
from resokit.scenarios import KINDS, list_scenarios, load_config, run_scenario
from resokit.surface import ResonancePole

GOLDEN_ROOT = Path(__file__).parent / "golden"
BUILTINS = (
    "single_resonance",
    "kaon_pair",
    "golden_rule_sweep",
    "khalfin",
    "contour_check",
    "histories_demo",
)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def cells_close(a, b):
    return math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=1e-12)


def run_cli(args):
    """cli.main(args); returns the exit code, stderr and every warning
    raised, which pytest would otherwise catch before stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(args)
    return code, err.getvalue(), [str(w.message) for w in caught]


def contour_state(term, **wave):
    """contour_check parameters whose state wave has the one term given."""
    return {"resonances": [{"energy": 1.0, "width": 0.2}],
            "state": {"half_plane": "lower", "terms": [term], **wave}}


STATE_TERM = {"re": 1.0, "pole_re": 1.5, "pole_im": 0.8}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run every builtin once and keep (manifest, out_dir) per name."""
    out = {}
    for name in BUILTINS:
        out_dir = tmp_path_factory.mktemp(f"run_{name}")
        manifest = run_scenario(load_config(name), out_dir=out_dir)
        out[name] = (manifest, out_dir)
    return out


class TestCatalog:
    def test_kinds_are_fixed(self):
        assert KINDS == (
            "contour_check",
            "golden_rule_sweep",
            "histories_demo",
            "khalfin",
            "single_resonance",
            "two_resonance",
        )

    def test_listing_covers_builtins(self):
        rows = list_scenarios()
        assert sorted(r["name"] for r in rows) == sorted(BUILTINS)
        for r in rows:
            assert r["kind"] in KINDS
            assert r["summary"]

    def test_readme_lists_every_field(self, capsys):
        # in schema order, and `run` offers no option past the four the
        # README documents
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = {}
        for line in readme.splitlines():
            cells = [cell.strip() for cell in line.split("|")[1:-1]]
            if cells and cells[0].strip("`") in KINDS:
                rows[cells[0].strip("`"), cells[1].strip("`")] = cells[2:]
        fields = {(kind, f.name): f for kind, table in scenarios._SCHEMA.items() for f in table}
        assert list(rows) == list(fields)
        for key, f in fields.items():
            type_, default, bounds = rows[key]
            assert type_ == f.type, key
            if f.default is scenarios._REQUIRED:
                assert default == "required", key
            elif f.type in ("number", "int", "numbers"):
                assert default == f"`{json.dumps(f.default)}`", key
            for op, bound in ((">", f.gt), (">=", f.ge), ("<=", f.le)):
                assert bound is None or f"{op} {bound:g}" in bounds, key
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert options == {"--help", "--out-dir", "--format", "--seed", "--bless"}

    def test_load_builtin_and_path(self, tmp_path):
        cfg = load_config("khalfin")
        assert cfg["kind"] == "khalfin"
        p = tmp_path / "copy.json"
        p.write_text(json.dumps(cfg))
        assert load_config(str(p)) == cfg

    def test_load_failures(self, tmp_path):
        with pytest.raises(SchemaError):
            load_config("no_such_scenario")
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(SchemaError):
            load_config(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            load_config(str(arr))


class TestSchemaValidation:
    def test_unknown_kind(self, tmp_path):
        with pytest.raises(SchemaError) as exc:
            run_scenario({"kind": "resummation"}, out_dir=tmp_path)
        assert "kind" in str(exc.value)

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(SchemaError) as exc:
            run_scenario({"kind": "khalfin", "parameters": {}}, out_dir=tmp_path)
        assert "parameters.energy" in str(exc.value)

    def test_unknown_tolerance_key(self, tmp_path):
        # no kind has a tolerances block; the oracle's tail cut is fixed
        cfg = load_config("contour_check")
        cfg["parameters"]["tolerances"] = {"direct_tail": 1e-9}
        with pytest.raises(SchemaError) as exc:
            run_scenario(cfg, out_dir=tmp_path)
        assert str(exc.value).startswith("parameters.tolerances: unknown key")

    def test_bad_seed(self, tmp_path):
        cfg = load_config("single_resonance")
        with pytest.raises(SchemaError):
            run_scenario(cfg, out_dir=tmp_path, seed="not-a-seed")
        with pytest.raises(SchemaError):
            run_scenario(cfg, out_dir=tmp_path, seed=True)

    def test_bad_format(self, tmp_path):
        cfg = load_config("single_resonance")
        with pytest.raises(SchemaError):
            run_scenario(cfg, out_dir=tmp_path, fmt="xml")

    def test_two_resonance_needs_two_poles(self, tmp_path):
        cfg = load_config("kaon_pair")
        cfg["parameters"]["resonances"] = cfg["parameters"]["resonances"][:1]
        with pytest.raises(SchemaError):
            run_scenario(cfg, out_dir=tmp_path)

    def test_ratios_must_decrease(self, tmp_path):
        cfg = load_config("golden_rule_sweep")
        cfg["parameters"]["ratios"] = [0.1, 0.2]
        with pytest.raises(SchemaError):
            run_scenario(cfg, out_dir=tmp_path)

    def test_boolean_points_rejected(self, tmp_path):
        cfg = load_config("khalfin")
        cfg["parameters"]["points"] = True
        with pytest.raises(SchemaError):
            run_scenario(cfg, out_dir=tmp_path)

    @pytest.mark.parametrize(
        "base, key, value",
        [("kaon_pair", "lifetimes", math.inf),
         ("contour_check", "times_lifetimes", [0.0, math.inf])],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, base, key, value):
        cfg = load_config(base)
        cfg["parameters"][key] = value
        with pytest.raises(SchemaError):
            run_scenario(cfg, out_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_non_string_kind(self, tmp_path):
        with pytest.raises(SchemaError):
            run_scenario({"kind": ["khalfin"]}, out_dir=tmp_path)


class TestAchievedQuality:
    def test_single_resonance(self, runs):
        achieved = runs["single_resonance"][0]["achieved"]
        assert achieved["exponential_law_max_dev"] < 1e-12
        assert achieved["semigroup_max_dev"] < 1e-12

    @pytest.mark.parametrize("parameters", [
        None, {"energy": 3.7, "width": 0.013, "lifetimes": 7.5, "points": 33}],
        ids=["builtin", "off_default"])
    def test_semigroup_over_all_ordered_pairs(self, runs, tmp_path, parameters):
        # the runner takes the pairs a <= b only; the maximum over all 400
        # ordered pairs of its 20 times must come out bit for bit the same
        config = load_config("single_resonance")
        if parameters is None:
            manifest = runs["single_resonance"][0]
        else:
            manifest = run_scenario({**config, "parameters": parameters}, out_dir=tmp_path)
        p = {**config["parameters"], **(parameters or {})}
        ket = GamowKet(ResonancePole(p["energy"], p["width"]))
        ts = np.linspace(0.0, p["lifetimes"] / p["width"], p["points"])
        sub = np.linspace(0.0, ts[-1] / 2.0, 20)
        c = ket.evolution_coefficient
        brute = max(abs(c(float(a + b)) - c(float(a)) * c(float(b))) for a in sub for b in sub)
        assert manifest["achieved"]["semigroup_max_dev"] == brute

    def test_kaon_pair(self, runs):
        achieved = runs["kaon_pair"][0]["achieved"]
        assert achieved["reconstruction_max_rel_err"] < 1e-6
        assert achieved["state_leakage"] == 0.0
        assert achieved["effective_levels"] == 2.0

    def test_golden_rule_sweep(self, runs):
        achieved = runs["golden_rule_sweep"][0]["achieved"]
        assert abs(achieved["gap_loglog_slope"] - 1.0) < 0.15
        assert achieved["strictly_decreasing"] == 1.0

    def test_khalfin(self, runs):
        # the rotated contour against the closed form, gated at 1e-9 in the run
        achieved = runs["khalfin"][0]["achieved"]
        assert achieved["cross_method_max_diff"] < 1e-12

    def test_contour_check(self, runs):
        achieved = runs["contour_check"][0]["achieved"]
        assert achieved["deformation_max_rel_err"] < 1e-6

    def test_histories_demo(self, runs):
        achieved = runs["histories_demo"][0]["achieved"]
        assert achieved["history_vs_sequential_max_diff"] < 1e-12
        assert achieved["entropy_min_gain"] >= -1e-10


    @pytest.mark.parametrize("name", ["kaon_pair", "contour_check"])
    def test_exact_error_bound_reported(self, runs, name):
        # the running rounding bound of the closed-form pairing, which
        # raises past 1e-9 of |I|; the QUADPACK key is gone
        achieved = runs[name][0]["achieved"]
        assert 0.0 < achieved["exact_error_bound_max"] < 1e-9
        assert "direct_error_bound_max" not in achieved

    @pytest.mark.parametrize(
        "name, edit, key",
        [("kaon_pair", lambda p: p["resonances"][0].update(width=1e-3),
          "reconstruction_max_rel_err"),
         ("contour_check", lambda p: [p[side]["terms"][0].update(order=1)
                                      for side in ("dual", "state")],
          "deformation_max_rel_err")],
        ids=["kaon_narrow_width", "contour_order_one"],
    )
    def test_checks_hold_where_quadpack_failed(self, tmp_path, name, edit, key):
        # the QUADPACK oracle reported 34 and 10.4 here while the expansion
        # was right; the closed form measures the expansion itself
        cfg = load_config(name)
        edit(cfg["parameters"])
        manifest = run_scenario(cfg, out_dir=tmp_path)
        assert manifest["achieved"][key] < 1e-8

    def test_uncertified_pairing_exits_1(self, tmp_path):
        # a state pole 1e-7 from conj(z): the closed form cancels past its
        # bound, so the run fails with one JSON line and writes nothing
        cfg = load_config("contour_check")
        cfg["parameters"]["state"]["terms"][0].update(pole_re=1.0 + 1e-7, pole_im=0.1)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code, err, caught = run_cli(["run", str(path), "--out-dir", str(tmp_path / "out")])
        assert (code, caught) == (1, [])
        lines = err.splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"]["type"] == "QuadratureError"
        assert not (tmp_path / "out").exists()

    def test_checks_run_without_quadpack(self, tmp_path, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("a built-in scenario called QUADPACK")

        monkeypatch.setattr("resokit.quadrature.quad", no_quad)
        for name in (row["name"] for row in list_scenarios()):
            manifest = run_scenario(load_config(name), out_dir=tmp_path / name)
            assert manifest["rows_written"] > 0


class TestLongHorizons:
    def test_kaon_pair_at_200_lifetimes(self, tmp_path, capsys):
        # the former real-axis ray table would need 4.95M nodes here
        cfg = load_config("kaon_pair")
        cfg["parameters"]["lifetimes"] = 200.0
        path = tmp_path / "long.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "kaon_pair.csv")
        assert len(rows) == 121
        assert float(rows[-1][0]) == pytest.approx(1000.0)
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        manifest = json.loads((tmp_path / "kaon_pair.manifest.json").read_text())
        assert manifest["achieved"]["reconstruction_max_rel_err"] < 1e-6

    def test_table_does_not_depend_on_horizon(self, tmp_path, monkeypatch):
        tables = []
        original = expansion.expand

        def recording_expand(*args, **kwargs):
            exp = original(*args, **kwargs)
            tables.append(exp.ray_values)
            return exp

        monkeypatch.setattr(expansion, "expand", recording_expand)
        for lifetimes in (1.0, 50.0):
            cfg = load_config("kaon_pair")
            cfg["parameters"].update(lifetimes=lifetimes, points=3)
            run_scenario(cfg, out_dir=tmp_path / str(lifetimes))
        assert len(tables) == 2
        assert tables[0].shape == LAPLACE_RULE[0].shape
        np.testing.assert_array_equal(tables[0], tables[1])


class TestOutputs:
    def test_manifest_shape(self, runs):
        for name, (manifest, out_dir) in runs.items():
            assert manifest["schema_version"] == 1
            assert manifest["scenario"] == name
            assert manifest["seed"] == 2026
            assert manifest["format"] == "csv"
            assert manifest["outputs"] == [f"{name}.csv"]
            assert manifest["wall_time_s"] >= 0.0
            assert len(manifest["config_sha256"]) == 64
            header, rows = read_csv(out_dir / f"{name}.csv")
            assert header == manifest["columns"]
            assert len(rows) == manifest["rows_written"]

    def test_csv_cells_round_trip(self, runs):
        manifest, out_dir = runs["single_resonance"]
        header, rows = read_csv(out_dir / "single_resonance.csv")
        t = np.array([float(r[0]) for r in rows])
        p = np.array([float(r[3]) for r in rows])
        # survival column is exactly |e^{-izt}|^2 for the 0.2-width pole
        assert np.max(np.abs(p - np.exp(-0.2 * t))) < 1e-12

    def test_unix_line_endings(self, runs):
        _, out_dir = runs["khalfin"]
        assert b"\r" not in (out_dir / "khalfin.csv").read_bytes()

    def test_json_format(self, tmp_path):
        manifest = run_scenario(
            load_config("single_resonance"), out_dir=tmp_path, fmt="json"
        )
        payload = json.loads((tmp_path / "single_resonance.json").read_text())
        assert payload["columns"] == manifest["columns"]
        assert len(payload["rows"]) == manifest["rows_written"]

    def test_bless_writes_golden_copy(self, tmp_path):
        manifest = run_scenario(
            load_config("single_resonance"), out_dir=tmp_path, bless=True
        )
        golden = Path(manifest["golden_dir"])
        assert golden == tmp_path / "golden" / "single_resonance"
        assert (golden / "single_resonance.csv").read_bytes() == (
            tmp_path / "single_resonance.csv"
        ).read_bytes()
        stable = json.loads((golden / "single_resonance.manifest.json").read_text())
        assert "wall_time_s" not in stable
        assert stable["config_sha256"] == manifest["config_sha256"]


class TestDeterminism:
    def test_rerun_is_byte_identical(self, runs, tmp_path):
        for name in ("single_resonance", "histories_demo"):
            _, first_dir = runs[name]
            rerun = run_scenario(load_config(name), out_dir=tmp_path / name)
            assert (tmp_path / name / f"{name}.csv").read_bytes() == (
                first_dir / f"{name}.csv"
            ).read_bytes()
            assert rerun["config_sha256"] == runs[name][0]["config_sha256"]

    def test_seed_changes_random_outputs(self, tmp_path):
        m7 = run_scenario(load_config("histories_demo"), out_dir=tmp_path / "a", seed=7)
        m7b = run_scenario(load_config("histories_demo"), out_dir=tmp_path / "b", seed=7)
        m8 = run_scenario(load_config("histories_demo"), out_dir=tmp_path / "c", seed=8)
        a = (tmp_path / "a" / "histories_demo.csv").read_bytes()
        b = (tmp_path / "b" / "histories_demo.csv").read_bytes()
        c = (tmp_path / "c" / "histories_demo.csv").read_bytes()
        assert a == b
        assert a != c
        assert m7["seed"] == 7
        assert m7["config_sha256"] == m7b["config_sha256"]
        assert m7["config_sha256"] != m8["config_sha256"]


class TestGoldenFiles:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_matches_committed_golden(self, runs, name):
        manifest, out_dir = runs[name]
        golden_dir = GOLDEN_ROOT / name
        g_header, g_rows = read_csv(golden_dir / f"{name}.csv")
        header, rows = read_csv(out_dir / f"{name}.csv")
        assert header == g_header
        assert len(rows) == len(g_rows)
        for row, g_row in zip(rows, g_rows):
            for cell, g_cell in zip(row, g_row):
                assert cells_close(cell, g_cell), (cell, g_cell)
        stable = json.loads((golden_dir / f"{name}.manifest.json").read_text())
        assert stable["config_sha256"] == manifest["config_sha256"]
        assert stable["columns"] == manifest["columns"]
        assert stable["rows_written"] == manifest["rows_written"]
        assert stable["seed"] == manifest["seed"]
        for key, ref in stable["achieved"].items():
            got = manifest["achieved"][key]
            assert abs(got - ref) <= 1e-12 + 0.05 * abs(ref), (key, got, ref)


class TestCli:
    def test_list_plain(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTINS:
            assert name in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(BUILTINS)

    def test_run_builtin(self, tmp_path, capsys):
        code = main(
            ["run", "single_resonance", "--out-dir", str(tmp_path), "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert (tmp_path / "single_resonance.csv").exists()
        manifest = json.loads(
            (tmp_path / "single_resonance.manifest.json").read_text()
        )
        assert manifest["seed"] == 5

    def test_unknown_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "nope_nope", "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SchemaError"

    def test_malformed_override_exits_2(self, tmp_path, capsys):
        # no option overrides a tolerance; argparse refuses the flag
        with pytest.raises(SystemExit) as exc:
            main(["run", "single_resonance", "--out-dir", str(tmp_path),
                  "--tol-override", "direct_tail=1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol-override" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_parser_is_built_once(self, monkeypatch, capsys):
        main(["list"])
        built = []
        real = argparse.ArgumentParser
        monkeypatch.setattr(argparse, "ArgumentParser",
                            lambda *args, **kwargs: built.append(1) or real(*args, **kwargs))
        for _ in range(3):
            assert main(["list", "--json"]) == 0
        assert built == []

    def _run_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        return main(["run", str(path), "--out-dir", str(out_dir)])

    @pytest.mark.parametrize(
        "key, value",
        [("output", [1]), ("parameters", [1, 2]), ("output", {"stem": "../escaped"}),
         ("output", {"stem": "sub/escaped"}), ("scenario", "../escaped"),
         ("paramters", {"points": 3}), ("bogus", 1), ("output", {"stme": "x"})],
        ids=["output_list", "parameters_list", "stem_parent", "stem_subdir",
             "scenario_parent", "parameters_typo", "unknown_top_level_key", "output_typo"],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, key, value):
        # the top level and the output block go through field tables like the
        # parameters; the three unknown keys used to be ignored (exit 0)
        cfg = load_config("single_resonance")
        cfg[key] = value
        assert self._run_config(tmp_path, cfg) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SchemaError"
        assert key in err["error"]["message"]
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]

    def test_ray_tail_tolerance_is_unknown(self, tmp_path, capsys):
        # the background line table refines itself and the direct oracle's
        # tail cut is fixed; no kind takes a tolerances block
        cfg = load_config("contour_check")
        cfg["parameters"]["tolerances"] = {"ray_tail": 1e-10}
        assert self._run_config(tmp_path, cfg) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SchemaError"
        assert err["error"]["message"].startswith("parameters.tolerances: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]

    @pytest.mark.parametrize(
        "base, key, value, path",
        [("kaon_pair", "lifetimes", 1e308, "parameters.lifetimes"),
         ("contour_check", "times_lifetimes", [0.0, 1e308],
          "parameters.times_lifetimes[1]"),
         ("khalfin", "lifetimes_max", 1e6, "parameters.lifetimes_max"),
         ("khalfin", "lifetimes_max", 710.0, "parameters.lifetimes_max")],
        ids=["kaon_lifetimes", "contour_times", "khalfin_far", "khalfin_edge"],
    )
    def test_unrepresentable_times_exit_2(self, tmp_path, capsys, base, key, value, path):
        # finite inputs whose derived times overflow, or whose exponential
        # law underflows, used to write nan/inf rows or end in a traceback
        cfg = load_config(base)
        cfg["parameters"][key] = value
        assert self._run_config(tmp_path, cfg) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SchemaError"
        assert err["error"]["message"].startswith(path + ":")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]

    @pytest.mark.parametrize(
        "rows, achieved",
        [([[0.0, 1.0], [1.0, math.nan]], {"quality": 0.0}),
         ([[0.0, 1.0]], {"quality": math.inf})],
        ids=["cell", "achieved"],
    )
    def test_non_finite_results_exit_1(self, tmp_path, capsys, monkeypatch, rows, achieved):
        monkeypatch.setitem(scenarios._RUNNERS, "single_resonance",
                            lambda params, rng: (["t", "value"], rows, achieved))
        assert self._run_config(tmp_path, load_config("single_resonance")) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DomainError"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]

    @pytest.mark.parametrize(
        "kind, parameters, args, code, path",
        [("khalfin", {"energy": 1.0, "width": 0.05, "bogus": 3}, [], 2, "parameters.bogus"),
         ("khalfin", {"energy": 1.0, "width": 0.05, "tolerances": {"zzz": 1}}, [], 2,
          "parameters.tolerances"),
         ("khalfin", {"energy": 1.0, "width": 1e-310}, [], 2, "parameters.lifetimes_max"),
         ("khalfin", {"energy": 1.0, "width": 0.05, "cross_check_lifetimes": []}, [], 2,
          "parameters.cross_check_lifetimes"),
         ("khalfin", {"energy": 1.0, "width": 5e-324, "lifetimes_min": 1e-17,
                      "lifetimes_max": 1e-16, "cross_check_lifetimes": [1e-17]}, [], 2,
          "parameters"),
         ("single_resonance", {"energy": 1.0, "width": 1e-310}, [], 2,
          "parameters.lifetimes"),
         ("single_resonance", {"energy": 1.0, "width": 0.2, "points": 2**70}, [], 2,
          "parameters.points"),
         ("two_resonance", {"resonances": [{"energy": 1.0, "width": 0.2},
                                           {"energy": 1.6, "width": 0.35}],
                            "points": 10_001}, [], 2, "parameters.points"),
         ("contour_check", {"resonances": [{"energy": 1.0, "width": 0.2}],
                            "times_lifetimes": [1e300]}, [], 1, None),
         ("contour_check", {"resonances": [{"energy": 1.0, "width": 0.2},
                                           {"energy": 1.6, "width": 0.35}],
                            "times_lifetimes": [3e307]}, [], 1, None),
         ("contour_check", {"resonances": [{"energy": 1.0, "width": 0.2}],
                            "dual": {"half_plane": "sideways", "terms": []}}, [], 2,
          "parameters.dual.half_plane"),
         ("contour_check", contour_state({**STATE_TERM, "order": 2.7}), [], 2,
          "parameters.state.terms[0].order"),
         ("contour_check", contour_state({**STATE_TERM, "order": True}), [], 2,
          "parameters.state.terms[0].order"),
         ("contour_check", contour_state({**STATE_TERM, "order": "2"}), [], 2,
          "parameters.state.terms[0].order"),
         ("contour_check", contour_state({**STATE_TERM, "re": True}), [], 2,
          "parameters.state.terms[0].re"),
         ("contour_check", contour_state({**STATE_TERM, "zzz": 1}), [], 2,
          "parameters.state.terms[0].zzz"),
         ("contour_check", contour_state(STATE_TERM, zzz=1), [], 2,
          "parameters.state.zzz"),
         ("contour_check", {"resonances": [{"energy": 1.0, "width": 0.2}],
                            "tolerances": {"leakage": 1e-5}}, [], 2,
          "parameters.tolerances"),
         ("histories_demo", {"time_scale": 1e308}, [], 2, "parameters.time_scale"),
         ("histories_demo", {"levels": 2**70}, [], 2, "parameters.levels"),
         ("khalfin", None, [], 2, None),
         ("khalfin", '{"energy": 1%s, "width": 0.05}' % ("0" * 5000), [], 2, None)],
        ids=["khalfin_unknown_key", "khalfin_unknown_tolerance",
             "khalfin_tiny_width",
             "khalfin_no_cross_checks", "khalfin_underflowing_width",
             "single_tiny_width", "single_points", "two_points",
             "contour_far", "contour_phase_overflow", "contour_bad_wave", "wave_fractional_order",
             "wave_boolean_order", "wave_string_order", "wave_boolean_re",
             "wave_term_unknown_key", "wave_unknown_key", "contour_leakage_tolerance",
             "histories_scale", "histories_levels", "config_is_directory",
             "config_huge_integer"],
    )
    def test_probes_exit_with_one_error(self, tmp_path, kind, parameters, args, code, path):
        # each used to be accepted, end in a traceback, or print warnings
        # before its JSON error.  parameters None makes the config path a
        # directory; a string is written as raw JSON (json.dumps refuses
        # integers over 4300 digits)
        config = tmp_path / "config.json"
        if parameters is None:
            config.mkdir()
        else:
            raw = parameters if isinstance(parameters, str) else json.dumps(parameters)
            config.write_text(f'{{"kind": "{kind}", "parameters": {raw}}}')
        out_dir = tmp_path / "out"
        got, err, caught = run_cli(["run", str(config), "--out-dir", str(out_dir), *args])
        assert (got, caught) == (code, [])
        lines = err.splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert error["type"] == ("SchemaError" if code == 2 else "DomainError")
        if path:
            assert error["message"].startswith(path + ":"), error
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]

    def test_histories_phase_overflow_exits_2(self, tmp_path):
        # time_scale passes the schema, but max|E| t of the first case's
        # Hamiltonian passes the double range; numpy's overflow warning
        # used to end the run as a DomainError
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "histories_demo",
                                      "parameters": {"time_scale": 4e307}}))
        got, err, caught = run_cli(["run", str(config), "--out-dir", str(tmp_path / "out")])
        assert (got, caught) == (2, [])
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigurationError" and "not finite" in error["message"]
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]

    @pytest.mark.parametrize(
        "source, extra, args, code",
        [("x" * 5000, {}, [], 2),
         ("config.json", {}, ["--seed", "-1"], 2),
         ("config.json", {"seed": -5}, [], 2),
         ("config.json", {"output": {"golden_dir": 5}}, ["--bless"], 2),
         ("config.json", {}, ["--out-dir", "config.json"], 1),
         ("config.json", {}, ["--out-dir", "config.json/out"], 1),
         ("config.json", {"output": {"golden_dir": "config.json/golden"}},
          ["--out-dir", ".", "--bless"], 1)],
        ids=["config_name_too_long", "cli_negative_seed", "config_negative_seed",
             "golden_dir_number", "out_dir_is_file", "out_dir_under_file",
             "golden_dir_under_file"],
    )
    def test_unusable_paths_and_seeds_exit_with_one_error(self, tmp_path, monkeypatch,
                                                          source, extra, args, code):
        # each used to end in a traceback; bad names and seeds are schema
        # errors, a directory that cannot be created fails the run
        monkeypatch.chdir(tmp_path)
        config = {"kind": "single_resonance",
                  "parameters": {"energy": 1.0, "width": 0.2, "points": 3}, **extra}
        (tmp_path / "config.json").write_text(json.dumps(config))
        got, err, caught = run_cli(["run", source, "--out-dir", "out", *args])
        assert (got, caught) == (code, [])
        lines = err.splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert error["type"] == ("SchemaError" if code == 2 else "OutputError")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]

    def test_missing_path_is_not_a_builtin(self, tmp_path):
        # the built-in lookup used to join "<path>.json" onto the catalog,
        # and an absolute path replaced the catalog: x.json.json ran
        config = {"kind": "single_resonance",
                  "parameters": {"energy": 1.0, "width": 0.2, "points": 3}}
        (tmp_path / "x.json.json").write_text(json.dumps(config))
        got, err, caught = run_cli(["run", str(tmp_path / "x.json"),
                                    "--out-dir", str(tmp_path / "out")])
        assert (got, caught) == (2, [])
        lines = err.splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"]["type"] == "SchemaError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "blocked, args",
        [("out/single_resonance.csv", []),
         ("out/single_resonance.manifest.json", []),
         ("gold/single_resonance.csv", ["--bless"]),
         ("gold/single_resonance.manifest.json", ["--bless"])],
        ids=["data", "manifest", "golden_data", "golden_manifest"],
    )
    def test_unwritable_output_file_exits_1(self, tmp_path, monkeypatch, blocked, args):
        # a directory where an output file goes used to end in an
        # IsADirectoryError traceback
        monkeypatch.chdir(tmp_path)
        config = {"kind": "single_resonance", "output": {"golden_dir": "gold"},
                  "parameters": {"energy": 1.0, "width": 0.2, "points": 3}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        (tmp_path / blocked).mkdir(parents=True)
        got, err, caught = run_cli(["run", "config.json", "--out-dir", "out", *args])
        assert (got, caught) == (1, [])
        lines = err.splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"]["type"] == "OutputError"

    @pytest.mark.parametrize(
        "pole_im, order",
        [(0.001, 2), (0.8, 1), (0.8, 5)],
        ids=["near_axis_pole", "order_one", "order_five"],
    )
    def test_lower_states_are_accepted(self, tmp_path, capsys, pole_im, order):
        # a LOWER wave is in its class by where its pole sits; the first two
        # states used to be refused by a Paley-Wiener FFT grid (leakage
        # 0.195 for the near-axis pole, a grid edge error for order 1).  The
        # default check times include t = 0, where the order-1 state's
        # direct pairing on a cut interval used to end in an
        # IntegrationWarning.  At order 5, |E - p|^5 passes the double range
        # on the background table's far nodes, where the wave must
        # underflow to 0 rather than overflow to nan
        cfg = load_config("contour_check")
        cfg["parameters"]["state"] = {"half_plane": "lower", "terms": [
            {"re": 1.0, "im": 0.0, "pole_re": 1.5, "pole_im": pole_im, "order": order}]}
        assert cfg["parameters"]["times_lifetimes"][0] == 0.0
        assert self._run_config(tmp_path, cfg) == 0
        manifest = json.loads((tmp_path / "out" / "contour_check.manifest.json").read_text())
        assert manifest["achieved"]["deformation_max_rel_err"] < 1e-6

    @pytest.mark.parametrize("ratios", [[1e-3, 1e-4], [1.9, 1e-8]],
                             ids=["narrow", "broad_to_narrowest"])
    def test_narrow_widths_run(self, tmp_path, capsys, ratios):
        # the exp-sinh channel integral gave up after 983,041 nodes at 1e-4
        cfg = load_config("golden_rule_sweep")
        cfg["parameters"]["ratios"] = ratios
        assert self._run_config(tmp_path, cfg) == 0
        header, rows = read_csv(tmp_path / "out" / "golden_rule_sweep.csv")
        assert len(rows) == len(ratios)
        energy = cfg["parameters"]["energy"]
        for row in rows:
            cells = dict(zip(header, map(float, row)))
            assert all(math.isfinite(v) for v in cells.values())
            want = cells["width_over_energy"] * energy
            assert abs(cells["exact_width"] - want) <= 1e-10 * want

    def test_plain_stem_is_used(self, tmp_path, capsys):
        cfg = load_config("single_resonance")
        cfg["output"] = {"stem": "renamed"}
        assert self._run_config(tmp_path, cfg) == 0
        assert (tmp_path / "out" / "renamed.csv").exists()

    def test_bless_flag(self, tmp_path, capsys):
        code = main(
            ["run", "single_resonance", "--out-dir", str(tmp_path), "--bless"]
        )
        assert code == 0
        assert (tmp_path / "golden" / "single_resonance" / "single_resonance.csv").exists()


BASE_CONFIG = {r["kind"]: r["name"] for r in list_scenarios()}
BASE_CONFIG["two_resonance"] = "kaon_pair"

_NUMBERS = st.one_of(
    st.floats(0.01, 40.0),
    st.integers(1, 40),
    st.sampled_from([0, -1, 1e-310, 1e-300, 1e300, 1e308, 710.0, 10_001, 2**70,
                     math.inf, math.nan]),
)
_WRONG = st.sampled_from([True, None, "x", [], {}])
_TERMS = st.lists(st.fixed_dictionaries(
    {"re": _NUMBERS, "pole_re": _NUMBERS, "pole_im": st.floats(-3.0, 3.0) | _NUMBERS},
    optional={"im": _NUMBERS, "order": st.integers(-1, 4) | _NUMBERS | _WRONG},
), max_size=2)
# values of each field type, mostly well formed
_VALUES = {
    "number": _NUMBERS,
    "int": st.integers(-1, 40) | _NUMBERS,
    "numbers": st.lists(_NUMBERS, max_size=4) | st.lists(
        st.floats(0.001, 5.0), min_size=2, max_size=4, unique=True,
    ).map(lambda xs: sorted(xs, reverse=True)),
    "poles": st.lists(st.fixed_dictionaries({"energy": _NUMBERS, "width": _NUMBERS},
                                            optional={"zzz": _NUMBERS}), max_size=3),
    "wave": st.fixed_dictionaries({"half_plane": st.sampled_from(["upper", "lower", "x"]),
                                   "terms": _TERMS}),
}


@st.composite
def mutated_configs(draw, kind):
    """A built-in config of the kind with up to three keys dropped or
    replaced, and now and then an unknown key."""
    cfg = load_config(BASE_CONFIG[kind])
    params = cfg["parameters"]
    fields = {f.name: f.type for f in scenarios._SCHEMA[kind]}
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(fields)))
        action = draw(st.sampled_from(["replace", "replace", "replace", "wrong", "drop"]))
        if action == "drop":
            params.pop(key, None)
        else:
            params[key] = draw(_WRONG if action == "wrong" else _VALUES[fields[key]])
    if draw(st.integers(0, 9)) == 7:
        params["bogus"] = 1.0
    return cfg


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_configs_run_or_fail_cleanly(kind, data):
    cfg = data.draw(mutated_configs(kind))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "config.json"
        config.write_text(json.dumps(cfg))
        code, err, caught = run_cli(["run", str(config), "--out-dir", str(root / "out")])
        event(f"exit {code}")
        assert caught == []
        written = sorted(str(p.relative_to(root)) for p in root.rglob("*"))
        if code == 0:
            name = cfg["scenario"]
            assert err == ""
            assert written == ["config.json", "out", f"out/{name}.csv",
                               f"out/{name}.manifest.json"]
            _, rows = read_csv(root / "out" / f"{name}.csv")
            assert rows and all(math.isfinite(float(c)) for row in rows for c in row)
        else:
            assert code in (1, 2)
            lines = err.splitlines()
            assert len(lines) == 1, lines
            assert set(json.loads(lines[0])) == {"error"}
            assert written == ["config.json"]
