import contextlib
import csv
import io
import json
import math
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
from resokit.scenarios import KINDS, list_scenarios, load_config, run_scenario

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

    def test_readme_lists_every_field(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = {}
        for line in readme.splitlines():
            cells = [cell.strip() for cell in line.split("|")[1:-1]]
            if cells and cells[0].strip("`") in KINDS:
                rows[cells[0].strip("`"), cells[1].strip("`")] = cells[2:]
        fields = {(kind, f.name): f for kind, table in scenarios._SCHEMA.items() for f in table}
        assert set(rows) == set(fields)
        for key, f in fields.items():
            type_, default, bounds = rows[key]
            assert type_ == f.type, key
            if f.default is scenarios._REQUIRED:
                assert default == "required", key
            elif f.type in ("number", "int", "numbers"):
                assert default == f"`{json.dumps(f.default)}`", key
            for op, bound in ((">", f.gt), (">=", f.ge), ("<=", f.le)):
                assert bound is None or f"{op} {bound:g}" in bounds, key

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
        cfg = load_config("contour_check")
        with pytest.raises(SchemaError) as exc:
            run_scenario(cfg, out_dir=tmp_path, tol_overrides={"bogus": 1.0})
        assert "bogus" in str(exc.value)

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


    def test_non_object_tolerances_with_override(self, tmp_path):
        cfg = load_config("contour_check")
        cfg["parameters"]["tolerances"] = [1e-10]
        with pytest.raises(SchemaError):
            run_scenario(cfg, out_dir=tmp_path, tol_overrides={"ray_tail": 1e-9})

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

    def test_kaon_pair(self, runs):
        achieved = runs["kaon_pair"][0]["achieved"]
        assert achieved["reconstruction_max_rel_err"] < 1e-6
        assert achieved["state_leakage"] < 1e-5
        assert achieved["effective_levels"] == 2.0

    def test_golden_rule_sweep(self, runs):
        achieved = runs["golden_rule_sweep"][0]["achieved"]
        assert abs(achieved["gap_loglog_slope"] - 1.0) < 0.15
        assert achieved["strictly_decreasing"] == 1.0

    def test_khalfin(self, runs):
        achieved = runs["khalfin"][0]["achieved"]
        assert achieved["cross_method_max_diff"] < 1e-9

    def test_contour_check(self, runs):
        achieved = runs["contour_check"][0]["achieved"]
        assert achieved["deformation_max_rel_err"] < 1e-6

    def test_histories_demo(self, runs):
        achieved = runs["histories_demo"][0]["achieved"]
        assert achieved["history_vs_sequential_max_diff"] < 1e-12
        assert achieved["entropy_min_gain"] >= -1e-10


    @pytest.mark.parametrize("name", ["kaon_pair", "contour_check"])
    def test_direct_error_bound_reported(self, runs, name):
        # the QUADPACK bound of the direct oracle plus its 1e-9 tail cut
        bound = runs[name][0]["achieved"]["direct_error_bound_max"]
        assert 1e-9 <= bound < 1e-6


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
            tables.append(exp.ray_nodes)
            return exp

        monkeypatch.setattr(expansion, "expand", recording_expand)
        for lifetimes in (1.0, 50.0):
            cfg = load_config("kaon_pair")
            cfg["parameters"].update(lifetimes=lifetimes, points=3)
            run_scenario(cfg, out_dir=tmp_path / str(lifetimes))
        assert len(tables) == 2
        assert tables[0].size <= 300
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

    def test_tolerance_override_enters_the_hash(self, tmp_path):
        base = run_scenario(load_config("contour_check"), out_dir=tmp_path / "base")
        tweaked = run_scenario(
            load_config("contour_check"),
            out_dir=tmp_path / "tweaked",
            tol_overrides={"ray_tail": 1e-8},
        )
        assert tweaked["config_sha256"] != base["config_sha256"]
        assert tweaked["achieved"]["deformation_max_rel_err"] < 1e-5


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
        code = main(
            ["run", "single_resonance", "--out-dir", str(tmp_path),
             "--tol-override", "leakage"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def _run_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        return main(["run", str(path), "--out-dir", str(out_dir)])

    @pytest.mark.parametrize(
        "key, value",
        [("output", [1]), ("parameters", [1, 2]), ("output", {"stem": "../escaped"}),
         ("output", {"stem": "sub/escaped"}), ("scenario", "../escaped")],
        ids=["output_list", "parameters_list", "stem_parent", "stem_subdir",
             "scenario_parent"],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, key, value):
        cfg = load_config("single_resonance")
        cfg[key] = value
        assert self._run_config(tmp_path, cfg) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SchemaError"
        assert key in err["error"]["message"]
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
         ("khalfin", {"energy": 1.0, "width": 0.05}, ["--tol-override", "bogus=1"], 2,
          "parameters.tolerances"),
         ("khalfin", {"energy": 1.0, "width": 1e-310}, [], 2, "parameters.lifetimes_max"),
         ("khalfin", {"energy": 1.0, "width": 0.05, "cross_check_lifetimes": []}, [], 2,
          "parameters.cross_check_lifetimes"),
         ("single_resonance", {"energy": 1.0, "width": 1e-310}, [], 2,
          "parameters.lifetimes"),
         ("single_resonance", {"energy": 1.0, "width": 0.2, "points": 2**70}, [], 2,
          "parameters.points"),
         ("two_resonance", {"resonances": [{"energy": 1.0, "width": 0.2},
                                           {"energy": 1.6, "width": 0.35}],
                            "points": 10_001}, [], 2, "parameters.points"),
         ("contour_check", {"resonances": [{"energy": 1.0, "width": 0.2}],
                            "times_lifetimes": [1e300]}, [], 1, None),
         ("contour_check", {"resonances": [{"energy": 1.0, "width": 0.2}],
                            "dual": {"half_plane": "sideways", "terms": []}}, [], 2,
          "parameters.dual"),
         ("histories_demo", {"time_scale": 1e308}, [], 2, "parameters.time_scale"),
         ("histories_demo", {"levels": 2**70}, [], 2, "parameters.levels")],
        ids=["khalfin_unknown_key", "khalfin_unknown_tolerance",
             "khalfin_override_without_tolerances", "khalfin_tiny_width",
             "khalfin_no_cross_checks", "single_tiny_width", "single_points", "two_points",
             "contour_far", "contour_bad_wave", "histories_scale", "histories_levels"],
    )
    def test_probes_exit_with_one_error(self, tmp_path, kind, parameters, args, code, path):
        # each used to be accepted, end in a traceback, or print warnings
        # before its JSON error
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": kind, "parameters": parameters}))
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
    "tolerances": st.dictionaries(st.sampled_from(["ray_tail", "leakage", "direct_tail",
                                                   "zzz"]), _NUMBERS, max_size=2),
}


@st.composite
def mutated_configs(draw, kind):
    """A built-in config of the kind with up to three keys dropped or
    replaced, now and then an unknown key, and a tolerance override."""
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
    override = {8: ["--tol-override", "ray_tail=1e-9"], 9: ["--tol-override", "bogus=1"]}
    return cfg, override.get(draw(st.integers(0, 9)), [])


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_configs_run_or_fail_cleanly(kind, data):
    cfg, override = data.draw(mutated_configs(kind))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "config.json"
        config.write_text(json.dumps(cfg))
        code, err, caught = run_cli(["run", str(config), "--out-dir", str(root / "out"),
                                     *override])
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
