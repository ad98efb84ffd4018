"""Self-tests of the scenario benchmark: checks, batches, tracing, contract.

    python3 -m pytest resobench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checks import check_call, output_paths, read_csv
from tracer import SPAN_SITES, Tracer, bound_callables
from workloads import WORKLOADS, make_batch, write_batch

from resokit.scenarios import load_config, run_scenario

ROOT = Path(run.__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _write_csv(path, header, rows):
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")


def _golden_output(tmp_path, name):
    """Outputs of a built-in as resokit writes them, taken from the golden."""
    shutil.copy(GOLDEN / name / f"{name}.csv", tmp_path / f"{name}.csv")
    shutil.copy(GOLDEN / name / f"{name}.manifest.json", tmp_path / f"{name}.manifest.json")
    return next(e for e in make_batch("tails_and_rates", 0, ROOT) if e.name == name)


def _variant_output(tmp_path, name):
    entry = next(e for e in make_batch("tails_and_rates", 0, ROOT) if e.name == name)
    run_scenario(entry.config, out_dir=tmp_path)
    return entry


def _mutations(header, rows):
    perturbed = [list(r) for r in rows]
    perturbed[len(rows) // 2][1] = repr(float(perturbed[len(rows) // 2][1]) * (1 + 1e-9) + 1e-9)
    with_nan = [list(r) for r in rows]
    with_nan[-1][-1] = "nan"
    return {"perturbed cell": perturbed, "dropped row": rows[:-1], "nan cell": with_nan}


@pytest.mark.parametrize("make", [_golden_output, _variant_output], ids=["golden", "variant"])
@pytest.mark.parametrize("name_golden,name_variant", [("khalfin", "khalfin_v0"),
                                                      ("single_resonance",
                                                       "single_resonance_v0")])
def test_checks_reject_broken_outputs(tmp_path, make, name_golden, name_variant):
    entry = make(tmp_path, name_golden if make is _golden_output else name_variant)
    data_path, _ = output_paths(entry, tmp_path)
    assert check_call(entry, 0, tmp_path, GOLDEN) == []
    header, rows = read_csv(data_path)
    for label, broken in _mutations(header, rows).items():
        _write_csv(data_path, header, broken)
        assert check_call(entry, 0, tmp_path, GOLDEN), label
    _write_csv(data_path, header, rows)
    assert check_call(entry, 0, tmp_path, GOLDEN) == []
    assert check_call(entry, 1, tmp_path, GOLDEN)


def test_checks_reject_a_failed_oracle_gate(tmp_path):
    entry = _variant_output(tmp_path, "khalfin_v0")
    _, manifest_path = output_paths(entry, tmp_path)
    manifest = json.loads(manifest_path.read_text())
    manifest["achieved"]["cross_method_max_diff"] = 2e-9
    manifest_path.write_text(json.dumps(manifest))
    assert check_call(entry, 0, tmp_path, GOLDEN)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_batches_follow_the_seed(workload):
    def configs(seed):
        return [(e.name, e.config) for e in make_batch(workload, seed, ROOT)]

    assert configs(7) == configs(7)
    assert configs(7) != configs(8)
    assert [name for name, _ in configs(7)] == [name for name, _ in configs(8)]


def test_batches_are_the_same_in_a_fresh_interpreter(tmp_path):
    code = ("import sys, json; sys.path[:0] = sys.argv[1:3]; import workloads;"
            "print(json.dumps([e.config for e in workloads.make_batch("
            "'expansion_sweep', 3, sys.argv[3])]))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "resobench"),
                           str(ROOT / "src"), str(ROOT)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(proc.stdout) == [e.config for e in make_batch("expansion_sweep", 3, ROOT)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_configs_load_and_run_clean(tmp_path, workload):
    """Every config passes load_config and the schema, and its outputs pass
    the benchmark's checks (which run_scenario's own validation feeds)."""
    batch = make_batch(workload, 11, ROOT)
    for entry, path in zip(batch, write_batch(batch, tmp_path / "configs")):
        config = load_config(str(path))
        assert config == entry.config
        if entry.golden:
            continue
        run_scenario(config, out_dir=tmp_path / "out")
        assert check_call(entry, 0, tmp_path / "out", GOLDEN) == [], entry.name


def test_tracer_unwraps_what_it_wrapped(tmp_path):
    before = bound_callables()
    tracer = Tracer()
    config = tmp_path / "single.json"
    config.write_text(json.dumps(load_config("single_resonance")))
    with tracer.installed():
        assert bound_callables() != before
        assert run.importlib.import_module("resokit.cli").main(
            ["run", str(config), "--out-dir", str(tmp_path)]) == 0
    assert bound_callables() == before
    assert all(bound_callables()[k] is v for k, v in before.items())
    assert tracer.missing == []
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["gamow.GamowKet.evolution_coefficient"] > 200
    assert tracer.self_s["cli.main"] > 0.0


def test_tracer_unwraps_after_an_error():
    before = bound_callables()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert bound_callables() == before


def test_self_time_excludes_children(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        run.importlib.import_module("resokit.cli").main(
            ["run", "khalfin", "--out-dir", str(tmp_path)])
    total = sum(tracer.self_s.values())
    outer = tracer.self_s["cli.main"]
    assert 0.0 < outer < total
    # 60 rows plus 3 cross-check times, each also done by the direct method
    assert tracer.calls["survival.survival_amplitude.rotation"] == 63
    assert tracer.calls["survival.survival_amplitude.direct"] == 3
    assert tracer.maxima.get("expansion.ray_nodes", 0.0) == 0.0


def test_every_span_metric_has_a_site():
    sites = {name for _, _, name in SPAN_SITES}
    for span in run._SPANS:
        assert span in sites or span.rsplit(".", 1)[0] in sites, span


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "resobench", tmp_path / "resobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "resobench/run.py", "--workload", "tails_and_rates", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_result_line_shape(capsys):
    assert run.main(["--workload", "tails_and_rates", "--seed", "5", "--seconds", "0.2",
                     "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())
