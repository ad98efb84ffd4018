"""Deterministic scenario runner behind the command line interface.

A scenario is a JSON config with a `kind` drawn from a fixed set, a
`parameters` block validated per kind, and an optional `output` block.
Running one produces a data file (CSV by default, JSON on request) and
a manifest recording the effective config hash, the seed, achieved
numerical qualities and wall time.  Reruns with the same config and
seed write byte-identical data files; `--bless` additionally copies the
outputs into a golden directory for regression pinning.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import expansion as xp
from . import goldenrule as gr
from . import histories as hi
from . import survival as sv
from .errors import DomainError, ResokitError, SchemaError
from .gamow import GamowKet
from .hardy import HardyFunction
from .surface import ResonancePole, SMatrixModel

__all__ = ["KINDS", "list_scenarios", "load_config", "run_scenario"]

_DEFAULT_SEED = 2026

_DEFAULT_DUAL = {
    "half_plane": "upper",
    "terms": [{"re": 1.0, "im": 0.0, "pole_re": 2.0, "pole_im": -1.0, "order": 2}],
}
_DEFAULT_STATE = {
    "half_plane": "lower",
    "terms": [{"re": 1.0, "im": 0.0, "pole_re": 1.5, "pole_im": 0.8, "order": 2}],
}


def _expect(params, key, kind, default=None, required=False):
    if key in params:
        return params[key]
    if required:
        raise SchemaError(f"missing required key for kind {kind!r}", path=f"parameters.{key}")
    return default


def _as_float(value, path, positive=False):
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"expected a number, got {value!r}", path=path) from None
    if not math.isfinite(out):
        raise SchemaError(f"expected a finite number, got {out}", path=path)
    if positive and not out > 0.0:
        raise SchemaError(f"expected a positive number, got {out}", path=path)
    return out


def _as_int(value, path, minimum=1):
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"expected an integer, got {value!r}", path=path)
    if value < minimum:
        raise SchemaError(f"expected >= {minimum}, got {value}", path=path)
    return value


def _resonance(data, path):
    if not isinstance(data, dict):
        raise SchemaError("expected an object with energy and width", path=path)
    try:
        return ResonancePole(
            energy=_as_float(data.get("energy"), f"{path}.energy", positive=True),
            width=_as_float(data.get("width"), f"{path}.width", positive=True),
        )
    except ResokitError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(str(exc), path=path) from exc


def _wave(data, path):
    if not isinstance(data, dict):
        raise SchemaError("expected a wave-function object", path=path)
    try:
        return HardyFunction.from_dict(data)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed wave function: {exc}", path=path) from exc
    except ResokitError as exc:
        raise SchemaError(str(exc), path=path) from exc


def _tolerances(params, kind, allowed):
    tols = params.get("tolerances", {})
    if not isinstance(tols, dict):
        raise SchemaError("tolerances must be an object", path="parameters.tolerances")
    out = dict(allowed)
    for key, value in tols.items():
        if key not in allowed:
            raise SchemaError(
                f"unknown tolerance key {key!r} for kind {kind!r}"
                f" (allowed: {sorted(allowed)})",
                path=f"parameters.tolerances.{key}",
            )
        out[key] = _as_float(value, f"parameters.tolerances.{key}", positive=True)
    return out


# one runner per kind; each returns (columns, rows, achieved, notes)

def _run_single_resonance(params, rng):
    pole = _resonance(
        {
            "energy": _as_float(_expect(params, "energy", "single_resonance", required=True), "parameters.energy", positive=True),
            "width": _as_float(_expect(params, "width", "single_resonance", required=True), "parameters.width", positive=True),
        },
        "parameters",
    )
    lifetimes = _as_float(params.get("lifetimes", 10.0), "parameters.lifetimes", positive=True)
    points = _as_int(params.get("points", 201), "parameters.points")
    ket = GamowKet(pole)
    ts = np.linspace(0.0, lifetimes / pole.width, points)
    rows = []
    law_dev = 0.0
    for t in ts:
        c = ket.evolution_coefficient(float(t))
        law = float(np.exp(-pole.width * t))
        law_dev = max(law_dev, abs(abs(c) ** 2 - law))
        rows.append([float(t), c.real, c.imag, abs(c) ** 2, law])
    sub = np.linspace(0.0, ts[-1] / 2.0, 20)
    semi = max(
        abs(
            ket.evolution_coefficient(float(a + b))
            - ket.evolution_coefficient(float(a)) * ket.evolution_coefficient(float(b))
        )
        for a in sub
        for b in sub
    )
    cols = ["t", "coefficient_re", "coefficient_im", "survival_probability", "exponential_law"]
    achieved = {"exponential_law_max_dev": law_dev, "semigroup_max_dev": float(semi)}
    return cols, rows, achieved


def _expansion_inputs(params, kind):
    raw = _expect(params, "resonances", kind, required=True)
    if not isinstance(raw, list) or not raw:
        raise SchemaError("expected a nonempty list", path="parameters.resonances")
    poles = tuple(_resonance(r, f"parameters.resonances[{i}]") for i, r in enumerate(raw))
    model = SMatrixModel(poles=poles)
    dual = _wave(params.get("dual", _DEFAULT_DUAL), "parameters.dual")
    state_wave = _wave(params.get("state", _DEFAULT_STATE), "parameters.state")
    return model, dual, state_wave


def _run_two_resonance(params, rng):
    model, dual, state_wave = _expansion_inputs(params, "two_resonance")
    if len(model.poles) != 2:
        raise SchemaError("two_resonance needs exactly two resonances",
                          path="parameters.resonances")
    lifetimes = _as_float(params.get("lifetimes", 6.0), "parameters.lifetimes", positive=True)
    points = _as_int(params.get("points", 121), "parameters.points")
    tols = _tolerances(params, "two_resonance",
                       {"ray_tail": 1e-10, "leakage": 1e-5, "direct_tail": 1e-9})
    g_min = min(p.width for p in model.poles)
    t_end = lifetimes / g_min
    if not math.isfinite(t_end):
        raise SchemaError(f"{lifetimes:g} lifetimes overflow to t = {t_end}",
                          path="parameters.lifetimes")
    state = xp.PreparedState(state_wave, leakage_tol=tols["leakage"])
    exp = xp.expand(dual, state, model, ray_tail_tol=tols["ray_tail"])
    matrix = xp.effective_matrix(model)
    rows = []
    for t in np.linspace(0.0, t_end, points):
        t = float(t)
        bg = exp.background(t)
        trunc = exp.pole_sum(t)
        err = xp.TruncationError.from_parts(trunc, bg)
        rows.append([t, abs(trunc + bg), abs(trunc), err.error, abs(bg)])
    spots = [0.0, 1.0 / g_min, 3.0 / g_min]
    worst = 0.0
    bound = 0.0
    for t in spots:
        pairing = xp.smatrix_pairing_direct(dual, state, model, t,
                                            tail_tol=tols["direct_tail"])
        rec = exp.reconstruct(t)
        worst = max(worst, abs(pairing.value - rec) / abs(pairing.value))
        bound = max(bound, pairing.error)
    cols = ["t", "full_abs", "truncated_abs", "truncation_error", "background_abs"]
    achieved = {
        "reconstruction_max_rel_err": float(worst),
        "direct_error_bound_max": float(bound),
        "state_leakage": float(state.leakage),
        "effective_levels": float(matrix.size),
    }
    return cols, rows, achieved


def _run_contour_check(params, rng):
    model, dual, state_wave = _expansion_inputs(params, "contour_check")
    tols = _tolerances(params, "contour_check",
                       {"ray_tail": 1e-10, "leakage": 1e-5, "direct_tail": 1e-9})
    g_min = min(p.width for p in model.poles)
    raw_times = params.get("times_lifetimes", [0.0, 1.0, 3.0])
    if not isinstance(raw_times, list) or not raw_times:
        raise SchemaError("expected a nonempty list", path="parameters.times_lifetimes")
    times = []
    for i, v in enumerate(raw_times):
        path = f"parameters.times_lifetimes[{i}]"
        lifetimes = _as_float(v, path)
        t = lifetimes / g_min
        if not math.isfinite(t):
            raise SchemaError(f"{lifetimes:g} lifetimes overflow to t = {t}", path=path)
        times.append(t)
    if any(t < 0.0 for t in times):
        raise SchemaError("times must be >= 0", path="parameters.times_lifetimes")
    state = xp.PreparedState(state_wave, leakage_tol=tols["leakage"])
    exp = xp.expand(dual, state, model, ray_tail_tol=tols["ray_tail"])
    rows = []
    worst = 0.0
    bound = 0.0
    for t in times:
        pairing = xp.smatrix_pairing_direct(dual, state, model, t,
                                            tail_tol=tols["direct_tail"])
        direct = pairing.value
        rec = exp.reconstruct(t)
        rel = abs(direct - rec) / abs(direct)
        worst = max(worst, rel)
        bound = max(bound, pairing.error)
        rows.append([t, direct.real, direct.imag, rec.real, rec.imag, rel])
    cols = ["t", "direct_re", "direct_im", "reconstructed_re", "reconstructed_im",
            "relative_error"]
    achieved = {"deformation_max_rel_err": float(worst),
                "direct_error_bound_max": float(bound)}
    return cols, rows, achieved


def _run_golden_rule_sweep(params, rng):
    energy = _as_float(_expect(params, "energy", "golden_rule_sweep", required=True),
                       "parameters.energy", positive=True)
    cutoff = _as_float(params.get("cutoff", 1.0), "parameters.cutoff", positive=True)
    strength = _as_float(params.get("strength", 1.0), "parameters.strength", positive=True)
    ratios = params.get("ratios",
                        [0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001])
    if not isinstance(ratios, list) or len(ratios) < 2:
        raise SchemaError("expected a list of at least two ratios", path="parameters.ratios")
    ratios = [
        _as_float(r, f"parameters.ratios[{i}]", positive=True)
        for i, r in enumerate(ratios)
    ]
    if any(b >= a for a, b in zip(ratios, ratios[1:])):
        raise SchemaError("ratios must be strictly decreasing", path="parameters.ratios")
    rows = []
    gaps = []
    for r in ratios:
        pole = ResonancePole(energy=energy, width=r * energy)
        channel = gr.Channel(label="main", strength=strength,
                             form_factor=gr.FormFactor(cutoff=cutoff))
        config = gr.normalize(gr.DecayConfig(resonance=pole, channels=(channel,),
                                             detector=gr.Detector.ideal()))
        exact = gr.total_width_check(config)
        born = gr.born_rate(config)
        gap = abs(born - exact) / exact
        gaps.append(gap)
        rows.append([r, born, exact, gap])
    slope = float(np.polyfit(np.log(ratios), np.log(gaps), 1)[0])
    cols = ["width_over_energy", "born_rate", "exact_width", "relative_gap"]
    achieved = {
        "gap_loglog_slope": slope,
        "strictly_decreasing": float(all(b < a for a, b in zip(gaps, gaps[1:]))),
    }
    return cols, rows, achieved


def _run_khalfin(params, rng):
    pole = _resonance(
        {
            "energy": _as_float(_expect(params, "energy", "khalfin", required=True), "parameters.energy", positive=True),
            "width": _as_float(_expect(params, "width", "khalfin", required=True), "parameters.width", positive=True),
        },
        "parameters",
    )
    lo = _as_float(params.get("lifetimes_min", 0.2), "parameters.lifetimes_min", positive=True)
    hi = _as_float(params.get("lifetimes_max", 30.0), "parameters.lifetimes_max", positive=True)
    if hi <= lo:
        raise SchemaError("lifetimes_max must exceed lifetimes_min",
                          path="parameters.lifetimes_max")
    if math.exp(-hi) < sys.float_info.min:
        raise SchemaError(
            f"the exponential law e^-{hi:g} underflows the double range",
            path="parameters.lifetimes_max",
        )
    points = _as_int(params.get("points", 60), "parameters.points")
    cross = params.get("cross_check_lifetimes", [0.5, 1.0, 2.0])
    if not isinstance(cross, list):
        raise SchemaError("expected a list", path="parameters.cross_check_lifetimes")
    cross = [
        _as_float(v, f"parameters.cross_check_lifetimes[{i}]", positive=True)
        for i, v in enumerate(cross)
    ]
    density = sv.SpectralDensity.truncated_lorentzian(pole)
    g = pole.width
    rows = []
    for t in np.geomspace(lo / g, hi / g, points):
        t = float(t)
        p = sv.survival_probability(density, t)
        law = sv.exponential_law(density, t)
        rows.append([t, p, law, p / law])
    worst = 0.0
    for l in cross:
        t = l / g
        a = sv.survival_amplitude(density, t, method="rotation")
        b = sv.survival_amplitude(density, t, method="direct")
        worst = max(worst, abs(a - b))
    cols = ["t", "survival_probability", "exponential_law", "ratio"]
    achieved = {"cross_method_max_diff": float(worst)}
    return cols, rows, achieved


def _run_histories_demo(params, rng):
    levels = _as_int(params.get("levels", 4), "parameters.levels", minimum=2)
    cases = _as_int(params.get("cases", 20), "parameters.cases")
    scale = _as_float(params.get("time_scale", 1.0), "parameters.time_scale", positive=True)
    rows = []
    worst = np.inf
    max_gap = 0.0
    for case in range(cases):
        rho = hi.random_density(levels, rng)
        h = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
        h = 0.5 * (h + h.conj().T)
        fam1 = hi.random_projector_family(levels, rng)
        fam2 = hi.random_projector_family(levels, rng)
        t1 = scale * float(rng.uniform(0.2, 1.0))
        t2 = t1 + scale * float(rng.uniform(0.2, 1.0))
        history = hi.History(steps=((fam1[0], t1), (fam2[0], t2)))
        prob = hi.history_probability(rho, h, history)
        try:
            mid, p1 = hi.collapse_selective(hi.unitary_evolve(rho, h, t1), fam1[0])
            evolved = hi.unitary_evolve(mid, h, t2 - t1)
            _, p2 = hi.collapse_selective(evolved, fam2[0])
            seq = p1 * p2
        except hi.ZeroProbabilityError:
            seq = 0.0
        gap = abs(prob - seq)
        max_gap = max(max_gap, gap)
        s_before = hi.entropy(rho)
        s_after = hi.entropy(hi.collapse_nonselective(rho, fam1))
        worst = min(worst, s_after - s_before)
        rows.append([case, t1, t2, prob, seq, gap, s_before, s_after])
    cols = ["case", "t_first", "t_second", "probability", "sequential_probability",
            "abs_diff", "entropy_before", "entropy_after"]
    achieved = {"history_vs_sequential_max_diff": float(max_gap),
                "entropy_min_gain": float(worst)}
    return cols, rows, achieved


_RUNNERS = {
    "single_resonance": _run_single_resonance,
    "two_resonance": _run_two_resonance,
    "golden_rule_sweep": _run_golden_rule_sweep,
    "khalfin": _run_khalfin,
    "contour_check": _run_contour_check,
    "histories_demo": _run_histories_demo,
}

KINDS = tuple(sorted(_RUNNERS))


def _builtin_dir():
    return resources.files(__package__) / "scenarios"


def list_scenarios():
    """Rows describing the built-in scenario catalog."""
    out = []
    root = _builtin_dir()
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        data = json.loads(entry.read_text())
        out.append(
            {
                "name": data.get("scenario", entry.name[:-5]),
                "kind": data.get("kind", "?"),
                "summary": data.get("summary", ""),
            }
        )
    return out


def load_config(source):
    """Load a scenario config from a path or a built-in name."""
    path = Path(source)
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
    else:
        builtin = _builtin_dir() / f"{source}.json"
        try:
            exists = builtin.is_file()
        except OSError:
            exists = False
        if not exists:
            raise SchemaError(
                f"no config file at {source!r} and no built-in scenario of that name"
            )
        data = json.loads(builtin.read_text())
    if not isinstance(data, dict):
        raise SchemaError("config root must be an object")
    return data


def _plain_name(value, path):
    """A file name with no directory part, so outputs stay in --out-dir."""
    if (not isinstance(value, str) or value in ("", ".", "..")
            or Path(value).name != value or "\\" in value or "\0" in value):
        raise SchemaError(f"expected a plain file name, got {value!r}", path=path)
    return value


def _require_finite(rows, achieved):
    """Refuse to report nan or inf; nothing has been written yet."""
    for i, row in enumerate(rows):
        if not all(math.isfinite(v) for v in row):
            raise DomainError(f"row {i} has a non-finite cell {row}; nothing written")
    for key, value in achieved.items():
        if not math.isfinite(value):
            raise DomainError(f"achieved {key} is {value}; nothing written")


def _format_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path, columns, rows, fmt):
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_cell(v) for v in row])
    else:
        payload = {"columns": columns, "rows": rows}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


def run_scenario(config, out_dir, fmt="csv", seed=None, tol_overrides=None,
                 bless=False):
    """Execute one scenario config; returns the manifest dict."""
    if fmt not in ("csv", "json"):
        raise SchemaError(f"format must be csv or json, got {fmt!r}")
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in _RUNNERS:
        raise SchemaError(f"kind must be one of {sorted(_RUNNERS)}, got {kind!r}",
                          path="kind")
    name = _plain_name(config.get("scenario", kind), "scenario")
    params = config.get("parameters", {})
    if not isinstance(params, dict):
        raise SchemaError("parameters must be an object", path="parameters")
    params = dict(params)
    output = config.get("output", {})
    if not isinstance(output, dict):
        raise SchemaError("output must be an object", path="output")
    stem = _plain_name(output.get("stem", name), "output.stem")
    if tol_overrides:
        merged = params.get("tolerances", {})
        if not isinstance(merged, dict):
            raise SchemaError("tolerances must be an object", path="parameters.tolerances")
        params["tolerances"] = {**merged, **tol_overrides}
    if seed is None:
        seed = config.get("seed", _DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SchemaError(f"seed must be an integer, got {seed!r}")

    effective = {"scenario": name, "kind": kind, "parameters": params, "seed": seed}
    digest = hashlib.sha256(
        json.dumps(effective, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    columns, rows, achieved = _RUNNERS[kind](params, rng)
    elapsed = time.perf_counter() - started
    _require_finite(rows, achieved)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / f"{stem}.{fmt}"
    _write_rows(data_path, columns, rows, fmt)

    manifest = {
        "schema_version": 1,
        "scenario": name,
        "kind": kind,
        "config_sha256": digest,
        "seed": seed,
        "format": fmt,
        "columns": columns,
        "rows_written": len(rows),
        "achieved": achieved,
        "outputs": [data_path.name],
        "wall_time_s": elapsed,
    }
    manifest_path = out_dir / f"{stem}.manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")

    if bless:
        golden_dir = output.get("golden_dir")
        golden_dir = Path(golden_dir) if golden_dir else out_dir / "golden" / name
        golden_dir.mkdir(parents=True, exist_ok=True)
        (golden_dir / data_path.name).write_bytes(data_path.read_bytes())
        stable = {k: v for k, v in manifest.items() if k != "wall_time_s"}
        with open(golden_dir / manifest_path.name, "w") as fh:
            json.dump(stable, fh, indent=1, sort_keys=True)
            fh.write("\n")
        manifest["golden_dir"] = str(golden_dir)

    return manifest
