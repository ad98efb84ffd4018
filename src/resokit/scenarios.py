"""Deterministic scenario runner behind the command line interface.

A scenario is a JSON config with a `kind` drawn from a fixed set, a
`parameters` block validated by the kind's field table, and an optional
`output` block.  Running one produces a data file (CSV by default, JSON
on request) and a manifest recording the effective config hash, the
seed, achieved numerical qualities and wall time.  Reruns with the same
config and seed write byte-identical data files; `--bless` additionally
copies the outputs into a golden directory for regression pinning.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
import operator
import sys
import time
import warnings
from collections import namedtuple
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import expansion as xp
from . import goldenrule as gr
from . import histories as hi
from . import survival as sv
from .errors import ConfigurationError, DomainError, SchemaError
from .gamow import GamowKet
from .hardy import HardyFunction
from .surface import ResonancePole, SMatrixModel

__all__ = ["KINDS", "list_scenarios", "load_config", "run_scenario"]

_DEFAULT_SEED = 2026
_REQUIRED = object()
_MAX_ROWS = 10_000
_MAX_DECAY = -math.log(sys.float_info.min)  # e^-x stays a normal double
_SPOTS = (0.0, 1.0, 3.0)  # two_resonance's direct checks, in lifetimes

# One key of a config object.  type is number, int, numbers (a nonempty
# list of numbers), poles (a nonempty list of {energy, width} objects),
# wave (a HardyFunction object) or tolerances (an object of _TOLERANCES
# keys); gt, ge and le bound every number, and every number is finite.
_Field = namedtuple("_Field", "name type default gt ge le",
                    defaults=(_REQUIRED, None, None, None))

_ENERGY = _Field("energy", "number", gt=0.0)
_WIDTH = _Field("width", "number", gt=0.0)
_TOLERANCES = (
    _Field("ray_tail", "number", 1e-10, gt=0.0),
    _Field("leakage", "number", 1e-5, gt=0.0),
    _Field("direct_tail", "number", 1e-9, gt=0.0),
)
_EXPANSION = (
    _Field("resonances", "poles"),
    _Field("dual", "wave", {"half_plane": "upper", "terms": [
        {"re": 1.0, "im": 0.0, "pole_re": 2.0, "pole_im": -1.0, "order": 2}]}),
    _Field("state", "wave", {"half_plane": "lower", "terms": [
        {"re": 1.0, "im": 0.0, "pole_re": 1.5, "pole_im": 0.8, "order": 2}]}),
    _Field("tolerances", "tolerances", {}),
)

# the parameters of each kind; README.md lists them
_SCHEMA = {
    "single_resonance": (
        _ENERGY, _WIDTH,
        _Field("lifetimes", "number", 10.0, gt=0.0),
        _Field("points", "int", 201, ge=1, le=_MAX_ROWS),
    ),
    "two_resonance": (
        *_EXPANSION,
        _Field("lifetimes", "number", 6.0, gt=0.0),
        _Field("points", "int", 121, ge=1, le=_MAX_ROWS),
    ),
    "contour_check": (
        *_EXPANSION,
        _Field("times_lifetimes", "numbers", list(_SPOTS), ge=0.0),
    ),
    "golden_rule_sweep": (
        _ENERGY,
        _Field("cutoff", "number", 1.0, gt=0.0),
        _Field("strength", "number", 1.0, gt=0.0),
        _Field("ratios", "numbers",
               [0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001], gt=0.0),
    ),
    "khalfin": (
        _ENERGY, _WIDTH,
        _Field("lifetimes_min", "number", 0.2, gt=0.0),
        _Field("lifetimes_max", "number", 30.0, gt=0.0, le=_MAX_DECAY),
        _Field("points", "int", 60, ge=1, le=_MAX_ROWS),
        _Field("cross_check_lifetimes", "numbers", [0.5, 1.0, 2.0], gt=0.0),
    ),
    "histories_demo": (
        _Field("levels", "int", 4, ge=2, le=32),
        _Field("cases", "int", 20, ge=1, le=_MAX_ROWS),
        _Field("time_scale", "number", 1.0, gt=0.0),
    ),
}


def _object(data, fields, path):
    """Validate one JSON object against a field table; returns a dict."""
    if not isinstance(data, dict):
        raise SchemaError("expected an object", path=path)
    names = [f.name for f in fields]
    for key in data:
        if key not in names:
            raise SchemaError(f"unknown key (allowed: {', '.join(names)})",
                              path=f"{path}.{key}")
    out = {}
    for f in fields:
        if f.name not in data and f.default is _REQUIRED:
            raise SchemaError("missing required key", path=f"{path}.{f.name}")
        out[f.name] = _value(f, data.get(f.name, f.default), f"{path}.{f.name}")
    return out


def _value(f, value, path):
    """Validate one value of field f."""
    if f.type in ("numbers", "poles"):
        if not isinstance(value, list) or not value:
            raise SchemaError("expected a nonempty list", path=path)
        item = f._replace(type="number" if f.type == "numbers" else "pole")
        out = [_value(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
        return out if f.type == "numbers" else tuple(out)
    if f.type == "pole":
        try:
            return ResonancePole(**_object(value, (_ENERGY, _WIDTH), path))
        except ConfigurationError as exc:
            raise SchemaError(str(exc), path=path) from exc
    if f.type == "tolerances":
        return _object(value, _TOLERANCES, path)
    if f.type == "wave":
        if not isinstance(value, dict):
            raise SchemaError("expected a wave-function object", path=path)
        try:
            wave = HardyFunction.from_dict(value)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"malformed wave function: {exc}", path=path) from exc
        if not all(cmath.isfinite(c) and cmath.isfinite(q) for c, q, _ in wave.terms):
            raise SchemaError("expected finite coefficients and poles", path=path)
        return wave
    integral = f.type == "int"
    if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
        raise SchemaError(f"expected {'an integer' if integral else 'a number'},"
                          f" got {value!r}", path=path)
    if not (integral or abs(value) <= sys.float_info.max):
        raise SchemaError(f"expected a finite number, got {value!r}", path=path)
    value = value if integral else float(value)
    for op, bound, holds in ((">", f.gt, operator.gt), (">=", f.ge, operator.ge),
                             ("<=", f.le, operator.le)):
        if bound is not None and not holds(value, bound):
            raise SchemaError(f"expected {op} {bound:g}, got {value!r}", path=path)
    return value


def _narrowest(p):
    return min(pole.width for pole in p.resonances)


def _require(ok, key, message):
    if not ok:
        raise SchemaError(message, path=f"parameters.{key}")


def _parse(params, kind):
    """The validated parameters of one kind, as attributes."""
    p = SimpleNamespace(**_object(params, _SCHEMA[kind], "parameters"))
    if kind in ("single_resonance", "khalfin"):
        p.pole = _value(_Field("pole", "pole"), {"energy": p.energy, "width": p.width},
                        "parameters")
    # one cross-field rule per kind; derived times must stay finite
    overflow = "a derived time overflows the double range"
    if kind == "single_resonance":
        _require(math.isfinite(p.lifetimes / p.width), "lifetimes", overflow)
    elif kind == "two_resonance":
        _require(len(p.resonances) == 2, "resonances", "expected exactly two resonances")
        _require(math.isfinite(max(p.lifetimes, *_SPOTS) / _narrowest(p)), "lifetimes",
                 overflow)
    elif kind == "contour_check":
        for i, n in enumerate(p.times_lifetimes):
            _require(math.isfinite(n / _narrowest(p)), f"times_lifetimes[{i}]", overflow)
    elif kind == "golden_rule_sweep":
        _require(len(p.ratios) >= 2 and all(b < a for a, b in zip(p.ratios, p.ratios[1:])),
                 "ratios", "expected at least two strictly decreasing ratios")
    elif kind == "khalfin":
        _require(p.lifetimes_max > p.lifetimes_min, "lifetimes_max",
                 "lifetimes_max must exceed lifetimes_min")
        _require(math.isfinite(p.lifetimes_max / p.width), "lifetimes_max", overflow)
        _require(math.isfinite(max(p.cross_check_lifetimes) / p.width),
                 "cross_check_lifetimes", overflow)
    else:  # histories_demo: t_second reaches 2 time_scale
        _require(math.isfinite(2.0 * p.time_scale), "time_scale", overflow)
    return p


# one runner per kind; each returns (columns, rows, achieved)

def _run_single_resonance(p, rng):
    ket = GamowKet(p.pole)
    ts = np.linspace(0.0, p.lifetimes / p.width, p.points)
    rows = []
    law_dev = 0.0
    for t in ts:
        c = ket.evolution_coefficient(float(t))
        law = float(np.exp(-p.width * t))
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


def _expansion_check(p, lifetimes):
    """Expand p.state over p.resonances and pair it directly at each of
    the lifetimes.  Returns (expansion, checks, worst, bound): one (t,
    direct, reconstructed, relative error) per time, the largest
    relative error and the largest direct-pairing error bound.
    """
    tols = p.tolerances
    model = SMatrixModel(poles=p.resonances)
    state = xp.PreparedState(p.state, leakage_tol=tols["leakage"])
    exp = xp.expand(p.dual, state, model, ray_tail_tol=tols["ray_tail"])
    checks = []
    bound = 0.0
    for t in (n / _narrowest(p) for n in lifetimes):
        pairing = xp.smatrix_pairing_direct(p.dual, state, model, t,
                                            tail_tol=tols["direct_tail"])
        direct = pairing.value
        rec = exp.reconstruct(t)
        checks.append((t, direct, rec, abs(direct - rec) / abs(direct)))
        bound = max(bound, pairing.error)
    worst = max(rel for *_, rel in checks)
    return exp, checks, worst, bound


def _run_two_resonance(p, rng):
    exp, _, worst, bound = _expansion_check(p, _SPOTS)
    rows = []
    for t in np.linspace(0.0, p.lifetimes / _narrowest(p), p.points):
        t = float(t)
        bg = exp.background(t)
        trunc = exp.pole_sum(t)
        err = xp.TruncationError.from_parts(trunc, bg)
        rows.append([t, abs(trunc + bg), abs(trunc), err.error, abs(bg)])
    cols = ["t", "full_abs", "truncated_abs", "truncation_error", "background_abs"]
    achieved = {
        "reconstruction_max_rel_err": float(worst),
        "direct_error_bound_max": float(bound),
        "state_leakage": float(exp.state.leakage),
        "effective_levels": float(xp.effective_matrix(exp.model).size),
    }
    return cols, rows, achieved


def _run_contour_check(p, rng):
    _, checks, worst, bound = _expansion_check(p, p.times_lifetimes)
    rows = [[t, direct.real, direct.imag, rec.real, rec.imag, rel]
            for t, direct, rec, rel in checks]
    cols = ["t", "direct_re", "direct_im", "reconstructed_re", "reconstructed_im",
            "relative_error"]
    achieved = {"deformation_max_rel_err": float(worst),
                "direct_error_bound_max": float(bound)}
    return cols, rows, achieved


def _run_golden_rule_sweep(p, rng):
    rows = []
    gaps = []
    for r in p.ratios:
        pole = ResonancePole(energy=p.energy, width=r * p.energy)
        channel = gr.Channel(label="main", strength=p.strength,
                             form_factor=gr.FormFactor(cutoff=p.cutoff))
        config = gr.normalize(gr.DecayConfig(resonance=pole, channels=(channel,),
                                             detector=gr.Detector.ideal()))
        exact = gr.total_width_check(config)
        born = gr.born_rate(config)
        gap = abs(born - exact) / exact
        gaps.append(gap)
        rows.append([r, born, exact, gap])
    slope = float(np.polyfit(np.log(p.ratios), np.log(gaps), 1)[0])
    cols = ["width_over_energy", "born_rate", "exact_width", "relative_gap"]
    achieved = {
        "gap_loglog_slope": slope,
        "strictly_decreasing": float(all(b < a for a, b in zip(gaps, gaps[1:]))),
    }
    return cols, rows, achieved


def _run_khalfin(p, rng):
    density = sv.SpectralDensity.truncated_lorentzian(p.pole)
    rows = []
    for t in np.geomspace(p.lifetimes_min / p.width, p.lifetimes_max / p.width, p.points):
        t = float(t)
        prob = sv.survival_probability(density, t)
        law = sv.exponential_law(density, t)
        rows.append([t, prob, law, prob / law])
    worst = max(abs(sv.survival_amplitude(density, n / p.width, method="rotation")
                    - sv.survival_amplitude(density, n / p.width, method="direct"))
                for n in p.cross_check_lifetimes)
    cols = ["t", "survival_probability", "exponential_law", "ratio"]
    achieved = {"cross_method_max_diff": float(worst)}
    return cols, rows, achieved


def _run_histories_demo(p, rng):
    levels = p.levels
    rows = []
    worst = np.inf
    max_gap = 0.0
    for case in range(p.cases):
        rho = hi.random_density(levels, rng)
        h = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
        h = 0.5 * (h + h.conj().T)
        fam1 = hi.random_projector_family(levels, rng)
        fam2 = hi.random_projector_family(levels, rng)
        t1 = p.time_scale * float(rng.uniform(0.2, 1.0))
        t2 = t1 + p.time_scale * float(rng.uniform(0.2, 1.0))
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
    values = _parse(params, kind)

    effective = {"scenario": name, "kind": kind, "parameters": params, "seed": seed}
    digest = hashlib.sha256(
        json.dumps(effective, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            columns, rows, achieved = _RUNNERS[kind](values, rng)
        except Warning as exc:
            raise DomainError(f"{type(exc).__name__}: {exc}; nothing written") from exc
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
