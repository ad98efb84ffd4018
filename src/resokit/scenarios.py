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

import hashlib
import json
import math
import operator
import sys
import time
import warnings
from collections import namedtuple
from importlib import resources
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import exact as ex
from . import expansion as xp
from . import goldenrule as gr
from . import histories as hi
from . import survival as sv
from .errors import (
    ConfigurationError,
    DomainError,
    HardyClassError,
    OutputError,
    QuadratureError,
    SchemaError,
)
from .gamow import GamowKet
from .hardy import HalfPlane, HardyFunction
from .surface import ResonancePole, SMatrixModel

__all__ = ["KINDS", "list_scenarios", "load_config", "run_scenario"]

_DEFAULT_SEED = 2026
_REQUIRED = object()
_MAX_ROWS = 10_000
_MAX_DECAY = -math.log(sys.float_info.min)  # e^-x stays a normal double
_SPOTS = (0.0, 1.0, 3.0)  # two_resonance's exact checks, in lifetimes
# histories_demo cases per stacked block; a complex stack of 64 matrices
# of 32 levels is 1 MiB
_HISTORY_BLOCK = 64
# the largest gap khalfin accepts between the rotated contour and the
# closed-form amplitude
_CROSS_LIMIT = 1e-9

# One key of a config object.  type is number, int, a type of _AS_GIVEN,
# an object type of _OBJECTS, or a list type of _LISTS (a nonempty list
# of its item type); gt, ge and le bound every number, and every number
# is finite.  A default of None leaves an absent key None.
_Field = namedtuple("_Field", "name type default gt ge le",
                    defaults=(_REQUIRED, None, None, None))

_ENERGY = _Field("energy", "number", gt=0.0)
_WIDTH = _Field("width", "number", gt=0.0)
# each object type: its field table and what its validated dict builds;
# a constructor's refusal is a schema error at the object's path
_OBJECTS = {
    "pole": ((_ENERGY, _WIDTH), lambda d: ResonancePole(**d)),
    "term": ((_Field("re", "number"), _Field("im", "number", 0.0),
              _Field("pole_re", "number"), _Field("pole_im", "number"),
              _Field("order", "int", 1, ge=1)),
             lambda d: (complex(d["re"], d["im"]), complex(d["pole_re"], d["pole_im"]),
                        d["order"])),
    "wave": ((_Field("half_plane", "half_plane"), _Field("terms", "terms")),
             lambda d: HardyFunction(d["terms"], HalfPlane(d["half_plane"]))),
    "output": ((_Field("stem", "name", None), _Field("golden_dir", "string", None)), dict),
}
_LISTS = {"numbers": "number", "poles": "pole", "terms": "term"}
_EXPANSION = (
    _Field("resonances", "poles"),
    _Field("dual", "wave", {"half_plane": "upper", "terms": [
        {"re": 1.0, "im": 0.0, "pole_re": 2.0, "pole_im": -1.0, "order": 2}]}),
    _Field("state", "wave", {"half_plane": "lower", "terms": [
        {"re": 1.0, "im": 0.0, "pole_re": 1.5, "pole_im": 0.8, "order": 2}]}),
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

# each type whose value is kept as given: its JSON type, a test and what
# it must be; the kind's table checks the parameters object
_AS_GIVEN = {
    "string": (str, lambda v: True, "a string"),
    "name": (str, lambda v: _is_plain(v), "a plain file name"),
    "half_plane": (str, lambda v: v in ("upper", "lower"), '"upper" or "lower"'),
    "kind": (str, lambda v: v in _SCHEMA, f"one of {', '.join(_SCHEMA)}"),
    "object": (dict, lambda v: True, "an object"),
}
_SEED = _Field("seed", "int", _DEFAULT_SEED, ge=0)
# the top level of a config
_CONFIG = (
    _Field("kind", "kind"),
    _Field("scenario", "name", None),
    _Field("summary", "string", None),
    _SEED,
    _Field("parameters", "object", {}),
    _Field("output", "output", {}),
)


def _object(data, fields, path):
    """Validate one JSON object against a field table; returns a dict."""
    if not isinstance(data, dict):
        raise SchemaError("expected an object", path=path)
    prefix = f"{path}." if path else ""
    names = [f.name for f in fields]
    for key in data:
        if key not in names:
            raise SchemaError(f"unknown key (allowed: {', '.join(names)})",
                              path=f"{prefix}{key}")
    out = dict.fromkeys(names)
    for f in fields:
        if f.name in data or f.default not in (_REQUIRED, None):
            out[f.name] = _value(f, data.get(f.name, f.default), f"{prefix}{f.name}")
        elif f.default is _REQUIRED:
            raise SchemaError("missing required key", path=f"{prefix}{f.name}")
    return out


def _value(f, value, path):
    """Validate one value of field f."""
    if f.type in _LISTS:
        if not isinstance(value, list) or not value:
            raise SchemaError("expected a nonempty list", path=path)
        item = f._replace(type=_LISTS[f.type])
        return tuple(_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if f.type in _OBJECTS:
        fields, build = _OBJECTS[f.type]
        try:
            return build(_object(value, fields, path))
        except (ConfigurationError, HardyClassError) as exc:
            raise SchemaError(str(exc), path=path) from exc
    if f.type in _AS_GIVEN:
        json_type, holds, expected = _AS_GIVEN[f.type]
        if not (isinstance(value, json_type) and holds(value)):
            raise SchemaError(f"expected {expected}, got {value!r}", path=path)
        return value
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


# one runner per kind: (parameters, seed) -> (columns, rows, achieved)

def _run_single_resonance(p, seed):
    ket = GamowKet(p.pole)
    ts = np.linspace(0.0, p.lifetimes / p.width, p.points)
    rows = []
    law_dev = 0.0
    for t in ts:
        c = ket.evolution_coefficient(float(t))
        law = float(np.exp(-p.width * t))
        law_dev = max(law_dev, abs(abs(c) ** 2 - law))
        rows.append([float(t), c.real, c.imag, abs(c) ** 2, law])
    # c(a + b) - c(a) c(b) over all ordered pairs of 20 times; a + b and
    # the product are symmetric bit for bit, so the pairs a <= b suffice
    sub = [float(a) for a in np.linspace(0.0, ts[-1] / 2.0, 20)]
    coeff = [ket.evolution_coefficient(a) for a in sub]
    semi = max(
        abs(ket.evolution_coefficient(sub[i] + sub[j]) - coeff[i] * coeff[j])
        for i in range(len(sub))
        for j in range(i, len(sub))
    )
    cols = ["t", "coefficient_re", "coefficient_im", "survival_probability", "exponential_law"]
    achieved = {"exponential_law_max_dev": law_dev, "semigroup_max_dev": float(semi)}
    return cols, rows, achieved


def _expansion_check(p, lifetimes, times=()):
    """Expand p.state over p.resonances and compare it with the closed-form
    pairing at each of the lifetimes.  Returns (expansion, checks, worst,
    bound, grid): one (t, exact, reconstructed, relative error) per check
    time, the largest relative error and error bound of the closed form,
    and the (pole sums, backgrounds) at the times, in the checks' pass.
    """
    model = SMatrixModel(poles=p.resonances)
    state = xp.PreparedState(p.state)
    exp = xp.expand(p.dual, state, model)
    parts = ex.principal_parts(p.dual, state, model)
    ts = np.array(lifetimes) / _narrowest(p)
    # the expansion goes first: past the double range its pole sum or
    # Laplace table raises the documented DomainError
    poles, backgrounds, _ = exp.grid(np.concatenate([ts, times]))
    n = ts.size
    rec = poles[:n] + backgrounds[:n]
    exact, errors = parts.pairing(ts)
    rel = np.abs(exact - rec) / np.abs(exact)
    checks = list(zip(ts.tolist(), exact.tolist(), rec.tolist(), rel.tolist()))
    return exp, checks, float(rel.max()), float(errors.max()), (poles[n:], backgrounds[n:])


def _run_two_resonance(p, seed):
    ts = np.linspace(0.0, p.lifetimes / _narrowest(p), p.points)
    exp, _, worst, bound, (trunc, bg) = _expansion_check(p, _SPOTS, ts)
    err = xp.TruncationError.from_parts(trunc, bg)
    rows = np.column_stack([ts, np.abs(trunc + bg), np.abs(trunc), err.error,
                            np.abs(bg)]).tolist()
    cols = ["t", "full_abs", "truncated_abs", "truncation_error", "background_abs"]
    achieved = {
        "reconstruction_max_rel_err": worst,
        "exact_error_bound_max": bound,
        # the forbidden-side Fourier mass of a rational LOWER wave is
        # exactly zero (Paley-Wiener); the key stays for the benchmark gate
        "state_leakage": 0.0,
        "effective_levels": float(xp.effective_matrix(exp.model).size),
    }
    return cols, rows, achieved


def _run_contour_check(p, seed):
    _, checks, worst, bound, _ = _expansion_check(p, p.times_lifetimes)
    # the direct_* columns hold the closed-form pairing
    rows = [[t, exact.real, exact.imag, rec.real, rec.imag, rel]
            for t, exact, rec, rel in checks]
    cols = ["t", "direct_re", "direct_im", "reconstructed_re", "reconstructed_im",
            "relative_error"]
    achieved = {"deformation_max_rel_err": worst, "exact_error_bound_max": bound}
    return cols, rows, achieved


def _run_golden_rule_sweep(p, seed):
    rows = []
    gaps = []
    channel = gr.Channel(label="main", strength=p.strength,
                         form_factor=gr.FormFactor(cutoff=p.cutoff))
    for r in p.ratios:
        pole = ResonancePole(energy=p.energy, width=r * p.energy)
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


def _run_khalfin(p, seed):
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
    if not worst <= _CROSS_LIMIT:
        raise QuadratureError(
            f"the rotated contour and the closed form differ by {worst:.3e}, "
            f"past {_CROSS_LIMIT:g}; nothing written")
    cols = ["t", "survival_probability", "exponential_law", "ratio"]
    achieved = {"cross_method_max_diff": float(worst)}
    return cols, rows, achieved


def _run_histories_demo(p, seed):
    """Each case draws rho, H and two projector families and times t1 < t2.
    Cases run in stacked blocks of _HISTORY_BLOCK: one check of each input
    stack and one eigendecomposition of H per block.  No other kind draws."""
    rng = np.random.default_rng(seed)
    n = p.levels
    rows = []
    for first in range(0, p.cases, _HISTORY_BLOCK):
        # per case and in this order: rho, H, both families, two uniforms
        draws = [(hi._gaussian(rng, 4, n), rng.uniform(0.2, 1.0, size=2))
                 for _ in range(min(_HISTORY_BLOCK, p.cases - first))]
        a, u = map(np.array, zip(*draws))
        t1 = p.time_scale * u[:, 0]
        t2 = t1 + p.time_scale * u[:, 1]
        a_rho, a_h, a_1, a_2 = a.swapaxes(0, 1)
        rho, w_before = hi._density_spectrum(hi._density_from(a_rho), stacked=True)
        h = hi._require_hermitian(0.5 * (a_h + hi._dagger(a_h)), stacked=True)
        fam1 = hi._family(hi._family_from(a_1, 2), stacked=True)
        fam2 = hi._family(hi._family_from(a_2, 2), stacked=True)
        u1, u2, u21 = hi._propagator(hi.eigh(h), np.stack([t1, t2, t2 - t1]))
        # the two routes stay apart: their difference is the check
        prob = hi._history(rho, hi._chain(((fam1[0], u1), (fam2[0], u2))))
        seq = hi._sequential(rho, fam1[0], u1, fam2[0], u21)
        s_before = hi._entropy(w_before)
        s_after = hi._entropy(np.linalg.eigvalsh(hi._dephase(rho, fam1)))
        cells = np.column_stack([t1, t2, prob, seq, np.abs(prob - seq), s_before, s_after])
        rows += [[first + i, *row] for i, row in enumerate(cells.tolist())]
    cols = ["case", "t_first", "t_second", "probability", "sequential_probability",
            "abs_diff", "entropy_before", "entropy_after"]
    achieved = {"history_vs_sequential_max_diff": max(row[5] for row in rows),
                "entropy_min_gain": min(row[7] - row[6] for row in rows)}
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
    try:
        exists = path.exists()
        if exists:
            data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # a directory, a too long name, bad JSON, a huge int
        raise SchemaError(f"config is not a readable JSON file: {exc}") from exc
    if not exists:
        # only a plain name can be a built-in: joining a path would look
        # for a sibling "<path>.json", or outside the catalog entirely
        builtin = _builtin_dir() / f"{source}.json"
        try:
            exists = _is_plain(source) and builtin.is_file()
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


def _is_plain(value):
    """True for a file name with no directory part."""
    return (isinstance(value, str) and value not in ("", ".", "..")
            and Path(value).name == value and "\\" not in value and "\0" not in value)


def _require_finite(rows, achieved):
    """Refuse to report nan or inf; nothing has been written yet."""
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        i, row = next((i, row) for i, row in enumerate(rows) if not all(map(math.isfinite, row)))
        raise DomainError(f"row {i} has a non-finite cell {row}; nothing written")
    for key, value in achieved.items():
        if not math.isfinite(value):
            raise DomainError(f"achieved {key} is {value}; nothing written")


def _write_rows(path, columns, rows, fmt):
    if fmt == "csv":
        # runners give Python floats and ints, whose repr is the shortest
        # round-trip text; nothing needs CSV quoting, so joins give the file
        lines = [",".join(columns)] + [",".join(map(repr, row)) for row in rows]
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": columns, "rows": rows}, indent=1) + "\n")


def _write_manifest(path, manifest):
    with open(path, "w") as fh:
        fh.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def run_scenario(config, out_dir, fmt="csv", seed=None, bless=False):
    """Execute one scenario config; returns the manifest dict."""
    if fmt not in ("csv", "json"):
        raise SchemaError(f"format must be csv or json, got {fmt!r}")
    top = _object(config, _CONFIG, "")
    kind, params, output = top["kind"], top["parameters"], top["output"]
    name = top["scenario"] or kind
    stem = output["stem"] or name
    seed = top["seed"] if seed is None else _value(_SEED, seed, "seed")
    golden_dir = output["golden_dir"]
    values = _parse(params, kind)

    effective = {"scenario": name, "kind": kind, "parameters": params, "seed": seed}
    digest = hashlib.sha256(
        json.dumps(effective, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            columns, rows, achieved = _RUNNERS[kind](values, seed)
        except Warning as exc:
            raise DomainError(f"{type(exc).__name__}: {exc}; nothing written") from exc
    elapsed = time.perf_counter() - started
    _require_finite(rows, achieved)

    out_dir = Path(out_dir)
    golden_dir = Path(golden_dir) if golden_dir else out_dir / "golden" / name
    data_path = out_dir / f"{stem}.{fmt}"
    manifest_path = out_dir / f"{stem}.manifest.json"
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
    # both directories exist before any file is written, so a bad golden
    # directory leaves no data file behind
    try:
        for directory in (out_dir, golden_dir) if bless else (out_dir,):
            directory.mkdir(parents=True, exist_ok=True)
        _write_rows(data_path, columns, rows, fmt)
        _write_manifest(manifest_path, manifest)
        if bless:
            (golden_dir / data_path.name).write_bytes(data_path.read_bytes())
            _write_manifest(golden_dir / manifest_path.name,
                            {k: v for k, v in manifest.items() if k != "wall_time_s"})
    except OSError as exc:  # a file or directory in the way, or a path under a file
        raise OutputError(f"cannot write outputs: {exc}") from exc
    if bless:
        manifest["golden_dir"] = str(golden_dir)

    return manifest
