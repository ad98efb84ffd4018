"""Output checks for one `resokit run` call, made outside the timed region.

Every call must exit 0 and leave a data file and a manifest whose header,
row count and cells are sound.  Built-in scenarios are then compared cell
by cell with the committed goldens under the rule the tier-1 suite uses;
seeded variants are gated by the oracle thresholds the tier-1 suite
applies to their kind, plus columns the benchmark recomputes itself.

`check_call` returns a list of problems; an empty list means the call
passed.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from pathlib import Path

COLUMNS = {
    "single_resonance": ["t", "coefficient_re", "coefficient_im", "survival_probability",
                         "exponential_law"],
    "two_resonance": ["t", "full_abs", "truncated_abs", "truncation_error", "background_abs"],
    "golden_rule_sweep": ["width_over_energy", "born_rate", "exact_width", "relative_gap"],
    "khalfin": ["t", "survival_probability", "exponential_law", "ratio"],
    "histories_demo": ["case", "t_first", "t_second", "probability", "sequential_probability",
                       "abs_diff", "entropy_before", "entropy_after"],
}

GOLDEN_TOL = 1e-12      # rel_tol = abs_tol for golden cells
ACHIEVED_REL = 0.05     # golden `achieved` values may drift by 5%
RECOMPUTE_TOL = 1e-12   # columns the benchmark recomputes from the config


def _close(a, b, tol=GOLDEN_TOL):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


# the parameter that fixes each kind's row count; generated configs and
# the built-ins always set it
_ROW_KEYS = {
    "single_resonance": "points",
    "two_resonance": "points",
    "khalfin": "points",
    "histories_demo": "cases",
    "golden_rule_sweep": "ratios",
}


def expected_rows(config):
    """Rows the config asks for."""
    value = config["parameters"][_ROW_KEYS[config["kind"]]]
    return len(value) if isinstance(value, list) else value


def _linspace(start, stop, n):
    if n == 1:
        return [start]
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


def _geomspace(start, stop, n):
    lo, hi = math.log(start), math.log(stop)
    return [math.exp(v) for v in _linspace(lo, hi, n)]


def _grid_problems(label, got, want, tol=RECOMPUTE_TOL):
    for i, (g, w) in enumerate(zip(got, want)):
        if not _close(g, w, tol):
            return [f"{label}[{i}] = {g!r}, config asks for {w!r}"]
    return []


def _gate(problems, name, value, ok):
    if not ok:
        problems.append(f"{name} = {value!r} fails its gate")


def _kind_problems(config, manifest, cols):
    """Oracle gates for a seeded variant, by kind."""
    kind = config["kind"]
    p = config["parameters"]
    a = manifest["achieved"]
    out = []
    if kind == "single_resonance":
        _gate(out, "exponential_law_max_dev", a["exponential_law_max_dev"],
              a["exponential_law_max_dev"] < 1e-12)
        _gate(out, "semigroup_max_dev", a["semigroup_max_dev"], a["semigroup_max_dev"] < 1e-12)
        width = p["width"]
        t_end = p["lifetimes"] / width
        out += _grid_problems("t", cols["t"], _linspace(0.0, t_end, len(cols["t"])))
        law = [math.exp(-width * t) for t in cols["t"]]
        out += _grid_problems("exponential_law", cols["exponential_law"], law)
        z = complex(p["energy"], -0.5 * width)
        coeff = [cmath.exp(-1j * z * t) for t in cols["t"]]
        out += _grid_problems("coefficient_re", cols["coefficient_re"], [c.real for c in coeff])
        out += _grid_problems("coefficient_im", cols["coefficient_im"], [c.imag for c in coeff])
        for i, (s, w) in enumerate(zip(cols["survival_probability"], law)):
            if abs(s - w) >= 1e-12:
                out.append(f"survival_probability[{i}] = {s!r} is not e^(-width t) = {w!r}")
                break
    elif kind == "two_resonance":
        _gate(out, "reconstruction_max_rel_err", a["reconstruction_max_rel_err"],
              a["reconstruction_max_rel_err"] < 1e-6)
        _gate(out, "state_leakage", a["state_leakage"], a["state_leakage"] < 1e-5)
        _gate(out, "effective_levels", a["effective_levels"],
              a["effective_levels"] == len(p["resonances"]))
        g_min = min(r["width"] for r in p["resonances"])
        t_end = p["lifetimes"] / g_min
        out += _grid_problems("t", cols["t"], _linspace(0.0, t_end, len(cols["t"])))
        for name in ("full_abs", "truncated_abs", "truncation_error", "background_abs"):
            if min(cols[name]) < 0.0:
                out.append(f"{name} has a negative magnitude")
    elif kind == "golden_rule_sweep":
        energy = p["energy"]
        out += _grid_problems("width_over_energy", cols["width_over_energy"], p["ratios"])
        for i, (r, exact) in enumerate(zip(cols["width_over_energy"], cols["exact_width"])):
            if abs(exact - r * energy) > 1e-10 * r * energy:
                out.append(f"exact_width[{i}] = {exact!r} is not the width {r * energy!r}")
                break
        gaps = cols["relative_gap"]
        recomputed = [abs(b - e) / e for b, e in zip(cols["born_rate"], cols["exact_width"])]
        out += _grid_problems("relative_gap", gaps, recomputed)
        if not all(b < a_ for a_, b in zip(gaps, gaps[1:])):
            out.append("relative gaps are not strictly decreasing")
        _gate(out, "strictly_decreasing", a["strictly_decreasing"],
              a["strictly_decreasing"] == 1.0)
    elif kind == "khalfin":
        _gate(out, "cross_method_max_diff", a["cross_method_max_diff"],
              a["cross_method_max_diff"] < 1e-9)
        g = p["width"]
        lo, hi = p["lifetimes_min"] / g, p["lifetimes_max"] / g
        out += _grid_problems("t", cols["t"], _geomspace(lo, hi, len(cols["t"])))
        out += _grid_problems("exponential_law", cols["exponential_law"],
                              [math.exp(-g * t) for t in cols["t"]])
        out += _grid_problems("ratio", cols["ratio"],
                              [s / w for s, w in zip(cols["survival_probability"],
                                                     cols["exponential_law"])])
        if not all(0.0 <= s <= 1.0 + 1e-9 for s in cols["survival_probability"]):
            out.append("survival probability outside [0, 1]")
    elif kind == "histories_demo":
        _gate(out, "history_vs_sequential_max_diff", a["history_vs_sequential_max_diff"],
              a["history_vs_sequential_max_diff"] < 1e-12)
        _gate(out, "entropy_min_gain", a["entropy_min_gain"], a["entropy_min_gain"] >= -1e-10)
        n = len(cols["case"])
        out += _grid_problems("case", cols["case"], list(range(n)))
        for i in range(n):
            diff = abs(cols["probability"][i] - cols["sequential_probability"][i])
            if diff >= 1e-12 or cols["abs_diff"][i] != diff:
                out.append(f"history row {i} disagrees with sequential collapse")
                break
            if cols["entropy_after"][i] - cols["entropy_before"][i] < -1e-10:
                out.append(f"history row {i} loses entropy")
                break
            if not 0.0 <= cols["probability"][i] <= 1.0 + 1e-12:
                out.append(f"history row {i} probability outside [0, 1]")
                break
    return out


def _golden_problems(name, manifest, header, rows, golden_root):
    golden_dir = Path(golden_root) / name
    g_header, g_rows = read_csv(golden_dir / f"{name}.csv")
    stable = json.loads((golden_dir / f"{name}.manifest.json").read_text())
    out = []
    if header != g_header:
        out.append("header differs from the golden")
    if len(rows) != len(g_rows):
        out.append(f"{len(rows)} rows against {len(g_rows)} in the golden")
    for i, (row, g_row) in enumerate(zip(rows, g_rows)):
        for cell, g_cell in zip(row, g_row):
            if not _close(float(cell), float(g_cell)):
                out.append(f"row {i}: {cell} differs from golden {g_cell}")
                break
        if len(out) > 3:
            break
    for key in ("config_sha256", "columns", "rows_written", "seed"):
        if stable[key] != manifest.get(key):
            out.append(f"manifest {key} differs from the golden")
    for key, ref in stable["achieved"].items():
        got = manifest["achieved"].get(key)
        if got is None or not abs(got - ref) <= GOLDEN_TOL + ACHIEVED_REL * abs(ref):
            out.append(f"achieved {key} = {got!r}, golden {ref!r}")
    return out


def check_call(entry, exit_code, out_dir, golden_root):
    """Problems with one call's outputs; [] when every check passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    config = entry.config
    data_path, manifest_path = output_paths(entry, out_dir)
    if not data_path.is_file() or not manifest_path.is_file():
        return ["data file or manifest missing"]
    manifest = json.loads(manifest_path.read_text())
    header, rows = read_csv(data_path)
    kind = config["kind"]
    problems = []
    if header != manifest.get("columns") or header != COLUMNS[kind]:
        problems.append(f"header {header} does not match the manifest columns")
    want = expected_rows(config)
    if manifest.get("rows_written") != want or len(rows) != want:
        problems.append(f"{len(rows)} rows written (manifest {manifest.get('rows_written')}),"
                        f" config asks for {want}")
    if problems:
        return problems
    try:
        values = [[float(c) for c in row] for row in rows]
    except ValueError as exc:
        return [f"unparsable cell: {exc}"]
    if any(len(row) != len(header) for row in values):
        return ["ragged row"]
    if not all(math.isfinite(v) for row in values for v in row):
        return ["non-finite cell"]
    if not all(math.isfinite(v) for v in manifest["achieved"].values()):
        return ["non-finite achieved value"]
    if entry.golden:
        return _golden_problems(entry.name, manifest, header, rows, golden_root)
    cols = {name: [row[j] for row in values] for j, name in enumerate(header)}
    return _kind_problems(config, manifest, cols)


def output_paths(entry, out_dir):
    """The data file and manifest a call for this entry writes (the configs
    set no output stem, so resokit names both after the scenario)."""
    return Path(out_dir) / f"{entry.name}.csv", Path(out_dir) / f"{entry.name}.manifest.json"
