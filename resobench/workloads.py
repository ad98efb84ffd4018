"""Seeded scenario batches for the two benchmark workloads.

A batch is the workload's built-in scenarios plus seeded variants of the
same kinds.  Variants jitter the physics (resonance energies and widths,
wave-function phases, check times) inside the schema's valid domain and
close to the built-ins.  The parameters that set a call's cost are held
fixed per slot: the horizon in lifetimes, `points`, the number of check
times, `cases` and `levels`.  The jitter that does move cost (the
narrowest width rescales the ray table through t_max = lifetimes / width)
is kept to a few percent, so two seeds give batches of nearly equal cost.

Configs that are left out on purpose:

* malformed inputs (wrong JSON types, non-finite numbers, escaping output
  stems): the seed code answers some of them with a traceback or
  non-finite rows, which is a robustness defect, not a cost to time;
* horizons whose background ray table would pass the 4M-node cap: the
  call fails by design before doing the work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("expansion_sweep", "tails_and_rates")

BUILTINS = {
    "expansion_sweep": ("kaon_pair",),
    "tails_and_rates": ("khalfin", "golden_rule_sweep", "histories_demo", "single_resonance"),
}

# Horizons (in lifetimes of the narrowest pole) of the two-resonance
# variants.  kaon_pair itself sits at 6; the table grows linearly with the
# horizon, 297k nodes at 12 and 594k at 24, far past a 4 MiB L2 cache.
SWEEP_HORIZONS = (12.0, 24.0)
# Few rows per variant keep a pass short while the large tables keep the
# background the largest share of the batch.
SWEEP_POINTS = 41

GOLDEN_RATIOS = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]


@dataclass(frozen=True)
class Entry:
    """One scenario of a batch: its config and where its reference lives."""

    name: str
    config: dict
    golden: bool

    @property
    def kind(self):
        return self.config["kind"]


def _phase(rng):
    """A unit coefficient with a random phase: moves values, not cost."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return {"re": round(math.cos(angle), 9), "im": round(math.sin(angle), 9)}


def _waves(rng):
    dual = {"half_plane": "upper",
            "terms": [{**_phase(rng), "pole_re": 2.0, "pole_im": -1.0, "order": 2}]}
    state = {"half_plane": "lower",
             "terms": [{**_phase(rng), "pole_re": 1.5, "pole_im": 0.8, "order": 2}]}
    return dual, state


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _narrow_pole(rng):
    return {"energy": _u(rng, 0.92, 1.08), "width": _u(rng, 0.196, 0.204)}


def _wide_pole(rng):
    return {"energy": _u(rng, 1.5, 1.7), "width": _u(rng, 0.32, 0.38)}


def _variant(name, kind, params, seed=None):
    config = {"scenario": name, "kind": kind, "summary": "seeded benchmark variant",
              "parameters": params}
    if seed is not None:
        config["seed"] = seed
    return Entry(name=name, config=config, golden=False)


def _expansion_sweep(rng):
    out = []
    for lifetimes in SWEEP_HORIZONS:
        dual, state = _waves(rng)
        out.append(_variant(f"two_resonance_h{int(lifetimes)}", "two_resonance", {
            "resonances": [_narrow_pole(rng), _wide_pole(rng)],
            "dual": dual,
            "state": state,
            "lifetimes": lifetimes,
            "points": SWEEP_POINTS,
        }))
    return out


def _tails_and_rates(rng):
    out = []
    for i in range(2):
        out.append(_variant(f"khalfin_v{i}", "khalfin", {
            "energy": _u(rng, 0.9, 1.1),
            "width": _u(rng, 0.045, 0.055),
            "lifetimes_min": 0.2,
            "lifetimes_max": 30.0,
            "points": 60,
            "cross_check_lifetimes": [_u(rng, 0.4, 0.6), _u(rng, 0.9, 1.1), _u(rng, 1.8, 2.2)],
        }))
        # The relative Born gap falls strictly with the width only while
        # energy / cutoff >= 2 (the built-in sits at 2); below that the two
        # widest ratios swap order, which is physics, not a defect.
        cutoff = _u(rng, 0.85, 1.15)
        out.append(_variant(f"golden_rule_sweep_v{i}", "golden_rule_sweep", {
            "energy": round(cutoff * rng.uniform(2.05, 2.6), 6),
            "cutoff": cutoff,
            "strength": _u(rng, 0.5, 2.0),
            "ratios": list(GOLDEN_RATIOS),
        }))
        out.append(_variant(f"histories_demo_v{i}", "histories_demo", {
            "levels": 4,
            "cases": 20,
            "time_scale": _u(rng, 0.5, 2.0),
        }, seed=rng.randrange(2**31)))
        out.append(_variant(f"single_resonance_v{i}", "single_resonance", {
            "energy": _u(rng, 0.8, 1.2),
            "width": _u(rng, 0.15, 0.25),
            "lifetimes": 10.0,
            "points": 201,
        }))
    return out


_GENERATORS = {
    "expansion_sweep": _expansion_sweep,
    "tails_and_rates": _tails_and_rates,
}


def make_batch(workload, seed, root):
    """Built-ins of the workload (read from the checkout) plus variants.

    The same (workload, seed) always gives the same batch: the generator
    is a `random.Random` seeded with a string, which hashes the same way
    in every interpreter.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    builtin_dir = Path(root) / "src" / "resokit" / "scenarios"
    batch = [
        Entry(name=name, config=json.loads((builtin_dir / f"{name}.json").read_text()),
              golden=True)
        for name in BUILTINS[workload]
    ]
    rng = random.Random(f"{workload}:{seed}")
    return batch + _GENERATORS[workload](rng)


def write_batch(batch, config_dir):
    """Write each config as JSON; returns the paths in batch order."""
    config_dir = Path(config_dir)
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in batch:
        path = config_dir / f"{entry.name}.json"
        path.write_text(json.dumps(entry.config, indent=1, sort_keys=True) + "\n")
        paths.append(path)
    return paths
