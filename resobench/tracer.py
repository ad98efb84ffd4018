"""Per-layer tracing by wrapping resokit's public functions from outside.

Each wrapped callable becomes a span: its calls are counted and its self
time (span time minus the time of the spans it caused) is summed.
Spans are aggregated in memory as they close; nothing is written until
the benchmark reports.  Wrappers are installed at the names resokit
looks the callables up through at call time (for example
`resokit.expansion.oscillatory_quad`, which `expansion` imported by
name, not `resokit.quadrature.oscillatory_quad`), and removed again when
the `installed()` block ends.  A site missing from the library is
skipped and listed in `missing`, so its counters read zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name).  The first part of the span name is
# the layer an escaping exception is charged to.
SPAN_SITES = (
    ("resokit.cli", "main", "cli.main"),
    ("resokit.cli", "run_scenario", "scenarios.run_scenario"),
    ("resokit.expansion", "expand", "expansion.expand"),
    ("resokit.expansion", "ResonanceExpansion.background", "expansion.background"),
    ("resokit.expansion", "smatrix_pairing_direct", "expansion.smatrix_pairing_direct"),
    ("resokit.expansion", "oscillatory_quad", "quadrature.oscillatory_quad"),
    ("resokit.expansion", "paley_wiener_check", "hardy.paley_wiener_check"),
    ("resokit.expansion", "circle_residue", "quadrature.circle_residue"),
    ("resokit.expansion", "complex_quad", "quadrature.complex_quad"),
    ("resokit.surface", "SMatrixModel.eval", "surface.SMatrixModel.eval"),
    ("resokit.hardy", "HardyFunction.__call__", "hardy.HardyFunction.call"),
    ("resokit.hardy", "paley_wiener_check", "hardy.paley_wiener_check"),
    ("resokit.survival", "SpectralDensity.__init__", "survival.SpectralDensity"),
    ("resokit.survival", "survival_amplitude", "survival.survival_amplitude"),
    ("resokit.survival", "complex_quad", "quadrature.complex_quad"),
    ("resokit.survival", "decaying_fourier_quad", "quadrature.decaying_fourier_quad"),
    ("resokit.survival", "circle_residue", "quadrature.circle_residue"),
    ("resokit.quadrature", "complex_quad", "quadrature.complex_quad"),
    ("resokit.goldenrule", "normalize", "goldenrule.normalize"),
    ("resokit.goldenrule", "total_width_check", "goldenrule.total_width_check"),
    ("resokit.goldenrule", "integrate_exp_sinh", "quadrature.integrate_exp_sinh"),
    ("resokit.histories", "history_probability", "histories.history_probability"),
    ("resokit.histories", "unitary_evolve", "histories.unitary_evolve"),
    ("resokit.histories", "entropy", "histories.entropy"),
    ("resokit.gamow", "GamowKet.evolution_coefficient", "gamow.GamowKet.evolution_coefficient"),
)

# Sites observed without a span of their own: their work stays in the
# caller's self time.  background_with_error does all of background's work.
PROBE_SITES = (
    ("resokit.expansion", "ResonanceExpansion.background_with_error", "expansion.stride_err"),
)

LAYERS = ("cli", "scenarios", "expansion", "quadrature", "surface", "hardy", "survival",
          "goldenrule", "histories", "gamow")


def _resolve(module_name, path):
    """(owner, attribute name, bound callable) for a dotted path in a module.

    On a class only the class's own attribute counts, so restoring it never
    leaves a copy of an inherited method behind.
    """
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, fn


def _survival_method(args, kwargs):
    return kwargs.get("method", args[2] if len(args) > 2 else "rotation")


class Tracer:
    """Aggregated spans: calls and self seconds per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.maxima = defaultdict(float)
        self.missing = []
        self._stack = []

    def _observe(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _after(self, name, result):
        """Counts and maxima read from a span's result."""
        if name == "expansion.expand":
            nodes = getattr(result, "ray_nodes", None)
            if nodes is not None:
                self._observe("expansion.ray_nodes", float(len(nodes)))
                self._observe("expansion.ray_bytes", float(sum(
                    getattr(result, f).nbytes
                    for f in ("ray_nodes", "ray_weights", "ray_values"))))
        elif name == "hardy.paley_wiener_check":
            self._observe("hardy.leakage", float(result))

    def _span(self, fn, name):
        stack = self._stack
        clock = time.perf_counter
        layer = name.split(".", 1)[0]
        by_method = name == "survival.survival_amplitude"
        observed = name in ("expansion.expand", "hardy.paley_wiener_check")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = f"{name}.{_survival_method(args, kwargs)}" if by_method else name
                self.calls[key] += 1
                self.self_s[key] += elapsed - frame[0]
            if observed:
                self._after(name, result)
            return result

        return wrapper

    def _probe(self, fn, name):
        # an exception here is charged by the span that called the probe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            value, est = fn(*args, **kwargs)
            self._observe(name, float(est))
            return value, est

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore."""
        originals = []
        try:
            for sites, make in ((SPAN_SITES, self._span), (PROBE_SITES, self._probe)):
                for module_name, path, name in sites:
                    try:
                        owner, attr, fn = _resolve(module_name, path)
                    except (ImportError, AttributeError, KeyError):
                        self.missing.append(f"{module_name}.{path}")
                        continue
                    originals.append((owner, attr, fn))
                    setattr(owner, attr, make(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


def bound_callables():
    """The callable bound at every site now, keyed by its dotted path."""
    return {f"{module_name}.{path}": _resolve(module_name, path)[2]
            for module_name, path, _ in SPAN_SITES + PROBE_SITES}
