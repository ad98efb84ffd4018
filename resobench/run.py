"""Scenario benchmark for resokit: checked `resokit run` calls, timed end to end.

    python3 resobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One single-threaded client drives
`resokit.cli.main(["run", <config>, "--out-dir", ...])` in this process,
in a closed loop: the next call starts only after the previous one has
returned and its outputs have been checked.  The configs are generated
from --seed (see workloads.py) and every call is checked (see checks.py)
outside the timed region.

--trace 0 measures passes over the batch for --seconds and reports the
end-to-end metrics.  --trace 1 does the same untraced passes, then one
traced pass (see tracer.py), and reports the per-layer metrics.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric with its unit
and sample count, and a provenance record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_ROOT = ROOT / "tests" / "golden"
sys.path.insert(0, str(HERE))

from checks import check_call, output_paths  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_batch, write_batch  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3       # this process's own set-up plus two fresh interpreters
MIN_PASSES = 2
P90_MIN_SAMPLES = 100   # call_s.p90 needs ten samples beyond it
PROBE_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s.p50", "s"),
    ("call_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)

_SPANS = (
    "expansion.background", "expansion.expand", "expansion.smatrix_pairing_direct",
    "quadrature.oscillatory_quad", "surface.SMatrixModel.eval", "hardy.HardyFunction.call",
    "hardy.paley_wiener_check", "survival.SpectralDensity",
    "survival.survival_amplitude.rotation", "survival.survival_amplitude.direct",
    "quadrature.complex_quad", "quadrature.decaying_fourier_quad", "quadrature.circle_residue",
    "goldenrule.normalize", "goldenrule.total_width_check", "quadrature.integrate_exp_sinh",
    "histories.history_probability", "histories.unitary_evolve", "histories.entropy",
    "gamow.GamowKet.evolution_coefficient", "cli.main", "scenarios.run_scenario",
)

PER_LAYER = (
    tuple((f"{span}.{stat}", unit) for span in _SPANS
          for stat, unit in (("calls", "count"), ("self_s", "s")))
    + (
        ("expansion.background.calls_per_row", "calls/row"),
        ("expansion.background.stride_err.max", "1"),
        ("expansion.ray_nodes.max", "count"),
        ("expansion.ray_bytes.max", "B"),
        ("expansion.deformation_rel_err.max", "1"),
        ("hardy.leakage.max", "1"),
        ("survival.cross_method_diff.max", "1"),
        ("scenarios.rows_written", "count"),
        ("scenarios.bytes_written", "B"),
    )
    + tuple((f"{layer}.errors", "count") for layer in LAYERS)
    + (
        ("trace.untraced_s", "s"),
        ("trace.traced_s", "s"),
        ("trace.overhead_s", "s"),
        ("failed_share", "1"),
        ("call_s.p90", "s"),
        ("call_s.samples", "count"),
    )
)


class Client:
    """One closed-loop caller: runs a config, then checks what it wrote."""

    def __init__(self, cli, batch, paths, out_dir):
        self.cli = cli
        self.batch = batch
        self.paths = paths
        self.out_dir = out_dir
        self.attempted = 0
        self.failures = []

    def call(self, index):
        """Time one call, then check it; returns (seconds, exit code)."""
        entry = self.batch[index]
        for stale in output_paths(entry, self.out_dir):
            stale.unlink(missing_ok=True)
        sink = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                # looked up on the module at every call, so tracer wrappers apply
                code = self.cli.main(["run", str(self.paths[index]),
                                      "--out-dir", str(self.out_dir)])
        except Exception as exc:  # a raising call is a failed call; the run goes on
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        self.attempted += 1
        try:
            problems = check_call(entry, code, self.out_dir, GOLDEN_ROOT)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append({"scenario": entry.name, "problems": problems[:3],
                                  "log": sink.getvalue()[-400:]})
        return elapsed, code

    def passes(self, seconds):
        """Whole passes over the batch, ending at the pass boundary nearest
        to `seconds` (and after at least MIN_PASSES passes)."""
        pass_s, call_s = [], []
        started = time.perf_counter()
        while (len(pass_s) < MIN_PASSES
               or time.perf_counter() - started + 0.5 * statistics.mean(pass_s) < seconds):
            total = 0.0
            for index in range(len(self.batch)):
                elapsed, _ = self.call(index)
                call_s.append(elapsed)
                total += elapsed
            pass_s.append(total)
        return pass_s, call_s


def _set_up(workload, seed, work):
    """Import resokit, write the batch and make one warm-up call.

    Returns the client and the wall seconds all of that took.
    """
    started = time.perf_counter()
    cli = importlib.import_module("resokit.cli")
    batch = make_batch(workload, seed, ROOT)
    paths = write_batch(batch, work / "configs")
    client = Client(cli, batch, paths, work / "out")
    client.call(0)
    return client, time.perf_counter() - started


def _probe_setup(workload, seed):
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _traced_pass(client):
    tracer = Tracer()
    rows = bg_rows = bg_calls = 0
    written = 0
    deformation = cross = 0.0
    started = time.perf_counter()
    with tracer.installed():
        for index, entry in enumerate(client.batch):
            before = tracer.calls["expansion.background"]
            _, code = client.call(index)
            if code != 0:
                continue
            data_path, manifest_path = output_paths(entry, client.out_dir)
            manifest = json.loads(manifest_path.read_text())
            written += data_path.stat().st_size + manifest_path.stat().st_size
            rows += manifest["rows_written"]
            achieved = manifest["achieved"]
            if entry.kind == "two_resonance":
                bg_rows += manifest["rows_written"]
                bg_calls += tracer.calls["expansion.background"] - before
            deformation = max(deformation, achieved.get("reconstruction_max_rel_err", 0.0),
                              achieved.get("deformation_max_rel_err", 0.0))
            cross = max(cross, achieved.get("cross_method_max_diff", 0.0))
    traced_s = time.perf_counter() - started
    out = {}
    for span in _SPANS:
        out[f"{span}.calls"] = tracer.calls[span]
        out[f"{span}.self_s"] = tracer.self_s[span]
    out.update({
        "expansion.background.calls_per_row": bg_calls / bg_rows if bg_rows else 0.0,
        "expansion.background.stride_err.max": tracer.maxima["expansion.stride_err"],
        "expansion.ray_nodes.max": tracer.maxima["expansion.ray_nodes"],
        "expansion.ray_bytes.max": tracer.maxima["expansion.ray_bytes"],
        "expansion.deformation_rel_err.max": deformation,
        "hardy.leakage.max": tracer.maxima["hardy.leakage"],
        "survival.cross_method_diff.max": cross,
        "scenarios.rows_written": rows,
        "scenarios.bytes_written": written,
    })
    for layer in LAYERS:
        out[f"{layer}.errors"] = tracer.errors[layer]
    return out, traced_s, tracer.missing


def _sha256_tree(path):
    digest = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(f.relative_to(path).as_posix().encode() + b"\0")
        digest.update(f.read_bytes() + b"\0")
    return digest.hexdigest()


def _git_commit(root):
    """HEAD's commit from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _provenance(args, client, samples):
    numpy = importlib.import_module("numpy")
    scipy = importlib.import_module("scipy")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in client.paths},
        "git_commit": _git_commit(ROOT),
        "src_resokit_sha256": _sha256_tree(ROOT / "src" / "resokit"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "client": "one closed-loop caller in this process",
        "samples": samples,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up in this fresh interpreter and print it")
    return parser.parse_args(argv)


def _run(args, work):
    client, own_setup = _set_up(args.workload, args.seed, work)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return
    setups = [own_setup] + [_probe_setup(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]
    pass_s, call_s = client.passes(args.seconds)
    samples = {"setup_s": len(setups), "pass_s": len(pass_s), "call_s": len(call_s),
               "setup_values": setups, "pass_values": pass_s}
    if args.trace:
        layers, traced_s, missing = _traced_pass(client)
        untraced = statistics.median(pass_s)
        p90 = (statistics.quantiles(call_s, n=10)[-1]
               if len(call_s) >= P90_MIN_SAMPLES else 0.0)
        layers.update({
            "trace.untraced_s": untraced,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced,
            "failed_share": len(client.failures) / client.attempted,
            "call_s.p90": p90,
            "call_s.samples": len(call_s),
        })
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
        samples["traced_pass"] = 1
        samples["sites_missing"] = missing
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s.p50": statistics.median(pass_s),
            "call_s.p50": statistics.median(call_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    report = _provenance(args, client, samples)
    report["failures"] = client.failures[:10]
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"   # before numpy loads, and inherited by the probes
    if not (ROOT / "src" / "resokit" / "__init__.py").is_file():
        print(f"no resokit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".resobench" / f"{args.workload}-{os.getpid()}"
    try:
        _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()   # only when no other run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
