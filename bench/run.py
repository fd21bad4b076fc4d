"""gumbelsys benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 bench/run.py --workload rate-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the details (sample counts, the tail percentile used, the
run environment, the first failures).

Every workload process is a fresh interpreter with ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1, importing
gumbelsys from ``src/`` of this checkout.  Before anything is timed one
untimed warm-up process builds the inputs and runs one operation, so that
bytecode compilation and lazy imports are not measured.  ``setup_s`` is the
median, over several fresh processes, of the time from process start to
inputs built (interpreter start, ``import gumbelsys``, inputs).  The loop's
timings are scaled by the host speed that ``calibrate.py`` measures during
the loop; the detail line keeps the raw values.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("rate-sweep", "lu-sweep", "cli-cold")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0
TAIL_BEYOND = 10
#: Set-up-only processes besides the measuring one; setup_s is their median.
SETUP_RUNS = 4
#: Fresh ``-X importtime`` interpreters behind the import layer's medians.
IMPORTTIME_RUNS = 5
#: Nominal wall time of one calibrate.py slice; see "Host speed" in README.md.
REFERENCE_SLICE_S = 0.005

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

IMPORT_MODULES = {
    "import.numpy_ms": "numpy",
    "import.scipy_special_ms": "scipy.special",
    "import.scipy_optimize_ms": "scipy.optimize",
    "import.scipy_integrate_ms": "scipy.integrate",
    "import.total_ms": "gumbelsys",
}

CLI_COMMANDS = ("check", "entropy", "simulate", "scan")


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    units = {name: "ms" for name in IMPORT_MODULES}
    units["import.gumbelsys_self_ms"] = "ms"
    for name in ("majorization.pair", "rng.stream"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    units.update({
        "systems.kernel.calls": "count", "systems.kernel.points": "count",
        "systems.kernel.points_per_call": "count",
        "systems.quantiles.calls": "count", "systems.quantiles.probs": "count",
    })
    for name in ("systems.kernel", "systems.quantiles"):
        for key in ("self_s", "self_s.series", "self_s.parallel"):
            units[f"{name}.{key}"] = "s"
    units["systems.grid.calls"] = "count"
    units["systems.grid.self_s"] = "s"
    for rel in ("lr", "hr", "rh", "st", "disp", "lu"):
        units[f"orders.{rel}.calls"] = "count"
        units[f"orders.{rel}.busy_s"] = "s"
        units[f"orders.{rel}.self_s"] = "s"
    units["orders.t_grid.self_s"] = "s"
    units["orders.audit.self_s"] = "s"
    units["orders.inconclusive_ratio"] = "ratio"
    for kind in ("residual", "shannon", "curve"):
        units[f"entropy.{kind}.calls"] = "count"
        units[f"entropy.{kind}.self_s"] = "s"
    units["entropy.converged_ratio"] = "ratio"
    units.update({
        "simulate.sample.calls": "count", "simulate.sample.draws": "count",
        "simulate.sample.bytes_computed": "B", "simulate.sample.self_s": "s",
        "simulate.cdf_dominance.self_s": "s", "simulate.quantile_spread.self_s": "s",
    })
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.busy_s"] = "s"
        units[f"cli.{cmd}.self_s"] = "s"
        units[f"cli.{cmd}.cold_s"] = "s"
    units.update({
        "trace.overhead_ratio": "ratio", "trace.coverage": "ratio",
        "trace.spans": "count", "trace.missing_sites": "count",
        "fail_ratio": "ratio",
    })
    return units


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def tail(samples: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond) for the highest integer percentile
    (nearest rank) with at least TAIL_BEYOND samples above its rank.  With too
    few samples for that it falls back to the maximum, and says so through
    the count of samples beyond, which is then below TAIL_BEYOND."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Orchestrator:
    def __init__(self, args) -> None:
        self.args = args
        self.env = child_env()
        self.deadline = monotonic() + DEADLINE_S

    def _remaining(self) -> float:
        left = self.deadline - monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def worker(self, mode: str) -> tuple[float, str]:
        """Start a worker; return (seconds from start to inputs built, its output)."""
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--mode", mode]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                text=True)
        try:
            started, _, _ = select.select([proc.stdout], [], [], self._remaining())
            ready = proc.stdout.readline() if started else ""
            setup = perf_counter() - t0
            out = proc.communicate(timeout=self._remaining())[0] if ready else ""
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
        return setup, out

    def importtime(self) -> tuple[dict, list]:
        """Median import breakdown from ``-X importtime`` in fresh interpreters."""
        runs = []
        for _ in range(IMPORTTIME_RUNS):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gumbelsys"],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=self._remaining())
            if proc.returncode != 0:
                raise BenchError(f"importing gumbelsys failed: {proc.stderr[-400:]}")
            self_us, cum_us = {}, {}
            for line in proc.stderr.splitlines():
                if not line.startswith("import time:") or "imported package" in line:
                    continue
                own, cum, name = line[len("import time:"):].split("|")
                name = name.strip()
                self_us[name] = self_us.get(name, 0) + int(own)
                cum_us.setdefault(name, int(cum))
            row = {metric: cum_us.get(mod, 0) / 1e3 for metric, mod in IMPORT_MODULES.items()}
            row["import.gumbelsys_self_ms"] = sum(
                v for k, v in self_us.items()
                if k == "gumbelsys" or k.startswith("gumbelsys.")) / 1e3
            runs.append(row)
        return {k: statistics.median(r[k] for r in runs) for k in runs[0]}, runs

    def run(self) -> tuple[dict, dict]:
        a = self.args
        load_before = os.getloadavg()
        self.worker("warmup")
        setups = [self.worker("setup")[0] for _ in range(SETUP_RUNS)]
        setup, out = self.worker("run")
        setups.append(setup)
        res = json.loads(out.strip().splitlines()[-1])
        detail = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                  "trace": a.trace, "warmup_runs": 1, "setup_samples": setups,
                  "attempted": res["attempted"], "failed": res["failed"],
                  "failures": res["notes"], "cycle_ops": res["cycle"]}
        if a.trace:
            metrics = self._layers(res, detail)
        else:
            metrics = self._end_to_end(res, setups, detail)
        detail["environment"] = environment(res["versions"], load_before, os.getloadavg())
        return metrics, {"detail": detail, "result": res}

    def _end_to_end(self, res: dict, setups: list[float], detail: dict) -> dict:
        lat = res["latencies_s"]
        p, tail_s, beyond = tail(lat)
        cycle = res["cycle"]
        cycle_s = [sum(lat[i:i + cycle]) for i in range(0, len(lat) - cycle + 1, cycle)]
        detail.update(ops=len(lat), cycles=len(cycle_s), elapsed_s=res["elapsed_s"],
                      ops_per_s_overall=len(lat) / res["elapsed_s"],
                      tail_percentile=p, tail_samples_beyond=beyond)
        if "per_command" in res:
            detail["per_command"] = {c: {"median_s": statistics.median(v), "samples": len(v)}
                                     for c, v in res["per_command"].items()}
        raw = {
            "ops_per_s": cycle / statistics.median(cycle_s),
            "op_ms_p50": statistics.median(lat) * 1e3,
            "op_ms_tail": tail_s * 1e3,
        }
        # scale the loop's timings to a host whose reference slice takes
        # REFERENCE_SLICE_S, so that the host's own speed drift cancels out
        slowness = statistics.median(res["calibration_s"]) / REFERENCE_SLICE_S
        detail.update(raw=raw, host_slowness=slowness,
                      reference_slices=len(res["calibration_s"]))
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": raw["ops_per_s"] * slowness,
            "op_ms_p50": raw["op_ms_p50"] / slowness,
            "op_ms_tail": raw["op_ms_tail"] / slowness,
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def _layers(self, res: dict, detail: dict) -> dict:
        layers = dict(res["layers"])
        imports, runs = self.importtime()
        layers.update(imports)
        cold = res.get("cold_per_command", {})
        for cmd in CLI_COMMANDS:
            layers[f"cli.{cmd}.cold_s"] = statistics.median(cold[cmd]) if cmd in cold else 0.0
        layers["fail_ratio"] = res["failed"] / res["attempted"]
        detail.update(traced_ops=res["ops"], untraced_s=res["untraced_s"],
                      traced_s=res["traced_s"], wrapped_sites=res["sites"],
                      missing_sites=res["missing_sites"], importtime_runs=runs)
        if res["missing_sites"]:
            print("warning: traced names not found, their layers read low: "
                  + ", ".join(res["missing_sites"]), file=sys.stderr)
        return {name: {"value": layers[name], "unit": unit}
                for name, unit in per_layer_units().items()}


def environment(versions: dict, load_before, load_after) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {**versions, "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "loadavg_before": list(load_before), "loadavg_after": list(load_after),
            "threads": {v: "1" for v in THREAD_VARS}}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gumbelsys" / "__init__.py").is_file():
        print(f"error: no gumbelsys sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: no reference outputs at {REFERENCE}", file=sys.stderr)
        return 2
    try:
        metrics, report = Orchestrator(args).run()
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = report["result"]
    print(json.dumps({"detail": report["detail"]}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
