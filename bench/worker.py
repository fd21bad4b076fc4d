"""One benchmark process: start, import gumbelsys, build inputs, then measure.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready`` as
soon as its inputs are built (the parent times start-up to that line), then,
in ``run`` mode, one JSON line with the raw measurements.  Everything that
set-up does not need -- the reference outputs, ``gumbelsys.cli`` and the
tracer -- is loaded after ``ready``, so that it is not timed as set-up.

Modes:
  setup   build the inputs and exit (one set-up time sample)
  warmup  build the inputs and run one operation untimed
  run     measure whole schedule cycles until --seconds have passed
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import numpy
import scipy

import gumbelsys

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
MAX_FAILURE_NOTES = 5
CALIBRATE_EVERY_S = 0.25


class Calibrator:
    """The machine-speed reference process (``calibrate.py``)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.slices: list[float] = []
        self.last = 0.0

    def maybe_slice(self) -> None:
        """Run one reference slice if CALIBRATE_EVERY_S has passed since the last."""
        if perf_counter() - self.last < CALIBRATE_EVERY_S:
            return
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.slices.append(float(self.proc.stdout.readline()))
        self.last = perf_counter()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


class Runner:
    """Runs the ops of one workload and checks each output against the reference."""

    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference: dict = {}  # expected outputs by key; see load_reference
        self.tracer: Tracer | None = None
        self.calibrator: Calibrator | None = None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.slots = self.build()
        self.cycle = len(wl.WORKLOADS[workload]["schedule"])

    def build(self) -> list:
        if self.workload == "cli-cold":
            return wl.build_commands(self.workload, self.seed, self.workdir)
        return wl.build_pairs(self.workload, self.seed)

    def load_reference(self) -> None:
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            self.reference = json.load(fh).get(self.workload, {})

    def command(self, j: int) -> str:
        return self.slots[j % len(self.slots)][1][0]

    # -- one operation ------------------------------------------------------------

    def _fail(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"{key}: {why}")

    def run_op(self, j: int, cold: bool) -> float:
        """Run slot ``j`` and check its output; return its wall time."""
        key, *inputs = self.slots[j % len(self.slots)]
        self.attempted += 1
        t0 = perf_counter()
        try:
            if self.workload == "cli-cold":
                code, doc = self._cli(inputs[0], cold)
                elapsed = perf_counter() - t0
                got = wl.cli_summary(inputs[0][0], doc, code)
            elif self.workload == "rate-sweep":
                verdicts = wl.rate_op(*inputs)
                elapsed = perf_counter() - t0
                got = wl.rate_summary(verdicts)
            else:
                verdict = wl.lu_op(*inputs)
                elapsed = perf_counter() - t0
                got = wl.lu_summary(verdict)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            self._fail(key, f"raised {exc!r}: {traceback.format_exc(limit=3)}")
            return perf_counter() - t0
        want = self.reference.get(key)
        if want is None:
            self._fail(key, "no reference output")
        elif not wl.same(got, want):
            self._fail(key, f"got {got!r}, expected {want!r}")
        return elapsed

    def _cli(self, argv: list[str], cold: bool):
        if cold:
            proc = subprocess.run([sys.executable, "-m", "gumbelsys.cli", *argv],
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, json.loads(proc.stdout)
        import gumbelsys.cli

        buf = io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer is not None
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(buf), span:
            code = gumbelsys.cli.main(list(argv))
        return code, json.loads(buf.getvalue())

    # -- loops ---------------------------------------------------------------------

    def loop(self, seconds: float = 0.0, count: int | None = None,
             cold: bool = True) -> tuple[list[float], float]:
        """Run slots 0, 1, ...: ``count`` ops, or whole schedule cycles until
        ``seconds`` have passed.  Returns (per-op latencies, elapsed)."""
        lat: list[float] = []
        t0 = perf_counter()
        while True:
            j = len(lat)
            if count is not None:
                if j >= count:
                    break
            elif j and j % self.cycle == 0 and perf_counter() - t0 >= seconds:
                break
            if self.calibrator is not None:
                self.calibrator.maybe_slice()
            if self.tracer is not None:
                with self.tracer.op(j):
                    lat.append(self.run_op(j, cold))
            else:
                lat.append(self.run_op(j, cold))
        return lat, perf_counter() - t0


def measure(runner: Runner, seconds: float) -> dict:
    cold = runner.workload == "cli-cold"
    runner.calibrator = Calibrator()
    try:
        lat, elapsed = runner.loop(seconds)
        # read while the reference process is alive, so it is not counted
        rss = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
    finally:
        runner.calibrator.close()
    out = {"latencies_s": lat, "elapsed_s": elapsed, "peak_rss_kb": rss.ru_maxrss,
           "calibration_s": runner.calibrator.slices}
    if cold:
        out["per_command"] = per_command(runner, lat)
    return out


def per_command(runner: Runner, lat: list[float]) -> dict:
    out: dict = {}
    for j, t in enumerate(lat):
        out.setdefault(runner.command(j), []).append(t)
    return out


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Untraced phase, then the same ops traced; per-layer numbers from the spans.

    cli-cold drives ``cli.main`` in-process here, so that spans can be
    recorded, and adds one untraced cycle of cold commands.
    """
    import gumbelsys.cli  # noqa: F401 - the tracer wraps its names on every workload
    from spans import Tracer

    cold = False
    runner.run_op(0, cold)  # load lazy imports before the untraced phase
    share = seconds / (3.0 if runner.workload == "cli-cold" else 2.0)
    lat_a, untraced_s = runner.loop(share, cold=cold)
    tracer = runner.tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup", op_id="setup"):
            runner.build()  # the inputs again, traced: majorization and rng
        lat_b, traced_s = runner.loop(count=len(lat_a), cold=cold)
    finally:
        tracer.uninstall()
        runner.tracer = None
    layers = layer_metrics(tracer)
    layers["trace.overhead_ratio"] = untraced_s / traced_s  # traced over untraced ops/s
    out = {"layers": layers, "ops": len(lat_b), "untraced_s": untraced_s,
           "traced_s": traced_s, "missing_sites": tracer.missing,
           "sites": len(tracer.sites)}
    if runner.workload == "cli-cold":
        lat_c, _ = runner.loop(count=runner.cycle, cold=True)
        out["cold_per_command"] = per_command(runner, lat_c)
    tracer.write(os.path.join(OUT_DIR, f"trace-{runner.workload}.jsonl"))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics named in the benchmark, from the recorded spans."""
    from spans import ROOT

    summ = tracer.summary()
    m: dict = {}

    def get(name: str, key: str, default=0.0):
        return summ[name].get(key, default) if name in summ else default

    for name in ("majorization.pair", "rng.stream"):
        m[f"{name}.calls"] = get(name, "calls", 0)
        m[f"{name}.busy_s"] = get(name, "busy_s")
    m["systems.kernel.calls"] = get("systems.kernel", "calls", 0)
    m["systems.kernel.points"] = get("systems.kernel", "points", 0)
    m["systems.kernel.points_per_call"] = _ratio(m["systems.kernel.points"],
                                                 m["systems.kernel.calls"])
    m["systems.quantiles.calls"] = get("systems.quantiles", "calls", 0)
    m["systems.quantiles.probs"] = get("systems.quantiles", "probs", 0)
    for name in ("systems.kernel", "systems.quantiles"):
        for key in ("self_s", "self_s.series", "self_s.parallel"):
            m[f"{name}.{key}"] = get(name, key)
    m["systems.grid.calls"] = get("systems.grid", "calls", 0)
    m["systems.grid.self_s"] = get("systems.grid", "self_s")
    verdicts = inconclusive = 0
    for rel in ("lr", "hr", "rh", "st", "disp", "lu"):
        name = f"orders.{rel}"
        m[f"{name}.calls"] = get(name, "calls", 0)
        m[f"{name}.busy_s"] = get(name, "busy_s")
        m[f"{name}.self_s"] = get(name, "self_s")
        verdicts += m[f"{name}.calls"]
        inconclusive += get(name, "inconclusive", 0)
    m["orders.t_grid.self_s"] = get("orders.t_grid", "self_s")
    m["orders.audit.self_s"] = get("orders.audit", "self_s")
    m["orders.inconclusive_ratio"] = _ratio(inconclusive, verdicts)
    values = converged = 0
    for kind in ("residual", "shannon", "curve"):
        name = f"entropy.{kind}"
        m[f"{name}.calls"] = get(name, "calls", 0)
        m[f"{name}.self_s"] = get(name, "self_s")
        values += get(name, "values", 0)
        converged += get(name, "converged", 0)
    m["entropy.converged_ratio"] = _ratio(converged, values)
    m["simulate.sample.calls"] = get("simulate.sample", "calls", 0)
    m["simulate.sample.draws"] = get("simulate.sample", "draws", 0)
    m["simulate.sample.bytes_computed"] = get("simulate.sample", "bytes", 0)
    m["simulate.sample.self_s"] = get("simulate.sample", "self_s")
    m["simulate.cdf_dominance.self_s"] = get("simulate.cdf_dominance", "self_s")
    m["simulate.quantile_spread.self_s"] = get("simulate.quantile_spread", "self_s")
    for cmd in ("check", "entropy", "simulate", "scan"):
        m[f"cli.{cmd}.busy_s"] = get(f"cli.{cmd}", "busy_s")
        m[f"cli.{cmd}.self_s"] = get(f"cli.{cmd}", "self_s")
    ops = tracer.summary(op_filter=lambda op: op != "setup")
    covered = sum(r["self_s"] for name, r in ops.items() if name != ROOT)
    m["trace.coverage"] = _ratio(covered, ops[ROOT]["busy_s"] if ROOT in ops else 0.0)
    m["trace.spans"] = len(tracer.spans)
    m["trace.missing_sites"] = len(tracer.missing)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "warmup", "run"), required=True)
    args = p.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        runner.load_reference()
        if args.mode == "warmup":
            runner.loop(count=1)
            return 0
        out = (measure_traced(runner, args.seconds) if args.trace
               else measure(runner, args.seconds))
        out.update(attempted=runner.attempted, failed=runner.failed, notes=runner.notes,
                   cycle=runner.cycle,
                   versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                             "scipy": scipy.__version__, "gumbelsys": gumbelsys.__file__})
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
