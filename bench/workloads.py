"""Workload inputs, operations and output summaries for the benchmark.

Every workload visits a fixed schedule of cells, one cycle after another.
A cell fixes the kind of input (topology and component count, or CLI
subcommand); the run's seed fixes the order in which the slots of a cell
walk through that cell's ``pool`` inputs.  Pool inputs are derived from :data:`POOL_SEED` and the cell, so
``reference.json`` (written by ``make_reference.py``) can hold the expected
output of every input any seed can draw.

* ``rate-sweep`` -- majorization pairs, alternating series and parallel,
  n in {2, 4, 16, 64} and sigma in {0.5, 1, 2}.  Each pair runs ``make_grid``,
  lr/hr/rh/st in both directions on the 2049-point grid, then ``check_disp``.
  Small n appears more often than large n so that the n = 64 series cell,
  which costs ~10x a small pair, does not dominate the run.
* ``lu-sweep`` -- ``check_lu`` (64 t points, default ``QuadratureSpec``) on
  majorization pairs with n in {2..5}, both topologies, sigma in {0.5, 1, 2}.
* ``cli-cold`` -- ``python -m gumbelsys.cli`` in a fresh interpreter per
  command: ``check`` (all six relations, one small pair, twice per cycle so
  the median lands inside one command's distribution), ``entropy``
  (Shannon plus an 8-point residual curve), ``scan`` (short free-mode audit)
  and ``simulate`` (sized so the Monte Carlo oracle outweighs the import).
"""

from __future__ import annotations

import math
import os

import numpy as np

import gumbelsys
import gumbelsys.rng

POOL_SEED = 20190501
SIGMAS = (0.5, 1.0, 2.0)
#: Entropy-derived values may move by this much (times max(1, |ref|)) before
#: they count as failed; loose enough for ~1e-12 quadrature changes.
VALUE_TOL = 1e-8

S, P = "series", "parallel"

WORKLOADS = {
    "rate-sweep": {
        "schedule": [(S, 2), (P, 2), (S, 4), (P, 4), (S, 2), (P, 2), (S, 4), (P, 4),
                     (S, 16), (P, 16), (S, 2), (P, 2), (S, 4), (P, 4), (S, 64), (P, 64),
                     (S, 2), (P, 2), (S, 4), (P, 4), (S, 16), (P, 16)],
        "pool": 48,
        "cycles": 60,
    },
    "lu-sweep": {
        "schedule": [(S, 2), (P, 2), (S, 3), (P, 3), (S, 4), (P, 4), (S, 5), (P, 5)],
        "pool": 16,
        "cycles": 24,
    },
    "cli-cold": {
        "schedule": ["check", "entropy", "check", "scan", "simulate"],
        "pool": 4,
        "cycles": 16,
    },
}

CLI_N = 3
SIMULATE_SAMPLES = 600_000
SIMULATE_BOOTSTRAP = 20
ENTROPY_T_POINTS = 8
SCAN_ARGS = ("--mode", "free", "--trials", "6", "--n", "4")


# -- inputs ------------------------------------------------------------------------

def make_pair(tag: str, topology: str, n: int, sigma: float, k: int):
    """Pool pair ``k`` of a cell: systems (a, b) with a's locations majorizing b's."""
    g = gumbelsys.rng.stream(POOL_SEED, tag, topology, n, sigma, k)
    u, v = gumbelsys.random_majorization_pair(g, n)
    topo = gumbelsys.Topology(topology)
    return gumbelsys.SystemModel(topo, tuple(u), sigma), gumbelsys.SystemModel(topo, tuple(v), sigma)


def pair_key(topology: str, n: int, sigma: float, k: int) -> str:
    return f"{topology}:{n}:{sigma:g}:{k}"


def slot_plan(workload: str, seed: int) -> list[tuple]:
    """(cell, sigma, pool index) for every slot.

    The seed fixes, per cell, a permutation of the pool that the cell's
    slots walk through in turn, so a run sees a cell's inputs without
    repeats until the pool is exhausted.
    """
    spec = WORKLOADS[workload]
    g = np.random.default_rng(np.random.SeedSequence([int(seed) % 2**64, POOL_SEED]))
    schedule, pool = spec["schedule"], spec["pool"]
    perms: dict = {}
    visits: dict = {}
    plan = []
    for j in range(len(schedule) * spec["cycles"]):
        cell = schedule[j % len(schedule)]
        if cell not in perms:
            perms[cell] = g.permutation(pool)
        m = visits.get(cell, 0)
        visits[cell] = m + 1
        plan.append((cell, SIGMAS[j % len(SIGMAS)], int(perms[cell][m % pool])))
    return plan


def build_pairs(workload: str, seed: int) -> list[tuple]:
    """Slot inputs of an in-process workload: (reference key, a, b)."""
    out = []
    for (topology, n), sigma, k in slot_plan(workload, seed):
        a, b = make_pair(workload, topology, n, sigma, k)
        out.append((pair_key(topology, n, sigma, k), a, b))
    return out


def _system_ini(section: str, s) -> str:
    mus = ", ".join(repr(m) for m in s.mus)
    return f"[{section}]\ntopology = {s.topology.value}\nmus = {mus}\nsigma = {s.sigma!r}\n"


def cli_pool_pair(command: str, k: int):
    topology = S if k % 2 == 0 else P
    return make_pair(f"cli-{command}", topology, CLI_N, SIGMAS[k % len(SIGMAS)], k)


def cli_argv(command: str, k: int, workdir: str) -> list[str]:
    """Write the spec file of CLI pool input ``k`` (if any) and return its argv."""
    if command == "scan":
        return ["scan", *SCAN_ARGS, "--seed", str(k), "--out", "-"]
    a, b = cli_pool_pair(command, k)
    if command == "check":
        text = (_system_ini("system_a", a) + _system_ini("system_b", b)
                + "[check]\nrelations = lr, hr, rh, st, disp, lu\n"
                  "direction = first_smaller\n")
    elif command == "entropy":
        text = _system_ini("system", a) + f"[entropy]\nt_points = {ENTROPY_T_POINTS}\n"
    else:
        text = (_system_ini("system_a", a) + _system_ini("system_b", b)
                + f"[simulate]\nn_samples = {SIMULATE_SAMPLES}\nseed = {k}\n"
                  f"bootstrap = {SIMULATE_BOOTSTRAP}\n")
    path = os.path.join(workdir, f"{command}-{k}.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return [command, path, "--out", "-"]


def build_commands(workload: str, seed: int, workdir: str) -> list[tuple]:
    """Slot inputs of cli-cold: (reference key, argv) with spec files written."""
    argvs: dict = {}
    out = []
    for command, _, k in slot_plan(workload, seed):
        key = f"{command}:{k}"
        if key not in argvs:
            argvs[key] = cli_argv(command, k, workdir)
        out.append((key, argvs[key]))
    return out


# -- operations and their output summaries ------------------------------------------

def _code(v) -> str:
    return v.outcome.value[0].upper() + ("+" if v.witness is not None else "-")


def rate_op(a, b) -> list:
    """make_grid, lr/hr/rh/st both ways on it, then check_disp."""
    grid = gumbelsys.make_grid(a, b)
    verdicts = []
    for direction in (gumbelsys.Direction.FIRST_SMALLER, gumbelsys.Direction.FIRST_GREATER):
        verdicts.append(gumbelsys.check_lr(a, b, grid, direction))
        verdicts.append(gumbelsys.check_hr(a, b, grid, direction))
        verdicts.append(gumbelsys.check_rh(a, b, grid, direction))
        verdicts.append(gumbelsys.check_st(a, b, grid, direction))
    verdicts.append(gumbelsys.check_disp(a, b))
    return verdicts


def rate_summary(verdicts) -> str:
    return "".join(_code(v) for v in verdicts)


def lu_op(a, b):
    return gumbelsys.check_lu(a, b)


def lu_summary(v) -> dict:
    wit = None if v.witness is None else [v.witness.lhs, v.witness.rhs]
    return {"code": _code(v), "margin": v.margin, "witness": wit}


def cli_summary(command: str, doc: dict, code: int) -> dict:
    """The fields of a CLI report that the benchmark checks."""
    if command == "check":
        body = [[v["relation"], v["direction"], v["outcome"], v["witness_x"] is not None,
                 v["margin"]] for v in doc["verdicts"]]
        return {"exit": code, "verdicts": body}
    if command == "entropy":
        return {"exit": code, "shannon": doc["shannon"]["value"],
                "residual": [r["value"] for r in doc["residual"]],
                "converged": [r["converged"] for r in doc["residual"]]}
    if command == "simulate":
        return {"exit": code, "contradictions": doc["cdf_dominance"]["contradictions"],
                "spread": doc["quantile_spread"]["value"]}
    return {"exit": code, "passes": doc["passes"], "failures": len(doc["failures"]),
            "held_counts": doc["held_counts"]}


def same(got, want) -> bool:
    """Exact match except floats, which may differ by VALUE_TOL * max(1, |want|)."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return (math.isfinite(got) and abs(got - want) <= VALUE_TOL * max(1.0, abs(want)))
    if isinstance(want, list):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(same(g, w) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same(got[k], want[k]) for k in want))
    return type(got) is type(want) and got == want
