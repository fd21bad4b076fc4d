"""Command-line front end: run order checks, property sweeps, entropy and
Monte Carlo reports from flat INI spec files.

Exit codes: 0 all requested checks hold, 1 any check fails, 2 any check is
inconclusive (or any quadrature fails to converge), 64 on malformed input or
misuse.  Reports embed the fully resolved configuration and are byte-stable:
identical inputs and seed produce identical bytes.
"""

from __future__ import annotations

import argparse
import configparser
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import orders
from .entropy import QuadratureSpec, entropy_curve, shannon_entropy
from .errors import GumbelSysError, UsageError
from .majorization import random_majorization_pair
from .orders import Direction, Outcome, Relation
from .rng import stream
from .simulate import empirical_cdf_dominance, empirical_quantile_spread
from .systems import SystemModel, Topology, make_grid, system_quantiles

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

SCAN_MODES = ("parallel-lr", "parallel-rh", "series-hr", "series-disp-lu", "free")


class _CliError(UsageError):
    """Raised for any condition that should terminate with exit 64."""


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _dump_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isnan(v):
            return "null"
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        text = format(v, ".17g")
        if not any(c in text for c in ".eE"):
            text += ".0"  # keep float-ness on reload
        return text
    if isinstance(x, str):
        import json
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x)}")


def dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{_dump_scalar(str(k))}: {dumps(v, indent + 1)}"
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        rows = [f"{inner}{dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return _dump_scalar(obj)


# ---------------------------------------------------------------------------
# spec file parsing
# ---------------------------------------------------------------------------

def _read_spec(path: str) -> configparser.ConfigParser:
    if path == "-":
        text = sys.stdin.read()
        origin = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _CliError(f"cannot read spec file {path!r}: {exc}") from exc
        origin = path
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise _CliError(f"malformed spec file: {exc}") from exc
    return cp


def _floats(text: str, where: str) -> list[float]:
    toks = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    try:
        return [float(t) for t in toks]
    except ValueError as exc:
        raise _CliError(f"{where}: expected numbers, got {text!r}") from exc


def _get(cp, section: str, key: str, default=None, required: bool = False):
    if not cp.has_option(section, key):
        if required:
            raise _CliError(f"missing field [{section}] {key}")
        return default
    return cp.get(section, key)


def _parse_system(cp, section: str) -> SystemModel:
    if not cp.has_section(section):
        raise _CliError(f"missing section [{section}]")
    topo_text = _get(cp, section, "topology", required=True).strip().lower()
    try:
        topo = Topology(topo_text)
    except ValueError:
        raise _CliError(f"[{section}] topology must be 'series' or 'parallel', "
                        f"got {topo_text!r}") from None
    mus = _floats(_get(cp, section, "mus", required=True), f"[{section}] mus")
    sigma_text = _get(cp, section, "sigma", required=True)
    try:
        return SystemModel(topo, tuple(mus), float(sigma_text))
    except (GumbelSysError, ValueError) as exc:
        raise _CliError(f"[{section}]: {exc}") from exc


def _parse_int(cp, section, key, default):
    raw = _get(cp, section, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise _CliError(f"[{section}] {key}: expected an integer, got {raw!r}") from exc


def _parse_float(cp, section, key, default):
    raw = _get(cp, section, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise _CliError(f"[{section}] {key}: expected a number, got {raw!r}") from exc


def _setting(override, parse, cp, section, key, default):
    """The command-line ``override`` when given, else the spec's value."""
    return override if override is not None else parse(cp, section, key, default)


def _system_doc(s: SystemModel) -> dict:
    return {"topology": s.topology.value, "mus": list(s.mus), "sigma": s.sigma}


def _verdict_doc(v: orders.OrderVerdict) -> dict:
    return {
        "relation": v.relation.value,
        "direction": v.direction.value,
        "outcome": v.outcome.value,
        "witness_x": None if v.witness is None else v.witness.x,
        "witness_lhs": None if v.witness is None else v.witness.lhs,
        "witness_rhs": None if v.witness is None else v.witness.rhs,
        "margin": v.margin,
    }


def _verdict_table(rows: list[orders.OrderVerdict]) -> str:
    lines = [f"{'relation':<9} {'direction':<14} {'outcome':<13} "
             f"{'margin':>13} {'witness_x':>13}"]
    for v in rows:
        wx = "-" if v.witness is None else format(v.witness.x, ".6g")
        lines.append(f"{v.relation.value:<9} {v.direction.value:<14} "
                     f"{v.outcome.value:<13} {v.margin:>13.6g} {wx:>13}")
    return "\n".join(lines)


def _exit_for(outcomes) -> int:
    if any(o is Outcome.FAILS for o in outcomes):
        return EXIT_FAILS
    if any(o is Outcome.INCONCLUSIVE for o in outcomes):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _emit(doc: dict, table: str, out: str | None) -> None:
    if out == "-":
        sys.stdout.write(dumps(doc) + "\n")
        return
    sys.stdout.write(table + "\n")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    cp = _read_spec(args.spec)
    a = _parse_system(cp, "system_a")
    b = _parse_system(cp, "system_b")
    section = "check"
    if not cp.has_section(section):
        raise _CliError("missing section [check]")
    rel_text = _get(cp, section, "relations", required=True)
    relations = []
    for tok in (t for t in re.split(r"[,\s]+", rel_text.strip()) if t):
        try:
            relations.append(Relation(tok.lower()))
        except ValueError:
            raise _CliError(f"[check] relations: unknown relation {tok!r}") from None
    if not relations:
        raise _CliError("[check] relations must be nonempty")
    dir_text = (_get(cp, section, "direction", "first_smaller") or "").strip().lower()
    try:
        direction = Direction(dir_text)
    except ValueError:
        raise _CliError(f"[check] direction must be first_smaller or first_greater, "
                        f"got {dir_text!r}") from None

    grid_points = _setting(args.grid_points, _parse_int, cp, section, "grid_points",
                           orders.DEFAULT_X_POINTS)
    p_points = _parse_int(cp, section, "p_points", orders.DEFAULT_P_POINTS)
    t_points = _parse_int(cp, section, "t_points", orders.DEFAULT_T_POINTS)
    tail_cutoff = _setting(args.tail_cutoff, _parse_float, cp, section, "tail_cutoff", 1e-8)
    quad = QuadratureSpec(rel_tol=_setting(args.tol, _parse_float, cp, section,
                                           "quad_rel_tol", 1e-10))

    try:
        grid = make_grid(a, b, grid_points, tail_cutoff)
        p_grid = orders.make_p_grid(p_points)
        t_grid = (orders.make_t_grid(a, b, t_points)
                  if Relation.LU in relations else None)
        verdicts = [orders.check(rel, a, b, direction, grid=grid, p_grid=p_grid,
                                 t_grid=t_grid, quad=quad) for rel in relations]
    except GumbelSysError as exc:
        raise _CliError(str(exc)) from exc

    code = _exit_for([v.outcome for v in verdicts])
    doc = {
        "command": "check",
        "config": {
            "system_a": _system_doc(a),
            "system_b": _system_doc(b),
            "relations": [r.value for r in relations],
            "direction": direction.value,
            "grid_points": grid_points,
            "p_points": p_points,
            "t_points": t_points,
            "tail_cutoff": tail_cutoff,
            "quad_rel_tol": quad.rel_tol,
            "quad_abs_tol": quad.abs_tol,
        },
        "verdicts": [_verdict_doc(v) for v in verdicts],
        "exit_code": code,
    }
    _emit(doc, _verdict_table(verdicts), args.out)
    return code


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_trial(mode: str, k: int, args, sigma: float):
    g = stream(args.seed, "scan", mode, k)
    n = args.n
    if mode == "parallel-lr":
        mus_b = g.uniform(args.mu_low, args.mu_high, n)
        mus_a = mus_b + g.uniform(0.0, args.gap, n)
        topo = Topology.PARALLEL
    elif mode in ("parallel-rh",):
        mus_a, mus_b = random_majorization_pair(g, n, args.spread,
                                                args.mu_low, args.mu_high)
        topo = Topology.PARALLEL
    elif mode in ("series-hr", "series-disp-lu"):
        mus_a, mus_b = random_majorization_pair(g, n, args.spread,
                                                args.mu_low, args.mu_high)
        topo = Topology.SERIES
    else:  # free
        topo = Topology.PARALLEL if g.integers(0, 2) else Topology.SERIES
        mus_a = g.uniform(args.mu_low, args.mu_high, n)
        mus_b = g.uniform(args.mu_low, args.mu_high, n)
    a = SystemModel(topo, tuple(mus_a), sigma)
    b = SystemModel(topo, tuple(mus_b), sigma)
    return a, b


def _cmd_scan(args) -> int:
    if args.mode not in SCAN_MODES:
        raise _CliError(f"--mode must be one of {', '.join(SCAN_MODES)}")
    if args.trials < 1:
        raise _CliError("--trials must be >= 1")
    if args.n < (2 if args.mode != "parallel-lr" else 1):
        raise _CliError("--n is too small for this mode")
    sigmas = args.sigmas
    quad = QuadratureSpec(rel_tol=args.tol)

    failures = []
    held_counts: dict[str, int] = {}
    min_margins: dict[str, float] = {}

    for k in range(args.trials):
        sigma = sigmas[k % len(sigmas)]
        a, b = _scan_trial(args.mode, k, args, sigma)
        grid = make_grid(a, b, args.grid_points, args.tail_cutoff)
        trial_verdicts: list[orders.OrderVerdict] = []
        trial_ok = True
        extra: dict = {}

        if args.mode == "parallel-lr":
            v = orders.check_lr(a, b, grid, Direction.FIRST_GREATER)
            trial_verdicts.append(v)
            trial_ok = v.holds
        elif args.mode == "parallel-rh":
            v = orders.check_rh(a, b, grid, Direction.FIRST_GREATER)
            trial_verdicts.append(v)
            closed = orders.parallel_rh_log_margin(a, b)
            agree = (closed >= 0.0) == v.holds
            extra["closed_form_log_margin"] = closed
            extra["closed_form_agrees"] = agree
            trial_ok = v.holds and agree
        elif args.mode == "series-hr":
            v = orders.check_hr(a, b, grid, Direction.FIRST_SMALLER)
            trial_verdicts.append(v)
            trial_ok = v.holds
        elif args.mode == "series-disp-lu":
            vd = orders.check_disp(a, b, orders.make_p_grid(args.p_points),
                                   Direction.FIRST_SMALLER)
            vl = orders.check_lu(a, b, orders.make_t_grid(a, b, args.t_points),
                                 quad, Direction.FIRST_SMALLER)
            trial_verdicts.extend([vd, vl])
            trial_ok = vd.holds and vl.holds
        else:  # free: exploration plus internal consistency audit
            audit = orders.implication_audit(a, b, grid,
                                             include_entropy_orders=args.entropy_orders,
                                             quad=quad)
            trial_verdicts = list(audit.verdicts.values())
            for (rel, direction), v in audit.verdicts.items():
                if v.outcome is Outcome.HOLDS:
                    key = f"{rel.value}:{direction.value}"
                    held_counts[key] = held_counts.get(key, 0) + 1
            trial_ok = audit.consistent
            if not audit.consistent:
                extra["audit_violations"] = list(audit.violations)

        for v in trial_verdicts:
            key = f"{v.relation.value}:{v.direction.value}"
            prev = min_margins.get(key)
            min_margins[key] = v.margin if prev is None else min(prev, v.margin)
        if not trial_ok:
            failures.append({
                "trial": k,
                "system_a": _system_doc(a),
                "system_b": _system_doc(b),
                "verdicts": [_verdict_doc(v) for v in trial_verdicts],
                **extra,
            })

    code = EXIT_OK if not failures else EXIT_FAILS
    doc = {
        "command": "scan",
        "config": {
            "mode": args.mode,
            "trials": args.trials,
            "n_components": args.n,
            "mu_low": args.mu_low,
            "mu_high": args.mu_high,
            "sigmas": list(sigmas),
            "spread": args.spread,
            "gap": args.gap,
            "grid_points": args.grid_points,
            "p_points": args.p_points,
            "t_points": args.t_points,
            "tail_cutoff": args.tail_cutoff,
            "quad_rel_tol": quad.rel_tol,
            "seed": args.seed,
        },
        "passes": args.trials - len(failures),
        "failures": failures,
        "min_margins": dict(sorted(min_margins.items())),
        "held_counts": dict(sorted(held_counts.items())),
        "exit_code": code,
    }
    table = (f"scan mode={args.mode} trials={args.trials} "
             f"passes={args.trials - len(failures)} failures={len(failures)}")
    _emit(doc, table, args.out)
    return code


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def _cmd_entropy(args) -> int:
    cp = _read_spec(args.spec)
    s = _parse_system(cp, "system")
    sec = "entropy"
    rel_tol = _setting(args.tol, _parse_float, cp, sec, "rel_tol", 1e-10)
    abs_tol = _parse_float(cp, sec, "abs_tol", 1e-13)
    cutoff = _parse_float(cp, sec, "tail_cutoff", 1e-12)
    max_sub = _parse_int(cp, sec, "max_subdivisions", 2000)
    quad = QuadratureSpec(rel_tol=rel_tol, abs_tol=abs_tol, tail_mass_cutoff=cutoff,
                          max_subdivisions=max_sub)

    raw_ts = _get(cp, sec, "t_values") if cp.has_section(sec) else None
    if raw_ts:
        ts = _floats(raw_ts, "[entropy] t_values")
    else:
        count = _parse_int(cp, sec, "t_points", orders.DEFAULT_T_POINTS)
        lo_p = _parse_float(cp, sec, "t_lo_prob", 0.001)
        hi_p = _parse_float(cp, sec, "t_hi_prob", 0.999)
        ts = list(np.linspace(*system_quantiles(s, [lo_p, hi_p]), count))

    try:
        total = shannon_entropy(s, quad)
        curve = entropy_curve(s, ts, quad)
    except GumbelSysError as exc:
        raise _CliError(str(exc)) from exc

    all_ok = total.converged and all(e.converged for e in curve)
    code = EXIT_OK if all_ok else EXIT_INCONCLUSIVE
    doc = {
        "command": "entropy",
        "config": {
            "system": _system_doc(s),
            "t_values": list(map(float, ts)),
            "rel_tol": quad.rel_tol,
            "abs_tol": quad.abs_tol,
            "tail_cutoff": quad.tail_mass_cutoff,
            "max_subdivisions": quad.max_subdivisions,
        },
        "shannon": {"value": total.value, "error_estimate": total.error_estimate,
                    "converged": total.converged},
        "residual": [
            {"t": float(t), "value": e.value, "error_estimate": e.error_estimate,
             "converged": e.converged}
            for t, e in zip(ts, curve)
        ],
        "exit_code": code,
    }
    lines = [f"shannon entropy: {total.value:.12g} "
             f"(err {total.error_estimate:.3g}, converged={total.converged})"]
    for t, e in zip(ts, curve):
        lines.append(f"t={float(t):> 12.6g}  value={e.value:.12g}  "
                     f"err={e.error_estimate:.3g}  converged={e.converged}")
    _emit(doc, "\n".join(lines), args.out)
    return code


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cp = _read_spec(args.spec)
    a = _parse_system(cp, "system_a")
    b = _parse_system(cp, "system_b")
    sec = "simulate"
    n = _parse_int(cp, sec, "n_samples", 100_000)
    seed = _parse_int(cp, sec, "seed", 0)
    # a spec asking for fewer than 33 points gets 33; an override must ask for 33 or more
    grid_points = (args.grid_points if args.grid_points is not None
                   else max(_parse_int(cp, sec, "grid_points", 129), 33))
    tail_cutoff = _setting(args.tail_cutoff, _parse_float, cp, sec, "tail_cutoff", 1e-8)
    alpha = _parse_float(cp, sec, "alpha", 0.25)
    beta = _parse_float(cp, sec, "beta", 0.75)
    n_boot = _parse_int(cp, sec, "bootstrap", 200)

    try:
        grid = make_grid(a, b, grid_points, tail_cutoff)
        scan = empirical_cdf_dominance(a, b, seed, n, grid)
        spread = empirical_quantile_spread(a, b, seed, n, alpha, beta, n_boot)
    except GumbelSysError as exc:
        raise _CliError(str(exc)) from exc

    code = EXIT_OK if not scan.contradictions else EXIT_FAILS
    doc = {
        "command": "simulate",
        "config": {
            "system_a": _system_doc(a),
            "system_b": _system_doc(b),
            "n_samples": n,
            "seed": seed,
            "grid_points": grid.count,
            "tail_cutoff": tail_cutoff,
            "alpha": alpha,
            "beta": beta,
            "bootstrap": n_boot,
            "threshold_ses": scan.threshold_ses,
        },
        "cdf_dominance": {
            "contradictions": list(scan.contradictions),
            "points": [
                {"x": float(x), "empirical": e.value, "std_error": e.std_error,
                 "analytic": d}
                for x, e, d in zip(grid.points, scan.estimates, scan.analytic)
            ],
        },
        "quantile_spread": {
            "value": spread.value, "std_error": spread.std_error,
            "n_samples": spread.n_samples,
        },
        "exit_code": code,
    }
    table = (f"cdf dominance: {len(scan.contradictions)} contradictions beyond "
             f"{scan.threshold_ses:g} SEs on {grid.count} points\n"
             f"quantile spread diff ({alpha:g},{beta:g}): {spread.value:.6g} "
             f"+- {spread.std_error:.3g}")
    _emit(doc, table, args.out)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="gumbelsys",
                description="Stochastic-order checks for series/parallel "
                            "Gumbel systems")
    sub = p.add_subparsers(dest="cmd", required=True)

    overrides = {"grid-points": {"type": int}, "tail-cutoff": {"type": float},
                 "tol": {"type": float, "help": "quadrature relative tolerance override"}}

    def common(sp, *names):
        """``--out`` plus the spec overrides that ``sp`` reads."""
        sp.add_argument("--out", default=None,
                        help="write the JSON report here ('-' for stdout)")
        for name in names:
            sp.add_argument(f"--{name}", default=None, **overrides[name])

    sp = sub.add_parser("check", help="run order checks from a spec file")
    sp.add_argument("spec", help="spec file path, or '-' for stdin")
    common(sp, "grid-points", "tail-cutoff", "tol")

    sp = sub.add_parser("scan", help="random property sweep")
    sp.add_argument("--mode", required=True, choices=SCAN_MODES)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--n", type=int, required=True, help="components per system")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sigmas", type=lambda s: [float(t) for t in s.split(",")],
                    default=[1.0])
    sp.add_argument("--mu-low", type=float, default=-3.0)
    sp.add_argument("--mu-high", type=float, default=3.0)
    sp.add_argument("--gap", type=float, default=2.0,
                    help="upper bound of the componentwise location lift")
    sp.add_argument("--spread", type=float, default=1.0,
                    help="majorization transfer size scale")
    sp.add_argument("--p-points", type=int, default=orders.DEFAULT_P_POINTS)
    sp.add_argument("--t-points", type=int, default=orders.DEFAULT_T_POINTS)
    sp.add_argument("--entropy-orders", action="store_true",
                    help="include disp/lu in free-mode audits")
    common(sp, "grid-points", "tail-cutoff", "tol")
    sp.set_defaults(grid_points=orders.DEFAULT_X_POINTS, tail_cutoff=1e-8, tol=1e-10)

    sp = sub.add_parser("entropy", help="entropy report from a spec file")
    sp.add_argument("spec")
    common(sp, "tol")

    sp = sub.add_parser("simulate", help="Monte Carlo cross-validation report")
    sp.add_argument("spec")
    common(sp, "grid-points", "tail-cutoff")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "check":
            return _cmd_check(args)
        if args.cmd == "scan":
            return _cmd_scan(args)
        if args.cmd == "entropy":
            return _cmd_entropy(args)
        if args.cmd == "simulate":
            return _cmd_simulate(args)
        raise _CliError(f"unknown command {args.cmd!r}")
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GumbelSysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
