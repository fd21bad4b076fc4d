"""Command-line front end: run order checks, property sweeps, entropy and
Monte Carlo reports from flat INI spec files.

Exit codes: 0 all requested checks hold, 1 any check fails, 2 any check is
inconclusive (or any quadrature fails to converge), 64 on any package error
(:class:`GumbelSysError`): malformed input, an invalid value, misuse.
Reports embed the fully resolved configuration and are byte-stable:
identical inputs and seed produce identical bytes.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys

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

#: scan mode -> the (relation, direction) rows every trial must hold; free audits instead
_SCAN_ROWS = {
    "parallel-lr": ((Relation.LR, Direction.FIRST_GREATER),),
    "parallel-rh": ((Relation.RH, Direction.FIRST_GREATER),),
    "series-hr": ((Relation.HR, Direction.FIRST_SMALLER),),
    "series-disp-lu": ((Relation.DISP, Direction.FIRST_SMALLER),
                       (Relation.LU, Direction.FIRST_SMALLER)),
}
SCAN_MODES = (*_SCAN_ROWS, "free")

#: the relations that read the x grid; the others need none
_ON_X_GRID = {Relation.LR, Relation.HR, Relation.RH, Relation.ST}

#: the keys each command reads, by spec section
_SYSTEM_KEYS = ("topology", "mus", "sigma")
_SPEC_KEYS = {
    "check": {"system_a": _SYSTEM_KEYS, "system_b": _SYSTEM_KEYS,
              # seed is accepted and ignored: check draws nothing at random
              "check": ("relations", "direction", "grid_points", "p_points", "t_points",
                        "tail_cutoff", "quad_rel_tol", "seed")},
    "entropy": {"system": _SYSTEM_KEYS,
                "entropy": ("rel_tol", "abs_tol", "tail_cutoff", "max_subdivisions",
                            "t_values", "t_points", "t_lo_prob", "t_hi_prob")},
    "simulate": {"system_a": _SYSTEM_KEYS, "system_b": _SYSTEM_KEYS,
                 "simulate": ("n_samples", "seed", "grid_points", "tail_cutoff", "alpha",
                              "beta", "bootstrap")},
}


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

def _read_spec(path: str, command: str) -> configparser.ConfigParser:
    """The spec file at ``path`` (``-`` for stdin); a key that ``command``
    never reads, in a section it reads, is an error."""
    if path == "-":
        text = sys.stdin.read()
        origin = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read spec file {path!r}: {exc}") from exc
        origin = path
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise UsageError(f"malformed spec file: {exc}") from exc
    for section, keys in _SPEC_KEYS[command].items():
        if cp.has_section(section):
            for key in cp.options(section):
                if key not in keys and key not in cp.defaults():
                    raise UsageError(f"unknown field [{section}] {key}")
    return cp


def _floats(text: str, where: str) -> list[float]:
    try:
        return [float(t) for t in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"{where}: expected numbers, got {text!r}") from exc


def _get(cp, section: str, key: str) -> str:
    """The required spec field ``[section] key``."""
    if not cp.has_option(section, key):
        raise UsageError(f"missing field [{section}] {key}")
    return cp.get(section, key)


def _field(cp, section: str, key: str, default, parse=float, override=None,
           low=-math.inf):
    """``override`` when given, else the spec's ``[section] key`` read by
    ``parse`` (``int`` or ``float``) and at least ``low``, else ``default``."""
    if override is not None:
        return override
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        value = parse(raw)
    except ValueError:
        what = "an integer" if parse is int else "a number"
        raise UsageError(f"[{section}] {key}: expected {what}, got {raw!r}") from None
    if value < low:
        raise UsageError(f"[{section}] {key} must be >= {low}, got {value}")
    return value


def _choice(kind, text: str, where: str):
    """The member of the enum ``kind`` whose value is ``text`` (any case)."""
    try:
        return kind(text.strip().lower())
    except ValueError:
        names = ", ".join(m.value for m in kind)
        raise UsageError(f"{where} must be one of {names}, got {text!r}") from None


def _parse_system(cp, section: str) -> SystemModel:
    if not cp.has_section(section):
        raise UsageError(f"missing section [{section}]")
    topo = _choice(Topology, _get(cp, section, "topology"), f"[{section}] topology")
    mus = _floats(_get(cp, section, "mus"), f"[{section}] mus")
    sigma_text = _get(cp, section, "sigma")
    try:
        return SystemModel(topo, tuple(mus), float(sigma_text))
    except (GumbelSysError, ValueError) as exc:
        raise UsageError(f"[{section}]: {exc}") from exc


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
    cp = _read_spec(args.spec, "check")
    a = _parse_system(cp, "system_a")
    b = _parse_system(cp, "system_b")
    sec = "check"
    if not cp.has_section(sec):
        raise UsageError(f"missing section [{sec}]")
    relations = [_choice(Relation, tok, f"[{sec}] relations")
                 for tok in _get(cp, sec, "relations").replace(",", " ").split()]
    if not relations:
        raise UsageError(f"[{sec}] relations must be nonempty")
    direction = _choice(Direction, cp.get(sec, "direction", fallback="first_smaller"),
                        f"[{sec}] direction")
    grid_points = _field(cp, sec, "grid_points", orders.DEFAULT_X_POINTS, int,
                         args.grid_points, low=33)
    p_points = _field(cp, sec, "p_points", orders.DEFAULT_P_POINTS, int, low=33)
    t_points = _field(cp, sec, "t_points", orders.DEFAULT_T_POINTS, int, low=1)
    tail_cutoff = _field(cp, sec, "tail_cutoff", 1e-8, override=args.tail_cutoff)
    quad = QuadratureSpec(rel_tol=_field(cp, sec, "quad_rel_tol", 1e-10, override=args.tol))

    grid = make_grid(a, b, grid_points, tail_cutoff) if _ON_X_GRID & set(relations) else None
    p_grid = orders.make_p_grid(p_points)
    t_grid = orders.make_t_grid(a, b, t_points) if Relation.LU in relations else None
    verdicts = [orders.check(rel, a, b, direction, grid=grid, p_grid=p_grid,
                             t_grid=t_grid, quad=quad) for rel in relations]

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
    n, lo, hi = args.n, args.mu_low, args.mu_high
    if mode == "free":
        topo = Topology.PARALLEL if g.integers(0, 2) else Topology.SERIES
        mus_a, mus_b = g.uniform(lo, hi, n), g.uniform(lo, hi, n)
    else:
        topo = Topology(mode.split("-")[0])
        if mode == "parallel-lr":
            mus_b = g.uniform(lo, hi, n)
            mus_a = mus_b + g.uniform(0.0, args.gap, n)
        else:
            mus_a, mus_b = random_majorization_pair(g, n, args.spread, lo, hi)
    return SystemModel(topo, tuple(mus_a), sigma), SystemModel(topo, tuple(mus_b), sigma)


def _cmd_scan(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.n < (2 if args.mode != "parallel-lr" else 1):
        raise UsageError("--n is too small for this mode")
    if args.p_points < 33:
        raise UsageError(f"--p-points must be >= 33, got {args.p_points}")
    if args.t_points < 1:
        raise UsageError(f"--t-points must be >= 1, got {args.t_points}")
    if args.entropy_orders and args.mode != "free":
        raise UsageError(f"--entropy-orders needs --mode free, got --mode {args.mode}")
    quad = QuadratureSpec(rel_tol=args.tol)
    p_grid = orders.make_p_grid(args.p_points)

    failures = []
    held_counts: dict[str, int] = {}
    min_margins: dict[str, float] = {}

    for k in range(args.trials):
        sigma = args.sigmas[k % len(args.sigmas)]
        a, b = _scan_trial(args.mode, k, args, sigma)
        free = args.mode == "free"
        rels = {rel for rel, _ in _SCAN_ROWS.get(args.mode, ())}
        grid = (make_grid(a, b, args.grid_points, args.tail_cutoff)
                if free or _ON_X_GRID & rels else None)
        t_grid = (orders.make_t_grid(a, b, args.t_points)
                  if Relation.LU in rels or args.entropy_orders else None)
        extra: dict = {}

        if free:  # exploration plus internal consistency audit
            audit = orders.implication_audit(a, b, grid, p_grid, t_grid,
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
        else:
            trial_verdicts = [orders.check(rel, a, b, direction, grid, p_grid, t_grid, quad)
                              for rel, direction in _SCAN_ROWS[args.mode]]
            trial_ok = all(v.holds for v in trial_verdicts)
            if args.mode == "parallel-rh":
                closed = orders.parallel_rh_log_margin(a, b)
                agree = (closed >= 0.0) == trial_ok
                extra["closed_form_log_margin"] = closed
                extra["closed_form_agrees"] = agree
                trial_ok = trial_ok and agree

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
            "sigmas": list(args.sigmas),
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
    cp = _read_spec(args.spec, "entropy")
    s = _parse_system(cp, "system")
    sec = "entropy"
    quad = QuadratureSpec(rel_tol=_field(cp, sec, "rel_tol", 1e-10, override=args.tol),
                          abs_tol=_field(cp, sec, "abs_tol", 1e-13),
                          tail_mass_cutoff=_field(cp, sec, "tail_cutoff", 1e-12),
                          max_subdivisions=_field(cp, sec, "max_subdivisions", 2000, int))

    raw_ts = cp.get(sec, "t_values", fallback=None)
    if raw_ts:
        ts = _floats(raw_ts, f"[{sec}] t_values")
    else:
        count = _field(cp, sec, "t_points", orders.DEFAULT_T_POINTS, int, low=1)
        probs = [_field(cp, sec, "t_lo_prob", 0.001), _field(cp, sec, "t_hi_prob", 0.999)]
        ts = list(np.linspace(*system_quantiles(s, probs), count))

    total = shannon_entropy(s, quad)
    curve = entropy_curve(s, ts, quad)

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
    cp = _read_spec(args.spec, "simulate")
    a = _parse_system(cp, "system_a")
    b = _parse_system(cp, "system_b")
    sec = "simulate"
    n = _field(cp, sec, "n_samples", 100_000, int, low=1)
    seed = _field(cp, sec, "seed", 0, int)
    grid_points = _field(cp, sec, "grid_points", 129, int, args.grid_points, low=33)
    tail_cutoff = _field(cp, sec, "tail_cutoff", 1e-8, override=args.tail_cutoff)
    alpha = _field(cp, sec, "alpha", 0.25)
    beta = _field(cp, sec, "beta", 0.75)
    n_boot = _field(cp, sec, "bootstrap", 200, int, low=2)

    grid = make_grid(a, b, grid_points, tail_cutoff)
    scan = empirical_cdf_dominance(a, b, seed, n, grid)
    spread = empirical_quantile_spread(a, b, seed, n, alpha, beta, n_boot)
    qa, qb = (system_quantiles(s, np.array([alpha, beta])) for s in (a, b))
    analytic = float((qb[1] - qb[0]) - (qa[1] - qa[0]))
    contradicts = abs(spread.value - analytic) > scan.threshold_ses * spread.std_error

    code = EXIT_OK if not scan.contradictions else EXIT_FAILS
    doc = {
        "command": "simulate",
        "config": {
            "system_a": _system_doc(a),
            "system_b": _system_doc(b),
            "n_samples": n,
            "seed": seed,
            "grid_points": grid.size,
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
                for x, e, d in zip(grid, scan.estimates, scan.analytic)
            ],
        },
        "quantile_spread": {
            "value": spread.value, "std_error": spread.std_error,
            "n_samples": spread.n_samples, "analytic": analytic,
            "contradicts": contradicts,
        },
        "exit_code": code,
    }
    table = (f"cdf dominance: {len(scan.contradictions)} contradictions beyond "
             f"{scan.threshold_ses:g} SEs on {grid.size} points\n"
             f"quantile spread diff ({alpha:g},{beta:g}): {spread.value:.6g} "
             f"+- {spread.std_error:.3g} (analytic {analytic:.6g}"
             f"{', contradicted' if contradicts else ''})")
    _emit(doc, table, args.out)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


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
    sp.set_defaults(run=_cmd_check)
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
    sp.set_defaults(run=_cmd_scan, grid_points=orders.DEFAULT_X_POINTS, tail_cutoff=1e-8,
                    tol=1e-10)

    sp = sub.add_parser("entropy", help="entropy report from a spec file")
    sp.set_defaults(run=_cmd_entropy)
    sp.add_argument("spec")
    common(sp, "tol")

    sp = sub.add_parser("simulate", help="Monte Carlo cross-validation report")
    sp.set_defaults(run=_cmd_simulate)
    sp.add_argument("spec")
    common(sp, "grid-points", "tail-cutoff")
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except GumbelSysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
