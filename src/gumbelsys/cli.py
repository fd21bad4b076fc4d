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
import dataclasses
import enum
import math
import sys
from functools import partial
from typing import Any, Callable, NamedTuple

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

# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _dump_scalar(x) -> str:
    if isinstance(x, enum.Enum):
        x = x.value
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
    if dataclasses.is_dataclass(obj):  # a SystemModel, by its fields
        obj = dataclasses.asdict(obj)
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

def _number(kind, text: str, where: str):
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"{where}: expected {what}, got {text!r}") from None


def _floats(text: str, where: str) -> list[float]:
    try:
        return [float(t) for t in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"{where}: expected numbers, got {text!r}") from exc


def _choice(kind, text: str, where: str):
    """The member of the enum ``kind`` whose value is ``text`` (any case)."""
    try:
        return kind(text.strip().lower())
    except ValueError:
        names = ", ".join(m.value for m in kind)
        raise UsageError(f"{where} must be one of {names}, got {text!r}") from None


def _relations(text: str, where: str) -> list[Relation]:
    relations = [_choice(Relation, tok, where) for tok in text.replace(",", " ").split()]
    if not relations:
        raise UsageError(f"{where} must be nonempty")
    return relations


def _at_least(value, low, where: str) -> None:
    if value < low:
        raise UsageError(f"{where} must be >= {low}, got {value}")


class _Field(NamedTuple):
    """One spec key: ``parse(text, where)`` reads its text (``None``: the key
    is accepted and ignored), ``default`` is its value when unset (``None``:
    the key is required), ``low`` bounds it below and ``flag`` overrides it."""

    parse: Callable | None
    default: Any = None
    low: int | None = None
    flag: str | None = None


_int, _float = partial(_number, int), partial(_number, float)


def _tail(value: float, where: str) -> float:
    """``value``, a tail probability of the x grid, if it lies in (0, 0.5)."""
    if not 0.0 < value < 0.5:
        raise UsageError(f"{where} must lie in (0, 0.5), got {value}")
    return value


def _cutoff(text: str, where: str) -> float:
    return _tail(_float(text, where), where)


#: the rows of a system section
_SYSTEM = {"topology": _Field(partial(_choice, Topology)), "mus": _Field(_floats),
           "sigma": _Field(_float)}

#: spec command -> (its system sections, the rows of its own section in the
#: order its report echoes them)
_SPECS = {
    "check": (("system_a", "system_b"), {
        "relations": _Field(_relations),
        "direction": _Field(partial(_choice, Direction), Direction.FIRST_SMALLER),
        "grid_points": _Field(_int, orders.DEFAULT_X_POINTS, 33, "--grid-points"),
        "p_points": _Field(_int, orders.DEFAULT_P_POINTS, 33),
        "t_points": _Field(_int, orders.DEFAULT_T_POINTS, 1),
        "tail_cutoff": _Field(_cutoff, 1e-8, flag="--tail-cutoff"),
        "quad_rel_tol": _Field(_float, 1e-10, flag="--tol"),
        "seed": _Field(None)}),  # check draws nothing at random
    "entropy": (("system",), {
        "t_values": _Field(_floats, ()),
        "rel_tol": _Field(_float, 1e-10, flag="--tol"),
        "abs_tol": _Field(_float, 1e-13),
        "tail_cutoff": _Field(_float, 1e-12),
        "max_subdivisions": _Field(_int, 2000),
        # the t grid where t_values is empty; the report echoes its points
        "t_points": _Field(_int, orders.DEFAULT_T_POINTS, 1),
        "t_lo_prob": _Field(_float, 0.001),
        "t_hi_prob": _Field(_float, 0.999)}),
    "simulate": (("system_a", "system_b"), {
        "n_samples": _Field(_int, 100_000, 1),
        "seed": _Field(_int, 0),
        "grid_points": _Field(_int, 129, 33, "--grid-points"),
        "tail_cutoff": _Field(_cutoff, 1e-8, flag="--tail-cutoff"),
        "alpha": _Field(_float, 0.25),
        "beta": _Field(_float, 0.75),
        "bootstrap": _Field(_int, 200, 2)}),
}


def _section(cp, section: str, fields: dict, args=None) -> dict:
    """The values of ``[section]`` by its rows ``fields``, in row order.

    Each value is the row's flag when ``args`` gives it, else the spec's,
    else the row's default, and at least the row's ``low``; an error names
    the flag or the spec field it came from.  A key that no row names, an
    unset required row and a missing section with a required row are errors.
    """
    if cp.has_section(section):
        for key in cp.options(section):
            if key not in fields and key not in cp.defaults():
                raise UsageError(f"unknown field [{section}] {key}")
    elif any(f.parse and f.default is None for f in fields.values()):
        raise UsageError(f"missing section [{section}]")
    values = {}
    for key, f in fields.items():
        if f.parse is None:
            continue
        given = getattr(args, key) if f.flag else None
        where = f"[{section}] {key}" if given is None else f.flag
        text = cp.get(section, key, fallback=None) if given is None else given
        if text is not None:
            values[key] = f.parse(text, where)
        elif f.default is None:
            raise UsageError(f"missing field {where}")
        else:
            values[key] = f.default
        if f.low is not None:
            _at_least(values[key], f.low, where)
    return values


def _read_spec(args) -> dict:
    """The spec file ``args.spec`` (``-`` for stdin) of the command
    ``args.cmd``: its systems, then the values of its own section."""
    if args.spec == "-":
        text, origin = sys.stdin.read(), "<stdin>"
    else:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read spec file {args.spec!r}: {exc}") from exc
        origin = args.spec
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise UsageError(f"malformed spec file: {exc}") from exc
    sections, fields = _SPECS[args.cmd]
    spec = {}
    for section in sections:
        system = _section(cp, section, _SYSTEM)
        try:
            spec[section] = SystemModel(**system)
        except GumbelSysError as exc:
            raise UsageError(f"[{section}]: {exc}") from exc
    return {**spec, **_section(cp, args.cmd, fields, args)}


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
    cfg = _read_spec(args)
    a, b, relations = cfg["system_a"], cfg["system_b"], cfg["relations"]
    quad = QuadratureSpec(rel_tol=cfg["quad_rel_tol"])
    grid = (make_grid(a, b, cfg["grid_points"], cfg["tail_cutoff"])
            if _ON_X_GRID & set(relations) else None)
    p_grid = orders.make_p_grid(cfg["p_points"])
    t_grid = orders.make_t_grid(a, b, cfg["t_points"]) if Relation.LU in relations else None
    verdicts = [orders.check(rel, a, b, cfg["direction"], grid=grid, p_grid=p_grid,
                             t_grid=t_grid, quad=quad) for rel in relations]

    code = _exit_for([v.outcome for v in verdicts])
    doc = {
        "command": "check",
        "config": {**cfg, "quad_abs_tol": quad.abs_tol},
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
    _at_least(args.grid_points, 33, "--grid-points")
    _at_least(args.p_points, 33, "--p-points")
    _at_least(args.t_points, 1, "--t-points")
    _tail(args.tail_cutoff, "--tail-cutoff")
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
                "system_a": a,
                "system_b": b,
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
    cfg = _read_spec(args)
    s = cfg["system"]
    quad = QuadratureSpec(rel_tol=cfg["rel_tol"], abs_tol=cfg["abs_tol"],
                          tail_mass_cutoff=cfg["tail_cutoff"],
                          max_subdivisions=cfg["max_subdivisions"])
    count, probs = cfg.pop("t_points"), [cfg.pop("t_lo_prob"), cfg.pop("t_hi_prob")]
    ts = cfg["t_values"] or list(np.linspace(*system_quantiles(s, probs), count))
    cfg["t_values"] = list(map(float, ts))

    total = shannon_entropy(s, quad)
    curve = entropy_curve(s, ts, quad)

    all_ok = total.converged and all(e.converged for e in curve)
    code = EXIT_OK if all_ok else EXIT_INCONCLUSIVE
    doc = {
        "command": "entropy",
        "config": cfg,
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
    cfg = _read_spec(args)
    a, b, n, seed, alpha, beta = (cfg[k] for k in ("system_a", "system_b", "n_samples", "seed",
                                                   "alpha", "beta"))
    grid = make_grid(a, b, cfg["grid_points"], cfg["tail_cutoff"])
    scan = empirical_cdf_dominance(a, b, seed, n, grid)
    spread = empirical_quantile_spread(a, b, seed, n, alpha, beta, cfg["bootstrap"])
    qa, qb = (system_quantiles(s, np.array([alpha, beta])) for s in (a, b))
    analytic = float((qb[1] - qb[0]) - (qa[1] - qa[0]))
    contradicts = abs(spread.value - analytic) > scan.threshold_ses * spread.std_error

    code = EXIT_OK if not scan.contradictions else EXIT_FAILS
    doc = {
        "command": "simulate",
        "config": {**cfg, "threshold_ses": scan.threshold_ses},
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
    tol_help = "quadrature relative tolerance override"

    def spec_command(name, run, about):
        """A command that reads a spec file, with its rows' override flags."""
        sp = sub.add_parser(name, help=about)
        sp.set_defaults(run=run)
        sp.add_argument("spec", help="spec file path, or '-' for stdin")
        for key, f in _SPECS[name][1].items():
            if f.flag:
                sp.add_argument(f.flag, dest=key, help=tol_help if f.flag == "--tol" else None)

    spec_command("check", _cmd_check, "run order checks from a spec file")

    sp = sub.add_parser("scan", help="random property sweep")
    sp.set_defaults(run=_cmd_scan)
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
    sp.add_argument("--grid-points", type=int, default=orders.DEFAULT_X_POINTS)
    sp.add_argument("--p-points", type=int, default=orders.DEFAULT_P_POINTS)
    sp.add_argument("--t-points", type=int, default=orders.DEFAULT_T_POINTS)
    sp.add_argument("--tail-cutoff", type=float, default=1e-8)
    sp.add_argument("--tol", type=float, default=1e-10, help=tol_help)
    sp.add_argument("--entropy-orders", action="store_true",
                    help="include disp/lu in free-mode audits")

    spec_command("entropy", _cmd_entropy, "entropy report from a spec file")
    spec_command("simulate", _cmd_simulate, "Monte Carlo cross-validation report")
    for sp in sub.choices.values():
        sp.add_argument("--out", default=None,
                        help="write the JSON report here ('-' for stdout)")
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
