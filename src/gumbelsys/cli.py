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
from .simulate import empirical_cdf_dominance, empirical_quantile_spread, sample_pair
from .systems import (DEFAULT_TAIL_CUTOFF, MAX_COMPONENTS, SystemModel, Topology, make_grid,
                      system_quantiles)

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
    """The member of ``kind``, an enum or a tuple of names, whose value is
    ``text`` (any case)."""
    members = {getattr(m, "value", m): m for m in kind}
    try:
        return members[text.strip().lower()]
    except KeyError:
        raise UsageError(f"{where} must be one of {', '.join(members)}, got {text!r}") from None


def _list(parse, text: str, where: str) -> list:
    """The comma- or space-separated items of ``text``, each read by ``parse``."""
    values = [parse(tok, where) for tok in text.replace(",", " ").split()]
    if not values:
        raise UsageError(f"{where} must be nonempty")
    return values


def _float(text: str, where: str) -> float:
    """``text`` read as a finite number."""
    value = _number(float, text, where)
    if not math.isfinite(value):
        raise UsageError(f"{where} must be finite, got {value}")
    return value


def _inside(high: float, text: str, where: str) -> float:
    """``text`` read as a number in the open interval (0, ``high``)."""
    value = _float(text, where)
    if not 0.0 < value < high:
        raise UsageError(f"{where} must lie in (0, {high:g}), got {value}")
    return value


class _Field(NamedTuple):
    """One spec key: ``parse(text, where)`` reads its text, ``default`` is its
    value when unset (``None``: the key is required), ``low`` bounds it below,
    ``flag`` overrides it and ``help`` describes the flag."""

    parse: Callable
    default: Any = None
    low: int | None = None
    flag: str | None = None
    help: str | None = None


_int = partial(_number, int)
#: a tail probability, a probability, a positive number, a quadrature rel_tol
_cutoff, _prob = partial(_inside, 0.5), partial(_inside, 1.0)
_positive, _tol = partial(_inside, math.inf), partial(_inside, 1e-4)
_TOL_HELP = "quadrature relative tolerance override"

#: the rows of a system section
_SYSTEM = {"topology": _Field(partial(_choice, Topology)), "mus": _Field(_floats),
           "sigma": _Field(_float)}

#: command -> (its system sections, the rows of its own section in the order
#: its report echoes them); a command with no system sections reads no spec
_SPECS = {
    "check": (("system_a", "system_b"), {
        "relations": _Field(partial(_list, partial(_choice, Relation))),
        "direction": _Field(partial(_choice, Direction), Direction.FIRST_SMALLER),
        "grid_points": _Field(_int, orders.DEFAULT_X_POINTS, 33, "--grid-points"),
        "p_points": _Field(_int, orders.DEFAULT_P_POINTS, 33),
        "t_points": _Field(_int, orders.DEFAULT_T_POINTS, 1),
        "tail_cutoff": _Field(_cutoff, DEFAULT_TAIL_CUTOFF, flag="--tail-cutoff"),
        "quad_rel_tol": _Field(_tol, QuadratureSpec.rel_tol, flag="--tol", help=_TOL_HELP)}),
    "scan": ((), {
        "mode": _Field(partial(_choice, SCAN_MODES), flag="--mode",
                       help=f"one of {', '.join(SCAN_MODES)}"),
        "trials": _Field(_int, None, 1, "--trials"),
        "n_components": _Field(_int, flag="--n", help="components per system"),
        "mu_low": _Field(_float, -3.0, flag="--mu-low"),
        "mu_high": _Field(_float, 3.0, flag="--mu-high"),
        "sigmas": _Field(partial(_list, _positive), (1.0,), flag="--sigmas"),
        "spread": _Field(_positive, 1.0, flag="--spread",
                         help="majorization transfer size scale"),
        "gap": _Field(_float, 2.0, 0, "--gap",
                      help="upper bound of the componentwise location lift"),
        "grid_points": _Field(_int, orders.DEFAULT_X_POINTS, 33, "--grid-points"),
        "p_points": _Field(_int, orders.DEFAULT_P_POINTS, 33, "--p-points"),
        "t_points": _Field(_int, orders.DEFAULT_T_POINTS, 1, "--t-points"),
        "tail_cutoff": _Field(_cutoff, DEFAULT_TAIL_CUTOFF, flag="--tail-cutoff"),
        "quad_rel_tol": _Field(_tol, QuadratureSpec.rel_tol, flag="--tol", help=_TOL_HELP),
        "seed": _Field(_int, 0, 0, "--seed")}),
    "entropy": (("system",), {
        "t_values": _Field(_floats, ()),
        "rel_tol": _Field(_tol, QuadratureSpec.rel_tol, flag="--tol", help=_TOL_HELP),
        "abs_tol": _Field(_positive, QuadratureSpec.abs_tol),
        "tail_cutoff": _Field(_cutoff, QuadratureSpec.tail_mass_cutoff),
        "max_subdivisions": _Field(_int, QuadratureSpec.max_subdivisions, 1),
        # make_t_grid's count where t_values is empty; the report echoes its points
        "t_points": _Field(_int, orders.DEFAULT_T_POINTS, 1)}),
    "simulate": (("system_a", "system_b"), {
        "n_samples": _Field(_int, 100_000, 1),
        "seed": _Field(_int, 0, 0),
        "grid_points": _Field(_int, 129, 33, "--grid-points"),
        "tail_cutoff": _Field(_cutoff, DEFAULT_TAIL_CUTOFF, flag="--tail-cutoff"),
        "alpha": _Field(_prob, 0.25),
        "beta": _Field(_prob, 0.75),
        "bootstrap": _Field(_int, 200, 2)}),
}


def _section(cp, section: str, fields: dict, args=None) -> dict:
    """The values of ``[section]`` by its rows ``fields``, in row order.

    Each value is the row's flag when ``args`` gives it, else the spec's,
    else the row's default, and at least the row's ``low``; an error names
    the flag or the spec field it came from.  A key that no row names, an
    unset required row and a missing section with a required row that no
    flag can set are errors.
    """
    if cp.has_section(section):
        for key in cp.options(section):
            if key not in fields and key not in cp.defaults():
                raise UsageError(f"unknown field [{section}] {key}")
    elif any(f.default is None and not f.flag for f in fields.values()):
        raise UsageError(f"missing section [{section}]")
    values = {}
    for key, f in fields.items():
        given = getattr(args, key) if f.flag else None
        where = f"[{section}] {key}" if given is None else f.flag
        text = cp.get(section, key, fallback=None) if given is None else given
        if text is not None:
            values[key] = f.parse(text, where)
        elif f.default is None:
            raise UsageError(f"missing field {where}")
        else:
            values[key] = f.default
        if f.low is not None and values[key] < f.low:
            raise UsageError(f"{where} must be >= {f.low}, got {values[key]}")
    return values


def _read_spec(args) -> dict:
    """The values of the command ``args.cmd``: the systems of its spec file
    ``args.spec`` (``-`` for stdin), then the values of its own section."""
    sections, fields = _SPECS[args.cmd]
    cp = configparser.ConfigParser()
    if sections:
        if args.spec == "-":
            text, origin = sys.stdin.read(), "<stdin>"
        else:
            try:
                with open(args.spec, "r", encoding="utf-8") as fh:
                    text, origin = fh.read(), args.spec
            except (OSError, UnicodeDecodeError) as exc:
                raise UsageError(f"cannot read spec file {args.spec!r}: {exc}") from exc
        try:
            cp.read_string(text, source=origin)
        except configparser.Error as exc:
            raise UsageError(f"malformed spec file: {exc}") from exc
    spec = {}
    for section in sections:
        system = _section(cp, section, _SYSTEM)
        try:
            spec[section] = SystemModel(**system)
        except GumbelSysError as exc:
            raise UsageError(f"[{section}]: {exc}") from exc
    return {**spec, **_section(cp, args.cmd, fields, args)}


def _grids(a, b, relations, cfg: dict):
    """The x, p and t grids of ``cfg``'s point counts for checking
    ``relations`` on ``(a, b)``; the x and t grids only where one of them
    reads it."""
    grid = (make_grid(a, b, cfg["grid_points"], cfg["tail_cutoff"])
            if _ON_X_GRID & set(relations) else None)
    t_grid = orders.make_t_grid(a, b, cfg["t_points"]) if Relation.LU in relations else None
    return grid, orders.make_p_grid(cfg["p_points"]), t_grid


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
    if out and out != "-":
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(dumps(doc) + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write report file {out!r}: {exc}") from exc
    sys.stdout.write((dumps(doc) if out == "-" else table) + "\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(cfg: dict, args) -> tuple[int, dict, str]:
    a, b, relations = cfg["system_a"], cfg["system_b"], cfg["relations"]
    quad = QuadratureSpec(rel_tol=cfg["quad_rel_tol"])
    cfg["quad_abs_tol"] = quad.abs_tol
    grid, p_grid, t_grid = _grids(a, b, relations, cfg)
    verdicts = [orders.check(rel, a, b, cfg["direction"], grid=grid, p_grid=p_grid,
                             t_grid=t_grid, quad=quad) for rel in relations]
    body = {"verdicts": [_verdict_doc(v) for v in verdicts]}
    return _exit_for([v.outcome for v in verdicts]), body, _verdict_table(verdicts)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_trial(k: int, cfg: dict, sigma: float):
    mode, n, lo, hi = cfg["mode"], cfg["n_components"], cfg["mu_low"], cfg["mu_high"]
    g = stream(cfg["seed"], "scan", mode, k)
    if mode == "free":
        topo = Topology.PARALLEL if g.integers(0, 2) else Topology.SERIES
        mus_a, mus_b = g.uniform(lo, hi, n), g.uniform(lo, hi, n)
    else:
        topo = Topology(mode.split("-")[0])
        if mode == "parallel-lr":
            mus_b = g.uniform(lo, hi, n)
            mus_a = mus_b + g.uniform(0.0, cfg["gap"], n)
        else:
            mus_a, mus_b = random_majorization_pair(g, n, cfg["spread"], lo, hi)
    return SystemModel(topo, tuple(mus_a), sigma), SystemModel(topo, tuple(mus_b), sigma)


def _cmd_scan(cfg: dict, args) -> tuple[int, dict, str]:
    mode, trials, sigmas = cfg["mode"], cfg["trials"], cfg["sigmas"]
    n, low = cfg["n_components"], 2 if mode != "parallel-lr" else 1
    if not low <= n <= MAX_COMPONENTS:
        raise UsageError(f"--n must lie in [{low}, {MAX_COMPONENTS}] for --mode {mode}, got {n}")
    lo, hi = cfg["mu_low"], cfg["mu_high"]
    if not lo < hi:
        raise UsageError(f"--mu-low must be below --mu-high, got {lo} and {hi}")
    if not math.isfinite(hi - lo):
        raise UsageError(f"--mu-high - --mu-low must be finite, got {lo} and {hi}")
    if args.entropy_orders and mode != "free":
        raise UsageError(f"--entropy-orders needs --mode free, got --mode {mode}")
    quad = QuadratureSpec(rel_tol=cfg["quad_rel_tol"])
    free = mode == "free"
    relations = ([rel for rel, _ in _SCAN_ROWS[mode]] if not free
                 else list(Relation) if args.entropy_orders else _ON_X_GRID)

    failures, code = [], EXIT_OK
    held_counts: dict[str, int] = {}
    min_margins: dict[str, float] = {}

    for k in range(trials):
        sigma = sigmas[k % len(sigmas)]
        try:
            a, b = _scan_trial(k, cfg, sigma)
            grid, p_grid, t_grid = _grids(a, b, relations, cfg)
            extra: dict = {}
            if free:  # exploration plus internal consistency audit
                audit = orders.implication_audit(a, b, grid, p_grid, t_grid,
                                                 include_entropy_orders=args.entropy_orders,
                                                 quad=quad)
                trial_verdicts = list(audit.verdicts.values())
                trial_code = EXIT_OK if audit.consistent else EXIT_FAILS
                if not audit.consistent:
                    extra["audit_violations"] = list(audit.violations)
            else:
                trial_verdicts = [orders.check(rel, a, b, direction, grid, p_grid, t_grid, quad)
                                  for rel, direction in _SCAN_ROWS[mode]]
                trial_code = _exit_for([v.outcome for v in trial_verdicts])
                if mode == "parallel-rh" and trial_code != EXIT_INCONCLUSIVE:
                    closed = orders.parallel_rh_log_margin(a, b)
                    agree = (closed >= 0.0) == (trial_code == EXIT_OK)
                    extra["closed_form_log_margin"] = closed
                    extra["closed_form_agrees"] = agree
                    trial_code = trial_code if agree else EXIT_FAILS
        except GumbelSysError as exc:  # name the flags the trial was drawn from
            drawn = f"--mu-low {lo}, --mu-high {hi}, --sigmas {sigma}" + (
                "" if free else f", --gap {cfg['gap']}" if mode == "parallel-lr"
                else f", --spread {cfg['spread']}")
            raise UsageError(f"trial {k}, drawn from {drawn}: {exc}") from exc

        for v in trial_verdicts:
            key = f"{v.relation.value}:{v.direction.value}"
            min_margins[key] = min(min_margins.get(key, v.margin), v.margin)
            if free and v.outcome is Outcome.HOLDS:
                held_counts[key] = held_counts.get(key, 0) + 1
        if trial_code != EXIT_OK:  # a FAILS outranks an inconclusive trial
            code = EXIT_FAILS if EXIT_FAILS in (code, trial_code) else trial_code
            failures.append({
                "trial": k,
                "system_a": a,
                "system_b": b,
                "verdicts": [_verdict_doc(v) for v in trial_verdicts],
                **extra,
            })

    passes = trials - len(failures)
    body = {
        "passes": passes,
        "failures": failures,
        "min_margins": dict(sorted(min_margins.items())),
        "held_counts": dict(sorted(held_counts.items())),
    }
    return code, body, f"scan mode={mode} trials={trials} passes={passes} failures={len(failures)}"


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def _cmd_entropy(cfg: dict, args) -> tuple[int, dict, str]:
    s = cfg["system"]
    quad = QuadratureSpec(rel_tol=cfg["rel_tol"], abs_tol=cfg["abs_tol"],
                          tail_mass_cutoff=cfg["tail_cutoff"],
                          max_subdivisions=cfg["max_subdivisions"])
    count = cfg.pop("t_points")  # never echoed, so popped whether or not it is read
    ts = cfg["t_values"] or list(orders.make_t_grid(s, s, count))
    cfg["t_values"] = list(map(float, ts))

    total = shannon_entropy(s, quad)
    curve = entropy_curve(s, ts, quad)

    all_ok = total.converged and all(e.converged for e in curve)
    body = {
        "shannon": {"value": total.value, "error_estimate": total.error_estimate,
                    "converged": total.converged},
        "residual": [
            {"t": float(t), "value": e.value, "error_estimate": e.error_estimate,
             "converged": e.converged}
            for t, e in zip(ts, curve)
        ],
    }
    lines = [f"shannon entropy: {total.value:.12g} "
             f"(err {total.error_estimate:.3g}, converged={total.converged})"]
    for t, e in zip(ts, curve):
        lines.append(f"t={float(t):> 12.6g}  value={e.value:.12g}  "
                     f"err={e.error_estimate:.3g}  converged={e.converged}")
    return EXIT_OK if all_ok else EXIT_INCONCLUSIVE, body, "\n".join(lines)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg: dict, args) -> tuple[int, dict, str]:
    a, b, n, seed, alpha, beta = (cfg[k] for k in ("system_a", "system_b", "n_samples", "seed",
                                                   "alpha", "beta"))
    if not alpha < beta:
        raise UsageError(f"[simulate] alpha must be below beta, got {alpha} and {beta}")
    grid = make_grid(a, b, cfg["grid_points"], cfg["tail_cutoff"])
    xa, xb = sample_pair(a, b, seed, n)
    scan = empirical_cdf_dominance(a, b, xa, xb, grid)
    spread = empirical_quantile_spread(xa, xb, seed, alpha, beta, cfg["bootstrap"])
    qa, qb = (system_quantiles(s, np.array([alpha, beta])) for s in (a, b))
    analytic = float((qb[1] - qb[0]) - (qa[1] - qa[0]))
    contradicts = abs(spread.value - analytic) > scan.threshold_ses * spread.std_error
    cfg["threshold_ses"] = scan.threshold_ses
    body = {
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
    }
    table = (f"cdf dominance: {len(scan.contradictions)} contradictions beyond "
             f"{scan.threshold_ses:g} SEs on {grid.size} points\n"
             f"quantile spread diff ({alpha:g},{beta:g}): {spread.value:.6g} "
             f"+- {spread.std_error:.3g} (analytic {analytic:.6g}"
             f"{', contradicted' if contradicts else ''})")
    return EXIT_OK if not scan.contradictions else EXIT_FAILS, body, table


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
    for name, run, about in (("check", _cmd_check, "run order checks from a spec file"),
                             ("scan", _cmd_scan, "random property sweep"),
                             ("entropy", _cmd_entropy, "entropy report from a spec file"),
                             ("simulate", _cmd_simulate, "Monte Carlo cross-validation report")):
        sp = sub.add_parser(name, help=about)
        sp.set_defaults(run=run)
        sections, fields = _SPECS[name]
        if sections:
            sp.add_argument("spec", help="spec file path, or '-' for stdin")
        for key, f in fields.items():
            if f.flag:
                sp.add_argument(f.flag, dest=key, required=f.default is None, help=f.help)
    sub.choices["scan"].add_argument("--entropy-orders", action="store_true",
                                     help="include disp/lu in free-mode audits")
    for sp in sub.choices.values():
        sp.add_argument("--out", default=None,
                        help="write the JSON report here ('-' for stdout)")
    return p


def main(argv=None) -> int:
    """Run one command: it returns its exit code, report body and table, and its
    report is ``command``, ``config``, the body's keys, then ``exit_code``."""
    try:
        args = _build_parser().parse_args(argv)
        cfg = _read_spec(args)
        code, body, table = args.run(cfg, args)
        _emit({"command": args.cmd, "config": cfg, **body, "exit_code": code}, table, args.out)
        return code
    except GumbelSysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
