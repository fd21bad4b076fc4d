"""Outside-in span tracer for the gumbelsys benchmark.

The tracer wraps the package's public functions without editing the package:
each wrapper is installed at every place a caller looks the name up, which
is not only the defining module.  ``orders._CHECKS`` holds direct references
to the check functions, ``orders`` imports ``residual_entropy`` by name,
``cli`` and ``simulate`` import several functions by name, and the
``LawOps`` lambdas look ``systems.system_*`` up at call time.  The install
step replaces every module attribute (and every value of a module-level
dict) that is the target function object, then verifies that each site in
:data:`REQUIRED_SITES` was among them.  A target or site that has
disappeared is reported in :attr:`Tracer.missing`, never silently read as
zero work.

Each span records its name, start, end, parent and the id of the operation
(one benchmark pair or command) that caused it.  Spans are kept in memory
and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> (defining module, function names)
TARGETS = {
    "majorization.pair": ("gumbelsys.majorization", ("random_majorization_pair",)),
    "rng.stream": ("gumbelsys.rng", ("stream",)),
    "systems.kernel": ("gumbelsys.systems", (
        "system_cdf", "system_pdf", "system_survival", "system_hazard",
        "system_reversed_hazard", "system_log_cdf", "system_log_pdf",
        "system_log_survival")),
    "systems.quantiles": ("gumbelsys.systems", ("system_quantiles",)),
    "systems.grid": ("gumbelsys.systems", ("make_grid",)),
    "orders.lr": ("gumbelsys.orders", ("check_lr",)),
    "orders.hr": ("gumbelsys.orders", ("check_hr",)),
    "orders.rh": ("gumbelsys.orders", ("check_rh",)),
    "orders.st": ("gumbelsys.orders", ("check_st",)),
    "orders.disp": ("gumbelsys.orders", ("check_disp",)),
    "orders.lu": ("gumbelsys.orders", ("check_lu",)),
    "orders.t_grid": ("gumbelsys.orders", ("make_t_grid",)),
    "orders.audit": ("gumbelsys.orders", ("implication_audit",)),
    "entropy.residual": ("gumbelsys.entropy", ("residual_entropy",)),
    "entropy.shannon": ("gumbelsys.entropy", ("shannon_entropy",)),
    "entropy.curve": ("gumbelsys.entropy", ("entropy_curve",)),
    "simulate.sample": ("gumbelsys.simulate", ("sample_system",)),
    "simulate.cdf_dominance": ("gumbelsys.simulate", ("empirical_cdf_dominance",)),
    "simulate.quantile_spread": ("gumbelsys.simulate", ("empirical_quantile_spread",)),
}

# Sites where a caller looks a traced name up other than through the
# defining module; patching the defining module alone would miss each one.
REQUIRED_SITES = (
    "gumbelsys.orders._CHECKS[lr]",
    "gumbelsys.orders._CHECKS[hr]",
    "gumbelsys.orders._CHECKS[rh]",
    "gumbelsys.orders._CHECKS[st]",
    "gumbelsys.orders.residual_entropy",
    "gumbelsys.cli.make_grid",
    "gumbelsys.cli.shannon_entropy",
    "gumbelsys.cli.entropy_curve",
    "gumbelsys.cli.empirical_cdf_dominance",
    "gumbelsys.cli.empirical_quantile_spread",
    "gumbelsys.cli.random_majorization_pair",
    "gumbelsys.cli.stream",
    "gumbelsys.simulate.system_cdf",
    "gumbelsys.simulate.stream",
)

ROOT = "op"


def _topology(args) -> str:
    topo = getattr(args[0], "topology", None) if args else None
    return getattr(topo, "value", "other")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _kernel_info(args, kwargs, result):
    return {"topology": _topology(args), "points": int(np.size(_arg(args, kwargs, 1, "x")))}


def _quantiles_info(args, kwargs, result):
    return {"topology": _topology(args), "probs": int(np.size(_arg(args, kwargs, 1, "probs")))}


def _verdict_info(args, kwargs, result):
    return {"inconclusive": int(result.outcome.value == "inconclusive")}


def _entropy_info(args, kwargs, result):
    values = result if isinstance(result, list) else [result]
    return {"values": len(values), "converged": sum(bool(v.converged) for v in values)}


def _sample_info(args, kwargs, result):
    draws = int(args[0].n) * int(_arg(args, kwargs, 2, "n"))
    return {"draws": draws, "bytes": 8 * draws}  # float64 component-draw matrix


INFO = {
    "systems.kernel": _kernel_info,
    "systems.quantiles": _quantiles_info,
    "orders.lr": _verdict_info, "orders.hr": _verdict_info, "orders.rh": _verdict_info,
    "orders.st": _verdict_info, "orders.disp": _verdict_info, "orders.lu": _verdict_info,
    "entropy.residual": _entropy_info, "entropy.shannon": _entropy_info,
    "entropy.curve": _entropy_info,
    "simulate.sample": _sample_info,
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op_id, outer, attrs]
        self.child_time: list[float] = []
        self.op_id = None
        self.missing: list[str] = []
        self.sites: list[str] = []
        self._stack: list[int] = [-1]
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        outer = self._depth[name] == 0
        self._depth[name] += 1
        self.spans.append([name, perf_counter(), None, self._stack[-1], self.op_id, outer, None])
        self.child_time.append(0.0)
        self._stack.append(idx)
        return idx

    def _leave(self, idx: int, attrs=None) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        span[6] = attrs
        self._stack.pop()
        self._depth[span[0]] -= 1
        if span[3] >= 0:
            self.child_time[span[3]] += end - span[1]

    def span(self, name: str, op_id=None):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, op_id)

    def op(self, op_id):
        """Root span of one benchmark operation."""
        return _Span(self, ROOT, op_id)

    def _wrap(self, name: str, fn):
        info = INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    attrs = info(args, kwargs, result)
                return result
            finally:
                tracer._leave(idx, attrs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every site in the loaded gumbelsys modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "gumbelsys" or name.startswith("gumbelsys.")}
        for name, (mod_name, fn_names) in TARGETS.items():
            home = modules.get(mod_name)
            for fn_name in fn_names:
                fn = getattr(home, fn_name, None)
                if not callable(fn):
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(name, fn)
                for mname, mod in modules.items():
                    self._replace_in(mname, vars(mod), fn, wrapper)
        for site in REQUIRED_SITES:
            if site not in self.sites:
                self.missing.append(site)

    def _replace_in(self, mname: str, namespace: dict, fn, wrapper) -> None:
        for attr, value in list(namespace.items()):
            if value is fn:
                self._undo.append((namespace, attr, fn))
                namespace[attr] = wrapper
                self.sites.append(f"{mname}.{attr}")
            elif type(value) is dict and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if item is fn:
                        self._undo.append((value, key, fn))
                        value[key] = wrapper
                        self.sites.append(f"{mname}.{attr}[{getattr(key, 'value', key)}]")

    def uninstall(self) -> None:
        for container, key, fn in reversed(self._undo):
            container[key] = fn
        self._undo.clear()

    # -- output -----------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line (times in seconds from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op_id, _, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "op": op_id,
                                     **(attrs or {})}) + "\n")

    def summary(self, op_filter=None) -> dict:
        """Per-name calls, busy and self time plus the attribute counters.

        ``calls`` and ``busy_s`` count only outermost spans of a name, so a
        kernel that calls another kernel is one call; ``self_s`` sums every
        span's duration minus the part its child spans cover.
        """
        out: dict = defaultdict(lambda: defaultdict(int))
        for idx, (name, start, end, _, op_id, outer, attrs) in enumerate(self.spans):
            if op_filter is not None and not op_filter(op_id):
                continue
            dur = end - start
            row = out[name]
            row["self_s"] += dur - self.child_time[idx]
            topo = (attrs or {}).get("topology")
            if topo is not None:
                row[f"self_s.{topo}"] += dur - self.child_time[idx]
            if outer:
                row["calls"] += 1
                row["busy_s"] += dur
                for key, val in (attrs or {}).items():
                    if key != "topology":
                        row[key] += val
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str, op_id) -> None:
        self.tracer, self.name, self.op_id = tracer, name, op_id

    def __enter__(self):
        if self.op_id is not None:
            self.tracer.op_id = self.op_id
        self.idx = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._leave(self.idx)
        return False
