import json
from pathlib import Path

import numpy as np

from gumbelsys import EntropyValue, QuadratureSpec, SystemModel, Topology
from gumbelsys import entropy as en


def series(mus, sigma=1.0) -> SystemModel:
    return SystemModel(Topology.SERIES, tuple(mus), sigma)


def parallel(mus, sigma=1.0) -> SystemModel:
    return SystemModel(Topology.PARALLEL, tuple(mus), sigma)


def residual_forms(s, t, q: QuadratureSpec = QuadratureSpec()):
    """Both integral forms of the residual entropy at ``t`` as
    :class:`EntropyValue` objects (hazard form first), from
    ``entropy._residual_forms``; a 1-D ``t`` gives one pair per time."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    values, errs, ok = en._residual_forms((s,), ts, [en._log_survival(s, ts)], q)[0]
    pairs = [tuple(EntropyValue(float(v), float(e), bool(c)) for v, e, c in zip(*col))
             for col in zip(values.T, errs.T, ok.T)]
    return pairs[0] if np.ndim(t) == 0 else pairs


def golden_pairs(topology=None) -> list[tuple[SystemModel, SystemModel]]:
    """The pairs of ``golden/verdicts.json``, of one topology when given."""
    rows = json.loads((Path(__file__).parent / "golden" / "verdicts.json").read_text("utf-8"))
    pairs = [tuple(SystemModel(Topology(r[k]["topology"]), tuple(r[k]["mus"]), r[k]["sigma"])
                   for k in ("system_a", "system_b")) for r in rows]
    return [p for p in pairs if topology in (None, p[0].topology)]
