"""Byte-exact CLI reports: every command's JSON report on fixed inputs, the
library verdicts on a seeded pool of pairs beyond the CLI's small n, and the
Shannon and residual entropies of a seeded pool of systems.

A change that moves a verdict or a reported number on purpose rewrites the
goldens with ``PYTHONPATH=src python tests/test_golden.py`` and says which
entries moved.
"""

import sys
from pathlib import Path

import pytest

from gumbelsys import SystemModel, Topology, make_grid, orders
from gumbelsys.entropy import entropy_curve, shannon_entropy
from gumbelsys.cli import _verdict_doc, dumps, main
from gumbelsys.majorization import random_majorization_pair
from gumbelsys.rng import stream

GOLDEN = Path(__file__).parent / "golden"
SCAN_MODES = ("parallel-lr", "parallel-rh", "series-hr", "series-disp-lu", "free")

CASES = {
    "check_series": ["check", "check_series.ini"],
    "check_parallel": ["check", "check_parallel.ini"],
    "entropy": ["entropy", "entropy.ini"],
    "simulate": ["simulate", "simulate.ini"],
    **{f"scan_{mode}": ["scan", "--mode", mode, "--trials", "4", "--n", "3", "--seed", "1"]
       for mode in SCAN_MODES},
    "scan_free_entropy-orders": ["scan", "--mode", "free", "--entropy-orders", "--trials", "4",
                                 "--n", "3", "--seed", "1"],
}


def _argv(name: str) -> list[str]:
    cmd, *rest = CASES[name]
    if cmd != "scan":
        rest = [str(GOLDEN / rest[0])]
    return [cmd, *rest, "--out", "-"]


#: the verdict pool: both topologies, these component counts and scales, and
#: this many pairs per cell; lu runs where n is at most LU_MAX_N
POOL_N, POOL_SIGMAS, POOL_PAIRS, LU_MAX_N = (2, 4, 16, 64), (0.5, 1.0, 2.0), 2, 4


def _verdicts() -> str:
    """lr, hr, rh, st and disp in both directions on the default grids (and lu
    for small n) of every pool pair, as the CLI writes verdicts."""
    rows = []
    for topology in Topology:
        for n in POOL_N:
            for sigma in POOL_SIGMAS:
                for k in range(POOL_PAIRS):
                    g = stream(1, "verdicts", topology.value, n, sigma, k)
                    a, b = (SystemModel(topology, tuple(m), sigma)
                            for m in random_majorization_pair(g, n))
                    grid = make_grid(a, b, orders.DEFAULT_X_POINTS)
                    rels = [r for r in orders.Relation
                            if r is not orders.Relation.LU or n <= LU_MAX_N]
                    verdicts = [orders.check(rel, a, b, d, grid=grid)
                                for d in orders.Direction for rel in rels]
                    rows.append({"system_a": a, "system_b": b,
                                 "verdicts": [_verdict_doc(v) for v in verdicts]})
    return dumps(rows) + "\n"


def test_library_verdicts():
    assert _verdicts() == (GOLDEN / "verdicts.json").read_text(encoding="utf-8")


#: the entropy pool: both topologies, these component counts and scales, and
#: this many systems per cell
ENTROPY_N, ENTROPY_SIGMAS, ENTROPY_SYSTEMS = (1, 2, 4, 16), (0.5, 1.0, 2.0), 2


def _entropies() -> str:
    """Shannon entropy and the 8-point residual curve on ``make_t_grid(s, s, 8)``
    of every entropy pool system, as the CLI writes them."""
    rows = []
    for topology in Topology:
        for n in ENTROPY_N:
            for sigma in ENTROPY_SIGMAS:
                for k in range(ENTROPY_SYSTEMS):
                    g = stream(1, "entropies", topology.value, n, sigma, k)
                    s = SystemModel(topology, tuple(g.uniform(-3.0, 3.0, n)), sigma)
                    ts = orders.make_t_grid(s, s, 8)
                    rows.append({"system": s, "shannon": shannon_entropy(s), "t": list(ts),
                                 "residual": entropy_curve(s, ts)})
    return dumps(rows) + "\n"


def test_library_entropies():
    assert _entropies() == (GOLDEN / "entropies.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, capsys):
    code = main(_argv(name))
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert f'"exit_code": {code}\n' in out


#: the start of each command's stdout table
TABLE_HEAD = {"check": "relation ", "scan": "scan mode=", "entropy": "shannon entropy: ",
              "simulate": "cdf dominance: "}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_file_bytes(name, tmp_path, capsys):
    # --out <file> writes the golden bytes there and leaves stdout the table
    report = tmp_path / "report.json"
    code = main([*_argv(name)[:-1], str(report)])
    assert report.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    assert f'"exit_code": {code}\n'.encode() in report.read_bytes()
    out = capsys.readouterr().out
    assert out.startswith(TABLE_HEAD[CASES[name][0]]) and "{" not in out


if __name__ == "__main__":
    import contextlib
    import io

    for name in sorted(CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(_argv(name))
        (GOLDEN / f"{name}.json").write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {name}.json", file=sys.stderr)
    (GOLDEN / "verdicts.json").write_text(_verdicts(), encoding="utf-8")
    print("wrote verdicts.json", file=sys.stderr)
    (GOLDEN / "entropies.json").write_text(_entropies(), encoding="utf-8")
    print("wrote entropies.json", file=sys.stderr)
