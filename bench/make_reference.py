"""Record the expected output of every pool input into reference.json.

Run from the repository root, with the commit whose outputs are the
reference checked out:

    PYTHONPATH=src python3 bench/make_reference.py

It takes a few minutes.  The benchmark compares every operation against this
file: a verdict outcome or witness that changes, a CLI exit code or report
field that changes, or a value (entropy, margin, Monte Carlo estimate) that
moves by more than ``workloads.VALUE_TOL * max(1, |reference|)`` counts as a
failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy
import scipy

import gumbelsys.cli

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def pair_reference(workload: str, op, summary) -> dict:
    spec = wl.WORKLOADS[workload]
    out = {}
    for topology, n in dict.fromkeys(spec["schedule"]):
        for sigma in wl.SIGMAS:
            for k in range(spec["pool"]):
                a, b = wl.make_pair(workload, topology, n, sigma, k)
                out[wl.pair_key(topology, n, sigma, k)] = summary(op(a, b))
        print(f"{workload} {topology} n={n} done", file=sys.stderr)
    return out


def cli_reference() -> dict:
    spec = wl.WORKLOADS["cli-cold"]
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for command in dict.fromkeys(spec["schedule"]):
            for k in range(spec["pool"]):
                argv = wl.cli_argv(command, k, workdir)
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = gumbelsys.cli.main(argv)
                out[f"{command}:{k}"] = wl.cli_summary(command, json.loads(buf.getvalue()), code)
            print(f"cli-cold {command} done", file=sys.stderr)
    return out


def main() -> int:
    ref = {
        "pool_seed": wl.POOL_SEED,
        "value_tol": wl.VALUE_TOL,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "rate-sweep": pair_reference("rate-sweep", wl.rate_op, wl.rate_summary),
        "lu-sweep": pair_reference("lu-sweep", wl.lu_op, wl.lu_summary),
        "cli-cold": cli_reference(),
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
