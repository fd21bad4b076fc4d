"""The benchmark's span tracer still finds every site where the package
looks a traced function up, and still sees the kernel calls of a check."""

import importlib.util
from pathlib import Path

import numpy as np

import gumbelsys.cli  # noqa: F401 - the tracer wraps the names cli imports
from gumbelsys import orders as od

from conftest import series

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sites_and_kernel_calls():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        a, b = series([1.0, 0.0]), series([0.5, 0.5])
        od.check_lu(a, b, t_grid=np.linspace(-1.0, 2.0, 4))
        summary = tracer.summary()
        assert summary["systems.kernel"]["calls"] >= 1
        assert summary["orders.lu"]["calls"] >= 1
    finally:
        tracer.uninstall()
