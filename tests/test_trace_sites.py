"""The benchmark's span tracer still finds every site where the package
looks a traced function up, still sees the kernel calls of a check, and
still reads what the ``simulate`` and ``entropy`` commands call and return."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from gumbelsys import orders as od
from gumbelsys.cli import main  # the tracer wraps the names cli imports

from conftest import series

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.uninstall()


def test_tracer_sites_and_kernel_calls(tracer):
    assert tracer.missing == []
    a, b = series([1.0, 0.0]), series([0.5, 0.5])
    od.check_lu(a, b, t_grid=np.linspace(-1.0, 2.0, 4))
    summary = tracer.summary()
    assert summary["systems.kernel"]["calls"] >= 1
    assert summary["orders.lu"]["calls"] >= 1


SIMULATE_SPEC = """\
[system_a]
topology = series
mus = 1.0, 0.0, -0.5
sigma = 1.0

[system_b]
topology = parallel
mus = 0.5, 0.5
sigma = 1.0

[simulate]
n_samples = 1000
bootstrap = 5
"""

ENTROPY_SPEC = """\
[system]
topology = series
mus = 0.5, -0.5, 1.0
sigma = 0.7

[entropy]
t_points = 4
"""


def _report(tmp_path, capsys, command, spec):
    path = tmp_path / f"{command}.ini"
    path.write_text(spec)
    code = main([command, str(path), "--out", "-"])
    return code, json.loads(capsys.readouterr().out)


def test_simulate_draws_each_sample_once_per_command(tracer, tmp_path, capsys):
    assert tracer.missing == []
    _report(tmp_path, capsys, "simulate", SIMULATE_SPEC)
    summary = tracer.summary()
    sample, draws = summary["simulate.sample"], 1000 * (3 + 2)  # n_samples times components
    assert (sample["calls"], sample["draws"]) == (2, draws)
    assert summary["simulate.cdf_dominance"]["calls"] == 1
    assert summary["simulate.quantile_spread"]["calls"] == 1
    # the next command draws its own samples
    _report(tmp_path, capsys, "simulate", SIMULATE_SPEC)
    sample = tracer.summary()["simulate.sample"]
    assert (sample["calls"], sample["draws"]) == (4, 2 * draws)


def test_entropy_spans_count_converged_values(tracer, tmp_path, capsys):
    assert tracer.missing == []
    code, doc = _report(tmp_path, capsys, "entropy", ENTROPY_SPEC)
    assert code == 0
    summary = tracer.summary()
    curve, shannon = summary["entropy.curve"], summary["entropy.shannon"]
    assert (curve["calls"], curve["values"], curve["converged"]) == (1, 4, 4)
    assert [r["converged"] for r in doc["residual"]] == [True] * 4
    assert (shannon["calls"], shannon["values"], shannon["converged"]) == (1, 1, 1)
    assert doc["shannon"]["converged"] is True
