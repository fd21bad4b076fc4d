"""Byte-exact CLI reports: every command's JSON report on fixed inputs.

A change that moves a verdict or a reported number on purpose rewrites the
goldens with ``PYTHONPATH=src python tests/test_golden.py`` and says which
entries moved.
"""

import sys
from pathlib import Path

import pytest

from gumbelsys.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCAN_MODES = ("parallel-lr", "parallel-rh", "series-hr", "series-disp-lu", "free")

CASES = {
    "check_series": ["check", "check_series.ini"],
    "check_parallel": ["check", "check_parallel.ini"],
    "entropy": ["entropy", "entropy.ini"],
    "simulate": ["simulate", "simulate.ini"],
    **{f"scan_{mode}": ["scan", "--mode", mode, "--trials", "4", "--n", "3", "--seed", "1"]
       for mode in SCAN_MODES},
}


def _argv(name: str) -> list[str]:
    cmd, *rest = CASES[name]
    if cmd != "scan":
        rest = [str(GOLDEN / rest[0])]
    return [cmd, *rest, "--out", "-"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, capsys):
    code = main(_argv(name))
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert f'"exit_code": {code}\n' in out


if __name__ == "__main__":
    import contextlib
    import io

    for name in sorted(CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(_argv(name))
        (GOLDEN / f"{name}.json").write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {name}.json", file=sys.stderr)
