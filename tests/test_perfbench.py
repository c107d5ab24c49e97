"""The benchmark's tracer still finds every taam function it wraps.

`perfbench/tracer.py` looks each traced function up by name and raises on
one that is gone.  Building a Tracer here runs that lookup on every Python
version the tests run on, without changing the benchmark's files.
"""

import importlib
from pathlib import Path

import taam.harness  # noqa: F401  imports every module the tracer wraps

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_resolves_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    assert t.names == [f"{module}.{qual}" for module, qual in tracer.TARGETS]
    with t.installed():
        pass
