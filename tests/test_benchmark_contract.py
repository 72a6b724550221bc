"""The names the benchmark's span tracer (``perfbench/spans.py``) wraps
and reads still exist, so a rename in ``src/`` fails here in
milliseconds rather than only in the minute-long benchmark smoke test."""

import dataclasses
import importlib
from pathlib import Path

import pytest

from paulipml.geometry import BoxDomain
from paulipml.timedomain import Grid, Recording, SimConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_traced_name_resolves(spans):
    for mod, names in spans.FUNCTIONS.items():
        for name in names:
            assert callable(getattr(mod, name, None)), \
                f"{mod.__name__}.{name}"
    for cls, names in spans.METHODS:
        for name in names:
            # the tracer wraps through the class dict, not inheritance
            assert callable(cls.__dict__.get(name)), \
                f"{cls.__name__}.{name}"


def test_recording_and_config_keep_the_traced_fields():
    fields = {f.name for f in dataclasses.fields(Recording)}
    assert {"traces", "splits", "probe_values"} <= fields
    grid = Grid(BoxDomain((1.0, 1.0, 1.0)), (5, 5, 5))
    assert SimConfig(grid, lam=2.0).lam == 2.0
