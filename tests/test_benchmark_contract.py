"""The names the benchmark's span tracer (``perfbench/spans.py``) wraps
and reads still exist, so a rename in ``src/`` fails here in
milliseconds rather than only in the minute-long benchmark smoke test."""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from paulipml import freqdomain
from paulipml.geometry import BoxDomain
from paulipml.stretching import StretchContext
from paulipml.timedomain import (Grid, Recording, SimConfig, gaussian_source,
                                 run, weighted_norms)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


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


def test_weighted_norms_keep_the_gated_keys(workloads):
    """td_laplace gates the weighted volume and boundary norms of a run."""
    grid = Grid(workloads.box(), (7, 7, 7))
    src = gaussian_source(grid, width=0.15 * workloads.HALF, t_off=0.5)
    rec = run(SimConfig(grid, T=0.5, stride=2), workloads.profiles(), src)
    norms = weighted_norms(rec, workloads.TD_LAMBDA)
    for key in ("volume", "boundary"):
        assert np.isfinite(norms[key]) and norms[key] > 0, key


def test_solve_meets_the_fd_sweep_gate(workloads):
    """The tracer and fd_sweep read solve's (2, n1, n2, n3) field through
    workloads.relative_residual and gate it at 1e-8."""
    grid = Grid(workloads.box(), (7, 7, 7))
    ctx = StretchContext(2.0 + 8.0j, workloads.profiles())
    F = gaussian_source(grid, width=0.15 * workloads.HALF).spatial
    op = freqdomain.assemble_stretched(ctx, grid, F)
    u = freqdomain.solve(op)
    assert u.shape == (2, 7, 7, 7)
    assert workloads.relative_residual(op, u) <= 1e-8
