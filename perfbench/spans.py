"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``paulipml`` from outside the package:
module attributes, every ``from``-import binding of them in the package
(for example ``verify.run`` and ``cli.run``), and the class attributes
``StretchContext.m_matrix``/``stretched_jet``/``ratios`` and
``HelmholtzAssembly.form``.  Nothing under ``src/`` changes.

Spans are kept in memory as ``(id, parent, name, start, end)`` and written
out at the end; a span's self time is its duration minus the durations of
its direct children.  Some wrappers also record exact counts computed from
the call's arguments or result (grid nodes, nnz, points, bytes); these are
computed counts, not measurements.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from paulipml import (algebra, cli, freqdomain, geometry, stretching,
                      timedomain, verify)
from workloads import relative_residual

PACKAGE_MODULES = (algebra, geometry, stretching, timedomain, freqdomain,
                   verify, cli)

FUNCTIONS = {
    timedomain: ("rhs", "diff4", "step", "apply_boundary", "run",
                 "laplace_of_trace", "weighted_norms"),
    freqdomain: ("solve", "assemble_stretched", "second_bc_residual",
                 "export_matrix", "assemble_helmholtz"),
    geometry: ("sample_boundary", "rounded_box_point"),
    algebra: ("projector",),
    verify: ("check_helmholtz_identity", "check_neumann_identity",
             "check_transverse_identity", "check_coercivity",
             "check_m_bounds", "check_stability"),
    cli: ("parse_config", "run_experiment"),
}

METHODS = (
    (stretching.StretchContext, ("m_matrix", "stretched_jet", "ratios")),
    (freqdomain.HelmholtzAssembly, ("form",)),
)

IDENTITY_CHECKS = ("verify.check_helmholtz_identity",
                   "verify.check_neumann_identity",
                   "verify.check_transverse_identity")


def _nodes(shape) -> int:
    return int(np.prod(shape[-3:]))


def _record_bytes(rec) -> int:
    arrays = list(rec.traces) + list(rec.splits) + list(rec.probe_values)
    return int(sum(np.asarray(a).nbytes for a in arrays))


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Install with ``with Tracer() as tr:``; spans and counts are read
    from ``tr`` after the block.  ``faults`` maps a span name to a function
    called in place of the original (used to test the gates)."""

    def __init__(self, faults: dict | None = None):
        self.faults = dict(faults or {})
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self._stack: list[int] = []
        self._next = 0
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        for mod, names in FUNCTIONS.items():
            short = mod.__name__.rsplit(".", 1)[-1]
            for fname in names:
                orig = getattr(mod, fname)
                traced = self._wrap(f"{short}.{fname}", orig)
                for other in PACKAGE_MODULES:
                    for attr, val in list(vars(other).items()):
                        if val is orig:
                            self._restore.append((other, attr, orig))
                            setattr(other, attr, traced)
        for cls, names in METHODS:
            short = cls.__module__.rsplit(".", 1)[-1]
            for mname in names:
                orig = cls.__dict__[mname]
                self._restore.append((cls, mname, orig))
                setattr(cls, mname,
                        self._wrap(f"{short}.{cls.__name__}.{mname}", orig))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        impl = self.faults.get(name, fn)
        probe = _PROBES.get(name)
        spans, stack = self.spans, self._stack
        want_rss = name == "freqdomain.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            rss0 = _maxrss_mib() if want_rss else 0.0
            t0 = time.perf_counter()
            try:
                result = impl(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if want_rss:
                self.maximum(name + ".maxrss_delta_mib", _maxrss_mib() - rss0)
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return traced

    # -- counters --------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    # -- reduction -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        dur = {sid: t1 - t0 for sid, _, _, t0, t1 in self.spans}
        child = defaultdict(float)
        for sid, parent, _, _, _ in self.spans:
            if parent >= 0:
                child[parent] += dur[sid]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _, name, _, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += dur[sid]
            row["self_s"] += dur[sid] - child[sid]
        return dict(out)

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json (all but
        trace.overhead_frac, which needs the untraced run).  A layer that
        the workload never calls reads 0."""
        s = self.summary()
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

        def row(name):
            return s.get(name, zero)

        def per_call_us(name):
            r = row(name)
            return 1e6 * r["total_s"] / r["calls"] if r["calls"] else 0.0

        def per_node_ns(name, field="total_s"):
            nodes = self.counts.get(name + ".nodes", 0)
            return 1e9 * row(name)[field] / nodes if nodes else 0.0

        m = {
            "timedomain.rhs.ns_per_node": per_node_ns("timedomain.rhs"),
            "timedomain.diff4.ns_per_node": per_node_ns("timedomain.diff4"),
            "timedomain.step.self_ns_per_node":
                per_node_ns("timedomain.step", "self_s"),
            "timedomain.apply_boundary.us":
                per_call_us("timedomain.apply_boundary"),
            "timedomain.step.calls": row("timedomain.step")["calls"],
            "timedomain.run.s": row("timedomain.run")["total_s"],
            "timedomain.record.bytes_computed":
                self.maxima.get("timedomain.record.bytes_computed", 0),
            "timedomain.laplace_of_trace.s":
                row("timedomain.laplace_of_trace")["total_s"],
            "timedomain.weighted_norms.s":
                row("timedomain.weighted_norms")["total_s"],
            "freqdomain.solve.s": row("freqdomain.solve")["total_s"],
            "freqdomain.solve.calls": row("freqdomain.solve")["calls"],
            "freqdomain.solve.maxrss_delta_mib":
                self.maxima.get("freqdomain.solve.maxrss_delta_mib", 0.0),
            "freqdomain.solve.rel_residual":
                self.maxima.get("freqdomain.solve.rel_residual", 0.0),
            "freqdomain.matrix.nnz":
                self.maxima.get("freqdomain.matrix.nnz", 0),
            "freqdomain.assemble_stretched.s":
                row("freqdomain.assemble_stretched")["total_s"],
            "freqdomain.second_bc_residual.s":
                row("freqdomain.second_bc_residual")["total_s"],
            "freqdomain.export_matrix.s":
                row("freqdomain.export_matrix")["total_s"],
            "freqdomain.assemble_helmholtz.s":
                row("freqdomain.assemble_helmholtz")["total_s"],
            "freqdomain.HelmholtzAssembly.form.calls":
                row("freqdomain.HelmholtzAssembly.form")["calls"],
            "freqdomain.HelmholtzAssembly.form.us":
                per_call_us("freqdomain.HelmholtzAssembly.form"),
            "stretching.StretchContext.m_matrix.calls":
                row("stretching.StretchContext.m_matrix")["calls"],
            "stretching.StretchContext.m_matrix.us":
                per_call_us("stretching.StretchContext.m_matrix"),
            "stretching.StretchContext.stretched_jet.calls":
                row("stretching.StretchContext.stretched_jet")["calls"],
            "stretching.StretchContext.stretched_jet.us":
                per_call_us("stretching.StretchContext.stretched_jet"),
            "stretching.StretchContext.ratios.calls":
                row("stretching.StretchContext.ratios")["calls"],
            "geometry.sample_boundary.s":
                row("geometry.sample_boundary")["total_s"],
            "geometry.sample_boundary.points":
                self.counts.get("geometry.sample_boundary.points", 0),
            "geometry.rounded_box_point.calls":
                row("geometry.rounded_box_point")["calls"],
            "algebra.projector.calls": row("algebra.projector")["calls"],
            "verify.check_coercivity.s":
                row("verify.check_coercivity")["total_s"],
            "verify.check_m_bounds.s": row("verify.check_m_bounds")["total_s"],
            "verify.check_stability.s":
                row("verify.check_stability")["total_s"],
            "verify.identities.s":
                sum(row(n)["total_s"] for n in IDENTITY_CHECKS),
            "cli.parse_config.s": row("cli.parse_config")["total_s"],
            "cli.run_experiment.s": row("cli.run_experiment")["total_s"],
            "cli.artifacts.bytes": self.counts.get("cli.artifacts.bytes", 0),
        }
        return {k: float(v) for k, v in m.items()}

    def dump(self, path) -> None:
        """Write the raw spans and their per-name summary as JSON."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(),
                       "summary": self.summary(),
                       "counts": dict(self.counts),
                       "maxima": dict(self.maxima),
                       "spans": self.spans}, fh)


# -- per-call probes: exact counts taken from arguments or results ---------

def _probe_state_nodes(name):
    def probe(tr, args, kwargs, result):
        state = args[0] if args else kwargs["state"]
        tr.add(name + ".nodes", _nodes(state.U.shape))
    return probe


def _probe_diff4(tr, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    tr.add("timedomain.diff4.nodes", _nodes(f.shape))


def _probe_run(tr, args, kwargs, result):
    tr.maximum("timedomain.record.bytes_computed", _record_bytes(result))


def _probe_solve(tr, args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    tr.maximum("freqdomain.matrix.nnz", op.matrix.nnz)
    tr.maximum("freqdomain.solve.rel_residual", relative_residual(op, result))


def _probe_sample_boundary(tr, args, kwargs, result):
    tr.add("geometry.sample_boundary.points", len(result))


def _probe_run_experiment(tr, args, kwargs, result):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    tr.add("cli.artifacts.bytes", _dir_bytes(out_dir))


_PROBES = {
    "timedomain.rhs": _probe_state_nodes("timedomain.rhs"),
    "timedomain.step": _probe_state_nodes("timedomain.step"),
    "timedomain.diff4": _probe_diff4,
    "timedomain.run": _probe_run,
    "freqdomain.solve": _probe_solve,
    "geometry.sample_boundary": _probe_sample_boundary,
    "cli.run_experiment": _probe_run_experiment,
}
