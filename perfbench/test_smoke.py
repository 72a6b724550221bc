"""Smoke test of the benchmark at tiny sizes (about a minute in total).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload path, traced and untraced, through ``run.py``, and
checks that the gates see a fault injected through the span tracer.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from paulipml import (cli, freqdomain, geometry, timedomain,  # noqa: E402
                      verify)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want
    assert all(np.isfinite(m["value"]) for m in res["metrics"].values())


def _zero_solve(op, rtol=1e-8):
    return np.zeros((2,) + tuple(op.grid.shape), dtype=complex)


def test_zero_solve_fault_counts_in_failed_frac(tmp_path):
    clean = worker.run_batch("fd_sweep", 0, "smoke", tmp_path, trace=False)
    assert clean["failed"] == 0
    faulty = worker.run_batch("fd_sweep", 0, "smoke", tmp_path, trace=False,
                              faults={"freqdomain.solve": _zero_solve})
    # every per-tau solve misses the residual gate; the CLI still exits 0
    assert faulty["attempted"] == clean["attempted"] == 6
    assert faulty["failed"] == 5
    assert run.summarise([faulty])["failed_frac"] == pytest.approx(5 / 6)
    assert run.summarise([clean])["failed_frac"] == 0.0


def test_tracer_patches_from_imports_and_restores():
    originals = (verify.run, verify.laplace_of_trace, verify.rounded_box_point,
                 verify.sample_boundary, cli.run,
                 freqdomain.HelmholtzAssembly.form)
    with spans.Tracer():
        assert verify.run is timedomain.run is cli.run
        assert verify.run is not originals[0]
        assert verify.rounded_box_point is geometry.rounded_box_point
        assert verify.sample_boundary is not originals[3]
        assert freqdomain.HelmholtzAssembly.form is not originals[5]
    assert (verify.run, verify.laplace_of_trace, verify.rounded_box_point,
            verify.sample_boundary, cli.run,
            freqdomain.HelmholtzAssembly.form) == originals


def test_self_time_excludes_children():
    tr = spans.Tracer()
    tr.spans[:] = [(1, 0, "inner", 1.0, 3.0), (2, 0, "inner", 4.0, 5.0),
                   (0, -1, "outer", 0.0, 10.0)]
    s = tr.summary()
    assert s["outer"]["self_s"] == pytest.approx(7.0)
    assert s["inner"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
