"""One benchmark batch in a fresh process.

    python3 perfbench/worker.py --workload td_laplace --seed 0 \\
        --size full --trace 0 --phase batch --t-spawn <monotonic seconds>

``run.py`` starts this with ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``
and ``MKL_NUM_THREADS`` set to 1 before numpy is imported, and with the
checkout's ``src`` first on ``PYTHONPATH``.  The last line of standard
output is one JSON object describing the batch.  ``--phase setup`` stops
after building the inputs and reports only ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_vendor() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def run_batch(workload: str, seed: int, size: str, workdir: Path,
              trace: bool, faults: dict | None = None,
              t_spawn: float | None = None) -> dict:
    """Build inputs, run the timed phase, apply the gates.  With ``trace``
    the library calls run under the span tracer."""
    import workloads

    inp = workloads.prepare(workload, seed, size, workdir)
    setup_s = None if t_spawn is None else time.monotonic() - t_spawn
    tracer = None
    if trace or faults:
        import spans
        tracer = spans.Tracer(faults)
    c0 = time.process_time()
    t0 = time.perf_counter()
    if tracer is None:
        res = workloads.execute(workload, inp)
    else:
        with tracer:
            res = workloads.execute(workload, inp)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    outcome = workloads.check(workload, inp, res)
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": setup_s,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": [f"{n}: {d}" for n, ok, d in outcome.ops if not ok],
        "scalars": outcome.scalars,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.dump(workdir
                    / f"spans_{workload}_seed{seed}_{os.getpid()}.json")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "batch"), default="batch")
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    import paulipml
    if Path(paulipml.__file__).resolve().parent.parent != src:
        print(f"paulipml imported from {paulipml.__file__}, not {src}",
              file=sys.stderr)
        return 2

    if args.phase == "setup":
        import workloads
        workloads.prepare(args.workload, args.seed, args.size, args.workdir)
        print(json.dumps({"setup_s": time.monotonic() - args.t_spawn}))
        return 0

    out = run_batch(args.workload, args.seed, args.size, args.workdir,
                    bool(args.trace), t_spawn=args.t_spawn)
    out["env"] = {v: os.environ.get(v) for v in THREAD_VARS}
    out["blas"] = _blas_vendor()
    import numpy
    import scipy
    out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
