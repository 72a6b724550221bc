"""Record the seed-0 scalar outputs that the correctness gates compare
against, for both sizes, into ``perfbench/baseline.json``.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python3 perfbench/record_baseline.py

Run it only on a commit whose discretization is the reference; the gates
exist to catch a change of discretization.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    data = (json.loads(workloads.BASELINE_PATH.read_text())
            if workloads.BASELINE_PATH.exists() else {})
    scalars = {}
    with tempfile.TemporaryDirectory() as tmp:
        for size in ("smoke", "full"):
            scalars[size] = {}
            for name in workloads.WORKLOADS:
                inp = workloads.prepare(name, 0, size, Path(tmp))
                res = workloads.execute(name, inp)
                inp["seed"] = None       # no comparison while recording
                out = workloads.check(name, inp, res)
                if out.failed:
                    print(f"{name} ({size}) failed: {out.ops}",
                          file=sys.stderr)
                    return 1
                scalars[size][name] = out.scalars
    data["scalars_seed0"] = scalars
    workloads.BASELINE_PATH.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
