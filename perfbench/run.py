"""paulipml benchmark.

    python3 perfbench/run.py --workload td_laplace --seed 0 --seconds 26 \\
        --trace 0

Run from the root of a checkout.  Each batch of a workload runs in a fresh
single-threaded process (``worker.py``); batches repeat until ``--seconds``
have passed, and the run reports medians over its batches.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced batches and reports the per-layer metrics and
``trace.overhead_frac``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--workload all`` runs every workload untraced and prints one table.
``--smoke`` runs tiny sizes whose figures are not comparable with full runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("td_laplace", "fd_sweep", "check_suite")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 2     # set-up-only processes per untraced run
RUN_LIMIT_S = 170.0   # every process of a run ends within this
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}
UNIT_SUFFIXES = ((".calls", "count"), (".nnz", "count"), (".points", "count"),
                 ("bytes_computed", "bytes"), (".bytes", "bytes"),
                 ("ns_per_node", "ns/node"), (".us", "us"), (".s", "s"),
                 ("_mib", "MiB"), ("rel_residual", "ratio"),
                 ("overhead_frac", "ratio"))


def layer_unit(name: str) -> str:
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


class ChildError(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


def spawn(root: Path, workload: str, seed: int, size: str, trace: int,
          phase: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result;
    kill it at ``deadline`` (a ``time.monotonic`` value)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--trace", str(trace), "--phase", phase,
           "--workdir", str(root / OUT_DIR / workload)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)],
                              env=child_env(root), cwd=root,
                              capture_output=True, text=True,
                              timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload} {phase} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload} {phase} exited {proc.returncode}: "
                         + proc.stderr.strip()[-2000:])
    return json.loads(lines[-1])


def run_batches(root: Path, workload: str, seed: int, size: str,
                seconds: float, traced: bool, start: float) -> list[dict]:
    """Repeat batches (untraced, or untraced/traced pairs) until ``seconds``
    have passed since ``start``; always at least one.  No batch starts that
    would likely run past the run's time limit."""
    plan = (0, 1) if traced else (0,)
    deadline = start + RUN_LIMIT_S
    batches = []
    while True:
        t0 = time.monotonic()
        for trace in plan:
            b = spawn(root, workload, seed, size, trace, "batch", deadline)
            b["trace"] = trace
            batches.append(b)
        now = time.monotonic()
        if now - start >= seconds or now + (now - t0) > deadline:
            return batches


def summarise(batches: list[dict], setup_samples=()) -> dict:
    """Medians over untraced batches; failures over every batch."""
    plain = [b for b in batches if not b.get("trace")]
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    setups = [b["setup_s"] for b in plain] + list(setup_samples)
    return {
        "wall_s": median([b["wall_s"] for b in plain]),
        "cpu_s": median([b["cpu_s"] for b in plain]),
        "setup_s": median(setups),
        "peak_rss_mib": median([b["peak_rss_mib"] for b in plain]),
        "failed_frac": failed / attempted if attempted else 1.0,
        "attempted": attempted,
        "failed": failed,
    }


def layer_summary(batches: list[dict]) -> dict:
    """Per-layer medians over traced batches, plus the tracing overhead
    against the untraced batches of the same run."""
    traced = [b for b in batches if b.get("trace")]
    plain = [b for b in batches if not b.get("trace")]
    names = traced[0]["layers"].keys()
    out = {n: median([b["layers"][n] for b in traced]) for n in names}
    base = median([b["wall_s"] for b in plain])
    out["trace.overhead_frac"] = (
        median([b["wall_s"] for b in traced]) - base) / base
    return out


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_info(root: Path) -> dict:
    model = next((ln.split(":", 1)[1].strip()
                  for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), "unknown")
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = _read(str(idx / "level")).strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(str(idx / "size")).strip()
    commit = ""
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches,
            "git_commit": commit or "unavailable (not a git checkout)",
            "python": sys.version.split()[0],
            "note": "paulipml --threads cannot pin BLAS threads: cli.main "
                    "sets the variables after cli's imports have loaded "
                    "numpy; the benchmark sets them in the child "
                    "environment instead"}


def check_checkout(root: Path) -> None:
    if not (root / "src" / "paulipml" / "__init__.py").is_file():
        raise SystemExit(f"error: {root} holds no src/paulipml; run from the "
                         "root of a paulipml checkout")


def run_one(root: Path, workload: str, seed: int, seconds: float,
            trace: int, size: str) -> tuple[dict, dict]:
    """Returns (result line, full record)."""
    start = time.monotonic()
    batches = run_batches(root, workload, seed, size, seconds, bool(trace),
                          start)
    setups = [] if trace else [
        spawn(root, workload, seed, size, 0, "setup",
              start + RUN_LIMIT_S)["setup_s"]
        for _ in range(SETUP_SAMPLES)]
    summary = summarise(batches, setups)
    if trace:
        metrics = {n: {"value": v, "unit": layer_unit(n)}
                   for n, v in layer_summary(batches).items()}
    else:
        metrics = {n: {"value": summary[n], "unit": u}
                   for n, u in END_TO_END_UNITS.items()}
    result = {"correct": summary["failed"] == 0,
              "attempted": summary["attempted"],
              "failed": summary["failed"],
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "size": size, "summary": summary,
              "setup_samples": setups, "batches": batches,
              "thread_env": batches[0]["env"], "blas": batches[0]["blas"],
              "versions": batches[0]["versions"],
              "machine": machine_info(root)}
    return result, record


def print_table(workload: str, summary: dict, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload:12s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"{workload:12s} {'failed_frac':42s} {summary['failed_frac']:14.6g}"
          f" ratio  ({summary['failed']}/{summary['attempted']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paulipml benchmark")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: exercises every path in seconds")
    args = ap.parse_args(argv)
    root = Path.cwd()
    check_checkout(root)
    size = "smoke" if args.smoke else "full"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in names:
        try:
            result, record = run_one(root, w, args.seed, args.seconds,
                                     args.trace, size)
        except ChildError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = root / OUT_DIR / (f"result_{w}_seed{args.seed}"
                                 f"_trace{args.trace}_{size}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"result": result, **record}, indent=1))
        meta = {k: record[k] for k in ("thread_env", "blas", "versions",
                                       "machine", "seed")}
        print("# meta " + json.dumps(meta))
        for b in record["batches"]:
            for f in b["failures"]:
                print(f"# FAILED {w}: {f}")
        print_table(w, record["summary"], result["metrics"])
        results[w] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
