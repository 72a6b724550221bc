"""Configuration-driven experiment runner.

Config files are line oriented: ``[section]`` headers group plain
``key = value`` lines, ``#`` starts a comment.  The schema is small on
purpose so configs diff cleanly:

    [experiment]
    kind = check:transverse        # or timedomain | freqdomain |
                                   # check:<name> | suite:identities
    seed = 0

    [domain]
    half_length = 1.0
    inner_fraction = 0.5
    delta = 0.3

    [profile]
    kind = polynomial_bump
    sigma0 = 4.0
    start = 0.5
    order = 3

    [grid]
    n = 16

    [freq]
    tau = 50, 50+20j

    [time]
    T = 4.0
    cfl = 0.5
    stride = 2
    lambda = 1.0

Exit codes: 0 all checks passed, 2 a check failed, 1 runtime error.
Every run writes a manifest listing its artifacts with content hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ParseError, ValidationError
from .geometry import BoxDomain
from .stretching import AbsorptionProfile, StretchContext
from .timedomain import (Grid, SimConfig, gaussian_source, run,
                         weighted_norms, write_probes, write_snapshot)
from . import freqdomain, verify

__all__ = ["ExperimentConfig", "parse_config", "run_experiment", "main"]

_KINDS = [
    "timedomain",
    "freqdomain",
    "check:helmholtz",
    "check:neumann",
    "check:transverse",
    "check:coercivity",
    "check:m_bounds",
    "check:reflection",
    "check:laplace",
    "check:estimate",
    "check:stability",
    "suite:identities",
]


@dataclass
class ExperimentConfig:
    kind: str = ""
    seed: int = 0
    half_length: float = 1.0
    inner_fraction: float = 0.5
    delta: float = 0.3
    profile_kind: str = "polynomial_bump"
    sigma0: float = 4.0
    start: float = 0.5
    order: int = 3
    n: int = 16
    taus: tuple = (complex(10.0, 5.0),)
    T: float = 4.0
    cfl: float = 0.5
    stride: int = 2
    lam: float = 1.0

    def box(self) -> BoxDomain:
        return BoxDomain((self.half_length,) * 3, self.inner_fraction)

    def profiles(self):
        return tuple(
            AbsorptionProfile(a=self.start, b=self.half_length,
                              sigma0=self.sigma0, kind=self.profile_kind,
                              order=self.order)
            for _ in range(3))

    def grid(self) -> Grid:
        return Grid(self.box(), (self.n,) * 3)


_KEYMAP = {
    ("experiment", "kind"): ("kind", str),
    ("experiment", "seed"): ("seed", int),
    ("domain", "half_length"): ("half_length", float),
    ("domain", "inner_fraction"): ("inner_fraction", float),
    ("domain", "delta"): ("delta", float),
    ("profile", "kind"): ("profile_kind", str),
    ("profile", "sigma0"): ("sigma0", float),
    ("profile", "start"): ("start", float),
    ("profile", "order"): ("order", int),
    ("grid", "n"): ("n", int),
    ("freq", "tau"): ("taus", "taulist"),
    ("time", "T"): ("T", float),
    ("time", "cfl"): ("cfl", float),
    ("time", "stride"): ("stride", int),
    ("time", "lambda"): ("lam", float),
}


def _parse_tau_list(text: str):
    out = []
    for part in text.replace(",", " ").split():
        out.append(complex(part.replace("i", "j")))
    if not out:
        raise ValueError("empty tau list")
    return tuple(out)


def parse_config(path) -> ExperimentConfig:
    """Parse and fully validate a config file.

    Syntax problems raise ParseError with line numbers; value problems
    are collected and raised together as one ValidationError.
    """
    cfg = ExperimentConfig()
    section = None
    syntax_errors = []
    value_errors = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                continue
            if "=" not in line:
                syntax_errors.append(f"line {lineno}: expected key = value")
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if section is None:
                syntax_errors.append(
                    f"line {lineno}: key outside any [section]")
                continue
            spec = _KEYMAP.get((section, key))
            if spec is None:
                value_errors.append(
                    f"line {lineno}: unknown key [{section}] {key}")
                continue
            attr, conv = spec
            try:
                parsed = _parse_tau_list(val) if conv == "taulist" \
                    else conv(val)
            except ValueError as exc:
                value_errors.append(
                    f"line {lineno}: bad value for {key}: {exc}")
                continue
            setattr(cfg, attr, parsed)
    if syntax_errors:
        raise ParseError("; ".join(syntax_errors))

    if cfg.kind not in _KINDS:
        value_errors.append(
            f"kind: {cfg.kind!r} not one of {', '.join(_KINDS)}")
    if not 0 < cfg.cfl <= 1:
        value_errors.append(f"cfl: {cfg.cfl} outside (0, 1]")
    if cfg.sigma0 < 0:
        value_errors.append(f"sigma0: {cfg.sigma0} must be >= 0")
    if not 0 < cfg.delta < 1:
        value_errors.append(f"delta: {cfg.delta} outside (0, 1)")
    if not 0 < cfg.inner_fraction < 1:
        value_errors.append(
            f"inner_fraction: {cfg.inner_fraction} outside (0, 1)")
    if cfg.T <= 0:
        value_errors.append(f"T: {cfg.T} must be positive")
    if cfg.n < 5:
        value_errors.append(f"n: {cfg.n} must be >= 5")
    if not 0 <= cfg.start < cfg.half_length:
        value_errors.append(
            f"start: {cfg.start} outside [0, half_length)")
    if cfg.order < 1:
        value_errors.append(f"order: {cfg.order} must be >= 1")
    if any(t.real <= 0 for t in cfg.taus):
        value_errors.append("tau: all values need positive real part")
    if value_errors:
        raise ValidationError("; ".join(value_errors))
    return cfg


def _dispatch(cfg: ExperimentConfig, out: Path):
    """Run the experiment; returns (reports, artifacts)."""
    artifacts = []
    reports = []
    profiles = cfg.profiles()

    def emit(rep):
        p = out / f"report_{rep.name}.txt"
        rep.save(p)
        artifacts.append(p)
        reports.append(rep)
        for tname in rep.tables:
            cp = out / f"{rep.name}_{tname}.csv"
            cp.write_text(rep.csv(tname))
            artifacts.append(cp)

    kind = cfg.kind
    if kind == "timedomain":
        grid = cfg.grid()
        src = gaussian_source(grid, t_off=min(1.0, cfg.T),
                              width=0.15 * cfg.half_length)
        cfgsim = SimConfig(grid, cfl=cfg.cfl, T=cfg.T,
                           probes=((0.0, 0.0, 0.0),), stride=cfg.stride,
                           lam=cfg.lam)
        rec = run(cfgsim, profiles, src)
        probe_path = out / "probes.csv"
        write_probes(probe_path, rec)
        artifacts.append(probe_path)
        snap = out / "final_trace.bin"
        write_snapshot(snap, rec.traces[-1], grid.spacing, rec.times[-1])
        artifacts += [snap, Path(str(snap) + ".hdr")]
        norms = weighted_norms(rec, cfg.lam)
        emit(verify.CheckReport("timedomain_run",
                                params={"grid": list(grid.shape),
                                        "T": cfg.T, "lambda": cfg.lam},
                                measured=norms))
    elif kind == "freqdomain":
        grid = cfg.grid()
        src = gaussian_source(grid, width=0.15 * cfg.half_length)
        rep = verify.CheckReport("freqdomain_run",
                                 params={"grid": list(grid.shape)})
        rows = []
        for i, tau in enumerate(cfg.taus):
            ctx = StretchContext(tau, profiles)
            op = freqdomain.assemble_stretched(ctx, grid, src.spatial)
            u = freqdomain.solve(op)
            snap = out / f"solution_tau{i}.bin"
            write_snapshot(snap, u, grid.spacing, 0.0)
            artifacts += [snap, Path(str(snap) + ".hdr")]
            if i == 0:
                mpath = out / "operator_tau0.txt"
                freqdomain.export_matrix(mpath, op)
                artifacts.append(mpath)
            _, bc_max = freqdomain.second_bc_residual(u, ctx, grid)
            rows.append([tau, grid.norm(u), bc_max])
        rep.tables["per_tau"] = (["tau", "norm_u", "bc2_residual"], rows)
        emit(rep)
    elif kind == "check:helmholtz":
        ctx = StretchContext(cfg.taus[0], profiles)
        emit(verify.check_helmholtz_identity(ctx, seed=cfg.seed))
    elif kind == "check:neumann":
        emit(verify.check_neumann_identity("sphere", seed=cfg.seed))
        rep = verify.check_neumann_identity("rounded_box", seed=cfg.seed,
                                            delta=cfg.delta)
        rep.name = "neumann_identity_box"
        emit(rep)
    elif kind == "check:transverse":
        emit(verify.check_transverse_identity(
            profiles, cfg.delta, cfg.taus, box=cfg.box(), seed=cfg.seed))
    elif kind == "check:coercivity":
        emit(verify.check_coercivity(profiles, cfg.grid(), cfg.taus,
                                     seed=cfg.seed))
    elif kind == "check:m_bounds":
        emit(verify.check_m_bounds(cfg.box(), profiles, [cfg.delta],
                                   cfg.taus, seed=cfg.seed))
    elif kind == "check:reflection":
        emit(verify.reflection_experiment(sigma0=max(cfg.sigma0, 1.0),
                                          cfl=cfg.cfl))
    elif kind == "check:laplace":
        emit(verify.laplace_consistency(cfg.grid(), profiles, cfg.taus,
                                        T=cfg.T, cfl=cfg.cfl))
    elif kind == "check:estimate":
        emit(verify.stretched_estimate(profiles, half=cfg.half_length))
    elif kind == "check:stability":
        emit(verify.check_stability(profiles, lam_set=(cfg.lam, 2 * cfg.lam),
                                    cfl=cfg.cfl, half=cfg.half_length))
    elif kind == "suite:identities":
        for part in ("check:helmholtz", "check:neumann", "check:transverse"):
            part_reports, part_artifacts = _dispatch(replace(cfg, kind=part),
                                                     out)
            reports += part_reports
            artifacts += part_artifacts
    else:
        raise ValidationError(f"unhandled kind {kind!r}")
    return reports, artifacts


def _write_manifest(out: Path, artifacts) -> Path:
    mpath = out / "manifest.txt"
    with open(mpath, "w") as fh:
        for p in sorted(set(map(Path, artifacts))):
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            fh.write(f"{digest}  {p.name}\n")
    return mpath


def run_experiment(cfg: ExperimentConfig, out_dir,
                   tolerance_scale: float = 1.0) -> int:
    """Execute one experiment; returns the process exit code."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        reports, artifacts = _dispatch(cfg, out)
        _write_manifest(out, artifacts)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verdicts = [r.verdict(tolerance_scale) for r in reports]
    for r, ok in zip(reports, verdicts):
        print(f"{r.name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(verdicts) else 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="paulipml",
        description="split-field absorbing-layer experiment runner")
    ap.add_argument("config", nargs="?", help="experiment config file")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    ap.add_argument("--list", action="store_true",
                    help="list experiment kinds and exit")
    ap.add_argument("--tolerance-scale", type=float, default=1.0,
                    help="loosen (> 1) or tighten (< 1) every scalable "
                         "criterion: upper bounds are multiplied by it, "
                         "lower bounds divided; fixed criteria never move")
    args = ap.parse_args(argv)
    if args.list:
        for k in _KINDS:
            print(k)
        return 0
    if args.config is None:
        ap.error("config file required unless --list is given")
    if not 0 < args.tolerance_scale < float("inf"):
        print(f"config error: --tolerance-scale {args.tolerance_scale} "
              "must be finite and > 0", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(args.config)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    return run_experiment(cfg, args.out, args.tolerance_scale)


if __name__ == "__main__":
    sys.exit(main())
