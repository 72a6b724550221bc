"""Configuration-driven experiment runner.

Config files are line oriented: ``[section]`` headers group plain
``key = value`` lines, ``#`` starts a comment.  The schema is small on
purpose so configs diff cleanly:

    [experiment]
    kind = check:transverse        # or timedomain | freqdomain |
                                   # check:<name> | suite:identities |
                                   # suite:acceptance
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

Kinds (``paulipml --list``): ``timedomain``, ``freqdomain``, one check
``check:<helmholtz|neumann|transverse|coercivity|m_bounds|reflection|
laplace|estimate|stability>``, ``suite:identities`` (the first three
checks) and ``suite:acceptance``: the 12 acceptance criteria of
``verify.ACCEPTANCE`` at their fixed settings, which ignores every other
config key and names each artifact ``<NN>_<title>``, NN the criterion.

Exit codes: 0 all checks passed, 2 a check failed, 1 a usage,
configuration or runtime error.
Every run writes a manifest listing its artifacts with content hashes.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, ValidationError
from .geometry import BoxDomain
from .stretching import AbsorptionProfile, StretchContext
from .timedomain import (Grid, LastFrame, SimConfig, WeightedNorms,
                         gaussian_source, run, write_probes, write_snapshot)
from . import freqdomain, verify

__all__ = ["ExperimentConfig", "parse_config", "run_experiment", "main"]

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


def _finite(text: str) -> float:
    # NaN passes every range check below, so it is refused here
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not finite")
    return x


def _parse_tau_list(text: str):
    out = []
    for part in text.replace(",", " ").split():
        # a trailing i is the unit; the i of inf is not
        tau = complex(part[:-1] + "j" if part.endswith("i") else part)
        if not cmath.isfinite(tau):
            raise ValueError(f"{part!r} is not finite")
        out.append(tau)
    if not out:
        raise ValueError("empty tau list")
    return tuple(out)


_KEYMAP = {
    ("experiment", "kind"): ("kind", str),
    ("experiment", "seed"): ("seed", int),
    ("domain", "half_length"): ("half_length", _finite),
    ("domain", "inner_fraction"): ("inner_fraction", _finite),
    ("domain", "delta"): ("delta", _finite),
    ("profile", "kind"): ("profile_kind", str),
    ("profile", "sigma0"): ("sigma0", _finite),
    ("profile", "start"): ("start", _finite),
    ("profile", "order"): ("order", int),
    ("grid", "n"): ("n", int),
    ("freq", "tau"): ("taus", _parse_tau_list),
    ("time", "T"): ("T", _finite),
    ("time", "cfl"): ("cfl", _finite),
    ("time", "stride"): ("stride", int),
    ("time", "lambda"): ("lam", _finite),
}


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
                setattr(cfg, attr, conv(val))
            except ValueError as exc:
                value_errors.append(
                    f"line {lineno}: bad value for {key}: {exc}")
    if syntax_errors:
        raise ParseError("; ".join(syntax_errors))

    if cfg.kind not in _KINDS:
        value_errors.append(
            f"kind: {cfg.kind!r} not one of {', '.join(_KINDS)}")
    if not 0 < cfg.cfl <= 1:
        value_errors.append(f"cfl: {cfg.cfl} outside (0, 1]")
    if cfg.profile_kind not in AbsorptionProfile.KINDS:
        value_errors.append(
            f"profile kind: {cfg.profile_kind!r} not one of "
            f"{', '.join(AbsorptionProfile.KINDS)}")
    if cfg.sigma0 < 0:
        value_errors.append(f"sigma0: {cfg.sigma0} must be >= 0")
    if not 0 < cfg.delta < 1:
        value_errors.append(f"delta: {cfg.delta} outside (0, 1)")
    elif not cfg.delta / 2 < cfg.half_length:
        value_errors.append(f"delta: {cfg.delta} needs delta / 2 < "
                            f"half_length = {cfg.half_length}")
    if not 0 < cfg.inner_fraction < 1:
        value_errors.append(
            f"inner_fraction: {cfg.inner_fraction} outside (0, 1)")
    if cfg.T <= 0:
        value_errors.append(f"T: {cfg.T} must be positive")
    if cfg.n < Grid.MIN_NODES:
        value_errors.append(f"n: {cfg.n} must be >= {Grid.MIN_NODES}")
    if not 0 <= cfg.start < cfg.half_length:
        value_errors.append(
            f"start: {cfg.start} outside [0, half_length)")
    if cfg.order < 1:
        value_errors.append(f"order: {cfg.order} must be >= 1")
    if cfg.stride < 1:
        value_errors.append(f"stride: {cfg.stride} must be >= 1")
    if cfg.seed < 0:
        value_errors.append(f"seed: {cfg.seed} must be >= 0")
    if cfg.lam <= 0:
        value_errors.append(f"lambda: {cfg.lam} must be positive")
    if any(t.real <= 0 for t in cfg.taus):
        value_errors.append("tau: all values need positive real part")
    if value_errors:
        raise ValidationError("; ".join(value_errors))
    return cfg


@dataclass
class _Output:
    """The reports and artifacts a run writes into ``dir``.  Each report
    is kept with its label: the stem it was saved under, or its name."""

    dir: Path
    reports: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    def path(self, name: str) -> Path:
        self.artifacts.append(self.dir / name)
        return self.artifacts[-1]

    def emit(self, rep, stem: str | None = None) -> None:
        """Save rep as ``<stem>.txt`` or else ``report_<name>.txt``, and
        each table as ``<stem or name>_<table>.csv``."""
        rep.save(self.path(f"report_{rep.name}.txt" if stem is None
                           else f"{stem}.txt"))
        self.reports.append((stem or rep.name, rep))
        for tname in rep.tables:
            self.path(f"{stem or rep.name}_{tname}.csv").write_text(
                rep.csv(tname))


def _timedomain(cfg: ExperimentConfig, o: _Output):
    grid = cfg.grid()
    src = gaussian_source(grid, t_off=min(1.0, cfg.T),
                          width=0.15 * cfg.half_length)
    cfgsim = SimConfig(grid, cfl=cfg.cfl, T=cfg.T, probes=((0.0, 0.0, 0.0),),
                       stride=cfg.stride)
    norms, last = WeightedNorms(cfg.lam), LastFrame()
    rec = run(cfgsim, cfg.profiles(), src, reducers=[norms, last])
    write_probes(o.path("probes.csv"), rec)
    write_snapshot(o.path("final_trace.bin"), last.frame, grid.spacing,
                   rec.times[-1])
    o.path("final_trace.bin.hdr")
    o.emit(verify.CheckReport("timedomain_run",
                              params={"grid": list(grid.shape),
                                      "T": cfg.T, "lambda": cfg.lam},
                              measured=norms.value()))


def _freqdomain(cfg: ExperimentConfig, o: _Output):
    grid = cfg.grid()
    src = gaussian_source(grid, width=0.15 * cfg.half_length)
    profiles = cfg.profiles()
    rows = []
    for i, tau in enumerate(cfg.taus):
        ctx = StretchContext(tau, profiles)
        op = freqdomain.assemble_stretched(ctx, grid, src.spatial)
        u = freqdomain.solve(op)
        write_snapshot(o.path(f"solution_tau{i}.bin"), u, grid.spacing, 0.0)
        o.path(f"solution_tau{i}.bin.hdr")
        if i == 0:
            freqdomain.export_matrix(o.path("operator_tau0.txt"), op)
        _, bc_max = freqdomain.second_bc_residual(u, ctx, grid)
        rows.append([tau, grid.norm(u), bc_max])
    o.emit(verify.CheckReport(
        "freqdomain_run", params={"grid": list(grid.shape)},
        tables={"per_tau": (["tau", "norm_u", "bc2_residual"], rows)}))


def _neumann(cfg: ExperimentConfig, o: _Output):
    o.emit(verify.check_neumann_identity("sphere", seed=cfg.seed))
    rep = verify.check_neumann_identity("rounded_box", seed=cfg.seed,
                                        delta=cfg.delta)
    rep.name = "neumann_identity_box"
    o.emit(rep)


# kind -> runner(cfg, output); each kind is named only here
_RUNNERS = {
    "timedomain": _timedomain,
    "freqdomain": _freqdomain,
    "check:helmholtz": lambda cfg, o: o.emit(verify.check_helmholtz_identity(
        StretchContext(cfg.taus[0], cfg.profiles()), seed=cfg.seed)),
    "check:neumann": _neumann,
    "check:transverse": lambda cfg, o: o.emit(
        verify.check_transverse_identity(cfg.profiles(), cfg.delta,
                                         cfg.taus, box=cfg.box(),
                                         seed=cfg.seed)),
    "check:coercivity": lambda cfg, o: o.emit(verify.check_coercivity(
        cfg.profiles(), cfg.grid(), cfg.taus, seed=cfg.seed)),
    "check:m_bounds": lambda cfg, o: o.emit(verify.check_m_bounds(
        cfg.box(), cfg.profiles(), [cfg.delta], cfg.taus)),
    "check:reflection": lambda cfg, o: o.emit(verify.reflection_experiment(
        sigma0=max(cfg.sigma0, 1.0), cfl=cfg.cfl)),
    "check:laplace": lambda cfg, o: o.emit(verify.laplace_consistency(
        cfg.grid(), cfg.profiles(), cfg.taus, T=cfg.T, cfl=cfg.cfl)),
    "check:estimate": lambda cfg, o: o.emit(verify.stretched_estimate(
        cfg.profiles(), half=cfg.half_length)),
    "check:stability": lambda cfg, o: o.emit(verify.check_stability(
        cfg.profiles(), lam_set=(cfg.lam, 2 * cfg.lam), cfl=cfg.cfl,
        half=cfg.half_length)),
    "suite:identities": lambda cfg, o: [
        _RUNNERS[k](cfg, o)
        for k in ("check:helmholtz", "check:neumann", "check:transverse")],
    # the registry fixes every setting, so the config's other keys are unused
    "suite:acceptance": lambda cfg, o: [
        o.emit(check(), f"{num:02d}_{title}")
        for num, title, check in verify.ACCEPTANCE],
}
_KINDS = tuple(_RUNNERS)


def _write_manifest(out: Path, artifacts) -> Path:
    mpath = out / "manifest.txt"
    with open(mpath, "w") as fh:
        for p in sorted(set(map(Path, artifacts))):
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            fh.write(f"{digest}  {p.name}\n")
    return mpath


def run_experiment(cfg: ExperimentConfig, out_dir) -> int:
    """Execute one experiment; returns the process exit code."""
    output = _Output(Path(out_dir))
    try:
        output.dir.mkdir(parents=True, exist_ok=True)
        if cfg.kind not in _RUNNERS:
            raise ValidationError(f"unhandled kind {cfg.kind!r}")
        _RUNNERS[cfg.kind](cfg, output)
        _write_manifest(output.dir, output.artifacts)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verdicts = [r.passed for _, r in output.reports]
    for (label, _), ok in zip(output.reports, verdicts):
        print(f"{label}: {'pass' if ok else 'FAIL'}")
    return 0 if all(verdicts) else 2


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ParseError, so they exit 1 like every
    other config error; argparse itself would exit 2, the code of a
    failed check."""

    def error(self, message):
        raise ParseError(message)


def main(argv=None) -> int:
    ap = _ArgumentParser(
        prog="paulipml",
        description="split-field absorbing-layer experiment runner")
    ap.add_argument("config", nargs="?", help="experiment config file")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    ap.add_argument("--list", action="store_true",
                    help="list experiment kinds and exit")
    try:
        args = ap.parse_args(argv)
        if args.list:
            for k in _KINDS:
                print(k)
            return 0
        if args.config is None:
            raise ParseError("config file required unless --list is given")
        if args.seed is not None and args.seed < 0:
            raise ValidationError(f"--seed {args.seed} must be >= 0")
        cfg = parse_config(args.config)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    return run_experiment(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
