"""The three benchmark workloads: seeded inputs, the timed batch of library
calls, and the correctness gates applied after the timed phase.

Every workload is split into ``prepare`` (builds the inputs; counted in
``setup_s``), ``execute`` (the timed phase; only library calls) and
``check`` (gates; not timed).  The seed changes only the generated inputs;
seed 0 reproduces the acceptance-suite settings.

An *operation* is a run, a solve or a check.  It fails on a raised error, a
failed verdict or a missed correctness gate.
"""

from __future__ import annotations

import json
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from paulipml import cli, freqdomain, timedomain, verify
from paulipml.errors import TruncationWarning
from paulipml.geometry import BoxDomain
from paulipml.stretching import AbsorptionProfile, StretchContext
from paulipml.timedomain import Grid, SimConfig

HALF = 1.0
INNER = 0.5
SIGMA0 = 4.0
PROFILE_START = 0.5
ORDER = 3

# Relative tolerance against the seed-commit scalars at seed 0; see
# README.md ("Seed-0 scalar gate") for how each value was chosen.
SCALAR_RTOL = {"td_laplace": 1e-9, "fd_sweep": 1e-5, "check_suite": 1e-5}
RESIDUAL_GATE = 1e-8      # ||Au - b|| / ||b||, the solver's own rtol
NORM_BOUND_GATE = 1.02    # criterion-11 bound on lam ||e^-lt s|| / ||e^-lt f||

BASELINE_PATH = Path(__file__).with_name("baseline.json")

# Sizes per mode.  "smoke" runs every code path in seconds; its figures are
# not comparable with "full".
SIZES = {
    "full": {
        "td_n": 33, "td_T": 8.0,
        "fd_n": 17,
        "coerc_n": 17, "coerc_fields": 100,
        "stab_sizes": (17, 25), "stab_transit": 10.0,
        "m_density": 40.0,
        "helm_samples": 10, "neumann_points": 15, "transverse_points": 8,
    },
    "smoke": {
        "td_n": 9, "td_T": 8.0,
        "fd_n": 7,
        "coerc_n": 7, "coerc_fields": 6,
        "stab_sizes": (9, 11), "stab_transit": 1.5,
        "m_density": 4.0,
        "helm_samples": 2, "neumann_points": 3, "transverse_points": 2,
    },
}


def box() -> BoxDomain:
    return BoxDomain((HALF,) * 3, inner_fraction=INNER)


def profiles():
    return tuple(AbsorptionProfile(a=PROFILE_START, b=HALF, sigma0=SIGMA0,
                                   kind="polynomial_bump", order=ORDER)
                 for _ in range(3))


@dataclass
class Outcome:
    """Gate results of one batch: one entry per operation."""

    ops: list = field(default_factory=list)       # (name, ok, detail)
    scalars: dict = field(default_factory=dict)   # seed-0 comparable values

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.ops if not ok)


def relative_residual(op, u: np.ndarray) -> float:
    """||Au - b|| / ||b|| for a (2, n1, n2, n3) field u, unknowns ordered
    as freqdomain.solve orders them."""
    x = u.transpose(1, 2, 3, 0).ravel()
    bn = float(np.linalg.norm(op.rhs))
    return float(np.linalg.norm(op.matrix @ x - op.rhs)) / max(bn, 1e-300)


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _compare_scalars(workload: str, out: Outcome, inp: dict,
                     owner: dict) -> None:
    """At seed 0, fail the operation that produced each scalar when it
    differs from the seed-commit value by more than SCALAR_RTOL."""
    if inp["seed"] != 0 or not BASELINE_PATH.exists():
        return
    ref = json.loads(BASELINE_PATH.read_text())["scalars_seed0"][
        inp["size"]][workload]
    rtol = SCALAR_RTOL[workload]
    bad = {}
    for key, want in ref.items():
        got = out.scalars.get(key)
        if got is None or not np.isfinite(got) or _rel_diff(got, want) > rtol:
            bad.setdefault(owner.get(key, key), []).append(
                f"{key}={got!r} vs seed-commit {want!r}")
    for i, (name, ok, detail) in enumerate(out.ops):
        if name in bad:
            out.ops[i] = (name, False,
                          (detail + "; " if detail else "")
                          + "scalar mismatch: " + ", ".join(bad[name]))


# -- td_laplace ----------------------------------------------------------

TD_TAUS = (2.0, 2.0 + 0.5j, 2.0 + 1.0j)
TD_LAMBDA = 1.0


def td_laplace_prepare(seed: int, size: str, workdir: Path) -> dict:
    s = SIZES[size]
    rng = np.random.default_rng(seed)
    if seed == 0:
        center, pol = (0.0, 0.0, 0.0), (1.0, 0.0)
    else:
        center = tuple(rng.uniform(-0.1, 0.1, 3))
        ang = rng.uniform(0.0, 2.0 * np.pi, 2)
        theta = rng.uniform(0.0, 0.5 * np.pi)
        pol = (np.cos(theta) * np.exp(1j * ang[0]),
               np.sin(theta) * np.exp(1j * ang[1]))
    grid = Grid(box(), (s["td_n"],) * 3)
    src = timedomain.gaussian_source(grid, width=0.12, center=center,
                                     polarization=pol, t_off=1.0)
    config = SimConfig(grid, cfl=0.5, T=s["td_T"], probes=((0.0, 0.0, 0.0),),
                       stride=1, lam=TD_LAMBDA)
    return {"config": config, "profiles": profiles(), "source": src}


def td_laplace_execute(inp: dict) -> dict:
    res = {"error": None, "truncated": []}
    try:
        rec = timedomain.run(inp["config"], inp["profiles"], inp["source"])
        res["hats"] = []
        for tau in TD_TAUS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TruncationWarning)
                res["hats"].append(timedomain.laplace_of_trace(rec, tau))
            res["truncated"].append(
                any(issubclass(w.category, TruncationWarning) for w in caught))
        res["norms"] = timedomain.weighted_norms(rec, TD_LAMBDA)
        res["grid"] = rec.grid
        res["probe_max"] = float(np.max(np.abs(rec.probe_series())))
    except (ValueError, ArithmeticError) as exc:
        res["error"] = f"{type(exc).__name__}: {exc}"
    return res


def _source_weighted_norm(src, grid: Grid, lam: float) -> float:
    """||e^{-lam t} f|| over [0, t_off], as check_stability measures it."""
    tq = np.linspace(0.0, src.t_off, 401)
    f2 = np.trapezoid(np.exp(-2 * lam * tq) * src.envelope(tq) ** 2, tq)
    return float(np.sqrt(f2) * grid.norm(src.spatial))


def td_laplace_check(inp: dict, res: dict) -> Outcome:
    out = Outcome()
    if res["error"] is not None:
        # StabilityError or another raise: nothing downstream was computed
        for name in ["run"] + [f"laplace[{t}]" for t in TD_TAUS] \
                + ["weighted_norms"]:
            out.add(name, False, res["error"])
        return out
    out.add("run", np.isfinite(res["probe_max"]))
    out.scalars["probe_max"] = res["probe_max"]
    owner = {"probe_max": "run"}
    for tau, hat, trunc in zip(TD_TAUS, res["hats"], res["truncated"]):
        nrm = res["grid"].norm(hat)
        name = f"laplace[{tau}]"
        out.add(name, np.isfinite(nrm) and not trunc,
                "TruncationWarning" if trunc else "")
        key = f"laplace_norm[{tau}]"
        out.scalars[key] = nrm
        owner[key] = name
    fnorm = _source_weighted_norm(inp["source"], res["grid"], TD_LAMBDA)
    ratio = TD_LAMBDA * res["norms"]["volume"] / fnorm
    out.add("weighted_norms", ratio <= NORM_BOUND_GATE,
            f"weighted ratio {ratio:.4f}")
    out.scalars["weighted_volume"] = res["norms"]["volume"]
    out.scalars["weighted_boundary"] = res["norms"]["boundary"]
    owner["weighted_volume"] = owner["weighted_boundary"] = "weighted_norms"
    _compare_scalars("td_laplace", out, inp, owner)
    return out


# -- fd_sweep ------------------------------------------------------------

FD_TAUS_SEED0 = (complex(2), complex(8), complex(2, 8), complex(8, 8),
                 complex(4, -4))   # stretched_estimate's grid at M = 2


def fd_taus(seed: int):
    """Seed 0: the stretched_estimate grid.  Other seeds move each grid
    point by up to 1 in Re and in Im, kept inside Re in [2, 8], |Im| <= 8.
    Every seed thus covers the same parts of the tau box (4 - 4i stays
    below the real axis), and the factorization work, which depends on
    tau, varies little from seed to seed."""
    if seed == 0:
        return FD_TAUS_SEED0
    jitter = np.random.default_rng(seed).uniform(-1.0, 1.0, (5, 2))
    return tuple(complex(round(float(np.clip(t.real + a, 2.0, 8.0)), 6),
                         round(float(np.clip(t.imag + b, -8.0, 8.0)), 6))
                 for t, (a, b) in zip(FD_TAUS_SEED0, jitter))


def _fmt_tau(t: complex) -> str:
    return f"{t.real:.6f}{t.imag:+.6f}j"


def fd_sweep_prepare(seed: int, size: str, workdir: Path) -> dict:
    s = SIZES[size]
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "fd_sweep.cfg"
    cfg_path.write_text(
        "[experiment]\nkind = freqdomain\n"
        f"seed = {seed}\n"
        f"[domain]\nhalf_length = {HALF}\ninner_fraction = {INNER}\n"
        f"[profile]\nkind = polynomial_bump\nsigma0 = {SIGMA0}\n"
        f"start = {PROFILE_START}\norder = {ORDER}\n"
        f"[grid]\nn = {s['fd_n']}\n"
        "[freq]\ntau = " + ", ".join(_fmt_tau(t) for t in fd_taus(seed))
        + "\n")
    out_dir = workdir / "fd_sweep_out"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    return {"cfg_path": cfg_path, "out_dir": out_dir}


def fd_sweep_execute(inp: dict) -> dict:
    res = {"error": None, "code": None}
    try:
        cfg = cli.parse_config(inp["cfg_path"])
        res["code"] = cli.run_experiment(cfg, inp["out_dir"])
        res["cfg"] = cfg
    except (ValueError, ArithmeticError, OSError) as exc:
        res["error"] = f"{type(exc).__name__}: {exc}"
    return res


def fd_sweep_check(inp: dict, res: dict) -> Outcome:
    """Exit code 0, and for each tau ||Au - b|| / ||b|| <= 1e-8 with u read
    back from the snapshot and A, b re-assembled as the CLI assembles
    them."""
    out = Outcome()
    ok = res["error"] is None and res["code"] == 0
    out.add("run_experiment", ok, res["error"] or f"exit code {res['code']}")
    if res["error"] is not None:
        return out
    cfg = res["cfg"]
    grid = cfg.grid()
    F = timedomain.gaussian_source(grid, width=0.15 * cfg.half_length).spatial
    owner = {}
    for i, tau in enumerate(cfg.taus):
        name = f"solve[{i}]"
        snap = inp["out_dir"] / f"solution_tau{i}.bin"
        if not snap.exists():
            out.add(name, False, "snapshot missing")
            continue
        u, _, _ = timedomain.read_snapshot(snap)
        op = freqdomain.assemble_stretched(StretchContext(tau, cfg.profiles()),
                                           grid, F)
        rel = relative_residual(op, u)
        out.add(name, np.isfinite(rel) and rel <= RESIDUAL_GATE,
                f"residual {rel:.2e}")
        key = f"norm_u[{i}]"
        out.scalars[key] = grid.norm(u)
        owner[key] = name
    _compare_scalars("fd_sweep", out, inp, owner)
    return out


# -- check_suite -----------------------------------------------------------

COERCIVITY_TAUS = (4.0 + 1.0j, 8.0 + 0.5j, 2.0 + 2.0j, 2.0 - 1.0j)
M_BOUNDS_TAUS = tuple(t * (1.0 + 0.5j) for t in (1e2, 1e3, 1e4))


def check_suite_prepare(seed: int, size: str, workdir: Path) -> dict:
    s = SIZES[size]
    return {"s": s, "profiles": profiles(), "box": box(),
            "coerc_grid": Grid(box(), (s["coerc_n"],) * 3)}


def check_suite_execute(inp: dict) -> dict:
    """Run each check; the seed is passed to every check that takes one."""
    s, seed, profs = inp["s"], inp["seed"], inp["profiles"]
    calls = [
        ("helmholtz", lambda: verify.check_helmholtz_identity(
            StretchContext(2.0 + 1.0j, profs), n_samples=s["helm_samples"],
            seed=seed)),
        ("neumann_sphere", lambda: verify.check_neumann_identity(
            "sphere", n_points=s["neumann_points"], seed=seed)),
        ("neumann_box", lambda: verify.check_neumann_identity(
            "rounded_box", n_points=s["neumann_points"], seed=seed)),
        ("transverse", lambda: verify.check_transverse_identity(
            profs, delta=0.3, tau_set=(50.0, 50.0 + 20.0j),
            n_points=s["transverse_points"], seed=seed)),
        ("m_bounds", lambda: verify.check_m_bounds(
            inp["box"], profs, [0.3], M_BOUNDS_TAUS, density=s["m_density"],
            seed=seed)),
        ("coercivity", lambda: verify.check_coercivity(
            profs, inp["coerc_grid"], COERCIVITY_TAUS,
            n_fields=s["coerc_fields"], seed=seed)),
        ("stability", lambda: verify.check_stability(
            profs, grid_sizes=s["stab_sizes"],
            transit_factor=s["stab_transit"])),
    ]
    reports = {}
    for name, call in calls:
        try:
            reports[name] = call()
        except (ValueError, ArithmeticError) as exc:
            reports[name] = f"{type(exc).__name__}: {exc}"
    return {"reports": reports}


# Scalars compared with the seed commit, per check.  face_far_max is left
# out: it is roundoff (~1e-16) and its verdict bound of 1e-12 covers it.
CHECK_SCALARS = {
    "helmholtz": ("orders", "observed"),
    "neumann_sphere": ("orders", "observed"),
    "neumann_box": ("orders", "observed"),
    "transverse": ("orders", "min_observed"),
    "m_bounds": ("measured", "sup_variation"),
    "coercivity": ("measured", "min_ratio"),
    "stability": ("measured", "fitted_c", "refine_growth", "blowup_ratio"),
}


def check_suite_check(inp: dict, res: dict) -> Outcome:
    out = Outcome()
    owner = {}
    for name, rep in res["reports"].items():
        if isinstance(rep, str):
            out.add(name, False, rep)
            continue
        out.add(name, bool(rep.passed), "" if rep.passed else "verdict FAIL")
        section, *keys = CHECK_SCALARS[name]
        for k in keys:
            key = f"{name}.{k}"
            out.scalars[key] = float(np.real(getattr(rep, section)[k]))
            owner[key] = name
        if name == "m_bounds":
            for k in ("sup_norm", "grad_over_beta"):
                key = f"{name}.{k}"
                out.scalars[key] = float(rep.constants[k])
                owner[key] = name
    _compare_scalars("check_suite", out, inp, owner)
    return out


# name -> (prepare(seed, size, workdir), execute(inputs),
#          check(inputs, result))
_WORKLOADS = {
    "td_laplace": (td_laplace_prepare, td_laplace_execute, td_laplace_check),
    "fd_sweep": (fd_sweep_prepare, fd_sweep_execute, fd_sweep_check),
    "check_suite": (check_suite_prepare, check_suite_execute,
                    check_suite_check),
}
WORKLOADS = tuple(_WORKLOADS)


def prepare(name: str, seed: int, size: str, workdir: Path) -> dict:
    if name not in _WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    inp = _WORKLOADS[name][0](seed, size, workdir)
    inp.update(seed=seed, size=size)
    return inp


def execute(name: str, inp: dict) -> dict:
    return _WORKLOADS[name][1](inp)


def check(name: str, inp: dict, res: dict) -> Outcome:
    return _WORKLOADS[name][2](inp, res)
