"""Config parsing, dispatch, exit codes, and manifest reproducibility
of the experiment runner."""

import numpy as np
import pytest

from paulipml import cli, verify
from paulipml.errors import ParseError, ValidationError


GOOD = """\
[experiment]
kind = check:helmholtz  # fast identity check
seed = 3

[domain]
half_length = 1.0
delta = 0.25

[profile]
sigma0 = 2.0
start = 0.5

[grid]
n = 9

[freq]
tau = 2+1i, 4
"""


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_valid_config(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, GOOD))
    assert cfg.kind == "check:helmholtz"
    assert cfg.seed == 3
    assert cfg.delta == 0.25
    assert cfg.sigma0 == 2.0
    assert cfg.n == 9
    assert cfg.taus == (2 + 1j, 4 + 0j)  # 'i' accepted for the unit
    box = cfg.box()
    assert tuple(box.half_lengths) == (1.0, 1.0, 1.0)
    profs = cfg.profiles()
    assert len(profs) == 3 and profs[0](1.0) == pytest.approx(2.0)


def test_parse_error_reports_line_numbers(tmp_path):
    bad = "[experiment]\nkind = timedomain\nthis line has no equals\n"
    with pytest.raises(ParseError, match="line 3"):
        cli.parse_config(_write(tmp_path, bad))


def test_key_outside_section(tmp_path):
    with pytest.raises(ParseError, match="outside any"):
        cli.parse_config(_write(tmp_path, "kind = timedomain\n"))


def test_validation_errors_are_collected(tmp_path):
    bad = ("[experiment]\nkind = check:nonsense\n"
           "[time]\ncfl = 2.0\n[grid]\nn = 3\n")
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(_write(tmp_path, bad))
    msg = str(exc.value)
    assert "kind" in msg and "cfl" in msg and "n: 3" in msg


def test_unknown_key_is_a_validation_error(tmp_path):
    bad = GOOD + "\n[grid]\nresolution = 9\n"
    with pytest.raises(ValidationError, match="unknown key"):
        cli.parse_config(_write(tmp_path, bad))


NON_FINITE = ("nan", "inf", "-inf")


@pytest.mark.parametrize("section, key, values", [
    *[(section, key, NON_FINITE) for section, key in (
        ("domain", "half_length"), ("domain", "inner_fraction"),
        ("domain", "delta"), ("profile", "sigma0"), ("profile", "start"),
        ("time", "T"), ("time", "cfl"), ("time", "lambda"))],
    ("freq", "tau", NON_FINITE + ("2+nani", "1, 2-infi", "infj"))])
def test_non_finite_value_is_a_validation_error(tmp_path, section, key,
                                                values):
    """NaN passes every range check, so each float key and every tau
    refuses a non-finite value when it is read."""
    for value in values:
        text = (f"[experiment]\nkind = timedomain\n"
                f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValidationError,
                           match=f"bad value for {key}: .* is not finite"):
            cli.parse_config(_write(tmp_path, text))


def test_tau_needs_positive_real_part(tmp_path):
    bad = GOOD.replace("tau = 2+1i, 4", "tau = -2+1i")
    with pytest.raises(ValidationError, match="real part"):
        cli.parse_config(_write(tmp_path, bad))


def test_list_flag(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "timedomain" in out
    assert "suite:identities" in out
    assert "check:stability" in out
    assert "suite:acceptance" in out


def test_missing_config_is_exit_1(tmp_path, capsys):
    assert cli.main([str(tmp_path / "nope.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    [], ["--seed", "abc"], ["--tolerance-scale", "2"]],
    ids=["no-config", "bad-seed", "unknown-flag"])
def test_usage_error_is_exit_1(tmp_path, capsys, flags):
    """A missing config argument, a malformed flag value and an unknown
    flag are config errors (exit 1); exit 2 means a check failed."""
    out = tmp_path / "out"
    argv = flags + ["--out", str(out)]
    if flags:
        argv.insert(0, str(_write(tmp_path, GOOD)))
    assert cli.main(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


def test_helmholtz_check_passes_and_writes_manifest(tmp_path, capsys):
    cfgp = _write(tmp_path, GOOD)
    out = tmp_path / "out"
    assert cli.main([str(cfgp), "--out", str(out)]) == 0
    assert "helmholtz_identity: pass" in capsys.readouterr().out
    manifest = (out / "manifest.txt").read_text()
    assert "report_helmholtz_identity.txt" in manifest
    for line in manifest.splitlines():
        digest, name = line.split()
        assert len(digest) == 64
        assert (out / name).exists()


def test_manifest_reproducible(tmp_path):
    cfgp = _write(tmp_path, GOOD)
    outs = []
    for d in ("o1", "o2"):
        out = tmp_path / d
        assert cli.main([str(cfgp), "--out", str(out)]) == 0
        outs.append((out / "manifest.txt").read_text())
    assert outs[0] == outs[1]


def test_seed_override_changes_artifacts(tmp_path):
    cfgp = _write(tmp_path, GOOD)
    texts = []
    for d, seed in (("s3", "3"), ("s4", "4")):
        out = tmp_path / d
        cli.main([str(cfgp), "--out", str(out), "--seed", seed])
        texts.append((out / "report_helmholtz_identity.txt").read_text())
    assert texts[0] != texts[1]


def test_scaled_run_still_fails_on_broken_control(tmp_path, monkeypatch,
                                                  capsys):
    """A helmholtz report whose negative control failed fails the run,
    though its order criterion holds."""
    check = verify.check_helmholtz_identity

    def broken_control(*args, **kwargs):
        rep = check(*args, **kwargs)
        rep.measured["control_ratio"] = 2.0
        return rep

    monkeypatch.setattr(verify, "check_helmholtz_identity", broken_control)
    cfg = cli.parse_config(_write(tmp_path, GOOD))
    assert cli.run_experiment(cfg, tmp_path / "out") == 2
    assert "helmholtz_identity: FAIL" in capsys.readouterr().out


def test_timedomain_run_artifacts(tmp_path):
    text = ("[experiment]\nkind = timedomain\n"
            "[grid]\nn = 9\n[time]\nT = 0.5\nstride = 2\n")
    cfgp = _write(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main([str(cfgp), "--out", str(out)]) == 0
    assert (out / "probes.csv").exists()
    assert (out / "final_trace.bin").exists()
    assert (out / "final_trace.bin.hdr").exists()
    rep = (out / "report_timedomain_run.txt").read_text()
    assert "measured.volume" in rep


def test_freqdomain_run_artifacts(tmp_path):
    text = ("[experiment]\nkind = freqdomain\n"
            "[grid]\nn = 8\n[freq]\ntau = 2+1j\n")
    cfgp = _write(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main([str(cfgp), "--out", str(out)]) == 0
    assert (out / "solution_tau0.bin").exists()
    assert (out / "operator_tau0.txt").exists()
    assert (out / "freqdomain_run_per_tau.csv").exists()


def test_unwritable_out_dir_is_exit_1(tmp_path, capsys):
    cfgp = _write(tmp_path, GOOD)
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where the output directory should go
    code = cli.main([str(cfgp), "--out", str(blocker / "sub")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("section, line, key", [
    ("time", "stride = 0", "stride"),
    ("experiment", "seed = -1", "seed"),
    ("time", "lambda = 0", "lambda")])
def test_out_of_range_value_is_a_validation_error(tmp_path, section, line,
                                                  key):
    text = f"[experiment]\nkind = timedomain\n[{section}]\n{line}\n"
    with pytest.raises(ValidationError, match=f"{key}: "):
        cli.parse_config(_write(tmp_path, text))


def test_negative_lambda_stability_run_is_a_config_error(tmp_path, capsys):
    text = "[experiment]\nkind = check:stability\n[time]\nlambda = -1\n"
    out = tmp_path / "out"
    assert cli.main([str(_write(tmp_path, text)), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, half, delta", [
    ("check:transverse", 0.1, 0.3),
    ("check:m_bounds", 0.2, 0.5),
    ("check:m_bounds", 0.15, 0.3)])
def test_delta_too_large_for_the_box_is_a_config_error(tmp_path, capsys,
                                                       kind, half, delta):
    """The rounded box needs delta / 2 < half_length.  A config past it,
    or at it, is caught at parse time, before the output directory
    exists."""
    text = (f"[experiment]\nkind = {kind}\n[domain]\nhalf_length = {half}\n"
            f"delta = {delta}\n[profile]\nstart = {half / 2}\n")
    with pytest.raises(ValidationError, match="delta: .* half_length"):
        cli.parse_config(_write(tmp_path, text))
    out = tmp_path / "out"
    assert cli.main([str(_write(tmp_path, text)), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main([str(_write(tmp_path, GOOD)), "--out", str(out),
                     "--seed", "-1"])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_profile_kind_is_a_config_error(tmp_path, capsys):
    """A profile kind that AbsorptionProfile rejects is caught at parse
    time, before the output directory exists."""
    text = "[experiment]\nkind = timedomain\n[profile]\nkind = gaussian\n"
    with pytest.raises(ValidationError, match="profile kind: 'gaussian'"):
        cli.parse_config(_write(tmp_path, text))
    out = tmp_path / "out"
    assert cli.main([str(_write(tmp_path, text)), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def acceptance_01_to_03(monkeypatch):
    """The registry cut to its criteria 01-03, which run in a second."""
    monkeypatch.setattr(verify, "ACCEPTANCE",
                        tuple(e for e in verify.ACCEPTANCE if e[0] <= 3))


def test_acceptance_suite_manifest(tmp_path, acceptance_01_to_03, capsys):
    """The acceptance kind ignores the config's settings, exits 0, and
    writes a reproducible manifest of unique, numbered artifacts."""
    cfgp = _write(tmp_path, GOOD.replace("check:helmholtz",
                                         "suite:acceptance"))
    manifests = []
    for d in ("a1", "a2"):
        out = tmp_path / d
        assert cli.main([str(cfgp), "--out", str(out)]) == 0
        manifests.append((out / "manifest.txt").read_text())
    assert manifests[0] == manifests[1]
    names = [line.split()[1] for line in manifests[0].splitlines()]
    assert len(names) == len(set(names)) == 4
    assert {n[:2] for n in names} == {"01", "02", "03"}
    assert "spectral_algebra: pass" in capsys.readouterr().out


def test_acceptance_suite_fails_on_broken_control(tmp_path, monkeypatch,
                                                  acceptance_01_to_03,
                                                  capsys):
    check = verify.check_helmholtz_identity

    def broken_control(*args, **kwargs):
        rep = check(*args, **kwargs)
        rep.measured["control_ratio"] = 2.0
        return rep

    monkeypatch.setattr(verify, "check_helmholtz_identity", broken_control)
    cfg = cli.parse_config(_write(tmp_path, "[experiment]\n"
                                  "kind = suite:acceptance\n"))
    assert cli.run_experiment(cfg, tmp_path / "out") == 2
    assert "03_helmholtz_identity_absorbing: FAIL" in capsys.readouterr().out


def test_acceptance_verdicts_name_the_registry_entry(tmp_path, monkeypatch,
                                                     capsys):
    """Two registry entries whose reports share a name print one verdict
    line each, under the numbered name each was saved under."""
    def entry(num, title, value):
        return num, title, lambda: verify.CheckReport(
            "shared", measured={"x": value},
            criteria=(verify.Criterion("x_max", "measured.x", "<=", 1.0),))

    monkeypatch.setattr(verify, "ACCEPTANCE", (entry(1, "first", 0.5),
                                               entry(2, "second", 2.0)))
    cfg = cli.parse_config(_write(tmp_path, "[experiment]\n"
                                  "kind = suite:acceptance\n"))
    assert cli.run_experiment(cfg, tmp_path / "out") == 2
    assert capsys.readouterr().out.splitlines() == ["01_first: pass",
                                                    "02_second: FAIL"]
