"""End-to-end tests of the command-line interface.

Each command is run in-process through ``main`` with stdout captured;
CSV bodies are parsed back and checked against module-level recomputation
or frozen closed-form values.  Exit codes: 0 success, 1 failed
verification, 2 invalid input or violated hypothesis, 3 a solver that
cannot deliver.
"""

import csv
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cdmalimits
from cdmalimits import (
    FixedPointReport,
    cli,
    efficiency_of_user,
    sinr_user,
    solve_efficiency_sync,
    solve_upsilon,
)
from cdmalimits.cli import _DEFAULTS, main, render_csv, resolve_config

SYNC_CAPACITY_LOAD1_SNR10 = 2.723326465736502


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse(out):
    """Split a CSV payload into (comment header dict, row dicts)."""
    header = {}
    body_lines = []
    for line in out.splitlines():
        if line.startswith("#"):
            if "=" in line:
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
        else:
            body_lines.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body_lines))))
    return header, rows


def _cells_finite(rows):
    """Whether every nonempty numeric cell is finite."""
    return all(math.isfinite(float(value)) for row in rows
               for key, value in row.items()
               if key != "record" and value != "")


class TestArgumentHandling:
    def test_no_command_exits_with_usage_error(self, capsys):
        code, _, err = _run(capsys, [])
        assert code == 2

    def test_invalid_waveform_spec(self, capsys):
        code, _, err = _run(capsys, ["efficiency", "--waveform", "gauss:1"])
        assert code == 2
        assert "waveform" in err

    def test_malformed_number(self, capsys):
        code, _, err = _run(capsys, ["efficiency", "--beta", "fast"])
        assert code == 2

    def test_range_where_single_value_expected(self, capsys):
        code, _, err = _run(capsys, ["efficiency", "--beta", "0.5:2:4"])
        assert code == 2


class TestConfigResolution:
    def test_dump_config_shows_defaults(self, capsys):
        code, out, _ = _run(capsys, ["efficiency", "--dump-config"])
        assert code == 0
        lines = dict(line.split(" = ", 1) for line in out.strip().splitlines())
        assert lines["beta"] == "1"
        assert lines["waveform"] == "rrc:0.22"
        assert lines["seed"] == "12345"

    def test_file_overrides_default_flag_overrides_file(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nbeta = 2.5\nn0 = 0.3\n")
        code, out, _ = _run(capsys, ["efficiency", "--config", str(cfg),
                                     "--n0", "0.7", "--dump-config"])
        assert code == 0
        lines = dict(line.split(" = ", 1) for line in out.strip().splitlines())
        assert lines["beta"] == "2.5"   # file beats default
        assert lines["n0"] == "0.7"     # flag beats file

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError,
                           match="unknown key 'bogus' for efficiency"):
            resolve_config("efficiency", {}, {"bogus": "1"})

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 1\n")
        code, _, err = _run(capsys, ["efficiency", "--config", str(cfg)])
        assert code == 2
        assert "bogus_key" in err

    def test_missing_config_file(self, capsys):
        code, _, err = _run(capsys, ["efficiency", "--config",
                                     "/nonexistent/run.cfg"])
        assert code == 2

    def test_undecodable_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"beta = \xff\n")
        code, out, err = _run(capsys, ["efficiency", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config file {cfg}: ")


# A valid non-default value for every configuration key; boolean keys
# are bare flags that set "true".
_FLAG_VALUES = {
    "waveform": "sinc:1.5", "beta": "0.75", "alpha": "0.5", "ebn0_db": "7",
    "snr": "3", "n0": "0.2", "r": "3", "n": "32", "trials": "5",
    "grid": "256", "density_points": "1024", "n_delays": "32",
    "delays": "zero", "window": "2", "instances": "10", "seed": "99",
    "out": "run.csv",
}


_BOOLEAN_KEYS = {"sync_baseline", "cross_check", "negative_control"}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, keys in _DEFAULTS.items() for key in keys])
def test_every_config_key_has_a_flag(command, key, capsys):
    flag = "--" + key.replace("_", "-")
    if key in _BOOLEAN_KEYS:
        argv, want = [flag], "true"
    else:
        argv, want = [flag, _FLAG_VALUES[key]], _FLAG_VALUES[key]
    code, out, _ = _run(capsys, [command, *argv, "--dump-config"])
    assert code == 0
    lines = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    assert lines[key] == want


# Every command's keys in order with their defaults.  The CSV header
# repeats these lines after "# command = ...".
_DEFAULT_CONFIGS = {
    "efficiency": [
        ("waveform", "rrc:0.22"), ("beta", "1"), ("n0", "0.1"), ("r", "2"),
        ("grid", "512"), ("density_points", "2048"), ("delays", "uniform"),
        ("n_delays", "64"), ("sync_baseline", "false"),
        ("cross_check", "false"), ("seed", "12345"), ("out", "-")],
    "capacity": [
        ("waveform", "rrc:0.22"), ("beta", "1"), ("n0", "0.1"),
        ("ebn0_db", ""), ("snr", ""), ("r", "2"), ("seed", "12345"),
        ("out", "-")],
    "figure2": [
        ("alpha", "0.25:2:8"), ("beta", "1"), ("ebn0_db", "10"),
        ("seed", "12345"), ("out", "-")],
    "figure3": [
        ("waveform", "rrc:0.22"), ("beta", "0.25:8:10"), ("ebn0_db", "10"),
        ("r", "2"), ("seed", "12345"), ("out", "-")],
    "montecarlo": [
        ("waveform", "rrc:0.22"), ("beta", "0.5"), ("n0", "0.1"), ("r", "2"),
        ("n", "128"), ("trials", "200"), ("delays", "uniform"),
        ("n_delays", "64"), ("grid", "512"), ("seed", "12345"),
        ("out", "-")],
    "theorem3": [
        ("waveform", "rrc:0.22"), ("beta", "0.5"), ("n0", "0.1"), ("r", "2"),
        ("n", "64"), ("trials", "100"), ("window", "3"), ("seed", "12345"),
        ("out", "-")],
    "verify": [
        ("instances", "1000"), ("negative_control", "false"),
        ("seed", "12345"), ("out", "-")],
}


@pytest.mark.parametrize("command", sorted(_DEFAULT_CONFIGS))
def test_default_dump_config_text(command, capsys):
    code, out, err = _run(capsys, [command, "--dump-config"])
    assert (code, err) == (0, "")
    assert out == "".join(f"{key} = {value}\n"
                          for key, value in _DEFAULT_CONFIGS[command])


def test_dump_config_lines_are_the_csv_header(capsys):
    argv = ["capacity", "--beta", "0", "--snr", "1"]
    _, dump, _ = _run(capsys, argv + ["--dump-config"])
    _, out, _ = _run(capsys, argv)
    header = [line for line in out.splitlines() if line.startswith("#")]
    assert header == ["# command = capacity"] + [
        "# " + line for line in dump.splitlines()]


# One invalid value per key.  A path for "out" is only checked when the
# CSV is written, so that key has no entry.
_INVALID_VALUES = {
    "waveform": "gauss:1", "beta": "fast", "alpha": "0", "ebn0_db": "loud",
    "snr": "-1", "n0": "0", "r": "0", "n": "0", "trials": "0",
    "grid": "31", "density_points": "1", "n_delays": "0",
    "delays": "random", "window": "1", "instances": "0",
    "sync_baseline": "maybe", "cross_check": "maybe",
    "negative_control": "maybe", "seed": "-1",
}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, keys in _DEFAULTS.items() for key in keys
    if key != "out"])
def test_invalid_value_names_its_key(command, key, tmp_path, capsys):
    if key in _BOOLEAN_KEYS:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {_INVALID_VALUES[key]}\n")
        argv = ["--config", str(path)]
    else:
        argv = ["--" + key.replace("_", "-"), _INVALID_VALUES[key]]
    code, out, err = _run(capsys, [command, *argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("argv, key", [
    (["efficiency", "--beta", "nan"], "beta"),
    (["efficiency", "--beta", "inf"], "beta"),
    (["figure2", "--alpha", "nan"], "alpha"),
    (["capacity", "--beta", "0.5:inf:3"], "beta"),
    (["figure3", "--beta=-inf:1:3"], "beta"),
    (["figure2", "--alpha", "nan:2:3"], "alpha"),
])
def test_non_finite_grid_values_rejected(argv, key, capsys):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert f"{key} must be finite" in err


def _unconverged_field(monkeypatch):
    report = FixedPointReport(iterations=10000, final_residual=3.021e-10,
                              converged=False)
    monkeypatch.setattr(cli, "solve_upsilon", lambda *args: (None, report))


def _recorded_solves(monkeypatch):
    """Wrap ``cli.solve_upsilon``; returns the list of ``(system,
    start_sinrs)`` it is called with."""
    calls = []

    def solve(system, grid_size, start_sinrs=None):
        calls.append((system, start_sinrs))
        return solve_upsilon(system, grid_size, start_sinrs)

    monkeypatch.setattr(cli, "solve_upsilon", solve)
    return calls


def _singular_solve(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)


def _nan_inverse(monkeypatch):
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: np.full_like(a, np.nan))


def _file(name, text):
    """Patch that writes ``text`` to ``name`` in the run directory."""
    def write(monkeypatch):
        with open(name, "w") as handle:
            handle.write(text)
    return write


def _table(text):
    """Patch that writes ``t.csv`` (header, then ``text``) to the run
    directory."""
    return _file("t.csv", "omega,re\n" + text)


# Invalid input and violated hypotheses exit 2; a solver that cannot
# deliver exits 3.  Each row gives the full stderr line after "error: ".
@pytest.mark.parametrize("argv, patch, code, line", [
    pytest.param(["efficiency", "--beta", "0.5:2:4"], None, 2,
                 "efficiency takes a single beta, not a range",
                 id="beta_range"),
    pytest.param(["efficiency", "--waveform", "sinc"], None, 2,
                 "waveform argument 'sinc' needs kind:parameter",
                 id="waveform_without_parameter"),
    pytest.param(["capacity", "--beta", "1:2"], None, 2,
                 "beta must be a number or lo:hi:count range (got '1:2')",
                 id="two_part_range"),
    pytest.param(["capacity", "--beta", "2:1:5"], None, 2,
                 "beta must be a number or lo:hi:count range (got '2:1:5')",
                 id="descending_range"),
    pytest.param(["montecarlo", "--trials", "x"], None, 2,
                 "trials must be an integer (got 'x')", id="non_integer"),
    pytest.param(["efficiency", "--n0", "inf"], None, 2,
                 "n0 must be finite", id="infinite_n0"),
    pytest.param(["efficiency", "--config", "bad.cfg"],
                 _file("bad.cfg", "beta\n"), 2,
                 "bad.cfg:1: expected key = value", id="config_line"),
    pytest.param(["figure2", "--ebn0-db", ""], None, 2,
                 "figure2 needs ebn0_db", id="figure2_without_ebn0"),
    pytest.param(["figure3", "--ebn0-db", ""], None, 2,
                 "figure3 needs ebn0_db", id="figure3_without_ebn0"),
    pytest.param(["theorem3", "--beta", "0.001"], None, 2,
                 "beta too small: no users at this n", id="no_users"),
    pytest.param(["efficiency", "--r", "1"], None, 2,
                 "undersampled configuration", id="undersampled"),
    pytest.param(["efficiency", "--n-delays", "1"], None, 2,
                 "corollary hypotheses violated: each power level needs "
                 "more than ceil(2B) - 1 uniform, evenly spaced delays over "
                 "one chip, for one-sided bandwidth B in cycles per chip",
                 id="too_few_delays"),
    pytest.param(["efficiency", "--waveform", "table:missing.csv"], None, 2,
                 "bad waveform argument 'table:missing.csv': [Errno 2] No "
                 "such file or directory: 'missing.csv'",
                 id="missing_table"),
    pytest.param(["efficiency", "--waveform", "sinc:inf"], None, 2,
                 "bad waveform argument 'sinc:inf': relative bandwidth "
                 "must be finite and positive", id="infinite_sinc"),
    pytest.param(["efficiency", "--waveform", "sinc:nan"], None, 2,
                 "bad waveform argument 'sinc:nan': relative bandwidth "
                 "must be finite and positive", id="nan_sinc"),
    pytest.param(["efficiency", "--waveform", "table:t.csv", "--r", "1"],
                 _table("-1,0\n1,0\n"), 2,
                 "bad waveform argument 'table:t.csv': tabulated waveform "
                 "has zero energy", id="zero_table"),
    pytest.param(["efficiency", "--waveform", "table:t.csv", "--r", "1"],
                 _table("-3.14159,1e200\n3.14159,1e200\n"), 2,
                 "bad waveform argument 'table:t.csv': largest tabulated "
                 "|value| must lie in [1e-100, 1e+100]",
                 id="overflowing_table"),
    pytest.param(["efficiency", "--waveform", "table:t.csv", "--r", "1"],
                 _table("-3.14159,1e-200\n3.14159,1e-200\n"), 2,
                 "bad waveform argument 'table:t.csv': largest tabulated "
                 "|value| must lie in [1e-100, 1e+100]",
                 id="underflowing_table"),
    pytest.param(["efficiency", "--waveform", "table:t.csv"],
                 _table("-inf,1\n1,1\n"), 2,
                 "bad waveform argument 'table:t.csv': tabulated "
                 "frequencies must be finite", id="infinite_table_omega"),
    pytest.param(["efficiency", "--waveform", "table:t.csv", "--r", "1"],
                 _table("-1,nan\n1,1\n"), 2,
                 "bad waveform argument 'table:t.csv': tabulated values "
                 "must be finite", id="nan_table_value"),
    pytest.param(["efficiency", "--waveform", "table:t.csv", "--r", "1"],
                 _table("-1,inf\n1,1\n"), 2,
                 "bad waveform argument 'table:t.csv': tabulated values "
                 "must be finite", id="infinite_table_value"),
    pytest.param(["capacity", "--snr", "1", "--ebn0-db", "1"], None, 2,
                 "capacity takes snr or ebn0_db, not both",
                 id="snr_and_ebn0"),
    pytest.param(["capacity", "--snr", "5", "--n0", "0.3"], None, 2,
                 "capacity reads n0 only when neither snr nor ebn0_db is set",
                 id="n0_with_snr"),
    pytest.param(["capacity", "--ebn0-db", "10", "--n0", "0.3"], None, 2,
                 "capacity reads n0 only when neither snr nor ebn0_db is set",
                 id="n0_with_ebn0"),
    pytest.param(["capacity", "--ebn0-db", "-5"], None, 3,
                 "unreachable Eb/N0", id="unreachable_ebn0"),
    pytest.param(["efficiency", "--cross-check"], _unconverged_field, 3,
                 "matrix fixed point stopped after 10000 iterations at "
                 "residual 3.021e-10", id="unconverged_field"),
    pytest.param(["efficiency", "--cross-check"], _nan_inverse, 3,
                 "divergence", id="diverging_field"),
    pytest.param(["theorem3", "--n", "16", "--trials", "1"],
                 _singular_solve, 3, "not positive definite",
                 id="not_positive_definite"),
])
def test_failure_exit_code_and_stderr_line(argv, patch, code, line,
                                           monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    if patch is not None:
        patch(monkeypatch)
    assert _run(capsys, argv) == (code, "", f"error: {line}\n")


class TestEfficiencyCommand:
    def test_zero_load_scalar_is_exactly_one(self, capsys):
        code, out, _ = _run(capsys, ["efficiency", "--beta", "0",
                                     "--density-points", "64"])
        assert code == 0
        _, rows = _parse(out)
        scalar = [r for r in rows if r["record"] == "scalar"]
        assert len(scalar) == 1
        assert scalar[0]["value"] == "1.0"

    def test_flat_pulse_matches_sync_baseline(self, capsys):
        code, out, _ = _run(capsys, ["efficiency", "--waveform", "sinc:1",
                                     "--r", "1", "--density-points", "64",
                                     "--sync-baseline"])
        assert code == 0
        _, rows = _parse(out)
        by_record = {r["record"]: float(r["value"]) for r in rows
                     if r["record"] in ("scalar", "sync_baseline")}
        assert by_record["scalar"] == pytest.approx(
            by_record["sync_baseline"], abs=1e-10)
        want = solve_efficiency_sync(1.0, [1.0], [1.0], 0.1)
        assert by_record["scalar"] == pytest.approx(want, abs=1e-10)

    def test_cross_check_matrix_against_scalar(self, capsys):
        code, out, _ = _run(capsys, ["efficiency", "--cross-check",
                                     "--n-delays", "16", "--grid", "128",
                                     "--density-points", "512"])
        assert code == 0
        _, rows = _parse(out)
        scalar = float([r for r in rows if r["record"] == "scalar"][0]["value"])
        matrix = float([r for r in rows
                        if r["record"] == "matrix_mean"][0]["value"])
        assert abs(matrix - scalar) / scalar <= 1e-3
        users = [r for r in rows if r["record"] == "user_efficiency"]
        assert len(users) == 16
        assert {r["delay_chips"] != "" for r in users} == {True}

    def test_cross_check_starts_from_the_printed_scalar(self, monkeypatch,
                                                       capsys):
        # The matrix iteration starts from lam * E * eta / N0 of the
        # printed scalar row, and its cells lie within 5e-10 of a solve
        # started from I / sigma^2.
        calls = _recorded_solves(monkeypatch)
        code, out, _ = _run(capsys, ["efficiency", "--cross-check"])
        assert code == 0
        (system, start), = calls
        _, rows = _parse(out)
        eta = float([r for r in rows if r["record"] == "scalar"][0]["value"])
        law = system.law
        assert np.allclose(start, law.powers * system.waveform.energy * eta
                           / system.noise_density, rtol=1e-15, atol=0.0)
        field, report = solve_upsilon(system)
        assert report.converged
        cold = efficiency_of_user(
            sinr_user(field, system, law.powers, law.delays), law.powers,
            system)
        users = [float(r["value"]) for r in rows
                 if r["record"] == "user_efficiency"]
        mean = float([r for r in rows
                      if r["record"] == "matrix_mean"][0]["value"])
        assert np.max(np.abs(np.array(users) - cold) / cold) <= 5e-10
        assert abs(mean - law.weights @ cold) <= 5e-10 * mean

    def test_density_rows_cover_support(self, capsys):
        code, out, _ = _run(capsys, ["efficiency", "--density-points", "32"])
        assert code == 0
        _, rows = _parse(out)
        density = [r for r in rows if r["record"] == "density"]
        assert len(density) == 32
        omegas = [float(r["omega"]) for r in density]
        edge = 2 * math.pi * 0.61
        assert all(-edge < w < edge for w in omegas)
        assert all(0.0 < float(r["value"]) <= 1.0 for r in density)

    def test_hypothesis_violation_exit_code_and_message(self, capsys):
        code, _, err = _run(capsys, ["efficiency", "--delays", "zero"])
        assert code == 2
        assert "uniform" in err and "bandwidth" in err

    @pytest.mark.parametrize("argv", [
        ["--n-delays", "1", "--cross-check"],
        ["--waveform", "sinc:3", "--r", "3", "--n-delays", "2"],
    ])
    def test_too_few_delays_for_the_alias_spread(self, capsys, argv):
        code, out, err = _run(capsys, ["efficiency"] + argv)
        assert code == 2
        assert out == ""
        assert "ceil(2B) - 1" in err

    def test_two_delays_suffice_below_one_cycle_per_chip(self, capsys):
        code, out, _ = _run(capsys, ["efficiency", "--n-delays", "2",
                                     "--cross-check"])
        assert code == 0
        _, rows = _parse(out)
        value = {r["record"]: float(r["value"]) for r in rows
                 if r["record"] in ("scalar", "matrix_mean")}
        assert value["matrix_mean"] == pytest.approx(value["scalar"],
                                                     abs=1e-6)


class TestCapacityCommand:
    def test_explicit_snr_matches_closed_form(self, capsys):
        code, out, _ = _run(capsys, ["capacity", "--waveform", "sinc:1",
                                     "--r", "1", "--snr", "10"])
        assert code == 0
        _, rows = _parse(out)
        assert len(rows) == 1
        cap = float(rows[0]["capacity_per_chip"])
        assert cap == pytest.approx(SYNC_CAPACITY_LOAD1_SNR10, rel=1e-4)
        # One-sided bandwidth accounting: T_c * B = 1/2.
        assert float(rows[0]["spectral_efficiency"]) == \
            pytest.approx(2.0 * cap, rel=1e-12)
        assert float(rows[0]["ebn0_db"]) == pytest.approx(
            10.0 * math.log10(1.0 * 10.0 / cap), rel=1e-9)

    def test_zero_load_short_circuit(self, capsys):
        code, out, _ = _run(capsys, ["capacity", "--beta", "0",
                                     "--snr", "10"])
        assert code == 0
        _, rows = _parse(out)
        assert float(rows[0]["capacity_per_chip"]) == 0.0

    def test_operating_point_from_ebn0(self, capsys):
        code, out, _ = _run(capsys, ["capacity", "--waveform", "sinc:1",
                                     "--r", "1", "--ebn0-db", "10"])
        assert code == 0
        _, rows = _parse(out)
        snr = float(rows[0]["snr"])
        cap = float(rows[0]["capacity_per_chip"])
        # The reported point satisfies the energy-per-bit identity.
        assert 1.0 * snr / cap == pytest.approx(10.0, rel=1e-4)

    def test_snr_and_ebn0_together_rejected(self, capsys):
        # Either one fixes the operating point; a row at the SNR under a
        # header naming the Eb/N0 would contradict itself.
        code, out, err = _run(capsys, ["capacity", "--ebn0-db", "10",
                                       "--snr", "5"])
        assert code == 2
        assert out == ""
        assert "capacity takes snr or ebn0_db, not both" in err

    def test_unreachable_ebn0_is_nonconvergence(self, capsys):
        code, _, err = _run(capsys, ["capacity", "--waveform", "sinc:1",
                                     "--r", "1", "--ebn0-db", "-10"])
        assert code == 3
        assert "unreachable" in err


class TestFigureCommands:
    def test_figure2_shape(self, capsys):
        code, out, _ = _run(capsys, ["figure2", "--alpha", "1:2:3"])
        assert code == 0
        _, rows = _parse(out)
        assert [float(r["alpha"]) for r in rows] == [1.0, 1.5, 2.0]
        async_gamma = [float(r["gamma_async_sinc"]) for r in rows]
        sync_gamma = [float(r["gamma_sync"]) for r in rows]
        # Equal at alpha = 1, async above sync beyond, decreasing in alpha.
        assert async_gamma[0] == pytest.approx(sync_gamma[0], rel=1e-3)
        assert async_gamma[2] > sync_gamma[2]
        assert async_gamma[0] > async_gamma[1] > async_gamma[2]

    def test_figure3_gap_nonnegative_and_growing(self, capsys):
        code, out, _ = _run(capsys, ["figure3", "--beta", "1:4:2"])
        assert code == 0
        _, rows = _parse(out)
        gaps = [float(r["relative_gap"]) for r in rows]
        assert len(gaps) == 2
        assert all(g >= 0.0 for g in gaps)
        assert gaps[1] >= gaps[0]
        for r in rows:
            assert float(r["gamma_async"]) >= float(r["gamma_sync"]) - 1e-12

    def test_figure3_header_reports_peak_gap(self, capsys):
        code, out, _ = _run(capsys, ["figure3", "--beta", "1:4:3"])
        assert code == 0
        header, rows = _parse(out)
        peak = max(rows, key=lambda r: float(r["relative_gap"]))
        assert header["peak_relative_gap"] == peak["relative_gap"]
        assert header["peak_gap_beta"] == peak["beta"]
        # Below the minimum Eb/N0 no load has a gap: both lines stay empty.
        argv = ["figure3", "--beta", "1", "--ebn0-db", "-3"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        header, _ = _parse(out)
        assert header["peak_relative_gap"] == header["peak_gap_beta"] == ""

    def test_zero_load_rows(self, capsys):
        # At zero load no user transmits: zero spectral efficiency on both
        # sides and no gap, as capacity reports for beta = 0.
        code, out, _ = _run(capsys, ["figure3", "--beta", "0:2:3"])
        assert code == 0
        header, rows = _parse(out)
        assert [float(r["beta"]) for r in rows] == [0.0, 1.0, 2.0]
        assert (rows[0]["gamma_async"], rows[0]["gamma_sync"],
                rows[0]["relative_gap"]) == ("0.0", "0.0", "")
        assert all(float(r["relative_gap"]) > 0.0 for r in rows[1:])
        assert header["peak_gap_beta"] == "2.0"
        code, out, _ = _run(capsys, ["figure2", "--beta", "0",
                                     "--alpha", "0.5:2:2"])
        assert code == 0
        _, rows = _parse(out)
        assert [(r["gamma_async_sinc"], r["gamma_sync"]) for r in rows] == \
            [("0.0", "0.0")] * 2


class TestRangeCorners:
    """Commands at the corners of the documented ranges: beta up to 16,
    N0 down to 1e-14, and Eb/N0 targets up to snr = 1e18."""

    def test_heaviest_load_at_lowest_noise(self, capsys):
        code, out, err = _run(capsys, ["efficiency", "--beta", "16",
                                       "--n0", "1e-14",
                                       "--density-points", "64"])
        assert (code, err) == (0, "")
        _, rows = _parse(out)
        scalar = [float(r["value"]) for r in rows if r["record"] == "scalar"]
        assert len(scalar) == 1 and 0.0 < scalar[0] < 1e-14

    def test_flat_pulse_at_lowest_noise_matches_sync_baseline(self, capsys):
        code, out, _ = _run(capsys, ["efficiency", "--waveform", "sinc:1",
                                     "--r", "1", "--beta", "2",
                                     "--n0", "1e-14", "--density-points",
                                     "64", "--sync-baseline"])
        assert code == 0
        _, rows = _parse(out)
        value = {r["record"]: float(r["value"]) for r in rows
                 if r["record"] in ("scalar", "sync_baseline")}
        assert value["scalar"] == pytest.approx(value["sync_baseline"],
                                                rel=1e-10, abs=0.0)

    def test_figure3_at_140_db_fills_every_cell(self, capsys):
        code, out, err = _run(capsys, ["figure3", "--beta", "0.25:8:3",
                                       "--ebn0-db", "140"])
        assert (code, err) == (0, "")
        _, rows = _parse(out)
        for r in rows:
            assert float(r["gamma_async"]) >= float(r["gamma_sync"])
            assert float(r["relative_gap"]) >= 0.0

    def test_figure3_at_160_db_warns_for_each_empty_cell(self, capsys):
        code, out, err = _run(capsys, ["figure3", "--beta", "0.25:8:3",
                                       "--ebn0-db", "160"])
        assert code == 0
        _, rows = _parse(out)
        empty = [(r["beta"], column) for r in rows
                 for column in ("gamma_async", "gamma_sync")
                 if r[column] == ""]
        warnings = err.splitlines()
        assert len(warnings) == len(empty)
        assert all(w.endswith(": unreachable Eb/N0") for w in warnings)
        filled = [r for r in rows if r["relative_gap"] != ""]
        assert filled
        for r in filled:
            assert float(r["gamma_async"]) >= float(r["gamma_sync"])

    @pytest.mark.parametrize("argv", [
        ["efficiency"], ["capacity", "--snr", "10"], ["figure3"]],
        ids=["efficiency", "capacity", "figure3"])
    def test_asymmetric_table(self, argv, tmp_path, capsys):
        # A table may span any increasing frequencies, with Phi = 0 outside.
        path = tmp_path / "asymmetric.csv"
        path.write_text("omega,real\n-2.0,1\n0.0,1\n3.0,0.5\n")
        code, out, err = _run(capsys, [*argv, "--waveform", f"table:{path}",
                                       "--r", "1"])
        assert (code, err) == (0, "")
        _, rows = _parse(out)
        assert rows and _cells_finite(rows)

    @pytest.mark.parametrize("peak", [1e-100, 1e100])
    def test_flat_table_at_either_peak_limit_is_sinc(self, peak, tmp_path,
                                                     capsys):
        # A flat table over [-pi, pi] at either end of the documented peak
        # range is sinc:1 with energy peak**2: the same capacity per chip
        # at a given snr, and the same efficiencies at N0 = 0.1 E, on the
        # scalar and the matrix route.  Just past these ends, 2e-154 ended
        # in an OverflowError and 1.3e154 printed a wrong capacity with
        # exit 0.  While the matrix route stopped at an absolute residual,
        # 1e100 printed wrong matrix cells with exit 0 and 1e-100 exited 3.
        path = tmp_path / "flat.csv"
        path.write_text(f"omega,real\n{-math.pi!r},{peak!r}\n"
                        f"{math.pi!r},{peak!r}\n")
        energy = cdmalimits.load_tabulated_waveform(path).energy
        assert energy == pytest.approx(peak ** 2, rel=1e-15)

        def efficiencies(header, rows):
            return [float(r["value"]) for r in rows if r["record"] in
                    ("scalar", "user_efficiency", "matrix_mean")]

        def cells(waveform, n0):
            """Capacity per chip at snr 10; at n0 the scalar and matrix
            efficiencies and montecarlo's predicted mean."""
            found = []
            for argv, pick in (
                    (["capacity", "--snr", "10"],
                     lambda header, rows: [float(r["capacity_per_chip"])
                                           for r in rows]),
                    (["efficiency", "--n0", repr(n0), "--density-points",
                      "8", "--cross-check", "--grid", "64"], efficiencies),
                    (["montecarlo", "--n0", repr(n0), "--n", "16",
                      "--trials", "2", "--seed", "7", "--grid", "64"],
                     lambda header, rows: [
                         float(header["predicted_mean_efficiency"])])):
                code, out, err = _run(capsys, [*argv, "--waveform",
                                               waveform, "--r", "1"])
                assert (code, err) == (0, "")
                found += pick(*_parse(out))
            return found

        want = cells("sinc:1", 0.1)
        assert len(want) == 1 + 66 + 1
        assert cells(f"table:{path}", 0.1 * energy) == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["capacity", "--beta", "0:16:5", "--ebn0-db", "150"],
        ["figure2", "--ebn0-db", "150", "--alpha", "0.25:2:3"],
        ["theorem3", "--n", "16", "--n0", "1e-14", "--trials", "2"],
        ["theorem3", "--n", "8", "--beta", "16", "--trials", "2"],
        ["montecarlo", "--n", "16", "--beta", "16", "--trials", "2",
         "--grid", "32"],
        # Equal powers over uniform delays need no delay grid, however
        # wide the pulse.
        ["capacity", "--waveform", "sinc:70", "--r", "70", "--snr", "10"],
        ["figure2", "--alpha", "100", "--ebn0-db", "10"],
        ["figure3", "--waveform", "sinc:65", "--r", "65", "--beta", "1",
         "--ebn0-db", "10"],
    ], ids=["capacity", "figure2", "theorem3_n0", "theorem3_beta",
            "montecarlo_beta", "capacity_wide", "figure2_wide",
            "figure3_wide"])
    def test_command_at_a_corner(self, argv, capsys):
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        _, rows = _parse(out)
        assert rows and _cells_finite(rows)

    def test_wide_flat_pulse_capacity_is_scaled_synchronous(self, capsys):
        # A flat pulse of relative bandwidth alpha carries alpha times the
        # synchronous capacity at load beta/alpha.
        code, out, _ = _run(capsys, ["capacity", "--waveform", "sinc:70",
                                     "--r", "70", "--snr", "10"])
        assert code == 0
        _, rows = _parse(out)
        want = 70.0 * cdmalimits.capacity_sync_closed_form(1.0 / 70.0, 10.0)
        assert float(rows[0]["capacity_per_chip"]) == pytest.approx(
            want, rel=1e-14, abs=0.0)

    def test_widest_rrc_at_160_db_leaves_one_cell_empty(self, capsys):
        code, out, err = _run(capsys, ["figure3", "--waveform", "rrc:1",
                                       "--beta", "0:16:3", "--ebn0-db",
                                       "160"])
        assert (code, err) == (0, "warning: load 8: unreachable Eb/N0\n")
        _, rows = _parse(out)
        empty = [(r["beta"], column) for r in rows
                 for column in ("gamma_async", "gamma_sync")
                 if r[column] == ""]
        assert empty == [("8.0", "gamma_async")]
        assert _cells_finite(rows)


@pytest.mark.parametrize("waveform", [
    cdmalimits.root_raised_cosine_waveform(0.22),
    cdmalimits.sinc_waveform(1.9),
    cdmalimits.tabulated_waveform([-2.0, 0.0, 3.0], [1.0, 1.0, 0.5]),
], ids=["rrc", "sinc", "asymmetric_table"])
def test_capacity_curve_is_the_uniform_delay_capacity(waveform):
    # Equal powers on 64 uniform delays have one unit power level, so the
    # curve's unit levels give their capacity to the last bit.
    r = waveform.min_oversampling
    curve = cli._capacity_curve(waveform, 1.5, r)
    sys_law = cdmalimits.SystemLaw(
        load=1.5, noise_density=1.0, oversampling=r, waveform=waveform,
        law=cdmalimits.equal_power_uniform_delays(64))
    for snr in (1e-9, 1e-3, 1.0, 10.0, 1e6, 1e18):
        assert curve(snr) == cdmalimits.capacity_constrained(sys_law, snr)


class TestMonteCarloCommand:
    ARGS = ["montecarlo", "--n", "16", "--trials", "2", "--n-delays", "4",
            "--grid", "128"]

    def test_byte_identical_reruns(self, capsys):
        code1, out1, _ = _run(capsys, self.ARGS)
        code2, out2, _ = _run(capsys, self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_prediction_independent_of_seed(self, capsys):
        _, out1, _ = _run(capsys, self.ARGS + ["--seed", "1"])
        _, out2, _ = _run(capsys, self.ARGS + ["--seed", "2"])
        h1, rows1 = _parse(out1)
        h2, rows2 = _parse(out2)
        assert h1["predicted_mean_efficiency"] == \
            h2["predicted_mean_efficiency"]
        assert h1["empirical_mean_efficiency"] != \
            h2["empirical_mean_efficiency"]
        assert rows1[0]["predicted_efficiency"] == \
            rows2[0]["predicted_efficiency"]
        assert rows1[0]["sinr"] != rows2[0]["sinr"]

    def test_prediction_starts_at_the_field_bound(self, monkeypatch,
                                                  capsys):
        # No scalar solution is at hand, so the prediction's iteration
        # starts from I / sigma^2.
        calls = _recorded_solves(monkeypatch)
        code, _, _ = _run(capsys, self.ARGS)
        assert code == 0
        assert [start for _, start in calls] == [None]

    def test_row_structure(self, capsys):
        code, out, _ = _run(capsys, self.ARGS)
        assert code == 0
        header, rows = _parse(out)
        assert header["n_users"] == "8"
        assert len(rows) == 2 * 8
        assert [int(r["trial"]) for r in rows] == [0] * 8 + [1] * 8
        assert [int(r["user"]) for r in rows] == list(range(8)) * 2
        for r in rows:
            assert float(r["sinr"]) > 0.0
            assert 0.0 < float(r["efficiency"]) < 1.0

    def test_gap_in_standard_errors(self, capsys):
        code, out, _ = _run(capsys, self.ARGS)
        assert code == 0
        header, _ = _parse(out)
        gap = (float(header["empirical_mean_efficiency"]) -
               float(header["predicted_mean_efficiency"]))
        assert float(header["gap_standard_errors"]) == pytest.approx(
            gap / float(header["standard_error"]), rel=1e-12)
        code, out, _ = _run(capsys, self.ARGS + ["--trials", "1"])
        assert code == 0
        header, _ = _parse(out)
        assert header["standard_error"] == "0.0"
        assert header["gap_standard_errors"] == ""

    def test_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "mc.csv"
        code, out, _ = _run(capsys, self.ARGS + ["--out", str(out_path)])
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("# command = montecarlo")
        assert "predicted_efficiency" in text

    def test_creates_missing_output_directory(self, tmp_path, capsys):
        out_path = tmp_path / "out" / "figures" / "mc.csv"
        code, _, _ = _run(capsys, self.ARGS + ["--out", str(out_path)])
        assert code == 0
        assert out_path.read_text().startswith("# command = montecarlo")


class TestTheorem3Command:
    def test_windowed_vs_reduced_rows(self, capsys):
        code, out, _ = _run(capsys, ["theorem3", "--n", "16", "--beta",
                                     "0.25", "--trials", "4", "--window",
                                     "2"])
        assert code == 0
        _, rows = _parse(out)
        records = {r["record"]: r for r in rows}
        assert set(records) == {"windowed", "reduced", "difference"}
        gap = abs(float(records["difference"]["mean_sinr"]))
        width = float(records["difference"]["sinr_standard_error"])
        assert gap <= 2.0 * width
        assert int(records["windowed"]["trials"]) == 4

    def test_undersampled_exit_code(self, capsys):
        # RRC 0.22 needs r >= 2, as it does for montecarlo.
        code, out, err = _run(capsys, ["theorem3", "--r", "1", "--n", "16",
                                       "--trials", "1"])
        assert code == 2
        assert out == ""
        assert "undersampled configuration" in err

    def test_byte_identical_reruns(self, capsys):
        args = ["theorem3", "--n", "16", "--beta", "0.5", "--trials", "3",
                "--window", "2", "--seed", "5"]
        code1, out1, _ = _run(capsys, args)
        code2, out2, _ = _run(capsys, args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestVerifyCommand:
    def test_fresh_run_passes(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--instances", "3"])
        assert code == 0
        _, rows = _parse(out)
        assert len(rows) == 8
        assert {r["status"] for r in rows} == {"pass"}
        for r in rows:
            assert float(r["residual"]) <= float(r["tolerance"])

    def test_negative_control_fails_trace_check(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--instances", "3",
                                     "--negative-control"])
        assert code == 1
        _, rows = _parse(out)
        by_check = {r["check"]: r["status"] for r in rows}
        assert by_check["trace_annihilation"] == "fail"


class TestCsvConventions:
    def test_header_embeds_resolved_config_and_seed(self, capsys):
        code, out, _ = _run(capsys, ["efficiency", "--beta", "0",
                                     "--density-points", "32",
                                     "--seed", "777"])
        assert code == 0
        header, _ = _parse(out)
        assert header["command"] == "efficiency"
        assert header["seed"] == "777"
        assert header["beta"] == "0"
        assert "out" in header

    def test_rows_match_column_count(self, capsys):
        _, out, _ = _run(capsys, ["efficiency", "--density-points", "32"])
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        width = len(lines[0].split(","))
        assert all(len(l.split(",")) == width for l in lines)

    def test_cells_print_shortest_round_trip(self):
        row = (np.float64(0.1), np.int64(3), "", None, 1e-05, -0.0, 1e16,
               5e-324, 2)
        cfg = resolve_config("verify", {}, {})
        text = render_csv(cfg, [str(i) for i in range(len(row))], [row])
        line = text.splitlines()[-1]
        assert line == "0.1,3,,,1e-05,-0.0,1e+16,5e-324,2"
        for cell, value in zip(line.split(","), row):
            if isinstance(value, float):
                assert float(cell) == value
                assert math.copysign(1.0, float(cell)) == \
                    math.copysign(1.0, value)

    def test_numpy_and_python_floats_print_alike(self):
        # The trial and efficiency rows hand render_csv Python floats
        # (``tolist``); their text must stay what numpy scalars print.
        # 1e16 and the float below it straddle the switch to exponents.
        values = [1e16, math.nextafter(1e16, 0.0), 1e-5, 1e-4, -0.0, 5e-324,
                  sys.float_info.max, math.nan, math.inf, -math.inf]
        cfg = resolve_config("verify", {}, {})
        columns = [str(i) for i in range(len(values))]
        numpy_row = [np.float64(value) for value in values]
        as_python = render_csv(cfg, columns, [values])
        assert render_csv(cfg, columns, [numpy_row]) == as_python
        assert as_python.splitlines()[-1] == (
            "1e+16,9999999999999998.0,1e-05,0.0001,-0.0,5e-324,"
            "1.7976931348623157e+308,nan,inf,-inf")

    def test_no_timestamps(self, capsys):
        _, out, _ = _run(capsys, ["capacity", "--beta", "0", "--snr", "1"])
        assert "202" not in out.split("\n# out")[0]


class TestRuntimeImports:
    def test_commands_load_no_scipy(self, tmp_path):
        # scipy is a test-only dependency: a fresh interpreter that runs
        # the trial and solver commands must never import it.
        runs = [
            ["figure3", "--beta", "1"],
            ["efficiency", "--cross-check", "--n-delays", "4", "--grid",
             "32", "--density-points", "64"],
            ["montecarlo", "--n", "8", "--trials", "1", "--n-delays", "2",
             "--grid", "32"],
            ["theorem3", "--n", "8", "--beta", "0.5", "--trials", "1",
             "--window", "2"],
        ]
        runs = [argv + ["--out", str(tmp_path / f"{argv[0]}.csv")]
                for argv in runs]
        script = (
            "import sys\n"
            "from cdmalimits.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(name for name in sys.modules\n"
            "                    if name.partition('.')[0] == 'scipy'))\n")
        src = os.path.dirname(os.path.dirname(cdmalimits.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"
