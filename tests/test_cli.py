"""End-to-end tests of the command-line interface.

Each command is run in-process through ``main`` with stdout captured;
CSV bodies are parsed back and checked against module-level recomputation
or frozen closed-form values.  Exit codes: 0 success, 1 failed
verification, 2 configuration problems, 3 non-convergence.
"""

import csv
import io
import math
import os
import subprocess
import sys

import pytest

import cdmalimits
from cdmalimits import solve_efficiency_sync
from cdmalimits.cli import _DEFAULTS, main

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


# A valid non-default value for every configuration key; boolean keys
# are bare flags that set "true".
_FLAG_VALUES = {
    "waveform": "sinc:1.5", "beta": "0.75", "alpha": "0.5", "ebn0_db": "7",
    "snr": "3", "n0": "0.2", "r": "3", "n": "32", "trials": "5",
    "grid": "256", "density_points": "1024", "n_delays": "32",
    "delays": "zero", "window": "2", "matrix_kind": "block_toeplitz",
    "instances": "10", "seed": "99", "out": "run.csv",
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
        ("ebn0_db", ""), ("snr", ""), ("r", "2"), ("density_points", "2048"),
        ("seed", "12345"), ("out", "-")],
    "figure2": [
        ("alpha", "0.25:2:8"), ("beta", "1"), ("ebn0_db", "10"),
        ("density_points", "2048"), ("seed", "12345"), ("out", "-")],
    "figure3": [
        ("waveform", "rrc:0.22"), ("beta", "0.25:8:10"), ("ebn0_db", "10"),
        ("r", "2"), ("density_points", "2048"), ("seed", "12345"),
        ("out", "-")],
    "montecarlo": [
        ("waveform", "rrc:0.22"), ("beta", "0.5"), ("n0", "0.1"), ("r", "2"),
        ("n", "128"), ("trials", "200"), ("delays", "uniform"),
        ("n_delays", "64"), ("matrix_kind", "block_circulant"),
        ("grid", "512"), ("seed", "12345"), ("out", "-")],
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
    "delays": "random", "window": "1", "matrix_kind": "dense",
    "instances": "0", "sync_baseline": "maybe", "cross_check": "maybe",
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
                                     "--r", "1", "--snr", "10",
                                     "--density-points", "512"])
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
                                     "--r", "1", "--ebn0-db", "10",
                                     "--density-points", "512"])
        assert code == 0
        _, rows = _parse(out)
        snr = float(rows[0]["snr"])
        cap = float(rows[0]["capacity_per_chip"])
        # The reported point satisfies the energy-per-bit identity.
        assert 1.0 * snr / cap == pytest.approx(10.0, rel=1e-4)

    def test_unreachable_ebn0_is_nonconvergence(self, capsys):
        code, _, err = _run(capsys, ["capacity", "--waveform", "sinc:1",
                                     "--r", "1", "--ebn0-db", "-10"])
        assert code == 3
        assert "unreachable" in err


class TestFigureCommands:
    def test_figure2_shape(self, capsys):
        code, out, _ = _run(capsys, ["figure2", "--alpha", "1:2:3",
                                     "--density-points", "512"])
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
        code, out, _ = _run(capsys, ["figure3", "--beta", "1:4:2",
                                     "--density-points", "512"])
        assert code == 0
        _, rows = _parse(out)
        gaps = [float(r["relative_gap"]) for r in rows]
        assert len(gaps) == 2
        assert all(g >= 0.0 for g in gaps)
        assert gaps[1] >= gaps[0]
        for r in rows:
            assert float(r["gamma_async"]) >= float(r["gamma_sync"]) - 1e-12

    def test_figure3_header_reports_peak_gap(self, capsys):
        code, out, _ = _run(capsys, ["figure3", "--beta", "1:4:3",
                                     "--density-points", "512"])
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

    def test_block_toeplitz_kind_runs(self, capsys):
        code, out, _ = _run(capsys, ["montecarlo", "--matrix-kind",
                                     "block_toeplitz", "--n", "32",
                                     "--trials", "2"])
        assert code == 0
        header, rows = _parse(out)
        assert header["matrix_kind"] == "block_toeplitz"
        assert len(rows) == 2 * 16

    def test_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "mc.csv"
        code, out, _ = _run(capsys, self.ARGS + ["--out", str(out_path)])
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("# command = montecarlo")
        assert "predicted_efficiency" in text


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

    def test_no_timestamps(self, capsys):
        _, out, _ = _run(capsys, ["capacity", "--beta", "0", "--snr", "1"])
        assert "202" not in out.split("\n# out")[0]


class TestRuntimeImports:
    def test_commands_load_no_scipy(self, tmp_path):
        # scipy is a test-only dependency: a fresh interpreter that runs
        # the trial and solver commands must never import it.
        runs = [
            ["figure3", "--beta", "1", "--density-points", "64"],
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
