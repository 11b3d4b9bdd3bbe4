"""A seeded random sweep of the command line over the documented ranges.

Each draw picks a pulse (``sinc:alpha``, ``rrc:rho`` or a random complex
table of 2 to 11 nodes), passes it at its smallest valid oversampling,
picks a command (``efficiency``, ``capacity --snr``, ``capacity
--ebn0-db`` or ``figure3``) and a load, noise level, SNR or Eb/N0 target
inside the README's ranges, and runs it in-process through ``cli.main``.
A draw passes when it exits 0 with finite cells, or exits 3 with an
``error:`` line naming the solver that could not deliver.  A ``figure3``
cell may be empty only beside its "unreachable Eb/N0" warning.  On
``sinc:alpha`` the scalar efficiency must match the equal-power quadratic
root at the effective load ``beta / alpha``.  A numpy warning fails the
draw, as everywhere in the suite.

The sweep guards the scalar routes and the Eb/N0 inversion; the matrix
route (``efficiency --cross-check``) is left out while it still stops
unconverged at some documented points.
"""

import contextlib
import csv
import io
import math

import numpy as np
import pytest

from cdmalimits import (
    load_tabulated_waveform,
    root_raised_cosine_waveform,
    sinc_waveform,
)
from cdmalimits.cli import main

from conftest import quadratic_root

SEED = 20240611
DRAWS = 300
COMMANDS = ("efficiency", "capacity_snr", "capacity_ebn0", "figure3")

#: The messages of the scalar solvers' ``SolverError``.
SOLVER_ERRORS = ("unreachable Eb/N0", "bracket")


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _load(rng):
    """A load in [0, 16]: zero one time in ten, else uniform or
    log-uniform down to 1e-3, half the time each."""
    if rng.random() < 0.1:
        return 0.0
    if rng.random() < 0.5:
        return float(rng.uniform(0.0, 16.0))
    return _log_uniform(rng, 1e-3, 16.0)


def _pulse(rng, directory, index):
    """``(waveform argument, waveform)`` of a random pulse; a table is
    written to ``directory``."""
    kind = rng.integers(3)
    if kind == 0:
        alpha = _log_uniform(rng, 0.1, 30.0)
        return f"sinc:{alpha!r}", sinc_waveform(alpha)
    if kind == 1:
        rho = float(rng.uniform(0.0, 1.0))
        return f"rrc:{rho!r}", root_raised_cosine_waveform(rho)
    nodes = int(rng.integers(2, 12))
    omegas = np.sort(rng.uniform(-2.0 * np.pi, 2.0 * np.pi, nodes))
    # Peaks anywhere in the documented table range [1e-100, 1e100].
    scale = 10.0 ** rng.uniform(-99.0, 99.0)
    values = scale * (rng.standard_normal(nodes)
                      + 1j * rng.standard_normal(nodes))
    path = directory / f"table{index}.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["omega", "real", "imag"])
        writer.writerows((repr(float(w)), repr(float(v.real)),
                          repr(float(v.imag)))
                         for w, v in zip(omegas, values))
    return f"table:{path}", load_tabulated_waveform(path)


def _draw(rng, directory, index):
    """``(command, argv, facts)`` of one draw; ``facts`` holds what the
    checks need."""
    spec, waveform = _pulse(rng, directory, index)
    command = COMMANDS[rng.integers(len(COMMANDS))]
    base = ["--waveform", spec, "--r", str(waveform.min_oversampling)]
    facts = {"waveform": waveform}
    if command == "efficiency":
        beta = _load(rng)
        if waveform.kind == "sinc" and rng.random() < 0.2:
            beta = waveform.relative_bandwidth  # the critical load
        # N0 relative to the pulse energy, which a table scales.
        n0 = waveform.energy * _log_uniform(rng, 1e-14, 10.0)
        facts.update(beta=beta, n0=n0)
        return command, ["efficiency", *base, "--beta", repr(beta),
                         "--n0", repr(n0), "--density-points", "16"], facts
    if command == "capacity_snr":
        snr = _log_uniform(rng, 1e-9, 1e18)
        return command, ["capacity", *base, "--beta", repr(_load(rng)),
                         "--snr", repr(snr)], facts
    target = repr(float(rng.uniform(-1.5, 160.0)))
    if command == "capacity_ebn0":
        return command, ["capacity", *base, "--beta", repr(_load(rng)),
                         "--ebn0-db", target], facts
    lo, hi = sorted((_load(rng), _load(rng)))
    count = int(rng.integers(1, 4))
    betas = repr(lo) if count == 1 or lo == hi else f"{lo!r}:{hi!r}:{count}"
    return command, ["figure3", *base, "--beta", betas,
                     "--ebn0-db", target], facts


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _rows(out):
    """``(header, rows)``: the ``# key = value`` lines as a dict, and the
    CSV body as row dicts."""
    header, body = {}, []
    for line in out.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        else:
            body.append(line)
    return header, list(csv.DictReader(body))


def _finite(text):
    return math.isfinite(float(text))


def _check_efficiency(out, err, facts):
    assert err == ""
    _, rows = _rows(out)
    density = [r for r in rows if r["record"] == "density"]
    assert len(density) == 16
    assert all(_finite(r["omega"]) and float(r["value"]) >= 0.0
               and _finite(r["value"]) for r in density)
    (scalar,) = [float(r["value"]) for r in rows if r["record"] == "scalar"]
    assert 0.0 < scalar <= 1.0
    waveform = facts["waveform"]
    if waveform.kind == "sinc":
        alpha, n0 = waveform.relative_bandwidth, facts["n0"]
        load = facts["beta"] / alpha
        rel = 1e-9 if load == 1.0 and n0 < 1e-12 else 1e-10
        assert scalar == pytest.approx(quadratic_root(load, n0), rel=rel,
                                       abs=0.0)


def _check_capacity(out, err, facts):
    assert err == ""
    _, rows = _rows(out)
    (row,) = rows
    if float(row["beta"]) == 0.0:
        assert (row["snr"], row["ebn0_db"]) == ("", "")
        assert float(row["capacity_per_chip"]) == 0.0
        return
    cells = [row[k] for k in ("snr", "ebn0_db", "capacity_per_chip",
                              "spectral_efficiency")]
    assert all(_finite(cell) for cell in cells)
    assert float(row["capacity_per_chip"]) > 0.0


def _check_figure3(out, err, facts):
    header, rows = _rows(out)
    unreachable = {line.split(":")[1].split()[-1] for line in
                   err.splitlines()
                   if line.endswith(": unreachable Eb/N0")}
    assert all(line.startswith("warning: load ")
               for line in err.splitlines())
    for row in rows:
        beta = float(row["beta"])
        gammas = (row["gamma_async"], row["gamma_sync"])
        for cell in gammas:
            assert _finite(cell) if cell else f"{beta:g}" in unreachable
        if row["relative_gap"]:
            assert _finite(row["relative_gap"])
        else:
            assert beta == 0.0 or "" in gammas
    for key in ("peak_relative_gap", "peak_gap_beta"):
        assert header[key] == "" or _finite(header[key])


CHECKS = {"efficiency": _check_efficiency, "capacity_snr": _check_capacity,
          "capacity_ebn0": _check_capacity, "figure3": _check_figure3}


def test_seeded_sweep(tmp_path):
    rng = np.random.default_rng(SEED)
    seen, failures = set(), []
    for index in range(DRAWS):
        command, argv, facts = _draw(rng, tmp_path, index)
        seen.add((command, facts["waveform"].kind))
        try:
            code, out, err = _run(argv)
        except Exception as exc:  # a numpy warning, raised as an error
            raise AssertionError(f"cdmalimits {' '.join(argv)}") from exc
        try:
            if code == 3:
                assert err.startswith("error: ") and out == ""
                assert any(name in err for name in SOLVER_ERRORS)
            else:
                assert code == 0
                CHECKS[command](out, err, facts)
        except AssertionError as exc:
            failures.append(f"cdmalimits {' '.join(argv)}: exit {code}, "
                            f"stderr {err!r}: {exc}")
    assert not failures, "\n".join(failures)
    # Every command met every kind of pulse.
    assert len(seen) == len(COMMANDS) * 3
