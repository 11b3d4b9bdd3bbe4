"""Golden outputs: small seeded CLI runs against their committed CSVs.

Each run goes through ``cli.main`` in-process and is compared with
``tests/golden/<name>.csv``.  Header lines that echo the resolved
configuration (``# key = value`` for a key of the command) must match
exactly; every other cell, in the rows or in a result header line, must
match to a relative 1e-13, or 1e-10 where LAPACK and the trial threads
enter (``montecarlo``, ``theorem3``, ``efficiency --cross-check``).  A
text cell must match exactly.  A failure names the file, the cell and the
largest relative move.

A change that moves digits on purpose regenerates the files with::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py

which loops over ``RUNS`` and rewrites every file; the change then quotes
the moves that ``git diff tests/golden`` shows.  The comparison is not a
byte comparison, since numpy's SIMD transcendentals may round a last digit
differently on another CPU.
"""

import contextlib
import csv
import io
import os
import pathlib
import sys
import tempfile

import pytest

from cdmalimits import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: The README's asymmetric table, zero outside [-2, 3].
ASYMMETRIC_TABLE = "omega,real\n-2.0,1\n0.0,1\n3.0,0.5\n"

CLOSED_FORM = 1e-13
LAPACK = 1e-10

#: File stem -> (CLI arguments, relative tolerance of the numeric cells).
RUNS = {
    "figure2": (["figure2"], CLOSED_FORM),
    "figure3": (["figure3"], CLOSED_FORM),
    "capacity": (["capacity", "--beta", "0:8:5"], CLOSED_FORM),
    "capacity_ebn0": (["capacity", "--ebn0-db", "10", "--beta", "0.25:8:5"],
                      CLOSED_FORM),
    "capacity_asymmetric_table": (
        ["capacity", "--waveform", "table:asymmetric.csv", "--r", "1",
         "--snr", "10"], CLOSED_FORM),
    "efficiency_asymmetric_table": (
        ["efficiency", "--waveform", "table:asymmetric.csv", "--r", "1",
         "--density-points", "64"], CLOSED_FORM),
    "efficiency_cross_check": (
        ["efficiency", "--cross-check", "--sync-baseline", "--grid", "128",
         "--density-points", "64"], LAPACK),
    # The fields point nearest its stopping rule: from the CLI's scalar
    # start, 73 steps to a residual of 8.88e-11 against 1e-10 (a cold
    # start takes 163 steps to 9.12e-11), so a change to the step's
    # rounding shows here as moved digits or as exit 3.
    "efficiency_cross_check_low_noise": (
        ["efficiency", "--waveform", "rrc:0.22", "--beta", "1", "--n0",
         "1e-3", "--cross-check", "--density-points", "64"], LAPACK),
    "montecarlo": (["montecarlo", "--n", "32", "--trials", "8", "--seed",
                    "7"], LAPACK),
    "theorem3": (["theorem3", "--n", "16", "--trials", "8", "--seed", "7"],
                 LAPACK),
    "theorem3_overloaded": (["theorem3", "--n", "16", "--beta", "4",
                             "--trials", "6", "--seed", "7"], LAPACK),
    "verify": (["verify", "--instances", "50"], CLOSED_FORM),
}


def render(argv: list[str]) -> str:
    """CSV text that ``cdmalimits <argv>`` prints, run in a scratch
    directory that holds the asymmetric table as ``asymmetric.csv``."""
    out = io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        pathlib.Path(scratch, "asymmetric.csv").write_text(ASYMMETRIC_TABLE)
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out):
                status = cli.main(argv)
        finally:
            os.chdir(here)
    assert status == 0, f"cdmalimits {' '.join(argv)} exited {status}"
    return out.getvalue()


def _cells(line: str, config_keys) -> list[tuple[str, str]]:
    """``(label, text)`` of each compared cell of one line; a header line
    that echoes a configuration key is one exact cell, labelled ``=``."""
    if line.startswith("# "):
        key, _, value = line[2:].partition(" = ")
        if key == "command" or key in config_keys:
            return [("=", line)]
        return [(key, value)]
    return [(f"column {i + 1}", cell)
            for i, cell in enumerate(next(csv.reader([line])))]


def _move(got: str, want: str) -> float | None:
    """Relative move of a numeric cell, or ``None`` for a text cell."""
    if got == want:
        return 0.0
    try:
        g, w = float(got), float(want)
    except ValueError:
        return None
    if w == 0.0:
        return float("inf")
    return abs(g - w) / abs(w)


def compare(name: str, got: str, want: str, rel: float,
            config_keys) -> None:
    """Assert that ``got`` matches the golden text ``want`` of ``name``."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), (
        f"{name}.csv: {len(got_lines)} lines, golden has {len(want_lines)}")
    largest, where, beyond = 0.0, None, 0
    for number, (g_line, w_line) in enumerate(zip(got_lines, want_lines), 1):
        g_cells = _cells(g_line, config_keys)
        w_cells = _cells(w_line, config_keys)
        labels = [label for label, _ in w_cells]
        assert [label for label, _ in g_cells] == labels, (
            f"{name}.csv line {number}: {g_line!r}, golden {w_line!r}")
        for (label, g), (_, w) in zip(g_cells, w_cells):
            move = _move(g, w)
            assert move is not None, (
                f"{name}.csv line {number}, {label}: {g!r}, golden {w!r}")
            beyond += move > rel
            if move > largest:
                largest, where = move, (number, label, g, w)
    if beyond:
        number, label, g, w = where
        pytest.fail(f"{name}.csv: {beyond} cells move by more than {rel:g}; "
                    f"largest {largest:.3g} at line {number}, {label}: "
                    f"{g}, golden {w}")


@pytest.mark.parametrize("name", RUNS)
def test_matches_golden_output(name):
    argv, rel = RUNS[name]
    want = (GOLDEN / f"{name}.csv").read_text()
    compare(name, render(argv), want, rel, cli._DEFAULTS[argv[0]])


class TestCompare:
    CONFIG = ("beta",)
    WANT = "# command = capacity\n# beta = 1\n# gap = 0.5\nx,y\n1.0,a\n"

    def test_identical_text_passes(self):
        compare("t", self.WANT, self.WANT, 1e-13, self.CONFIG)

    def test_result_header_and_cells_within_tolerance_pass(self):
        got = "# command = capacity\n# beta = 1\n# gap = 0.50000000000001\n" \
              "x,y\n1.00000000000001,a\n"
        compare("t", got, self.WANT, 1e-13, self.CONFIG)

    def test_largest_move_is_named(self):
        got = "# command = capacity\n# beta = 1\n# gap = 0.5000001\n" \
              "x,y\n1.001,a\n"
        with pytest.raises(pytest.fail.Exception,
                           match=r"t\.csv: 2 cells .* largest 0\.001 at "
                                 r"line 5, column 1: 1\.001, golden 1\.0"):
            compare("t", got, self.WANT, 1e-13, self.CONFIG)

    @pytest.mark.parametrize("got", [
        "# command = capacity\n# beta = 1.0\n# gap = 0.5\nx,y\n1.0,a\n",
        "# command = capacity\n# beta = 1\n# gap = 0.5\nx,y\n1.0,b\n",
        "# command = capacity\n# beta = 1\n# gap = 0.5\nx,y\n1.0,a,2\n",
        "# command = capacity\n# beta = 1\n# gap = 0.5\nx,y\n",
    ], ids=["config_echo", "text_cell", "extra_cell", "missing_row"])
    def test_exact_parts_must_match(self, got):
        with pytest.raises(AssertionError, match=r"t\.csv"):
            compare("t", got, self.WANT, 1e-13, self.CONFIG)

    def test_zero_golden_cell_must_stay_zero(self):
        want = "x\n0.0\n"
        compare("t", "x\n0.0\n", want, 1e-13, ())
        with pytest.raises(pytest.fail.Exception, match="largest inf"):
            compare("t", "x\n1e-300\n", want, 1e-13, ())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, (arguments, _) in RUNS.items():
        (GOLDEN / f"{stem}.csv").write_text(render(arguments))
        print(f"wrote {GOLDEN / stem}.csv", file=sys.stderr)
