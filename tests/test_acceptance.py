"""Acceptance suite: one test per release criterion.

Each test exercises the documented behavior end to end, registers a
single pass/fail line (printed in the terminal summary), and asserts the
pinned tolerance.  Runtime budgets are asserted where the criterion
carries one.
"""

import csv
import io
import math
import time

import numpy as np

from cdmalimits import (
    SystemLaw,
    capacity_constrained,
    capacity_sync_closed_form,
    efficiency_of_user,
    equal_power_uniform_delays,
    finite_system,
    root_raised_cosine_waveform,
    run_trials,
    sinc_waveform,
    sinr_user,
    solve_efficiency_scalar,
    solve_efficiency_sinc,
    solve_efficiency_sync,
    solve_upsilon,
    synchronous_law,
    tabulated_waveform,
    theorem3_harness,
)
from cdmalimits.cli import _structure_residuals, main

from conftest import record_criterion


def _law_average_matrix_efficiency(sys):
    """Law-weighted matrix-route multiuser efficiency."""
    field, report = solve_upsilon(sys)
    assert report.converged
    total = 0.0
    for power, delay, weight in zip(sys.law.powers, sys.law.delays,
                                    sys.law.weights):
        sinr = sinr_user(field, sys, float(power), float(delay))
        total += weight * efficiency_of_user(sinr, float(power), sys)
    return float(total)


def _run_cli_csv(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def test_criterion_01_flat_bandwidth_scalar_equivalence():
    budget = 1e-8
    start = time.perf_counter()
    worst = 0.0
    for load in (0.25, 0.5, 1.0, 2.0, 4.0):
        for n0 in (0.01, 0.1, 1.0):
            a = solve_efficiency_sinc(load, 1.0, [1.0], [1.0], n0)
            b = solve_efficiency_sync(load, [1.0], [1.0], n0)
            worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - start
    passed = worst <= budget and elapsed < 1.0
    record_criterion(1, "unit-bandwidth flat pulse equals synchronous solver",
                     passed,
                     f"max |diff| = {worst:.2e} (budget {budget:.0e}), "
                     f"{elapsed:.2f}s of 1s")
    assert worst <= budget
    assert elapsed < 1.0


def test_criterion_02_flat_bandwidth_capacity_scaling():
    budget = 1e-4
    snr = 10.0
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        waveform = sinc_waveform(alpha)
        for load in (0.5, 1.0, 2.0):
            sys = SystemLaw(load=load, noise_density=1.0 / snr,
                            oversampling=waveform.min_oversampling,
                            waveform=waveform,
                            law=equal_power_uniform_delays(16))
            got = capacity_constrained(sys, snr=snr)
            want = alpha * capacity_sync_closed_form(load / alpha, snr)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    passed = worst <= budget and elapsed < 30.0
    record_criterion(2, "flat-pulse capacity obeys the bandwidth-load trade",
                     passed,
                     f"max rel err = {worst:.2e} (budget {budget:.0e}), "
                     f"{elapsed:.1f}s of 30s")
    assert worst <= budget
    assert elapsed < 30.0


def test_criterion_03_matrix_scalar_consistency():
    budget = 1e-3
    start = time.perf_counter()
    sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                    waveform=root_raised_cosine_waveform(0.22),
                    law=equal_power_uniform_delays(64))
    eta_matrix = _law_average_matrix_efficiency(sys)
    eta_scalar = solve_efficiency_scalar(sys).scalar
    rel = abs(eta_matrix - eta_scalar) / eta_scalar
    elapsed = time.perf_counter() - start
    passed = rel <= budget and elapsed < 60.0
    record_criterion(3, "matrix field solver reproduces scalar efficiency",
                     passed,
                     f"matrix {eta_matrix:.9f} vs scalar {eta_scalar:.9f}, "
                     f"rel = {rel:.2e} (budget {budget:.0e}), "
                     f"{elapsed:.1f}s of 60s")
    assert rel <= budget
    assert elapsed < 60.0


def test_criterion_04_narrowband_delay_independence():
    budget = 1e-6
    rrc = root_raised_cosine_waveform(0.22)
    table = np.linspace(-np.pi, np.pi, 4097)
    clipped = tabulated_waveform(table, rrc.spectrum(table).real)
    assert clipped.bandwidth <= 0.5 + 1e-12
    worst = 0.0
    details = []
    for waveform, tag in ((sinc_waveform(1.0), "flat"),
                          (clipped, "clipped")):
        etas = []
        for law in (synchronous_law(), equal_power_uniform_delays(48)):
            sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=1,
                            waveform=waveform, law=law)
            field, report = solve_upsilon(sys)
            assert report.converged
            sinr = sinr_user(field, sys, 1.0, 0.0)
            etas.append(efficiency_of_user(sinr, 1.0, sys))
        diff = abs(etas[0] - etas[1])
        worst = max(worst, diff)
        details.append(f"{tag} {diff:.1e}")
    passed = worst <= budget
    record_criterion(4, "delays are invisible within half the chip rate",
                     passed,
                     f"zero vs uniform diffs: {', '.join(details)} "
                     f"(budget {budget:.0e})")
    assert worst <= budget


def test_criterion_05_monte_carlo_convergence():
    budget = 0.03
    start = time.perf_counter()
    sys = SystemLaw(load=0.5, noise_density=0.1, oversampling=2,
                    waveform=root_raised_cosine_waveform(0.22),
                    law=equal_power_uniform_delays(64))
    field, report = solve_upsilon(sys)
    assert report.converged
    system = finite_system(sys, 128, seed=2024)
    assert system.n_users == 64
    predicted = float(np.mean([
        efficiency_of_user(
            sinr_user(field, sys, float(np.abs(a) ** 2), float(d)),
            float(np.abs(a) ** 2), sys)
        for a, d in zip(system.amplitudes, system.delays)]))
    _, summary = run_trials(system, 200)
    rel = abs(summary.mean_efficiency - predicted) / predicted
    elapsed = time.perf_counter() - start
    passed = rel <= budget and elapsed < 300.0
    record_criterion(5, "finite-size trials meet the limiting prediction",
                     passed,
                     f"empirical {summary.mean_efficiency:.5f} vs predicted "
                     f"{predicted:.5f}, rel = {rel:.4f} (budget {budget}), "
                     f"{elapsed:.0f}s of 300s")
    assert rel <= budget
    assert elapsed < 300.0


def test_criterion_06_delay_reduction_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    delays = rng.uniform(0.0, 64.0, 32)
    paired = theorem3_harness(root_raised_cosine_waveform(0.22), 64, 2, 32,
                              delays, 0.1, window=3, trials=100, seed=2026)
    win, red = paired.windowed, paired.reduced
    gap = abs(win.mean_sinr - red.mean_sinr)
    width = math.hypot(win.mean_sinr_standard_error,
                       red.mean_sinr_standard_error)
    gap_eff = abs(win.mean_efficiency - red.mean_efficiency)
    width_eff = math.hypot(win.standard_error, red.standard_error)
    elapsed = time.perf_counter() - start
    passed = gap <= 2.0 * width and gap_eff <= 2.0 * width_eff and \
        elapsed < 300.0
    record_criterion(6, "whole-chip delays reduce to their chip residues",
                     passed,
                     f"SINR gap {gap:.4f} vs 2SE {2 * width:.4f}; "
                     f"efficiency gap {gap_eff:.5f} vs 2SE "
                     f"{2 * width_eff:.5f}; {elapsed:.0f}s of 300s")
    assert gap <= 2.0 * width
    assert gap_eff <= 2.0 * width_eff
    assert elapsed < 300.0


def test_criterion_07_structured_trace_annihilation():
    budget = 1e-10
    start = time.perf_counter()
    worst_trace, worst_factor = _structure_residuals(
        np.random.default_rng(7), 1000, False)
    elapsed = time.perf_counter() - start
    passed = worst_trace <= budget and worst_factor <= budget and \
        elapsed < 5.0
    record_criterion(7, "oscillating part is trace-orthogonal; closed-form "
                        "eigenfactorization reconstructs",
                     passed,
                     f"worst trace {worst_trace:.1e}, worst rebuild "
                     f"{worst_factor:.1e} (budget {budget:.0e}), "
                     f"{elapsed:.1f}s of 5s")
    assert worst_trace <= budget
    assert worst_factor <= budget
    assert elapsed < 5.0


def test_criterion_08_equal_power_quadratic_root():
    budget = 1e-10
    n0, load = 0.1, 1.0
    # Positive root of eta^2 + eta*(n0 + load - 1) - n0 = 0, computed
    # independently of the solver.
    b = n0 + load - 1.0
    root = (-b + math.sqrt(b * b + 4.0 * n0)) / 2.0
    got = solve_efficiency_sync(load, [1.0], [1.0], n0)
    diff = abs(got - root)
    passed = diff <= budget
    record_criterion(8, "equal-power efficiency solves its quadratic",
                     passed,
                     f"solver {got:.12f} vs root {root:.12f}, "
                     f"|diff| = {diff:.1e} (budget {budget:.0e})")
    assert diff <= budget


def test_criterion_09_figure_shapes(capsys):
    rows2 = _run_cli_csv(["figure2"], capsys)
    alphas = [float(r["alpha"]) for r in rows2]
    async2 = [float(r["gamma_async_sinc"]) for r in rows2]
    sync2 = [float(r["gamma_sync"]) for r in rows2]
    strictly_decreasing = all(a > b for a, b in zip(async2, async2[1:]))
    at_one = next(i for i, a in enumerate(alphas) if abs(a - 1.0) < 1e-9)
    coincide = abs(async2[at_one] - sync2[at_one]) / sync2[at_one] <= 1e-6
    exceeds = all(async2[i] > sync2[i] for i, a in enumerate(alphas)
                  if a > 1.0)

    rows3 = _run_cli_csv(["figure3"], capsys)
    gaps = [float(r["relative_gap"]) for r in rows3]
    nonnegative = all(g >= -1e-12 for g in gaps)
    nondecreasing = all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))
    max_gap = max(gaps)
    in_band = 0.10 <= max_gap <= 0.14  # soft check: reported either way

    hard_ok = strictly_decreasing and coincide and exceeds and \
        nonnegative and nondecreasing
    record_criterion(9, "figure curves keep their qualitative shape",
                     hard_ok,
                     f"bandwidth sweep decreasing={strictly_decreasing}, "
                     f"matches baseline at unit bandwidth={coincide}, "
                     f"exceeds beyond={exceeds}; load sweep gap "
                     f"nonneg={nonnegative}, nondecreasing={nondecreasing}, "
                     f"max gap {max_gap:.4f} "
                     f"{'inside' if in_band else 'OUTSIDE'} soft band "
                     f"[0.10, 0.14]")
    assert strictly_decreasing
    assert coincide
    assert exceeds
    assert nonnegative
    assert nondecreasing


def test_criterion_10_high_load_spectral_efficiency():
    snr = 10.0
    floor = 0.9
    worst_ratio = math.inf
    monotone = True
    for alpha in (0.5, 2.0):
        waveform = sinc_waveform(alpha)
        gammas = []
        for load in (1.0, 2.0, 4.0, 8.0, 16.0):
            sys = SystemLaw(load=load, noise_density=1.0 / snr,
                            oversampling=waveform.min_oversampling,
                            waveform=waveform,
                            law=equal_power_uniform_delays(16))
            capacity = capacity_constrained(sys, snr=snr)
            gammas.append(capacity / (alpha / 2.0))
        monotone &= all(b >= a - 1e-9 for a, b in zip(gammas, gammas[1:]))
        # Single-user reference: all received power pooled into one AWGN
        # channel at the same time-bandwidth accounting.
        reference = 2.0 * math.log2(1.0 + (16.0 / alpha) * snr)
        worst_ratio = min(worst_ratio, gammas[-1] / reference)
    passed = monotone and worst_ratio >= floor
    record_criterion(10, "spectral efficiency grows with load toward the "
                         "pooled single-user limit",
                     passed,
                     f"nondecreasing={monotone}, worst ratio at load 16 = "
                     f"{worst_ratio:.4f} (floor {floor})")
    assert monotone
    assert worst_ratio >= floor
