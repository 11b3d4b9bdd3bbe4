#!/usr/bin/env python3
"""Finite-size convergence sweep of the Monte Carlo MMSE trials.

Runs the per-user MMSE SINR trials at increasing spreading factors and
reports how the trial-averaged multiuser efficiency approaches the
limiting prediction of the matrix solver, along with the Monte Carlo
standard error at each size.

Usage:
    python3 scripts/finite_size_sweep.py [--sizes 16 32 64 128] [--trials 100]
"""

import argparse
import sys
import time

import numpy as np

from cdmalimits import (
    SystemLaw,
    efficiency_of_user,
    equal_power_uniform_delays,
    finite_system,
    root_raised_cosine_waveform,
    run_trials,
    sinr_user,
    solve_upsilon,
)


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[16, 32, 64, 128])
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--beta", type=float, default=0.5)
    parser.add_argument("--n0", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)

    sys_law = SystemLaw(load=args.beta, noise_density=args.n0,
                        oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=equal_power_uniform_delays(64))
    field, report = solve_upsilon(sys_law)
    if not report.converged:
        print("matrix solver did not converge", file=sys.stderr)
        return 3

    print(f"{'N':>5} {'K':>4} {'empirical':>11} {'predicted':>11} "
          f"{'rel dev':>9} {'std err':>9} {'seconds':>8}")
    for n in args.sizes:
        system = finite_system(sys_law, n, seed=args.seed)
        powers = np.abs(system.amplitudes) ** 2
        predicted = float(np.mean(efficiency_of_user(
            sinr_user(field, sys_law, powers, system.delays), powers,
            sys_law)))
        start = time.perf_counter()
        _, summary = run_trials(system, args.trials)
        elapsed = time.perf_counter() - start
        rel = abs(summary.mean_efficiency - predicted) / predicted
        print(f"{n:>5} {system.n_users:>4} "
              f"{summary.mean_efficiency:>11.6f} {predicted:>11.6f} "
              f"{rel:>9.2e} {summary.standard_error:>9.2e} {elapsed:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
