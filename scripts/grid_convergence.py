#!/usr/bin/env python3
"""Grid-refinement study for the matrix-route efficiency solver.

Sweeps the frequency-grid resolution of the positive-definite field
solver and reports the relative deviation from the scalar-route value
(valid here because the delay law is uniform; for the RRC pulse the scalar
route is in closed form, so the reference carries no grid error),
demonstrating quadrature convergence and justifying the 512-point default.

Usage:
    python3 scripts/grid_convergence.py [--beta 1.0] [--roll-off 0.22]
"""

import argparse
import sys
import time

from cdmalimits import (
    FrequencyGrid,
    SystemLaw,
    efficiency_of_user,
    equal_power_uniform_delays,
    root_raised_cosine_waveform,
    sinr_user,
    solve_efficiency_scalar,
    solve_upsilon,
)


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--roll-off", type=float, default=0.22)
    parser.add_argument("--n0", type=float, default=0.1)
    parser.add_argument("--n-delays", type=int, default=64)
    parser.add_argument("--grids", type=int, nargs="+",
                        default=[32, 64, 128, 256, 512, 1024])
    args = parser.parse_args(argv)

    sys_law = SystemLaw(load=args.beta, noise_density=args.n0,
                        oversampling=2,
                        waveform=root_raised_cosine_waveform(args.roll_off),
                        law=equal_power_uniform_delays(args.n_delays))
    reference = solve_efficiency_scalar(sys_law).scalar
    print(f"closed-form scalar-route efficiency: {reference:.12f}")
    print(f"{'grid':>6} {'matrix efficiency':>18} {'rel dev':>10} "
          f"{'seconds':>8}")
    for count in args.grids:
        start = time.perf_counter()
        field, report = solve_upsilon(sys_law,
                                      grid=FrequencyGrid.midpoints(count))
        law = sys_law.law
        etas = efficiency_of_user(
            sinr_user(field, sys_law, law.powers, law.delays), law.powers,
            sys_law)
        value = float(law.weights @ etas)
        elapsed = time.perf_counter() - start
        flag = "" if report.converged else "  (not converged)"
        print(f"{count:>6} {value:>18.12f} "
              f"{abs(value - reference) / reference:>10.2e} "
              f"{elapsed:>8.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
