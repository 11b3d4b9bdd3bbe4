"""Workload definitions: the CLI operations of one round, and their checks.

A workload is a fixed list of ``cdmalimits`` CLI invocations (one round)
whose parameters are drawn from the run's ``--seed``; the benchmark repeats
whole rounds.  Each workload also names one warm-up operation, run as part
of set-up, and a check that compares the CSV outputs of one round against
the closed forms in :mod:`reference` or against properties the method must
have.  Every check carries a perturbed copy of the value it tests, which
must fail it (the negative control).
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from typing import Callable

EBN0_DB = 10.0
#: Declared tolerances of the program: relative capacity accuracy of
#: ``capacity_constrained`` and relative SNR accuracy of ``snr_for_ebn0``.
CAPACITY_REL_TOL = 1e-5
INVERSION_REL_TOL = 1e-8
#: Stderr text of the one operation that fails on purpose (see ``fields``).
KNOWN_FAULT = "matrix fixed point stopped after 10000 iterations"


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``units`` is the work it does (rows or trials)."""

    name: str
    argv: tuple[str, ...]
    units: int = 1
    known_fault: bool = False
    params: dict = field(default_factory=dict)


@dataclass
class Check:
    """One output check and its negative control.

    ``test`` decides ``value``; ``perturbed`` is the value moved beyond the
    check's tolerance, which ``test`` must reject.
    """

    name: str
    value: object
    test: Callable[[object], bool]
    perturbed: object
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.test(self.value))

    @property
    def control_caught(self) -> bool:
        return not self.test(self.perturbed)


def close(name: str, value: float, ref: float, tol: float) -> Check:
    """``|value/ref - 1| <= tol``; the control moves value by ``3*tol``."""
    return Check(name, value, lambda v: abs(v / ref - 1.0) <= tol,
                 value * (1.0 + 3.0 * tol),
                 f"value {value!r} reference {ref!r} rel tol {tol:.3g}")


def close_abs(name: str, value: float, ref: float, tol: float) -> Check:
    """``|value - ref| <= tol``; the control moves value by ``3*tol``."""
    return Check(name, value, lambda v: abs(v - ref) <= tol,
                 value + 3.0 * tol,
                 f"value {value!r} reference {ref!r} abs tol {tol:.3g}")


def at_least(name: str, value: float, bound: float) -> Check:
    """``value >= bound``; the control puts value as far below the bound."""
    return Check(name, value, lambda v: v >= bound,
                 bound - abs(value - bound) - 1e-3, f"value {value!r}")


def within_se(name: str, diff: float, se: float, k: float) -> Check:
    """``|diff| <= k*se``; the control shifts diff by ``(2k+1)*se``."""
    return Check(name, diff, lambda d: abs(d) <= k * se,
                 diff + (2.0 * k + 1.0) * se,
                 f"difference {diff!r} vs {k:g} x {se!r}")


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Header ``# key = value`` lines and the data rows of a CLI CSV."""
    header: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        else:
            body.append(line)
    return header, list(csv.DictReader(io.StringIO("\n".join(body))))


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: Op
    ops: tuple[Op, ...]
    check: Callable[[dict[str, str]], list[Check]]


def _jitter(rng: random.Random, value: float) -> float:
    """The value moved by up to 3 % either way, to four significant digits."""
    return float(f"{value * rng.uniform(0.97, 1.03):.4g}")


# ---------------------------------------------------------------------------
# figures: Eb/N0 operating points of the paper's Figs. 2 and 3
# ---------------------------------------------------------------------------

def _figures(rng: random.Random, seed: str) -> Workload:
    common = ("--ebn0-db", f"{EBN0_DB:g}", "--seed", seed)
    ops = []
    betas = {"low": _jitter(rng, 0.5), "high": _jitter(rng, 6.0)}
    for label, beta in betas.items():
        ops.append(Op(f"figure3_{label}",
                      ("figure3", "--waveform", "rrc:0.22", "--r", "2",
                       "--beta", repr(beta)) + common,
                      params={"beta": beta}))
    for label, alpha in (("below_nyquist", 0.5), ("above_nyquist", 1.9)):
        alpha = _jitter(rng, alpha)
        ops.append(Op(f"figure2_{label}",
                      ("figure2", "--beta", "1", "--alpha", repr(alpha))
                      + common, params={"beta": 1.0, "alpha": alpha}))
    warmup = Op("warmup", ("capacity", "--waveform", "rrc:0.22", "--r", "2",
                           "--beta", repr(betas["low"]), "--snr", "10",
                           "--seed", seed))
    return Workload("figures", warmup, tuple(ops), _check_figures(ops))


def _check_figures(ops: list[Op]):
    def check(outputs: dict[str, str]) -> list[Check]:
        import cdmalimits
        import reference

        ebn0 = 10.0 ** (EBN0_DB / 10.0)
        rrc = cdmalimits.root_raised_cosine_waveform(0.22)
        flat = cdmalimits.sinc_waveform(1.0)
        checks = []

        def solved_gamma(capacity, load, product, rel_tol):
            snr = reference.snr_at_ebn0(ebn0, load, capacity)
            tol = reference.gamma_tolerance(capacity, snr, rel_tol,
                                            INVERSION_REL_TOL)
            return capacity(snr) / product, tol, snr

        for op in ops:
            if op.name not in outputs:
                continue
            _, rows = parse_csv(outputs[op.name])
            row = rows[0]
            beta = op.params["beta"]
            sync = lambda s, b=beta: reference.capacity_sync(b, s)
            if op.argv[0] == "figure3":
                product = rrc.chip_interval * rrc.bandwidth
                free = lambda s, b=beta: reference.capacity_free_energy(
                    rrc, b, s)
                ref, tol, snr = solved_gamma(free, beta, product,
                                             CAPACITY_REL_TOL)
                checks.append(close(f"{op.name}.gamma_async",
                                    float(row["gamma_async"]), ref, tol))
                ref, tol, _ = solved_gamma(sync, beta, product, 0.0)
                checks.append(close(f"{op.name}.gamma_sync",
                                    float(row["gamma_sync"]), ref, tol))
                checks.append(at_least(f"{op.name}.relative_gap",
                                       float(row["relative_gap"]), 0.0))
                # The free-energy form must reduce to Verdu-Shamai for the
                # unit-bandwidth flat pulse; this guards the reference.
                checks.append(close(
                    f"{op.name}.reference_flat_pulse",
                    reference.capacity_free_energy(flat, beta, snr),
                    reference.capacity_sync(beta, snr), 1e-10))
            else:
                alpha = op.params["alpha"]
                product = alpha / 2.0
                flat_async = lambda s, b=beta, a=alpha: \
                    a * reference.capacity_sync(b / a, s)
                ref, tol, _ = solved_gamma(flat_async, beta, product,
                                           CAPACITY_REL_TOL)
                checks.append(close(f"{op.name}.gamma_async_sinc",
                                    float(row["gamma_async_sinc"]), ref,
                                    tol))
                ref, tol, _ = solved_gamma(sync, beta, product, 0.0)
                checks.append(close(f"{op.name}.gamma_sync",
                                    float(row["gamma_sync"]), ref, tol))
        return checks

    return check


# ---------------------------------------------------------------------------
# fields: matrix fixed point against the scalar route
# ---------------------------------------------------------------------------

#: (beta, N0) points; the low-noise point (1, 1e-3) is kept exact.
FIELD_POINTS = ((0.5, 0.1), (1.0, 0.1), (2.0, 0.05), (1.0, 1e-3),
                (4.0, 0.01))
FIELD_WAVEFORMS = (("rrc022", "rrc:0.22"), ("rrc100", "rrc:1.0"),
                   ("sinc2", "sinc:2"))


def _fields(rng: random.Random, seed: str) -> Workload:
    ops = []
    for label, waveform in FIELD_WAVEFORMS:
        for index, (beta, n0) in enumerate(FIELD_POINTS):
            if n0 > 1e-3:
                beta, n0 = _jitter(rng, beta), _jitter(rng, n0)
            ops.append(Op(f"{label}_{index}",
                          ("efficiency", "--waveform", waveform,
                           "--beta", repr(beta), "--n0", repr(n0),
                           "--cross-check", "--seed", seed),
                          params={"beta": beta, "n0": n0,
                                  "waveform": waveform}))
    # Known fault, kept on purpose and counted as failed: the fixed point
    # compares an absolute 1e-10 to a residual on entries of size 1/sigma^2
    # and stops at max_iter with exit code 3.  Its inputs do not depend on
    # the seed, so it fails in every round of every run.
    ops.append(Op("rrc022_beta4_lownoise_grid64",
                  ("efficiency", "--waveform", "rrc:0.22", "--beta", "4",
                   "--n0", "1e-3", "--grid", "64", "--cross-check",
                   "--seed", seed),
                  known_fault=True,
                  params={"beta": 4.0, "n0": 1e-3, "waveform": "rrc:0.22"}))
    warmup = Op("warmup", ops[0].argv)
    return Workload("fields", warmup, tuple(ops), _check_fields(ops))


def _check_fields(ops: list[Op]):
    def check(outputs: dict[str, str]) -> list[Check]:
        import reference

        checks = []
        for op in ops:
            if op.name not in outputs:
                continue
            _, rows = parse_csv(outputs[op.name])
            values = {row["record"]: float(row["value"]) for row in rows
                      if row["record"] in ("scalar", "matrix_mean")}
            checks.append(close(f"{op.name}.matrix_mean",
                                values["matrix_mean"], values["scalar"],
                                1e-3))
            waveform = op.params["waveform"]
            if waveform.startswith("sinc:"):
                alpha = float(waveform.partition(":")[2])
                root = reference.sinc_efficiency_root(
                    op.params["beta"], alpha, op.params["n0"])
                checks.append(close_abs(f"{op.name}.scalar_quadratic_root",
                                        values["scalar"], root, 1e-10))
        return checks

    return check


# ---------------------------------------------------------------------------
# montecarlo and theorem3: finite-size trials
# ---------------------------------------------------------------------------

MC = {"n": 128, "beta": 0.5, "r": 2, "n0": 0.1, "trials": 24}
T3 = {"n": 64, "beta": 0.5, "window": 3, "trials": 32}
T3_SIGMAS = 4.0


def _montecarlo(rng: random.Random, seed: str) -> Workload:
    def argv(trials):
        return ("montecarlo", "--waveform", "rrc:0.22", "--n", str(MC["n"]),
                "--beta", str(MC["beta"]), "--r", str(MC["r"]),
                "--n0", str(MC["n0"]), "--trials", str(trials),
                "--seed", seed)

    op = Op("montecarlo", argv(MC["trials"]), units=MC["trials"],
            params={"seed": int(seed)})
    return Workload("montecarlo", Op("warmup", argv(1)), (op,),
                    _check_montecarlo(op))


def _check_montecarlo(op: Op):
    def check(outputs: dict[str, str]) -> list[Check]:
        if op.name not in outputs:
            return []
        import numpy as np

        import cdmalimits
        import reference

        header, rows = parse_csv(outputs[op.name])
        checks = [close("montecarlo.mean_efficiency_vs_prediction",
                        float(header["empirical_mean_efficiency"]),
                        float(header["predicted_mean_efficiency"]), 0.03)]

        law = cdmalimits.SystemLaw(
            load=MC["beta"], noise_density=MC["n0"], oversampling=MC["r"],
            waveform=cdmalimits.root_raised_cosine_waveform(0.22),
            law=cdmalimits.equal_power_uniform_delays(64))
        system = cdmalimits.finite_system(law, MC["n"], op.params["seed"])
        drawn = cdmalimits.materialize(
            system, cdmalimits.trial_seed(system.seed, 0))
        expected = reference.kxk_sinrs(drawn.signatures,
                                       system.noise_variance)
        got = np.full(system.n_users, np.nan)
        for row in rows:
            if row["trial"] == "0":
                got[int(row["user"])] = float(row["sinr"])
        tol = 1e-8
        worst = lambda v: float(np.max(np.abs(v / expected - 1.0)))
        perturbed = got.copy()
        perturbed[0] *= 1.0 + 3.0 * tol
        checks.append(Check("montecarlo.trial0_sinr_kxk_identity", got,
                            lambda v: worst(v) <= tol, perturbed,
                            f"max rel error {worst(got):.3g}"))
        return checks

    return check


def _theorem3(rng: random.Random, seed: str) -> Workload:
    def argv(trials):
        return ("theorem3", "--waveform", "rrc:0.22", "--n", str(T3["n"]),
                "--beta", str(T3["beta"]), "--window", str(T3["window"]),
                "--trials", str(trials), "--seed", seed)

    op = Op("theorem3", argv(T3["trials"]), units=T3["trials"])
    return Workload("theorem3", Op("warmup", argv(1)), (op,),
                    _check_theorem3(op))


def _check_theorem3(op: Op):
    def check(outputs: dict[str, str]) -> list[Check]:
        if op.name not in outputs:
            return []
        _, rows = parse_csv(outputs[op.name])
        by = {row["record"]: row for row in rows}
        win, red = by["windowed"], by["reduced"]
        diff = float(win["mean_efficiency"]) - float(red["mean_efficiency"])
        se = math.hypot(float(win["efficiency_standard_error"]),
                        float(red["efficiency_standard_error"]))
        # Over 40 seeds the difference measured 0.64 +- 0.62 combined
        # standard errors (a finite-N offset plus noise), so a 2-sigma bound
        # would fail a correct program in about one run of 70; 4 sigma
        # leaves that chance negligible.
        return [within_se("theorem3.windowed_vs_reduced", diff, se,
                          T3_SIGMAS)]

    return check


BUILDERS = {"figures": _figures, "fields": _fields,
            "montecarlo": _montecarlo, "theorem3": _theorem3}


def make(name: str, seed: int) -> Workload:
    """The workload's operations with parameters drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, str(rng.randrange(2 ** 32)))
