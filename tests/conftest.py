"""Shared test helpers: the acceptance-criterion reporting registry and
the equal-power efficiency's quadratic root.

Acceptance tests register one verdict each; the registry is printed as a
dedicated block in the terminal summary so the per-criterion pass/fail
lines are visible regardless of output capturing.
"""

import math

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, name: str, passed: bool, detail: str):
    ACCEPTANCE_RESULTS.append((number, name, passed, detail))


def quadratic_root(load, n0):
    """Positive root of ``eta^2 + b*eta - n0``, ``b = n0 + load - 1``, in
    the branch that does not cancel for the sign of ``b``."""
    b = n0 + load - 1.0
    d = math.sqrt(b * b + 4.0 * n0)
    return 2.0 * n0 / (b + d) if b >= 0 else (d - b) / 2.0


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d} [{verdict}] {name}: {detail}")
