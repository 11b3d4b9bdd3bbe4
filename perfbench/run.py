#!/usr/bin/env python3
"""cdmalimits benchmark: figure points, matrix fields and finite-size trials.

Drives the package in-process through ``cdmalimits.cli.main``, one caller,
operations back to back (a closed loop), repeating whole rounds of each
workload's operations until ``--seconds`` have passed.  Checks every output
against closed forms computed here, prints each metric with its unit and
the operations attempted and failed, and ends with one JSON line.

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload fields --seed 3 --seconds 15
    python3 perfbench/run.py --workload figures --trace 1

``--trace 1`` wraps the public functions of each layer from outside the
package (see ``tracing.py``) and reports per-layer metrics instead of the
end-to-end ones.  Exit code 0 when every check passes, 1 when one fails,
2 when the package source is missing.
"""

import os

#: BLAS threads, fixed before numpy loads: one thread per process keeps the
#: trials deterministic and fast on this library (see README).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3

import workloads  # noqa: E402  (stdlib only at import time)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s": "s",
                    "peak_rss_mb": "MB"}


class Result(NamedTuple):
    code: int | None
    seconds: float
    stderr: str
    text: str | None


def run_op(cli, op, path: Path) -> Result:
    """Run one CLI operation, writing its CSV to ``path``."""
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv) + ["--out", str(path)])
    except Exception:  # an uncaught error is a failed operation
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    text = path.read_text(encoding="utf-8") if code == 0 else None
    return Result(code, seconds, err.getvalue(), text)


def setup(workload) -> float:
    """Seconds to import cdmalimits and run the workload's warm-up."""
    start = time.perf_counter()
    import cdmalimits.cli as cli

    outdir = OUT / workload.name
    outdir.mkdir(parents=True, exist_ok=True)
    result = run_op(cli, workload.warmup, outdir / "warmup.csv")
    if result.code != 0:
        raise RuntimeError(f"warm-up of {workload.name} failed: "
                           f"{result.stderr}")
    return time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe", "--workload", name,
         "--seed", str(seed)], capture_output=True, text=True, timeout=170,
        cwd=ROOT, check=True)
    return float(done.stdout.split()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 cold: bool) -> dict:
    workload = workloads.make(name, seed)
    # The first workload of the process pays its own cold import; the other
    # samples come from fresh interpreters.
    cold_setup = setup(workload)
    setups = [cold_setup] if cold else []
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(probe_setup(name, seed))

    import cdmalimits.cli as cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    outdir = OUT / name
    rounds: list[list[Result]] = []
    round_s: list[float] = []
    start = time.perf_counter()
    try:
        while True:
            begin = time.perf_counter()
            if tracer:
                tracer.active = True
            rounds.append([run_op(cli, op, outdir / f"{op.name}.csv")
                           for op in workload.ops])
            if tracer:
                tracer.active = False
            round_s.append(time.perf_counter() - begin)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    attempted = failed = 0
    op_s = []
    problems = []
    for results in rounds:
        for op, result in zip(workload.ops, results):
            attempted += 1
            if result.code == 0:
                op_s.append(result.seconds / op.units)
                continue
            failed += 1
            expected = workloads.KNOWN_FAULT in result.stderr
            if not (op.known_fault and expected):
                problems.append(f"{op.name} failed (exit {result.code}): "
                                f"{result.stderr.strip()}")

    # Outputs of the first round are checked; later rounds must repeat them
    # byte for byte, since every operation is seeded.
    checks = workload.check({op.name: result.text for op, result
                             in zip(workload.ops, rounds[0])
                             if result.code == 0})
    for index, results in enumerate(rounds[1:], start=2):
        for op, result, first in zip(workload.ops, results, rounds[0]):
            checks.append(workloads.Check(
                f"{op.name}.round{index}_repeats_round1",
                (result.code, result.text), lambda v, f=first: v == (
                    f.code, f.text), (result.code, f"{result.text}\n"),
                "exit code or CSV differs from round 1"))
    for check in checks:
        if not check.passed:
            problems.append(f"check {check.name} failed: {check.detail}")
        if not check.control_caught:
            problems.append(f"negative control of {check.name} passed")

    wall = statistics.median(round_s)
    if tracer:
        metrics = tracer.metrics(len(rounds))
        tracer.write(OUT / f"trace-{name}.json")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "op_s": statistics.median(op_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                   for key, value in values.items()}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "_report": {"rounds": len(rounds), "wall_s": wall,
                        "checks": len(checks), "problems": problems}}


def print_report(name: str, result: dict) -> None:
    report = result["_report"]
    print(f"== {name}: {report['rounds']} round(s), "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"{report['checks']} checks with negative controls, "
          f"wall_s {report['wall_s']:.4f}")
    for key, metric in result["metrics"].items():
        print(f"   {key:48s} {metric['value']:.6g} {metric['unit']}")
    for problem in report["problems"]:
        print(f"   PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.BUILDERS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cdmalimits" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe:
        print(setup(workloads.make(args.workload, args.seed)))
        return 0

    names = (list(workloads.BUILDERS) if args.workload == "all"
             else [args.workload])
    results = {}
    for index, name in enumerate(names):
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), cold=index == 0)
        print_report(name, result)
        result.pop("_report")
        results[name] = result
    ok = all(result["correct"] for result in results.values())
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
