"""Per-layer tracing of the cdmalimits package from outside the package.

The tracer replaces the public functions of each layer module with timing
wrappers, both in the module that defines them and in every ``cdmalimits``
module that imported them by name (for example
``cdmalimits.cli.capacity_constrained``), so a call is seen whichever name
it goes through.  Nothing inside the package is edited.  Spans are kept in
memory and written out when the run ends.

Besides spans the tracer keeps counters that the package does not expose
directly: fixed-point iterations (read from the returned
``FixedPointReport``), capacity evaluations per Eb/N0 inversion, dense
factorizations by ``scipy.linalg.cho_factor`` and ``numpy.linalg.inv``
called from ``cdmalimits`` code with their flop counts, and the bytes of CSV
rendered by the CLI.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("numerics", "waveforms", "large_system", "capacity", "montecarlo")

#: Per-layer metrics, in the order they are reported.  Counts and times are
#: per round of the workload; ``evals_per_inversion`` is a ratio.
PER_LAYER = (
    ("capacity.capacity_constrained.calls", "count"),
    ("capacity.capacity_constrained.time_s", "s"),
    ("capacity.snr_for_ebn0.calls", "count"),
    ("capacity.snr_for_ebn0.time_s", "s"),
    ("capacity.evals_per_inversion", "count"),
    ("large_system.solve_upsilon.calls", "count"),
    ("large_system.solve_upsilon.time_s", "s"),
    ("large_system.solve_upsilon.iterations", "count"),
    ("large_system.solve_upsilon.unconverged", "count"),
    ("large_system.solve_efficiency_scalar.calls", "count"),
    ("large_system.solve_efficiency_scalar.time_s", "s"),
    ("large_system.sinr_user.calls", "count"),
    ("large_system.sinr_user.time_s", "s"),
    ("numerics.bisect.calls", "count"),
    ("numerics.bisect.time_s", "s"),
    ("numerics.hermitian_solve.calls", "count"),
    ("numerics.hermitian_solve.time_s", "s"),
    ("numerics.dense_factorizations", "count"),
    ("numerics.factorization_flops", "flop"),
    ("montecarlo.materialize.calls", "count"),
    ("montecarlo.materialize.time_s", "s"),
    ("montecarlo.build_phi_matrix.calls", "count"),
    ("montecarlo.build_phi_matrix.time_s", "s"),
    ("montecarlo.mmse_sinr.calls", "count"),
    ("montecarlo.mmse_sinr.time_s", "s"),
    ("montecarlo.theorem3_harness.time_s", "s"),
    ("waveforms.spectrum.calls", "count"),
    ("waveforms.spectrum.time_s", "s"),
    ("cli.self_s", "s"),
    ("cli.render_csv_s", "s"),
    ("cli.csv_bytes", "B"),
)


class _Frame:
    __slots__ = ("index", "layer", "foreign_s")

    def __init__(self, index: int, layer: str):
        self.index = index
        self.layer = layer
        self.foreign_s = 0.0  # time of direct child spans in other layers


class Tracer:
    """Span and counter store; wrappers record only while ``active``."""

    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.time_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (name, parent index, start, end)
        self._stack: list[_Frame] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- recording ------------------------------------------------------

    def _wrap(self, metric: str, layer: str, fn, on_call=None,
              on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = _Frame(len(tracer.spans), layer)
            tracer.spans.append(None)
            tracer._stack.append(frame)
            tracer._open[metric] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open[metric] -= 1
                tracer._stack.pop()
                duration = end - start
                tracer.calls[metric] += 1
                if tracer._open[metric] == 0:  # nested calls count once
                    tracer.time_s[metric] += duration
                if layer == "cli":
                    tracer.time_s[metric + ".self"] += (duration
                                                        - frame.foreign_s)
                if parent is not None and parent.layer != layer:
                    parent.foreign_s += duration
                tracer.spans[frame.index] = (
                    metric, parent.index if parent else -1,
                    start - tracer._origin, end - tracer._origin)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        """Replace ``original`` in every loaded cdmalimits namespace."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cdmalimits"
                                      or modname.startswith("cdmalimits.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layers, the CLI entry point,
        the CSV renderer, the waveform spectrum methods and the dense
        factorization routines."""
        import numpy
        import scipy.linalg

        import cdmalimits.cli as cli

        hooks = {
            "large_system.solve_upsilon": dict(
                on_result=self._record_fixed_point),
            "capacity.snr_for_ebn0": dict(on_call=self._count_evals),
        }
        for layer in LAYERS:
            module = sys.modules[f"cdmalimits.{layer}"]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                metric = f"{layer}.{name}"
                wrapped = self._wrap(metric, layer, fn,
                                     **hooks.get(metric, {}))
                self._patch_everywhere(fn, wrapped)

        waveform_cls = sys.modules["cdmalimits.waveforms"].ChipWaveform
        for name in ("spectrum", "power_spectrum"):
            self._patch(waveform_cls, name, self._wrap(
                "waveforms.spectrum", "waveforms", getattr(waveform_cls,
                                                           name)))

        self._patch_everywhere(cli.main, self._wrap("cli.main", "cli",
                                                    cli.main))
        self._patch_everywhere(cli.render_csv, self._wrap(
            "cli.render_csv", "cli", cli.render_csv,
            on_result=self._record_csv))

        self._patch(scipy.linalg, "cho_factor", self._count_factorization(
            scipy.linalg.cho_factor, 1.0 / 3.0))
        self._patch(numpy.linalg, "inv", self._count_factorization(
            numpy.linalg.inv, 2.0))

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- hooks ----------------------------------------------------------

    def _record_fixed_point(self, result) -> None:
        report = result[1]
        self.counts["solve_upsilon.iterations"] += report.iterations
        self.counts["solve_upsilon.unconverged"] += not report.converged

    def _count_evals(self, args, kwargs):
        """Count the capacity evaluations one Eb/N0 inversion makes."""
        args = list(args)
        if len(args) > 2:
            inner, slot = args[2], 2
        else:
            inner, slot = kwargs["capacity_fn"], "capacity_fn"

        def counted(snr):
            self.counts["inversion_evals"] += 1
            return inner(snr)

        if slot == 2:
            args[2] = counted
        else:
            kwargs = dict(kwargs, capacity_fn=counted)
        return tuple(args), kwargs

    def _record_csv(self, text: str) -> None:
        self.counts["csv_bytes"] += len(text.encode("utf-8"))

    def _count_factorization(self, fn, flops_per_n3: float):
        """Count calls made from cdmalimits code, with their flops from the
        matrix sizes (complex arithmetic counted as 4 real flops)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer.active:
                caller = sys._getframe(1).f_globals.get("__name__", "")
                if caller.startswith("cdmalimits"):
                    shape = getattr(a, "shape", ())
                    n = shape[-1] if shape else 0
                    batch = 1
                    for size in shape[:-2]:
                        batch *= size
                    scale = 4.0 if getattr(a, "dtype", None) is not None \
                        and a.dtype.kind == "c" else 1.0
                    tracer.counts["factorizations"] += 1
                    tracer.counts["flops"] += (scale * flops_per_n3
                                               * batch * n ** 3)
            return fn(a, *args, **kwargs)

        return wrapper

    # -- results --------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, dict]:
        """Per-layer metrics per round of the workload."""
        per = 1.0 / rounds
        calls = self.calls
        inversions = calls["capacity.snr_for_ebn0"]
        values = {
            "capacity.evals_per_inversion": (
                self.counts["inversion_evals"] / inversions
                if inversions else 0.0),
            "large_system.solve_upsilon.iterations":
                self.counts["solve_upsilon.iterations"] * per,
            "large_system.solve_upsilon.unconverged":
                self.counts["solve_upsilon.unconverged"] * per,
            "numerics.dense_factorizations":
                self.counts["factorizations"] * per,
            "numerics.factorization_flops": self.counts["flops"] * per,
            "cli.self_s": self.time_s["cli.main.self"] * per,
            "cli.render_csv_s": self.time_s["cli.render_csv"] * per,
            "cli.csv_bytes": self.counts["csv_bytes"] * per,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".calls"):
                value = calls[name[:-len(".calls")]] * per
            else:
                value = self.time_s[name[:-len(".time_s")]] * per
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Write the spans (name, parent, start, end in seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans}, handle)
