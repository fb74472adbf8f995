"""Per-layer spans for fermicool, recorded from outside the program.

The public functions of each layer module (everything function-valued in
`fermicool.__all__`, plus `cli.main` and `cli.write_table`) are replaced by
a wrapper at every module attribute through which they are called: the
package namespace, the defining module, and each module that imported the
name directly (for example `fermicool.protocol.subsystem_entropy`).  Each
wrapper records a span [name, start, end, parent].  A span's self time is
its duration minus the durations of its direct children.  No program file is
edited; `installed()` restores the original objects on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("gaussian", "master_eq", "exact_bath", "protocol", "cli")


def _count_rate_steps(counts, traj, seconds):
    counts["master_eq.steps"] += len(traj.times) - 1


def _count_bath_steps(counts, run, seconds):
    steps = len(run.times) - 1
    counts["exact_bath.steps"] += steps
    counts[f"exact_bath.K{run.spec.K}.steps"] += steps
    counts[f"exact_bath.K{run.spec.K}.s"] += seconds


_ON_RETURN = {
    "master_eq.integrate_population": _count_rate_steps,
    "exact_bath.simulate": _count_bath_steps,
}


class Tracer:
    """Span recorder for one benchmark process.  Off until `enabled` is set."""

    def __init__(self, package):
        self.enabled = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        modules = [package] + [importlib.import_module(f"{package.__name__}.{name}")
                               for name in LAYERS]
        targets = [getattr(package, name) for name in package.__all__]
        targets += [package.cli.main, package.cli.write_table]
        wrappers = {id(fn): self._wrap(fn) for fn in targets if inspect.isfunction(fn)}
        self._sites = [
            (module, attr, value, wrappers[id(value)])
            for module in modules
            for attr, value in vars(module).items()
            if id(value) in wrappers
        ]

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        on_return = _ON_RETURN.get(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counts, result, span[2] - span[1])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._sites:
                setattr(module, attr, original)

    def take_round(self) -> dict:
        """Calls, self time and counts per span name and per layer; then reset."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        calls, self_s = Counter(), Counter()
        for (name, start, end, _), child in zip(self.spans, inner):
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                calls[key] += 1
                self_s[key] += end - start - child
        summary = {"calls": calls, "self_s": self_s, "counts": Counter(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return summary


def _per_step(seconds, steps, scale):
    return scale * seconds / steps if steps else 0.0


# name -> (unit, value of one traced round).  A layer the workload does not
# reach reads 0 for that round.
PER_LAYER = {
    "protocol.run_purification.calls": ("count", lambda r: r["calls"]["protocol.run_purification"]),
    "protocol.run_purification.self_s": ("s", lambda r: r["self_s"]["protocol.run_purification"]),
    "protocol.run_witness_sequence.self_s": ("s", lambda r: r["self_s"]["protocol.run_witness_sequence"]),
    "gaussian.calls": ("count", lambda r: r["calls"]["gaussian"]),
    "gaussian.subsystem_entropy.calls": ("count", lambda r: r["calls"]["gaussian.subsystem_entropy"]),
    "gaussian.self_s": ("s", lambda r: r["self_s"]["gaussian"]),
    "master_eq.integrate_population.calls": ("count", lambda r: r["calls"]["master_eq.integrate_population"]),
    "master_eq.integrate_population.self_s": ("s", lambda r: r["self_s"]["master_eq.integrate_population"]),
    "master_eq.heat_dissipated.self_s": ("s", lambda r: r["self_s"]["master_eq.heat_dissipated"]),
    "master_eq.steps": ("count", lambda r: r["counts"]["master_eq.steps"]),
    "master_eq.us_per_step": ("us", lambda r: _per_step(
        r["self_s"]["master_eq.integrate_population"], r["counts"]["master_eq.steps"], 1e6)),
    "exact_bath.steps": ("count", lambda r: r["counts"]["exact_bath.steps"]),
    "exact_bath.simulate.self_s": ("s", lambda r: r["self_s"]["exact_bath.simulate"]),
    "exact_bath.ms_per_step.K200": ("ms", lambda r: _per_step(
        r["counts"]["exact_bath.K200.s"], r["counts"]["exact_bath.K200.steps"], 1e3)),
    "exact_bath.ms_per_step.K50": ("ms", lambda r: _per_step(
        r["counts"]["exact_bath.K50.s"], r["counts"]["exact_bath.K50.steps"], 1e3)),
    "exact_bath.compare_with_master_equation.self_s": (
        "s", lambda r: r["self_s"]["exact_bath.compare_with_master_equation"]),
    "cli.main.self_s": ("s", lambda r: r["self_s"]["cli.main"]),
    "cli.write_table.self_s": ("s", lambda r: r["self_s"]["cli.write_table"]),
}


def per_layer_metrics(rounds: list[dict], aggregate) -> dict[str, tuple[float, str]]:
    """`aggregate` over the traced rounds of each per-layer value."""
    return {name: (aggregate([value(r) for r in rounds]), unit)
            for name, (unit, value) in PER_LAYER.items()}
