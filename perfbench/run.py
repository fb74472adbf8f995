"""Benchmark of fermicool's three engines and its CLI.

    python3 perfbench/run.py --workload {ledger,sweep,bath,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  One
process drives the workload as a closed loop with one client.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced rounds and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("ledger", "sweep", "bath", "cli")  # as in workloads.build
SETUP_PROBES = 5
MIN_ROUNDS = 2
CALIBRATION_INTERVAL_S = 0.5
CALIBRATION_REPEATS = 3
PROBE = (
    "import time\n"
    "t = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "import fermicool\n"
    "print(t, time.clock_gettime(time.CLOCK_MONOTONIC), fermicool.__file__)\n"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="'all' runs each workload in turn, in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> int:
    """Point this process and its children at ./src; cap BLAS threads at nproc."""
    if not (SRC / "fermicool" / "__init__.py").is_file():
        sys.exit(f"error: no fermicool package under {SRC}; run from a full checkout")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    sys.path.insert(0, str(SRC))
    return nproc


def fingerprint(nproc: int) -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={nproc} blas={blas['name']} {blas['version']} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__}")


def setup_probe() -> tuple[float, float]:
    """(interpreter start, import) seconds of one fresh `import fermicool` process.

    Both processes read CLOCK_MONOTONIC, so the span runs from just before
    the process is spawned until the import returns.
    """
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, timeout=120, check=True)
    before, after, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        sys.exit(f"error: fresh interpreter imported fermicool from {path}, not {SRC}")
    return float(before) - t0, float(after) - float(before)


class Run:
    """Timed rounds of one workload, with their checks and failure counts."""

    def __init__(self, ops, kernel: str, tracer=None):
        self.ops = ops
        self.kernel = kernel
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: set[str] = set()
        self.rounds: list[dict] = []
        self.probes: list[tuple[float, float]] = []
        self.calibration: dict[str, list[float]] = {"ops": [], "setup": []}

    def round(self, traced: bool = False) -> dict:
        """Each operation once; its seconds, or None if it failed."""
        times = []
        for op in self.ops:
            self.attempted += 1
            failure = None
            if traced:
                self.tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                failure = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            if traced:
                self.tracer.enabled = False
            if failure is not None:
                self.failed += 1
                self.failures.add(failure)
                times.append(None)
                continue
            times.append(seconds)
            self.problems += op.check(result)
        record = {"times": times, "traced": traced}
        if traced:
            record["layers"] = self.tracer.take_round()
        return record

    def calibrate(self, which: str, kernel: str, repeats: int):
        import calibrate  # after prepare_environment: it imports numpy

        for _ in range(repeats):
            t0 = time.perf_counter()
            calibrate.KERNELS[kernel]()
            self.calibration[which].append(time.perf_counter() - t0)

    def probe(self):
        self.probes.append(setup_probe())
        self.calibrate("setup", "fresh_interpreter", 2)

    def measure(self, seconds: float):
        """Whole rounds for `seconds`; traced runs alternate untraced and traced rounds.

        The set-up probes and the calibration kernels run between
        rounds, spread over the same time, so that they see the host in the
        same states as the rounds do.
        """
        min_rounds = 2 * MIN_ROUNDS if self.tracer else MIN_ROUNDS
        start = time.perf_counter()
        elapsed = 0.0
        calibrated = -CALIBRATION_INTERVAL_S
        while len(self.rounds) < min_rounds or elapsed < seconds:
            if len(self.probes) * seconds <= elapsed * SETUP_PROBES:
                self.probe()
            if time.perf_counter() - start - calibrated >= CALIBRATION_INTERVAL_S:
                self.calibrate("ops", self.kernel, CALIBRATION_REPEATS)
                calibrated = time.perf_counter() - start
            traced = self.tracer is not None and len(self.rounds) % 2 == 1
            self.rounds.append(self.round(traced))
            elapsed = time.perf_counter() - start
        while len(self.probes) < SETUP_PROBES:
            self.probe()

    def speed_factors(self) -> dict[str, float]:
        """Reference-host seconds per measured second, for ops and for set-up."""
        import calibrate

        return {which: calibrate.REFERENCE_S[kernel] / lower_decile(self.calibration[which])
                for which, kernel in (("ops", self.kernel), ("setup", "fresh_interpreter"))}

    def typical_times(self, traced: bool = False) -> list[float | None]:
        """Per operation, the lower decile of its times over the rounds.

        The same operation's time is bimodal on a shared host (see README),
        and the lower decile is the statistic that repeats from run to run.
        """
        rounds = [r["times"] for r in self.rounds if r["traced"] == traced]
        return [lower_decile([t for t in ts if t is not None]) for ts in zip(*rounds)]


def lower_decile(values) -> float | None:
    """10th percentile, interpolated linearly between order statistics."""
    if not values:
        return None
    xs = sorted(values)
    pos = 0.1 * (len(xs) - 1)
    i = int(pos)
    return xs[i] + (xs[min(i + 1, len(xs) - 1)] - xs[i]) * (pos - i)


def _mean_time(run: Run, kind: str) -> float:
    times = [t for op, t in zip(run.ops, run.typical_times()) if op.kind == kind and t is not None]
    return statistics.fmean(times) if times else 0.0


def end_to_end(run: Run, peak_rss_kb: int) -> dict:
    return {
        "setup_s": (lower_decile([a + b for a, b in run.probes]), "s"),
        "op_s": (_mean_time(run, "main"), "s"),
        "aux_op_s": (_mean_time(run, "aux"), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


TIME_UNITS = {"s", "ms", "us"}


def scaled(metrics: dict, factors: dict[str, float]) -> dict:
    """Times in reference-host seconds: set-up times by the set-up factor,
    all other times by the workload's factor; counts and ratios as measured."""
    return {
        name: (value * factors["setup" if name.startswith("setup") else "ops"]
               if unit in TIME_UNITS else value, unit)
        for name, (value, unit) in metrics.items()
    }


def per_layer(run: Run) -> dict:
    import spans

    metrics = spans.per_layer_metrics(
        [r["layers"] for r in run.rounds if r["traced"]], lower_decile)
    metrics["setup.interpreter_s"] = (lower_decile([a for a, _ in run.probes]), "s")
    metrics["setup.import_s"] = (lower_decile([b for _, b in run.probes]), "s")
    pairs = [(p, t) for p, t in zip(run.typical_times(False), run.typical_times(True))
             if p is not None and t is not None]
    overhead = sum(t for _, t in pairs) / sum(p for p, _ in pairs) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    nproc = prepare_environment()
    print(f"fingerprint: {fingerprint(nproc)}", flush=True)

    import fermicool

    import spans
    import workloads

    tracer = spans.Tracer(fermicool) if args.trace else None
    out_root = Path(__file__).resolve().parent / "out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=out_root) as workdir:
        in_process = args.workload != "cli" or bool(args.trace)
        ops = workloads.build(args.workload, args.seed, Path(workdir), in_process)
        run = Run(ops, workloads.KERNEL[args.workload], tracer)
        with tracer.installed() if tracer else contextlib.nullcontext():
            run.measure(args.seconds)

    if args.trace:
        measured = per_layer(run)
    else:
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        measured = end_to_end(run, resource.getrusage(who).ru_maxrss)
    factors = run.speed_factors()
    metrics = scaled(measured, factors)

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in sorted(run.failures):
        print(f"operation failed: {failure}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(run.rounds)} attempted={run.attempted} failed={run.failed} "
          f"correct={not run.problems}")
    print(f"host speed: {run.kernel} {lower_decile(run.calibration['ops']):.4g} s, "
          f"fresh_interpreter {lower_decile(run.calibration['setup']):.4g} s; "
          f"times scaled by {factors['ops']:.4g} and {factors['setup']:.4g} (set-up)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}  (measured {measured[name][0]:.6g})")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
