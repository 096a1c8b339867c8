"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

The workload's inputs are built from ``--seed``; repetitions are timed
until ``--seconds`` are used up, and every repetition's outputs are
checked against the workload's oracle.  The last line of standard output
is one JSON object with ``correct``, ``attempted`` (repetitions),
``failed`` (repetitions whose check failed) and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
fixed host speed (``slowdown_sample``).  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics: self
time and call counts of the wrapped entry points, the program's own
counters, and the tracing overhead.  The last traced repetition's spans
are written to ``<workdir>/spans-<workload>.jsonl``.

The exit code is 0 when every check passed, 1 when one failed and 2 when
the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "completed_share": "ratio",
}


def _self_s(*spans):
    return lambda totals, counters, facts: sum(
        totals.get(span, {}).get("self_s", 0.0) for span in spans
    )


def _calls(span):
    return lambda totals, counters, facts: totals.get(span, {}).get("calls", 0)


def _counter(name):
    return lambda totals, counters, facts: counters.get(name, 0)


def _fact(name):
    return lambda totals, counters, facts: facts.get(name, 0)


def _op_latency_us(q):
    def latency(totals, counters, facts):
        import numpy as np

        durations = totals.get("service.client", {}).get("durations")
        if durations is None or not len(durations):
            return 0.0
        return float(np.percentile(durations, q)) * 1e6

    return latency


def _ratio(numerator, denominator):
    def ratio(totals, counters, facts):
        base = denominator(totals, counters, facts)
        return numerator(totals, counters, facts) / base if base else 0.0

    return ratio


#: Per-layer metric -> (unit, function of (span totals, counters, facts)).
PER_LAYER = {
    "workload.population_s": ("s", _self_s("workload.population")),
    "workload.emit_s": ("s", _self_s("workload.emit")),
    "workload.records": ("count", _fact("workload.records")),
    "logs.from_records_s": ("s", _self_s("logs.from_records")),
    "logs.part_write_s": ("s", _self_s("logs.part_write")),
    "logs.merge_s": ("s", _self_s("logs.merge")),
    "logs.blocks": ("count", _counter("logs.merge.items")),
    "core.sessionize_s": ("s", _self_s("core.sessionize")),
    "core.fold_s": ("s", _self_s("core.fold")),
    "core.finalize_s": ("s", _self_s("core.finalize")),
    "core.sessions": ("count", _fact("core.sessions")),
    "stats.select_order_s": ("s", _self_s("stats.select_order")),
    "stats.expmix_s": ("s", _self_s("stats.expmix")),
    "stats.expmix_fits": ("count", _counter("stats.expmix_fits")),
    "stats.expmix_iters": ("count", _counter("stats.expmix_iters")),
    "stats.expmix_capped": (
        "count",
        lambda t, c, f: c.get("stats.expmix_fits", 0) - c.get("stats.expmix_converged", 0),
    ),
    "stats.expmix_converged_share": (
        "ratio",
        _ratio(_counter("stats.expmix_converged"), _counter("stats.expmix_fits")),
    ),
    "stats.gmm_s": ("s", _self_s("stats.gmm")),
    "stats.gmm_iters": ("count", _counter("stats.gmm_iters")),
    "stats.se_s": ("s", _self_s("stats.se")),
    "service.client_s": ("s", _self_s("service.client", "service.new_client")),
    "service.op_p50_us": ("us", _op_latency_us(50)),
    "service.op_p99_us": ("us", _op_latency_us(99)),
    "service.frontend_s": ("s", _self_s("service.frontend")),
    "service.frontend_calls": ("count", _calls("service.frontend")),
    "service.transfer_s": ("s", _self_s("service.transfer")),
    "service.access_log_s": ("s", _self_s("service.access_log")),
    "service.telemetry_s": ("s", _self_s("service.telemetry")),
    "service.requests_per_op": ("req/op", _ratio(_fact("requests"), _fact("ops_issued"))),
    "service.metadata_s": ("s", _self_s("service.metadata")),
    "service.metadata_calls": ("count", _calls("service.metadata")),
    "faults.plan_s": ("s", _self_s("faults.plan")),
    "faults.plan_calls": ("count", _calls("faults.plan")),
    "faults.retries": ("count", _fact("faults.retries")),
    "faults.failovers": ("count", _fact("faults.failovers")),
    "faults.shed_requests": ("count", _fact("faults.shed_requests")),
    "faults.replica_reads": ("count", _fact("faults.replica_reads")),
}

#: Metrics of the traced run itself and of the host, reported next to
#: PER_LAYER.
HARNESS_METRICS = {
    "trace.untraced_run_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.covered_share": "ratio",
    "trace.spans": "count",
    "host.slowdown": "ratio",
    "host.wall_setup_s": "s",
    "host.wall_work_per_s": "1/s",
}


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


def python_kernel() -> None:
    """Interpreted work: dictionary updates keyed by small integers."""
    sums: dict[int, int] = {}
    for i in range(500_000):
        key = i % 977
        sums[key] = sums.get(key, 0) + i
    sorted(sums.items(), key=lambda item: item[1])


def numpy_kernel() -> None:
    """Small-array NumPy work: EM steps of an exponential mixture."""
    import numpy as np

    x = np.linspace(0.01, 300.0, 2000)[:, None]
    means = np.array([1.0, 5.0, 20.0, 80.0, 150.0, 300.0])
    weights = np.full(6, 1 / 6)
    for _ in range(300):
        logp = np.log(weights) - np.log(means) - x / means
        resp = np.exp(logp - logp.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        counts = resp.sum(axis=0)
        means = (resp * x).sum(axis=0) / counts
        weights = counts / counts.sum()


#: Reference kernels, and each one's time on the baseline host when
#: nothing else loads it.
KERNELS = {"python": (python_kernel, 0.06), "numpy": (numpy_kernel, 0.14)}


def slowdown_sample(kernel: str) -> float:
    """A reference kernel's wall time over its idle-host time.

    The shared host of the baseline changes speed by up to 1.5x within
    minutes, and a workload and a kernel doing the same kind of work
    slow down together.  Timing the kernel next to every repetition and
    dividing a run's times by the median of these samples removes most
    of that drift from the end-to-end metrics.  The kernels use no code
    of the program, so the program's speed cannot move them.
    """
    run, idle_s = KERNELS[kernel]
    start = perf_counter()
    run()
    return (perf_counter() - start) / idle_s


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def anon_rss_mb() -> float:
    """Resident anonymous memory of this process (``RssAnon``, Linux only)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no RssAnon line")


class PeakRss:
    """Samples anonymous RSS every ``period`` seconds on a helper thread."""

    def __init__(self, period: float = 0.05) -> None:
        self.period = period
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        while not self._stop.wait(self.period):
            self.peak = max(self.peak, anon_rss_mb())

    def __enter__(self) -> "PeakRss":
        self.peak = anon_rss_mb()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, anon_rss_mb())


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------


#: A repetition sets up again until its set-ups have taken this long, so
#: that ``setup_s`` is a median of many samples even when a run makes only
#: two or three repetitions and one set-up takes 20 ms.
SETUP_SAMPLE_S = 0.25


class Rep:
    """Timed set-ups, a timed run, check and teardown.

    A traced repetition also derives its per-layer metrics and keeps its
    spans in ``tracer`` until the caller drops them.  ``slowdowns`` holds
    the workload's reference kernel samples (``slowdown_sample``) just
    before the set-up and just after the run.
    """

    def __init__(self, workload, seed: int, tracer=None) -> None:
        from spans import ROOT_SPAN, instrument, layer_totals

        begin = perf_counter()
        self.slowdowns = [slowdown_sample(workload.kernel)]
        gc.collect()
        self.setup_samples: list[float] = []
        while True:
            start = perf_counter()
            inputs = workload.setup(seed)
            self.setup_samples.append(perf_counter() - start)
            if sum(self.setup_samples) >= SETUP_SAMPLE_S:
                break
            workload.teardown(inputs)
        self.setup_s = statistics.median(self.setup_samples)
        gc.collect()
        with PeakRss() as rss:
            if tracer is None:
                start = perf_counter()
                output = workload.run(inputs)
                self.run_s = perf_counter() - start
            else:
                with instrument(tracer, workload.hooks), tracer.span(ROOT_SPAN):
                    start = perf_counter()
                    output = workload.run(inputs)
                    self.run_s = perf_counter() - start
        self.peak_rss_mb = rss.peak
        self.slowdowns.append(slowdown_sample(workload.kernel))
        self.failures = workload.check(inputs, output)
        self.outcome = workload.outcome(inputs, output)
        workload.teardown(inputs)
        self.tracer = tracer
        self.layers = None
        if tracer is not None:
            totals = layer_totals(tracer)
            self.layers = {
                name: fn(totals, tracer.counters, self.outcome.facts)
                for name, (_unit, fn) in PER_LAYER.items()
            }
            root = totals[ROOT_SPAN]
            self.layers["trace.covered_share"] = 1.0 - root["self_s"] / self.run_s
            self.layers["trace.spans"] = len(tracer)
        self.total_s = perf_counter() - begin
        print(
            f"repetition: setup {self.setup_s:.4f} s, run {self.run_s:.4f} s, "
            f"peak anon RSS {self.peak_rss_mb:.1f} MB, host slowdown "
            f"{self.slowdowns[0]:.3f} / {self.slowdowns[1]:.3f}"
            + (" (traced)" if tracer is not None else ""),
            file=sys.stderr,
        )


def measure(workload, seed: int, seconds: float, traced: bool) -> list[Rep]:
    """Repeat until the next repetition would overrun ``seconds``.

    Untraced runs make at least one repetition; traced runs alternate an
    untraced and a traced repetition, so they make at least one pair.
    Only the last traced repetition keeps its spans.
    """
    from spans import Tracer

    reps: list[Rep] = []
    begin = perf_counter()
    while True:
        if traced:
            for rep in reps:
                rep.tracer = None
            pair = [Rep(workload, seed), Rep(workload, seed, Tracer())]
            reps += pair
            step = sum(rep.total_s for rep in pair)
        else:
            reps.append(Rep(workload, seed))
            step = reps[-1].total_s
        if perf_counter() - begin + step > seconds:
            return reps


def slowdown(reps: list[Rep]) -> float:
    """The host's slowdown over a run: the median of its kernel samples.

    One median over the whole run, rather than a factor per repetition,
    because a single kernel sample is noisier than the drift it corrects
    within a run.
    """
    return statistics.median(x for r in reps for x in r.slowdowns)


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    """Medians over repetitions, times at the reference host speed."""
    host = slowdown(reps)
    return {
        "setup_s": statistics.median(x for r in reps for x in r.setup_samples) / host,
        "work_per_s": statistics.median(r.outcome.offered / r.run_s for r in reps) * host,
        "peak_rss_mb": max(r.peak_rss_mb for r in reps),
        "completed_share": statistics.median(
            r.outcome.completed / r.outcome.offered for r in reps
        ),
    }


def per_layer(reps: list[Rep]) -> dict[str, float]:
    """Medians over traced repetitions; coverage is the lowest one."""
    traced = [r for r in reps if r.layers is not None]
    metrics = {
        name: statistics.median(r.layers[name] for r in traced) for name in PER_LAYER
    }
    traced_s = statistics.median(r.run_s for r in traced)
    plain_s = statistics.median(r.run_s for r in reps if r.layers is None)
    metrics["trace.untraced_run_s"] = plain_s
    metrics["trace.run_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    metrics["trace.covered_share"] = min(r.layers["trace.covered_share"] for r in traced)
    metrics["trace.spans"] = traced[-1].layers["trace.spans"]
    metrics["host.slowdown"] = slowdown(reps)
    metrics["host.wall_setup_s"] = statistics.median(
        x for r in reps for x in r.setup_samples
    )
    metrics["host.wall_work_per_s"] = statistics.median(
        r.outcome.offered / r.run_s for r in reps
    )
    return metrics


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("pipeline", "fits", "replay-clean", "replay-chaos"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workdir",
        type=Path,
        default=ROOT / ".perfbench",
        help="scratch directory for part files and span dumps",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not under {SOURCE}", file=sys.stderr)
        return 2
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    scratch = args.workdir / f"work-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, scratch)
        reps = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        values = per_layer(reps)
        units = {name: unit for name, (unit, _fn) in PER_LAYER.items()}
        units.update(HARNESS_METRICS)
        reps[-1].tracer.write_jsonl(args.workdir / f"spans-{args.workload}.jsonl")
    else:
        values = end_to_end(reps)
        units = END_TO_END

    failed = [rep for rep in reps if rep.failures]
    for rep in failed:
        for failure in rep.failures:
            print(f"check failed: {failure}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"repetitions={len(reps)}"
    )
    for name, value in values.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    # One process, one BLAS thread: set before NumPy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
