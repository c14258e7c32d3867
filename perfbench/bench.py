"""Set-up, measurement loop and metrics of one benchmark run (see run.py)."""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from checks import OutputChecker
from layers import LAYERS, Tracer
from workloads import CONFIGS, ONE_SOLVE, WORKLOADS, infer, make_instances, warm_up

SETUP_REPEATS = 5


class Run:
    """Counters and samples of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.wall = {c: [] for c in CONFIGS}
        self.cpu = {c: 0.0 for c in CONFIGS}
        self.report = {c: [] for c in CONFIGS}
        self.traced_wall = {c: [] for c in CONFIGS}
        self.root_self = {c: 0.0 for c in CONFIGS}

    def fail(self, what, reasons):
        self.failed += 1
        self.problems.append(f"{what}: {'; '.join(reasons)}")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line and line.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def set_up(workload, seed, work_dir, tracer):
    """Build the run's instances and warm up, ``SETUP_REPEATS`` times;
    returns the instances and the seconds of each repetition."""

    def once():
        instances = make_instances(workload, seed, work_dir)
        warm_up(instances[0])
        return instances

    seconds = []
    for _ in range(SETUP_REPEATS):
        if tracer is None:
            start = time.perf_counter()
            instances = once()
            seconds.append(time.perf_counter() - start)
        else:
            instances, wall, _ = tracer.run("setup", once)
            seconds.append(wall)
    return instances, seconds


def expected_solver_calls(config, trace):
    """Solves a traced call must make.  ``fast`` and ``random`` make one
    counted solve, then one uncounted reporting solve per loop iteration,
    that is, per record after the first."""
    if config in ONE_SOLVE:
        return len(trace.records)
    return trace.final.cumulative_solver_calls


def solver_calls(tracer, config):
    stat = tracer.stats.get(config, {}).get("hodge.least_squares")
    return stat.calls if stat else 0


def call(run, config, instance, checker, visits, tracer=None, traced_run=False):
    """One checked ``infer_*`` call; traced when a tracer is given.
    Untraced calls of an untraced run alternate the trace clock on and off
    by visit; in a traced run the clock stays on, so that the reporting
    time (wall time minus the trace's own clock) can be read off."""
    key = (config, instance.index)
    visit = visits.get(key, 0)
    visits[key] = visit + 1
    gc.collect()
    if tracer is None:
        cpu = time.process_time()
        start = time.perf_counter()
        complex_, trace = infer(config, instance, timing=traced_run or visit % 2 == 0)
        wall = time.perf_counter() - start
        run.cpu[config] += time.process_time() - cpu
        run.wall[config].append(wall)
        if traced_run:
            run.report[config].append(wall - trace.final.cumulative_seconds)
    else:
        before = solver_calls(tracer, config)
        (complex_, trace), wall, root_self = tracer.run(config, infer, config, instance)
        run.traced_wall[config].append(wall)
        run.root_self[config] += root_self
        seen = solver_calls(tracer, config) - before
        expected = expected_solver_calls(config, trace)
        if seen != expected:
            run.fail(f"{config} instance {instance.index} (traced)",
                     [f"wrapper saw {seen} least_squares calls, expected {expected}"])
    run.attempted += 1
    reasons = checker.check(config, instance, complex_, trace)
    if reasons:
        run.fail(f"{config} instance {instance.index} visit {visit}", reasons)


def measure(run, workload, instances, seconds, checker, tracer):
    """Passes until the next one would overrun ``seconds``.  Pass p visits
    instance p mod K and calls every config ``repeats`` times, in an order
    rotated by p.  Untraced runs make at least K passes, so every instance
    is measured.  A config is rerun, and checked against its first output,
    within a visit when its repeat count is above one, and on a later
    visit when the run makes more than K passes."""
    min_passes = 1 if tracer else len(instances)
    visits = {}
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        instance = instances[passes % len(instances)]
        shift = passes % len(CONFIGS)
        order = CONFIGS[shift:] + CONFIGS[:shift]
        for rep in range(max(workload.repeats.values())):
            for config in order:
                if rep >= workload.repeats[config]:
                    continue
                if tracer is None:
                    call(run, config, instance, checker, visits)
                    continue
                pair = (None, tracer) if (passes + rep) % 2 == 0 else (tracer, None)
                for t in pair:
                    call(run, config, instance, checker, visits, t, traced_run=True)
        passes += 1
        now = time.perf_counter()
        if passes >= min_passes and now - start + (now - pass_start) > seconds:
            return passes


def end_to_end_metrics(run, instances, checker, setup_seconds, import_s):
    metrics = {
        "setup_s": import_s + statistics.median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for config in CONFIGS:
        metrics[f"{config}_s"] = statistics.median(run.wall[config])
        metrics[f"{config}_loss"] = statistics.median(
            checker.loss_ratio(config, instance) for instance in instances)
    return metrics


def per_layer_metrics(run, tracer, setup_seconds, cells):
    """Means per traced call, named ``<config>.<module>.<fn>.<unit>``."""
    metrics = {}
    for config in CONFIGS:
        n = len(run.traced_wall[config])
        wall = sum(run.traced_wall[config]) / n
        stats = tracer.stats[config]
        self_total = 0.0
        for layer, stat in stats.items():
            metrics[f"{config}.{layer}.s"] = stat.seconds / n
            metrics[f"{config}.{layer}.calls"] = stat.calls / n
            metrics[f"{config}.{layer}.iters"] = stat.iterations / n
            metrics[f"{config}.{layer}.nonconverged"] = stat.nonconverged / n
            self_total += stat.seconds / n
        unattributed = wall - self_total
        metrics[f"{config}.wall.s"] = wall
        metrics[f"{config}.unattributed.s"] = unattributed
        metrics[f"{config}.trace_overhead.s"] = wall - statistics.fmean(run.wall[config])
        metrics[f"{config}.report.s"] = statistics.fmean(run.report[config])
        discretized = stats.get("mfci.discretize")
        if discretized is not None:
            metrics[f"{config}.mfci.candidates"] = discretized.returned / n
            metrics[f"{config}.mfci.added_ratio"] = cells * n / discretized.returned
        # Self times telescope, so what the layers leave over must be the
        # root span's own time.
        if abs(unattributed - run.root_self[config] / n) > 1e-9 * wall or unattributed < 0:
            run.fail(f"{config} layer sum", [
                f"layers + unattributed {self_total + unattributed!r} vs wall {wall!r}, "
                f"root self {run.root_self[config] / n!r}"])
    metrics["setup.cold.s"] = setup_seconds[0]
    setup_stats = tracer.stats["setup"]
    for layer in LAYERS:
        if layer.split(".")[0] in ("synth", "harness"):
            stat = setup_stats.get(layer)
            metrics[f"setup.{layer}.s"] = (stat.inclusive if stat else 0.0) / len(setup_seconds)
    metrics["setup.wall.s"] = statistics.fmean(setup_seconds)
    return metrics


def run_workload(name, seed, seconds, trace, spec, work_dir, import_s):
    """Set up and measure one workload; returns ``(run, metrics, details)``
    with the metrics that ``spec`` lists for the trace mode."""
    workload = WORKLOADS[name]
    run = Run()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        instances, setup_seconds = set_up(workload, seed, work_dir, tracer)
        checker = OutputChecker(Path(work_dir) / "trace.csv")
        passes = measure(run, workload, instances, seconds, checker, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    if trace:
        produced = per_layer_metrics(run, tracer, setup_seconds, workload.cells)
        wanted = spec["per_layer"]
    else:
        produced = end_to_end_metrics(run, instances, checker, setup_seconds, import_s)
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = produced.get(entry["name"])
        if value is None:
            run.problems.append(f"metric {entry['name']} was not produced")
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": passes,
        "instances": len(instances),
        "samples": {c: len(run.wall[c]) for c in CONFIGS},
        "max_s": {c: max(run.wall[c]) for c in CONFIGS},
        "cpu_to_wall": {c: run.cpu[c] / sum(run.wall[c]) for c in CONFIGS},
        "setup_repeats_s": setup_seconds,
        "import_s": import_s,
    }
    if trace:
        details["trace_overhead_s"] = {c: produced[f"{c}.trace_overhead.s"] for c in CONFIGS}
    return run, metrics, details
