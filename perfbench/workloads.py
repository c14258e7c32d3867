"""Workloads, inference configs and instance set-up for the cellflow benchmark.

Every cellflow function is looked up through its module at call time
(``synth.random_complex``, not an imported name), so the wrappers that
``layers.Tracer.install`` binds into the modules see the benchmark's calls.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cellflow import baselines, complexes, harness, hodge, mfci, synth

CONFIGS = ("fast", "exact", "best1of8", "sph", "random")

# Configs whose trace must be non-increasing (acceptance criterion 4) and
# configs whose loop makes no counted solve after gradient removal.
MONOTONE = ("exact", "best1of8", "sph", "random")
ONE_SOLVE = ("fast", "random")


@dataclass(frozen=True)
class Workload:
    """One tier: the generator shape, how many distinct instances a run
    uses, and how often each config is called per instance visit.

    Cheap configs are called several times per visit, which gives their
    medians more samples at little cost.
    """

    nodes: int
    edge_probability: float
    cells: int
    flows: int
    instances: int
    repeats: dict
    noise_std: float = 0.3
    cell_std: float = 1.0

    def synth_config(self):
        return synth.SynthConfig(self.nodes, self.edge_probability, self.cells, self.flows,
                                 self.cell_std, self.noise_std)


WORKLOADS = {
    # Acceptance tier (m ~ 700): LSMR-bound.  sph makes 600 solves and
    # best1of8 about 440, so hodge and complexes re-validation dominate.
    "dense": Workload(40, 0.9, 50, 64, instances=4,
                      repeats={"fast": 2, "exact": 2, "best1of8": 1, "sph": 1, "random": 2}),
    # Per-call-overhead tier (m ~ 100): solves take ~2 ms and SVDs
    # microseconds, so fixed costs added to each call show here.
    "small": Workload(20, 0.5, 16, 16, instances=32,
                      repeats={"fast": 1, "exact": 1, "best1of8": 1, "sph": 1, "random": 1}),
}


def make_config(name, cells):
    """The inference config behind a config name, at a cell budget."""
    if name == "fast":
        return mfci.InferenceConfig(cells, 8, 8, method="ica", discretization="deterministic",
                                    projection="approximate")
    if name == "exact":
        return mfci.InferenceConfig(cells, 8, 8, method="ica", discretization="deterministic",
                                    projection="exact")
    if name == "best1of8":
        return mfci.InferenceConfig(cells, 8, 1, method="svd", projection="exact")
    if name == "sph":
        return baselines.SphConfig(cells, candidates_per_iteration=11)
    if name == "random":
        return cells
    raise ValueError(f"unknown config {name!r}")


def _no_clock():
    return 0.0


def infer(name, instance, cells=None, timing=True):
    """One ``infer_*`` call on an instance with a fresh, instance-keyed
    algorithm stream; returns ``(complex, trace)``."""
    cells = instance.cells if cells is None else cells
    cfg = make_config(name, cells)
    rng = np.random.default_rng([instance.seed, instance.index, 1])
    timer = None if timing else _no_clock
    if name == "sph":
        return baselines.infer_sph(instance.graph, instance.flows, cfg, rng, timer)
    if name == "random":
        return baselines.infer_random(instance.graph, instance.flows, cfg, rng, timer)
    return mfci.infer_mfci(instance.graph, instance.flows, cfg, rng, timer)


@dataclass
class Instance:
    seed: int
    index: int
    cells: int
    graph: complexes.OrientedGraph
    flows: np.ndarray
    truth: complexes.CellComplex
    gradient_free: np.ndarray
    reference: float


class RoundTripMismatch(Exception):
    """A dataset read back from disk differs from what was written."""


def _round_trip(directory, complex_, flows, cfg):
    synth.save_dataset(directory, complex_, flows, cfg)
    paths = harness.DatasetPaths(directory / "edges.txt", directory / "flows.csv",
                                 directory / "cells.txt")
    graph, loaded, truth = harness.load_dataset(paths)
    if (graph.node_count != complex_.graph.node_count or graph.edges != complex_.graph.edges
            or not np.array_equal(loaded, flows) or truth.cells != complex_.cells):
        raise RoundTripMismatch(f"{directory}: dataset changed in the file round trip")
    return graph, loaded, truth


def make_instances(workload, seed, work_dir):
    """Generate the run's instances from the workload seed: instance i draws
    from ``default_rng([seed, i, 0])``, goes through the dataset files, and
    gets its planted-complex reference loss."""
    cfg = workload.synth_config()
    instances = []
    for i in range(workload.instances):
        rng = np.random.default_rng([seed, i, 0])
        planted = synth.random_complex(cfg, rng)
        flows = synth.sample_flows(planted, workload.flows, workload.cell_std,
                                   workload.noise_std, rng)
        directory = Path(work_dir) / f"instance{i}"
        graph, flows, truth = _round_trip(directory, planted, flows, cfg)
        shutil.rmtree(directory)
        reference = synth.reference_loss(truth, flows)
        gradient_free = hodge.remove_gradient(graph, flows)
        instances.append(Instance(seed, i, workload.cells, graph, flows, truth,
                                  gradient_free, reference))
    return instances


# Smallest budgets that still run one full loop iteration of each config.
_WARMUP_CELLS = {"fast": 8, "exact": 8, "best1of8": 1, "sph": 1, "random": 1}


def warm_up(instance):
    """One untimed call per config at a one-iteration budget, on a real
    instance, so BLAS start-up and first-call costs land in set-up."""
    for name in CONFIGS:
        infer(name, instance, cells=min(instance.cells, _WARMUP_CELLS[name]))
