#!/usr/bin/env python3
# Head-to-head on one synthetic instance: the factorization heuristic with
# and without candidate evaluation, the spanning-tree baseline, and random
# cells.  The fast variant updates its harmonic flows by a cheap span
# projection inside its loop, which is where its speed comes from.

import time

import numpy as np

from cellflow import (
    InferenceConfig,
    SphConfig,
    SynthConfig,
    infer_mfci,
    infer_random,
    infer_sph,
    random_complex,
    sample_flows,
)

synth = SynthConfig(25, 0.8, 20, 32, 1.0, 0.3, seed=1)
truth = random_complex(synth)
flows = sample_flows(truth, 32, 1.0, 0.3, np.random.default_rng(1))
graph = truth.graph
k = 20
print(f"instance: {truth}, inferring {k} cells\n")

runs = {}

cfg_best = InferenceConfig(total_cells=k, candidates_per_iteration=4, added_per_iteration=1,
                           method="svd", projection="exact")
t0 = time.perf_counter()
_, runs["mfci best-1-of-4"] = infer_mfci(graph, flows, cfg_best, np.random.default_rng(10))
best_t = time.perf_counter() - t0

cfg_fast = InferenceConfig(total_cells=k, candidates_per_iteration=4, added_per_iteration=4,
                           method="svd", projection="approximate")
t0 = time.perf_counter()
_, runs["mfci all-4, fast"] = infer_mfci(graph, flows, cfg_fast, np.random.default_rng(10))
fast_t = time.perf_counter() - t0

t0 = time.perf_counter()
_, runs["spanning-tree"] = infer_sph(graph, flows, SphConfig(total_cells=k,
                                                             candidates_per_iteration=6))
sph_t = time.perf_counter() - t0

t0 = time.perf_counter()
_, runs["random cells"] = infer_random(graph, flows, k, np.random.default_rng(11))
rand_t = time.perf_counter() - t0

print(f"{'algorithm':>18} | {'final loss':>10} | {'solver calls':>12} | {'wall s':>7}")
walls = {"mfci best-1-of-4": best_t, "mfci all-4, fast": fast_t,
         "spanning-tree": sph_t, "random cells": rand_t}
for name, trace in runs.items():
    final = trace.final
    print(f"{name:>18} | {final.loss:10.4f} | {final.cumulative_solver_calls:12d} "
          f"| {walls[name]:7.3f}")

print("\nloss after every added cell (columns: cells so far)")
header = "cells: " + " ".join(f"{c:7d}" for c in range(0, k + 1, 4))
print(header)
for name, trace in runs.items():
    by_cells = {r.cells_total: r.loss for r in trace.records}
    filled = []
    last = trace.records[0].loss
    for c in range(0, k + 1):
        last = by_cells.get(c, last)
        if c % 4 == 0:
            filled.append(last)
    print(f"{name:>6.6s}: " + " ".join(f"{v:7.2f}" for v in filled))
