"""Output checks for every benchmarked ``infer_*`` call.

A call counts as one failed operation if any check fails.  The first call
of a (config, instance) pair pays for the independent loss recompute; later
calls must reproduce its trace byte for byte, so they reuse it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from cellflow import complexes, harness, hodge

from workloads import MONOTONE, ONE_SOLVE

MONOTONE_TOLERANCE = 1e-8  # acceptance criterion 4
LOSS_TOLERANCE = 1e-8


def trace_bytes(trace, path):
    """The trace as ``harness.write_trace`` writes it with timing off: every
    cumulative time zeroed."""
    records = [dataclasses.replace(r, cumulative_seconds=0.0) for r in trace.records]
    harness.write_trace(records, path)
    return path.read_bytes()


class OutputChecker:
    def __init__(self, scratch_file):
        self.scratch_file = scratch_file
        # (config, instance index) -> (cell keys, recomputed loss, trace bytes, trace loss)
        self.first = {}

    def check(self, config, instance, complex_, trace):
        """Return the list of failed checks (empty when the output is right)."""
        failures = []
        final = trace.final
        k = instance.cells
        if final.cells_total != k or complex_.cell_count != k:
            failures.append(f"cells_total {final.cells_total}, complex has "
                            f"{complex_.cell_count}, budget {k}")
        for cell in complex_.cells:
            try:
                complexes.check_cell(instance.graph, cell)
            except complexes.InvalidCell as exc:
                failures.append(f"invalid cell {cell!r}: {exc}")
                break
        if config in MONOTONE and not (np.diff(trace.losses()) <= MONOTONE_TOLERANCE).all():
            failures.append("loss trace increased")
        if config in ONE_SOLVE and final.cumulative_solver_calls != 1:
            failures.append(f"{final.cumulative_solver_calls} counted solves, expected 1")

        cells = tuple(c.canonical() for c in complex_.cells)
        written = trace_bytes(trace, self.scratch_file)
        key = (config, instance.index)
        if key not in self.first:
            recomputed = hodge.loss(complex_, instance.gradient_free)
            self.first[key] = (cells, recomputed, written, final.loss)
        first_cells, recomputed, first_written, _ = self.first[key]
        if abs(final.loss - recomputed) > LOSS_TOLERANCE * abs(recomputed):
            failures.append(f"trace loss {final.loss!r} != recomputed {recomputed!r}")
        if cells != first_cells or written != first_written:
            failures.append("rerun trace or cells differ from the first run")
        return failures

    def loss_ratio(self, config, instance):
        """Final loss over the planted complex's loss, from the first call."""
        return self.first[(config, instance.index)][3] / instance.reference
