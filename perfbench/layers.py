"""Outside-in layer tracing: wrappers around cellflow's public functions.

``install`` replaces each traced function in every ``cellflow`` module
namespace that holds it (its defining module and every module that imported
the name), so a call is seen wherever the caller looks the function up.
Each wrapper records a span; a layer's self time is its span minus the
spans of wrapped functions it called.  Outside ``Tracer.run`` the wrappers
only forward the call.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    returned: int = 0
    inclusive: float = 0.0
    seconds: float = 0.0  # self time
    iterations: int = 0
    nonconverged: int = 0


def _solver_counts(stat, result):
    stat.iterations += result.iterations
    stat.nonconverged += not result.converged


def _ica_counts(stat, result):
    stat.nonconverged += not result.converged


# layer name -> (functions as "module:attribute", result observer)
LAYERS = {
    "hodge.least_squares": (("cellflow.hodge:least_squares",), _solver_counts),
    "hodge.approx_harmonic_update": (("cellflow.hodge:approx_harmonic_update",), None),
    "factorize.fast_ica": (("cellflow.factorize:fast_ica",), _ica_counts),
    "factorize.truncated_svd": (("cellflow.factorize:truncated_svd",), None),
    "factorize.column_scores": (("cellflow.factorize:column_scores",), None),
    "mfci.discretize": (("cellflow.mfci:discretize_deterministic",
                         "cellflow.mfci:discretize_random_walk"), None),
    "mfci.evaluate_and_select": (("cellflow.mfci:evaluate_and_select",), None),
    "complexes.check_cell": (("cellflow.complexes:check_cell",), None),
    "complexes.tree_cycle": (("cellflow.complexes:tree_cycle",), None),
    "complexes.boundary_matrix": (("cellflow.complexes:CellComplex.boundary_matrix",), None),
    "baselines.sph_candidates": (("cellflow.baselines:sph_candidates",), None),
    "synth.random_complex": (("cellflow.synth:random_complex",), None),
    "synth.sample_flows": (("cellflow.synth:sample_flows",), None),
    "synth.reference_loss": (("cellflow.synth:reference_loss",), None),
    "synth.save_dataset": (("cellflow.synth:save_dataset",), None),
    "harness.load_dataset": (("cellflow.harness:load_dataset",), None),
}


class Tracer:
    def __init__(self):
        self.scope = None
        self.stats = {}  # scope -> layer -> Stat
        self._children = []  # child-span seconds of each open span
        self._restore = []

    def _wrap(self, layer, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.scope is None:
                return fn(*args, **kwargs)
            stat = tracer.stats[tracer.scope].setdefault(layer, Stat())
            stat.calls += 1
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stat.inclusive += elapsed
                stat.seconds += elapsed - tracer._children.pop()
                tracer._children[-1] += elapsed
            stat.returned += 1
            if observe is not None:
                observe(stat, result)
            return result

        return wrapper

    def install(self):
        """Bind a wrapper wherever a traced function is referenced."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cellflow" or name.startswith("cellflow.")]
        for layer, (targets, observe) in LAYERS.items():
            for target in targets:
                module_name, attr = target.split(":")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(sys.modules[module_name], cls_name)
                    original = vars(cls)[method]
                    self._restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(layer, original, observe))
                    continue
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(layer, original, observe)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, name, original))
                            setattr(module, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def run(self, scope, fn, *args, **kwargs):
        """Call ``fn`` as the root span of ``scope``; returns ``(result,
        wall seconds, root self seconds)``.  Layer stats accumulate into
        ``stats[scope]``."""
        self.stats.setdefault(scope, {})
        self.scope = scope
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            children = self._children.pop()
            self.scope = None
        return result, wall, wall - children
