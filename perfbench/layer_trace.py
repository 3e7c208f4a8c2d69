"""Per-layer self time of in-process solves, measured from outside.

The traced run wraps each layer's public function at every name binding
the program calls it through (a module attribute or a class attribute),
so no file of the program changes.  ``pareto_block_mask``, for example,
is bound separately in ``repro.core.frontier``, ``repro.core.label_search``
and ``repro.baselines.pareto_dp``; all three bindings are wrapped.

A layer's self time is its wrapped duration minus the durations of the
wrapped calls nested inside it.  ``portfolio.other`` wraps the whole
portfolio solve, so its self time is the solve wall no other wrapper
attributes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer name, defining module, attribute path).  Metric names are
#: ``<layer>_s`` (self seconds) and ``<layer>_calls``.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("portfolio.features", "repro.core.portfolio", "instance_features"),
    ("greedy.seed", "repro.baselines.greedy", "greedy_assignment"),
    ("pareto_dp.cross_check", "repro.baselines.pareto_dp",
     "pareto_dp_pruned_assignment"),
    ("coloring.color_tree", "repro.core.coloring", "color_tree"),
    ("assignment_graph.build", "repro.core.assignment_graph",
     "build_assignment_graph"),
    ("assignment_graph.reconstruct", "repro.core.assignment_graph",
     "ColoredAssignmentGraph.path_to_assignment"),
    ("label_search.potentials", "repro.core.label_search",
     "completion_potentials"),
    ("label_search.sweep", "repro.core.label_search",
     "LabelDominanceSearch.search"),
    ("frontier.block_mask", "repro.core.frontier", "pareto_block_mask"),
    ("portfolio.other", "repro.core.portfolio", "PortfolioSolver.solve"),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)


class LayerClock:
    """Wrap the layer functions; accumulate self seconds and call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.calls: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
        #: largest ``frontier_peak`` any wrapped label sweep returned
        self.frontier_peak = 0
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter
        observe = self._observe_sweep if name == "label_search.sweep" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self_s[name] += elapsed - nested[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_sweep(self, result: Any) -> None:
        stats = getattr(result, "stats", None)
        peak = getattr(stats, "frontier_peak", 0) or 0
        self.frontier_peak = max(self.frontier_peak, peak)

    def install(self) -> None:
        """Replace every binding of every layer function with its wrapper."""
        for name, module_name, path in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            for bound in list(sys.modules.values()):
                if not getattr(bound, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(bound).items()):
                    if value is original:
                        self._patch(bound, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any,
               wrapper: Callable) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def portfolio_counts(details_list: List[Optional[Dict[str, Any]]]
                     ) -> Dict[str, float]:
    """Counts read from the public ``details`` of portfolio solves."""
    created = pruned = bidir = checked = solves = 0
    for details in details_list:
        if not details:
            continue
        solves += 1
        for stage in details.get("stages", ()):
            if stage.get("stage") == "labels":
                created += stage.get("labels_created") or 0
                pruned += stage.get("labels_bound_pruned") or 0
                bidir += stage.get("direction") == "bidirectional"
            elif stage.get("stage") == "dp-pruned" and not stage.get("skipped"):
                checked += 1
    return {
        "labels_created": created,
        "pruned_share": pruned / created if created else 0.0,
        "bidir_share": bidir / solves if solves else 0.0,
        "cross_check_share": checked / solves if solves else 0.0,
    }
