"""Unit tests for the solver registry."""

import pytest

from repro.core.solver import SolverResult, available_methods
from repro.runtime import SolverRegistry, SolverSpec, UnknownSolverError, default_registry


class TestDefaultRegistry:
    def test_carries_every_facade_method(self):
        registry = default_registry()
        assert registry.names() == available_methods()
        assert len(registry) == 14

    def test_aliases_resolve_to_canonical_specs(self):
        registry = default_registry()
        assert registry.resolve("bokhari-sb").name == "sb-bottleneck"
        assert registry.resolve("random").name == "random-search"
        assert registry.resolve("labels").name == "colored-ssb-labels"
        assert registry.resolve("label-search").name == "colored-ssb-labels"
        assert registry.resolve("bidir").name == "colored-ssb-labels"
        assert registry.resolve("colored-ssb-bidir").name == \
            "colored-ssb-labels"
        assert registry.resolve("incremental").name == "colored-ssb-incremental"
        assert registry.resolve("heft").name == "dag-heft"
        assert registry.resolve("auto").name == "portfolio"
        assert "bokhari-sb" in registry
        assert "random" in registry.names(include_aliases=True)

    def test_unknown_method_raises_with_available_list(self):
        registry = default_registry()
        with pytest.raises(UnknownSolverError, match="unknown method"):
            registry.resolve("magic")
        with pytest.raises(ValueError, match="colored-ssb"):
            registry.resolve("magic")

    def test_capability_metadata(self):
        registry = default_registry()
        exact = {spec.name for spec in registry if spec.exact}
        assert exact == {"colored-ssb", "colored-ssb-labels",
                         "colored-ssb-incremental", "brute-force",
                         "pareto-dp", "pareto-dp-pruned", "branch-and-bound",
                         "portfolio"}
        stochastic = {spec.name for spec in registry if spec.stochastic}
        assert stochastic == {"random-search", "genetic", "dag-genetic"}
        non_anytime = {spec.name for spec in registry if not spec.anytime}
        assert non_anytime == {"dag-heft"}
        meta = registry.resolve("colored-ssb").metadata()
        assert meta["exact"] and meta["supports_weighting"]
        assert meta["anytime"]
        assert "complexity" in meta and meta["aliases"] == []

    def test_spec_solve_returns_uniform_result(self, paper_problem):
        result = default_registry().resolve("greedy").solve(paper_problem)
        assert isinstance(result, SolverResult)
        assert result.method == "greedy"
        assert result.objective == pytest.approx(
            result.assignment.end_to_end_delay())
        assert result.elapsed_s >= 0.0


class TestCustomRegistry:
    def _dummy_runner(self, problem, weighting, options):
        from repro.core.assignment import Assignment
        return Assignment.host_only(problem), {"note": "dummy"}

    def test_register_and_resolve(self, paper_problem):
        registry = SolverRegistry()
        registry.register(SolverSpec(name="host-only", runner=self._dummy_runner,
                                     aliases=("noop",)))
        assert registry.resolve("noop").name == "host-only"
        result = registry.resolve("host-only").solve(paper_problem)
        assert result.details["note"] == "dummy"
        assert result.assignment.is_feasible()

    def test_duplicate_names_and_aliases_rejected(self):
        registry = SolverRegistry()
        registry.register(SolverSpec(name="a", runner=self._dummy_runner,
                                     aliases=("b",)))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(SolverSpec(name="a", runner=self._dummy_runner))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(SolverSpec(name="b", runner=self._dummy_runner))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(SolverSpec(name="c", runner=self._dummy_runner,
                                         aliases=("a",)))

    def test_register_solver_decorator(self):
        registry = SolverRegistry()

        @registry.register_solver("decorated", description="via decorator")
        def runner(problem, weighting, options):  # pragma: no cover - not called
            raise NotImplementedError

        assert registry.resolve("decorated").description == "via decorator"
        assert registry.names() == ["decorated"]
